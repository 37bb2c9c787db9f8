"""Quantitative system diagnostics and cross-checked classification.

Each finite system admits optimal two-sided bounds

    A sum |c_k|^2 <= || sum c_k f_k ||^2 <= B sum |c_k|^2,

namely the extreme eigenvalues of the Gram matrix, equivalently the extreme
squared singular values of the column matrix.  `classify` evaluates the
criterion through independent routes (singular values of the columns, Gram
spectrum, and a biorthogonal-dual route when a dual exists) and demands that
they agree within the rounding error bars of `seqcore._error_bar`; a
disagreement is a tolerance bug, never a valid outcome.  Every route reads its
factorization from the system's spectral record.

The dual route rests on the paper's key inequality.  For a biorthogonal pair
(F, G) and any coefficients c,

    ||c||^2 = sum_j |<sum_k c_k f_k, g_j>|^2 <= B_G || sum_k c_k f_k ||^2,

so A_F B_G >= 1, and by the symmetry of biorthogonality A_G B_F >= 1.  The
minimal dual, whose singular values are the reciprocals of F's, attains both
with equality.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .duals import _AcceptedDual, _dual_outcome
from .errors import CriteriaDisagreementError, DimensionError, IllConditionedError
from .seqcore import (
    VectorSequence,
    _as_array,
    _error_bar,
    _gram_eigenvalues,
    _independent,
    _rank,
    _rank_scale,
    _singular_values,
)

class VerdictKind(str, Enum):
    RIESZ_BASIS = "RieszBasis"
    RIESZ_SEQUENCE_INCOMPLETE = "RieszSequenceIncomplete"
    LINEARLY_DEPENDENT = "LinearlyDependent"


@dataclass(frozen=True)
class BoundsReport:
    """Optimal bound constants plus the completeness defect.

    `conditioning` is bessel_upper / riesz_lower, or +inf for a dependent
    system (riesz_lower == 0).  A <= B holds exactly: `classify` squares both from one sorted sigma.
    """

    riesz_lower: float
    bessel_upper: float
    completeness_defect: int
    conditioning: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.riesz_lower <= self.bessel_upper:
            raise ValueError(
                f"bounds must satisfy 0 <= A <= B, got A={self.riesz_lower}, B={self.bessel_upper}"
            )
        if self.completeness_defect < 0:
            raise ValueError("completeness defect cannot be negative")


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    bounds: BoundsReport


class RieszBounds(NamedTuple):
    lower: float
    upper: float


class GramSpectrum(NamedTuple):
    lambda_min: float
    lambda_max: float
    bijective: bool


def riesz_bounds(seq: VectorSequence) -> RieszBounds:
    """Optimal constants (A, B): extreme squared singular values of the columns.

    For a wide system (more vectors than dimensions) the synthesis operator
    has a kernel, so A is exactly zero.
    """
    sigma = _singular_values(seq)
    upper = float(sigma[0]) ** 2
    lower = 0.0 if seq.count > seq.dim else float(sigma[-1]) ** 2
    return RieszBounds(lower, upper)


def _compared_routes(seq: VectorSequence):
    """(A, B), the ascending eigenvalues of the record's Gram product, and the
    Gram route's raw independence reading and vote (None: abstain), after
    asserting that both extremes agree along the two routes: lambda_max with
    sigma_max^2, and lambda_min with the smallest of the min(dim, count)
    singular values squared.  For a wide system the product is F F^H, so
    lambda_min checks sigma_dim^2, not A = 0.  A pair agrees when
    |lambda - sigma^2| <= err_lambda + (2 sigma + err_sigma) err_sigma, the
    error bars of the eigensolve (its size, lambda_max) and of the SVD
    (max(dim, count), sigma_max).

    The Gram route counts eigenvalues above the squared rank tolerance,
    floored at err_lambda.  A lambda_min below that zero but within
    err_lambda of the squared rank tolerance is rounding noise of either
    sign, so the route abstains there.
    """
    lower, upper = riesz_bounds(seq)
    sigma = _singular_values(seq)
    lam = _gram_eigenvalues(seq)
    lambda_min, lambda_max = float(lam[0]), float(lam[-1])
    err_lam = _error_bar(lam.size, lambda_max)
    top, bottom = float(sigma[0]), float(sigma[-1])
    err_sigma = _error_bar(max(seq.columns.shape), top)
    for value, s in ((lambda_max, top), (lambda_min, bottom)):
        if abs(value - s * s) > err_lam + (2.0 * s + err_sigma) * err_sigma:
            raise CriteriaDisagreementError(
                f"Gram spectrum ({lambda_min!r}, {lambda_max!r}) disagrees with "
                f"singular values squared ({bottom ** 2!r}, {upper!r})"
            )
    rank_tol_sq = lambda_max * _rank_scale(seq.columns.shape) ** 2
    rank = int(np.count_nonzero(lam > max(rank_tol_sq, err_lam)))
    independent = rank == seq.count
    abstain = not independent and lambda_min > rank_tol_sq - err_lam
    vote = None if abstain else _verdict_kind(independent, seq.dim - rank)
    return lower, upper, lam, independent, vote


def bessel_bound(seq: VectorSequence) -> float:
    """Smallest valid upper bound B, asserted equal along both routes."""
    return _compared_routes(seq)[1]


def completeness_defect(seq: VectorSequence) -> int:
    """Ambient dimension minus the numerical rank of the columns; 0 = complete."""
    return seq.dim - _rank(seq)


def span_distance(seq: VectorSequence, vector) -> float:
    """Euclidean distance from a vector to the span of the columns.

    Exactly 0.0 when the columns' numerical rank equals the ambient dimension,
    the decision behind a completeness defect of 0.  For independent columns
    (numerical rank == count < dim) it is |R[count, count]|, with R from the
    Householder QR of [F h]: the norm of h's component orthogonal to span F,
    with no Q formed and no subtraction.  For dependent columns it is the
    residual of a least-squares solve that drops singular values at the rank
    threshold.  A vector without a nonzero imaginary part enters as a real
    vector, so a real system's probe by a real vector, such as every e_i of
    the family studies, stays in real arithmetic; a complex vector makes the
    factorization complex.
    """
    h = _as_array(vector, "vector", 1, copy=False)
    if h.shape[0] != seq.dim:
        raise DimensionError(f"vector has length {h.shape[0]}, expected ambient dimension {seq.dim}")
    if _rank(seq) == seq.dim:
        return 0.0
    cols = seq.columns
    if _independent(seq):
        return float(abs(np.linalg.qr(np.column_stack([cols, h]), mode="r")[seq.count, seq.count]))
    solution = np.linalg.lstsq(cols, h, rcond=_rank_scale(cols.shape))[0]
    return float(np.linalg.norm(h - cols @ solution))


def gram_spectrum(seq: VectorSequence) -> GramSpectrum:
    """Eigenvalue extremes of the Gram matrix and the bijectivity flag.

    `bijective` is the Gram route's raw reading, lambda_min above its
    effective zero.  A wide system's Gram matrix is singular by its shape, so
    its lambda_min is exactly 0.0, as riesz_bounds reports A.  Asserts
    agreement with the singular-value route before returning.
    """
    _, _, lam, bijective, _ = _compared_routes(seq)
    lambda_min = 0.0 if seq.count > seq.dim else float(lam[0])
    return GramSpectrum(lambda_min, float(lam[-1]), bijective)


def _verdict_kind(independent: bool, defect: int) -> VerdictKind:
    if not independent:
        return VerdictKind.LINEARLY_DEPENDENT
    if defect > 0:
        return VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
    return VerdictKind.RIESZ_BASIS


def classify(seq: VectorSequence) -> Verdict:
    """Classify a system, cross-checking every available criterion route.

    The column route (singular values of the columns) decides the verdict.
    Its extreme singular values squared must agree with the Gram spectrum's
    extremes within their error bars.  The Gram route votes from the Gram
    spectrum, abstaining where lambda_min is within its error bar of the
    squared rank tolerance, and its vote must match the column route.  For
    independent columns the dual route checks the paper's identity on the
    minimal dual: A_F B_G and B_F A_G must both equal 1 within
    `_pair_inequality`'s error bar, which compares each extreme of the dual's
    spectrum with an extreme of F's; it abstains where the dual's recorded
    outcome is a refusal, or where the partner's own SVD refuses its range.
    `CriteriaDisagreementError` signals a tolerance bug.  Each route factors
    its own matrix once (an SVD of F, an eigensolve of the smaller of F^H F
    and F F^H, the dual's solve and SVD) and keeps the factorization in that
    matrix's spectral record; the dual's Gram product is never formed.  A
    monomial system and its dual read their singular values, Gram
    eigenvalues and the dual itself at the nonzeros that one scan listed
    (`seqcore._pattern`), so no kernel runs; every check still runs on them.
    """
    lower, upper, _, _, vote = _compared_routes(seq)
    defect = completeness_defect(seq)
    kind = _verdict_kind(_independent(seq), defect)
    if vote is not None and vote is not kind:
        raise CriteriaDisagreementError(
            f"column route says {kind.value}, Gram route says {vote.value}"
        )
    outcome = _dual_outcome(seq)
    if isinstance(outcome, _AcceptedDual):
        with suppress(IllConditionedError):  # the partner's SVD is refused: abstain
            _pair_inequality(seq, outcome.partner, minimal=True)
    conditioning = math.inf if lower == 0.0 else upper / lower
    report = BoundsReport(lower, upper, defect, conditioning)
    return Verdict(kind, report)


def _pair_inequality(seq: VectorSequence, partner: VectorSequence, minimal: bool = False) -> None:
    """Raises `CriteriaDisagreementError` unless A_F B_G >= 1 and B_F A_G >= 1
    for F = seq and a biorthogonal partner G, with equality for the minimal
    dual, each within the error bar of size count and scale B_F B_G: A_F
    from an SVD errs by up to the bar of scale B_F, which the product scales
    by B_G, and symmetrically for A_G.  Both sides' bounds are read from
    their records."""
    lower, upper = riesz_bounds(seq)
    partner_lower, partner_upper = riesz_bounds(partner)
    tol = _error_bar(seq.count, upper * partner_upper)
    ab, ba = lower * partner_upper, upper * partner_lower
    miss = max(abs(ab - 1.0), abs(ba - 1.0)) if minimal else 1.0 - min(ab, ba)
    if miss > tol:
        prefix = "minimal dual misses A_F B_G = 1 or B_F A_G = 1: " if minimal else ""
        raise CriteriaDisagreementError(
            f"{prefix}A_F B_G = {ab!r} and B_F A_G = {ba!r} miss 1 by {miss!r}, "
            f"over the tolerance {tol!r}"
        )
