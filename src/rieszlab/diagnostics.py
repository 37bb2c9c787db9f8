"""Quantitative system diagnostics and cross-checked classification.

Each finite system admits optimal two-sided bounds

    A sum |c_k|^2 <= || sum c_k f_k ||^2 <= B sum |c_k|^2,

namely the extreme eigenvalues of the Gram matrix, equivalently the extreme
squared singular values of the column matrix.  `classify` evaluates the
criterion through independent routes (singular values of the columns, Gram
spectrum, and a biorthogonal-dual route when a dual exists) and demands that
they agree; a disagreement is a tolerance bug, never a valid outcome.  Every
route reads its factorization from the system's spectral record.

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
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .duals import BIORTHOGONALITY_TOL, _minus_identity, minimal_dual
from .errors import (
    CriteriaDisagreementError,
    IllConditionedError,
    NotARieszBasisError,
)
from .seqcore import (
    VectorSequence,
    _ambient_vector,
    _gram_eigenvalues,
    _independent,
    _kernel_view,
    _rank,
    _rank_scale,
    _real_twin,
    _singular_values,
)

#: Relative agreement demanded between the Gram-eigenvalue and
#: singular-value computations of the same bound.
TWO_ROUTE_RTOL = 1e-8

#: Safety factor on the eigensolver accuracy floor.  A dense Hermitian
#: eigensolver returns lambda_min with absolute error on the order of
#: m * eps * lambda_max, so bijectivity decisions on the Gram route cannot
#: resolve eigenvalues below that scale.  An SVD's squared singular values
#: carry errors of the same order, so the pair inequality's tolerance
#: (`_pair_inequality`) uses the same factor.
_EIG_FLOOR_FACTOR = 8.0


class VerdictKind(str, Enum):
    RIESZ_BASIS = "RieszBasis"
    RIESZ_SEQUENCE_INCOMPLETE = "RieszSequenceIncomplete"
    LINEARLY_DEPENDENT = "LinearlyDependent"


@dataclass(frozen=True)
class BoundsReport:
    """Optimal bound constants plus the completeness defect.

    `conditioning` is bessel_upper / riesz_lower, or +inf for a dependent
    system (riesz_lower == 0).
    """

    riesz_lower: float
    bessel_upper: float
    completeness_defect: int
    conditioning: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.riesz_lower <= self.bessel_upper * (1 + 1e-12) + 1e-300:
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


def _gram_route(seq: VectorSequence, lam: np.ndarray) -> Tuple[bool, Optional[VerdictKind]]:
    """The Gram route's raw independence reading and its vote (None: abstain).

    Eigenvalues count above the squared rank tolerance, floored at the
    eigensolver's absolute accuracy on the matrix it solved (lam.size, which
    is dim for a wide system).  A lambda_min below that zero but within
    the accuracy of the squared rank tolerance is rounding noise of either
    sign, so the route abstains there.
    """
    lambda_max = float(lam[-1])
    rank_tol_sq = lambda_max * _rank_scale(seq.columns.shape) ** 2
    eig_floor = _EIG_FLOOR_FACTOR * lam.size * float(np.finfo(float).eps) * lambda_max
    rank = int(np.count_nonzero(lam > max(rank_tol_sq, eig_floor)))
    independent = rank == seq.count
    if not independent and lam[0] > rank_tol_sq - eig_floor:
        return independent, None
    return independent, _verdict_kind(independent, seq.dim - rank)


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
    """(A, B) from the singular values and the ascending eigenvalues of the
    record's Gram product, after asserting that both extremes agree along the
    two routes: lambda_max with sigma_max^2, and lambda_min with the smallest
    of the min(dim, count) singular values squared.  For a wide system the
    product is F F^H, so lambda_min checks sigma_dim^2, not A = 0."""
    lower, upper = riesz_bounds(seq)
    smallest = float(_singular_values(seq)[-1]) ** 2
    lam = _gram_eigenvalues(seq)
    lambda_min, lambda_max = float(lam[0]), float(lam[-1])
    scale = max(lambda_max, upper)
    if scale > 0.0 and (
        abs(lambda_max - upper) > TWO_ROUTE_RTOL * scale
        or abs(lambda_min - smallest) > TWO_ROUTE_RTOL * scale
    ):
        raise CriteriaDisagreementError(
            f"Gram spectrum ({lambda_min!r}, {lambda_max!r}) disagrees with "
            f"singular values squared ({smallest!r}, {upper!r})"
        )
    return lower, upper, lam


def bessel_bound(seq: VectorSequence) -> float:
    """Smallest valid upper bound B, asserted equal along both routes."""
    return _compared_routes(seq)[1]


def completeness_defect(seq: VectorSequence) -> int:
    """Ambient dimension minus the numerical rank of the columns; 0 = complete."""
    return seq.dim - _rank(seq)


def span_distance(seq: VectorSequence, vector) -> float:
    """Euclidean distance from a vector to the span of the columns.

    Exactly 0.0 when the columns' numerical rank equals the ambient dimension,
    the decision behind a completeness defect of 0; otherwise the residual of
    a least-squares solve that drops singular values at the same threshold.
    The solve reads the column-route view, which has the span of the columns.
    A vector without a nonzero imaginary part enters it as a real vector; a
    complex vector against a real view enters as its real and imaginary
    parts, two real right-hand sides whose residuals make up its own, so a
    real view stays in real arithmetic.
    """
    h = _kernel_view(_ambient_vector(vector, seq.dim))
    if _rank(seq) == seq.dim:
        return 0.0
    # Row-major like `columns`, so the residual product rounds alike.
    view = np.ascontiguousarray(_real_twin(seq))
    if view.dtype == float and h.dtype == complex:
        h = np.stack([h.real, h.imag], axis=1)
    solution = np.linalg.lstsq(view, h, rcond=_rank_scale(seq.columns.shape))[0]
    return float(np.linalg.norm(h - view @ solution))


def gram_spectrum(seq: VectorSequence) -> GramSpectrum:
    """Eigenvalue extremes of the Gram matrix and the bijectivity flag.

    `bijective` is the Gram route's raw reading, lambda_min above its
    effective zero.  A wide system's Gram matrix is singular by its shape, so
    its lambda_min is exactly 0.0, as riesz_bounds reports A.  Asserts
    agreement with the singular-value route before returning.
    """
    lam = _compared_routes(seq)[2]
    lambda_min = 0.0 if seq.count > seq.dim else float(lam[0])
    return GramSpectrum(lambda_min, float(lam[-1]), _gram_route(seq, lam)[0])


def equivalent_inner_product(seq: VectorSequence) -> np.ndarray:
    """Positive-definite W with <x, y>_W = y^H W x making the system orthonormal.

    W is the inverse of F F^H; under it the Gram matrix of the system is the
    identity.  Only defined for a system that classifies as a Riesz basis.  W
    is returned only if max |F^H W F - I| meets the 1e-8 contract; otherwise
    IllConditionedError is raised.
    """
    verdict = classify(seq)
    if verdict.kind is not VerdictKind.RIESZ_BASIS:
        raise NotARieszBasisError(
            f"equivalent inner product requires a Riesz basis, got {verdict.kind.value}"
        )
    f = seq.columns
    u, sigma, _ = np.linalg.svd(f)
    w = (u / sigma**2) @ u.conj().T
    w = (w + w.conj().T) / 2.0
    residual = float(np.abs(_minus_identity(f.conj().T @ w @ f)).max())
    if residual > BIORTHOGONALITY_TOL:
        raise IllConditionedError(
            f"W-Gram identity residual {residual:.3e} exceeds {BIORTHOGONALITY_TOL:.0e}"
        )
    return w.astype(complex, copy=False)


def _verdict_kind(independent: bool, defect: int) -> VerdictKind:
    if not independent:
        return VerdictKind.LINEARLY_DEPENDENT
    if defect > 0:
        return VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
    return VerdictKind.RIESZ_BASIS


def classify(seq: VectorSequence) -> Verdict:
    """Classify a system, cross-checking every available criterion route.

    The column route (singular values of the columns) decides the verdict.
    The Gram route votes from the Gram spectrum, abstaining where lambda_min
    is within the eigensolver's accuracy of the squared rank tolerance, and
    its vote must match the column route.  For independent columns the dual
    route checks the paper's identity on the minimal dual: A_F B_G and
    B_F A_G must both equal 1 within `_pair_inequality`'s tolerance, which
    compares each extreme of the dual's spectrum with an extreme of F's; it
    abstains where the dual or its factorization is refused as ill-conditioned.
    `CriteriaDisagreementError` signals a tolerance bug.  Each route factors
    its own matrix once (an SVD of F, an eigensolve of the smaller of F^H F
    and F F^H, the dual's solve and SVD) and keeps the factorization in that
    matrix's spectral record; the dual's Gram product is never formed.
    """
    lower, upper, lam = _compared_routes(seq)
    defect = completeness_defect(seq)
    kind = _verdict_kind(_independent(seq), defect)
    vote = _gram_route(seq, lam)[1]
    if vote is not None and vote is not kind:
        raise CriteriaDisagreementError(
            f"column route says {kind.value}, Gram route says {vote.value}"
        )
    if kind is not VerdictKind.LINEARLY_DEPENDENT:
        with suppress(IllConditionedError):  # the dual or its SVD is refused: abstain
            _pair_inequality(seq, minimal_dual(seq), minimal=True)
    conditioning = math.inf if lower == 0.0 else upper / lower
    report = BoundsReport(lower, upper, defect, conditioning)
    return Verdict(kind, report)


def _pair_inequality(seq: VectorSequence, partner: VectorSequence, minimal: bool = False) -> None:
    """Raises `CriteriaDisagreementError` unless A_F B_G >= 1 and B_F A_G >= 1
    for F = seq and a biorthogonal partner G, with equality for the minimal
    dual, each within 8 count eps B_F B_G: A_F from an SVD carries an absolute
    error of order count eps B_F, which the product scales by B_G, and
    symmetrically for A_G.  Both sides' bounds are read from their records."""
    lower, upper = riesz_bounds(seq)
    partner_lower, partner_upper = riesz_bounds(partner)
    tol = _EIG_FLOOR_FACTOR * seq.count * float(np.finfo(float).eps) * upper * partner_upper
    ab, ba = lower * partner_upper, upper * partner_lower
    miss = max(abs(ab - 1.0), abs(ba - 1.0)) if minimal else 1.0 - min(ab, ba)
    if miss > tol:
        prefix = "minimal dual misses A_F B_G = 1 or B_F A_G = 1: " if minimal else ""
        raise CriteriaDisagreementError(
            f"{prefix}A_F B_G = {ab!r} and B_F A_G = {ba!r} miss 1 by {miss!r}, "
            f"over the tolerance {tol!r}"
        )
