"""Quantitative system diagnostics and cross-checked classification.

Each finite system admits optimal two-sided bounds

    A sum |c_k|^2 <= || sum c_k f_k ||^2 <= B sum |c_k|^2,

namely the extreme eigenvalues of the Gram matrix, equivalently the extreme
squared singular values of the column matrix.  `classify` evaluates the
criterion through independent routes (singular values of the columns, Gram
spectrum, and a biorthogonal-dual route when a dual exists) and demands that
they agree; a disagreement is a tolerance bug, never a valid outcome.  Every
route reads its factorization from the system's spectral record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    CriteriaDisagreementError,
    DimensionError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
    NotARieszBasisError,
)
from .seqcore import (
    RANK_TOL_SCALE,
    VectorSequence,
    _ambient_vector,
    _rank,
    _rank_tol,
    _singular_values,
    gram,
)

#: Relative agreement demanded between the Gram-eigenvalue and
#: singular-value computations of the same bound.
TWO_ROUTE_RTOL = 1e-8

#: Residual below which a pair counts as biorthogonal.
BIORTHOGONALITY_TOL = 1e-8

#: Safety factor on the eigensolver accuracy floor.  A dense Hermitian
#: eigensolver returns lambda_min with absolute error on the order of
#: m * eps * lambda_max, so bijectivity decisions on the Gram route cannot
#: resolve eigenvalues below that scale.
_EIG_FLOOR_FACTOR = 8.0

_W_GRAM_TOL = 1e-8


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


def _gram_zero_threshold(lambda_max: float, dim: int, count: int) -> float:
    """Effective zero for Gram eigenvalues: shared rank tolerance squared,
    floored at the eigensolver's absolute accuracy."""
    rank_tol_sq = lambda_max * (max(dim, count) * RANK_TOL_SCALE) ** 2
    eig_floor = _EIG_FLOOR_FACTOR * count * float(np.finfo(float).eps) * lambda_max
    return float(max(rank_tol_sq, eig_floor))


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
    """(A, B) from the singular values and the ascending Gram eigenvalues,
    after asserting that both extremes agree along the two routes."""
    lower, upper = riesz_bounds(seq)
    lam = gram(seq).eigenvalues
    lambda_min, lambda_max = float(lam[0]), float(lam[-1])
    scale = max(lambda_max, upper)
    if scale > 0.0 and (
        abs(lambda_max - upper) > TWO_ROUTE_RTOL * scale
        or abs(lambda_min - lower) > TWO_ROUTE_RTOL * scale
    ):
        raise CriteriaDisagreementError(
            f"Gram spectrum ({lambda_min!r}, {lambda_max!r}) disagrees with "
            f"singular-value bounds ({lower!r}, {upper!r})"
        )
    return lower, upper, lam


def bessel_bound(seq: VectorSequence) -> float:
    """Smallest valid upper bound B, asserted equal along both routes."""
    return _compared_routes(seq)[1]


def completeness_defect(seq: VectorSequence) -> int:
    """Ambient dimension minus the numerical rank of the columns; 0 = complete."""
    return seq.dim - _rank(seq)


def span_distance(seq: VectorSequence, vector) -> float:
    """Euclidean distance from a vector to the span of the columns."""
    h = _ambient_vector(vector, seq.dim)
    rcond = max(seq.dim, seq.count) * RANK_TOL_SCALE
    solution = np.linalg.lstsq(seq.columns, h, rcond=rcond)[0]
    return float(np.linalg.norm(h - seq.columns @ solution))


def gram_spectrum(seq: VectorSequence) -> GramSpectrum:
    """Eigenvalue extremes of the Gram matrix and the bijectivity flag.

    Asserts agreement with the singular-value route before returning.
    """
    lam = _compared_routes(seq)[2]
    lambda_min, lambda_max = float(lam[0]), float(lam[-1])
    bijective = bool(lambda_min > _gram_zero_threshold(lambda_max, seq.dim, seq.count))
    return GramSpectrum(lambda_min, lambda_max, bijective)


def _check_pair(seq: VectorSequence, partner: VectorSequence) -> None:
    if seq.count != partner.count or seq.dim != partner.dim:
        raise DimensionError(
            f"shape mismatch: {seq.dim}x{seq.count} vs {partner.dim}x{partner.count}"
        )


def biorthogonality_residual(seq: VectorSequence, partner: VectorSequence) -> float:
    """max over (j, k) of |<f_k, g_j> - delta_jk|."""
    _check_pair(seq, partner)
    cross = partner.columns.conj().T @ seq.columns
    return float(np.abs(cross - np.eye(seq.count)).max())


def equivalent_inner_product(seq: VectorSequence) -> np.ndarray:
    """Positive-definite W with <x, y>_W = y^H W x making the system orthonormal.

    W is the inverse of F F^H; under it the Gram matrix of the system is the
    identity.  Only defined for a system that classifies as a Riesz basis.
    """
    verdict = classify(seq)
    if verdict.kind is not VerdictKind.RIESZ_BASIS:
        raise NotARieszBasisError(
            f"equivalent inner product requires a Riesz basis, got {verdict.kind.value}"
        )
    u, sigma, _ = np.linalg.svd(seq.columns)
    w = (u / sigma**2) @ u.conj().T
    return (w + w.conj().T) / 2.0


def _verdict_kind(independent: bool, defect: int) -> VerdictKind:
    if not independent:
        return VerdictKind.LINEARLY_DEPENDENT
    if defect > 0:
        return VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
    return VerdictKind.RIESZ_BASIS


def classify(seq: VectorSequence) -> Verdict:
    """Classify a system, cross-checking every available criterion route.

    Route one works on the singular values of the columns, route two on the
    Gram spectrum, and, whenever a biorthogonal dual is constructible, route
    three checks the dual's defect against the relaxed criterion (two-sided
    bounded pair, biorthogonal, at least one member complete).  Routes must
    agree; `CriteriaDisagreementError` signals a tolerance bug.

    The routes stay independent (an SVD of F, an eigensolve of F^H F, the
    dual's solve, SVD and eigensolve); each factorization is kept in the
    spectral record of the system it factors and reused by later calls.
    """
    lower, upper, lam = _compared_routes(seq)
    tol = _rank_tol(seq)
    defect = seq.dim - _rank(seq)
    kind = _verdict_kind(lower > tol**2, defect)

    gram_zero = _gram_zero_threshold(float(lam[-1]), seq.dim, seq.count)
    gram_rank = int(np.count_nonzero(lam > gram_zero))
    gram_kind = _verdict_kind(float(lam[0]) > gram_zero, seq.dim - gram_rank)
    if gram_kind is not kind:
        raise CriteriaDisagreementError(
            f"column route says {kind.value}, Gram route says {gram_kind.value}"
        )

    if kind is not VerdictKind.LINEARLY_DEPENDENT:
        _check_dual_route(seq, kind, defect)

    conditioning = math.inf if lower == 0.0 else upper / lower
    report = BoundsReport(lower, upper, defect, conditioning)
    return Verdict(kind, report)


def _check_dual_route(seq: VectorSequence, kind: VerdictKind, defect: int) -> None:
    from . import duals  # deferred; duals depends on this module

    try:
        partner = duals.minimal_dual(seq)
    except NoBiorthogonalSequenceError as exc:
        raise CriteriaDisagreementError(
            f"column route found independent columns but dual construction failed: {exc}"
        ) from exc
    except IllConditionedError:
        # The dual exists but is out of numerical reach; nothing trustworthy
        # to cross-check, so the route is skipped rather than failed.
        return
    residual = biorthogonality_residual(seq, partner)
    if residual > BIORTHOGONALITY_TOL:
        raise CriteriaDisagreementError(
            f"minimal dual fails biorthogonality: residual {residual:.3e}"
        )
    if not (np.isfinite(bessel_bound(seq)) and np.isfinite(bessel_bound(partner))):
        raise CriteriaDisagreementError("non-finite upper bound on a finite system")
    dual_defect = completeness_defect(partner)
    dual_kind = (
        VerdictKind.RIESZ_BASIS
        if min(defect, dual_defect) == 0
        else VerdictKind.RIESZ_SEQUENCE_INCOMPLETE
    )
    if dual_kind is not kind:
        raise CriteriaDisagreementError(
            f"column route says {kind.value}, dual route says {dual_kind.value}"
        )
