"""Biorthogonal dual construction and reconstruction-identity checks.

A linearly independent system has a unique biorthogonal partner inside its
own span, with columns F Gram^{-1}; it has minimal column norms among all
biorthogonal partners.  With that dual, the composition h -> sum_k <h, g_k> f_k
reconstructs every vector of the span, which is what
`duality_identity_residual` measures.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
)
from .seqcore import VectorSequence, _gram_entries, _independent, _recorded, _sigma

#: Residual below which a pair counts as biorthogonal.
BIORTHOGONALITY_TOL = 1e-8


def _check_pair(seq: VectorSequence, partner: VectorSequence) -> None:
    if seq.count != partner.count or seq.dim != partner.dim:
        raise DimensionError(
            f"shape mismatch: {seq.dim}x{seq.count} vs {partner.dim}x{partner.count}"
        )


def _minus_identity(square: np.ndarray) -> np.ndarray:
    """`square` - I, formed in place on the diagonal of `square`, a fresh
    product; the same bits as `square - np.eye(n)` without two more n x n arrays."""
    square[np.diag_indices_from(square)] -= 1.0
    return square


def biorthogonality_residual(seq: VectorSequence, partner: VectorSequence) -> float:
    """max over (j, k) of |<f_k, g_j> - delta_jk|."""
    _check_pair(seq, partner)
    return float(np.abs(_minus_identity(partner.columns.conj().T @ seq.columns)).max())


class _AcceptedDual(NamedTuple):
    partner: VectorSequence
    biorthogonality_residual: float


def minimal_dual(seq: VectorSequence) -> VectorSequence:
    """The biorthogonal partner with columns F Gram^{-1}.

    Requires linearly independent columns: a dependent system is not minimal
    and admits no biorthogonal sequence at all.  The Gram system is solved
    from a factorization (never via an explicit inverse), and the result is
    accepted only if the biorthogonality residual meets the 1e-8 contract;
    otherwise IllConditionedError is raised instead of returning a silently
    degraded dual.

    The outcome is the entry `_dual_outcome` of the system's spectral record,
    which `classify` and `analyze` read as a value: this returns its partner,
    or raises a fresh error of its recorded type and message, on every call.
    The partner has its own record, independent of the system's.  A real
    system's partner is real.
    """
    outcome = _dual_outcome(seq)
    if isinstance(outcome, _AcceptedDual):
        return outcome.partner
    error_type, message = outcome
    raise error_type(message)


@_recorded
def _dual_outcome(seq: VectorSequence):
    """`minimal_dual`'s outcome: the accepted dual, or the (error type, message) refusing it."""
    if not _independent(seq):
        return NoBiorthogonalSequenceError, (
            "columns are linearly dependent (not minimal); no biorthogonal sequence exists"
        )
    try:
        dual_adjoint = np.linalg.solve(_gram_entries(seq), seq.columns.conj().T)
    except np.linalg.LinAlgError as exc:
        return IllConditionedError, f"Gram factorization failed: {exc}"
    partner = VectorSequence._adopt(np.conjugate(dual_adjoint.T, order="C"))
    del dual_adjoint  # not held beside the residual's product and its copy of the partner
    residual = biorthogonality_residual(seq, partner)
    if residual > BIORTHOGONALITY_TOL:
        return IllConditionedError, (
            f"biorthogonality residual {residual:.3e} exceeds {BIORTHOGONALITY_TOL:.0e}; "
            "the system is too ill-conditioned for a trustworthy dual"
        )
    return _AcceptedDual(partner, residual)


def duality_identity_residual(seq: VectorSequence, partner: VectorSequence) -> float:
    """Spectral norm of R = (h -> sum_k <h, g_k> f_k) minus the identity.

    A tall pair (2 count < dim) never forms the dim x dim R.  With Q an
    orthonormal basis from the reduced QR of [F G], R and its adjoint map
    span(Q) into itself, and R = -I on its nonzero complement, so the norm is
    max(||(Q^H F)(G^H Q) - I||, 1) exactly, from a 2 count x 2 count SVD.

    Any other pair forms R and takes the norm of its block of nonzero rows
    and columns, which has R's nonzero singular values: a Young pair's R is
    nonzero only in its complement rows, so its norm is that of a
    complement_dim x dim block, and with one complement row its Euclidean
    norm, with no SVD.  A dense R goes to the SVD as it is, uncopied, and an
    all-zero R reads 0.0.  A residual with at most one nonzero per row and
    column, such as that of two diagonal systems, has its largest modulus as
    its norm, with no SVD.
    """
    _check_pair(seq, partner)
    f, g = seq.columns, partner.columns
    if 2 * seq.count < seq.dim:
        q = np.linalg.qr(np.concatenate([f, g], axis=1))[0]
        compressed = _minus_identity((q.conj().T @ f) @ (g.conj().T @ q))
        return max(float(_sigma(compressed)[0]), 1.0)
    residual = _minus_identity(f @ g.conj().T)
    rows, cols = np.any(residual, axis=1), np.any(residual, axis=0)
    if not rows.any():
        return 0.0
    if not (rows.all() and cols.all()):
        residual = residual[np.ix_(rows, cols)]
    return float(_sigma(residual)[0])

