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
    NotBiorthogonalError,
)
from .seqcore import (
    VectorSequence,
    _gram_entries,
    _independent,
    analysis,
    synthesis,
)

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

    The outcome is kept in the system's spectral record: later calls return
    the same partner, or raise a fresh error of the same type and message.
    The partner has its own record, independent of the system's.  A real
    system's partner is real.
    """
    return _accepted_dual(seq).partner


def _accepted_dual(seq: VectorSequence) -> _AcceptedDual:
    """The minimal dual with the biorthogonality residual that accepted it,
    read from the system's spectral record; raises as `minimal_dual` does."""
    outcome = seq._record.fill("dual", lambda: _construct_dual(seq))
    if isinstance(outcome, _AcceptedDual):
        return outcome
    error_type, message = outcome
    raise error_type(message)


def _construct_dual(seq: VectorSequence):
    """The accepted minimal dual, or the (error type, message) that refuses it."""
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
    """
    _check_pair(seq, partner)
    f, g = seq.columns, partner.columns
    if 2 * seq.count < seq.dim:
        q = np.linalg.qr(np.concatenate([f, g], axis=1))[0]
        compressed = _minus_identity((q.conj().T @ f) @ (g.conj().T @ q))
        return max(float(np.linalg.norm(compressed, 2)), 1.0)
    return float(np.linalg.norm(_minus_identity(f @ g.conj().T), 2))


def injectivity_witness(seq: VectorSequence, partner: VectorSequence, coeffs):
    """Recover coefficients through the dual: (<sum_k c_k f_k, g_j>)_j.

    For a biorthogonal pair this returns the input coefficients, which is the
    computation showing the synthesis operator has no kernel.
    """
    residual = biorthogonality_residual(seq, partner)
    if residual > BIORTHOGONALITY_TOL:
        raise NotBiorthogonalError(
            f"pair is not biorthogonal: residual {residual:.3e} exceeds {BIORTHOGONALITY_TOL:.0e}"
        )
    return analysis(partner, synthesis(seq, coeffs))
