"""Biorthogonal dual construction and reconstruction-identity checks.

A linearly independent system has a unique biorthogonal partner inside its
own span, with columns F Gram^{-1}; it has minimal column norms among all
biorthogonal partners.  With that dual, the composition h -> sum_k <h, g_k> f_k
reconstructs every vector of the span, which is what
`duality_identity_residual` measures.

A monomial system, with at most one nonzero per row and column, has a
diagonal Gram matrix, so its minimal dual holds 1/conj(a) where it holds a:
`_dual_outcome` writes it at the system's recorded nonzeros
(`seqcore._pattern`), with no Gram product or solve.  Two monomial systems
with the same nonzero positions have diagonal G^H F and F G^H, so both
residuals are read from the products of their nonzeros.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    IllConditionedError,
    NoBiorthogonalSequenceError,
)
from .seqcore import (
    VectorSequence,
    _gram_entries,
    _independent,
    _nonzeros,
    _pattern,
    _recorded,
    _sigma,
    _with_pattern,
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


def _paired_residual(seq: VectorSequence, partner: VectorSequence, size: int):
    """For two monomial systems with their nonzeros at the same positions:
    max |conj(g) f - 1| over the products of those nonzeros, raised to 1.0
    when there are fewer than `size`; else None.  G^H F (size count) is then
    diagonal, with the products at their columns and -1 at the others, and
    F G^H (size dim) alike at their rows."""
    f, g = _pattern(seq), _pattern(partner)
    if f is None or g is None or not f.monomial or not np.array_equal(f.flat, g.flat):
        return None
    products = np.conj(partner.columns.ravel()[f.flat]) * seq.columns.ravel()[f.flat]
    return max(float(np.abs(products - 1.0).max(initial=0.0)), 1.0 if products.size < size else 0.0)


def biorthogonality_residual(seq: VectorSequence, partner: VectorSequence) -> float:
    """max over (j, k) of |<f_k, g_j> - delta_jk|.  For two monomial systems
    with their nonzeros at the same positions, read from the products of
    those nonzeros with no count x count product (`_paired_residual`)."""
    _check_pair(seq, partner)
    paired = _paired_residual(seq, partner, seq.count)
    if paired is not None:
        return paired
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
    pattern = _pattern(seq)
    if pattern is not None and pattern.monomial:
        # Disjoint supports make the Gram matrix diagonal, so column k of
        # F Gram^{-1} is a e_r / |a|^2 = e_r / conj(a), for its nonzero a at
        # row r: finite and nonzero, so the dual has the system's pattern.
        columns = np.zeros_like(seq.columns)
        columns.ravel()[pattern.flat] = 1.0 / np.conj(seq.columns.ravel()[pattern.flat])
        partner = _with_pattern(VectorSequence._adopt(columns), pattern)
    else:
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

    Two monomial systems with their nonzeros at the same positions have a
    diagonal R, f conj(g) - 1 at each nonzero's row and -1 at the other rows,
    so its norm is read from the products of their nonzeros, with no product,
    QR or SVD (`_paired_residual`).  Any other pair forms a product, as follows.

    A tall pair (2 count < dim) never forms the dim x dim R.  With Q an
    orthonormal basis from the reduced QR of [F G], R and its adjoint map
    span(Q) into itself, and R = -I on its nonzero complement, so the norm is
    max(||(Q^H F)(G^H Q) - I||, 1) exactly, from a 2 count x 2 count SVD.

    Any other pair forms R, and `_sigma` takes its norm as it is, uncopied,
    after one scan of its nonzeros: a Young pair's R is nonzero only in its
    complement rows, with one nonzero per column, so its rows have disjoint
    supports and its norm is the largest row norm, with no SVD, and an
    all-zero R reads 0.0.  A dense R goes to the SVD.
    """
    _check_pair(seq, partner)
    paired = _paired_residual(seq, partner, seq.dim)
    if paired is not None:
        return paired
    f, g = seq.columns, partner.columns
    if 2 * seq.count < seq.dim:
        q = np.linalg.qr(np.concatenate([f, g], axis=1))[0]
        compressed = _minus_identity((q.conj().T @ f) @ (g.conj().T @ q))
        return max(float(_sigma(compressed, _nonzeros(compressed))[0]), 1.0)
    residual = _minus_identity(f @ g.conj().T)
    return float(_sigma(residual, _nonzeros(residual))[0])
