"""Biorthogonal dual construction and reconstruction-identity checks.

A linearly independent system has a unique biorthogonal partner inside its
own span, with columns F Gram^{-1}; it has minimal column norms among all
biorthogonal partners.  With that dual, the composition h -> sum_k <h, g_k> f_k
reconstructs every vector of the span, which is what
`duality_identity_residual` measures.

A system with at most one nonzero per row and column has disjoint column
supports, so its Gram matrix is diagonal and its minimal dual holds
1/conj(a) where the system holds a: `_dual_outcome` writes it from the
system's recorded entries, with no Gram product and no solve.  Two such
systems with the same nonzero rows have diagonal G^H F and F G^H, so both
residuals are read from the products of their entries.
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
    _monomial_entries,
    _recorded,
    _sigma,
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


def _paired_entries(seq: VectorSequence, partner: VectorSequence):
    """For two systems with at most one nonzero per row and column, whose
    columns hold their nonzeros at the same rows (row -1 for a column zero in
    both): those rows and the products conj(g_k) f_k; else None.  G^H F is
    then diagonal with these products in column order, and F G^H diagonal
    with them at those rows and zeros at the other rows."""
    f, g = _monomial_entries(seq), _monomial_entries(partner)
    if f is None or g is None or not np.array_equal(f.rows, g.rows):
        return None
    return f.rows, np.conj(g.values) * f.values


def biorthogonality_residual(seq: VectorSequence, partner: VectorSequence) -> float:
    """max over (j, k) of |<f_k, g_j> - delta_jk|.  For two systems with at
    most one nonzero per row and column at the same rows, max |conj(g_k) f_k
    - 1|, read from their entries with no count x count product."""
    _check_pair(seq, partner)
    paired = _paired_entries(seq, partner)
    if paired is not None:
        return float(np.abs(paired[1] - 1.0).max())
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
    entries = _monomial_entries(seq)
    if entries is not None:
        # Disjoint supports make the Gram matrix diagonal, so column k of
        # F Gram^{-1} is a e_r / |a|^2 = e_r / conj(a), for its nonzero a at row r.
        columns = np.zeros_like(seq.columns)
        columns[entries.rows, np.arange(seq.count)] = 1.0 / np.conj(entries.values)
        partner = VectorSequence._adopt(columns)
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

    Two systems with at most one nonzero per row and column at the same rows
    have a diagonal R, f_k conj(g_k) - 1 at each column's row and -1 at the
    rows off their support, so its norm is max |conj(g_k) f_k - 1|, raised to
    1.0 when fewer columns than dim hold a nonzero: read from their entries,
    with no product, QR or SVD.  Any other pair forms a product, as follows.

    A tall pair (2 count < dim) never forms the dim x dim R.  With Q an
    orthonormal basis from the reduced QR of [F G], R and its adjoint map
    span(Q) into itself, and R = -I on its nonzero complement, so the norm is
    max(||(Q^H F)(G^H Q) - I||, 1) exactly, from a 2 count x 2 count SVD.

    Any other pair forms R and takes the norm of its block of nonzero rows
    and columns, which has R's nonzero singular values: a Young pair's R is
    nonzero only in its complement rows, and its complement_dim x dim block
    holds one nonzero per column, so its rows have disjoint supports and its
    norm is the largest row norm, with no SVD (`_sigma`).  A dense R goes to
    the SVD as it is, uncopied, and an all-zero R reads 0.0.
    """
    _check_pair(seq, partner)
    paired = _paired_entries(seq, partner)
    if paired is not None:
        rows, products = paired
        supported = rows >= 0
        off_support = 1.0 if np.count_nonzero(supported) < seq.dim else 0.0
        return max(float(np.abs(products[supported] - 1.0).max(initial=0.0)), off_support)
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
