"""Vector-system data model and the per-system spectral record.

A truncated sequence (f_k)_{k=1..m} in an n-dimensional complex space is
stored as the columns of an n-by-m matrix.  The inner product used across
the whole package is

    <x, y> = y^H x,

conjugate-linear in the second slot.  Under this convention the analysis
operator h -> (<h, f_k>)_k is the conjugate transpose of the column matrix,
and the Gram matrix has entry (j, k) = <f_k, f_j> = (F^H F)[j, k].

All values are immutable; every operation is a pure function, so instances
can be shared freely across threads.  Each VectorSequence keeps its
factorizations, once computed, in its spectral record, a private dict whose
entries are each the value of one function decorated with `_recorded`.  The
record's Gram product is the smaller of F^H F and F F^H: a wide system (more
vectors than dimensions) is eigensolved on its dim x dim side, which shares
the nonzero spectrum of the count x count Gram matrix.

Each VectorSequence keeps one read-only array, `columns`, which every
factorization and product reads.  `_as_array`, the one intake of the
sequence's columns and of a probe vector, makes it float64 when no entry has
a nonzero imaginary part (-0.0 counts as zero), so a real system is factored
in real arithmetic at about a quarter of the complex flops, and complex128
otherwise.  It reads a complex128 input's imaginary parts before it copies,
so a real-valued one is copied once, straight to float64.  The public
constructors copy their input, so a caller's array never changes a sequence;
the library's own producers (the generators, `read_matrix`, the minimal dual)
hand a fresh array to the private `VectorSequence._adopt`, which checks it
alike and freezes it in place.  A
sampled Gabor system whose nodes pair up is built as its float64 real twin,
straight from its nodes (`generators._gabor_twin`); any other complex system
is factored in complex arithmetic.

Every factored singular value in the package comes from `_sigma`, which
holds its one SVD: a system's own (the record's `_singular_values`) and an
identity residual's norm (`duals.duality_identity_residual`).  A system with
at most one nonzero per row and column is never factored: `_monomial_moduli`
finds each column's nonzero row and value in one scan, kept as the record's
`_monomial_entries`, and its singular values are their moduli, sorted, and
its Gram eigenvalues their squares, both exact, so its two routes agree by
construction.  Its minimal dual and its residuals against a partner with the
same nonzero rows are read from the same entries (`duals`).  Its entries
alone select this path.  Any other matrix with at most one nonzero per
column, or per row, is not factored either (`_disjoint_norms`): its rows,
or its columns, have disjoint supports, so its singular values are their
Euclidean norms, each taken by `math.hypot`.  That covers a single vector,
the complement rows of a Young pair's identity residual, and a system
that is not monomial but has either pattern, whose Gram route still
eigensolves.

Every threshold that asks how large rounding is, in any module, reads
`_error_bar`, and this is the one module that reads machine epsilon.  The
`1e-9` wholeness test of a Gabor window is an input tolerance, not a rounding bar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, IllConditionedError

#: Relative scale of the shared numerical-rank threshold:
#: sigma_max * max(n, m) * RANK_TOL_SCALE.  One constant serves both the
#: completeness-defect and bijectivity tests.
RANK_TOL_SCALE = 1e-12

#: Multiple c of size * eps * scale in every rounding error bar (`_error_bar`).
ERROR_BAR_FACTOR = 8.0

#: The package's one reading of machine epsilon.
_EPS = float(np.finfo(float).eps)

#: Range whose squares are normal floats.
_SIGMA_FLOOR = float(np.sqrt(np.finfo(float).tiny))
_SIGMA_CEILING = float(np.sqrt(np.finfo(float).max))


def _as_array(values, name: str, ndim: int, copy: bool = True) -> np.ndarray:
    """A validated C-contiguous array of `ndim` dimensions: float64 when no
    entry has a nonzero imaginary part (-0.0 counts as zero), else complex128.
    Without `copy`, a float64 C-contiguous `values`, or a complex128 one with
    a nonzero imaginary part, is itself.  A complex128 `values` of `ndim`
    dimensions is checked before it is copied, so a real-valued one is copied
    once, straight to float64."""
    dtype = getattr(values, "dtype", None)
    if dtype == complex and values.ndim == ndim and not _has_imaginary(values):
        values, dtype = values.real, float
    arr = np.array(values, dtype=float if dtype == float else complex, order="C", copy=copy or None)
    if arr.ndim != ndim:
        shape_name = "two-dimensional" if ndim == 2 else "one-dimensional"
        raise DimensionError(f"{name} must be {shape_name}, got shape {arr.shape}")
    # An entry is finite when both its parts are: one pass over the float64 view.
    if not np.isfinite(arr.view(float)).all():
        raise ValueError(f"{name} contains non-finite entries")
    # A float64 or complex128 input has been settled before the copy.
    if dtype in (float, complex) or _has_imaginary(arr):
        return arr
    return np.array(arr.real, dtype=float, order="C")


def _has_imaginary(arr: np.ndarray) -> bool:
    """Whether a complex array has an entry with a nonzero imaginary part.  One
    in the first row, as in every modulated Gabor system, settles it without
    the strided pass over the whole array."""
    return bool(arr[:1].imag.any() or arr.imag.any())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class VectorSequence:
    """Vectors f_1..f_m stored as the columns of a (dim x m) matrix; the
    ambient space is complex dim-space, dim the row count.

    `columns` is a read-only copy of the input, float64 when no entry has a
    nonzero imaginary part, else complex128; every kernel reads it.  Sequences
    compare and hash by identity, as each owns its spectral record.
    """

    columns: np.ndarray

    def __post_init__(self, copy: bool = True) -> None:
        cols = _as_array(self.columns, "columns", 2, copy)
        if cols.shape[0] < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {cols.shape[0]}")
        if cols.shape[1] < 1:
            raise ValueError("a vector sequence needs at least one member")
        object.__setattr__(self, "columns", _read_only(cols))
        object.__setattr__(self, "_record", {})

    @classmethod
    def _adopt(cls, columns: np.ndarray) -> "VectorSequence":
        """A sequence that takes over `columns`, a fresh array no caller keeps:
        checked as the constructor checks, and frozen in place if kept as it is."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "columns", columns)
        seq.__post_init__(copy=False)
        return seq

    @classmethod
    def from_columns(cls, columns) -> "VectorSequence":
        return cls(columns)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def _rank_scale(shape, sigma_max: float = 1.0) -> float:
    """The shared rank threshold sigma_max * max(n, m) * RANK_TOL_SCALE of an
    n x m matrix; at the default sigma_max it is the threshold's relative scale."""
    return sigma_max * max(shape) * RANK_TOL_SCALE


def _error_bar(size: int, scale: float) -> float:
    """The rounding error bar ERROR_BAR_FACTOR * size * eps * scale of a value
    computed by a backward-stable factorization of a problem of `size` whose
    largest value is `scale` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 19): every threshold that asks how large rounding
    is reads it."""
    return ERROR_BAR_FACTOR * size * _EPS * scale


def _recorded(compute):
    """`compute(seq)` as an entry of the spectral record of `seq`, a private
    dict: computed on first read and kept under the function's name.

    The record's entries are the system's `_monomial_entries` (each
    column's nonzero row and value, or None), the singular values of F, the
    smaller Gram product (F^H F, or F F^H for a wide system), its ascending
    eigenvalues and the outcome of `duals.minimal_dual`, read as a value: the
    partner with the biorthogonality residual that accepted it, or the
    refusal's (error type, message).  Every entry is computed from
    `columns`, so it is real exactly when the system is.  For a system with
    at most one nonzero per row and column, the singular values are its
    sorted moduli, the eigenvalues their squares and the dual's entries
    their reciprocals' conjugates, with no factorization and no Gram
    product.  The product is Hermitian positive semidefinite by
    construction.  The record lives and dies with its sequence and holds
    no U/V factors.  Threads racing on a first read may each compute an
    entry; the first stored value is the one every caller gets.
    """
    name = compute.__name__

    @functools.wraps(compute)
    def read(seq: VectorSequence):
        try:
            return seq._record[name]
        except KeyError:
            return seq._record.setdefault(name, compute(seq))

    return read


@_recorded
def _singular_values(seq: VectorSequence) -> np.ndarray:
    """Singular values of the columns, descending; one SVD per system.
    Refuses a nonzero system unless every squared singular value from the
    rank threshold up to sigma_max is a normal float; beyond that range its
    bounds, Gram spectrum and dual are not representable.  A system with at
    most one nonzero per row and column takes its moduli, sorted, as sigma,
    and any other system with at most one nonzero per column, or per row,
    its row or column norms (`_sigma`)."""
    entries = _monomial_entries(seq)
    if entries is None:
        sigma = _sigma(seq.columns)
    else:
        sigma = np.sort(np.abs(entries.values))[::-1][:min(seq.columns.shape)]
    tol = _rank_scale(seq.columns.shape, float(sigma[0]))
    if sigma[0] > 0.0 and not _SIGMA_FLOOR <= tol <= sigma[0] <= _SIGMA_CEILING:
        raise IllConditionedError(
            f"sigma_max {sigma[0]:.3e} is out of range: squared singular values "
            "down to the rank threshold must be normal floats"
        )
    return _read_only(sigma)


def _sigma(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values of `matrix`, min(shape) of them: the
    package's one SVD, which a matrix with at most one nonzero per column,
    or per row, does not run (`_disjoint_norms`)."""
    norms = _disjoint_norms(matrix)
    return np.linalg.svd(matrix, compute_uv=False) if norms is None else norms


def _disjoint_norms(matrix: np.ndarray):
    """The singular values of a matrix with at most one nonzero per column,
    or per row (-0.0 counts as zero, as in `_monomial_moduli`); else None.

    At most one nonzero per column gives the rows disjoint supports, so
    A A^H is diagonal with the squared row norms on it, and the singular
    values are the row norms, sorted descending; at most one per row gives
    the column norms alike.  A first column and a first row that each hold
    two nonzeros, as in a dense matrix, settle it before the full scan, and
    more than max(shape) nonzeros before any index is listed.  Each norm is
    `math.hypot` over the real and imaginary parts of its nonzeros, scaled by
    the largest of them, so it neither overflows nor underflows where the
    SVD's value would not, and errs by under one unit in the last place."""
    if np.count_nonzero(matrix[:, 0]) > 1 and np.count_nonzero(matrix[0]) > 1:
        return None
    if np.count_nonzero(matrix) > max(matrix.shape):
        return None
    rows, cols = np.nonzero(matrix)
    if np.bincount(cols, minlength=1).max() <= 1:
        keys = rows
    elif np.bincount(rows, minlength=1).max() <= 1:
        order = np.argsort(cols, kind="stable")
        keys, rows, cols = cols[order], rows[order], cols[order]
    else:
        return None
    # Each row's (or column's) nonzeros stand in one run of `keys`, in their order in it.
    width = 2 if np.iscomplexobj(matrix) else 1
    parts = matrix[rows, cols].view(float).tolist()
    ends = [*(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(keys)]
    norms = [math.hypot(*parts[width * start:width * end]) for start, end in zip([0, *ends], ends)]
    norms += [0.0] * (min(matrix.shape) - len(norms))
    return np.array(sorted(norms, reverse=True))


class _Monomial(NamedTuple):
    """The entries of a matrix with at most one nonzero per row and column:
    each column's nonzero row, -1 for a zero column, and its value, 0.0 for
    a zero column."""

    rows: np.ndarray
    values: np.ndarray


def _monomial_moduli(arr: np.ndarray):
    """For a matrix with at most one nonzero per row and per column (-0.0
    counts as zero, as in `_as_array`), its `_Monomial` entries; else None.
    Up to row and column permutations and unimodular factors such a matrix
    is a rectangular diagonal of its values' moduli, so they are exactly its
    singular values.  A first column with two nonzeros, as in a dense
    system, settles it before the full scan, and more than min(dim, count)
    nonzeros before any index is listed."""
    if np.count_nonzero(arr[:, 0]) > 1:
        return None
    nonzero = arr != 0
    if np.count_nonzero(nonzero) > min(arr.shape):
        return None
    rows, cols = np.divmod(np.flatnonzero(nonzero), arr.shape[1])
    if np.bincount(rows, minlength=1).max() > 1 or np.bincount(cols, minlength=1).max() > 1:
        return None
    column_rows = np.full(arr.shape[1], -1)
    column_rows[cols] = rows
    values = np.zeros(arr.shape[1], arr.dtype)
    values[cols] = arr[rows, cols]
    return _Monomial(column_rows, values)


@_recorded
def _monomial_entries(seq: VectorSequence):
    """The system's `_monomial_moduli`, found once: its singular values, Gram
    eigenvalues, minimal dual and residuals against a partner of the same
    pattern are read from them, or, for None, factored."""
    return _monomial_moduli(seq.columns)


def _rank(seq: VectorSequence) -> int:
    sigma = _singular_values(seq)
    return int(np.count_nonzero(sigma > _rank_scale(seq.columns.shape, float(sigma[0]))))


def _independent(seq: VectorSequence) -> bool:
    """The package's one independence test: numerical rank == count."""
    return _rank(seq) == seq.count


@_recorded
def _gram_entries(seq: VectorSequence) -> np.ndarray:
    """The smaller Gram product: F^H F, or for a wide system F F^H, the Gram
    product of F^H.  The two share their nonzero spectrum."""
    f = seq.columns.conj().T if seq.count > seq.dim else seq.columns
    return _read_only(f.conj().T @ f)


@_recorded
def _gram_eigenvalues(seq: VectorSequence) -> np.ndarray:
    """Ascending eigenvalues of the record's Gram product; one eigensolve per
    system, or for a system with at most one nonzero per row and column, whose
    Gram product is diagonal, its squared moduli without the product."""
    if _monomial_entries(seq) is None:
        return _read_only(np.linalg.eigvalsh(_gram_entries(seq)))
    return _read_only(_singular_values(seq)[::-1] ** 2)
