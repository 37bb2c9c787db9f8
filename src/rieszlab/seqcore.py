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

Every singular value in the package comes from `_sigma`, which holds its
one SVD, once `_nonzeros`, the one test of a nonzero pattern, has listed the
matrix's nonzeros; a system's list is its record's `_pattern`.  At most one
nonzero per column gives the rows disjoint supports, so the singular values
are their norms, and at most one per row the columns'.  A monomial matrix,
with both, has its moduli as singular values; a monomial system has their
squares as Gram eigenvalues, and its minimal dual and its residuals against
a partner with the same nonzeros are read at their positions (`duals`).
Only a matrix with neither pattern is factored.

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

    The record's entries are the system's `_pattern`, the singular values
    of F, the smaller Gram product (F^H F, or F F^H for a wide system), its
    ascending eigenvalues and the outcome of `duals.minimal_dual`, read as a
    value: the accepted partner with its biorthogonality residual, or the
    refusal's (error type, message).  Every entry is computed from
    `columns`, so it is real exactly when the system is; a monomial system's
    dual starts with the system's pattern, which is its own.  The product
    is Hermitian positive semidefinite by construction.  The record lives
    and dies with its sequence and holds no U/V factors.  Threads racing on
    a first read may each compute an entry; the first stored value is the
    one every caller gets.
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
    """Singular values of the columns, descending (`_sigma`).  Refuses a
    nonzero system unless every squared singular value from the rank
    threshold up to sigma_max is a normal float; beyond that range its
    bounds, Gram spectrum and dual are not representable."""
    sigma = _sigma(seq.columns, _pattern(seq))
    tol = _rank_scale(seq.columns.shape, float(sigma[0]))
    if sigma[0] > 0.0 and not _SIGMA_FLOOR <= tol <= sigma[0] <= _SIGMA_CEILING:
        raise IllConditionedError(
            f"sigma_max {sigma[0]:.3e} is out of range: squared singular values "
            "down to the rank threshold must be normal floats"
        )
    return _read_only(sigma)


class _Nonzeros(NamedTuple):
    """The nonzeros of a matrix with at most one nonzero per column, or per
    row: their ascending indices into the row-major flattened matrix, whether
    each column holds at most one, and whether each row does too."""

    flat: np.ndarray
    per_column: bool
    monomial: bool


def _nonzeros(matrix: np.ndarray):
    """The one test of a C-contiguous matrix's nonzero pattern (-0.0 counts
    as zero, a subnormal as nonzero): its `_Nonzeros`, or None if some column
    and some row hold two.  A first column and first row that each do settle
    it at once; more than max(shape) nonzeros, counted in place, before any
    index is listed.  The float64 parts with a nonzero bit pattern, an upper
    bound (-0.0 has its sign bit), go first at a quarter of the cost."""
    if np.count_nonzero(matrix[:, 0]) > 1 and np.count_nonzero(matrix[0]) > 1:
        return None
    most = max(matrix.shape)
    if np.count_nonzero(matrix.view(np.uint64)) > 2 * most and np.count_nonzero(matrix) > most:
        return None
    flat = np.flatnonzero(matrix != 0)
    rows, cols = np.divmod(flat, matrix.shape[1])
    per_column = bool(np.bincount(cols, minlength=1).max() <= 1)
    per_row = bool(np.bincount(rows, minlength=1).max() <= 1)
    return _Nonzeros(flat, per_column, per_column and per_row) if per_column or per_row else None


@_recorded
def _pattern(seq: VectorSequence):
    """The system's `_nonzeros`, found once: its singular values, and for a
    monomial system its Gram eigenvalues, minimal dual and residuals against
    a partner of the same pattern, are read from it."""
    return _nonzeros(seq.columns)


def _with_pattern(seq: VectorSequence, pattern: _Nonzeros) -> VectorSequence:
    """`seq`, a fresh system whose nonzeros its maker placed at `pattern`'s
    positions, with `pattern` as its recorded `_pattern`, so it is not scanned."""
    seq._record.setdefault(_pattern.__name__, pattern)
    return seq


def _sigma(matrix: np.ndarray, nonzeros) -> np.ndarray:
    """Descending singular values of `matrix`, min(shape) of them, given its
    `_nonzeros`: the package's one SVD, for None.  A monomial matrix is a
    rectangular diagonal of its moduli up to permutations and unimodular
    factors, so they are its singular values, each `np.hypot` of its parts.
    Otherwise at most one nonzero per column makes A A^H diagonal, so the
    singular values are the row norms, and at most one per row the column
    norms, each `math.hypot` over its parts.  Each value is within an ulp of
    the exact one, and finite wherever the SVD's is."""
    if nonzeros is None:
        return np.linalg.svd(matrix, compute_uv=False)
    flat = nonzeros.flat
    if nonzeros.monomial:
        values = matrix.ravel()[flat]
        norms = np.hypot(values.real, values.imag)
    else:
        # Each row's nonzeros, or each column's once stably sorted by column,
        # stand in one run of `keys`, in their order in it.
        keys = flat // matrix.shape[1] if nonzeros.per_column else flat % matrix.shape[1]
        if not nonzeros.per_column:
            order = np.argsort(keys, kind="stable")
            keys, flat = keys[order], flat[order]
        width = 2 if np.iscomplexobj(matrix) else 1
        parts = matrix.ravel()[flat].view(float).tolist()
        ends = [*(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(keys)]
        norms = [math.hypot(*parts[width * start:width * end]) for start, end in zip([0, *ends], ends)]
    sigma = np.zeros(min(matrix.shape))
    sigma[:len(norms)] = np.sort(norms)[::-1]
    return sigma


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
    system, or for a monomial system, whose Gram product is diagonal, its
    squared moduli without the product."""
    pattern = _pattern(seq)
    if pattern is None or not pattern.monomial:
        return _read_only(np.linalg.eigvalsh(_gram_entries(seq)))
    return _read_only(_singular_values(seq)[::-1] ** 2)
