"""Vector-system data model, the synthesis and analysis operators and the
per-system spectral record.

A truncated sequence (f_k)_{k=1..m} in an n-dimensional complex space is
stored as the columns of an n-by-m matrix.  The inner product used across
the whole package is

    <x, y> = y^H x,

conjugate-linear in the second slot.  Under this convention the analysis
operator h -> (<h, f_k>)_k is the conjugate transpose of the column matrix,
and the Gram matrix has entry (j, k) = <f_k, f_j> = (F^H F)[j, k].

All values are immutable; every operation is a pure function, so instances
can be shared freely across threads.  Each VectorSequence keeps its
factorizations, once computed, in a private `_SpectralRecord`.  The record's
Gram product is the smaller of F^H F and F F^H: a wide system (more vectors
than dimensions) is eigensolved on its dim x dim side, which shares the
nonzero spectrum of the count x count Gram matrix.

Each VectorSequence keeps one read-only array, `columns`, which every
factorization and product reads: float64 when no entry has a nonzero
imaginary part (-0.0 counts as zero), so a real system is factored in real
arithmetic at about a quarter of the complex flops, and complex128 otherwise.
The public constructors copy their input, so a caller's array never changes a
sequence; the library's own producers (the generators except
`riesz_from_operator`, `read_matrix`, the minimal dual) hand a fresh array to
the private `VectorSequence._adopt`, which checks it alike and freezes it in
place.  The column route (the column SVD and the least-squares solve of
`span_distance`, which depend only on the singular values and the complex
span) reads the real twin [real columns, sqrt(2) Re f, sqrt(2) Im f] = F U,
U unitary, instead, when complex columns split exactly into conjugate pairs
(f, conj f): pairs are found by their column sums, checked entry by entry in
float comparisons, and laid out by their first column.  A sampled Gabor
system whose nodes pair up is built as this twin from its nodes
(`generators._gabor_twin`), in the same layout, so the search never runs
for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IllConditionedError

#: Relative scale of the shared numerical-rank threshold:
#: sigma_max * max(n, m) * RANK_TOL_SCALE.  One constant serves both the
#: completeness-defect and bijectivity tests.
RANK_TOL_SCALE = 1e-12

#: Range whose squares are normal floats.
_SIGMA_FLOOR = float(np.sqrt(np.finfo(float).tiny))
_SIGMA_CEILING = float(np.sqrt(np.finfo(float).max))


def _as_complex_array(values, name: str, ndim: int, copy: bool = True, keep_real=False) -> np.ndarray:
    """A validated C-contiguous complex128 array of `ndim` dimensions, allocated
    once whatever its dtype and layout; with `keep_real`, a float64 `values`
    stays float64; without `copy`, such an array is itself."""
    dtype = float if keep_real and getattr(values, "dtype", None) == float else complex
    arr = np.array(values, dtype=dtype, order="C", copy=copy or None)
    if arr.ndim != ndim:
        shape_name = "two-dimensional" if ndim == 2 else "one-dimensional"
        raise DimensionError(f"{name} must be {shape_name}, got shape {arr.shape}")
    # An entry is finite when both its parts are: one pass over the float64 view.
    if not np.isfinite(arr.view(float)).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _kernel_view(arr: np.ndarray) -> np.ndarray:
    """`arr`, or for a complex `arr` without a nonzero imaginary part (-0.0
    counts as zero) a contiguous float64 copy of its real part."""
    # A nonzero imaginary part in the first row, as in every modulated Gabor
    # system, settles it without the strided pass over the whole array.
    if arr.dtype == float or arr[:1].imag.any() or arr.imag.any():
        return arr
    return np.array(arr.real, dtype=float, order="C")


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
        cols = _as_complex_array(self.columns, "columns", 2, copy, keep_real=True)
        if cols.shape[0] < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {cols.shape[0]}")
        if cols.shape[1] < 1:
            raise ValueError("a vector sequence needs at least one member")
        object.__setattr__(self, "columns", _read_only(_kernel_view(cols)))
        object.__setattr__(self, "_record", _SpectralRecord())

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


def inner(x, y) -> complex:
    """The package-wide inner product <x, y> = y^H x."""
    return complex(np.vdot(np.asarray(y, dtype=complex), np.asarray(x, dtype=complex)))


def _ambient_vector(vector, dim: int) -> np.ndarray:
    vec = _as_complex_array(vector, "vector", 1, copy=False)
    if vec.shape[0] != dim:
        raise DimensionError(f"vector has length {vec.shape[0]}, expected ambient dimension {dim}")
    return vec


def synthesis(seq: VectorSequence, coeffs) -> np.ndarray:
    """Sum_k c_k f_k, the synthesis operator applied to the coefficients."""
    c = _as_complex_array(coeffs, "coefficients", 1, copy=False)
    if c.shape[0] != seq.count:
        raise DimensionError(f"{c.shape[0]} coefficients supplied for {seq.count} vectors")
    return seq.columns @ c


def analysis(seq: VectorSequence, vector) -> np.ndarray:
    """The coefficients (<h, f_k>)_k, adjoint of synthesis."""
    h = _ambient_vector(vector, seq.dim)
    return seq.columns.conj().T @ h


def _rank_scale(shape, sigma_max: float = 1.0) -> float:
    """The shared rank threshold sigma_max * max(n, m) * RANK_TOL_SCALE of an
    n x m matrix; at the default sigma_max it is the threshold's relative scale."""
    return sigma_max * max(shape) * RANK_TOL_SCALE


class _SpectralRecord:
    """Factorizations of one VectorSequence, each computed on first read.

    Entries: "sigma" (singular values of F, from `_real_twin`'s view),
    "gram_entries" (the smaller Gram product: F^H F, or F F^H for a wide
    system), "gram_eigenvalues" (its ascending eigenvalues) and "dual" (the
    outcome of `duals.minimal_dual`, with the biorthogonality residual that
    accepted it).  sigma needs only the singular values, which the real twin
    shares with F, so a real or conjugation-closed system's sigma comes from
    real arithmetic.  The twin is not kept, even for a tall system of rank
    below its dimension: its one later reader, `span_distance` of an
    incomplete system, rebuilds it with a copy and no factorization.  The Gram
    product, its spectrum and the dual are computed from `columns`, so they
    are real only for a real system.  The product is Hermitian positive
    semidefinite by construction.  The record lives and dies with its
    sequence and holds no U/V factors.  Threads racing on a first read may
    each compute an entry; the first stored value is the one every caller gets.
    """

    def fill(self, name: str, compute):
        try:
            return self.__dict__[name]
        except KeyError:
            return self.__dict__.setdefault(name, compute())


def _singular_values(seq: VectorSequence) -> np.ndarray:
    """Singular values of the columns, descending; one SVD per system, of its
    column-route view."""
    return seq._record.fill("sigma", lambda: _representable_sigma(seq))


def _representable_sigma(seq: VectorSequence) -> np.ndarray:
    """Refuses a nonzero system unless every squared singular value from the
    rank threshold up to sigma_max is a normal float; beyond that range its
    bounds, Gram spectrum and dual are not representable."""
    sigma = np.linalg.svd(_real_twin(seq), compute_uv=False)
    tol = _rank_scale(seq.columns.shape, float(sigma[0]))
    if sigma[0] > 0.0 and not _SIGMA_FLOOR <= tol <= sigma[0] <= _SIGMA_CEILING:
        raise IllConditionedError(
            f"sigma_max {sigma[0]:.3e} is out of range: squared singular values "
            "down to the rank threshold must be normal floats"
        )
    return _read_only(sigma)


def _real_twin(seq: VectorSequence) -> np.ndarray:
    """The column-route view: for a complex system whose columns split exactly
    into conjugate pairs (f, conj f), the real twin [real columns, sqrt(2) Re f,
    sqrt(2) Im f], built afresh on each call, frozen float64 in column-major
    order (the layout np.linalg.svd copies its input into); else `columns`.

    The twin is F U with U unitary (a 2x2 block (1, -i; 1, i)/sqrt(2) per
    pair, times a column permutation), so it has the singular values and the
    complex span of F.  Pairs are found by their column sums, which must
    match up exactly and uniquely, and confirmed entry by entry (-0.0 equals
    0.0, as in the choice of a real `columns`); any miss keeps `columns`.  A
    system whose sums cannot pair is left before anything is copied.  The
    layout is canonical, whatever the sums: the real columns in their order,
    then the pairs ordered by their first column, whose real and imaginary
    parts are written straight into the twin.  Each second column is then
    checked against them as floats, real parts equal and imaginary parts
    negated, so no complex copy of either is made.  Only a confirmed twin is
    scaled by sqrt(2).  `generators._gabor_twin` builds this layout from a
    point set's nodes.
    """
    cols = seq.columns
    if cols.dtype == float:
        return cols
    sums = cols.sum(axis=0)
    # A nonzero imaginary sum marks a complex column; the others are searched.
    is_complex = sums.imag != 0.0
    is_complex[~is_complex] = cols.imag[:, ~is_complex].any(axis=0)
    sums = sums[is_complex]
    if sums.size % 2:
        return cols
    # Ascending real part, then |imag|, then imag: a conjugate pair is
    # adjacent, its member with imag <= 0 first.
    ranked = np.lexsort((sums.imag, np.abs(sums.imag), sums.real))
    low, high = sums[ranked[0::2]], sums[ranked[1::2]]
    # Two pairs with one sum would make the pairing ambiguous.
    if not np.array_equal(low, high.conj()) or np.any(low[1:] == low[:-1]):
        return cols
    complex_index = np.flatnonzero(is_complex)
    members, partners = complex_index[ranked[0::2]], complex_index[ranked[1::2]]
    firsts, seconds = np.sort((members, partners), axis=0)
    order = np.argsort(firsts)
    firsts, seconds = firsts[order], seconds[order]
    real_count, pair_count = cols.shape[1] - complex_index.size, firsts.size
    twin = np.empty(cols.shape, order="F")
    real_part = twin[:, real_count:real_count + pair_count]
    imag_part = twin[:, real_count + pair_count:]
    real_part[...] = cols.real[:, firsts]
    imag_part[...] = cols.imag[:, firsts]
    if not (np.array_equal(real_part, cols.real[:, seconds])
            and np.array_equal(imag_part, -cols.imag[:, seconds])):
        return cols
    twin[:, :real_count] = cols.real[:, ~is_complex]
    real_part *= np.sqrt(2.0)
    imag_part *= np.sqrt(2.0)
    return _read_only(twin)


def _rank(seq: VectorSequence) -> int:
    sigma = _singular_values(seq)
    return int(np.count_nonzero(sigma > _rank_scale(seq.columns.shape, float(sigma[0]))))


def _independent(seq: VectorSequence) -> bool:
    """The package's one independence test: numerical rank == count."""
    return _rank(seq) == seq.count


def _gram_entries(seq: VectorSequence) -> np.ndarray:
    """The smaller Gram product: F^H F, or for a wide system F F^H, the Gram
    product of F^H.  The two share their nonzero spectrum."""
    f = seq.columns.conj().T if seq.count > seq.dim else seq.columns
    return seq._record.fill("gram_entries", lambda: _read_only(f.conj().T @ f))


def _gram_eigenvalues(seq: VectorSequence) -> np.ndarray:
    """Ascending eigenvalues of the record's Gram product; one eigensolve per system."""
    return seq._record.fill(
        "gram_eigenvalues", lambda: _read_only(np.linalg.eigvalsh(_gram_entries(seq)))
    )
