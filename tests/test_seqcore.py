import ast
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from memtrace import traced_peak
import rieszlab
from rieszlab import (
    DimensionError,
    VectorSequence,
    analysis,
    equivalent_inner_product,
    inner,
    minimal_dual,
    orthonormal,
    synthesis,
    weighted_pair,
    young_example,
)
from rieszlab.diagnostics import (
    _verdict_kind,
    classify,
    completeness_defect,
    riesz_bounds,
    span_distance,
)
from rieszlab.generators import GaborDiscretization, gaussian_gabor, punctured_lattice
from rieszlab.seqcore import (
    RANK_TOL_SCALE,
    _gram_eigenvalues,
    _gram_entries,
    _rank,
    _rank_scale,
    _real_twin,
    _singular_values,
)


#: The package's public names.  Adding, removing or renaming one is a
#: deliberate edit of this list.
PUBLIC_NAMES = [
    "BoundsReport", "CriteriaDisagreementError",
    "DimensionError", "FamilySpec", "FitDomainError", "GaborDiscretization", "GeneratedPair",
    "GramSpectrum", "GrowthFit", "IllConditionedError", "MatrixParseError",
    "NoBiorthogonalSequenceError", "NotARieszBasisError", "NotBiorthogonalError", "PointSet2D",
    "RieszBounds", "RieszLabError", "ScalingReport", "SingularOperatorError", "SizeMetrics",
    "TrendVerdict", "TruncationError", "VectorSequence", "Verdict", "VerdictKind",
    "als_point_set", "alternating_weighted_pair", "analysis", "bessel_bound",
    "biorthogonality_residual", "classify", "completeness_defect", "duality_identity_residual",
    "equivalent_inner_product", "fit_growth", "gabor_refinement_study",
    "gaussian_gabor", "gram_spectrum", "injectivity_witness", "inner", "lattice_points",
    "minimal_dual", "orthonormal", "punctured_lattice", "random_riesz", "riesz_bounds",
    "riesz_from_operator", "run_family", "span_distance", "synthesis", "weighted_pair",
    "young_example", "young_general",
]


def test_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert rieszlab.__all__ == PUBLIC_NAMES


def test_module_imports_form_a_dag():
    # seqcore <- duals <- diagnostics <- scaling <- cli: no cycle, no deferred import.
    package = Path(rieszlab.__file__).parent
    for module in ("duals", "seqcore"):
        tree = ast.parse((package / f"{module}.py").read_text())
        imported = {
            (node.module or "") + "." + alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not any("diagnostics" in name for name in imported), (module, imported)
    body = ast.parse(textwrap.dedent(inspect.getsource(classify)))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(body))


def seq_of(*vectors):
    return VectorSequence.from_columns(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))


class TestTypes:
    def test_ambient_space_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^ambient dimension must be a positive integer, got 0$"):
            VectorSequence(np.zeros((0, 3)))
        assert VectorSequence(np.ones((3, 2))).dim == 3

    def test_sequence_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            VectorSequence.from_columns(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("columns", [1.0, np.ones(3), np.ones((2, 2, 2)), [[1.0, 2.0]]])
    def test_from_columns_checks_shape(self, columns):
        if np.ndim(columns) == 2:
            assert VectorSequence.from_columns(columns).dim == 1
        else:
            with pytest.raises(DimensionError, match="two-dimensional"):
                VectorSequence.from_columns(columns)

    def test_from_columns_checks_entries_once(self, monkeypatch):
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda arr: calls.append(arr.shape) or isfinite(arr))
        # One call, on the float64 array or on the complex array's float64
        # view: every part of all 16 entries.
        for values, checked in ((np.eye(4), (4, 4)), (np.eye(4) + 1j, (4, 8))):
            calls.clear()
            VectorSequence.from_columns(values)
            assert calls == [checked]

    def test_sequence_needs_members(self):
        with pytest.raises(ValueError):
            VectorSequence.from_columns(np.zeros((3, 0)))

    def test_columns_are_immutable(self):
        seq = orthonormal(3)
        assert not seq.columns.flags.writeable
        with pytest.raises(ValueError):
            seq.columns[0, 0] = 5.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_input_is_copied_once(self, dtype):
        # One float64 copy is 7.6 MiB and one complex128 copy 15.3 MiB; a
        # second copy of either would pass its bound.
        values = np.random.default_rng(0).standard_normal((1000, 1000)).astype(dtype)
        if dtype is complex:
            values.imag = 1.0
        peak, seq = traced_peak(lambda: VectorSequence.from_columns(values))
        assert peak < (12 if dtype is float else 24) * 2**20
        assert seq.columns.dtype == dtype
        assert values.flags.writeable and not np.shares_memory(seq.columns, values)

    @pytest.mark.parametrize("build", [
        VectorSequence,
        VectorSequence.from_columns,
    ], ids=["constructor", "from_columns"])
    def test_public_constructors_copy(self, build):
        values = np.arange(6, dtype=complex).reshape(3, 2)
        seq = build(values)
        values[0, 0] = 99.0
        assert seq.columns[0, 0] == 0.0 and not np.shares_memory(seq.columns, values)
        with pytest.raises(ValueError, match="non-finite"):
            build(np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex))

    def test_adopt_freezes_a_fresh_array_in_place(self):
        # A float64 array, and a complex128 one with a nonzero imaginary part.
        for values in (np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2) + 1j):
            seq = VectorSequence._adopt(values)
            assert seq.columns is values and not values.flags.writeable
            assert seq.dim == 3 and seq.count == 2

    def test_adopt_converts_other_layouts_and_dtypes(self):
        # Each becomes a fresh C-contiguous float64 array: a real-valued complex
        # array keeps only its real part.
        for values in (
            np.asfortranarray(np.arange(6.0).reshape(3, 2)),
            np.arange(6, dtype=complex).reshape(3, 2),
            np.arange(6, dtype=np.int64).reshape(3, 2),
        ):
            seq = VectorSequence._adopt(values)
            assert seq.columns.dtype == np.float64 and seq.columns.flags.c_contiguous
            assert not seq.columns.flags.writeable
            assert values.flags.writeable and not np.shares_memory(seq.columns, values)
            np.testing.assert_array_equal(seq.columns, values)

    @pytest.mark.parametrize("columns, error, match", [
        (np.array([[np.nan, 1.0]], dtype=complex), ValueError, "non-finite"),
        (np.ones(3, dtype=complex), DimensionError, "two-dimensional"),
        (np.ones((2, 2, 2), dtype=complex), DimensionError, "two-dimensional"),
        (np.zeros((3, 0), dtype=complex), ValueError, "at least one member"),
    ])
    def test_adopt_checks_as_the_constructor_does(self, columns, error, match):
        with pytest.raises(error, match=match):
            VectorSequence._adopt(columns)

    def test_sequences_compare_and_hash_by_identity(self):
        a, b = orthonormal(3), orthonormal(3)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        pair = weighted_pair(3)
        assert pair == pair and pair != weighted_pair(3)

    def test_inner_convention(self):
        # <x, y> = y^H x: linear in the first slot, conjugate-linear in the second
        x = np.array([1.0 + 1j, 0.0])
        y = np.array([2.0, 1j])
        assert inner(x, y) == pytest.approx(2.0 + 2j)
        assert inner(y, x) == pytest.approx(np.conj(inner(x, y)))


class TestKernelView:
    """A system without a nonzero imaginary part stores float64 columns, the
    array every factorization reads; the arrays stay read-only."""

    def test_real_system_stores_float64_columns(self):
        seq = young_example(6).primal
        partner = minimal_dual(seq)
        for arr in (seq.columns, partner.columns):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert not _gram_entries(seq).flags.writeable and not _gram_eigenvalues(seq).flags.writeable
        assert _gram_entries(seq).dtype == np.float64
        assert equivalent_inner_product(weighted_pair(4).primal).dtype == np.complex128

    def test_kernel_view_is_a_frozen_copy(self):
        for values in (np.eye(3), np.eye(3, dtype=complex)):
            seq = VectorSequence.from_columns(values)
            assert seq.columns.dtype == np.float64
            assert not seq.columns.flags.writeable and seq.columns.flags.c_contiguous
            assert not np.shares_memory(seq.columns, values)
            np.testing.assert_array_equal(seq.columns, values)

    def test_tiny_imaginary_part_stays_complex(self):
        values = np.eye(3, dtype=complex)
        values[1, 2] = 1e-300j
        seq = VectorSequence.from_columns(values)
        assert seq.columns.dtype == np.complex128
        np.testing.assert_array_equal(seq.columns, values)

    def test_negative_zero_imaginary_parts_are_real(self):
        values = np.eye(3, dtype=complex)
        values.imag = -0.0
        assert np.signbit(values.imag).all()
        seq = VectorSequence.from_columns(values)
        assert seq.columns.dtype == np.float64
        np.testing.assert_array_equal(seq.columns, np.eye(3))


def conjugation_closed(seed, dim, pairs, reals):
    """Random complex columns, their exact conjugates and real columns, shuffled."""
    rng = np.random.default_rng(seed)
    f = oracles.random_columns(seed, dim, pairs)
    cols = np.concatenate([f, f.conj(), rng.standard_normal((dim, reals))], axis=1)
    return cols[:, rng.permutation(cols.shape[1])]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pairs=st.integers(1, 4),
    reals=st.integers(0, 3),
    shape=st.sampled_from(["tall", "square", "wide"]),
)
# Complete systems whose oracle residual exceeds 1e-12 of rounding.
@example(seed=43, pairs=3, reals=0, shape="square")
@example(seed=187, pairs=1, reals=2, shape="square")
@example(seed=198, pairs=3, reals=0, shape="square")
@example(seed=273, pairs=3, reals=1, shape="square")
@example(seed=320, pairs=1, reals=2, shape="square")
@example(seed=479, pairs=3, reals=2, shape="square")
@example(seed=563, pairs=3, reals=2, shape="square")
@example(seed=606, pairs=3, reals=0, shape="square")
@example(seed=761, pairs=3, reals=2, shape="square")
@example(seed=776, pairs=1, reals=2, shape="square")
def test_real_twin_matches_complex_arithmetic(seed, pairs, reals, shape):
    count = 2 * pairs + reals
    dim = {"tall": count + 3, "square": count, "wide": max(count - 2, 1)}[shape]
    seq = VectorSequence.from_columns(conjugation_closed(seed, dim, pairs, reals))
    assert _real_twin(seq).dtype == np.float64 and seq.columns.dtype == np.complex128
    sigma = oracles.complex_singular_values(seq.columns)
    np.testing.assert_allclose(_singular_values(seq), sigma, rtol=0, atol=1e-13 * sigma[0])
    rank = int(np.count_nonzero(sigma > sigma[0] * max(seq.columns.shape) * RANK_TOL_SCALE))
    assert _rank(seq) == rank
    assert completeness_defect(seq) == dim - rank
    assert classify(seq).kind is _verdict_kind(rank == count, dim - rank)
    h = oracles.random_columns(seed + 1, dim, 1)[:, 0]
    expected = oracles.complex_lstsq_distance(seq.columns, h)
    if rank == dim:
        # The rank decision makes a complete system's distance exactly 0.0; the
        # oracle's least-squares residual is rounding of order kappa eps ||h||.
        assert span_distance(seq, h) == 0.0
        kappa = sigma[0] / sigma[-1]
        assert expected <= 64 * kappa * np.finfo(float).eps * np.linalg.norm(h)
    else:
        assert span_distance(seq, h) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _near_misses():
    f = oracles.random_columns(3, 6, 2)
    real = np.random.default_rng(3).standard_normal((6, 1))
    off = f[:, :1].conj()
    off[2, 0] = np.nextafter(off[2, 0].real, np.inf) + 1j * off[2, 0].imag
    # Dyadic entries sum exactly, so swapping two rows of the conjugate keeps
    # its column sum while changing the column.
    g = np.array([[1 + 2j], [3 + 4j], [0.5 - 1j]])
    swapped = g.conj()[[1, 0, 2]]
    real_sum = np.array([[1 + 1j], [2 - 1j]])
    return {
        "unmatched": np.concatenate([f, f.conj(), f[:, :1] + real], axis=1),
        "unmatched-even": np.concatenate([f, real], axis=1),
        "one-ulp-off": np.concatenate([f[:, :1], off, real], axis=1),
        "conjugate-sums-only": np.concatenate([g, swapped], axis=1),
        "duplicated-pair": np.concatenate([f[:, :1], f[:, :1].conj()] * 2 + [real], axis=1),
        "duplicated-pair-real-sum": np.concatenate([real_sum, real_sum.conj()] * 2, axis=1),
        "one-ulp-off-same-sum": np.concatenate([g, _one_ulp_off_conjugate(g)], axis=1),
    }


def _one_ulp_off_conjugate(g):
    """conj(g) with one imaginary part moved by one ulp, but the same column
    sum: the ulp is lost when the sum rounds, so only the entry-by-entry
    check can tell the columns apart."""
    off = g.conj()
    off[0, 0] = off[0, 0].real + 1j * np.nextafter(off[0, 0].imag, 0.0)
    assert off.sum() == g.conj().sum() and not np.array_equal(off, g.conj())
    return off


@pytest.mark.parametrize("name", sorted(_near_misses()))
def test_near_miss_stays_complex(name):
    cols = _near_misses()[name]
    seq = VectorSequence.from_columns(cols)
    assert _real_twin(seq) is seq.columns
    np.testing.assert_array_equal(_singular_values(seq), oracles.complex_singular_values(cols))


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("member", [0, 1])
def test_gabor_pair_one_ulp_off_stays_complex(member, part):
    # The pair (1, 1), (1, -1) of a punctured lattice, one entry of one member
    # moved by one ulp where the envelope is about 1e-67: the column sums stay
    # exact conjugates, so only the check of the partner's entries can fall back.
    points = punctured_lattice(2)
    cols = np.array(gaussian_gabor(points, GaborDiscretization(6.0, 16)).columns)
    pair = [points.nodes.index((1.0, 1.0)), points.nodes.index((1.0, -1.0))]
    assert oracles.gathered_real_twin(cols) is not None
    before = cols[:, pair].sum(axis=0)
    values = getattr(cols, part)
    values[0, pair[member]] = np.nextafter(values[0, pair[member]], np.inf)
    np.testing.assert_array_equal(cols[:, pair].sum(axis=0), before)
    assert before[0] == before[1].conjugate()
    seq = VectorSequence(cols)
    assert oracles.gathered_real_twin(cols) is None
    assert _real_twin(seq) is seq.columns
    np.testing.assert_array_equal(_singular_values(seq), oracles.complex_singular_values(cols))


def test_pair_with_real_column_sum_gets_a_twin():
    f = np.array([[1 + 1j], [2 - 1j], [0.5]])
    seq = VectorSequence.from_columns(np.concatenate([f.conj(), np.ones((3, 1)), f], axis=1))
    # Real columns first, then sqrt(2) Re and sqrt(2) Im of the member that
    # sorts first (conj f: both sums are 3, and the sort is stable).
    r = np.sqrt(2.0)
    twin = np.array([[1, r, -r], [1, 2 * r, r], [1, 0.5 * r, 0]])
    np.testing.assert_array_equal(_real_twin(seq), twin)


def test_spectral_record_keeps_no_twin():
    seq = gaussian_gabor(punctured_lattice(2), GaborDiscretization(6.0, 16))
    h = oracles.random_columns(7, seq.dim, 1)[:, 0]
    distance = span_distance(seq, h)
    riesz_bounds(seq)
    assert "sigma" in vars(seq._record) and "column_view" not in vars(seq._record)
    assert not any(
        isinstance(entry, np.ndarray) and entry.shape == seq.columns.shape
        for entry in vars(seq._record).values()
    )
    # The twin is built again for the solve, in real arithmetic, with the same result.
    assert _real_twin(seq).dtype == np.float64
    assert span_distance(seq, h) == distance
    assert distance == pytest.approx(
        oracles.complex_lstsq_distance(seq.columns, h), rel=1e-10, abs=1e-12
    )


def test_real_system_column_view_is_its_kernel():
    seq = young_example(6).primal
    assert _real_twin(seq) is seq.columns


class TestSynthesis:
    def test_identity_columns(self):
        np.testing.assert_allclose(synthesis(orthonormal(3), [1, 2, 3]), [1, 2, 3])

    def test_hand_sum(self):
        seq = seq_of([1, 0], [1, 1])
        np.testing.assert_allclose(synthesis(seq, [1, -1]), [0, -1])

    def test_young_column_sum(self):
        # brute-force oracle: add the four columns by hand
        seq = young_example(4).primal
        expected = seq.columns[:, 0] + seq.columns[:, 1] + seq.columns[:, 2] + seq.columns[:, 3]
        np.testing.assert_allclose(synthesis(seq, [1, 1, 1, 1]), expected)
        np.testing.assert_allclose(expected, [4, 1, 1, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            synthesis(orthonormal(3), [1, 2])

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="^coefficients contains non-finite entries$"):
            synthesis(orthonormal(2), [1, np.inf])


#: Each checked input: (its name in the message, its shape, the call).
_FINITENESS_CALLERS = {
    "constructor": ("columns", (3, 2), VectorSequence),
    "adopt": ("columns", (3, 2), VectorSequence._adopt),
    "synthesis": ("coefficients", (3,), lambda c: synthesis(orthonormal(3), c)),
    "analysis": ("vector", (3,), lambda h: analysis(orthonormal(3), h)),
}
#: Layouts `_as_complex_array` takes as they are (C-order, and a 2-D input
#: whose size-1 axis has a zero stride) or copies first (strided, column-major).
_LAYOUTS = {
    "c-order": lambda a: a,
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "column-major": np.asfortranarray,
    "size-1-axis": lambda a: a.reshape(-1)[:, None],
}
_CALLER_LAYOUTS = [
    (caller, layout) for caller, (_, shape, _) in _FINITENESS_CALLERS.items()
    for layout in _LAYOUTS if len(shape) == 2 or layout != "size-1-axis"
]


def _entries(shape, layout):
    return _LAYOUTS[layout](np.arange(1.0, np.prod(shape) + 1.0).reshape(shape) * (1 - 1j))


@pytest.mark.parametrize("caller, layout", _CALLER_LAYOUTS)
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_one_non_finite_part_is_rejected_with_the_same_message(caller, layout, part, value):
    name, shape, call = _FINITENESS_CALLERS[caller]
    entries = _entries(shape, layout)
    entries.flat[-1] = complex(value, 1.0) if part == "real" else complex(1.0, value)
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        call(entries)


@pytest.mark.parametrize("caller, layout", _CALLER_LAYOUTS)
def test_negative_zero_parts_are_finite(caller, layout):
    _, shape, call = _FINITENESS_CALLERS[caller]
    entries = _entries(shape, layout)
    entries.flat[:3] = [complex(-0.0, -0.0), complex(-0.0, 2.0), complex(1.0, -0.0)]
    call(entries)


def test_real_input_with_a_non_finite_entry_is_rejected():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^columns contains non-finite entries$"):
            VectorSequence(np.array([[1.0, value], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="^coefficients contains non-finite entries$"):
            synthesis(orthonormal(2), np.array([value, 1.0]))


class TestAnalysis:
    def test_identity_columns(self):
        coeffs = analysis(orthonormal(2), np.array([3.0, 4.0j]))
        np.testing.assert_allclose(coeffs, [3.0, 4.0j])

    def test_returns_one_array_entry_per_vector(self):
        seq = seq_of([1, 0], [1, 1], [0, 2])
        coeffs = analysis(seq, [1, 1])
        assert type(coeffs) is np.ndarray and coeffs.shape == (seq.count,)

    def test_hand_inner_products(self):
        seq = seq_of([1, 0], [1, 1])
        np.testing.assert_allclose(analysis(seq, [1, 1]), [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            analysis(orthonormal(3), [1, 2])

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        cols = oracles.random_columns(seed, 6, 4)
        seq = VectorSequence.from_columns(cols)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = inner(synthesis(seq, c), h)
        rhs = np.sum(c * np.conj(analysis(seq, h)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestGram:
    """The spectral record's Gram product: F^H F, or F F^H for a wide system."""

    def test_orthonormal(self):
        np.testing.assert_array_equal(_gram_entries(orthonormal(3)), np.eye(3))

    def test_hand_entries(self):
        seq = seq_of([1, 0], [1, 1])
        np.testing.assert_allclose(_gram_entries(seq), [[1, 1], [1, 2]])

    def test_young_identity_plus_ones(self):
        entries = _gram_entries(young_example(4).primal)
        np.testing.assert_allclose(entries, np.eye(4) + np.ones((4, 4)))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_assembly(self, seed):
        tall = oracles.random_columns(seed, 7, 5)
        wide = oracles.random_columns(seed, 5, 7)
        # A wide system's product F F^H is the Gram matrix of F^H.
        for cols, gram_of in ((tall, tall), (wide, wide.conj().T)):
            entries = _gram_entries(VectorSequence.from_columns(cols))
            expected = oracles.gram_by_loops(gram_of)
            np.testing.assert_allclose(entries, expected, rtol=1e-12, atol=1e-14)

    def test_rank_matches_columns(self):
        cols = oracles.random_columns(11, 6, 3)
        cols = np.concatenate([cols, cols @ np.array([[1.0], [2.0], [3.0]])], axis=1)
        seq = VectorSequence.from_columns(cols)
        assert _rank(VectorSequence.from_columns(_gram_entries(seq))) == 3
        assert _rank(seq) == 3


def frame_operator(seq, h):
    """Sum_k <h, f_k> f_k: synthesis of the analysis coefficients."""
    return synthesis(seq, analysis(seq, h))


class TestFrameApply:
    def test_orthonormal_resolution(self):
        h = np.array([1.0, 2.0, 3.0 + 1j])
        np.testing.assert_allclose(frame_operator(orthonormal(3), h), h)

    def test_scaled_identity(self):
        seq = VectorSequence.from_columns(2.0 * np.eye(3))
        h = np.array([1.0, -1.0, 0.5])
        np.testing.assert_allclose(frame_operator(seq, h), 4.0 * h)

    def test_matches_matrix_assembly(self):
        cols = oracles.random_columns(2, 5, 3)
        seq = VectorSequence.from_columns(cols)
        h = oracles.random_columns(3, 5, 1)[:, 0]
        np.testing.assert_allclose(frame_operator(seq, h), (cols @ cols.conj().T) @ h, rtol=1e-12)


_small_part = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(real=_small_part, data=st.data())
def test_adjoint_identity_property(real, data):
    imag = data.draw(
        hnp.arrays(np.float64, real.shape, elements=st.floats(-10, 10, allow_nan=False))
    )
    seq = VectorSequence.from_columns(real + 1j * imag)
    c = data.draw(
        hnp.arrays(np.float64, (seq.count,), elements=st.floats(-5, 5, allow_nan=False))
    )
    h = data.draw(
        hnp.arrays(np.float64, (seq.dim,), elements=st.floats(-5, 5, allow_nan=False))
    )
    lhs = inner(synthesis(seq, c.astype(complex)), h.astype(complex))
    rhs = np.sum(c * np.conj(analysis(seq, h.astype(complex))))
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
)
def test_frame_operator_linearity_property(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    seq = VectorSequence.from_columns(oracles.random_columns(seed, 4, 3))
    h1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    combined = frame_operator(seq, alpha * h1 + beta * h2)
    split = alpha * frame_operator(seq, h1) + beta * frame_operator(seq, h2)
    scale = 1.0 + np.linalg.norm(combined) + np.linalg.norm(split)
    assert np.linalg.norm(combined - split) <= 1e-12 * scale


def test_rank_tolerance_scales_with_sigma():
    assert _rank_scale((4, 4), 1.0) == pytest.approx(4e-12)
    assert _rank_scale((4, 4), 10.0) == pytest.approx(4e-11)
    # sigma = 3e-11 counts beside sigma_max 1 (threshold 4e-12), not beside 10 (4e-11).
    assert _rank(VectorSequence.from_columns(np.diag([1.0, 1.0, 1.0, 3e-11]))) == 4
    assert _rank(VectorSequence.from_columns(np.diag([10.0, 10.0, 10.0, 3e-11]))) == 3
    assert _rank(VectorSequence.from_columns(np.zeros((3, 3)))) == 0
