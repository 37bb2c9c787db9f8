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
from rieszlab import diagnostics, duals, seqcore
from rieszlab import (
    DimensionError,
    VectorSequence,
    minimal_dual,
    orthonormal,
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
    _error_bar,
    _gram_eigenvalues,
    _gram_entries,
    _rank,
    _rank_scale,
    _singular_values,
)


#: The package's public names.  Adding, removing or renaming one is a
#: deliberate edit of this list.
PUBLIC_NAMES = [
    "BoundsReport", "CriteriaDisagreementError",
    "DimensionError", "FamilySpec", "FitDomainError", "GaborDiscretization", "GeneratedPair",
    "GramSpectrum", "GrowthFit", "IllConditionedError", "MatrixParseError",
    "NoBiorthogonalSequenceError", "PointSet2D",
    "RieszBounds", "RieszLabError", "ScalingReport", "SizeMetrics",
    "TrendVerdict", "TruncationError", "VectorSequence", "Verdict", "VerdictKind",
    "als_point_set", "alternating_weighted_pair", "bessel_bound",
    "biorthogonality_residual", "classify", "completeness_defect", "duality_identity_residual",
    "fit_growth", "gaussian_gabor", "gram_spectrum", "lattice_points",
    "minimal_dual", "orthonormal", "punctured_lattice", "random_riesz", "riesz_bounds",
    "run_family", "span_distance", "weighted_pair",
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
        # <x, y> = y^H x: linear in the first slot, conjugate-linear in the
        # second; entry (j, k) of the Gram product is <f_k, f_j>.
        x = np.array([1.0 + 1j, 0.0])
        y = np.array([2.0, 1j])
        entries = _gram_entries(VectorSequence(np.column_stack([x, y])))
        assert entries[1, 0] == pytest.approx(2.0 + 2j)  # <x, y>
        assert entries[0, 1] == pytest.approx(2.0 - 2j)  # <y, x>


class TestArrayIntake:
    """A system without a nonzero imaginary part stores float64 columns, the
    array every factorization reads; the arrays stay read-only."""

    def test_real_system_stores_float64_columns(self):
        seq = young_example(6).primal
        partner = minimal_dual(seq)
        for arr in (seq.columns, partner.columns):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert not _gram_entries(seq).flags.writeable and not _gram_eigenvalues(seq).flags.writeable
        assert _gram_entries(seq).dtype == np.float64


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


def test_spectral_record_keeps_no_twin():
    seq = gaussian_gabor(punctured_lattice(2), GaborDiscretization(6.0, 16))
    h = oracles.random_columns(7, seq.dim, 1)[:, 0]
    distance = span_distance(seq, h)
    riesz_bounds(seq)
    assert "_singular_values" in seq._record
    assert not any(
        isinstance(entry, np.ndarray) and entry.shape == seq.columns.shape
        for entry in seq._record.values()
    )
    assert span_distance(seq, h) == distance
    assert distance == pytest.approx(
        oracles.complex_lstsq_distance(seq.columns, h), rel=1e-10, abs=1e-12
    )


@st.composite
def monomial_systems(draw):
    """A dim x count matrix with at most one nonzero per row and per column,
    moduli from 1e-150 to 1e150, real or complex, each zero part 0.0 or -0.0."""
    dim, count = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(dim, count)))
    rows = draw(st.permutations(range(dim)))[:rank]
    cols = draw(st.permutations(range(count)))[:rank]
    moduli = 10.0 ** draw(hnp.arrays(float, rank, elements=st.floats(-150.0, 150.0)))
    zeros = np.where(draw(hnp.arrays(bool, (2, dim, count))), -0.0, 0.0)
    if draw(st.booleans()):
        system = np.empty((dim, count), dtype=complex)
        system.real, system.imag = zeros
        angles = draw(hnp.arrays(float, rank, elements=st.floats(0.0, 2 * np.pi)))
        system[rows, cols] = moduli * np.exp(1j * angles)
    else:
        system = zeros[0]
        signs = draw(hnp.arrays(float, rank, elements=st.sampled_from([-1.0, 1.0])))
        system[rows, cols] = moduli * signs
    return system


def _outcome(call):
    """What `call` returns, or the type and message of the package error it raises."""
    try:
        return call()
    except rieszlab.RieszLabError as exc:
        return type(exc), str(exc)


def _verdict_summary(verdict):
    if isinstance(verdict, tuple):
        return verdict
    return verdict.kind, verdict.bounds.completeness_defect


def _dual_route(seq):
    """The recorded dual outcome of `seq`, as `_outcome` reads it, with the
    accepted partner's biorthogonality and identity residuals, or None."""
    outcome = _outcome(lambda: duals._dual_outcome(seq))
    if not isinstance(outcome, duals._AcceptedDual):
        return outcome, None
    partner = outcome.partner
    return outcome, (duals.biorthogonality_residual(seq, partner),
                     duals.duality_identity_residual(seq, partner))


@settings(max_examples=100, deadline=None)
@given(system=monomial_systems())
@example(system=np.diag([1e-150, 3e-151]))  # rank threshold below the normal floats
@example(system=np.diag([2e154, 1.0]))  # sigma_max above the square root of the largest float
@example(system=np.array([[-0.0, 3.0 - 4.0j, 0.0], [1e-150j, -0.0, -0.0]]))
@example(system=np.array([[0.0, -0.0], [-0.0, 0.0], [-2.0, -0.0]]))
# A tall pair (2 count < dim), whose factored identity residual takes the QR of [F G].
@example(system=np.array([[0.0, 0.0], [0.0, -3e-4], [0.0, 0.0], [0.0, 0.0], [7.0 + 1j, 0.0]]))
# count < dim <= 2 count: the factored residual norms R's block of nonzero rows.
@example(system=np.array([[0.0, 2.5], [0.0, 0.0], [-1e3, 0.0]]))
def test_monomial_closed_form_matches_the_factorizations(system):
    closed = VectorSequence.from_columns(system)
    sigma = _outcome(lambda: _singular_values(closed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqcore, "_monomial_moduli", lambda arr: None)
        factored = VectorSequence.from_columns(system)
        svd = _outcome(lambda: _singular_values(factored))
        factored_verdict = _verdict_summary(_outcome(lambda: classify(factored)))
        factored_dual, factored_residuals = _dual_route(factored)
    assert _verdict_summary(_outcome(lambda: classify(closed))) == factored_verdict
    closed_dual, closed_residuals = _dual_route(closed)
    if not isinstance(factored_dual, duals._AcceptedDual):
        # The same refusal, word for word.
        assert closed_dual == factored_dual
    else:
        # fl(1/conj(a)) against LAPACK's a / |a|^2: a real reciprocal is
        # correctly rounded and the solve errs by up to 3u, so they agree
        # within 2 eps |y|; numpy's complex reciprocal (Smith's algorithm)
        # errs by up to 5u in a part, so complex entries within 4 eps |y|.
        closed_partner, partner = closed_dual.partner.columns, factored_dual.partner.columns
        ulps = 4 if np.iscomplexobj(system) else 2
        eps = np.finfo(float).eps
        assert np.all(np.abs(closed_partner - partner) <= ulps * eps * np.abs(partner))
        # Of scale sqrt(B_F B_G), the minimal dual's sigma_max(F) / sigma_min(F).
        bar = _error_bar(max(system.shape), svd[0] / svd[-1])
        for closed_residual, residual in zip(closed_residuals, factored_residuals):
            assert abs(closed_residual - residual) <= bar
    if isinstance(svd, tuple):
        # Out of range: the same IllConditionedError, word for word.
        assert svd[0] is rieszlab.IllConditionedError and sigma == svd
        return
    moduli = np.sort(np.abs(system).max(axis=0))[::-1][:min(system.shape)]
    np.testing.assert_array_equal(sigma, moduli)
    assert np.all(np.abs(svd - sigma) <= 4 * np.finfo(float).eps * sigma)
    np.testing.assert_array_equal(_gram_eigenvalues(closed), sigma[::-1] ** 2)


#: Each checked input: (its name in the message, its shape, the call).
_FINITENESS_CALLERS = {
    "constructor": ("columns", (3, 2), VectorSequence),
    "adopt": ("columns", (3, 2), VectorSequence._adopt),
    "span_distance": ("vector", (3,), lambda h: span_distance(orthonormal(3), h)),
}
#: Layouts `_as_array` takes as they are (C-order, and a 2-D input
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


def _intake_values(kind, shape):
    """Entries of one of `_INTAKE_KINDS`: real ones as float64, or complex
    with nonzero imaginary parts, with only -0.0 ones (the first entry
    -0.0 - 0.0i), or with one nonzero imaginary part, in the last entry."""
    values = np.arange(1.0, np.prod(shape) + 1.0).reshape(shape) * (1 - 1j)
    if kind == "float64":
        return values.real.copy()
    if kind != "complex":
        values.imag = -0.0
        values.flat[0] = complex(-0.0, -0.0)
    if kind == "tiny-imaginary-part-last":
        values.flat[-1] = complex(values.flat[-1].real, 1e-300)
    return values


_INTAKE_KINDS = ["float64", "complex", "negative-zero-imaginary-parts", "tiny-imaginary-part-last"]
_INTAKE_LAYOUTS = ["c-order", "list", "strided", "column-major"]


@pytest.mark.parametrize("caller", list(_FINITENESS_CALLERS))
@pytest.mark.parametrize("layout", _INTAKE_LAYOUTS)
@pytest.mark.parametrize("kind", _INTAKE_KINDS)
def test_intake_stores_float64_exactly_when_no_imaginary_part_is_nonzero(
    caller, layout, kind, monkeypatch
):
    """The one intake, `seqcore._as_array`, as each of its callers keeps its
    input: a sequence's columns, or the vector `span_distance` solves with."""
    _, shape, call = _FINITENESS_CALLERS[caller]
    values = _intake_values(kind, shape)
    given = values.tolist() if layout == "list" else _LAYOUTS[layout](values)
    vectors = []
    as_array = diagnostics._as_array

    def spy(*args, **kwargs):
        vectors.append(as_array(*args, **kwargs))
        return vectors[-1]

    monkeypatch.setattr(diagnostics, "_as_array", spy)
    result = call(given)
    kept = vectors[0] if caller == "span_distance" else result.columns
    real = kind in ("float64", "negative-zero-imaginary-parts")
    expected = values.real if real else values
    assert kept.dtype == expected.dtype and kept.flags.c_contiguous
    assert kept.tobytes() == np.ascontiguousarray(expected).tobytes()
    if caller != "span_distance":
        assert not kept.flags.writeable
    if caller == "constructor":
        assert not np.shares_memory(kept, values) and not np.shares_memory(kept, given)


def test_real_input_with_a_non_finite_entry_is_rejected():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^columns contains non-finite entries$"):
            VectorSequence(np.array([[1.0, value], [0.0, 1.0]]))


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


def test_rank_tolerance_scales_with_sigma():
    assert _rank_scale((4, 4), 1.0) == pytest.approx(4e-12)
    assert _rank_scale((4, 4), 10.0) == pytest.approx(4e-11)
    # sigma = 3e-11 counts beside sigma_max 1 (threshold 4e-12), not beside 10 (4e-11).
    assert _rank(VectorSequence.from_columns(np.diag([1.0, 1.0, 1.0, 3e-11]))) == 4
    assert _rank(VectorSequence.from_columns(np.diag([10.0, 10.0, 10.0, 3e-11]))) == 3
    assert _rank(VectorSequence.from_columns(np.zeros((3, 3)))) == 0
