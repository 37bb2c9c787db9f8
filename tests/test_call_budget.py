"""LAPACK call budgets per public operation, and the exp work of a Gabor build.

Counts are deterministic, unlike wall time, so they gate the factor-once
design: each route factors its matrix once per system, and repeated
diagnostics of one system reuse those factorizations.  Budgets may only go
down.  The counters replace svd, eigvalsh, solve, lstsq and qr in both
numpy.linalg and its implementation module, so the SVD inside
np.linalg.norm(x, 2) is counted too.  They also record the dtype each call
computes in, which pins real systems and the real twins of paired Gabor
systems to real arithmetic, and the shape of each call's matrix, which pins
the Gram route to the smaller Gram product and a tall pair's identity
residual to a QR of [F G].
"""

import ast
import inspect
import json
import math
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

import rieszlab
from rieszlab import VectorSequence, classify, duals, generators, random_riesz, scaling, seqcore
from rieszlab.cli import main
from rieszlab.generators import (
    RIESZ_CONDITION_LIMIT,
    GaborDiscretization,
    PointSet2D,
    gaussian_gabor,
    lattice_points,
    weighted_pair,
    young_general,
)
from rieszlab.errors import IllConditionedError, NoBiorthogonalSequenceError
from rieszlab.matrixio import read_matrix, write_matrix, write_point_set
from rieszlab.scaling import FamilySpec, run_family

# numpy >= 2 keeps the implementation in numpy.linalg._linalg, older numpy in numpy.linalg.linalg.
_LINALG = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
KERNELS = ("svd", "eigvalsh", "solve", "lstsq", "qr")
#: Relative agreement of two commands' bounds for the same system.
BOUNDS_RTOL = 1e-8


class KernelCalls(Counter):
    """Calls per kernel, and per kernel the set of dtypes its calls computed
    in (the result type of their array operands) and the shape of each
    call's matrix, in call order."""

    def __init__(self):
        super().__init__()
        self.dtypes = defaultdict(set)
        self.shapes = defaultdict(list)

    def clear(self):
        super().clear()
        self.dtypes.clear()
        self.shapes.clear()


@pytest.fixture
def lapack_calls(monkeypatch):
    counts = KernelCalls()
    lock = threading.Lock()  # keeps the counts exact if kernels run on several threads
    for name in KERNELS:
        original = getattr(_LINALG, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            dtype = np.result_type(*(a for a in args if isinstance(a, np.ndarray)))
            with lock:
                counts[_name] += 1
                counts.dtypes[_name].add(dtype)
                counts.shapes[_name].append(np.shape(args[0]))
            return _original(*args, **kwargs)

        for namespace in (np.linalg, _LINALG):
            monkeypatch.setattr(namespace, name, counted)
    return counts


def assert_within(counts, svd, eigvalsh, solve, lstsq=0, qr=0):
    budget = {"svd": svd, "eigvalsh": eigvalsh, "solve": solve, "lstsq": lstsq, "qr": qr}
    over = {k: (counts[k], budget[k]) for k in KERNELS if counts[k] > budget[k]}
    assert not over, f"calls over budget (used, budget): {over}"


def independent_system():
    return VectorSequence.from_columns(random_riesz(12, seed=0).columns)


def dependent_system():
    cols = random_riesz(6, seed=1).columns
    return VectorSequence.from_columns(np.concatenate([cols, cols[:, :2] @ [[1.0], [2.0]]], axis=1))


@pytest.fixture
def matrix_file(tmp_path):
    def write(seq):
        path = tmp_path / "input.csv"
        write_matrix(str(path), seq)
        return str(path)

    return write


def assert_computed_in(counts, dtype):
    assert counts, "no kernel ran"
    seen = {name: counts.dtypes[name] for name in counts}
    assert all(dtypes == {np.dtype(dtype)} for dtypes in seen.values()), seen


def test_counter_sees_direct_and_norm_svds(lapack_calls):
    a = np.arange(6.0).reshape(3, 2)
    np.linalg.svd(a, compute_uv=False)
    np.linalg.norm(a, 2)
    np.linalg.eigvalsh(a.T @ a)
    np.linalg.lstsq(a, np.ones(3, dtype=complex))
    np.linalg.qr(a)
    assert dict(lapack_calls) == {"svd": 2, "eigvalsh": 1, "lstsq": 1, "qr": 1}
    assert lapack_calls.dtypes == {
        "svd": {np.dtype(float)}, "eigvalsh": {np.dtype(float)}, "lstsq": {np.dtype(complex)},
        "qr": {np.dtype(float)},
    }
    assert lapack_calls.shapes["eigvalsh"] == [(2, 2)]
    assert lapack_calls.shapes["qr"] == [(3, 2)]


def test_no_module_binds_linalg_functions():
    bound = {id(getattr(_LINALG, name)) for name in KERNELS}
    for name, module in sys.modules.items():
        if name == "rieszlab" or name.startswith("rieszlab."):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    assert id(obj) not in bound, f"{name}.{attr} binds a numpy.linalg function"


#: The functions of the package that call each kernel, so each route has one
#: factorization: one per kernel, but for qr, which factors [F h] for the probe
#: distance and [F G] for a tall pair's identity residual; and the one that
#: calls np.linalg.norm, for a vector's norm, so no matrix 2-norm runs an SVD
#: this scan cannot see.  (`seqcore._sigma` takes a one-row or one-column
#: matrix's norm with math.hypot, which runs no LAPACK.)
KERNEL_SITES = {
    "svd": ["seqcore._sigma"],
    "eigvalsh": ["seqcore._gram_eigenvalues"],
    "solve": ["duals._dual_outcome"],
    "lstsq": ["diagnostics.span_distance"],
    "qr": ["diagnostics.span_distance", "duals.duality_identity_residual"],
    "norm": ["diagnostics.span_distance"],
}


def kernel_sites(path):
    """(kernel, "module.function") for each `np.linalg.<kernel>` in the module at
    `path`, `norm` counted among the kernels."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert not module.startswith("numpy.linalg"), f"{path.name} imports from {module}"
        if (isinstance(node, ast.Attribute) and node.attr in KERNEL_SITES
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            sites.append((node.attr, f"{path.stem}.{function}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_each_kernel_has_one_call_site():
    found = defaultdict(list)
    for path in sorted(Path(rieszlab.__file__).parent.glob("*.py")):
        for kernel, site in kernel_sites(path):
            found[kernel].append(site)
    assert found == KERNEL_SITES


def test_classify_independent_from_fresh_sequence(lapack_calls):
    seq = independent_system()
    lapack_calls.clear()
    assert classify(seq).kind is rieszlab.VerdictKind.RIESZ_BASIS
    assert_within(lapack_calls, svd=2, eigvalsh=1, solve=1)


def test_classify_forms_no_dual_gram_product():
    # The dual route reads the minimal dual's singular values only.
    seq = independent_system()
    classify(seq)
    partner = rieszlab.minimal_dual(seq)
    assert "_singular_values" in partner._record
    assert "_gram_entries" not in partner._record
    assert "_gram_eigenvalues" not in partner._record


def test_repeated_diagnostics_reuse_the_record(lapack_calls):
    seq = independent_system()
    first = classify(seq)
    lapack_calls.clear()
    assert classify(seq) == first
    rieszlab.gram_spectrum(seq)
    rieszlab.bessel_bound(seq)
    assert rieszlab.completeness_defect(rieszlab.minimal_dual(seq)) == rieszlab.completeness_defect(seq)
    assert_within(lapack_calls, svd=0, eigvalsh=0, solve=0)


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_cli_independent(command, lapack_calls, matrix_file, tmp_path, capsys):
    path = matrix_file(independent_system())
    extra = ["-o", str(tmp_path / "dual.csv")] if command == "dual" else []
    lapack_calls.clear()
    assert main([command, path, *extra]) == 0
    assert_within(lapack_calls, svd=3, eigvalsh=1, solve=1)


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_cli_reads_the_accepted_biorthogonality_residual(
    command, monkeypatch, matrix_file, tmp_path, capsys
):
    calls = []
    original = duals.biorthogonality_residual

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(duals, "biorthogonality_residual", spy)
    seq = independent_system()
    path = matrix_file(seq)
    extra = ["-o", str(tmp_path / "dual.csv")] if command == "dual" else []
    report = tmp_path / "report.json"
    assert main([command, path, *extra, "--json", str(report)]) == 0
    assert len(calls) == 1
    residual = json.loads(report.read_text())["residuals"]["biorthogonality"]
    assert residual == original(seq, duals.minimal_dual(seq))


def _dual_outcome_system(name):
    """An accepted basis; a refused one, Q1 diag(1 .. 1e-10) Q2, whose dual
    misses the 1e-8 residual contract; and a dependent one, with a duplicated
    column.  Built before the counters are cleared: their QRs are not counted."""
    if name == "accepted":
        return random_riesz(12)
    if name == "refused":
        rng = np.random.default_rng(3)
        q1, q2 = (np.linalg.qr(rng.standard_normal((12, 12)))[0] for _ in range(2))
        return VectorSequence.from_columns(q1 * np.geomspace(1.0, 1e-10, 12) @ q2)
    columns = random_riesz(12).columns.copy()
    columns[:, 5] = columns[:, 2]
    return VectorSequence.from_columns(columns)


@pytest.mark.parametrize("name, error, solves", [
    ("accepted", None, 1),
    ("refused", IllConditionedError, 1),
    ("dependent", NoBiorthogonalSequenceError, 0),
])
def test_analyze_reports_the_recorded_dual_outcome(
    name, error, solves, lapack_calls, matrix_file, capsys
):
    # analyze's residuals are null exactly when minimal_dual raises, and
    # otherwise the residuals of the recorded, accepted dual; a dependent
    # system's refusal is recorded without a solve.
    path = matrix_file(_dual_outcome_system(name))
    lapack_calls.clear()
    assert main(["analyze", path]) == 0
    assert lapack_calls["solve"] == solves
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    seq = read_matrix(path)
    if error is not None:
        with pytest.raises(error):
            duals.minimal_dual(seq)
        assert residuals == {"biorthogonality": None, "dualityIdentity": None}
    else:
        outcome = duals._dual_outcome(seq)
        assert duals.minimal_dual(seq) is outcome.partner
        assert residuals == {
            "biorthogonality": outcome.biorthogonality_residual,
            "dualityIdentity": duals.duality_identity_residual(seq, outcome.partner),
        }


def permuted_weighted_pair():
    columns = weighted_pair(24).primal.columns
    return VectorSequence.from_columns(columns[:, np.random.default_rng(6).permutation(24)])


def _near_monomial_systems():
    """Matrices that miss "at most one nonzero per row and column" by one entry
    or more, each past a first column with a single nonzero."""
    diagonal = np.diag(np.arange(1.0, 7.0))
    subnormal = diagonal.copy()
    subnormal[4, 1] = 5e-324
    extra = np.zeros((1, 6))
    extra[0, 3] = 2.0
    dense = np.random.default_rng(9).standard_normal((6, 6))
    dense[:, 0] = np.eye(6)[0]
    return {
        "subnormal-off-diagonal": subnormal,
        "two-in-a-column": np.vstack([diagonal, extra]),
        "two-in-a-row": np.hstack([diagonal, extra.T]),
        "dense-first-column-e1": dense,
    }


@pytest.mark.parametrize("name", sorted(_near_monomial_systems()))
def test_near_monomial_system_is_factored(name, lapack_calls):
    cols = _near_monomial_systems()[name]
    assert seqcore._monomial_moduli(cols) is None
    seq = VectorSequence.from_columns(cols)
    lapack_calls.clear()
    seqcore._singular_values(seq)
    seqcore._gram_eigenvalues(seq)
    assert dict(lapack_calls) == {"svd": 1, "eigvalsh": 1}


def test_dense_identity_residual_keeps_its_svd(lapack_calls):
    # A Riesz basis's residual F G^H - I is dense rounding noise.
    seq = independent_system()
    partner = rieszlab.minimal_dual(seq)
    lapack_calls.clear()
    duals.duality_identity_residual(seq, partner)
    assert dict(lapack_calls) == {"svd": 1}


def test_diagonal_identity_residual_is_its_largest_modulus(lapack_calls):
    pair = rieszlab.alternating_weighted_pair(40)
    products = np.diag(pair.primal.columns) * np.diag(pair.partner.columns)
    lapack_calls.clear()
    assert duals.duality_identity_residual(pair.primal, pair.partner) == np.abs(products - 1.0).max()
    assert not lapack_calls


def tall_monomial_system():
    """40 x 10 with one nonzero per column, each in its own row: a tall file
    (2 count < dim), whose dense identity residual would take the QR branch."""
    columns = np.zeros((40, 10))
    columns[np.random.default_rng(7).permutation(40)[:10], np.arange(10)] = 1.0 / np.arange(1, 11)
    return VectorSequence.from_columns(columns)


@pytest.mark.parametrize("system", [permuted_weighted_pair, tall_monomial_system])
@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_cli_monomial_file_runs_no_kernel(command, system, lapack_calls, matrix_file, tmp_path,
                                          capsys):
    # The system, its dual and both residuals are read from the entries:
    # no SVD, eigensolve, Gram solve, least squares or QR runs.
    path = matrix_file(system())
    extra = ["-o", str(tmp_path / "dual.csv")] if command == "dual" else []
    lapack_calls.clear()
    assert main([command, path, *extra]) == 0
    assert_within(lapack_calls, svd=0, eigvalsh=0, solve=0, lstsq=0, qr=0)


def test_analyze_dependent(lapack_calls, matrix_file, capsys):
    path = matrix_file(dependent_system())
    lapack_calls.clear()
    assert main(["analyze", path]) == 0
    assert_within(lapack_calls, svd=1, eigvalsh=1, solve=0)


def wide_system():
    return VectorSequence.from_columns(np.random.default_rng(4).standard_normal((4, 40)))


def test_analyze_wide_eigensolves_the_dim_side(lapack_calls, matrix_file, capsys):
    # A wide system's Gram route factors the 4x4 product F F^H, not the 40x40 F^H F.
    path = matrix_file(wide_system())
    lapack_calls.clear()
    assert main(["analyze", path]) == 0
    assert_within(lapack_calls, svd=1, eigvalsh=1, solve=0)
    assert lapack_calls.shapes["eigvalsh"] == [(4, 4)]


def test_dual_dependent(lapack_calls, matrix_file, tmp_path, capsys):
    path = matrix_file(dependent_system())
    lapack_calls.clear()
    assert main(["dual", path, "-o", str(tmp_path / "dual.csv")]) == 4
    assert_within(lapack_calls, svd=1, eigvalsh=0, solve=0)


@pytest.mark.parametrize("seed", range(3))
def test_random_riesz_single_draw(seed, lapack_calls):
    # Reproduce the first draw to confirm that one draw is accepted, so the
    # budget below is the per-draw budget.
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / np.sqrt(2)
    sigma = np.linalg.svd(v, compute_uv=False)
    assert sigma[0] / sigma[-1] <= RIESZ_CONDITION_LIMIT
    lapack_calls.clear()
    seq = random_riesz(16, seed=seed)
    np.testing.assert_array_equal(seq.columns, v)
    assert_within(lapack_calls, svd=1, eigvalsh=0, solve=0)


def test_gabor_without_refine(lapack_calls, capsys):
    assert main(["gabor", "--set", "punctured", "--max-index", "2"]) == 0
    assert_within(lapack_calls, svd=1, eigvalsh=0, solve=0)


def test_gabor_refine_factors_each_rate_once(lapack_calls, capsys):
    argv = ["gabor", "--set", "punctured", "--max-index", "2", "--samples", "16", "--refine", "12,32"]
    assert main(argv) == 0
    assert_within(lapack_calls, svd=3, eigvalsh=0, solve=0)


def test_gabor_refine_analyzes_its_point_set_once(monkeypatch, tmp_path, capsys):
    # Three rates, one node analysis: np.unique runs once for the shifts and
    # once for the modulations, on the first build.
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(np.size(a[0])) or unique(*a, **k))
    nodes = np.array(lattice_points(1.0, 1.0, 2).nodes)
    nodes += np.random.default_rng(3).uniform(-0.2, 0.2, nodes.shape)
    path = str(tmp_path / "nodes.csv")
    write_point_set(path, PointSet2D(tuple(map(tuple, nodes))))
    for argv, count in (
        (["gabor", "--set", "punctured", "--max-index", "2"], 24),
        (["gabor", "--set", "file", "--nodes", path], 25),
    ):
        calls.clear()
        assert main([*argv, "--samples", "32", "--refine", "24,40"]) == 0
        assert len(json.loads(capsys.readouterr().out)["refinement"]["perSize"]) == 3
        assert calls == [count, count]


@pytest.mark.parametrize("refine, rates", [([], [16]), (["--refine", "24,32"], [16, 24, 32])],
                         ids=["base", "refine"])
def test_gabor_builds_each_rate_once_with_or_without_a_dump(refine, rates, monkeypatch, tmp_path,
                                                             capsys):
    # Nodes that do not pair up are sampled as the complex system itself, which
    # is the system --dump-matrix writes: one build of factor tables per rate
    # either way, and the dump holds the bytes of that system's file.
    built = []
    tables = generators._gabor_tables
    monkeypatch.setattr(generators, "_gabor_tables",
                        lambda points, disc, columns: built.append(disc.samples_per_unit)
                        or tables(points, disc, columns))
    points = PointSet2D(((0.0, 0.0), (1.0, 0.5), (-1.0, 1.5)))
    path, dump, reference = (str(tmp_path / name) for name in ("nodes.csv", "g.csv", "ref.csv"))
    write_point_set(path, points)
    for extra in ([], ["--dump-matrix", dump]):
        built.clear()
        assert main(["gabor", "--set", "file", "--nodes", path, *refine, *extra]) == 0
        assert sorted(built) == rates
    write_matrix(reference, gaussian_gabor(points, GaborDiscretization(6.0, 16)))
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Per size: the member's SVD and, for an incomplete member only, one QR of
# [F h] for the probe distance (every incomplete member here is independent,
# so none needs lstsq).  A family without a designated partner reads its
# dual metrics off that SVD's rank decision and builds no dual; a designated
# partner's identity residual is normed on its nonzero block, which for the
# Young pairs is one row at the default complement dimension 1: its
# Euclidean norm, with no SVD.  A matrix with at most one nonzero per row and
# column needs none of these: the orthonormal and the two weighted families'
# members, their partners and their residuals, and the Young partners, read
# their spectra and norms from their entries.  Three sizes per family, every
# family of `scaling._FAMILIES`; the Gabor and Young members are incomplete.
# Columns: svd, eigvalsh, solve, lstsq, qr.
FAMILY_BUDGETS = [
    ("rieszSeeded", (8, 16, 32), (3, 0, 0, 0, 0)),
    ("orthonormal", (8, 16, 32), (0, 0, 0, 0, 0)),
    ("gaborPunctured", (1, 2, 3), (3, 0, 0, 0, 3)),
    ("weightedPair", (8, 16, 32), (0, 0, 0, 0, 0)),
    ("youngExample", (8, 16, 32), (3, 0, 0, 0, 3)),
    ("alternatingWeightedPair", (8, 16, 32), (0, 0, 0, 0, 0)),
    ("youngGeneral", (8, 16, 32), (3, 0, 0, 0, 3)),
    ("gaborALS", (1, 2, 3), (3, 0, 0, 0, 3)),
    ("gaborFullLattice", (1, 2, 3), (3, 0, 0, 0, 3)),
]


@pytest.mark.parametrize("generator, sizes, budget", FAMILY_BUDGETS)
def test_run_family(generator, sizes, budget, lapack_calls):
    run_family(FamilySpec(generator, sizes))
    assert_within(lapack_calls, *budget)


def test_every_family_has_a_budget():
    assert sorted(row[0] for row in FAMILY_BUDGETS) == sorted(scaling._FAMILIES)


@pytest.mark.parametrize(
    "generator, sizes, dtype",
    [
        ("orthonormal", (8, 16, 32), None),
        ("weightedPair", (8, 16, 32), None),
        ("alternatingWeightedPair", (8, 16, 32), None),
        ("youngExample", (8, 16, 32), float),
        ("youngGeneral", (8, 16, 32), float),
        ("rieszSeeded", (8, 16, 32), complex),
        ("gaborPunctured", (1, 2, 3), float),
    ],
)
def test_run_family_kernel_dtype(generator, sizes, dtype, lapack_calls):
    # dtype None: a diagonal family reads every spectrum from its entries.
    run_family(FamilySpec(generator, sizes))
    if dtype is None:
        assert not lapack_calls, dict(lapack_calls)
    else:
        assert_computed_in(lapack_calls, dtype)


def real_dense_basis():
    q = np.linalg.qr(np.random.default_rng(11).standard_normal((12, 12)))[0]
    return VectorSequence(q * np.linspace(1.0, 3.0, 12))


@pytest.mark.parametrize("command", ["analyze", "dual"])
@pytest.mark.parametrize(
    "system, dtype",
    [
        (lambda: young_general(8, 8, 2).primal, float),
        (real_dense_basis, float),
        (independent_system, complex),
    ],
    ids=["youngGeneral", "realDense", "complex"],
)
def test_cli_kernel_dtype(command, system, dtype, lapack_calls, matrix_file, tmp_path, capsys):
    path = matrix_file(system())
    extra = ["-o", str(tmp_path / "dual.csv")] if command == "dual" else []
    lapack_calls.clear()
    assert main([command, path, *extra]) == 0
    assert_computed_in(lapack_calls, dtype)


def test_gabor_kernel_dtype(lapack_calls, capsys):
    # The nodes pair up as (tau, mu) and (tau, -mu), so `gabor` builds and
    # factors the system's real twin.
    assert main(["gabor", "--set", "punctured", "--max-index", "2"]) == 0
    assert_computed_in(lapack_calls, float)


def test_gabor_jittered_file_stays_complex(lapack_calls, tmp_path, capsys):
    rng = np.random.default_rng(5)
    nodes = lattice_points(1.0, 1.0, 2).nodes + rng.uniform(-0.1, 0.1, (25, 2))
    path = tmp_path / "nodes.csv"
    write_point_set(str(path), PointSet2D(tuple(map(tuple, nodes))))
    assert main(["gabor", "--set", "file", "--nodes", str(path)]) == 0
    assert_computed_in(lapack_calls, complex)


def test_analyze_of_a_gabor_dump_keeps_its_bounds_and_budget(lapack_calls, tmp_path, capsys):
    # `gabor` factors the real twin it builds from the nodes; `analyze` of the
    # dumped complex matrix factors the complex system, within the standing
    # budget, and agrees to the two-route tolerance.
    dump, built, analyzed = (tmp_path / name for name in ("gabor.csv", "g.json", "a.json"))
    assert main(["gabor", "--set", "punctured", "--max-index", "2",
                 "--dump-matrix", str(dump), "--json", str(built)]) == 0
    lapack_calls.clear()
    assert main(["analyze", str(dump), "--json", str(analyzed)]) == 0
    # 48 columns in 192 rows: a tall pair, whose identity residual runs one QR.
    assert_within(lapack_calls, svd=3, eigvalsh=1, solve=1, qr=1)
    expected, report = json.loads(built.read_text()), json.loads(analyzed.read_text())
    assert report["defect"] == expected["defect"]
    for name, value in expected["bounds"].items():
        assert report["bounds"][name] == pytest.approx(value, rel=BOUNDS_RTOL)


def test_family_tall_pairs_run_one_qr_each(lapack_calls, capsys):
    # Sizes 4 and 5 pair 1 and 2 vectors with their partners in 4 and 5
    # dimensions, so 2 count < dim and each identity residual is read from a
    # 2 count x 2 count block after a QR of [F G]; size 6 (3 vectors) is not
    # tall, and its residual's SVD runs on the 3 x 6 block of complement rows.
    # Per size: the member's SVD, the probe's QR of [F h], then the
    # residual's QR (tall sizes only) and SVD.  Size 4's one-column member
    # takes its Euclidean norm as its singular value, with no SVD.
    argv = ["family", "--gen", "youngGeneral", "--sizes", "4,5,6", "--complement-dim", "3"]
    assert main(argv) == 0
    assert_within(lapack_calls, svd=5, eigvalsh=0, solve=0, lstsq=0, qr=5)
    assert lapack_calls.shapes["qr"] == [(4, 2), (4, 2), (5, 3), (5, 4), (6, 4)]
    assert lapack_calls.shapes["svd"] == [(2, 2), (5, 2), (4, 4), (6, 3), (3, 6)]


@pytest.mark.parametrize(
    "generator, sizes",
    [("rieszSeeded", (8, 16, 32)), ("orthonormal", (8, 16, 32)), ("gaborPunctured", (1, 2, 3))],
)
def test_run_family_builds_no_minimal_dual(generator, sizes, monkeypatch):
    called = []
    for name in ("minimal_dual", "duality_identity_residual"):
        monkeypatch.setattr(duals, name, lambda *args, _name=name: called.append(_name))
    run_family(FamilySpec(generator, sizes))
    assert called == []


def test_gabor_lattice_evaluates_each_factor_once_per_distinct_value(monkeypatch):
    # A (2M+1)^2 lattice has 2M+1 distinct shifts and 2M+1 distinct
    # modulations: one envelope and one phase per grid point and value.
    counted = []
    original = np.exp

    def exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    max_index = 4
    disc = GaborDiscretization(8.0, 16)
    gaussian_gabor(lattice_points(1.0, 1.0, max_index), disc)
    assert 0 < sum(counted) <= disc.sample_count * 2 * (2 * max_index + 1)


def test_gabor_phase_table_evaluates_two_small_tables_per_modulation(monkeypatch):
    # Jittered nodes have as many distinct modulations as nodes.  Each one
    # costs ceil(L/B) coarse and B fine complex exponentials, B = isqrt(L),
    # not one per grid point.
    counted = []
    original = np.exp

    def exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    nodes = np.array(lattice_points(1.0, 1.0, 3).nodes)
    nodes += np.random.default_rng(5).uniform(-0.2, 0.2, nodes.shape)
    points = PointSet2D(tuple(map(tuple, nodes)))
    disc = GaborDiscretization(8.0, 16)
    gaussian_gabor(points, disc)
    rows, step = disc.sample_count, math.isqrt(disc.sample_count)
    assert len({m for _, m in points.nodes}) == len(points)
    assert 0 < sum(counted) <= (-(-rows // step) + step) * len(points)
