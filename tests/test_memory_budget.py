"""Traced peak memory per CLI command, as a multiple of its largest array.

The twin of test_call_budget.py.  `cli._check_size` refuses a command whose
largest dense array, estimated as a rows x cols complex matrix from its flags
or its input file's shape, exceeds 1 GiB, but the command's peak is a
multiple of that array.  Each entry of BUDGETS pins the traced peak of one
warm run (see memtrace.traced_peak) divided by that estimate, for three
sizes per command.  Ceilings may only go down.  tracemalloc does not see the
work buffers numpy.linalg allocates inside LAPACK, so resident memory is
higher.  At the smallest sizes the writer's one block of text, about 2.7 MB
whatever the matrix size, sets `dual`'s peak.
"""

import numpy as np
import pytest

import oracles
from memtrace import traced_peak
from rieszlab import PointSet2D, VectorSequence, cli, lattice_points
from rieszlab.matrixio import write_matrix, write_point_set

#: (command, input or generator, size) -> ceiling on traced peak / estimate:
#: the multiple measured with numpy 2.4.6 plus 1%, rounded up.  The size is
#: the matrix side for analyze and dual, --n for example, the largest of
#: --sizes for family, and for gabor the --max-index of the lattice, or of
#: the jittered lattice window a file holds.
BUDGETS = {
    ("analyze", "complex", 64): 5.14,
    ("analyze", "complex", 128): 5.08,
    ("analyze", "complex", 256): 5.06,
    ("analyze", "real", 64): 2.59,
    ("analyze", "real", 128): 2.55,
    ("analyze", "real", 256): 2.54,
    ("dual", "complex", 64): 43.44,
    ("dual", "complex", 128): 13.85,
    ("dual", "complex", 256): 5.75,
    ("dual", "real", 64): 43.44,
    ("dual", "real", 128): 12.36,
    ("dual", "real", 256): 4.24,
    ("example", "riesz", 128): 11.79,
    ("example", "riesz", 256): 3.72,
    ("example", "riesz", 512): 1.7,
    ("family", "riesz", 128): 1.54,
    ("family", "riesz", 256): 1.52,
    ("family", "riesz", 512): 1.52,
    ("gabor", "lattice", 2): 1.54,
    ("gabor", "lattice", 4): 1.40,
    ("gabor", "lattice", 8): 1.33,
    ("gabor", "file", 2): 3.19,
    ("gabor", "file", 4): 2.46,
    ("gabor", "file", 8): 2.12,
}


def _matrix_file(kind, n, path):
    if kind == "complex":
        columns = oracles.random_columns(n, n, n)
    else:
        columns = np.random.default_rng(n).standard_normal((n, n))
    write_matrix(str(path), VectorSequence(columns))
    return str(path)


def _jittered_file(max_index, tmp_path):
    """The integer lattice window up to max_index, each node moved by up to 0.2
    in each coordinate: every shift and modulation distinct, and no column the
    conjugate of another, so the system is factored in complex arithmetic."""
    nodes = np.array(lattice_points(1.0, 1.0, max_index).nodes)
    nodes += np.random.default_rng(max_index).uniform(-0.2, 0.2, nodes.shape)
    path = str(tmp_path / "nodes.csv")
    write_point_set(path, PointSet2D(tuple(map(tuple, nodes))))
    return path


def _argv(command, kind, size, tmp_path):
    report = ["--json", str(tmp_path / "report.json")]
    if command == "analyze":
        return ["analyze", _matrix_file(kind, size, tmp_path / "in.csv"), *report]
    if command == "dual":
        source = _matrix_file(kind, size, tmp_path / "in.csv")
        return ["dual", source, "-o", str(tmp_path / "dual.csv"), *report]
    if command == "example":
        return ["example", kind, "--n", str(size), "-o", str(tmp_path / "example")]
    if command == "family":
        sizes = f"{size // 4},{size // 2},{size}"
        return ["family", "--gen", kind, "--sizes", sizes, *report]
    # Time shifts up to --max-index (plus jitter) stay three widths inside the grid.
    window = ["--half-width", str(size + 4)]
    if kind == "file":
        return ["gabor", "--set", "file", "--nodes", _jittered_file(size, tmp_path), *window, *report]
    return ["gabor", "--set", kind, "--max-index", str(size), *window, *report]


@pytest.fixture
def estimates(monkeypatch):
    """The bytes of every largest array `cli._check_size` estimates, in call order."""
    seen = []
    check = cli._check_size

    def spy(what, rows, cols):
        seen.append(check(what, rows, cols))
        return seen[-1]

    monkeypatch.setattr(cli, "_check_size", spy)
    return seen


@pytest.mark.parametrize("command, kind, size", BUDGETS)
def test_traced_peak_within_budget(command, kind, size, estimates, tmp_path, capsys):
    argv = _argv(command, kind, size, tmp_path)
    peak, code = traced_peak(lambda: cli.main(argv))
    assert code == 0, capsys.readouterr().err
    multiple = peak / max(estimates)
    assert multiple <= BUDGETS[command, kind, size], (
        f"traced peak {peak} bytes is {multiple:.3f} times the largest array"
    )
