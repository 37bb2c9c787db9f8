import argparse
import io
import json
import os
import re
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from memtrace import traced_peak
from rieszlab import (
    IllConditionedError,
    VectorSequence,
    alternating_weighted_pair,
    classify,
    minimal_dual,
    orthonormal,
    random_riesz,
    weighted_pair,
    young_example,
    young_general,
)
from rieszlab import cli, diagnostics, duals, generators, matrixio, scaling, seqcore
from rieszlab.cli import build_parser, main
from rieszlab.matrixio import read_matrix, write_matrix


def run_cli(*argv):
    return main(list(argv))


def write_identity(path, n=3):
    write_matrix(str(path), VectorSequence.from_columns(np.eye(n)))


class TestAnalyze:
    def test_identity(self, tmp_path, capsys):
        src = tmp_path / "id.csv"
        write_identity(src)
        assert run_cli("analyze", str(src)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "RieszBasis"
        assert report["bounds"]["rieszLower"] == pytest.approx(1.0)
        assert report["bounds"]["besselUpper"] == pytest.approx(1.0)
        assert report["schemaVersion"] == 1
        assert report["gramSpectrum"]["bijective"] is True

    def test_dependent_columns(self, tmp_path, capsys):
        src = tmp_path / "dep.csv"
        src.write_text("1,1\n0,0\n")
        assert run_cli("analyze", str(src)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "LinearlyDependent"
        assert report["conditioning"] is None

    def test_json_output(self, tmp_path):
        src = tmp_path / "id.csv"
        out = tmp_path / "report.json"
        write_identity(src)
        assert run_cli("analyze", str(src), "--json", str(out)) == 0
        assert json.loads(out.read_text())["verdict"] == "RieszBasis"

    def test_matches_in_memory_path(self, tmp_path, capsys):
        pair = young_example(4)
        src = tmp_path / "young.csv"
        write_matrix(str(src), pair.primal)
        assert run_cli("analyze", str(src)) == 0
        report = json.loads(capsys.readouterr().out)
        verdict = classify(pair.primal)
        assert report["verdict"] == verdict.kind.value
        assert report["defect"] == verdict.bounds.completeness_defect
        assert report["bounds"]["besselUpper"] == pytest.approx(verdict.bounds.bessel_upper)

    def test_parse_error_names_cell(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1,0\n0,nope\n")
        assert run_cli("analyze", str(src)) == 2
        assert "row 2, column 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("analyze", "does-not-exist.csv") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [Errno 2] No such file or directory: 'does-not-exist.csv'"
        ]


class TestDual:
    def test_weighted_dual(self, tmp_path, capsys):
        src = tmp_path / "w.csv"
        out = tmp_path / "dual.csv"
        write_matrix(str(src), weighted_pair(5).primal)
        assert run_cli("dual", str(src), "-o", str(out)) == 0
        dual = read_matrix(str(out))
        np.testing.assert_allclose(
            dual.columns, np.diag(np.arange(1.0, 6.0)), atol=1e-12
        )
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["biorthogonality"] <= 1e-12
        assert report["dualPath"] == str(out)

    def test_dual_of_dual_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        original = VectorSequence.from_columns(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        first = tmp_path / "f.csv"
        second = tmp_path / "g.csv"
        third = tmp_path / "h.csv"
        write_matrix(str(first), original)
        assert run_cli("dual", str(first), "-o", str(second)) == 0
        assert run_cli("dual", str(second), "-o", str(third)) == 0
        back = read_matrix(str(third))
        assert np.abs(back.columns - original.columns).max() <= 1e-8

    def test_dependent_input_exit_4(self, tmp_path, capsys):
        src = tmp_path / "dep.csv"
        src.write_text("1,2\n0,0\n")
        assert run_cli("dual", str(src), "-o", str(tmp_path / "d.csv")) == 4
        assert "no biorthogonal sequence exists (minimality fails)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dep.csv"]

    def test_ill_conditioned_exit_3(self, tmp_path, capsys):
        src = tmp_path / "ill.csv"
        src.write_text("1,1\n0,1e-10\n")
        assert run_cli("dual", str(src), "-o", str(tmp_path / "d.csv")) == 3

    def test_failed_check_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # A forged Gram route disagrees with the singular values after the
        # dual is accepted: the command exits 3 and writes neither output.
        src = tmp_path / "in.csv"
        write_matrix(str(src), random_riesz(6, seed=2))
        eigenvalues = diagnostics._gram_eigenvalues
        monkeypatch.setattr(diagnostics, "_gram_eigenvalues", lambda seq: 2 * eigenvalues(seq))
        argv = ["dual", str(src), "-o", str(tmp_path / "d.csv"), "--json", str(tmp_path / "d.json")]
        assert run_cli(*argv) == 3
        assert "disagrees with singular values" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_dual_of_256_by_256_allocates_under_7_5_mb(self, tmp_path, capsys):
        # The input array is 1 MiB; the dual's own arrays and one block of
        # written text are held at once, never the dual's whole text.
        src, out = tmp_path / "riesz.csv", tmp_path / "dual.csv"
        write_matrix(str(src), random_riesz(256, seed=3))
        peak, code = traced_peak(lambda: run_cli("dual", str(src), "-o", str(out)))
        assert code == 0
        assert peak < 7.5e6


#: Relative agreement of the bounds of a system and of its real twin.
BOUNDS_RTOL = 1e-8

#: `example` arguments and the systems they name, primal first.
_NAMED_EXAMPLES = [
    (["orthonormal"], lambda: [orthonormal(5)]),
    (["weighted"], lambda: weighted_pair(5)),
    (["alternating"], lambda: alternating_weighted_pair(5)),
    (["young"], lambda: young_example(5)),
    (["youngGeneral", "--complement-dim", "2"], lambda: young_general(5, 5, 2)),
    (["riesz", "--seed", "7"], lambda: [random_riesz(5, seed=7)]),
]


class TestExample:
    def test_young_writes_pair(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("example", "young", "--n", "4") == 0
        primal = read_matrix(str(tmp_path / "young_F.csv"))
        partner = read_matrix(str(tmp_path / "young_G.csv"))
        assert primal.dim == 5 and primal.count == 4
        assert partner.dim == 5 and partner.count == 4

    def test_weighted_values(self, tmp_path):
        prefix = tmp_path / "w"
        assert run_cli("example", "weighted", "--n", "3", "-o", str(prefix)) == 0
        primal = read_matrix(str(tmp_path / "w_F.csv"))
        np.testing.assert_allclose(primal.columns, np.diag([1.0, 0.5, 1.0 / 3.0]))

    def test_orthonormal_single_file(self, tmp_path):
        prefix = tmp_path / "o"
        assert run_cli("example", "orthonormal", "--n", "3", "-o", str(prefix)) == 0
        assert (tmp_path / "o_F.csv").exists()
        assert not (tmp_path / "o_G.csv").exists()

    def test_riesz_seeded_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("example", "riesz", "--n", "8", "--seed", "7", "-o", str(a)) == 0
        assert run_cli("example", "riesz", "--n", "8", "--seed", "7", "-o", str(b)) == 0
        assert (tmp_path / "a_F.csv").read_bytes() == (tmp_path / "b_F.csv").read_bytes()

    def test_unknown_name_rejected(self, capsys):
        assert run_cli("example", "mystery", "--n", "3") == 2

    @pytest.mark.parametrize("argv, build", _NAMED_EXAMPLES, ids=[a[0] for a, _ in _NAMED_EXAMPLES])
    def test_writes_the_named_generator(self, argv, build, tmp_path, capsys):
        assert run_cli("example", *argv, "--n", "5", "-o", str(tmp_path / "x")) == 0
        built = build()
        systems = built if isinstance(built, list) else [built.primal, built.partner]
        files = sorted(tmp_path.iterdir())
        assert [path.name for path in files] == ["x_F.csv", "x_G.csv"][: len(systems)]
        assert [path.read_text() for path in files] == ["".join(matrixio._matrix_chunks(s)) for s in systems]


class TestFamily:
    def test_young_family_report(self, tmp_path):
        out = tmp_path / "fam.json"
        csv_out = tmp_path / "fam.csv"
        code = run_cli(
            "family", "--gen", "young", "--sizes", "8,16,32,64",
            "--json", str(out), "--csv", str(csv_out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fits"]["besselUpperF"]["exponent"] == pytest.approx(1.0, abs=0.02)
        assert report["verdicts"]["besselUpperF"] == "Diverges"
        rows = csv_out.read_text().strip().splitlines()
        assert rows[0].startswith("size,")
        assert len(rows) == 5

    def test_weighted_dual_exponent(self, tmp_path):
        out = tmp_path / "fam.json"
        assert run_cli("family", "--gen", "weighted", "--sizes", "8,16,32,64", "--json", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["fits"]["besselUpperDual"]["exponent"] == pytest.approx(2.0, abs=0.01)

    def test_orthonormal_bounded_verdicts(self, tmp_path):
        out = tmp_path / "fam.json"
        assert run_cli("family", "--gen", "orthonormal", "--sizes", "4,8,16", "--json", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report["verdicts"].values()) <= {"StaysBounded", "StaysBoundedBelow"}

    def test_two_sizes_is_usage_error(self, capsys):
        assert run_cli("family", "--gen", "young", "--sizes", "8,16") == 2

    @pytest.mark.parametrize(
        "generator, argv, line",
        [
            ("young_general",
             ["--gen", "youngGeneral", "--complement-dim", "3", "--sizes", "2,3,1200"],
             "error: size 2: ambient dimension must exceed the complement dimension"),
            ("_gabor_twin",
             ["--gen", "gaborPunctured", "--sizes", "1,2,3", "--probe-index", "192"],
             "error: size 1: probe index 192 outside ambient dimension 192"),
        ],
        ids=["young-size-rule", "probe-index"],
    )
    def test_size_preconditions_fail_before_any_member_is_built(
        self, generator, argv, line, monkeypatch, capsys
    ):
        built = []
        monkeypatch.setattr(f"rieszlab.generators.{generator}", lambda *args: built.append(args))
        assert run_cli("family", *argv) == 2
        assert built == []
        assert capsys.readouterr().err == line + "\n"

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(
                "family", "--gen", "riesz", "--sizes", "4,6,8", "--seed", "3",
                "--json", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGabor:
    def test_punctured_bounds(self, tmp_path):
        out = tmp_path / "g.json"
        code = run_cli(
            "gabor", "--set", "punctured", "--max-index", "2",
            "--half-width", "6", "--samples", "16", "--json", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["nodes"] == 24
        assert report["bounds"]["besselUpper"] > report["bounds"]["rieszLower"] > 0

    def test_als_column_count(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("gabor", "--set", "als", "--nmax", "1", "--json", str(out)) == 0
        assert json.loads(out.read_text())["nodes"] == 6

    def test_single_node_from_file(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0\n")
        assert run_cli("gabor", "--set", "file", "--nodes", str(nodes)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["rieszLower"] == pytest.approx(2.0**-0.5, abs=1e-5)
        assert report["bounds"]["besselUpper"] == pytest.approx(2.0**-0.5, abs=1e-5)

    def test_truncation_exit_5(self, tmp_path, capsys):
        code = run_cli("gabor", "--set", "lattice", "--a", "5", "--b", "1", "--max-index", "1")
        assert code == 5
        assert "safe window" in capsys.readouterr().err

    def test_refinement_and_dump(self, tmp_path):
        out = tmp_path / "g.json"
        dump = tmp_path / "system.csv"
        code = run_cli(
            "gabor", "--set", "punctured", "--max-index", "2", "--refine", "12,32",
            "--dump-matrix", str(dump), "--json", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        rates = [row["size"] for row in report["refinement"]["perSize"]]
        assert rates == [12, 16, 32]
        system = read_matrix(str(dump))
        assert system.count == 24

    @pytest.mark.parametrize(
        "flags, points",
        [
            (["--set", "lattice", "--b", "0.75"], generators.lattice_points(1.0, 0.75, 2)),
            (["--set", "punctured", "--max-index", "2"], generators.punctured_lattice(2)),
            (["--set", "als", "--nmax", "2"], generators.als_point_set(2)),
            (["--set", "file"], generators.PointSet2D(
                ((-0.0, 1.25), (0.5, 0.0), (0.0, -1.25), (-1.5, 0.5), (-1.5, -0.5)))),
            (["--set", "file"], generators.PointSet2D(((0.0, 0.0), (1.0, 0.5), (-1.0, 1.5)))),
        ],
        ids=["lattice", "punctured", "als", "file-closed", "file-unpaired"],
    )
    def test_bounds_and_dump_are_those_of_the_complex_system(self, flags, points, tmp_path):
        # Each rate reads the real twin built from the nodes where they pair
        # up: its bounds and defect are those of the twin gathered from the
        # complex system, bit for bit, and the complex system's own within
        # the two-route tolerance.  The dumped matrix is the complex system's file.
        if flags[-1] == "file":
            matrixio.write_point_set(str(tmp_path / "nodes.csv"), points)
            flags = flags + ["--nodes", str(tmp_path / "nodes.csv")]
        out, dump, reference = (tmp_path / name for name in ("g.json", "g.csv", "ref.csv"))
        code = run_cli("gabor", *flags, "--refine", "12,24", "--dump-matrix", str(dump),
                       "--json", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        rows = {row["size"]: row for row in report["refinement"]["perSize"]}
        paired = (points._split[-1] >= 0).all()
        for rate in (12, 16, 24):
            system = generators.gaussian_gabor(points, generators.GaborDiscretization(6.0, rate))
            twin = oracles.gathered_real_twin(system.columns)
            assert (twin is not None) == paired
            lower, upper = diagnostics.riesz_bounds(system)
            got = (rows[rate]["rieszLowerF"], rows[rate]["besselUpperF"])
            np.testing.assert_allclose(got, (lower, upper), rtol=BOUNDS_RTOL)
            if twin is not None:
                lower, upper = diagnostics.riesz_bounds(VectorSequence.from_columns(twin))
            assert got == (lower, upper)
            if rate == 16:
                assert report["bounds"] == {"rieszLower": lower, "besselUpper": upper}
                assert report["defect"] == diagnostics.completeness_defect(system)
                write_matrix(str(reference), system)
        assert dump.read_bytes() == reference.read_bytes()


def test_writers_create_files_with_the_umask_mode(tmp_path, monkeypatch, capsys):
    # A new file gets 0o666 under the umask, as open(path, "w") would give it.
    monkeypatch.chdir(tmp_path)
    umask = os.umask(0o022)
    try:
        assert run_cli("example", "weighted", "--n", "4", "-o", "w") == 0
        assert run_cli("analyze", "w_F.csv", "--json", "a.json") == 0
        assert run_cli("dual", "w_F.csv", "-o", "d.csv", "--json", "d.json") == 0
        assert run_cli("family", "--gen", "weighted", "--sizes", "4,8,16", "--csv", "f.csv") == 0
    finally:
        os.umask(umask)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    names = ["a.json", "d.csv", "d.json", "f.csv", "w_F.csv", "w_G.csv"]
    assert modes == dict.fromkeys(names, 0o644)


class TestUsage:
    @pytest.mark.parametrize("command", ["analyze", "dual"])
    def test_oversize_file_refused_before_any_cell_is_converted(
        self, command, monkeypatch, tmp_path, capsys
    ):
        # 8193 rows break the 1 GiB rule by their count alone; the bad cell in
        # the first row shows that the size rule wins over a parse error.
        src = tmp_path / "tall.csv"
        src.write_text("oops\n" + "1\n" * 8192)
        converted, parsed = [], []
        monkeypatch.setattr(matrixio, "_ascii_form", converted.append)
        monkeypatch.setattr(matrixio, "_parse_cells", lambda *args: parsed.append(args))
        extra = ["-o", str(tmp_path / "d.csv")] if command == "dual" else []
        assert run_cli(command, str(src), *extra) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "8193x8193 complex array" in line and "byte limit" in line
        assert converted == [] and parsed == []

    def test_no_arguments(self):
        assert run_cli() == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag_rejected(self, tmp_path):
        src = tmp_path / "id.csv"
        write_identity(src)
        assert run_cli("analyze", str(src), "--frobnicate") == 2

    def test_console_entry_point(self, tmp_path):
        src = tmp_path / "id.csv"
        write_identity(src)
        proc = subprocess.run(
            [sys.executable, "-m", "rieszlab", "analyze", str(src)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "RieszBasis"


#: The help texts at 80 columns, as argparse formats them on Python 3.11.
HELP_TEXTS = {
    (): """\
usage: rieszlab [-h] {analyze,dual,example,family,gabor} ...

Diagnostics for finite vector systems: two-sided bounds, duals, named
examples, Gabor systems and scaling studies.

positional arguments:
  {analyze,dual,example,family,gabor}
    analyze             classify a matrix file and report its bounds
    dual                write the minimal biorthogonal dual of a matrix file
    example             write a named example system to CSV
    family              run a truncation-scaling study
    gabor               build a Gaussian Gabor system and report bounds

options:
  -h, --help            show this help message and exit
""",
    ("family",): """\
usage: rieszlab family [-h] --gen GEN --sizes SIZES [--seed SEED]
                       [--probe-index PROBE_INDEX]
                       [--complement-dim COMPLEMENT_DIM]
                       [--half-width HALF_WIDTH] [--samples SAMPLES]
                       [--json PATH] [--csv PATH]

options:
  -h, --help            show this help message and exit
  --gen GEN             generator name (young, weighted, ...)
  --sizes SIZES         comma-separated, strictly increasing
  --seed SEED
  --probe-index PROBE_INDEX
  --complement-dim COMPLEMENT_DIM
  --half-width HALF_WIDTH
  --samples SAMPLES
  --json PATH
  --csv PATH            per-size metrics as flat CSV
""",
    ("example",): """\
usage: rieszlab example [-h] --n N [--seed SEED]
                        [--complement-dim COMPLEMENT_DIM] [--out PREFIX]
                        {orthonormal,weighted,alternating,young,youngGeneral,riesz}

positional arguments:
  {orthonormal,weighted,alternating,young,youngGeneral,riesz}

options:
  -h, --help            show this help message and exit
  --n N                 size parameter of the construction
  --seed SEED
  --complement-dim COMPLEMENT_DIM
  --out PREFIX, -o PREFIX
                        output prefix (default: the name)
""",
    ("gabor",): """\
usage: rieszlab gabor [-h] --set {lattice,punctured,als,file}
                      [--max-index MAX_INDEX] [--nmax NMAX] [--a A] [--b B]
                      [--nodes PATH] [--half-width HALF_WIDTH]
                      [--samples SAMPLES] [--refine RATES]
                      [--dump-matrix PATH] [--json PATH]

options:
  -h, --help            show this help message and exit
  --set {lattice,punctured,als,file}
  --max-index MAX_INDEX
  --nmax NMAX
  --a A
  --b B
  --nodes PATH          point-set CSV for --set file
  --half-width HALF_WIDTH
  --samples SAMPLES
  --refine RATES        extra sampling rates, e.g. 12,32
  --dump-matrix PATH
  --json PATH
""",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout of Python 3.11")
@pytest.mark.parametrize("command", list(HELP_TEXTS), ids=lambda c: " ".join(c) or "rieszlab")
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*command, "--help") == 0
    assert capsys.readouterr() == (HELP_TEXTS[command], "")


def test_unknown_generator_lists_the_ids(capsys):
    assert run_cli("family", "--gen", "nope", "--sizes", "1,2,3") == 2
    assert capsys.readouterr() == ("", (
        "error: unknown generator 'nope'; expected one of ('orthonormal', 'weightedPair', "
        "'alternatingWeightedPair', 'youngExample', 'youngGeneral', 'rieszSeeded', "
        "'gaborPunctured', 'gaborALS', 'gaborFullLattice')\n"
    ))


def test_a_family_is_one_table_record(tmp_path, monkeypatch, capsys):
    # The pair (2 e_k), (e_k / 2): one record, and nothing else, makes it a
    # `family` generator under its id and its alias, and an `example` name.
    def build(n, params):
        return generators.GeneratedPair(
            *(VectorSequence.from_columns(scale * np.eye(n)) for scale in (2.0, 0.5))
        )

    monkeypatch.setitem(scaling._FAMILIES, "doubled", scaling._Family("twice", build))
    monkeypatch.setattr(cli, "_parser", build_parser)
    for gen in ("doubled", "twice"):
        assert run_cli("family", "--gen", gen, "--sizes", "2,3,4") == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["input"] == "family:doubled sizes=2,3,4 probeIndex=0"
        assert [row["size"] for row in report["perSize"]] == [2, 3, 4]
        for row in report["perSize"]:
            assert row["rieszLowerF"] == pytest.approx(4.0)
            assert row["besselUpperDual"] == pytest.approx(0.25)
            assert row["dualityResidual"] == pytest.approx(0.0, abs=1e-12)
    assert run_cli("example", "twice", "--n", "3", "-o", str(tmp_path / "t")) == 0
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / f"t_{s}.csv") for s in "FG"]
    for side, scale in (("F", 2.0), ("G", 0.5)):
        np.testing.assert_array_equal(read_matrix(str(tmp_path / f"t_{side}.csv")).columns,
                                      scale * np.eye(3))


#: One command of each report kind; {dir} holds basis.csv, a 3x3 basis.
REPORT_COMMANDS = {
    "analyze": ["analyze", "{dir}/basis.csv"],
    "dual": ["dual", "{dir}/basis.csv", "-o", "{dir}/d.csv"],
    "family": ["family", "--gen", "weighted", "--sizes", "2,3,4"],
    "gabor": ["gabor", "--set", "lattice", "--max-index", "1"],
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "json"])
@pytest.mark.parametrize("argv", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS.keys())
def test_every_report_carries_the_schema_version_and_the_tolerances(argv, to_file, tmp_path,
                                                                    capsys):
    write_identity(tmp_path / "basis.csv")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if to_file:
        argv += ["--json", str(tmp_path / "report.json")]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text() if to_file else out)
    assert report["schemaVersion"] == 1
    assert report["tolerances"] == {
        "rankToleranceScale": seqcore.RANK_TOL_SCALE,
        "twoRouteRelative": 1e-8,
        "biorthogonality": duals.BIORTHOGONALITY_TOL,
        "errorBarFactor": seqcore.ERROR_BAR_FACTOR,
    }


# One row per failure mode of the documented exit codes 0/2/3/4/5, beside the
# cases the classes above already cover.  {dir} is the test's directory, which
# holds basis.csv (a 3x3 basis), ill.csv, wide.csv, far.csv, utf16.csv (not
# UTF-8), big.csv, small.csv and smaller.csv (a 6x6 basis scaled by 1e160,
# 1e-160 and 1e-170), row8192.csv (1x8192), row8193.csv (1x8193),
# column8193.csv (8193x1), nodes8193.csv (8193 nodes), overflow_nodes.csv (a
# coordinate "1e400" in row 2), huge_mu_nodes.csv (a node (0, 1e308)) and
# outdir/.  The size-guard rows use sizes
# that are refused before anything large is allocated.  row8192.csv is
# estimated at exactly the limit, 8192^2 complex entries, and is accepted: its
# Gram route eigensolves a 1x1 product.
EXIT_CODE_TABLE = [
    ("family-json-written",
     ["family", "--gen", "weighted", "--sizes", "4,8,16", "--json", "{dir}/f.json"], 0, None),
    ("analyze-json-is-directory",
     ["analyze", "{dir}/basis.csv", "--json", "{dir}/outdir"], 2, "outdir"),
    ("analyze-json-missing-directory",
     ["analyze", "{dir}/basis.csv", "--json", "{dir}/missing/r.json"], 2, "missing/r.json"),
    ("analyze-input-is-directory", ["analyze", "{dir}/outdir"], 2, "outdir"),
    ("analyze-input-not-utf8", ["analyze", "{dir}/utf16.csv"], 2, "utf16.csv"),
    ("gabor-nodes-not-utf8", ["gabor", "--set", "file", "--nodes", "{dir}/utf16.csv"], 2,
     "utf16.csv"),
    ("dual-out-is-directory", ["dual", "{dir}/basis.csv", "-o", "{dir}/outdir"], 2, "outdir"),
    ("dual-json-is-directory",
     ["dual", "{dir}/basis.csv", "-o", "{dir}/d.csv", "--json", "{dir}/outdir"], 2, "outdir"),
    ("family-json-is-directory",
     ["family", "--gen", "weighted", "--sizes", "4,8,16", "--json", "{dir}/outdir"], 2, "outdir"),
    ("family-csv-is-directory",
     ["family", "--gen", "weighted", "--sizes", "4,8,16", "--json", "{dir}/f.json",
      "--csv", "{dir}/outdir"], 2, "outdir"),
    ("family-csv-is-directory-no-json",
     ["family", "--gen", "weighted", "--sizes", "4,8,16", "--csv", "{dir}/outdir"], 2, "outdir"),
    ("gabor-samples-zero", ["gabor", "--set", "lattice", "--samples", "0"], 2,
     "samples_per_unit must be a positive integer"),
    ("gabor-refine-rate-zero", ["gabor", "--set", "lattice", "--refine", "0,8"], 2,
     "at 0 samples per unit"),
    ("gabor-half-width-off-grid", ["gabor", "--set", "lattice", "--half-width", "6.3"], 2,
     "whole number of samples"),
    ("family-gabor-half-width-off-grid",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3", "--half-width", "6.3"], 2,
     "--half-width 6.3"),
    ("gabor-half-width-overflow", ["gabor", "--set", "lattice", "--half-width", "1e308"], 2,
     "--half-width"),
    ("family-gabor-half-width-overflow",
     ["family", "--gen", "gaborALS", "--sizes", "1,2,3", "--half-width", "1e308",
      "--samples", "1"], 2, "--half-width"),
    ("gabor-half-width-no-sample", ["gabor", "--set", "lattice", "--half-width", "1e-12"], 2,
     "--half-width"),
    ("family-gabor-half-width-no-sample",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3", "--half-width", "1e-12"], 2,
     "--half-width"),
    ("example-n-oversize", ["example", "riesz", "--n", "100000", "-o", "{dir}/r"], 2,
     "100000x100000 complex array"),
    ("example-complement-dim-oversize",
     ["example", "youngGeneral", "--n", "4", "--complement-dim", "100000000", "-o", "{dir}/y"],
     2, "100000004x4 complex array"),
    ("family-sizes-oversize", ["family", "--gen", "riesz", "--sizes", "8,16,100000"], 2,
     "100000x100000 complex array"),
    ("family-gabor-sizes-oversize",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,100000"], 2, "byte limit"),
    ("gabor-samples-oversize", ["gabor", "--set", "punctured", "--samples", "1000000000"], 2,
     "12000000000x24 complex array"),
    ("gabor-refine-oversize", ["gabor", "--set", "lattice", "--refine", "8,1000000000"], 2,
     "12000000000x25 complex array"),
    ("gabor-half-width-oversize", ["gabor", "--set", "lattice", "--half-width", "1e9"], 2,
     "32000000000x25 complex array"),
    ("gabor-max-index-oversize", ["gabor", "--set", "lattice", "--max-index", "100000"], 2,
     "byte limit"),
    ("gabor-nmax-oversize", ["gabor", "--set", "als", "--nmax", "1000000000000"], 2,
     "byte limit"),
    # A rate beyond the float range once overflowed the window's sample count.
    ("gabor-samples-beyond-float", ["gabor", "--set", "lattice", "--samples", "1" + "0" * 400],
     2, "finite, nonzero number of samples"),
    ("family-gabor-samples-beyond-float",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3", "--samples", "1" + "0" * 400], 2,
     "finite, nonzero number of samples"),
    ("gabor-max-index-zero", ["gabor", "--set", "punctured", "--max-index", "0"], 2,
     "max_index must be >= 1"),
    ("gabor-nmax-zero", ["gabor", "--set", "als", "--nmax", "0"], 2, "n_max must be >= 1"),
    ("gabor-lattice-step-zero", ["gabor", "--set", "lattice", "--a", "0"], 2,
     "lattice steps must be positive"),
    ("family-probe-index-outside",
     ["family", "--gen", "orthonormal", "--sizes", "4,8,16", "--probe-index", "99"], 2,
     "probe index 99"),
    ("family-seed-negative", ["family", "--gen", "riesz", "--sizes", "4,8,16", "--seed", "-1"],
     2, "seed must be a non-negative integer, got -1"),
    ("example-seed-negative", ["example", "riesz", "--n", "4", "--seed", "-1", "-o", "{dir}/r"],
     2, "non-negative"),
    ("family-young-size-one", ["family", "--gen", "young", "--sizes", "1,2,3"], 2, "size 1"),
    ("family-young-general-size-within-complement",
     ["family", "--gen", "youngGeneral", "--sizes", "2,3,4", "--complement-dim", "3"], 2,
     "exceed the complement dimension"),
    ("analyze-row-file-at-limit", ["analyze", "{dir}/row8192.csv"], 0, None),
    ("dual-row-file-at-limit", ["dual", "{dir}/row8192.csv", "-o", "{dir}/d.csv"], 4,
     "no biorthogonal sequence exists"),
    ("analyze-row-file-oversize", ["analyze", "{dir}/row8193.csv"], 2, "byte limit"),
    ("dual-row-file-oversize", ["dual", "{dir}/row8193.csv", "-o", "{dir}/d.csv"], 2,
     "byte limit"),
    ("analyze-column-file-oversize", ["analyze", "{dir}/column8193.csv"], 2, "byte limit"),
    ("dual-column-file-oversize", ["dual", "{dir}/column8193.csv", "-o", "{dir}/d.csv"], 2,
     "byte limit"),
    ("gabor-node-file-oversize", ["gabor", "--set", "file", "--nodes", "{dir}/nodes8193.csv"],
     2, "byte limit"),
    ("gabor-node-overflow", ["gabor", "--set", "file", "--nodes", "{dir}/overflow_nodes.csv"],
     2, "overflow_nodes.csv: row 2, column 1: non-finite cell '1e400'"),
    # A rate that does not exceed 2 (max |mu| + 2), at the base rate, a --refine
    # rate or a family size, is refused before any system is built: the columns
    # alias.  A modulation whose phase 2 pi mu x would overflow is far beyond
    # every rate, so it is refused by this rule first.
    ("gabor-lattice-aliases",
     ["gabor", "--set", "lattice", "--b", "8", "--max-index", "1"], 2,
     "error: 16 samples per unit do not exceed 2 (max |mu| + 2) = 20.0 at max |mu| 8.0: "
     "the columns alias"),
    ("gabor-far-modulation-aliases",
     ["gabor", "--set", "lattice", "--b", "1e5", "--max-index", "1"], 2,
     "error: 16 samples per unit do not exceed 2 (max |mu| + 2) = 200004.0 at max |mu| "
     "100000.0: the columns alias"),
    ("gabor-refine-rate-at-the-bound", ["gabor", "--set", "punctured", "--refine", "8,24"], 2,
     "error: 8 samples per unit do not exceed 2 (max |mu| + 2) = 8.0 at max |mu| 2.0: "
     "the columns alias"),
    ("gabor-refine-rate-above-the-bound", ["gabor", "--set", "punctured", "--refine", "9,24"],
     0, None),
    ("gabor-overflowing-modulation-aliases",
     ["gabor", "--set", "lattice", "--b", "1e308", "--max-index", "1"], 2,
     "error: 16 samples per unit do not exceed 2 (max |mu| + 2) = inf at max |mu| 1e+308: "
     "the columns alias"),
    ("gabor-file-modulation-aliases",
     ["gabor", "--set", "file", "--nodes", "{dir}/huge_mu_nodes.csv"], 2,
     "error: 16 samples per unit do not exceed 2 (max |mu| + 2) = inf at max |mu| 1e+308: "
     "the columns alias"),
    ("family-gabor-aliases",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3", "--samples", "2"], 2,
     "error: size 1: 2 samples per unit do not exceed 2 (max |mu| + 2) = 6.0 at max |mu| "
     "1.0: the columns alias"),
    ("family-gabor-grid-oversize",
     ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3", "--samples", "700"], 2,
     "byte limit"),
    ("dual-residual-contract", ["dual", "{dir}/ill.csv", "-o", "{dir}/d.csv"], 3,
     "too ill-conditioned"),
    ("analyze-scale-overflow", ["analyze", "{dir}/big.csv"], 3, "out of range"),
    ("dual-scale-overflow", ["dual", "{dir}/big.csv", "-o", "{dir}/d.csv"], 3, "out of range"),
    ("dual-scale-underflow", ["dual", "{dir}/small.csv", "-o", "{dir}/d.csv"], 3,
     "out of range"),
    ("analyze-scale-underflow", ["analyze", "{dir}/smaller.csv"], 3, "out of range"),
    ("dual-wide-system", ["dual", "{dir}/wide.csv", "-o", "{dir}/d.csv"], 4,
     "no biorthogonal sequence exists"),
    ("gabor-file-node-outside-window", ["gabor", "--set", "file", "--nodes", "{dir}/far.csv"],
     5, "safe window"),
    # An estimate beyond the float range once raised OverflowError as it was formatted.
    ("example-n-beyond-float", ["example", "riesz", "--n", "1" + "0" * 160, "-o", "{dir}/r"], 2,
     "complex array (1.6e+321 bytes), over the 1073741824-byte limit"),
    ("family-sizes-beyond-float", ["family", "--gen", "weighted", "--sizes", "1,2,1" + "0" * 160],
     2, "complex array (1.6e+321 bytes), over the 1073741824-byte limit"),
    ("family-gabor-half-width-beyond-float",
     ["family", "--gen", "gaborFullLattice", "--sizes", "1,2,3", "--half-width", "1e300"], 2,
     "complex array (1.64e+604 bytes), over the 1073741824-byte limit"),
    ("gabor-max-index-beyond-float",
     ["gabor", "--set", "lattice", "--half-width", "1e300", "--max-index", "9" * 20], 2,
     "complex array (2.05e+343 bytes), over the 1073741824-byte limit"),
]


@pytest.mark.parametrize(
    "argv, code, message",
    [row[1:] for row in EXIT_CODE_TABLE],
    ids=[row[0] for row in EXIT_CODE_TABLE],
)
def test_exit_codes(argv, code, message, tmp_path, capsys):
    write_identity(tmp_path / "basis.csv")
    (tmp_path / "ill.csv").write_text("1,1\n0,1e-7\n")
    (tmp_path / "wide.csv").write_text("1,0,1\n0,1,1\n")
    (tmp_path / "far.csv").write_text("0,0\n9,0\n")
    (tmp_path / "utf16.csv").write_bytes("1,0\n0,1\n".encode("utf-16"))
    (tmp_path / "row8192.csv").write_text(",".join(["1"] * 8192) + "\n")
    (tmp_path / "row8193.csv").write_text(",".join(["1"] * 8193) + "\n")
    (tmp_path / "column8193.csv").write_text("1\n" * 8193)
    (tmp_path / "nodes8193.csv").write_text("".join(f"{i},0\n" for i in range(8193)))
    (tmp_path / "overflow_nodes.csv").write_text("0,0\n1e400,1\n")
    (tmp_path / "huge_mu_nodes.csv").write_text("0,0\n0,1e308\n")
    basis = random_riesz(6, seed=3).columns
    for name, scale in (("big", 1e160), ("small", 1e-160), ("smaller", 1e-170)):
        write_matrix(str(tmp_path / f"{name}.csv"), VectorSequence.from_columns(scale * basis))
    (tmp_path / "outdir").mkdir()
    before = set(tmp_path.rglob("*"))
    assert run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
    else:
        # A failed command leaves no report, on stdout or in its --json file.
        assert out == "" and not (tmp_path / "f.json").exists()
        [line] = err.splitlines()
        assert line.startswith("error: ") and message in line
    assert not list(tmp_path.rglob("*.tmp"))
    assert not any((tmp_path / "outdir").iterdir())
    if code not in (0, 2):
        assert set(tmp_path.rglob("*")) == before


#: The rows of EXIT_CODE_TABLE whose sampling rate aliases: each is refused
#: before any system is built, so no factor table of a Gabor build is made.
_ALIASING_ROWS = [{row[0]: row for row in EXIT_CODE_TABLE}[name] for name in (
    "gabor-lattice-aliases", "gabor-far-modulation-aliases", "gabor-refine-rate-at-the-bound",
    "gabor-overflowing-modulation-aliases", "gabor-file-modulation-aliases", "family-gabor-aliases",
)]


@pytest.mark.parametrize("argv, code, message", [row[1:] for row in _ALIASING_ROWS],
                         ids=[row[0] for row in _ALIASING_ROWS])
def test_an_aliasing_rate_builds_no_system(argv, code, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "huge_mu_nodes.csv").write_text("0,0\n0,1e308\n")
    built = []
    monkeypatch.setattr(generators, "_gabor_tables", lambda *args: built.append(args))
    assert run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == code == 2
    assert message in capsys.readouterr().err
    assert built == []


# Usage errors pinned by their whole stderr line.  {dir} holds letter.csv, a
# node file whose second line is "x,1", underscore.csv, whose first line is
# "1_0,0", which float() would read as (10, 0), comment.csv, a node file
# with only a comment line, and basis.csv, the 2 x 2 identity, which is also a
# node file of two nodes.
EXIT_LINE_TABLE = [
    ("family-sizes-not-integers", ["family", "--gen", "weighted", "--sizes", "1,x,3"],
     "--sizes expects a comma-separated integer list: "
     "invalid literal for int() with base 10: 'x'"),
    ("family-sizes-empty", ["family", "--gen", "weighted", "--sizes", ","],
     "--sizes expects a comma-separated integer list"),
    ("gabor-refine-empty", ["gabor", "--set", "lattice", "--refine", ","],
     "--refine expects a comma-separated integer list"),
    # An empty item is refused, not dropped, as an empty CSV cell is.
    ("family-sizes-empty-item", ["family", "--gen", "weighted", "--sizes", "4,,8,16"],
     "--sizes expects a comma-separated integer list"),
    ("gabor-refine-empty-items", ["gabor", "--set", "lattice", "--refine", ",24,"],
     "--refine expects a comma-separated integer list"),
    ("gabor-file-without-nodes", ["gabor", "--set", "file"], "--set file requires --nodes PATH"),
    # A point-set flag that the chosen set does not read is refused, not ignored.
    ("gabor-punctured-reads-no-a", ["gabor", "--set", "punctured", "--a", "3"],
     "--set punctured does not read ['a']"),
    ("gabor-als-reads-no-max-index", ["gabor", "--set", "als", "--max-index", "40"],
     "--set als does not read ['maxIndex']"),
    ("gabor-lattice-reads-no-nodes", ["gabor", "--set", "lattice", "--nodes", "{dir}/letter.csv"],
     "--set lattice does not read ['nodes']"),
    ("gabor-file-reads-no-nmax",
     ["gabor", "--set", "file", "--nodes", "{dir}/letter.csv", "--nmax", "2"],
     "--set file does not read ['nmax']"),
    # An unread flag is refused before a grid that the flags cannot form.
    ("gabor-unread-flag-before-bad-grid", ["gabor", "--set", "punctured", "--a", "3", "--samples", "0"],
     "--set punctured does not read ['a']"),
    # A family or example flag that the family does not read is refused, not ignored.
    ("family-weighted-reads-no-seed",
     ["family", "--gen", "weighted", "--sizes", "4,8,16", "--seed", "5", "--half-width", "-1",
      "--complement-dim", "9", "--json", "{dir}/f.json"],
     "weightedPair does not read ['complementDim', 'halfWidth', 'seed']"),
    ("family-riesz-reads-no-complement-dim",
     ["family", "--gen", "riesz", "--sizes", "8,12,16", "--complement-dim", "5", "--samples", "3",
      "--csv", "{dir}/f.csv"],
     "rieszSeeded does not read ['complementDim', 'samplesPerUnit']"),
    ("family-gabor-reads-no-seed", ["family", "--gen", "gaborPunctured", "--sizes", "1,2,3",
                                    "--seed", "4"], "gaborPunctured does not read ['seed']"),
    ("example-weighted-reads-no-seed",
     ["example", "weighted", "--n", "4", "--seed", "9", "--complement-dim", "3", "-o", "{dir}/w"],
     "weightedPair does not read ['complementDim', 'seed']"),
    ("example-weighted-reads-no-seed-writes-nothing",
     ["example", "weighted", "--n", "4", "--seed", "9", "-o", "{dir}/PREFIX"],
     "weightedPair does not read ['seed']"),
    ("example-riesz-reads-no-complement-dim",
     ["example", "riesz", "--n", "4", "--complement-dim", "2", "-o", "{dir}/r"],
     "rieszSeeded does not read ['complementDim']"),
    ("gabor-node-not-a-number", ["gabor", "--set", "file", "--nodes", "{dir}/letter.csv"],
     "{dir}/letter.csv: row 2, column 1: invalid complex cell 'x'"),
    ("gabor-node-underscore", ["gabor", "--set", "file", "--nodes", "{dir}/underscore.csv"],
     "{dir}/underscore.csv: row 1, column 1: invalid complex cell '1_0'"),
    ("gabor-no-nodes", ["gabor", "--set", "file", "--nodes", "{dir}/comment.csv"],
     "{dir}/comment.csv: no nodes found"),
    # A negative seed is refused by name, not by the generator's message.
    ("family-seed-negative-named", ["family", "--gen", "riesz", "--sizes", "2,3,4", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    ("example-seed-negative-named", ["example", "riesz", "--n", "3", "--seed", "-5", "-o", "{dir}/r"],
     "seed must be a non-negative integer, got -5"),
    # An output path that names an input's or another output's file is refused
    # before anything is read or written, naming both flags.
    ("analyze-json-overwrites-input", ["analyze", "{dir}/basis.csv", "--json", "{dir}/basis.csv"],
     "input and --json name the same file {dir}/basis.csv"),
    ("dual-out-overwrites-input", ["dual", "{dir}/basis.csv", "-o", "{dir}/basis.csv"],
     "input and --out name the same file {dir}/basis.csv"),
    ("dual-json-overwrites-out",
     ["dual", "{dir}/basis.csv", "-o", "{dir}/d.csv", "--json", "{dir}/./d.csv"],
     "--out and --json name the same file {dir}/./d.csv"),
    ("family-json-overwrites-csv",
     ["family", "--gen", "riesz", "--sizes", "4,8,16", "--csv", "{dir}/p", "--json", "{dir}/p"],
     "--csv and --json name the same file {dir}/p"),
    ("gabor-dump-overwrites-nodes",
     ["gabor", "--set", "file", "--nodes", "{dir}/basis.csv", "--dump-matrix", "{dir}/basis.csv"],
     "--nodes and --dump-matrix name the same file {dir}/basis.csv"),
    ("gabor-json-overwrites-dump",
     ["gabor", "--set", "lattice", "--dump-matrix", "{dir}/p", "--json", "{dir}/p"],
     "--dump-matrix and --json name the same file {dir}/p"),
]


@pytest.mark.parametrize(
    "argv, message",
    [row[1:] for row in EXIT_LINE_TABLE],
    ids=[row[0] for row in EXIT_LINE_TABLE],
)
def test_usage_error_lines(argv, message, tmp_path, capsys):
    (tmp_path / "letter.csv").write_text("0,0\nx,1\n")
    (tmp_path / "underscore.csv").write_text("1_0,0\n0,1\n")
    (tmp_path / "comment.csv").write_text("# tau,mu\n")
    (tmp_path / "basis.csv").write_text("1,0\n0,1\n")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    assert run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.replace('{dir}', str(tmp_path))}\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


def test_an_output_is_told_apart_by_its_directory_entry(tmp_path, capsys):
    # An output replaces the entry it names: a symlink named by --out is
    # replaced and its target kept.  An input is read through its links, so
    # an output naming the input's target is refused.
    basis = tmp_path / "basis.csv"
    write_identity(basis, 2)
    link = tmp_path / "link.csv"
    link.symlink_to(basis.name)
    original = basis.read_bytes()
    assert run_cli("dual", str(link), "-o", str(basis)) == 2
    assert capsys.readouterr().err == f"error: input and --out name the same file {basis}\n"
    assert run_cli("dual", str(basis), "-o", str(link)) == 0
    assert not link.is_symlink() and basis.read_bytes() == original


def test_analyze_reports_a_refused_dual_as_null_residuals(tmp_path, capsys):
    # Q1 diag(1 .. 1e-10) Q2: a Riesz basis whose minimal dual misses the
    # 1e-8 biorthogonality contract, so analyze reports it without residuals.
    q1 = np.linalg.qr(oracles.random_columns(0, 12, 12))[0]
    q2 = np.linalg.qr(oracles.random_columns(1, 12, 12))[0]
    seq = VectorSequence.from_columns(q1 @ np.diag(np.geomspace(1.0, 1e-10, 12)) @ q2)
    assert seq.columns.dtype == np.complex128
    with pytest.raises(IllConditionedError, match="biorthogonality residual"):
        minimal_dual(seq)
    path = tmp_path / "ill.csv"
    write_matrix(str(path), seq)
    assert run_cli("analyze", str(path)) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == ""
    assert report["verdict"] == "RieszBasis"
    assert report["residuals"] == {"biorthogonality": None, "dualityIdentity": None}
    assert report["gramSpectrum"]["bijective"] is False


#: Each command with a step that raises MemoryError in its place: for `dual`,
#: the writer's formatting, once the output's temp file is open.
_OUT_OF_MEMORY = [
    (["analyze", "{dir}/basis.csv"], diagnostics, "classify"),
    (["dual", "{dir}/basis.csv", "-o", "{dir}/dual.csv"], matrixio, "_block_text"),
    (["example", "riesz", "--n", "4", "-o", "{dir}/riesz"], generators, "random_riesz"),
    (["family", "--gen", "riesz", "--sizes", "4,8,16"], scaling, "run_family"),
    (["gabor", "--set", "lattice"], generators, "_gabor_twin"),
]


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
@pytest.mark.parametrize("argv, module, name", _OUT_OF_MEMORY,
                         ids=[argv[0] for argv, _, _ in _OUT_OF_MEMORY])
def test_out_of_memory_exits_2_with_one_line(argv, module, name, message, tmp_path, capsys,
                                             monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    write_identity(tmp_path / "basis.csv")
    monkeypatch.setattr(module, name, out_of_memory)
    assert run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["basis.csv"]


def test_oversize_node_file_is_refused_before_any_conversion(tmp_path, capsys, monkeypatch):
    # 8193 node lines, beside a comment and a blank line, are estimated at
    # 8193^2 complex entries; not one cell is converted, so even the bad
    # first node line and the duplicate nodes go unread.
    path = tmp_path / "nodes.csv"
    path.write_text("# tau,mu\n\nnot,numbers\n" + "0,0\n" * 8192)

    def refuse(*args):
        raise AssertionError("a cell was converted or the point set built")

    monkeypatch.setattr(matrixio, "PointSet2D", refuse)
    monkeypatch.setattr(matrixio, "float", refuse, raising=False)
    assert run_cli("gabor", "--set", "file", "--nodes", str(path)) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "8193x8193 complex array" in line and "byte limit" in line


def test_family_size_guard_at_its_exact_limit(monkeypatch, capsys):
    # The guard reads the largest member's shape, here (grid, nodes): a grid of
    # 2 X s = 8192 samples is estimated at exactly the limit, 8192^2 complex
    # entries, and accepted; one of 8193 is refused before any member is built.
    built = []
    build = scaling._build_member
    monkeypatch.setattr(scaling, "_build_member", lambda *args: built.append(args[1]) or build(*args))
    argv = ("family", "--gen", "gaborFullLattice", "--sizes", "1,2,3", "--samples", "32")
    assert run_cli(*argv, "--half-width", "128") == 0
    assert built == [1, 2, 3]
    built.clear()
    capsys.readouterr()
    assert run_cli(*argv, "--half-width", "128.015625") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "8193x8193 complex array" in line and "byte limit" in line
    assert built == []


# A usage error with its usage text, an unknown subcommand, a good run of each
# computing command and an exit-5 gabor: the parser `main` keeps across calls
# must answer every one as a fresh parser does.
PARSER_REUSE_ARGV = [
    ["gabor", "--set", "hexagonal"],
    ["frobnicate"],
    ["analyze", "{dir}/basis.csv", "--json", "{dir}/a.json"],
    ["dual", "{dir}/basis.csv", "-o", "{dir}/d.csv"],
    ["family", "--gen", "weighted", "--sizes", "4,8,16", "--csv", "{dir}/f.csv"],
    ["gabor", "--set", "punctured", "--refine", "12,24"],
    ["gabor", "--set", "lattice", "--half-width", "4"],
]


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    write_identity(tmp_path / "basis.csv")
    outputs = ("a.json", "d.csv", "f.csv")

    def run_all():
        runs = []
        for argv in PARSER_REUSE_ARGV:
            for name in outputs:
                (tmp_path / name).unlink(missing_ok=True)
            code = run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv))
            out, err = capsys.readouterr()
            files = {name: (tmp_path / name).read_bytes()
                     for name in outputs if (tmp_path / name).exists()}
            runs.append((code, out, err, files))
        return runs

    first, second = run_all(), run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = run_all()
    assert first == second == fresh
    assert [run[0] for run in first] == [2, 2, 0, 0, 0, 0, 5]
    assert first[0][2].startswith("usage: rieszlab gabor") and "invalid choice" in first[0][2]
    assert "invalid choice: 'frobnicate'" in first[1][2]
    assert [sorted(run[3]) for run in first[2:5]] == [["a.json"], ["d.csv"], ["f.csv"]]


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_scaled_basis_keeps_its_verdict_or_exits_3(command, tmp_path, capsys):
    basis = random_riesz(6, seed=3)
    expected = classify(basis).kind.value
    extra = ["-o", str(tmp_path / "d.csv")] if command == "dual" else []
    for k in range(-200, 201, 10):
        src = tmp_path / f"scaled{k}.csv"
        write_matrix(str(src), VectorSequence.from_columns(10.0**k * basis.columns))
        code = run_cli(command, str(src), *extra)
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["verdict"] == expected, k
        else:
            assert code == 3, k
            [line] = err.splitlines()
            assert line.startswith("error: ") and "out of range" in line
        # Scales well inside the float range are never refused.
        assert code == 0 or abs(k) > 100, k


# Tiny base commands for the flag sweep: no flag value below makes one of them
# allocate more than a few MB.  analyze and dual have no numeric flags.
SHORT_NAMES = ("orthonormal", "weighted", "alternating", "young", "youngGeneral", "riesz")
SWEEP_BASES = (
    [["example", name, "--n", "3", "-o", "{dir}/e"] for name in SHORT_NAMES]
    + [["family", "--gen", gen, "--sizes", "2,3,4"] for gen in SHORT_NAMES]
    + [["family", "--gen", gen, "--sizes", "1,2,3"]
       for gen in ("gaborPunctured", "gaborALS", "gaborFullLattice")]
    + [["gabor", "--set", kind] for kind in ("lattice", "punctured", "als")]
    + [["gabor", "--set", "file", "--nodes", "{dir}/nodes.csv"]]
)
SWEEP_VALUES = {int: ("0", "-1"), float: ("0", "-1", "nan", "inf")}


def _numeric_flags(command):
    """Every int or float option of a subcommand, read from the parser itself."""
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (action.option_strings[-1], value)
        for action in subparsers.choices[command]._actions
        if action.type in SWEEP_VALUES
        for value in SWEEP_VALUES[action.type]
    ]


#: Each parameter flag -> the parameter it sets, also its destination.
PARAMETER_FLAGS = {
    "--seed": "seed", "--probe-index": "probeIndex", "--complement-dim": "complementDim",
    "--half-width": "halfWidth", "--samples": "samplesPerUnit", "--max-index": "maxIndex",
    "--nmax": "nmax", "--a": "a", "--b": "b", "--nodes": "nodes",
}


@pytest.mark.parametrize("shift", [0, 1])
def test_parameter_flags_read_the_family_defaults(shift, tmp_path, monkeypatch, capsys):
    # A parameter flag left out is absent from the namespace, and the
    # parameters that a family, an example or a `gabor --set` kind reads take
    # their defaults from `_PARAMETER_DEFAULTS`.
    nodes = tmp_path / "nodes.csv"
    defaults = {name: (str(nodes) if shift else value) if isinstance(value, str) else value + shift
                for name, value in scaling._PARAMETER_DEFAULTS.items()}
    monkeypatch.setattr(scaling, "_PARAMETER_DEFAULTS", defaults)
    monkeypatch.setattr(cli, "_parser", build_parser)
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [
        (command, action) for command, parser in subparsers.choices.items()
        for action in parser._actions if set(action.option_strings) & set(PARAMETER_FLAGS)
    ]
    assert len(flags) == 14
    for command, action in flags:
        [flag] = action.option_strings
        name = PARAMETER_FLAGS[flag]
        assert (action.dest, action.default, action.type) == (
            name, argparse.SUPPRESS, type(defaults[name])), (command, flag)
    read = []

    def stop(*args):
        read.append(dict(args[-1] if len(args) == 3 else args[0].parameters))
        raise ValueError("stopped")

    monkeypatch.setattr(scaling, "run_family", stop)
    monkeypatch.setattr(scaling, "_build_member", stop)
    for generator, family in scaling._FAMILIES.items():
        reads = {name: defaults[name] for name in family.reads}
        assert run_cli("family", "--gen", generator, "--sizes", "3,4,5") == 2
        if family.alias:
            assert run_cli("example", family.alias, "--n", "3") == 2
        # A study also reads probeIndex; an example reads only the family's `reads`.
        study = {"probeIndex": defaults["probeIndex"], **reads}
        assert read == [study] + [reads] * bool(family.alias), generator
        read.clear()
    assert capsys.readouterr().out == ""

    # Each `gabor --set` kind builds its points and its grid from the defaults.
    sampled = []

    def stop_sampling(points, grids):
        sampled.append((points, [(grid.half_width, grid.samples_per_unit) for grid in grids]))
        raise ValueError("stopped")

    monkeypatch.setattr(scaling, "_sampled", stop_sampling)
    file_points = generators.PointSet2D(((0.0, 0.0), (1.0, 0.5)))
    matrixio.write_point_set(str(nodes), file_points)
    kinds = {
        "lattice": generators.lattice_points(defaults["a"], defaults["b"], defaults["maxIndex"]),
        "punctured": generators.punctured_lattice(defaults["maxIndex"]),
        "als": generators.als_point_set(defaults["nmax"]),
        "file": file_points if shift else None,  # the default "" names no file
    }
    assert list(kinds) == list(scaling._POINT_SETS)
    grid = [(defaults["halfWidth"], defaults["samplesPerUnit"])]
    for kind, points in kinds.items():
        assert run_cli("gabor", "--set", kind) == 2
        assert sampled == ([] if points is None else [(points, grid)]), kind
        sampled.clear()
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: stopped" if shift else "error: --set file requires --nodes PATH")


def test_the_help_refine_example_runs_on_every_index_built_kind(capsys):
    # The --refine rates that `gabor --help` gives pass the sampling rule at
    # the default flags of each kind built from an index bound.
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [refine] = [a for a in subparsers.choices["gabor"]._actions if "--refine" in a.option_strings]
    [rates] = re.findall(r"e\.g\. (\S+)$", refine.help)
    for kind, (_, _, count) in scaling._POINT_SETS.items():
        if count is not None:
            assert run_cli("gabor", "--set", kind, "--refine", rates) == 0, kind
            report = json.loads(capsys.readouterr().out)
            assert {row["size"] for row in report["refinement"]["perSize"]} >= {
                int(rate) for rate in rates.split(",")}


@pytest.mark.parametrize("argv, source", [
    (["gabor", "--set", "lattice", "--a", "1.25", "--b", "0.75", "--max-index", "1",
      "--half-width", "5", "--samples", "20"],
     "gabor:lattice halfWidth=5.0 samplesPerUnit=20 maxIndex=1 a=1.25 b=0.75"),
    (["gabor", "--set", "punctured", "--max-index", "1", "--samples", "24"],
     "gabor:punctured halfWidth=6.0 samplesPerUnit=24 maxIndex=1"),
    (["gabor", "--set", "als", "--nmax", "2", "--half-width", "7"],
     "gabor:als halfWidth=7.0 samplesPerUnit=16 nmax=2"),
    (["gabor", "--set", "file", "--nodes", "{dir}/nodes.csv", "--samples", "12"],
     "gabor:file halfWidth=6.0 samplesPerUnit=12 nodes={dir}/nodes.csv"),
    (["family", "--gen", "gaborALS", "--sizes", "1,2,3", "--half-width", "7", "--samples", "20",
      "--probe-index", "1"],
     "family:gaborALS sizes=1,2,3 probeIndex=1 halfWidth=7.0 samplesPerUnit=20"),
], ids=["lattice", "punctured", "als", "file", "family-gaborALS"])
def test_input_names_every_parameter_read(argv, source, tmp_path, capsys):
    # A report's `input` names the kind and each parameter it read, given or
    # at its default, in `_PARAMETER_DEFAULTS` order.
    (tmp_path / "nodes.csv").write_text("0,0\n1,0.5\n")
    assert run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == 0
    assert json.loads(capsys.readouterr().out)["input"] == source.replace("{dir}", str(tmp_path))


SWEEP_CASES = {
    f"{base[0]} {base[2] if base[1].startswith('-') else base[1]} {flag}={value}":
        base + [flag, value]
    for base in SWEEP_BASES
    for flag, value in _numeric_flags(base[0])
}


@pytest.mark.parametrize("argv", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_numeric_flag_sweep_never_exits_1(argv, tmp_path, capsys):
    """Each numeric flag at 0 and -1 (floats also at nan and inf): a documented
    exit code, and one error line for each failure."""
    (tmp_path / "nodes.csv").write_text("0,0\n")
    code = run_cli(*(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert err == ""
    else:
        [line] = err.splitlines()
        assert line.startswith("error: ")


# File contents for the fuzz below: arbitrary bytes, and rows of equal width
# built from valid cells (most of them succeed) or from cells that may also be
# malformed or non-finite.
_valid_cell = st.sampled_from(
    ["0", "1", "-1", "2", "-3", "1-2i", ".5", "1e-300", " 1 ", "\t2", "\u0663", "-0"]
)
_any_cell = st.one_of(_valid_cell, st.sampled_from(["x", "", "1e400", "1+2j", "inf"]))


def _fuzz_text(cell):
    rows = st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(cell, min_size=width, max_size=width).map(",".join),
                               min_size=1, max_size=3)
    )
    return st.builds(
        lambda header, rows, newline: header + "".join(row + newline for row in rows),
        st.sampled_from(["", "", "# dim=2 count=2\n", "# x\n"]),
        rows,
        st.sampled_from(["\n", "\r\n"]),
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(
    content=st.one_of(
        st.binary(max_size=48),
        *(_fuzz_text(cell).map(str.encode) for cell in (_valid_cell, _any_cell)),
    )
)
def test_matrix_commands_on_arbitrary_bytes(content, fuzz_dir):
    """`analyze` and `dual` on any file: a documented exit code, one error line
    and no traceback on failure, no temp file left, and a dual file either
    absent or complete."""
    for path in fuzz_dir.iterdir():
        path.unlink()
    src, out, report = fuzz_dir / "in.csv", fuzz_dir / "dual.csv", fuzz_dir / "dual.json"
    src.write_bytes(content)
    for argv in (["analyze", str(src)], ["dual", str(src), "-o", str(out), "--json", str(report)]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            [line] = stderr.getvalue().splitlines()
            assert line.startswith("error: ")
    assert not list(fuzz_dir.glob("*.tmp"))
    if out.exists():
        assert read_matrix(str(out)).columns.shape == read_matrix(str(src)).columns.shape
