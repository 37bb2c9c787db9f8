import json

import numpy as np
import pytest

import oracles
from rieszlab import MatrixParseError, PointSet2D, VectorSequence, lattice_points
from rieszlab.matrixio import (
    finite_or_none,
    format_complex,
    matrix_text,
    parse_complex,
    point_set_text,
    read_matrix,
    read_point_set,
    report_text,
    write_atomic,
    write_matrix,
    write_point_set,
    write_report,
)


class TestCellGrammar:
    @pytest.mark.parametrize(
        "cell, expected",
        [
            ("3", 3 + 0j),
            ("-2.5", -2.5 + 0j),
            ("1-2i", 1 - 2j),
            ("0+1i", 1j),
            ("+4e-3", 4e-3 + 0j),
            ("1.5e-3+2e1i", 1.5e-3 + 20j),
            (".5-.25i", 0.5 - 0.25j),
            ("2.-3.i", 2 - 3j),
            ("-0", 0j),
        ],
    )
    def test_accepts(self, cell, expected):
        assert parse_complex(cell) == expected

    @pytest.mark.parametrize(
        "cell",
        ["", "1 + 2i", "2i", "i", "1+2j", "abc", "--3", "1+i", "1e", "(1+2i)", "1,2"],
    )
    def test_rejects(self, cell):
        with pytest.raises(MatrixParseError):
            parse_complex(cell)

    def test_format_real_only(self):
        assert format_complex(3.0 + 0j) == "3"
        assert format_complex(-0.5 + 0j) == "-0.5"

    def test_format_signs(self):
        assert format_complex(1 - 2j) == "1-2i"
        assert format_complex(0 + 1j) == "0+1i"

    @pytest.mark.parametrize("seed", range(5))
    def test_format_parse_round_trip_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)) + 1j * (
            rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)
        )
        for z in values:
            assert parse_complex(format_complex(z)) == z


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path):
        seq = VectorSequence.from_columns(oracles.random_columns(3, 5, 7))
        path = tmp_path / "matrix.csv"
        write_matrix(str(path), seq)
        back = read_matrix(str(path))
        assert back.dim == 5 and back.count == 7
        np.testing.assert_array_equal(back.columns, seq.columns)

    def test_header_written_and_checked(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("# dim=3 count=2\n1,0\n0,1\n")
        with pytest.raises(MatrixParseError, match="header"):
            read_matrix(str(path))

    def test_header_optional(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1,0\n0,1\n")
        back = read_matrix(str(path))
        np.testing.assert_array_equal(back.columns, np.eye(2))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("# rows=2\n1,0\n")
        with pytest.raises(MatrixParseError, match="malformed header"):
            read_matrix(str(path))

    def test_bad_cell_names_position(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1,0\n0,oops\n")
        with pytest.raises(MatrixParseError, match="row 2, column 2"):
            read_matrix(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1,0\n0\n")
        with pytest.raises(MatrixParseError, match="row 2"):
            read_matrix(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("")
        with pytest.raises(MatrixParseError, match="empty"):
            read_matrix(str(path))

    def test_text_shape(self):
        seq = VectorSequence.from_columns(np.eye(2))
        assert matrix_text(seq) == "# dim=2 count=2\n1,0\n0,1\n"


class TestPointSetFiles:
    def test_round_trip(self, tmp_path):
        points = lattice_points(0.5, 1.5, 2)
        path = tmp_path / "nodes.csv"
        write_point_set(str(path), points)
        back = read_point_set(str(path))
        assert back.nodes == points.nodes

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("# tau,mu\n0,0\n1,0\n")
        assert read_point_set(str(path)).nodes == ((0.0, 0.0), (1.0, 0.0))

    def test_bad_line(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(MatrixParseError, match="line 2"):
            read_point_set(str(path))

    def test_duplicate_nodes_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0,0\n0,0\n")
        with pytest.raises(MatrixParseError):
            read_point_set(str(path))

    def test_text_format(self):
        assert point_set_text(PointSet2D(((0.0, 0.5),))) == "0,0.5\n"


class TestReports:
    def test_sorted_deterministic_json(self):
        text = report_text({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), {"schemaVersion": 1})
        assert json.loads(path.read_text())["schemaVersion"] == 1

    def test_finite_or_none(self):
        assert finite_or_none(1.5) == 1.5
        assert finite_or_none(np.float64(2.0)) == 2.0
        assert finite_or_none(np.inf) is None
        assert finite_or_none(None) is None


class TestAtomicWrites:
    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        write_atomic(str(path), "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(str(path), "data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        # A failed write names the target path, not the temp file, and removes the temp file.
        target = tmp_path / "subdir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_atomic(str(target), "data")
        assert info.value.filename == str(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "subdir"]
