import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from memtrace import traced_peak
from rieszlab import MatrixParseError, PointSet2D, VectorSequence, lattice_points, random_riesz
from rieszlab import matrixio
from rieszlab.matrixio import (
    finite_or_none,
    parse_complex,
    read_matrix,
    read_point_set,
    report_text,
    write_atomic,
    write_matrix,
    write_point_set,
    write_report,
)


def bits(values):
    """The raw float64 bits of float64 or complex values, so -0.0 and 0.0
    differ; real values read as float64, any others as complex128."""
    arr = np.atleast_1d(np.asarray(values))
    dtype = complex if arr.dtype.kind == "c" else float
    return np.ascontiguousarray(arr, dtype=dtype).view(np.uint64)


def stored(values):
    """`values` as a system stores them: float64 when no imaginary part is
    nonzero, so an imaginary -0.0 is dropped, and complex128 otherwise."""
    arr = np.asarray(values, dtype=complex)
    return arr if arr.imag.any() else arr.real


def written_text(seq):
    """The text `write_matrix` writes for `seq`: its chunks, joined."""
    return "".join(matrixio._matrix_chunks(seq))


def cell_text(z):
    """One cell as `write_matrix` writes it."""
    return written_text(VectorSequence.from_columns([[z]])).splitlines()[1]


def read_text(tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_bytes(text.encode("utf-8"))
    return read_matrix(str(path)).columns


class TestCellGrammar:
    """The cell grammar, pinned through `parse_complex` and through whole files."""

    ACCEPTED = [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1-2i", 1 - 2j),
        ("0+1i", 1j),
        ("+4e-3", 4e-3 + 0j),
        ("1.5e-3+2e1i", 1.5e-3 + 20j),
        (".5-.25i", 0.5 - 0.25j),
        ("2.-3.i", 2 - 3j),
        ("-0", 0j),
        ("1.", 1 + 0j),
        (".5e-3", 5e-4 + 0j),
        ("1e308-1e308i", complex(1e308, -1e308)),
        # Other whitespace and decimal digits: read in their ASCII form, as complex() reads them.
        ("\u00a01-2i\u2003", 1 - 2j),
        ("\x1c3\x1f", 3 + 0j),
        ("\u0663", 3 + 0j),
    ]

    REJECTED = ["", "1 + 2i", "2i", "i", "1+2j", "abc", "--3", "1+i", "1e", "(1+2i)",
                "1_0", "inf", "nan", "-inf", "1+nani", "1j", "0x10", "1e5.0"]

    # Signed zeros and subnormals, compared bit for bit.
    BIT_EXACT = [
        ("-0", complex(-0.0, 0.0)),
        ("0-0i", complex(0.0, -0.0)),
        ("-0-0i", complex(-0.0, -0.0)),
        ("4.9e-324-2.5e-324i", complex(4.9e-324, -2.5e-324)),
    ]

    @pytest.mark.parametrize("cell, expected", ACCEPTED)
    def test_accepts(self, cell, expected):
        assert parse_complex(cell.strip()) == expected

    @pytest.mark.parametrize("cell, expected", ACCEPTED)
    def test_file_accepts(self, cell, expected, tmp_path):
        back = read_text(tmp_path, f"# dim=2 count=2\n0,0\n0,{cell}\n")
        np.testing.assert_array_equal(back, [[0, 0], [0, expected]])

    @pytest.mark.parametrize("cell, expected", BIT_EXACT)
    def test_accepts_bit_for_bit(self, cell, expected, tmp_path):
        assert bits(parse_complex(cell)).tolist() == bits(expected).tolist()
        back = read_text(tmp_path, f"# dim=2 count=2\n0,0\n0,{cell}\n")
        assert bits(back).tolist() == bits(stored([[0, 0], [0, expected]])).tolist()

    @pytest.mark.parametrize("cell", REJECTED + ["1,2"])
    def test_rejects(self, cell):
        with pytest.raises(MatrixParseError):
            parse_complex(cell)

    @pytest.mark.parametrize("cell", REJECTED)
    def test_file_rejects_naming_row_and_column(self, cell, tmp_path):
        with pytest.raises(MatrixParseError, match=r"row 2, column 2: invalid complex cell"):
            read_text(tmp_path, f"0,0,0\n1,{cell},1\n")

    @pytest.mark.parametrize(
        "text, row, column",
        [
            ("0,0,0\n1,,2\n", 2, 2),
            ("1,2,\n3,4,\n", 1, 3),
            ("1,2\n3,4\n5,6,\n", None, None),
        ],
        ids=["empty-cell", "trailing-comma", "trailing-comma-ragged"],
    )
    def test_file_rejects_empty_cells(self, text, row, column, tmp_path):
        message = f"row {row}, column {column}" if row else "row 3 has 3 cells, expected 2"
        with pytest.raises(MatrixParseError, match=message):
            read_text(tmp_path, text)

    def test_rows_report_in_file_order(self, tmp_path):
        # A bad cell above a ragged row is the error; the ragged row below it is not reached.
        with pytest.raises(MatrixParseError, match="row 2, column 2"):
            read_text(tmp_path, "1,2\n3,x\n5,6,7\n")
        with pytest.raises(MatrixParseError, match="row 2 has 3 cells, expected 2"):
            read_text(tmp_path, "1,2\n5,6,7\n3,x\n")

    def test_spaces_tabs_and_crlf(self, tmp_path):
        back = read_text(tmp_path, "# dim=2 count=2\r\n 1 ,\t2-1i\t\r\n\t-0 , .5 \r\n")
        expected = stored([[1, 2 - 1j], [complex(-0.0, 0.0), 0.5]])
        assert bits(back).tolist() == bits(expected).tolist()
        back = read_text(tmp_path, "1,2\r3,4\r")
        np.testing.assert_array_equal(back, [[1, 2], [3, 4]])

    def test_format_real_only(self):
        assert cell_text(3.0 + 0j) == "3"
        assert cell_text(-0.5 + 0j) == "-0.5"

    def test_format_signs(self):
        assert cell_text(1 - 2j) == "1-2i"
        assert cell_text(0 + 1j) == "0+1i"

    def test_format_signed_zeros(self):
        assert cell_text(complex(-0.0, 0.0)) == "-0"
        assert cell_text(complex(-0.0, -2.5)) == "-0-2.5i"
        # A complex system writes an imaginary -0.0 and omits only +0.0; a
        # system without a nonzero imaginary part is real and writes neither.
        row = [complex(0.0, -0.0), complex(-0.0, -0.0), complex(1.0, 0.0), 1j]
        assert written_text(VectorSequence.from_columns([row])).splitlines()[1] == "0-0i,-0-0i,1,0+1i"
        assert cell_text(complex(0.0, -0.0)) == "0"

    @pytest.mark.parametrize("seed", range(5))
    def test_format_parse_round_trip_is_exact(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)) + 1j * (
            rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)
        )
        for z in values:
            assert parse_complex(cell_text(z)) == z
        seq = VectorSequence.from_columns(values.reshape(5, 10))
        path = tmp_path / "matrix.csv"
        write_matrix(str(path), seq)
        assert bits(read_matrix(str(path)).columns).tolist() == bits(seq.columns).tolist()


def injected_matrix(seed, dim, count):
    """Seeded complex entries with zeros, signed zeros, subnormals, +-1e308, pure parts."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-20, 20, (dim, count, 2))
    parts = rng.standard_normal((dim, count, 2)) * scale
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 1e308, -1e308])
    pick = rng.random((dim, count, 2)) < 0.3
    parts[pick] = rng.choice(specials, int(pick.sum()))
    parts[rng.random((dim, count)) < 0.15, 1] = 0.0  # pure real
    parts[rng.random((dim, count)) < 0.15, 0] = 0.0  # pure imaginary
    fixed = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (5e-324, -5e-324), (1e308, -1e308),
             (-1e308, 1e308), (0.0, 2.5), (-3.5, -0.0)]
    flat = parts.reshape(-1, 2)
    flat[: len(fixed)] = fixed[: len(flat)]
    columns = np.empty((dim, count), dtype=complex)
    columns.real, columns.imag = parts[..., 0], parts[..., 1]
    return columns


class TestMatrixTextIdentity:
    """The written text equals the per-cell reference byte for byte, and round-trips bit for bit."""

    @pytest.mark.parametrize("seed, dim, count", [(0, 1, 1), (1, 7, 3), (2, 3, 9), (3, 40, 40)])
    def test_matches_per_cell_reference(self, seed, dim, count):
        columns = injected_matrix(seed, dim, count)
        assert written_text(VectorSequence.from_columns(columns)) == oracles.matrix_text_by_cells(
            columns
        )

    @pytest.mark.parametrize("seed, dim, count", [(0, 1, 1), (1, 7, 3), (2, 3, 9), (3, 40, 40)])
    def test_write_read_is_bit_exact(self, seed, dim, count, tmp_path):
        columns = injected_matrix(seed, dim, count)
        path = tmp_path / "matrix.csv"
        write_matrix(str(path), VectorSequence.from_columns(columns))
        # An imaginary -0.0 is written "-0i" and survives, as every other bit does.
        assert np.any(np.signbit(columns.imag) & (columns.imag == 0.0))
        assert bits(read_matrix(str(path)).columns).tolist() == bits(stored(columns)).tolist()


def finite_floats(bits):
    """The float64 values of `bits`, with an exponent bit cleared where the pattern is inf or nan."""
    bits = bits.copy()
    bits[~np.isfinite(bits.view(float))] ^= np.uint64(1 << 62)
    return bits.view(float)


def ulps_around(x, count):
    """x and the `count` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


# Doubles just below 10**k whose 17-digit rounding carries into the next decade.
CARRIES = [1e-305, 1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129]
# Exact 18-digit ties: the 17-digit rounding goes to even.
TIES = [1125899906842623.75, 1125899906842624.25, 1000000000000000.25, 1000000000000000.75,
        562949953421311.875, 140737488355327.875]
HARD_VALUES = np.array(
    [x for k in range(-323, 309) for x in ulps_around(float(f"1e{k}"), 4)]
    + [2.0**k for k in range(-1074, 1024)]
    + [np.nextafter(2.0**k, 0.0) for k in range(-1073, 1024)]
    + [5e-324 * m for m in (1, 2, 3, 10, 1000, 2**51 - 1, 2**51, 2**52 - 1)]
    + [k / 8 for k in range(-2000, 2001)]
    + CARRIES + TIES
    + [1e308, 1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 1e17, 1e-4, 1e-5, 0.0, -0.0]
)


class TestVectorizedFormat:
    """The written text equals the per-cell "%.17g" reference where a formatter
    that scales by powers of ten is most likely to slip."""

    @settings(max_examples=80, deadline=None)
    @given(
        bits=hnp.arrays(
            np.uint64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=8).map(lambda s: (s[0], 2 * s[1])),
            elements=st.integers(0, 2**64 - 1),
        )
    )
    def test_arbitrary_bit_patterns(self, bits):
        columns = finite_floats(bits).view(complex)
        assert written_text(VectorSequence(columns)) == oracles.matrix_text_by_cells(columns)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_hard_values_in_either_part(self, sign):
        # Each value beside a signed zero in the other part, then beside another value.
        values = sign * HARD_VALUES
        zeros = np.full_like(values, sign * 0.0)
        columns = np.zeros(3 * len(values) + (-3 * len(values)) % 16, dtype=complex)
        columns.real[: 3 * len(values)] = np.concatenate([values, zeros, values])
        columns.imag[: 3 * len(values)] = np.concatenate([zeros, values, values[::-1]])
        columns = columns.reshape(-1, 16)
        assert written_text(VectorSequence(columns)) == oracles.matrix_text_by_cells(columns)

    def test_carries_and_ties_are_what_they_claim(self):
        for x in CARRIES:
            text = format(x, ".17g")
            assert Fraction(x) < Fraction(text) and text.startswith("1e")
        for x in TIES:
            digits = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
            assert digits.denominator == 2

    def test_fallback_alone_gives_the_same_bytes(self, monkeypatch):
        columns = np.concatenate([injected_matrix(6, 24, 12), HARD_VALUES[:2400].reshape(-1, 12)])
        formatted = []
        format_float = matrixio.format_float
        # No margin is wide enough, so every nonzero part is formatted by format_float.
        monkeypatch.setattr(matrixio, "_TIE_MARGIN", 0.5)
        monkeypatch.setattr(matrixio, "format_float", lambda x: formatted.append(x) or format_float(x))
        assert written_text(VectorSequence(columns)) == oracles.matrix_text_by_cells(columns)
        assert len(formatted) == np.count_nonzero(columns.view(float))

    def test_gaussian_values_need_no_fallback(self, monkeypatch):
        monkeypatch.setattr(matrixio, "format_float", lambda x: pytest.fail(f"fallback for {x!r}"))
        written_text(VectorSequence(oracles.random_columns(7, 130, 70)))


# Reader edge cases: the file's bytes and the exact message after "<path>: ".
# Recorded from the reader as it was when every cell went through complex(),
# so they also pin that converting through `np.loadtxt` changed no message;
# since then a non-finite cell is named by row and column, a bad cell on any
# row outranks it, and the byte of a decoding error is counted from the start
# of the file.
ERROR_CORPUS = [
    *[
        (
            f"# dim=2 count=2\n1,0\n0,{cell}\n".encode(),
            f"row 2, column 2: invalid complex cell {cell!r}",
        )
        # np.loadtxt alone would read "1.5e3i" as 1500j and "1+2j", "inf" and
        # "nan" as numbers: the grammar, not loadtxt, decides what a cell is.
        for cell in ["1.5e3i", "1+2j", "inf", "nan", "(1+2i)", "1_0", "1e", "--3", "0x10"]
    ],
    (b"1,,2\n3,4,5\n", "row 1, column 2: invalid complex cell ''"),
    (b"1,2,\n3,4,\n", "row 1, column 3: invalid complex cell ''"),
    (b"1e400,0\n0,1\n", "row 1, column 1: non-finite cell '1e400'"),
    (b"1,0\n0,1-1e999i\n", "row 2, column 2: non-finite cell '1-1e999i'"),
    ("1,0\n0,\u00a01e400\n".encode(), "row 2, column 2: non-finite cell '1e400'"),
    (b"1,1e400\n1,2,3\n", "row 1, column 2: non-finite cell '1e400'"),
    # Every row is checked before a cell that overflows is named: a bad cell
    # is reported before an overflow on an earlier row or column, whatever
    # the whitespace around either.
    (b"1e400,0\n0,x\n", "row 2, column 2: invalid complex cell 'x'"),
    ("\u00a01e400,0\n0,x\n".encode(), "row 2, column 2: invalid complex cell 'x'"),
    (b"1e400,x\n0,1\n", "row 1, column 2: invalid complex cell 'x'"),
    ("1e400\u00a0,0\n1.2.3,0\n".encode(), "row 2, column 1: invalid complex cell '1.2.3'"),
    # Else the first cell that overflows, in file order.
    ("1e400,0\n0,\u00a01e999\n".encode(), "row 1, column 1: non-finite cell '1e400'"),
    (b"1,0\n0,\xff\n", "not UTF-8 text (byte 6: invalid start byte)"),
    (b"\xef\xbb\xbf1,0\n0,\xff\n", "not UTF-8 text (byte 9: invalid start byte)"),
    (b"1,0\n" * 5000 + b"0,\xff\n", "not UTF-8 text (byte 20002: invalid start byte)"),
    (b"# dim=3 count=2\n1,0\n0,1\n", "header announces shape (3, 2), parsed (2, 2)"),
    (b"1,2\n3\n", "row 2 has 1 cells, expected 2"),
    (b"# dim=2 count=2\n", "header but no data rows"),
    (b"", "empty matrix file"),
    (b"# rows=2\n1,0\n", "malformed header '# rows=2'"),
    ("1,0\n\u00a00,x\u00a0\n".encode(), "row 2, column 2: invalid complex cell 'x'"),
    # Only a first non-blank line is a header; a later "#" line is a data row.
    (b"# dim=1 count=1\n# dim=1 count=1\n1\n",
     "row 1, column 1: invalid complex cell '# dim=1 count=1'"),
    (b"1\n# x\n", "row 2, column 1: invalid complex cell '# x'"),
]

VALUE_CORPUS = [
    (b"-.0-.0i\n", [[complex(-0.0, -0.0)]]),
    (b"1.+2.i\n", [[1 + 2j]]),
    (b"2.2250738585072011e-308\n", [[2.2250738585072011e-308]]),
    (b"\t-.0-.0i\t, 1.+2.i \r\n2.2250738585072011e-308,\t5e-324\r\n",
     [[complex(-0.0, -0.0), 1 + 2j], [2.2250738585072011e-308, 5e-324]]),
    # A leading UTF-8 byte-order mark is skipped on both passes.
    (b"\xef\xbb\xbf# dim=2 count=2\n1,0\n0,1\n", [[1, 0], [0, 1]]),
    # Blank lines before the header are skipped, as everywhere.
    (b"\n \t\n# dim=2 count=1\n1\n\n2\n", [[1], [2]]),
]


class TestEdgeCaseCorpus:
    @pytest.mark.parametrize("data, message", ERROR_CORPUS, ids=lambda value: repr(value)[:24])
    def test_refused_with_its_message(self, data, message, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_bytes(data)
        with pytest.raises(MatrixParseError) as info:
            read_matrix(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("data, expected", VALUE_CORPUS, ids=lambda value: repr(value)[:24])
    def test_reads_bit_for_bit(self, data, expected, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_bytes(data)
        assert bits(read_matrix(str(path)).columns).tolist() == bits(stored(expected)).tolist()


# Unicode whitespace and decimal digits beside ASCII ones: the reader takes
# their ASCII form, so the oracle reads it against the grammar too.
UNICODE_SPACES = "\u00a0\u2003\u3000\x0c\x1c"
UNICODE_DIGITS = "\u0660\u0661\u0663\u0669\uff10\uff15\uff19"
ROW_ALPHABET = f"0123456789.eE+-ij, \t{UNICODE_SPACES}{UNICODE_DIGITS}"
ROW_TOKENS = ["0", "7", "12", ".", "e", "E", "+", "-", "i", "j", ",", " ", "\t", *UNICODE_SPACES,
              "\u0663", "\uff17", "1.5", "e-3", "2i", "5e-324", "1e400", "-.0"]
_digits = st.one_of(st.text("0123456789", min_size=1, max_size=3),
                    st.text(f"0123456789{UNICODE_DIGITS}", min_size=1, max_size=3))


def _optional(strategy):
    return st.one_of(st.just(""), strategy)


_unsigned = st.builds(
    "{}{}".format,
    st.one_of(
        _digits,
        st.builds("{}.{}".format, _digits, _optional(_digits)),
        _digits.map(".{}".format),
    ),
    _optional(
        st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), _digits)
    ),
)
_cell = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    _unsigned,
    _optional(st.builds("{}{}i".format, st.sampled_from("+-"), _unsigned)),
)
_padding = st.sampled_from(["", " ", "\t", " \t ", *UNICODE_SPACES, "\u3000\t\x1c"])
_number = st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), _unsigned)
# Cells numpy's complex parser reads and the grammar refuses (bare
# imaginaries, doubled signs), and an imaginary part without its "i", which
# both refuse: beside grammar cells their counts of "i" and of signs can balance.
_near_cell = st.one_of(
    st.builds("{}i".format, _number),
    st.builds("{}{}{}i".format, _number, st.sampled_from(["++", "+-"]), _unsigned),
    st.builds("{}{}{}".format, _number, st.sampled_from("+-"), _unsigned),
)
# Random text, near misses from tokens, rows built from the grammar itself,
# and grammar rows with near cells among them.
rows = st.one_of(
    st.text(ROW_ALPHABET, max_size=24),
    st.lists(st.sampled_from(ROW_TOKENS), max_size=12).map("".join),
    st.lists(st.builds("{}{}{}".format, _padding, _cell, _padding), min_size=1, max_size=4).map(
        ",".join
    ),
    st.lists(st.builds("{}{}{}".format, _padding, st.one_of(_cell, _near_cell), _padding),
             min_size=1, max_size=4).map(",".join),
)


@pytest.fixture(scope="module")
def scratch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("matrixio") / "matrix.csv"


def per_cell(row):
    """Each stripped cell of `row` through `parse_complex`, None where it refuses."""
    values = []
    for cell in row.split(","):
        try:
            values.append(parse_complex(cell.strip()))
        except MatrixParseError:
            values.append(None)
    return values


def read_by_cells(row):
    """What reading a file of the one line `row` gives, from its cells one at a
    time: their values as stored, or the message of the first cell that the
    grammar refuses, else of the first cell that overflows."""
    if row.isspace() or not row:
        return "empty matrix file"
    values = per_cell(row)
    cells = [cell.strip() for cell in row.split(",")]
    for j, (cell, value) in enumerate(zip(cells, values), start=1):
        if value is None:
            return f"row 1, column {j}: invalid complex cell {cell!r}"
    for j, (cell, value) in enumerate(zip(cells, values), start=1):
        if not cmath.isfinite(value):
            return f"row 1, column {j}: non-finite cell {cell!r}"
    return stored([values])


class TestGrammarOracle:
    """The cell grammar against the character-level recognizer in `oracles`,
    and the reader against the grammar."""

    @settings(max_examples=200, deadline=None)
    @given(row=rows)
    @example(row="1.5e3i")
    @example(row="\u00a01-2i\u2003,\u0663")
    @example(row=" 1e400 ,\t-.0-.0i")
    def test_cell_grammar_agrees_with_the_recognizer(self, row):
        assert [value is not None for value in per_cell(row)] == [
            oracles.is_cell(cell.strip()) for cell in row.split(",")
        ]

    @settings(max_examples=300, deadline=None)
    @given(row=rows)
    @example(row="1.5e3i")
    @example(row="\u00a01-2i\u2003,\u0663")
    @example(row=" 1e400 ,\t-.0-.0i")
    # Rows numpy's complex parser alone would take, or that pass the block
    # check for numpy to refuse.
    @example(row="2i")
    @example(row="+2i")
    @example(row="1++2i")
    @example(row="1+-2i")
    @example(row="1e+2i")
    @example(row="1-2,3i")
    @example(row="1.2.3")
    @example(row="1e400,1.2.3")
    @example(row="\u00a01e400,x")
    @example(row="1e400\u3000,\uff11.2.3")
    def test_reader_takes_a_row_iff_the_grammar_takes_every_cell(self, row, scratch_path):
        # Taken to the same bits, or refused with the message of its first bad
        # cell, else of its first cell that overflows.
        scratch_path.write_text(row + "\n", encoding="utf-8")
        expected = read_by_cells(row)
        if isinstance(expected, str):
            with pytest.raises(MatrixParseError) as info:
                read_matrix(str(scratch_path))
            assert str(info.value) == f"{scratch_path}: {expected}"
        else:
            assert bits(read_matrix(str(scratch_path)).columns).tolist() == bits(expected).tolist()


FLOAT_MAX = np.finfo(float).max


def read_spies(monkeypatch):
    """The `max_rows` of each `np.loadtxt` call, the rows `matrixio` puts in
    their ASCII form and the row numbers it reads cell by cell, in order,
    from now on."""
    calls, converted, parsed = [], [], []
    loadtxt, ascii_form, parse_cells = np.loadtxt, matrixio._ascii_form, matrixio._parse_cells

    def loadtxt_spy(*args, **kwargs):
        calls.append(kwargs["max_rows"])
        return loadtxt(*args, **kwargs)

    def ascii_spy(line):
        converted.append(line)
        return ascii_form(line)

    def parse_spy(file, i, line):
        parsed.append(i)
        return parse_cells(file, i, line)

    monkeypatch.setattr(matrixio.np, "loadtxt", loadtxt_spy)
    monkeypatch.setattr(matrixio, "_ascii_form", ascii_spy)
    monkeypatch.setattr(matrixio, "_parse_cells", parse_spy)
    return calls, converted, parsed


def block_rows(lines, index):
    """The indices of the lines read in one block with `lines[index]`, if
    `lines` are a file's data lines: a block ends at the first line with
    which it holds `matrixio._READ_CHARS` characters, or at the last line."""
    start, chars = 0, 0
    for k, line in enumerate(lines):
        chars += len(line)
        if chars >= matrixio._READ_CHARS or k == len(lines) - 1:
            if index <= k:
                return range(start, k + 1)
            start, chars = k + 1, 0
    raise IndexError(index)


class TestBlockConversion:
    @settings(max_examples=40, deadline=None)
    @given(
        columns=hnp.arrays(
            complex,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=70),
            elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
        )
    )
    @example(
        columns=np.array([[complex(-0.0, 5e-324), complex(FLOAT_MAX, -FLOAT_MAX)],
                          [complex(-FLOAT_MAX, 2.2250738585072014e-308), complex(5e-324, -5e-324)]])
    )
    @example(columns=injected_matrix(4, 70, 70))
    def test_write_read_round_trip_is_bit_exact(self, columns, scratch_path):
        write_matrix(str(scratch_path), VectorSequence(columns))
        back = read_matrix(str(scratch_path)).columns
        assert bits(back).tolist() == bits(stored(columns)).tolist()

    def test_row_outside_the_grammar_between_grammar_rows(self, tmp_path, monkeypatch):
        lines = written_text(VectorSequence(injected_matrix(5, 150, 3))).splitlines()
        # Data rows 100 to 103 hold other whitespace: their block goes to
        # np.loadtxt in its ASCII form, and signed zeros in either part,
        # subnormals and the largest finite values come back bit for bit.
        lines[100] = f"\u00a0{lines[100]}\u00a0"
        lines[101] = "\u00a0-0-0i,-0,0-0i"
        lines[102] = "5e-324-4.9406564584124654e-324i,\u20032.2250738585072009e-308,-0+5e-324i"
        top = "1.7976931348623157e308"
        lines[103] = f"{top}-{top}i,-{top},\u00a00+{top}i"
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls, converted, parsed = read_spies(monkeypatch)
        expected = [[parse_complex(cell.strip()) for cell in line.split(",")] for line in lines[1:]]
        assert bits(read_matrix(str(path)).columns).tolist() == bits(stored(expected)).tolist()
        assert calls == [150] and parsed == []
        assert lines[100:104] == [line for line in converted if not line.isascii()]

    def test_grammar_rows_take_one_loadtxt_call(self, tmp_path, monkeypatch):
        seq = random_riesz(256, seed=3)
        path = tmp_path / "riesz.csv"
        write_matrix(str(path), seq)
        calls, converted, parsed = read_spies(monkeypatch)
        back = read_matrix(str(path))
        expected = seq.columns.copy()
        expected.imag[expected.imag == 0.0] = 0.0
        assert bits(back.columns).tolist() == bits(stored(expected)).tolist()
        # Every block passes the block check as it is: no row is put in its
        # ASCII form or read cell by cell.
        assert calls == [256] and converted == [] and parsed == []

    def test_a_non_ascii_row_puts_only_its_block_in_ascii_form(self, tmp_path, monkeypatch):
        lines = written_text(VectorSequence(oracles.random_columns(7, 2000, 4))).splitlines()[1:]
        lines[1200] = f"\u00a0{lines[1200]}"
        block = block_rows(lines, 1200)
        assert 1 < len(block) < len(lines)
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls, converted, parsed = read_spies(monkeypatch)
        expected = [[parse_complex(cell.strip()) for cell in line.split(",")] for line in lines]
        assert bits(read_matrix(str(path)).columns).tolist() == bits(stored(expected)).tolist()
        assert calls == [2000] and parsed == []
        assert converted == [lines[k] for k in block]

    @pytest.mark.parametrize("part", [np.asarray, np.real], ids=["complex", "real"])
    @pytest.mark.parametrize(
        "rewrite",
        [
            *[lambda text, space=space: space + text.replace(",", f"{space},{space}")
                                          .replace("\n", f"{space}\n{space}")
              for space in ["\u00a0", "\u3000", "\x0c", "\x1c"]],
            *[lambda text, zero=zero: text.translate({ord("0") + d: zero + d for d in range(10)})
              for zero in [0x0660, 0xFF10]],
        ],
        ids=["no-break-space", "ideographic-space", "form-feed", "file-separator",
             "arabic-indic-digits", "fullwidth-digits"],
    )
    def test_non_ascii_file_reads_as_its_ascii_twin(self, rewrite, part, tmp_path, monkeypatch):
        # 20 to 40 blocks, every one refused as it is and passed in its ASCII
        # form: one loadtxt call converts them all, and no cell is parsed.
        seq = VectorSequence(part(oracles.random_columns(11, 300, 24)))
        twin = tmp_path / "twin.csv"
        write_matrix(str(twin), seq)
        text = twin.read_text()
        path = tmp_path / "matrix.csv"
        path.write_text(text[: text.index("\n") + 1] + rewrite(text[text.index("\n") + 1 :]),
                        encoding="utf-8")
        calls, converted, parsed = read_spies(monkeypatch)
        back = read_matrix(str(path)).columns
        assert calls == [300] and parsed == [] and len(converted) == 300
        assert bits(back).tolist() == bits(read_matrix(str(twin)).columns).tolist()
        assert bits(back).tolist() == bits(seq.columns).tolist()

    def test_naming_pass_that_finds_the_file_changed_is_refused(self, tmp_path, monkeypatch):
        # A cell that overflowed is named by reading the rows again; a file
        # narrowed after its cells were read no longer holds it.
        path = tmp_path / "overflow.csv"
        path.write_text("1,1e400\n0,1\n")
        loadtxt = np.loadtxt

        def narrow_after(*args, **kwargs):
            matrix = loadtxt(*args, **kwargs)
            with open(path, "r+") as handle:
                handle.truncate(0)
                handle.write("1\n0\n")
            return matrix

        monkeypatch.setattr(matrixio.np, "loadtxt", narrow_after)
        with pytest.raises(MatrixParseError, match="changed while it was read"):
            read_matrix(str(path))

    @pytest.mark.parametrize(
        "part, ceiling", [(np.asarray, 1.5 * 2**20), (np.real, 0.75 * 2**20)], ids=["complex", "real"]
    )
    def test_reading_256_by_256_allocates_under_1_5_mb(self, part, ceiling, tmp_path):
        # The result, 1 MiB complex or 0.5 MiB real, is the one large
        # allocation: besides one line, no more than one block of rows, about
        # `matrixio._READ_CHARS` characters, is held, and a file without an
        # imaginary part is read as float64, with no complex array to demote.
        seq = VectorSequence(part(random_riesz(256, seed=3).columns))
        path = tmp_path / "riesz.csv"
        write_matrix(str(path), seq)
        peak, back = traced_peak(lambda: read_matrix(str(path)))
        assert bits(back.columns).tolist() == bits(seq.columns).tolist()
        assert peak < ceiling

    def test_real_valued_complex_array_is_copied_once_as_float64(self):
        # The constructor checks the imaginary parts before it copies, so the
        # 0.5 MiB float64 copy is the one large allocation, not a 1 MiB complex
        # copy and then its real parts.
        values = random_riesz(256, seed=3).columns.real.astype(complex)
        values.imag[::3] = -0.0
        peak, seq = traced_peak(lambda: VectorSequence(values))
        assert seq.columns.dtype == np.float64 and seq.columns.flags.c_contiguous
        assert bits(seq.columns).tolist() == bits(values.real).tolist()
        assert peak < 0.75 * 2**20

    @pytest.mark.parametrize(
        "edited", ["70,0,0", "70", "70+1i,0"], ids=["widened", "narrowed", "made-complex"]
    )
    def test_row_changed_inside_a_block_is_refused(self, edited, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("".join(f"{k},0\n" for k in range(100)))

        def rewrite(rows, width):
            text = path.read_text().replace("\n70,0\n", f"\n{edited}\n")
            with open(path, "r+") as handle:
                handle.truncate(0)
                handle.write(text)

        with pytest.raises(MatrixParseError, match="changed while it was read"):
            read_matrix(str(path), rewrite)


    @pytest.mark.parametrize("width", [3, 256])
    def test_ragged_row_beyond_the_first_block_is_named(self, width, tmp_path):
        # Blocks of 340 rows, or of 4; the ragged row is inside a block, which a
        # stream reading past the rows before it would meet and find changed.
        lines = [",".join(f"{k}.5-{j}i" for j in range(width)) for k in range(12000 // width)]
        ragged = 3 * len(lines) // 4
        lines[ragged] += ",0"
        assert block_rows(lines, ragged).start not in (0, ragged)
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MatrixParseError) as info:
            read_matrix(str(path))
        message = f"row {ragged + 1} has {width + 1} cells, expected {width}"
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "row, column, cell",
        [
            ("1.2.3,1", 1, "1.2.3"),  # a block that passes the block check, refused by numpy
            ("2i,1-2", 1, "2i"),  # as many "i" as imaginary signs, numpy refusing the second cell
            ("1,2i", 2, "2i"),  # a bare imaginary, which fails the block check
            ("x,1", 1, "x"),
        ],
        ids=["refused-by-numpy", "balanced-counts", "bare-imaginary", "other-character"],
    )
    def test_bad_cell_beyond_the_first_block_is_named(self, row, column, cell, tmp_path):
        # About 580 rows to a block; an overflow in the first block is outranked.
        lines = [f"{k},{k}.5-1e-3i" for k in range(3000)]
        lines[2] = "1e400,0"
        lines[2000] = row
        assert block_rows(lines, 2000).start > 0
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MatrixParseError) as info:
            read_matrix(str(path))
        message = f"row 2001, column {column}: invalid complex cell {cell!r}"
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edited", ["2500,0,0", "2500", "2500+1i,0"], ids=["widened", "narrowed", "made-complex"]
    )
    def test_row_changed_beyond_the_first_block_is_refused(self, edited, tmp_path):
        lines = [f"{k},0" for k in range(3000)]
        assert block_rows(lines, 2500).start > 0
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n")

        def rewrite(rows, width):
            text = path.read_text().replace("\n2500,0\n", f"\n{edited}\n")
            with open(path, "r+") as handle:
                handle.truncate(0)
                handle.write(text)

        with pytest.raises(MatrixParseError, match="changed while it was read"):
            read_matrix(str(path), rewrite)


class TestStreamedWrite:
    @pytest.mark.parametrize("rows, cols", [(300, 40), (3, 5000), (1, 1)])
    def test_file_matches_per_cell_reference(self, rows, cols, tmp_path):
        # Blocks of 102 rows (the last one short), of one row, and a single cell.
        columns = oracles.random_columns(rows, rows, cols)
        path = tmp_path / "m.csv"
        write_matrix(str(path), VectorSequence(columns))
        assert path.read_text() == oracles.matrix_text_by_cells(columns)

    def test_writing_512_by_512_holds_one_block(self, tmp_path):
        # The file's text, 10.8 MB here, is never held, let alone twice: the
        # peak is one block's, the same for 128 rows as for 512.
        peaks = {}
        for rows in (128, 512):
            seq = VectorSequence(oracles.random_columns(rows, rows, 512))
            path = tmp_path / f"m{rows}.csv"
            peaks[rows] = traced_peak(lambda: write_matrix(str(path), seq))[0]
        assert peaks[512] < 6e6
        assert peaks[512] < 1.1 * peaks[128]


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

    def test_refused_file_is_never_held(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("# dim=100000 count=2\n" + "1,0\n0,1\n" * 50_000)

        def refuse(rows, width):
            raise ValueError(f"{rows}x{width}")

        def refused_read():
            with pytest.raises(ValueError, match="^100000x2$"):
                read_matrix(str(path), refuse)

        assert traced_peak(refused_read)[0] < 2**20

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[: text.rindex("0,1")],  # truncated to one row
            lambda text: text + "0,1\n",  # a third row
            lambda text: text.replace("0,1", "0,1,2"),  # a wider row
            lambda text: "# dim=2 count=2\n" + text,  # a header
        ],
        ids=["truncated", "appended", "widened", "header-added"],
    )
    def test_file_changed_between_passes_is_refused(self, tmp_path, edit):
        # check_shape runs between the passes; the open file is edited in place.
        path = tmp_path / "matrix.csv"
        path.write_text("1,0\n0,1\n")

        def rewrite(rows, width):
            text = path.read_text()
            with open(path, "r+") as handle:
                handle.truncate(0)
                handle.write(edit(text))

        with pytest.raises(MatrixParseError, match="changed while it was read"):
            read_matrix(str(path), rewrite)

    def test_file_replaced_between_passes_reads_the_opened_file(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1,0\n0,1\n")
        seq = read_matrix(str(path), lambda rows, width: write_atomic(str(path), "5\n"))
        np.testing.assert_array_equal(seq.columns, np.eye(2))

    def test_blank_lines_are_skipped(self, tmp_path):
        # Blank lines before, between and after the rows, some of them spaces.
        path = tmp_path / "matrix.csv"
        path.write_text("\n  \n# dim=2 count=3\n\n1,0+2i,0\n \t\n\n0,1,-3\n\n  \n")
        plain = tmp_path / "plain.csv"
        plain.write_text("# dim=2 count=3\n1,0+2i,0\n0,1,-3\n")
        columns = read_matrix(str(path)).columns
        np.testing.assert_array_equal(columns, [[1, 2j, 0], [0, 1, -3]])
        assert columns.tobytes() == read_matrix(str(plain)).columns.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("")
        with pytest.raises(MatrixParseError, match="empty"):
            read_matrix(str(path))

    def test_text_shape(self):
        seq = VectorSequence.from_columns(np.eye(2))
        assert written_text(seq) == "# dim=2 count=2\n1,0\n0,1\n"


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

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_bytes(b"\xef\xbb\xbf# tau,mu\n0,0\n1,0.5\n")
        counts = []
        assert read_point_set(str(path), counts.append).nodes == ((0.0, 0.0), (1.0, 0.5))
        assert counts == [2]
        path.write_bytes(b"\xef\xbb\xbf0,0\n1,\xff\n")
        with pytest.raises(MatrixParseError, match=r"not UTF-8 text \(byte 9: invalid start byte\)"):
            read_point_set(str(path))

    def test_count_check_sees_node_lines_before_any_conversion(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("# tau,mu\n\n0,0\n  \n1,0\n# end\nnot,numbers\n")

        def refuse(count):
            raise ValueError(f"{count} node lines")

        with pytest.raises(ValueError, match="^3 node lines$"):
            read_point_set(str(path), refuse)
        counts = []
        ok = tmp_path / "ok.csv"
        ok.write_text("# tau,mu\n0,0\n\n1,0\n")
        assert read_point_set(str(ok), counts.append).nodes == ((0.0, 0.0), (1.0, 0.0))
        assert counts == [2]

    def test_refused_file_is_never_held(self, tmp_path):
        # 100 000 node lines (1.2 MB of text) would take several MB as a list of lines.
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{i % 300},{i // 300}\n" for i in range(100_000)))

        def refuse(count):
            raise ValueError(f"{count} node lines")

        def refused_read():
            with pytest.raises(ValueError, match="^100000 node lines$"):
                read_point_set(str(path), refuse)

        assert traced_peak(refused_read)[0] < 2**20

    @pytest.mark.parametrize(
        "edit", ["0,0\n", "0,0\n1,0\n2,0\n"], ids=["truncated", "appended"]
    )
    def test_file_changed_between_passes_is_refused(self, tmp_path, edit):
        # check_count runs between the passes; the open file is edited in place.
        path = tmp_path / "nodes.csv"
        path.write_text("0,0\n1,0\n")

        def rewrite(count):
            with open(path, "r+") as handle:
                handle.truncate(0)
                handle.write(edit)

        with pytest.raises(MatrixParseError, match="changed while it was read"):
            read_point_set(str(path), rewrite)

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, FLOAT_MAX, -FLOAT_MAX])] * 2),
            min_size=1, max_size=40, unique=True,
        )
    )
    @example(nodes=[(-0.0, 5e-324), (FLOAT_MAX, -FLOAT_MAX), (-5e-324, 0.0), (-FLOAT_MAX, 1.0)])
    def test_write_read_round_trip_is_bit_exact(self, nodes, scratch_path):
        # Distinct as float pairs, as a PointSet2D requires; read back in order.
        write_point_set(str(scratch_path), PointSet2D(nodes))
        back = read_point_set(str(scratch_path)).nodes
        assert bits(back).tolist() == bits(nodes).tolist()

    def test_one_loadtxt_call_per_read(self, tmp_path, monkeypatch):
        path = tmp_path / "nodes.csv"
        path.write_text("# tau,mu\n" + "".join(f"{i % 60},{i // 60}\n" for i in range(3000)))
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(kwargs["max_rows"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(matrixio.np, "loadtxt", spy)
        points = read_point_set(str(path))
        assert calls == [3000]
        assert points.nodes[-1] == (59.0, 49.0)

    @pytest.mark.parametrize("row", ["1", "1,2,3"])
    def test_first_row_of_another_width_is_refused(self, row, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text(f"# tau,mu\n{row}\n0,0\n")
        with pytest.raises(MatrixParseError) as info:
            read_point_set(str(path))
        assert str(info.value) == f"{path}: a point set needs two columns, got {row.count(',') + 1}"

    @pytest.mark.parametrize("cell", ["1+2i", "1+0i"])
    def test_complex_coordinates_are_refused(self, cell, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text(f"0,0\n{cell},1\n")
        with pytest.raises(MatrixParseError) as info:
            read_point_set(str(path))
        assert str(info.value) == f"{path}: coordinates must be real"

    def test_bad_line(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(MatrixParseError, match="row 2 has 1 cells, expected 2"):
            read_point_set(str(path))

    @pytest.mark.parametrize("cell", ["1e400", "nan", "inf"])
    def test_non_finite_coordinate_names_its_line(self, cell, tmp_path):
        # As in a matrix file: a cell that overflows reads as non-finite, and
        # "nan" and "inf" are outside the cell grammar.
        path = tmp_path / "nodes.csv"
        path.write_text(f"0,0\n1, {cell}\n{cell},2\n")
        with pytest.raises(MatrixParseError) as info:
            read_point_set(str(path))
        reason = "non-finite cell" if cell == "1e400" else "invalid complex cell"
        assert str(info.value) == f"{path}: row 2, column 2: {reason} {cell!r}"

    @pytest.mark.parametrize("cell", ["1_0", " 1_000.5", "-2_5e1"])
    def test_coordinate_outside_the_number_grammar_names_its_line(self, cell, tmp_path):
        # float() reads each of these; the cell grammar refuses them.
        path = tmp_path / "nodes.csv"
        path.write_text(f"0,0\n1,{cell}\n")
        with pytest.raises(MatrixParseError) as info:
            read_point_set(str(path))
        assert str(info.value) == f"{path}: row 2, column 2: invalid complex cell {cell.strip()!r}"

    def test_coordinates_read_as_numbers_of_the_cell_grammar(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("\t+1.5e0 , .5\n-0,1.\n\u0661,2E-1\n")
        nodes = read_point_set(str(path)).nodes
        assert nodes == ((1.5, 0.5), (-0.0, 1.0), (1.0, 0.2))
        assert math.copysign(1.0, nodes[1][0]) == -1.0

    def test_duplicate_nodes_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0,0\n0,0\n")
        with pytest.raises(MatrixParseError):
            read_point_set(str(path))

    def test_text_format(self, tmp_path):
        path = tmp_path / "nodes.csv"
        write_point_set(str(path), PointSet2D(((0.0, 0.5), (-1.5, 0.1))))
        assert path.read_text() == "0,0.5\n-1.5,0.10000000000000001\n"

    def test_reading_3000_nodes_allocates_under_5_mb(self, tmp_path):
        # Distinctness needs no N x N array, so the peak grows with N alone.
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{i % 60},{i // 60}\n" for i in range(3000)))
        peak, points = traced_peak(lambda: read_point_set(str(path)))
        assert len(points) == 3000
        assert peak < 5 * 2**20


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

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        path.chmod(0o640)
        write_atomic(str(path), "new")
        assert path.read_text() == "new"
        assert path.stat().st_mode & 0o777 == 0o640

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

    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(str(path), iter(["a,", "b\n", "", "c\n"]))
        assert path.read_text() == "a,b\nc\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replaced"])
    def test_failing_chunks_leave_the_path_as_it_was(self, existing, tmp_path):
        path = tmp_path / "out.txt"
        if existing:
            path.write_bytes(b"old\n")
            path.chmod(0o640)

        def chunks():
            yield "first block\n"
            raise RuntimeError("second block failed")

        with pytest.raises(RuntimeError, match="second block failed"):
            write_atomic(str(path), chunks())
        assert not list(tmp_path.glob("*.tmp"))
        if existing:
            assert path.read_bytes() == b"old\n"
            assert path.stat().st_mode & 0o777 == 0o640
        else:
            assert list(tmp_path.iterdir()) == []
