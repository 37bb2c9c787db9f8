"""File formats: complex-matrix CSV, point-set CSV, JSON reports.

Matrix cells are whitespace-free complex numbers, "a" or "a+bi"/"a-bi" with
decimal or scientific mantissas ("1-2i", "3", "0+1i"); whitespace around a
cell is ignored.  Values are written with 17 significant digits and the
imaginary part only when it is nonzero, so a write/read round trip
reproduces every float64 exactly, except that an imaginary -0.0 reads back
as 0.0.  Matrix files carry a header line "# dim=<n> count=<m>" which, when
present on input, must match the parsed shape.  On read, every row is matched
against the ASCII row grammar; rows that match are converted in blocks of up
to `_BLOCK_ROWS` by one `np.loadtxt` each, and rows outside it (other
whitespace, non-ASCII digits, a bad cell) take the per-cell path with its row
and column messages.  On write, one `%` format per row.  All writes go
through a temp file plus rename.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import stat
from contextlib import contextmanager, suppress

import numpy as np

from .errors import MatrixParseError
from .generators import PointSet2D
from .seqcore import VectorSequence

SCHEMA_VERSION = 1

# Possessive quantifiers (Python 3.11+) never give characters back.  That loses
# no match here: each run ends only at a character it cannot take (a digit run
# at ".", "e", a sign, "i", a space, "," or the end), so the greedy forms accept
# the same cells and rows; the matcher just skips attempts that cannot succeed.
_UNSIGNED = r"(?:\d++(?:\.\d*+)?+|\.\d++)(?:[eE][+-]?+\d++)?+"
_NUMBER = rf"[+-]?+{_UNSIGNED}"
_CELL = rf"{_NUMBER}(?:[+-]{_UNSIGNED}i)?+"
_CELL_RE = re.compile(_CELL)
# A whole row of cells with spaces or tabs around them.  ASCII-only, so a row
# with other whitespace or non-ASCII digits takes the per-cell path, which
# accepts or rejects it exactly as `parse_complex` does.
_PADDED_CELL = rf"[ \t]*+{_CELL}[ \t]*+"
_ROW_RE = re.compile(rf"{_PADDED_CELL}(?:,{_PADDED_CELL})*+", re.ASCII)
# Grammar-checked rows converted by one `np.loadtxt` call: enough to spread its
# fixed cost, few enough that no more than one block of lines is ever held.
_BLOCK_ROWS = 64
_HEADER_RE = re.compile(r"^#\s*dim=(\d+)\s+count=(\d+)\s*$")
# Cell templates by the sign of the imaginary part: zero, positive, negative.
_REAL_CELL, _PLUS_CELL, _MINUS_CELL = "%.17g", "%.17g+%.17gi", "%.17g-%.17gi"


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def parse_complex(cell: str) -> complex:
    if not _CELL_RE.fullmatch(cell):
        raise MatrixParseError(f"invalid complex cell {cell!r}")
    # The grammar admits no "j", "_", parentheses or spaces, so complex() reads
    # each part exactly as float() would.
    return complex(cell.replace("i", "j"))


def write_atomic(path: str, text: str) -> None:
    """Temp file plus rename; an OSError names `path`, and no temp file remains.
    As with open(path, "w"), a new file gets 0o666 under the umask and a
    replaced file keeps its mode."""
    tmp_path = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"{secrets.token_hex(8)}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_path = name  # only once created: a file that was there is not ours to remove
        with suppress(FileNotFoundError):
            os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _row_text(row: np.ndarray) -> str:
    """One matrix row as CSV: one template per cell, one `%` over the row's values."""
    templates, values = [], []
    for real, imag in zip(row.real.tolist(), row.imag.tolist()):
        if imag == 0.0:
            templates.append(_REAL_CELL)
            values.append(real)
        else:
            templates.append(_PLUS_CELL if imag > 0 else _MINUS_CELL)
            values += (real, abs(imag))
    return ",".join(templates) % tuple(values)


def matrix_text(seq: VectorSequence) -> str:
    lines = [f"# dim={seq.dim} count={seq.count}"]
    lines.extend(_row_text(row) for row in seq.columns)
    return "\n".join(lines) + "\n"


def write_matrix(path: str, seq: VectorSequence) -> None:
    write_atomic(path, matrix_text(seq))


@contextmanager
def _text(path: str):
    """The file opened for reading, to be iterated line by line; text that is
    not UTF-8 fails to parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _changed(path: str) -> MatrixParseError:
    """The error for a file whose second pass does not read what its first pass saw."""
    return MatrixParseError(f"{path}: file changed while it was read")


def _parse_cells(path: str, i: int, line: str) -> list:
    """Row `i` cell by cell, for rows outside the fast grammar; errors name row and column."""
    row = []
    for j, cell in enumerate(line.split(","), start=1):
        try:
            row.append(parse_complex(cell.strip()))
        except MatrixParseError as exc:
            raise MatrixParseError(f"{path}: row {i}, column {j}: {exc}") from exc
    return row


def _load_rows(block: list, matrix: np.ndarray, stop: int) -> None:
    """Converts `block`, grammar-checked rows with "j" for "i", into the rows of
    `matrix` that end before `stop`, and empties it.  The grammar admits no
    parentheses, "j", "inf" or "nan", so `np.loadtxt` reads each part as
    float() would, to the same bits."""
    if block:
        matrix[stop - len(block) : stop] = np.loadtxt(
            block, dtype=complex, delimiter=",", ndmin=2, comments=None
        )
        block.clear()


def _matrix_layout(handle):
    """One pass over an open matrix file, keeping no line: the header (a first
    non-blank line starting with "#", else None), the number of non-blank data
    lines, the cell count of the first of them, and the index and cell count
    of the first one whose cell count differs (None if none does)."""
    header, rows, width, ragged = None, 0, None, None
    for line in handle:
        if line.isspace():
            continue
        if not rows and header is None and line.lstrip().startswith("#"):
            header = line.rstrip("\n")
            continue
        cells = line.count(",") + 1
        if width is None:
            width = cells
        elif ragged is None and cells != width:
            ragged = (rows, cells)
        rows += 1
    return header, rows, width, ragged


def read_matrix(path: str, check_shape=None) -> VectorSequence:
    """The matrix file at `path` as a VectorSequence.  `check_shape`, if
    given, is called with the data row count and the first row's width as
    soon as both are known, before any cell is converted or any array
    allocated; it refuses the file by raising.  The open file is read twice:
    once for its shape, which `check_shape` sees, one line at a time, and once
    for its cells, holding at most `_BLOCK_ROWS` lines, so a refused file is
    never held in memory.  A second pass that does not find the first pass's
    rows raises `MatrixParseError`."""
    with _text(path) as handle:
        header, rows, width, ragged = _matrix_layout(handle)
        if header is None and not rows:
            raise MatrixParseError(f"{path}: empty matrix file")
        expected_shape = None
        if header is not None:
            match = _HEADER_RE.match(header.strip())
            if not match:
                raise MatrixParseError(f"{path}: malformed header {header!r}")
            expected_shape = (int(match.group(1)), int(match.group(2)))
        if not rows:
            raise MatrixParseError(f"{path}: header but no data rows")
        if check_shape is not None:
            check_shape(rows, width)
        # Only the rows before the first ragged one are allocated, so the array is
        # never larger than the text; their cells are checked before that row's error.
        matrix = np.empty((rows if ragged is None else ragged[0], width), dtype=complex)
        handle.seek(0)
        data = (line.rstrip("\n") for line in handle if not line.isspace())
        if header is not None:
            next(data, None)
        seen, block = 0, []
        for line in data:
            if seen < len(matrix):
                if _ROW_RE.fullmatch(line):
                    if line.count(",") + 1 != width:
                        raise _changed(path)
                    block.append(line.replace("i", "j"))
                    if len(block) == _BLOCK_ROWS:
                        _load_rows(block, matrix, seen + 1)
                else:
                    _load_rows(block, matrix, seen)
                    row = _parse_cells(path, seen + 1, line)
                    if len(row) != width:
                        raise _changed(path)
                    matrix[seen] = row
            seen += 1
    if seen != rows:
        raise _changed(path)
    if ragged is not None:
        raise MatrixParseError(f"{path}: row {ragged[0] + 1} has {ragged[1]} cells, expected {width}")
    if expected_shape is not None and matrix.shape != expected_shape:
        raise MatrixParseError(
            f"{path}: header announces shape {expected_shape}, parsed {matrix.shape}"
        )
    _load_rows(block, matrix, len(matrix))
    try:
        return VectorSequence._adopt(matrix)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def point_set_text(points: PointSet2D) -> str:
    lines = [f"{format_float(t)},{format_float(m)}" for t, m in points.nodes]
    return "\n".join(lines) + "\n"


def write_point_set(path: str, points: PointSet2D) -> None:
    write_atomic(path, point_set_text(points))


def _is_node_line(text: str) -> bool:
    return bool(text) and not text.startswith("#")


def read_point_set(path: str, check_count=None) -> PointSet2D:
    """The point-set file at `path`.  `check_count`, if given, is called with the
    number of node lines before any cell is converted; it refuses by raising.
    The count comes from a first pass over the open file that keeps no line,
    so a refused file is never held in memory; a second pass that does not
    find that many node lines raises `MatrixParseError`."""
    with _text(path) as handle:
        count = sum(_is_node_line(line.strip()) for line in handle)
        if check_count is not None:
            check_count(count)
        handle.seek(0)
        nodes = []
        for i, line in enumerate(handle, start=1):
            text = line.strip()
            if not _is_node_line(text):
                continue
            cells = text.split(",")
            if len(cells) != 2:
                raise MatrixParseError(f"{path}: line {i} needs two columns, got {len(cells)}")
            try:
                nodes.append((float(cells[0]), float(cells[1])))
            except ValueError as exc:
                raise MatrixParseError(f"{path}: line {i}: {exc}") from exc
    if len(nodes) != count:
        raise _changed(path)
    if not nodes:
        raise MatrixParseError(f"{path}: no nodes found")
    try:
        return PointSet2D(tuple(nodes))
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def finite_or_none(value):
    """JSON reports hold only finite numbers; anything else becomes null."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def report_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(path: str, payload: dict) -> None:
    write_atomic(path, report_text(payload))
