"""File formats: complex-matrix CSV, point-set CSV, JSON reports.

Matrix cells are whitespace-free complex numbers, "a" or "a+bi"/"a-bi" with
decimal or scientific mantissas ("1-2i", "3", "0+1i").  Values are written
with 17 significant digits, so a write/read round trip reproduces every
float64 exactly.  Matrix files carry a header line "# dim=<n> count=<m>"
which, when present on input, must match the parsed shape.  All writes go
through a temp file plus rename.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import numpy as np

from .errors import MatrixParseError
from .generators import PointSet2D
from .seqcore import VectorSequence

SCHEMA_VERSION = 1

_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_CELL_RE = re.compile(rf"^({_NUMBER})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")
_HEADER_RE = re.compile(r"^#\s*dim=(\d+)\s+count=(\d+)\s*$")


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def format_complex(value: complex) -> str:
    z = complex(value)
    real = format_float(z.real)
    if z.imag == 0.0:
        return real
    sign = "+" if z.imag > 0 else "-"
    return f"{real}{sign}{format_float(abs(z.imag))}i"


def parse_complex(cell: str) -> complex:
    match = _CELL_RE.match(cell)
    if not match:
        raise MatrixParseError(f"invalid complex cell {cell!r}")
    real, imag = match.groups()
    return complex(float(real), float(imag) if imag else 0.0)


def write_atomic(path: str, text: str) -> None:
    """Temp file plus rename; an OSError names `path`, and no temp file remains."""
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def matrix_text(seq: VectorSequence) -> str:
    lines = [f"# dim={seq.dim} count={seq.count}"]
    for row in seq.columns:
        lines.append(",".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def write_matrix(path: str, seq: VectorSequence) -> None:
    write_atomic(path, matrix_text(seq))


def _read_lines(path: str) -> list:
    """The file's lines without their newlines; text that is not UTF-8 fails to parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle]
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def read_matrix(path: str) -> VectorSequence:
    lines = [line for line in _read_lines(path) if line.strip()]
    if not lines:
        raise MatrixParseError(f"{path}: empty matrix file")
    expected_shape = None
    if lines[0].lstrip().startswith("#"):
        match = _HEADER_RE.match(lines[0].strip())
        if not match:
            raise MatrixParseError(f"{path}: malformed header {lines[0]!r}")
        expected_shape = (int(match.group(1)), int(match.group(2)))
        lines = lines[1:]
    if not lines:
        raise MatrixParseError(f"{path}: header but no data rows")
    rows = []
    width = None
    for i, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixParseError(
                f"{path}: row {i} has {len(cells)} cells, expected {width}"
            )
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                row.append(parse_complex(cell.strip()))
            except MatrixParseError as exc:
                raise MatrixParseError(f"{path}: row {i}, column {j}: {exc}") from exc
        rows.append(row)
    matrix = np.asarray(rows, dtype=complex)
    if expected_shape is not None and matrix.shape != expected_shape:
        raise MatrixParseError(
            f"{path}: header announces shape {expected_shape}, parsed {matrix.shape}"
        )
    try:
        return VectorSequence.from_columns(matrix)
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc


def point_set_text(points: PointSet2D) -> str:
    lines = [f"{format_float(t)},{format_float(m)}" for t, m in points.nodes]
    return "\n".join(lines) + "\n"


def write_point_set(path: str, points: PointSet2D) -> None:
    write_atomic(path, point_set_text(points))


def read_point_set(path: str) -> PointSet2D:
    nodes = []
    for i, line in enumerate(_read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        cells = text.split(",")
        if len(cells) != 2:
            raise MatrixParseError(f"{path}: line {i} needs two columns, got {len(cells)}")
        try:
            nodes.append((float(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise MatrixParseError(f"{path}: line {i}: {exc}") from exc
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
