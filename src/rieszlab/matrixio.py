"""File formats: complex-matrix CSV, point-set CSV, JSON reports.

Matrix cells are whitespace-free complex numbers, "a" or "a+bi"/"a-bi" with
decimal or scientific mantissas ("1-2i", "3", "0+1i"); whitespace around a
cell is ignored.  Values are written with 17 significant digits and the
imaginary part unless it is +0.0 (an imaginary -0.0 is written "-0i"), so a
write/read round trip reproduces every float64 exactly.  Matrix files carry a header line "# dim=<n> count=<m>" which, when
present on input, must match the parsed shape.  A point-set file is a real
two-column matrix file without a header, one node (tau, mu) a row; its blank
and "#" lines are skipped.  Both are read by `_read_table`: a
leading UTF-8 byte-order mark is skipped, and one `np.loadtxt` call converts
the whole file from a stream of checked rows, to float64 when no data line
contains an "i".  The rows are checked a block of about `_READ_CHARS`
characters at a time, on one accept path: a block that `_plain` passes, as
it is or else in its ASCII form (the form in which float() reads text),
goes in, as numpy reads no cell of it that the grammar refuses.  On the one
error path (a block refused in both forms, a cell numpy refuses, or a cell
that overflows float64) `_name_error` reads the rows again cell by cell and
names the first bad cell, else the first cell that overflows, by row and
column.  On write, blocks of about `_WRITE_CELLS` cells are formatted in
numpy with the exact digits of "%.17g", and `format_float` formats the rare
value whose digits the fast route cannot certify; each block is written as
soon as it is formatted, so a matrix file is never held in memory.  All
writes go through a temp file plus rename.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import re
import stat
import unicodedata
from contextlib import contextmanager, suppress
from itertools import chain, islice

import numpy as np

from .errors import MatrixParseError
from .generators import PointSet2D
from .seqcore import VectorSequence

SCHEMA_VERSION = 1

# Possessive quantifiers (Python 3.11+) never give characters back.  That loses
# no match here: each run ends only at a character it cannot take (a digit run
# at ".", "e", a sign, "i" or the end), so the greedy forms accept the same
# cells; the matcher just skips attempts that cannot succeed.
_UNSIGNED = r"(?:\d++(?:\.\d*+)?+|\.\d++)(?:[eE][+-]?+\d++)?+"
_NUMBER = rf"[+-]?+{_UNSIGNED}"
_CELL = rf"{_NUMBER}(?:[+-]{_UNSIGNED}i)?+"
_CELL_RE = re.compile(_CELL)
# Characters of the rows `_plain` checks together.  A block's rows and their
# joined text are all the stream holds besides `np.loadtxt`'s own state; a
# block of 64 K characters set the traced peak of `analyze` of a 64 x 64 file.
_READ_CHARS = 8192
# `_plain`'s class of each byte: a digit or "." (1), a sign (2), "i" (3), the
# grammar's other characters (4), and 0 for any other byte.
_KIND_DIGIT, _KIND_SIGN, _KIND_UNIT = 1, 2, 3
_KINDS = bytes(
    next((kind for kind, chars in enumerate(("0123456789.", "+-", "i", "eE, \t"), start=1)
          if chr(byte) in chars), 0)
    for byte in range(256)
)
# Cells formatted and written together (at least one row): enough to spread
# numpy's per-call cost.  Writing peaks at about 2.8 MB traced, about 690
# bytes a cell of a block, 0.2 MB of it the text of the block before, which
# `_matrix_chunks` holds.  As blocks are written one at a time, that is the
# writer's whole footprint whatever the matrix size.
_WRITE_CELLS = 4096
_HEADER_RE = re.compile(r"^#\s*dim=(\d+)\s+count=(\d+)\s*$")


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def parse_complex(cell: str) -> complex:
    if not _CELL_RE.fullmatch(cell):
        raise MatrixParseError(f"invalid complex cell {cell!r}")
    # The grammar admits no "j", "_", parentheses or spaces, so complex() reads
    # each part exactly as float() would.
    return complex(cell.replace("i", "j"))


def write_atomic(path: str, text) -> None:
    """`text`, one str or an iterable of str chunks written in order, to `path`
    through a temp file plus rename.  An OSError names `path`; on any error no
    temp file remains and `path` is left as it was.  As with open(path, "w"),
    a new file gets 0o666 under the umask and a replaced file keeps its mode."""
    tmp_path = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_path = name  # only once created: a file that was there is not ours to remove
        with suppress(FileNotFoundError):
            os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


# Matrix text is built in numpy, `_WRITE_CELLS` cells at a time, with the
# digits of `format_float` (Python's correctly rounded "%.17g").  A nonzero
# |x| = m * 2**e, 0.5 <= m < 1, has decimal exponent k (10**k <= |x| <
# 10**(k + 1)) and 17-digit significand N = round(m * C), C = 2**e * 10**(16 -
# k), where 10**16 <= m * C < 10**17.  For each binary exponent e, k takes one
# of two values, told apart by a threshold on m, and both scales C are held as
# double-doubles C_hi + C_lo, all computed once from exact integers.
# m * C_hi = hi + l exactly (Dekker's TwoProduct with Veltkamp's split, as
# numpy has no fused multiply-add), and lo = l + m * C_lo is within 1e-14 of
# m * C - hi: hi < 2**57 gives |l| <= 8, and C_hi < 2e17 gives m * C_lo <=
# 2**-53 * C_hi < 23, so the two roundings in lo cost at most 2**-53 * (23 +
# 31) < 6e-15, and the double-double's own error m * |C - C_hi - C_lo| is at
# most 2**-106 * C_hi < 3e-15.
# hi is an even integer (at least 10**16 > 2**53), so N = hi + rint(lo) is
# certain whenever lo is farther than `_TIE_MARGIN` (far above 1e-14) from an
# integer plus 1/2; N = 10**17 carries into N = 10**16 and k + 1.  Any other
# value, a decimal tie included, is formatted by `format_float`.
_EMIN = -1073  # np.frexp(5e-324) == (0.5, -1073)
_EXPONENTS = 1024 - _EMIN + 1
_TIE_MARGIN = 2.0**-40
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for 53-bit significands
# A value's text is laid out in `_WIDTH` byte slots, of which a mask picks its
# characters: the lead (a cell's "," or "\n", before the real part), the sign
# (or the "+"/"-" before an imaginary part), "0.000" for -4 <= k < 0, the 17
# digits with a "." slot after each of the first 16, "e", the exponent's sign
# and three digits, and the tail ("i" after an imaginary part).
_LEAD, _SIGN, _ZERO, _POINT, _ZEROS, _DIGITS, _EXP, _TAIL = 0, 1, 2, 3, 4, 7, 40, 45
_WIDTH = 46
# Layouts: fixed notation for k = -4..16 (forms 0..20), then exponents of two
# and of three digits; a layout is (variant, form, significant digits 1..17).
_FORMS = 23
_REAL, _REAL_NEGATIVE, _IMAG, _NO_IMAG = range(4)


def _ratio(e: int, q: int) -> tuple:
    """2**e * 10**q as a numerator and a denominator, both integers."""
    return 2 ** max(e, 0) * 10 ** max(q, 0), 2 ** max(-e, 0) * 10 ** max(-q, 0)


def _double_double(num: int, den: int) -> tuple:
    """num / den as hi + lo, each correctly rounded, as int / int is."""
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


@functools.cache
def _binade(e: int) -> tuple:
    """For |x| = m * 2**e with 0.5 <= m < 1: the least m at which the decimal
    exponent k is one more than at m = 0.5 (1.0 if none), then k at m = 0.5
    and one more, and for each the scale C = 2**e * 10**(16 - k) as a
    double-double."""
    k = math.floor((e - 1) * math.log10(2))  # floor(log10(2**(e - 1))), or one off
    num, den = _ratio(e - 1, -k)  # 2**(e - 1) / 10**k, in [1, 10) for the right k
    k += (num >= 10 * den) - (num < den)
    num, den = _ratio(-e, k + 1)  # 10**(k + 1) / 2**e, rounded up below
    threshold = min(num / den, 1.0)
    p, q = threshold.as_integer_ratio()
    if p * den < num * q:
        threshold = math.nextafter(threshold, 1.0)
    scales = [_double_double(*_ratio(e, 16 - j)) for j in (k, k + 1)]
    return threshold, ((k, k + 1), *zip(*scales))


def _veltkamp(a: np.ndarray) -> tuple:
    """a split into a high part of 26 bits and the rest, both exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _slots(form: int, digits: int) -> list:
    """The slots of a value in `form` with `digits` significant digits, without
    lead, sign or tail: the rules of "%.17g" after trailing zeros are stripped."""
    shown = [_DIGITS + 2 * i for i in range(digits)]
    if form >= 21:
        point = [_DIGITS + 1] if digits > 1 else []
        return shown + point + [_EXP, _EXP + 1, _EXP + 3, _EXP + 4] + [_EXP + 2] * (form == 22)
    k = form - 4
    if k < 0:
        return [_ZERO, _POINT, *range(_ZEROS, _ZEROS - k - 1), *shown]
    point = [_DIGITS + 2 * k + 1] if digits > k + 1 else []
    return [_DIGITS + 2 * i for i in range(max(digits, k + 1))] + point


@functools.cache
def _tables() -> tuple:
    """The masks of every layout, the ASCII text of 0000..9999 as uint32 words,
    and the trailing zeros of each of those four-digit groups (4 for 0000)."""
    value = np.zeros((_FORMS, 18, _WIDTH), dtype=bool)
    for form in range(_FORMS):
        for digits in range(1, 18):
            value[form, digits, _slots(form, digits)] = True
    masks = np.zeros((4, _FORMS, 18, _WIDTH), dtype=bool)
    masks[:_NO_IMAG] = value
    masks[[_REAL, _REAL_NEGATIVE], :, :, _LEAD] = True
    masks[[_REAL_NEGATIVE, _IMAG], :, :, _SIGN] = True
    masks[_IMAG, :, :, _TAIL] = True
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + ord("0")
    words = np.ascontiguousarray(digits).view(np.uint32).reshape(-1)
    zeros = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5))
    return masks.reshape(-1, _WIDTH), words, zeros


def _significands(a: np.ndarray) -> tuple:
    """For each a >= 0: the 17 significant digits N of its "%.17g" text as an
    integer, its decimal exponent k, and whether N and k are certified; N and
    k are 0 where they are not, and where a is 0."""
    m, e = np.frexp(a)
    binade = e - _EMIN
    present = np.zeros(_EXPONENTS, dtype=bool)
    present[binade] = True
    thresholds = np.ones(_EXPONENTS)
    pairs = np.zeros((3, _EXPONENTS, 2))
    for i in np.flatnonzero(present).tolist():
        thresholds[i], pairs[:, i] = _binade(i + _EMIN)
    key = 2 * binade + (m >= thresholds[binade])
    k, c_hi, c_lo = (np.take(table.reshape(-1), key) for table in pairs)
    hi = m * c_hi
    m1, m2 = _veltkamp(m)
    c1, c2 = _veltkamp(c_hi)
    lo = (((m1 * c1 - hi) + m1 * c2 + m2 * c1) + m2 * c2) + m * c_lo
    rounded = np.rint(lo)
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    exact = (np.abs(lo - rounded) < 0.5 - _TIE_MARGIN) & (n >= 10**16) & (n <= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    n[~exact] = 0
    return n, np.where(exact, k.astype(np.intp) + carry, 0), exact


def _block_text(block: np.ndarray, template: np.ndarray) -> str:
    """The rows of `block` as CSV text, each row led by "\n"; `template`
    holds the constant slots of one row's values."""
    masks, words, group_zeros = _tables()
    v = block.view(float).reshape(-1)
    a = np.abs(v)
    n, k, exact = _significands(a)
    first, rest = np.divmod(n, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (first, *np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    text = np.empty((v.size, 5), dtype=np.uint32)
    for j, group in enumerate(groups):
        text[:, j] = np.take(words, group)
    digits = text.view(np.uint8)[:, 3:]
    significant = 17 - np.take(group_zeros, groups[-1])
    ends = np.flatnonzero(groups[-1] == 0)
    significant[ends] = 17 - np.argmax(digits[ends, ::-1] != ord("0"), axis=1)
    significant[~exact] = 1

    scientific = (k < -4) | (k > 16)
    form = np.where(scientific, 21 + (np.abs(k) >= 100), k + 4)
    variant = np.empty((v.size // 2, 2), dtype=np.intp)
    variant[:, 0] = np.signbit(v[0::2])
    variant[:, 1] = np.where((v[1::2] == 0.0) & ~np.signbit(v[1::2]), _NO_IMAG, _IMAG)
    mask = np.take(masks, (variant.reshape(-1) * _FORMS + form) * 18 + significant, axis=0)

    out = np.empty((len(block), template.size), dtype=np.uint8)
    out[:] = template.reshape(-1)
    out = out.reshape(v.size, _WIDTH)
    out[:, _DIGITS : _DIGITS + 33 : 2] = digits
    out[1::2, _SIGN] = np.where(v[1::2] > 0, ord("+"), ord("-"))
    wide = np.flatnonzero(scientific)
    out[wide, _EXP + 1] = np.where(k[wide] < 0, ord("-"), ord("+"))
    out[wide, _EXP + 2 : _EXP + 5] = np.take(words, np.abs(k[wide])).view(np.uint8).reshape(-1, 4)[:, 1:]
    for i in np.flatnonzero(~exact & (a > 0)).tolist():
        value = format_float(a[i]).encode()
        mask[i, _ZERO:_TAIL] = False
        mask[i, _ZERO : _ZERO + len(value)] = True
        out[i, _ZERO : _ZERO + len(value)] = np.frombuffer(value, dtype=np.uint8)
    # The unselected slots become NUL bytes, which no text holds, and are dropped.
    out *= mask
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _matrix_chunks(seq: VectorSequence):
    """The matrix file's text in chunks: the header, then one chunk per block
    of about `_WRITE_CELLS` cells, then the final newline.  Each chunk is
    handed out once the block after it is formatted: held meanwhile, the text
    (the block's last allocation) keeps the heap's top in use, so glibc cannot
    return the block's freed buffers to the system and the next block reuses
    them.  Handed out as soon as formatted, repeated 256 x 256 writes took
    about 1.5 times as long, each faulting in about 12 600 pages against about
    1 000 (x86_64, glibc)."""
    rows, cols = seq.columns.shape
    # The constant slots of one row's values: two per cell, the real part first.
    template = np.zeros((cols, 2, _WIDTH), dtype=np.uint8)
    template[..., _SIGN] = ord("-")
    template[..., [_ZERO, *range(_ZEROS, _ZEROS + 3)]] = ord("0")
    template[..., [_POINT, *range(_DIGITS + 1, _DIGITS + 32, 2)]] = ord(".")
    template[..., _EXP] = ord("e")
    template[:, 0, _LEAD] = ord(",")
    template[0, 0, _LEAD] = ord("\n")
    template[:, 1, _TAIL] = ord("i")
    step = max(1, _WRITE_CELLS // cols)
    held = f"# dim={rows} count={cols}"
    for i in range(0, rows, step):
        # A real system's block is formatted as complex with zero imaginary parts.
        text = _block_text(seq.columns[i : i + step].astype(complex, copy=False), template)
        yield held
        held = text
    yield held
    yield "\n"


def write_matrix(path: str, seq: VectorSequence) -> None:
    """The matrix file of `seq` at `path`, written one block at a time, so
    that no more than one block's text is held whatever the matrix size."""
    write_atomic(path, _matrix_chunks(seq))


@contextmanager
def _text(path: str):
    """The file opened for reading, to be iterated line by line; text that is
    not UTF-8 fails to parse.  A leading UTF-8 byte-order mark is skipped, also
    after `seek(0)`."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            # exc.start counts from the start of the bytes the decoder was last
            # given, which end at the file position.
            byte = handle.buffer.tell() - len(exc.object) + exc.start
            raise MatrixParseError(f"{path}: not UTF-8 text (byte {byte}: {exc.reason})") from exc


def _changed(path: str) -> MatrixParseError:
    """The error for a file whose second pass does not read what its first pass saw."""
    return MatrixParseError(f"{path}: file changed while it was read")


def _parse_cells(path: str, i: int, line: str) -> list:
    """The values of row `i`, read cell by cell; a bad cell's error names row and column."""
    row = []
    for j, cell in enumerate(line.split(","), start=1):
        try:
            row.append(parse_complex(cell.strip()))
        except MatrixParseError as exc:
            raise MatrixParseError(f"{path}: row {i}, column {j}: {exc}") from exc
    return row


def _name_error(path: str, data):
    """Raise the error of a file whose fast read stopped, from its kept rows
    `data` read cell by cell: the first bad cell's, else the first
    non-finite cell's, else the file changed while it was read, as then the
    fast read met rows that are not there now."""
    overflow = None
    for i, line in enumerate(data, start=1):
        for j, value in enumerate(_parse_cells(path, i, line), start=1):
            if overflow is None and not cmath.isfinite(value):
                cell = line.split(",")[j - 1].strip()
                overflow = MatrixParseError(f"{path}: row {i}, column {j}: non-finite cell {cell!r}")
    raise overflow or _changed(path)


def _data_lines(handle):
    """The open file read from its start: its header (a first non-blank line
    starting with "#", else None) and an iterator over the non-blank lines
    after it, without their newlines."""
    handle.seek(0)
    lines = (line.rstrip("\n") for line in handle if not line.isspace())
    first = next(lines, "")
    if first.lstrip().startswith("#"):
        return first, lines
    return None, chain([first] if first else [], lines)


def _node_lines(handle):
    """The open file read from its start: no header, and an iterator over the
    lines that are neither blank nor "#" comments, without their newlines."""
    handle.seek(0)
    return None, (line.rstrip("\n") for line in handle
                  if not line.isspace() and not line.lstrip().startswith("#"))


def _matrix_layout(handle, lines):
    """One pass over an open file, keeping no line: the header and data lines
    of the line source `lines`, the number of data lines, the cell count of
    the first of them, the index and cell count of the first one whose cell
    count differs (None if none does), and whether any of them contains "i",
    without which no cell is complex."""
    header, data = lines(handle)
    rows, width, ragged, imaginary = 0, None, None, False
    for line in data:
        cells = line.count(",") + 1
        if width is None:
            width = cells
        elif ragged is None and cells != width:
            ragged = (rows, cells)
        imaginary = imaginary or "i" in line
        rows += 1
    return header, rows, width, ragged, imaginary


def _blocks(data):
    """The lines of `data` in lists of at least `_READ_CHARS` characters, the
    last list possibly fewer."""
    block, chars = [], 0
    for line in data:
        block.append(line)
        chars += len(line)
        if chars >= _READ_CHARS:
            yield block
            block, chars = [], 0
    if block:
        yield block


def _plain(text: str) -> bool:
    """Whether numpy's complex parser reads no cell of `text`, one block's
    rows joined by "," (so no row's sign follows the row before), that the
    grammar refuses; its float parser reads fewer.  Over the grammar's
    characters the complex parser reads the grammar's cells and two more
    forms: bare imaginaries ("2j", "1e+2j") and doubled signs ("1++2j",
    "1+-2j").  So a text passes if it holds no other character, no two
    adjacent signs, and as many "i" as signs after a digit or "." (an
    imaginary part's sign): each cell the parser reads holds as many of
    either, except a bare imaginary, which holds one "i" more."""
    if not text.isascii():
        return False
    kinds = np.frombuffer(text.encode("ascii").translate(_KINDS), dtype=np.uint8)
    signs = kinds[1:] == _KIND_SIGN
    separators = signs & (kinds[:-1] == _KIND_DIGIT)
    return bool(kinds.all() and not (signs & (kinds[:-1] == _KIND_SIGN)).any()
                and np.count_nonzero(kinds == _KIND_UNIT) == np.count_nonzero(separators))


def _ascii_form(text: str) -> str:
    """`text` as float() and complex() read it: CPython's own transform, which
    writes each Unicode decimal digit as its ASCII digit and each whitespace
    character as a space."""
    return text.translate({ord(char): " " if char.isspace() else str(unicodedata.decimal(char, char))
                           for char in set(text)})


def _row_stream(path: str, data, width: int, imaginary: bool):
    """The rows of `data` as lines for `np.loadtxt`, checked a block of about
    `_READ_CHARS` characters at a time.  A block that `_plain` passes, as it
    is or else in its ASCII form, goes in with "j" for "i": the grammar
    admits no parentheses, "j", "inf" or "nan", so loadtxt reads each part as
    float() would, to the same bits, and only a cell that overflows reads as
    non-finite.  Any other block stops the read with ValueError, as a cell
    loadtxt refuses does.  A row not `width` cells wide, an "i" in a file
    whose first pass saw none, or rows that run out before loadtxt's row
    limit ends the read, means the file changed after its first pass."""
    for block in _blocks(data):
        for line in block:
            if line.count(",") + 1 != width or (not imaginary and "i" in line):
                raise _changed(path)
        if not _plain(",".join(block)):
            block = [_ascii_form(line) for line in block]
            if not _plain(",".join(block)):
                raise ValueError("a block outside the grammar's characters")
        for line in block:
            yield line.replace("i", "j")
    raise _changed(path)


def _read_table(path: str, lines, check):
    """The header and the cells of the file at `path`, whose header and data
    lines come from the line source `lines`.  `check` is called with the
    header, the data row count and the first row's width as soon as all are
    known, before any cell is converted or any array allocated; it refuses
    the file by raising.  The open file is read twice, a line at a time: once
    for its layout, which `check` sees, and once for its cells, streamed into
    one `np.loadtxt` call, so no file is held in memory.  A second pass that
    does not find the first pass's rows raises `MatrixParseError`."""
    with _text(path) as handle:
        header, rows, width, ragged, imaginary = _matrix_layout(handle, lines)
        check(header, rows, width)
        # Only the rows before the first ragged one are read, so the array is
        # never larger than the text; their cells are checked before that row's
        # error.  The stream sees no row past them, as its blocks read ahead.
        kept = rows if ragged is None else ragged[0]
        second_header, data = lines(handle)
        if second_header != header:
            raise _changed(path)
        try:
            # A file without an "i" is real: read as float64, with no complex twin.
            table = np.loadtxt(_row_stream(path, islice(data, kept), width, imaginary),
                               dtype=complex if imaginary else float, delimiter=",",
                               ndmin=2, comments=None, max_rows=kept)
        except (MatrixParseError, UnicodeError):
            raise
        except ValueError:
            table = None
        if table is None or not np.isfinite(table).all():
            # A block refused in both forms, a cell loadtxt refused or one
            # that overflowed: the kept rows are read again to name the cell.
            _name_error(path, islice(lines(handle)[1], kept))
        if kept + sum(1 for _ in data) != rows:
            raise _changed(path)
    if ragged is not None:
        raise MatrixParseError(f"{path}: row {ragged[0] + 1} has {ragged[1]} cells, expected {width}")
    return header, table


def read_matrix(path: str, check_shape=None) -> VectorSequence:
    """The matrix file at `path` as a VectorSequence, read by `_read_table`.
    `check_shape`, if given, is called with the data row count and the first
    row's width before any cell is converted or any array allocated; it
    refuses the file by raising."""

    def check(header, rows: int, width: int) -> None:
        if header is None and not rows:
            raise MatrixParseError(f"{path}: empty matrix file")
        if header is not None and not _HEADER_RE.match(header.strip()):
            raise MatrixParseError(f"{path}: malformed header {header!r}")
        if not rows:
            raise MatrixParseError(f"{path}: header but no data rows")
        if check_shape is not None:
            check_shape(rows, width)

    header, matrix = _read_table(path, _data_lines, check)
    if header is not None:
        shape = tuple(map(int, _HEADER_RE.match(header.strip()).groups()))
        if matrix.shape != shape:
            raise MatrixParseError(f"{path}: header announces shape {shape}, parsed {matrix.shape}")
    return VectorSequence._adopt(matrix)


def write_point_set(path: str, points: PointSet2D) -> None:
    write_atomic(path, (f"{format_float(t)},{format_float(m)}\n" for t, m in points.nodes))


def read_point_set(path: str, check_count=lambda rows: None) -> PointSet2D:
    """The point-set file at `path`: a real two-column matrix file without a
    header, whose blank and "#" lines are skipped, read by `_read_table`.
    `check_count`, if given, is called with the number of node rows before
    anything else is checked, any cell converted or any array allocated; it
    refuses the file by raising."""

    def check(header, rows: int, width: int) -> None:
        check_count(rows)
        if not rows:
            raise MatrixParseError(f"{path}: no nodes found")
        if width != 2:
            raise MatrixParseError(f"{path}: a point set needs two columns, got {width}")

    nodes = _read_table(path, _node_lines, check)[1]
    if np.iscomplexobj(nodes):
        raise MatrixParseError(f"{path}: coordinates must be real")
    try:
        return PointSet2D(nodes.tolist())
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
