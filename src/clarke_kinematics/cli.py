"""Batch CLI: CSV trajectory transforms, conversions, sampling, FK, self-check.

Exit codes: 0 success, 1 identity failure, 2 usage or schema error (a
failed write to stdout, and any value the library refuses with ValueError,
included), 3 cell parse error, 4 domain error (a row whose result is not
finite, or avoid-straight at a straight configuration).
The identity tolerance of `check` can be overridden with the environment
variable CLARKE_KIN_TOL.  `check --n-max` is at most 256 (_N_MAX_LIMIT), because
the suite builds an n x n projector for every joint count up to it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import warnings
from array import array
from collections.abc import Iterator
from typing import BinaryIO

import numpy as np

from . import identities, joint_space, legacy
from .core import RobotGeometry, forward_transform_rows, inverse_transform_rows, positive_finite
from .kinematics import (
    RegularizationConfig,
    SingularityStrategy,
    StraightConfigurationError,
    _POSE_REPEATS,
    forward_kinematics_rows,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

TOL_ENV_VAR = "CLARKE_KIN_TOL"
_N_MAX_LIMIT = 256


class CliError(Exception):
    """Error with an associated process exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def load_geometry(path: str) -> RobotGeometry:
    """Geometry from a JSON file with exactly the keys n, d, l."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read geometry file {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise CliError(EXIT_USAGE, f"geometry file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_USAGE, f"geometry file {path} must hold a JSON object")
    unknown = sorted(set(data) - {"n", "d", "l"})
    if unknown:
        raise CliError(
            EXIT_USAGE, f"geometry file {path} has unknown keys: {', '.join(unknown)}"
        )
    missing = sorted({"n", "d", "l"} - set(data))
    if missing:
        raise CliError(
            EXIT_USAGE, f"geometry file {path} is missing keys: {', '.join(missing)}"
        )
    try:
        return RobotGeometry(n=data["n"], d=data["d"], l=data["l"])
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid geometry in {path}: {exc}")


# Cells per block when writing a table, or counting its members: large enough
# that numpy's per-call overhead vanishes, small enough that a block's
# temporaries (about 200 bytes a cell) stay near 2 MB however long the file is.
# A kernel maps up to 16 such blocks, and at most this many rows, at a time:
# fk's kernel makes dozens of numpy calls a block, which its 682-row write
# blocks would not amortise, and a wide table's mapped block stays within
# 1 MiB of float64.
_CHUNK_CELLS = 8192

# A canonical block (_plain_rows) is parsed by numpy's C text parser for long
# doubles (the C library's strtold), which costs about half what float() or
# np.loadtxt costs per 17-digit cell.  Everything _write_table and `sample`
# write is canonical.
_NUMBER = b"0123456789+-.eE"
_LINE_ENDS = (b"\n", b"\r\n", b"\r")
_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max
# Bytes per read: numpy's per-call overhead is small beside a block this size,
# and a block's text and temporaries stay far below the table.
_READ_BYTES = 1 << 16


def _read_table(path: str, expected_header: list[str]) -> np.ndarray:
    """Read a CSV table into an (N, k) array, enforcing the header and finite cells.

    The file is opened once and read in one pass, block by block (_blocks),
    so a pipe reads as a regular file does, and memory holds the table and
    one block.  A UTF-8 byte order mark is dropped.  Blank lines are skipped
    and not counted: messages number the data rows from 1, as _write_table
    does.  Every cell reads as float() reads it: a canonical block through
    _plain_rows, any other one cell by cell.  After the first bad row the
    rest of the file is only decoded, so a file that is not UTF-8 exits 2
    even where an earlier row is bad.
    """
    k = len(expected_header)
    values = array("d")
    error, offset = None, 0
    try:
        with open(path, "rb") as raw:
            for block in _blocks(raw):
                try:
                    if error is not None:
                        block.decode("utf-8")
                    elif offset == 0:
                        text = _body(path, expected_header, block.decode("utf-8").removeprefix("\ufeff"))
                        _parse_rows(values, path, expected_header, text.encode())
                    else:
                        _parse_rows(values, path, expected_header, block)
                except CliError as exc:
                    error = exc
                offset += len(block)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(
            EXIT_USAGE, f"cannot read {path}: byte {offset + exc.start} is not UTF-8: {exc.reason}"
        )
    except MemoryError:
        raise _out_of_memory(path, f"more than {len(values) // k}")
    if error is not None:
        raise error
    return np.frombuffer(values).reshape(-1, k)


def _blocks(raw) -> Iterator[bytes]:
    """The bytes of raw in blocks of about _READ_BYTES, each cut after a line end.

    The cut follows the chunk's last LF or, in a chunk without one, its last
    CR but the final byte, so no CRLF pair is split.  The last block, maybe
    empty, holds the bytes after the last cut.
    """
    pending = bytearray()
    while chunk := raw.read(_READ_BYTES):
        pending += chunk
        end = (chunk.rfind(b"\n") + 1) or (chunk.rfind(b"\r", 0, -1) + 1)
        if end:
            cut = len(pending) - len(chunk) + end
            yield bytes(pending[:cut])
            del pending[:cut]
    yield bytes(pending)


def _body(path: str, expected_header: list[str], text: str) -> str:
    """The first block's text after its header line and line end; the header must be as expected."""
    if not text:
        raise CliError(EXIT_USAGE, f"{path} is empty, expected a header row")
    line = text.splitlines(keepends=True)[0]  # strip() drops the end from the last cell
    header, want = ",".join(c.strip() for c in line.split(",")), ",".join(expected_header)
    if header != want:
        raise CliError(EXIT_USAGE, f"{path}: expected columns {want}, found {header}")
    return text[len(line) :]


def _parse_rows(values: array, path: str, header: list[str], data: bytes) -> None:
    """Append to values the rows of a block's non-blank lines, given its bytes.

    A block that _plain_rows refuses is decoded and read one stripped cell at
    a time by float(), up to the first row with the wrong cell count or the
    first cell that is not a finite float, which is named.
    """
    k = len(header)
    rows = _plain_rows(data, k)
    if rows is not None:
        values.frombytes(memoryview(rows).cast("B"))
        return
    lines = data.decode("utf-8").splitlines()
    for ridx, line in enumerate(filter(str.strip, lines), start=len(values) // k + 1):
        cells = line.split(",")
        if len(cells) != k:
            raise CliError(EXIT_USAGE, f"{path}: row {ridx} has {len(cells)} cells, expected {k}")
        for name, cell in zip(header, cells):
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                raise CliError(
                    EXIT_PARSE, f"{path}: row {ridx}, column {name}: cannot parse {cell!r}"
                )
            if not math.isfinite(value):
                raise CliError(
                    EXIT_PARSE, f"{path}: row {ridx}, column {name}: non-finite value {cell!r}"
                )
            values.append(value)


def _plain_rows(data: bytes, k: int) -> np.ndarray | None:
    """The cells of a canonical block's rows as float() reads them, or None.

    A block is canonical when its bytes, number bytes aside, are k - 1 commas
    and the first line's end (LF, CRLF or CR) on every line, so that no
    whitespace reaches the parser, which reads a blank cell as 0.  None
    unless the block is canonical, no cell is empty and every cell reads as
    a finite float.  The block, its line ends made commas, is parsed as
    long doubles, each cast to a double.  That second rounding differs from
    float()'s one only where the long double lies exactly halfway between
    two doubles: such cells are read again by float().  So are subnormal
    results, nonzero cells cast to zero and DBL_MAX in magnitude, where the
    cast could depend on the FPU's flush-to-zero mode.
    """
    seps = data.translate(None, _NUMBER)
    first_end = seps[k - 1 : k + 1]
    eol = first_end if first_end == b"\r\n" else first_end[:1]
    row = b"," * (k - 1) + eol
    if eol not in _LINE_ENDS or seps != row * (len(seps) // len(row)):
        return None
    text = data.replace(eol, b",")
    with warnings.catch_warnings():
        # unmatched data (an empty cell, say) raises ValueError from numpy 2,
        # and gives a partial array and this warning before it
        warnings.simplefilter("error", DeprecationWarning)
        try:
            parsed = np.fromstring(text, dtype=np.longdouble, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if parsed.size != len(seps) // len(row) * k:  # an empty last cell ends the parse early
        return None
    with np.errstate(all="ignore"):
        rows = parsed.astype(np.float64)
        if not np.isfinite(rows).all():
            return None
        # twice the rounding error of the cast (doubled before the cast, so that
        # it does not underflow) is the gap to a neighbour just when it was a tie
        step = ((parsed - rows) * 2).astype(np.float64)
        size = np.abs(rows)
        again = (step != 0) & ((rows + step) - rows == step)
        again |= (size < _DBL_MIN) & (parsed != 0)
        again |= size == _DBL_MAX
    if again.any():
        cells = text.split(b",")
        for i in np.flatnonzero(again).tolist():
            rows[i] = float(cells[i])
    return rows


def _write_table(path: str, header: list[str], rows: np.ndarray, rows_fn=None, repeats=()) -> None:
    """Publish the header and the rows of an (N, k) array, mapped by rows_fn if given.

    Blocks of step = max(1, _CHUNK_CELLS // k) rows are written by
    _format_rows (the bytes of b"%.17g" % v for every value) into the file
    _published gives; rows_fn maps and the finiteness check reads up to 16
    of them, and at most _CHUNK_CELLS rows, at a time.  repeats are
    (column, source, negated) triples: columns that rows_fn declares equal to
    a source column or to its negation.  Those that hold bit for bit on a
    mapped block are formatted once there, from their source; any other
    column is formatted cell by cell.  Nothing is published unless every row
    maps to finite values; otherwise exit 4 names the data row: under
    avoid-straight the first straight row (every block is mapped, so a later
    one still comes first), else the first row with a non-finite result.
    """
    k = len(header)
    step = max(1, _CHUNK_CELLS // k)
    span = step * min(_CHUNK_CELLS // step, 16)
    bad = None
    try:
        with _published(path) as fh, np.errstate(all="ignore"):
            fh.write(",".join(header).encode("utf-8") + b"\n")
            for start in range(0, len(rows), span):
                block = rows[start : start + span]
                if rows_fn is not None:
                    block = rows_fn(block)
                    if bad is None and not (finite := np.isfinite(block)).all():
                        i, j = divmod(int(finite.argmin()), k)
                        bad = (f"row {start + i + 1}: column {header[j]} is {block[i, j]}; "
                               "the input is outside the finite domain of the map")
                if bad is None:
                    held = repeats and _repeats_held(block, repeats)
                    for first in range(0, len(block), step):
                        fh.write(_format_rows(block[first : first + step], held))
            if bad is not None:
                raise CliError(EXIT_DOMAIN, bad)
    except StraightConfigurationError as exc:  # its row counts from the start of the block
        raise CliError(EXIT_DOMAIN, f"row {start + exc.row + 1}: {exc}")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}")


def _created_beside(target: str) -> tuple[int, str]:
    """A new file .<name>.<random>.tmp beside target, open for writing, and its path.

    It is created as open creates a file, with mode 0o666 less the umask,
    which the kernel applies, so the process umask is never read or set.
    """
    head, tail = os.path.split(target)
    while True:
        temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp
        except FileExistsError:  # the name is taken: draw another
            pass


_SIGN_BIT = np.uint64(1 << 63)


def _repeats_held(block: np.ndarray, repeats) -> tuple:
    """The (column, source, negated) of repeats that hold bit for bit on every row of block."""
    bits = block.view(np.uint64)
    return tuple((column, source, negated) for column, source, negated in repeats
                 if np.array_equal(bits[:, column], bits[:, source] ^ _SIGN_BIT if negated
                                   else bits[:, source]))


@contextlib.contextmanager
def _published(path: str) -> Iterator[BinaryIO]:
    """A binary file whose bytes become path's, whole, once the with-block succeeds.

    It is a temporary file beside path's resolved target, with an existing
    output's permission bits or else those open gives, which os.replace puts
    in place, and which any failure (KeyboardInterrupt included) removes.
    An existing output that is not a regular file (a FIFO, /dev/stdout) is
    never replaced: it is opened first, and filled from an unnamed temporary
    file at the end.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh, tempfile.TemporaryFile() as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, fh)
        return
    target = os.path.realpath(path)
    fd, temp = _created_beside(target)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


# %.17g without a Python call per cell.  A nonzero finite x with decimal
# exponent k (10**k <= |x| < 10**(k+1)) prints the integer D nearest to
# X = |x| * 10**(16 - k), which has 17 digits, in %g's fixed form when
# -4 <= k < 17 and in its exponent form otherwise.  X is computed as hi + lo,
# with hi = fl(X) and |lo| <= ulp(hi) / 2, from a double-double table
# 10**s = t_hi + t_lo and Dekker's exact product |x| * t_hi (numpy has no
# fma).  For X < 2**57:
#   |10**s - t_hi - t_lo| <= 2**-106 * t_hi, so |x| times it is <= 2**-49;
#   rounding |x| * t_lo (at most 2**-53 * X < 16) errs by <= 2**-49;
#   adding that to e, the product's exact error (|e| <= 8), errs by <= 2**-48
#   (the sum is below 32); the last two-sum, which gives hi and lo, is exact.
# So |X - (hi + lo)| <= 2**-47 (7.1e-15).  D = hi + rint(lo) is exact unless
# the fraction of lo lies within _TIE_MARGIN, over 2**10 times that bound, of
# 1/2: such cells (exact ties among them) take b"%.17g" % v, as do non-finite
# values and |x| outside [_FAST_MIN, _FAST_MAX], beyond which Dekker's split
# or the table would leave the normal range.  k starts as floor(log10|x|) and
# moves by one where hi + lo falls outside [1e16, 1e17); within the error
# bound of either end, both choices of k print the same digits.  D = 10**17
# carries into k + 1.
_TIE_MARGIN = 1e-11
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_POW_MIN, _POW_MAX = -300, 300
# A cell is laid out in a record of 29 bytes: the sign, a 22-byte body, the
# exponent ("e-05", "e+100") and the separator, with NUL for every byte left
# out; the NULs are dropped at the end.  The body is z, four places for the
# zeros of "0.000" (k < 0) and then the 17 digits of D, with "." inserted at
# p = 5 + k (fixed form) or p = 5 (exponent form): body[j] is z[j] before p
# and z[j - 1] after it.  The trailing zeros of the fraction, and a "." left
# bare, are cut: every body byte from `cut` on is NUL.  _layout_masks gives,
# for each (p, cut), which record bytes are taken from the record as it is
# (keep), which from the byte before them (shift), and which are constant
# (marks: the "." and the zeros of k < 0).
_RECORD = 29
_BODY = 22
_CUTS = _BODY + 1


@functools.cache
def _format_tables():
    """(t_hi, t_hi_high, t_hi_low, t_lo), the digit quads, the exponents, the masks.

    t_hi[s - _POW_MIN] is 10**s correctly rounded, t_hi_high + t_hi_low its
    split, and t_lo the rounded remainder 10**s - t_hi; each is a correctly
    rounded division of Python ints.  Built on the first write.
    """
    t_hi, t_lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi_num, hi_den = (num / den).as_integer_ratio()
        t_hi.append(hi_num / hi_den)
        t_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    t_hi = np.array(t_hi)
    t_hi_high = t_hi * _SPLIT
    t_hi_high -= t_hi_high - t_hi
    pow10 = (t_hi, t_hi_high, t_hi - t_hi_high, np.array(t_lo))

    # "0000" .. "9999" as one uint32 each, so that D's digits are four lookups
    quad = np.arange(10_000)
    quads = (quad[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    quad_zeros = sum((quad % m == 0).astype(np.int64) for m in (10, 100, 1000, 10_000))

    exponents = np.zeros((_POW_MAX - _POW_MIN + 1, 5), dtype=np.uint8)
    for k in range(_POW_MIN, _POW_MAX + 1):
        text = b"e%+03d" % k
        exponents[k - _POW_MIN, : len(text)] = list(text)
    return pow10, quads.view(np.uint32).ravel(), quad_zeros, exponents, _layout_masks()


def _layout_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """keep, shift and marks, each (_CUTS * _CUTS, _RECORD) uint8, row p * _CUTS + cut."""
    p = np.arange(_CUTS)[:, None, None]
    cut = np.arange(_CUTS)[None, :, None]
    j = np.arange(_BODY)[None, None, :]
    shape = (_CUTS, _CUTS, _RECORD)
    keep, shift, marks = (np.zeros(shape, dtype=np.uint8) for _ in range(3))
    keep[:, :, 0] = 1  # sign
    keep[:, :, 1 + _BODY :] = 1  # exponent, separator
    keep[:, :, 1 : 1 + _BODY] = (j < p) & (j < cut)
    shift[:, :, 1 : 1 + _BODY] = (j > p) & (j < cut)
    leading_zeros = (p < 5) & ((j == p - 1) | ((j > p) & (j < 5)))  # "0." and "000" of k < 0
    marks[:, :, 1 : 1 + _BODY] = np.where((j == p) & (j < cut), 46, 48 * leading_zeros)
    return tuple(m.reshape(_CUTS * _CUTS, _RECORD) for m in (keep, shift, marks))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo = a * 10**(16 - k) to within 2**-47 for hi + lo < 2**57."""
    s = 16 - _POW_MIN - k  # the row of 10**(16 - k) in each table
    t_hi, t_hi_high, t_hi_low, t_lo = (t.take(s) for t in _format_tables()[0])
    p = a * t_hi
    a_high = a * _SPLIT
    a_high -= a_high - a
    a_low = a - a_high
    e = a_high * t_hi_high
    e -= p
    e += a_high * t_hi_low
    e += a_low * t_hi_high
    e += a_low * t_hi_low
    c = a * t_lo
    c += e
    hi = p + c
    p -= hi
    p += c
    return hi, p


def _outside(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where hi + lo < 1e16, and where hi + lo >= 1e17."""
    return (hi < 1e16) | (hi == 1e16) & (lo < 0), (hi > 1e17) | (hi == 1e17) & (lo >= 0)


@functools.cache
def _repeat_layout(width: int, repeats: tuple) -> tuple[list[int], list[int], np.ndarray]:
    """The columns _format_rows lays out, for each column the index among them
    of the one it copies (itself or its source), and 45 ("-") in each negated
    column, else 0."""
    copied = {column: source for column, source, _ in repeats}
    distinct = [j for j in range(width) if j not in copied]
    source_of = [distinct.index(copied.get(j, j)) for j in range(width)]
    negated = np.zeros(width, dtype=np.uint8)
    negated[[column for column, _, negate in repeats if negate]] = 45
    return distinct, source_of, negated


def _format_rows(rows: np.ndarray, repeats=()) -> bytearray:
    """The CSV lines of an (N, k) float64 array, byte for byte as %.17g gives them.

    Each (column, source, negated) of repeats names a column equal bit for bit
    to its source column, or to its negation.  The vectorised path lays out
    the other columns only; a repeated column's records are copies of its
    source's, with the sign byte toggled for a negation.
    """
    _, quads, quad_zeros, exponents, (keep, shift, marks) = _format_tables()
    height, width = rows.shape
    if repeats:
        distinct, source_of, negated = _repeat_layout(width, repeats)
        x = rows.take(distinct, axis=1).ravel()
    else:
        x = rows.ravel()
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    low, high = _outside(hi, lo)
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.int64) - low[off]
        hi[off], lo[off] = _scaled(a[off], k[off])
        low, high = _outside(hi[off], lo[off])
        fast[off[low | high]] = False  # log10 was off by more than one
    fraction = lo - np.floor(lo)
    fast &= np.abs(fraction - 0.5) > _TIE_MARGIN
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[zero] = 0  # prints as its lead digit: all 16 others are trailing zeros
    k[zero] = 0

    buffer = np.zeros(1 + n * _RECORD, dtype=np.uint8)
    records = buffer[1:].reshape(n, _RECORD)
    records[:, 0] = np.signbit(x) * np.uint8(45)
    lead = d // 10**16
    records[:, 5] = lead + 48
    d -= lead * 10**16
    groups = np.empty((4, n), dtype=np.int64)
    for i, scale in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(d, scale, out=groups[i])
        d -= groups[i] * scale
    groups[3] = d
    records[:, 6 : 6 + 16] = quads.take(groups.T).view(np.uint8)
    zeros = quad_zeros.take(groups[3])
    rest = np.flatnonzero(groups[3] == 0)
    for i in (2, 1, 0):
        zeros[rest] += quad_zeros.take(groups[i, rest])
        rest = rest[groups[i, rest] == 0]
    exponent_form = (k < -4) | (k >= 17)
    shown = np.flatnonzero(exponent_form)
    records[shown, 1 + _BODY : 1 + _BODY + 5] = exponents.take(k[shown] - _POW_MIN, axis=0)
    records[:, -1] = 44

    k[exponent_form] = 0
    p = 5 + k
    cut = np.where(zeros < 16 - k, _BODY - zeros, p)
    key = p * _CUTS + cut
    # the records whose NULs are dropped, laid out in place (a fresh array
    # would cost one more copy, to bytes, than the layout itself)
    text = bytearray(height * width * _RECORD)
    lines = np.frombuffer(text, dtype=np.uint8).reshape(-1, _RECORD)
    out = keep.take(key, axis=0) if repeats else keep.take(key, axis=0, out=lines, mode="clip")
    out *= records
    shifted = shift.take(key, axis=0)
    shifted *= buffer[:-1].reshape(n, _RECORD)  # the byte before each record byte
    out += shifted
    out += marks.take(key, axis=0)
    slow = ~(fast | zero)
    if repeats:
        cells = lines.reshape(height, width, _RECORD)
        out.reshape(height, -1, _RECORD).take(source_of, axis=1, out=cells, mode="clip")
        cells[:, :, 0] ^= negated  # "-" and NUL swap in a negated column
        if slow.any():
            slow = slow.reshape(height, -1).take(source_of, axis=1)
        slow, x = slow.ravel(), rows.ravel()
    lines.reshape(height, width, _RECORD)[:, -1, -1] = 10
    for i in np.flatnonzero(slow).tolist():
        cell = b"%.17g" % x[i]
        lines[i, :-1] = 0
        lines[i, : len(cell)] = list(cell)
    return text.translate(None, b"\0")


def _joint_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i}" for i in range(1, n + 1)]


_CLARKE = ["rho_re", "rho_im"]


def _out_of_memory(name: str, rows: int | str) -> CliError:
    return CliError(EXIT_USAGE, f"{name}: not enough memory for {rows} rows")


def _map_rows(args: argparse.Namespace) -> int:
    """Map the rows of --input to --output by the headers and function args.plan picks.

    A plan may add the columns its function repeats (_write_table's repeats).
    """
    geometry = load_geometry(args.geometry)
    in_header, out_header, rows_fn, *repeats = args.plan(args, geometry)
    table = _read_table(args.input, in_header)
    try:
        _write_table(args.output, out_header, table, rows_fn, *repeats)
    except MemoryError:
        raise _out_of_memory(args.command, len(table))
    return EXIT_OK


def _transform_plan(args: argparse.Namespace, geometry: RobotGeometry):
    rho = _joint_header("rho", geometry.n)
    if args.direction == "forward":
        return rho, _CLARKE, lambda rows: forward_transform_rows(geometry, rows)
    return _CLARKE, rho, lambda rows: inverse_transform_rows(geometry, rows)


def _convert_plan(args: argparse.Namespace, geometry: RobotGeometry):
    scheme = None
    if args.scheme is not None:
        scheme = legacy.LegacyScheme.from_name(args.scheme)
        legacy._check_scheme(scheme, geometry)
    if args.source in ("clarke", "legacy") and scheme is None:
        raise CliError(EXIT_USAGE, f"--scheme is required with --from {args.source}")
    lengths = _joint_header("l", geometry.n)
    if scheme is None:  # --from lengths
        return lengths, _CLARKE, lambda rows: legacy.clarke_from_lengths_rows(geometry, rows)
    pair = list(scheme.pair_names)
    if args.source == "legacy":
        return pair, _CLARKE, lambda rows: legacy.clarke_from_legacy_rows(scheme, geometry, rows)
    if args.source == "clarke":
        return _CLARKE, pair, lambda rows: legacy.legacy_from_clarke_rows(scheme, geometry, rows)
    return lengths, pair, lambda rows: legacy.legacy_from_lengths_rows(scheme, geometry, rows)


def _fk_plan(args: argparse.Namespace, geometry: RobotGeometry):
    strategy = SingularityStrategy.from_name(args.strategy)
    config = RegularizationConfig.default(geometry, epsilon=args.epsilon)
    header = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    return (_CLARKE, header, lambda rows: forward_kinematics_rows(geometry, rows, strategy, config),
            _POSE_REPEATS)


def _cmd_sample(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    try:
        rows = joint_space.sample(geometry, args.phi_max, args.count, args.seed)
        _write_table(args.output, _joint_header("rho", geometry.n), rows)
    except MemoryError:
        raise _out_of_memory("sample", args.count)
    return EXIT_OK


def _identity_tolerance(flag_value: float | None) -> float:
    """--tol, else CLARKE_KIN_TOL, else the default; ValueError unless positive and finite."""
    if flag_value is not None:
        return positive_finite(flag_value, "--tol")
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return identities.DEFAULT_IDENTITY_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"{TOL_ENV_VAR}={raw!r} is not a number")
    return positive_finite(tol, TOL_ENV_VAR)


def _cmd_check(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    if not 3 <= args.n_max <= _N_MAX_LIMIT:
        raise CliError(
            EXIT_USAGE, f"--n-max must be between 3 and {_N_MAX_LIMIT}, got {args.n_max}"
        )
    positive_finite(args.membership_tol, "--membership-tol")
    tol = _identity_tolerance(args.tol)

    # the membership file first, so that an error in it leaves stdout empty
    membership_failures = 0
    if args.membership is not None:
        rows = _read_table(args.membership, _joint_header("rho", geometry.n))
        inside, step = 0, max(1, _CHUNK_CELLS // geometry.n)
        for start in range(0, len(rows), step):
            flags = joint_space.contains_rows(
                geometry, rows[start : start + step], tol=args.membership_tol
            )
            inside += int(np.count_nonzero(flags))
        membership_failures = len(rows) - inside

    try:
        results = identities.run_identity_suite(geometry.d, geometry.l, args.n_max, tol)
    except MemoryError:
        raise CliError(EXIT_USAGE, f"check: not enough memory for the suite up to n={args.n_max}")
    width = max(len(r.name) for r in results)
    print(f"{'identity':<{width}}  {'n':>3}  {'residual':>12}  {'tolerance':>10}  status")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  {r.n:>3}  {r.residual:>12.3e}  {r.tolerance:>10.1e}  {status}"
        )
    failures = [r for r in results if not r.passed]
    if args.membership is not None:
        print(
            f"membership: {inside}/{len(rows)} rows inside the joint space "
            f"(tol {args.membership_tol:.1e})"
        )

    if failures:
        worst = max(failures, key=lambda r: r.residual)
        print(
            f"{len(failures)} identity check(s) failed; worst: {worst.name} "
            f"at n={worst.n}, residual {worst.residual:.3e}",
            file=sys.stderr,
        )
        return EXIT_IDENTITY
    if membership_failures:
        print(f"{membership_failures} row(s) outside the joint space", file=sys.stderr)
        return EXIT_IDENTITY
    print(f"all {len(results)} identity checks passed for n=3..{args.n_max}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that does not drop the OSError of a write to stdout (--help)."""

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout and message:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clarke-kin",
        description="Clarke-coordinate transforms and constant-curvature kinematics "
        "for displacement-actuated continuum robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="map displacement rows to Clarke rows or back")
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--direction", required=True, choices=["forward", "inverse"])
    p.add_argument("--output", required=True, help="output CSV")
    p.set_defaults(func=_map_rows, plan=_transform_plan)

    p = sub.add_parser("convert", help="convert between Clarke, legacy pairs, and lengths")
    p.add_argument("--geometry", required=True)
    p.add_argument("--scheme", default=None, help="dian3|dellasantina4|allen3|allen4")
    p.add_argument(
        "--from",
        dest="source",
        required=True,
        choices=["clarke", "legacy", "lengths"],
        help="representation of the input file",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_map_rows, plan=_convert_plan)

    p = sub.add_parser("fk", help="constant-curvature forward kinematics per row")
    p.add_argument("--geometry", required=True)
    p.add_argument("--input", required=True, help="CSV with rho_re,rho_im columns")
    p.add_argument(
        "--strategy",
        default=SingularityStrategy.ANALYTIC_BRANCH.value,
        help="singularity strategy: "
        + "|".join(s.value for s in SingularityStrategy),
    )
    p.add_argument("--epsilon", type=float, default=None, help="near-zero threshold")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_map_rows, plan=_fk_plan)

    p = sub.add_parser("sample", help="draw joint-space displacement samples")
    p.add_argument("--geometry", required=True)
    p.add_argument("--phi-max", dest="phi_max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("check", help="run the algebraic identity suite")
    p.add_argument("--geometry", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="identity tolerance")
    p.add_argument(
        "--membership", default=None, help="CSV of rho rows to test for joint-space membership"
    )
    p.add_argument(
        "--membership-tol",
        dest="membership_tol",
        type=float,
        default=joint_space.DEFAULT_MEMBERSHIP_TOL,
    )
    p.set_defaults(func=_cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: each build leaves cyclic garbage."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed the help or a usage error
            code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        else:
            code = args.func(args)
        sys.stdout.flush()  # here, not at interpreter exit, where a failure would escape
        return code
    except (CliError, ValueError) as exc:  # a value the library refuses is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE
    except KeyboardInterrupt:  # an output being written has been removed by then
        print("error: interrupted", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # every file but stdout turns its OSError into a CliError
        # fd 1 now takes what is left in stdout's buffer, so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
