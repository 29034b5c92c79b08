"""The CSV reader against the per-cell reference parser, on generated text.

reference_read_table is the reader as it was before plain blocks streamed
through numpy's C text reader: one float() per stripped cell over the whole
text.  Both must accept the same files with the same values, and reject the
same files with the same exit code and message, at the default block size
and at 128-byte blocks, whose edges split lines and runs of canonical and
other bytes.  cli.main must never raise and must return a documented exit
code.
"""

import contextlib
import decimal
import io
import json
import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarke_kinematics import cli


def reference_read_table(path, expected_header):
    """Rows of floats, or the CliError the CLI reports for the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise cli.CliError(cli.EXIT_USAGE, f"cannot read {path}: {exc}")
    if not lines:
        raise cli.CliError(cli.EXIT_USAGE, f"{path} is empty, expected a header row")
    header = [c.strip() for c in lines[0].split(",")]
    if header != expected_header:
        raise cli.CliError(
            cli.EXIT_USAGE,
            f"{path}: expected columns {','.join(expected_header)}, found {','.join(header)}",
        )
    rows = []
    data = [line for line in lines[1:] if line.strip()]
    for ridx, line in enumerate(data, start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise cli.CliError(
                cli.EXIT_USAGE, f"{path}: row {ridx} has {len(cells)} cells, expected {len(header)}"
            )
        parsed = []
        for name, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                raise cli.CliError(
                    cli.EXIT_PARSE, f"{path}: row {ridx}, column {name}: cannot parse {cell!r}"
                )
            if not math.isfinite(value):
                raise cli.CliError(
                    cli.EXIT_PARSE, f"{path}: row {ridx}, column {name}: non-finite value {cell!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    return rows


# (joint count, input header, argv without file flags); every row command reads --input
COMMANDS = [
    (4, "rho_re,rho_im", ["transform", "--direction", "inverse"]),
    (3, "rho_1,rho_2,rho_3", ["transform", "--direction", "forward"]),
    (3, "u,v", ["convert", "--scheme", "allen3", "--from", "legacy"]),
    (4, "l_1,l_2,l_3,l_4", ["convert", "--from", "lengths"]),
    (4, "rho_re,rho_im", ["fk", "--strategy", "avoid-straight"]),
    (4, "rho_re,rho_im", ["fk", "--strategy", "analytic-branch", "--epsilon", "inf"]),
    (4, "rho_re,rho_im", ["fk", "--strategy", "adaptive-epsilon", "--epsilon", "5e-324"]),
    (4, "rho_re,rho_im", ["fk", "--strategy", "linearize-near-zero", "--epsilon", "1e-3"]),
]
CELLS = ["0", "1.5", "-3e-5", " 2 ", "\t4", "1_0", "+.5", "1e-320", "1e300", "1e308",
         "nan", "inf", "-inf", "1e999", "", " ", "x", "#7", "0x1", "\xa01", "\x1f1", "١"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x0b", " "]
READ_BYTES = [128, cli._READ_BYTES]


@st.composite
def csv_files(draw, commands=COMMANDS):
    n, header, argv = draw(st.sampled_from(commands))
    k = header.count(",") + 1
    first = draw(st.sampled_from([header, "\ufeff" + header, header.replace(",", " , "),
                                  header + ",", "#" + header]))
    row = st.lists(st.sampled_from(CELLS), min_size=k - 1, max_size=k + 1).map(",".join)
    full_row = st.lists(st.sampled_from(CELLS[:10]), min_size=k, max_size=k).map(",".join)
    lines = draw(st.lists(st.one_of(full_row, full_row, row, st.sampled_from(["", "   ", "# note"])),
                          max_size=8))
    text = first
    for line in lines:
        text += draw(st.sampled_from(LINE_ENDS)) + line
    text += draw(st.sampled_from(["", "\n", "\r\n"]))
    return n, header.split(","), argv, text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("reader")
    for n in (3, 4):
        (path / f"g{n}.json").write_text(json.dumps({"n": n, "d": 0.01, "l": 0.1}))
    return path


def _outcome(read, *args):
    try:
        return np.asarray(read(*args), dtype=float), None
    except cli.CliError as exc:
        return None, (exc.code, str(exc))


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), out.getvalue()


@settings(max_examples=200, deadline=None)
@given(csv_files(), st.sampled_from(READ_BYTES))
def test_reader_matches_reference_and_main_never_raises(workdir, case, read_bytes):
    n, header, argv, text = case
    path = workdir / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    out = workdir / "out.csv"
    out.unlink(missing_ok=True)

    want, want_error = _outcome(reference_read_table, str(path), header)
    with mock.patch.object(cli, "_READ_BYTES", read_bytes):
        got, got_error = _outcome(cli._read_table, str(path), header)
        code, stderr, _ = _main(argv + ["--geometry", str(workdir / f"g{n}.json"),
                                        "--input", str(path), "--output", str(out)])
    assert got_error == want_error
    if want_error is None:
        np.testing.assert_array_equal(got, want.reshape(-1, len(header)))
    assert code in range(5)
    if "--epsilon" in argv and argv[-1] != "1e-3":
        assert code == cli.EXIT_USAGE  # checked before the input is read
    elif want_error is not None:
        assert (code, stderr) == (want_error[0], f"error: {want_error[1]}\n")
    assert out.exists() == (code == cli.EXIT_OK)


@settings(max_examples=40, deadline=None)
@given(csv_files([(3, "rho_1,rho_2,rho_3", ["check"])]),
       st.sampled_from([None, "0", "-1", "nan", "inf", "1e-3"]))
def test_check_membership_never_raises(workdir, case, membership_tol):
    n, header, _, text = case
    path = workdir / "member.csv"
    path.write_bytes(text.encode("utf-8"))
    argv = ["check", "--geometry", str(workdir / f"g{n}.json"), "--n-max", "3",
            "--membership", str(path)]
    if membership_tol is not None:
        argv += ["--membership-tol", membership_tol]
    code, _, stdout = _main(argv)
    assert code in range(5)
    if membership_tol in ("0", "-1", "nan", "inf"):
        assert code == cli.EXIT_USAGE
    if code in (cli.EXIT_USAGE, cli.EXIT_PARSE):  # the file is read before anything prints
        assert stdout == ""


# Cells over the plain alphabet: %.17g values, subnormals, -0 and an overflow
# (1e999, which only the finiteness check refuses), tokens float() refuses,
# and space or tab padding.
GOOD_PLAIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.sampled_from(["0", "-0", "+1", "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
                     "1e-400", "1e999", "-1E+5", "+.5", "5."]),
)
# numpy's parser reads a prefix of such a cell and stops at the rest, which
# it must refuse as float() does
BAD_PLAIN = st.one_of(
    st.sampled_from(["1e", ".", "+-1", "1.2.3", "e5", "", "-", "1e+", "1 2", "e", ".e1", "1..2", "1e+-2"]),
    st.text(alphabet="0123456789+-.eE", min_size=1, max_size=6),
)


def padded(cells):
    pad = st.sampled_from(["", "", " ", "\t", " \t "])
    return st.tuples(pad, cells, pad).map("".join)


@st.composite
def plain_files(draw):
    """A plain header (BOM or not, padded or not), a body of plain bytes only, and whether it is canonical.

    A canonical body holds no space, tab or blank line, and ends every line alike.
    """
    header = draw(st.sampled_from(["rho_re,rho_im", "rho_1,rho_2,rho_3",
                                   "x,y,z," + ",".join(f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))]))
    k = header.count(",") + 1
    first = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from([header, header.replace(",", " ,\t")]))
    good_row = st.lists(padded(GOOD_PLAIN), min_size=k, max_size=k)
    any_row = st.lists(padded(st.one_of(GOOD_PLAIN, BAD_PLAIN)), min_size=k - 1, max_size=k + 1)
    lines = draw(st.lists(st.one_of(good_row.map(",".join), good_row.map(",".join), any_row.map(",".join),
                                    st.sampled_from(["", "  ", "\t"])), max_size=8))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    last = draw(st.sampled_from(["", "\n", "\r\n"]))
    text = first + "".join(end + line for end, line in zip(ends, lines)) + last
    no_pads = all(line and not set(line) & {" ", "\t"} for line in lines)
    canonical = bool(last) and set(ends[1:]) <= {last} and no_pads
    return header.split(","), text, canonical


def _strict_outcome(read, *args):
    with warnings.catch_warnings():
        # no warning may escape the reader; numpy 1's DeprecationWarning on
        # unmatched data is raised here, and refuses its block as a short
        # count does under other filters
        warnings.simplefilter("error")
        return _outcome(read, *args)


def _assert_reads_as_reference(path, header):
    """The reference's outcome, and whether any block went through numpy's C parser."""
    want, want_error = _outcome(reference_read_table, str(path), header)
    with mock.patch.object(np, "fromstring", wraps=np.fromstring) as fromstring:
        got, got_error = _strict_outcome(cli._read_table, str(path), header)
    assert got_error == want_error
    if want_error is None:
        want = want.reshape(-1, len(header))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # -0.0 included
    return want_error, fromstring.called


@settings(max_examples=300, deadline=None)
@given(plain_files(), st.sampled_from(READ_BYTES))
def test_plain_files_match_reference(tmp_path_factory, case, read_bytes):
    header, text, canonical = case
    path = tmp_path_factory.mktemp("plain") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(cli, "_READ_BYTES", read_bytes):
        error, fast = _assert_reads_as_reference(path, header)
    if error is None and canonical and any(map(str.strip, text.splitlines()[1:])):
        assert fast  # canonical data: the C reader took a block


@pytest.mark.parametrize("text,fast", [
    ("\ufeffrho_re,rho_im\r\n1,2\r\n\r\n-0,5e-324\r\n", False),  # a blank line: read cell by cell
    ("rho_re , rho_im\r1,2\r3,4", True),
    ("rho_re,rho_im\n1e999,0\n", True),  # the C reader gives inf, float() names it: exit 3
    ("rho_re,rho_im\n1,2\n \n", False),  # a whitespace-only line
    ("rho_re,rho_im\r\n\t\r\n 1, 2\r\n\r\n3 ,4\t\r\n", False),  # padded cells
    ("rho_re,rho_im\r\n1,2\r\n3,4\r\n", True),  # every line ends alike: parsed as it is
    ("rho_re,rho_im\r1,2\r3,4\r", True),
    ("rho_re,rho_im\n1,2\r\n3,4\r5,6\n", False),  # mixed line ends
    ("rho_re,rho_im\n1 2,3\n", False),  # a space inside a cell: float() names it
    ("rho_re,rho_im\n1,2\n3\n", False),  # a row with the wrong cell count
    ("rho_re,rho_im\n1,\x0c2\n", False),  # a line break to splitlines()
    ("rho_re,rho_im\n1\x0b,2\n", False),
    ("rho_re,\x0crho_im\n1,2\n", False),  # the header ends at \x0c: exit 2
    ("rho_re,rho_im\n1,2\u2028\n", False),
    ("rho_re,rho_im\n1,nan\n", False),
    ("rho_re,rho_im\n1,1e999\n2,x\n", False),  # row 1, non-finite: the earlier row is named
    ("rho_re,rho_im\n1,2\n3,x\n4,1e999\n", False),  # row 2, cannot parse
    ("rho_re,rho_im\n1,\x1f2\n3, 4,5\n", False),  # strip() drops \x1f, float() does not; row 2
    ("rho_re,rho_im", False),
    ("rho_re,rho_im\n", False),
    ("rho_re,rho_im\r\n \t\n\n", False),  # blank only: nothing to parse
])
def test_edge_files_read_as_reference(tmp_path, text, fast):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _assert_reads_as_reference(path, ["rho_re", "rho_im"])[1] == fast


def halfway_cells(x):
    """The exact decimal halfway between x and the next double up, and three 40-digit cells by it.

    The long-double parse rounds all four to the same value, halfway between
    two doubles, which a second rounding to a double may take to the wrong one.
    """
    with decimal.localcontext(prec=1200):
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    with decimal.localcontext(prec=40):
        near = +mid
        unit = decimal.Decimal(1).scaleb(near.adjusted() - 39)
        return [str(mid), str(near), str(near - unit), str(near + unit)]


# Cells at the edges of the long-double route: the two sides of the smallest
# subnormal's half, the largest subnormal, the largest double, underflow to
# zero, -0, 40-digit mantissas and exponents of +-400 that come back in range.
EDGE_CELLS = [
    "2.4703282292062327e-324", "2.4703282292062328e-324", "-2.4703282292062328e-324",
    "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "-1.7976931348623158e308",
    "1e-400", "-1e-400", "-0", "0e400", "9007199254740993", "9007199254740993.000000000000000000001",
    "1.000000000000000055511151231257827021181583404541015625",
    "0.1000000000000000055511151231257827021181",
    "1234567890123456789012345678901234567890e-400",
    "0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000001e400",
]


def _exactness_corpus():
    rng = np.random.default_rng(16)
    doubles = np.concatenate([
        rng.normal(scale=0.01, size=300),
        np.ldexp(rng.uniform(1, 2, 700), rng.integers(-1074, 1024, 700)),  # every binade
        [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 2.0**53, 1.7976931348623155e308],
    ])
    doubles[::3] *= -1
    cells = ["%.17g" % x for x in doubles] + EDGE_CELLS
    for x in doubles:
        if math.isfinite(math.nextafter(x, math.inf)):
            cells += halfway_cells(float(x))
    return cells


def test_cells_read_as_float_reads_them(tmp_path):
    """Every cell of the corpus reads bit for bit as float() reads it.

    The corpus must be one that a bare long-double parse and cast gets wrong
    in some cells where long doubles are wider than doubles, or it shows
    nothing.
    """
    cells = _exactness_corpus()
    cells += ["0"] * (-len(cells) % 3)
    path = tmp_path / "exact.csv"
    rows = [",".join(cells[i : i + 3]) for i in range(0, len(cells), 3)]
    path.write_text("rho_1,rho_2,rho_3\n" + "\n".join(rows) + "\n")
    assert _assert_reads_as_reference(path, ["rho_1", "rho_2", "rho_3"]) == (None, True)
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        with np.errstate(all="ignore"):
            cast = np.fromstring(",".join(cells), dtype=np.longdouble, sep=",").astype(float)
        assert (cast != [float(c) for c in cells]).sum() > 100


DECIMAL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False, max_value=1.7976931348623155e308).map(halfway_cells).flatmap(st.sampled_from),
    st.builds(lambda sign, digits, point, exponent: f"{sign}{digits[:point]}.{digits[point:]}e{exponent}",
              st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=40),
              st.integers(0, 40), st.integers(-400, 400)),
    st.sampled_from(EDGE_CELLS + ["1.7976931348623159e308", "1e400", "-1e400"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DECIMAL_CELLS, min_size=2, max_size=40))
def test_decimal_cells_read_as_reference(tmp_path_factory, cells):
    """Long mantissas, far exponents and cells near halfway read as float() reads them.

    A cell that overflows (1.7976931348623159e308, 1e400) exits 3 and is named.
    """
    cells += ["0"] * (len(cells) % 2)
    path = tmp_path_factory.mktemp("decimal") / "in.csv"
    path.write_text("rho_re,rho_im\n" + "".join(f"{a},{b}\n" for a, b in zip(cells[::2], cells[1::2])))
    error, fast = _assert_reads_as_reference(path, ["rho_re", "rho_im"])
    assert fast and (error is None or error[0] == cli.EXIT_PARSE)


@pytest.mark.parametrize("line,parsed", [("1, ,2", False), ("1,\t,2", False), ("1,\t,2\r", False),
                                         ("1,,2", True)])
def test_blank_cell_is_named(workdir, line, parsed):
    """numpy's parser reads a blank cell as 0 ("0, ,0" gives three zeros): it must never see one.

    An empty cell does reach it, in a canonical block, which it refuses: float() names the cell.
    """
    path = workdir / "blank.csv"
    path.write_bytes(f"rho_1,rho_2,rho_3\n{line}\n".encode())
    argv = ["transform", "--direction", "forward", "--geometry", str(workdir / "g3.json"),
            "--input", str(path), "--output", str(workdir / "blank-out.csv")]
    with mock.patch.object(np, "fromstring", wraps=np.fromstring) as fromstring:
        code, stderr, _ = _main(argv)
    assert (code, stderr) == (cli.EXIT_PARSE, f"error: {path}: row 1, column rho_2: cannot parse ''\n")
    assert fromstring.called == parsed


def test_a_short_parse_is_read_cell_by_cell(tmp_path):
    """A canonical block that numpy parses one value short is refused by its cell count.

    A block is taken only when numpy returns every cell and the sentinel
    cell appended to it.  numpy 2 raises on unmatched data, and numpy 1
    returns the values it read up to the cell it could not finish, so both
    fall short of that count.  The refused block is read cell by cell, as
    the reference reads it.
    """
    header = ["rho_re", "rho_im"]
    path = tmp_path / "in.csv"
    path.write_text("rho_re,rho_im\n1,2\n3,4\n-0,5e-324\n")
    fromstring, plain_rows = np.fromstring, cli._plain_rows
    refusals = []

    def short_parse(text, **kwargs):
        return fromstring(text, **kwargs)[:-1]

    def record(data, k):
        rows = plain_rows(data, k)
        refusals.append(rows is None)
        return rows

    with mock.patch.object(np, "fromstring", side_effect=short_parse) as parse, \
            mock.patch.object(cli, "_plain_rows", side_effect=record):
        got = cli._read_table(str(path), header)
    want = np.asarray(reference_read_table(str(path), header)).reshape(-1, 2)
    assert parse.called and all(refusals)
    assert got.tobytes() == want.tobytes()


def test_the_reader_parses_under_the_callers_warnings_filters(tmp_path):
    """Every np.fromstring call sees the warnings filters its caller set.

    The reader changes no process-wide state, so cli.main may run in
    several threads at once.
    """
    header = ["rho_re", "rho_im"]
    table = np.random.default_rng(25).normal(scale=0.01, size=(100_000, 2))
    path = tmp_path / "in.csv"
    cli._write_table(str(path), header, table)
    fromstring, seen = np.fromstring, []

    def spy(*args, **kwargs):
        seen.append(list(warnings.filters))
        return fromstring(*args, **kwargs)

    filters = list(warnings.filters)
    with mock.patch.object(np, "fromstring", side_effect=spy):
        got = cli._read_table(str(path), header)
    assert got.tobytes() == table.tobytes()
    assert len(seen) > 1 and all(during == filters for during in seen)


def numpy1_fromstring(fromstring):
    """np.fromstring(text, dtype, sep=",") as numpy 1 parses unmatched data.

    numpy 1 reads the longest number at each cell's start, as strtold does.
    At a cell it cannot read whole it warns and returns what it has read,
    that cell's partial value included (4 for "4e"); an empty cell ends the
    parse in the same way, before any value.
    """
    def parse(text, dtype, sep):
        assert sep == ","
        read = []
        cells = text.split(b",")
        for i, cell in enumerate(cells):
            if not cell and i == len(cells) - 1:  # the separator ended the text
                break
            whole = next((j for j in range(len(cell), 0, -1) if _is_number(cell[:j])), 0)
            if whole:
                read.append(cell[:whole])
            if whole < len(cell) or not cell:
                warnings.warn("string or file could not be read to its end due to unmatched data; "
                              "this will raise a ValueError in the future.", DeprecationWarning)
                break
        return fromstring(b",".join(read), dtype=dtype, sep=sep)

    return parse


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _canonical_text(header, size, last):
    """Canonical text whose first size bytes end with the row last, 40 rows after it, and that row's number.

    A row's padded first cell puts the LF of last at byte size - 1, so the
    second block read in reads of size // 2 bytes ends with last.
    """
    k = len(header)
    head, row = ",".join(header) + "\n", ",".join(["1"] * k) + "\n"
    count, pad = divmod(size - len(head) - len(last), len(row))
    rows = [row] * count
    rows[0] = "1" + "0" * pad + rows[0][1:]
    return head + "".join(rows) + last + row * 40, count + 1


MALFORMED_LAST = ["4e", "1e+", "1.2.3", "4e5e"]


@pytest.mark.parametrize("action", ["ignore", "default", "error"])
@pytest.mark.parametrize("command", ["transform", "check"])
@pytest.mark.parametrize("cell", MALFORMED_LAST)
def test_numpy1_partial_last_cell_is_refused_by_the_count(workdir, cell, command, action):
    """A last cell numpy 1 reads in part (4e as 4) fails the count: exit 3 names it.

    With numpy 1's early stop emulated, under any filter of its
    DeprecationWarning, the cell ends the file or an inner block (it is the
    last row of the second block at each read size), and both transform and
    check --membership refuse it; check prints nothing.
    """
    if command == "transform":
        header, argv = ["rho_re", "rho_im"], ["transform", "--direction", "inverse",
                                                "--geometry", str(workdir / "g4.json")]
    else:
        header, argv = ["rho_1", "rho_2", "rho_3"], ["check", "--n-max", "3",
                                                      "--geometry", str(workdir / "g3.json")]
    k = len(header)
    last = ",".join(["0"] * (k - 1) + [cell]) + "\n"
    path, out = workdir / f"numpy1-{command}.csv", workdir / "numpy1-out.csv"
    placements = [(cli._READ_BYTES, ",".join(header) + "\n" + ",".join(["1"] * k) + "\n" + last, 2)]
    placements += [(read_bytes, *_canonical_text(header, 2 * read_bytes, last)) for read_bytes in READ_BYTES]
    fromstring = np.fromstring
    assert (numpy1_fromstring(fromstring)(b"1,-2.5e-3,0", dtype=np.longdouble, sep=",")
            == fromstring(b"1,-2.5e-3,0", dtype=np.longdouble, sep=",")).all()
    files = ["--membership", str(path)]
    if command == "transform":
        files = ["--input", str(path), "--output", str(out)]
    for read_bytes, text, row in placements:
        path.write_bytes(text.encode())
        out.unlink(missing_ok=True)
        with mock.patch.object(cli, "_READ_BYTES", read_bytes):
            blocks = list(cli._blocks(io.BytesIO(text.encode())))
        assert any(block.endswith(last.encode()) for block in blocks)
        with warnings.catch_warnings(record=True) as shown, \
                mock.patch.object(cli, "_READ_BYTES", read_bytes), \
                mock.patch.object(np, "fromstring", side_effect=numpy1_fromstring(fromstring)):
            warnings.simplefilter(action, DeprecationWarning)
            code, stderr, stdout = _main(argv + files)
        message = f"error: {path}: row {row}, column {header[-1]}: cannot parse {cell!r}\n"
        assert (code, stderr, stdout) == (cli.EXIT_PARSE, message, "")
        assert not out.exists()
        assert [w.category for w in shown] == [DeprecationWarning] * (action == "default")


def test_main_runs_in_several_threads_at_once(workdir):
    """Four threads run transform, fk and convert through cli.main at once.

    Each output equals the bytes of the same command run alone, and the
    warnings filters are as they were.
    """
    rng = np.random.default_rng(27)
    clarke, rho = workdir / "threads-clarke.csv", workdir / "threads-rho.csv"
    cli._write_table(str(clarke), ["rho_re", "rho_im"], rng.normal(scale=0.01, size=(30_000, 2)))
    geometry = ["--geometry", str(workdir / "g4.json")]
    assert cli.main(["transform", "--direction", "inverse", "--input", str(clarke),
                     "--output", str(rho)] + geometry) == cli.EXIT_OK
    jobs = [
        ["transform", "--direction", "forward", "--input", str(rho)],
        ["transform", "--direction", "inverse", "--input", str(clarke)],
        ["fk", "--strategy", "adaptive-epsilon", "--input", str(clarke)],
        ["convert", "--scheme", "allen4", "--from", "clarke", "--input", str(clarke)],
    ]
    for i, job in enumerate(jobs):
        assert cli.main(job + geometry + ["--output", str(workdir / f"serial-{i}.csv")]) == cli.EXIT_OK
    filters, start, codes = list(warnings.filters), threading.Barrier(len(jobs)), [None] * len(jobs)

    def run(i):
        start.wait()
        codes[i] = cli.main(jobs[i] + geometry + ["--output", str(workdir / f"thread-{i}.csv")])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert codes == [cli.EXIT_OK] * len(jobs)
    for i in range(len(jobs)):
        assert (workdir / f"thread-{i}.csv").read_bytes() == (workdir / f"serial-{i}.csv").read_bytes()
    assert warnings.filters == filters


@pytest.mark.parametrize("read_bytes", READ_BYTES)
def test_blocks_never_split_a_crlf_pair(read_bytes):
    """No block ends in the CR of a CRLF pair, even where a read ends there.

    The lines take 5 bytes, so one of five shifts puts a read's end between
    CR and LF; the last case has a CR with no LF before it in the read.
    """
    lines = b"1,2\r\n" * (read_bytes // 2)
    for data in [b"h" * shift + lines for shift in range(5)] + [b"a" * (read_bytes - 1) + b"\r\n" + lines]:
        with mock.patch.object(cli, "_READ_BYTES", read_bytes):
            blocks = list(cli._blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("read_bytes", READ_BYTES)
@pytest.mark.parametrize("bom", ["", "\ufeff"])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_canonical_files_are_read_in_c_only(tmp_path, eol, bom, read_bytes):
    """Every data block of a canonical file, the first included, is parsed by np.fromstring.

    A canonical block's text reaches it with every cell followed by a comma.
    """
    header = ["rho_1", "rho_2", "rho_3"]
    table = np.random.default_rng(18).normal(scale=0.01, size=(2000, 3))
    path = tmp_path / "in.csv"
    cli._write_table(str(path), header, table)
    path.write_bytes(bom.encode() + path.read_bytes().replace(b"\n", eol.encode()))
    with mock.patch.object(cli, "_READ_BYTES", read_bytes), \
            mock.patch.object(np, "fromstring", wraps=np.fromstring) as fromstring:
        got = cli._read_table(str(path), header)
    assert got.tobytes() == table.tobytes()
    assert sum(call.args[0].count(b",") for call in fromstring.call_args_list) == table.size


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX only")
@pytest.mark.parametrize("text", [
    "rho_re,rho_im\n1,2\n-0,5e-324\n",  # canonical
    "\ufeffrho_re,rho_im\r\n1,2\r\n  \r\n3,4\r\n",  # a whitespace-only line: read cell by cell
])
def test_pipe_reads_as_reference(tmp_path, text):
    """A named pipe (say `--input <(zcat rho.csv.gz)`) gives its bytes once.

    The reader must read it once, so it reads the same table as a regular
    file with the same text.
    """
    header = ["rho_re", "rho_im"]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)

    def write(data):
        with open(fifo, "wb") as fh:
            fh.write(data)

    threading.Thread(target=write, args=(text.encode("utf-8"),), daemon=True).start()
    # a reader that opens the pipe a second time would wait for a second
    # writer: this one gives it an empty pipe, so the test fails, not hangs
    rescue = threading.Timer(10.0, write, args=(b"",))
    rescue.daemon = True
    rescue.start()
    try:
        got = cli._read_table(fifo, header)
    finally:
        rescue.cancel()
    want = np.asarray(reference_read_table(str(path), header)).reshape(-1, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("line,row", [
    ("", None),
    ("  \n", None),  # whitespace only: its block is read cell by cell
    ("1_0" + ",0" * 11 + "\n", 10.0),  # outside the plain alphabet: float() reads it
    ("\xa01\xa0" + ",0" * 11 + "\n", 1.0),  # padded with non-breaking spaces: not ASCII
])
def test_plain_read_holds_about_the_table(tmp_path, line, row):
    """Reading a file peaks below twice the table's bytes plus 2 MiB.

    A reader that holds the whole text (about 2.7 times the table's bytes)
    and a list of its lines does not, nor does one that sends a whole file
    to float() for one cell outside the plain alphabet (6.1 times).  The line
    is put in the middle of the file.
    """
    header = [f"rho_{i}" for i in range(1, 13)]
    table = np.random.default_rng(7).normal(scale=0.01, size=(20_000, 12))
    path = tmp_path / "wide.csv"
    cli._write_table(str(path), header, table)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10_000] + [line] + lines[10_000:]), encoding="utf-8")
    want = table if row is None else np.insert(table, 9_999, [row] + [0.0] * 11, axis=0)
    path = str(path)
    tracemalloc.start()
    try:
        got = cli._read_table(path, header)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 2 * table.nbytes + 2 * 2**20
