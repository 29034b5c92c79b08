"""The chunked CSV reader against the per-cell reference parser, on generated text.

reference_read_table is the reader as it was before parsing went chunk by
chunk: one float() per stripped cell.  Both must accept the same files with
the same values, and reject the same files with the same exit code and
message.  cli.main must never raise and must return a documented exit code.
"""

import contextlib
import io
import json
import math
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
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, 3, cli._CHUNK_ROWS]))
def test_reader_matches_reference_and_main_never_raises(workdir, case, chunk_rows):
    n, header, argv, text = case
    path = workdir / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    out = workdir / "out.csv"
    out.unlink(missing_ok=True)

    want, want_error = _outcome(reference_read_table, str(path), header)
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        got, got_error = _outcome(cli._read_table, str(path), header)
        code, stderr = _main(argv + ["--geometry", str(workdir / f"g{n}.json"),
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
    code, _ = _main(argv)
    assert code in range(5)
    if membership_tol in ("0", "-1", "nan", "inf"):
        assert code == cli.EXIT_USAGE
