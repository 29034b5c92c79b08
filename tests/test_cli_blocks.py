"""Row commands map their tables in blocks of rows and write them in blocks of cells.

Every block size must give the bytes, messages and exit codes of one block
over the whole table, and the memory a command holds beyond its input table
must not grow with the row count.  main builds its parser once, and running
out of memory, while mapping a table or reading one, exits 2 without a
traceback.
"""

import contextlib
import gc
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from clarke_kinematics import cli
from test_cli_bytes import CASES, run_case

BLOCK_SIZES = [1, 2, 3, None]  # rows per block; None: the default blocks
CLARKE_HEADER = ["rho_re", "rho_im"]
BENT = [[0.0123, -0.0045], [-0.021, 0.0173], [2.1e-7, -1.3e-7], [0.004, 0.002]]


def _geometry(tmp_path, n):
    path = tmp_path / f"g{n}.json"
    path.write_text(json.dumps({"n": n, "d": 0.01, "l": 0.1}))
    return str(path)


def _csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(repr(float(v)) for v in r) for r in rows]) + "\n")
    return str(path)


def _blocks_of(block_rows, columns):
    """Patch _CHUNK_CELLS so that a table of that many columns is written, and its
    members counted, block_rows rows at a time (and mapped min(columns, 16) times as many)."""
    cells = cli._CHUNK_CELLS if block_rows is None else block_rows * columns
    return mock.patch.object(cli, "_CHUNK_CELLS", cells)


def _mapped_blocks_of(block_rows):
    """Patch _CHUNK_CELLS so that a table is mapped block_rows rows at a time.

    _write_table writes step = max(1, _CHUNK_CELLS // k) rows at a time and
    maps step * min(_CHUNK_CELLS // step, 16): for block_rows 1, 2 or 3 that
    is block_rows rows, written max(1, block_rows // k) rows at a time.
    """
    cells = cli._CHUNK_CELLS if block_rows is None else block_rows
    return mock.patch.object(cli, "_CHUNK_CELLS", cells)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_blocks_write_the_bytes_of_one_block(tmp_path, name):
    columns = run_case(tmp_path, name).splitlines()[0].count(",") + 1
    with _blocks_of(len(CASES[name][2]), columns):
        whole = run_case(tmp_path, name)
    for block_rows in BLOCK_SIZES:
        with _blocks_of(block_rows, columns):
            assert run_case(tmp_path, name) == whole
        with _mapped_blocks_of(block_rows):
            assert run_case(tmp_path, name) == whole


def test_blocks_give_the_membership_counts_of_one_block(tmp_path):
    rng = np.random.default_rng(5)
    clarke = rng.normal(scale=0.01, size=(7, 2))
    psi = np.pi / 2 * np.arange(4)
    rows = clarke[:, :1] * np.cos(psi) + clarke[:, 1:] * np.sin(psi)
    rows[1::2] += rng.normal(scale=1e-3, size=(3, 4))  # three rows off the joint space
    argv = ["check", "--geometry", _geometry(tmp_path, 4), "--n-max", "4", "--membership",
            _csv(tmp_path / "rho.csv", [f"rho_{i}" for i in range(1, 5)], rows)]
    with _blocks_of(len(rows), 4):
        whole = _run(argv)
    assert whole[0] == cli.EXIT_IDENTITY and "membership: 4/7 rows inside" in whole[1]
    for block_rows in BLOCK_SIZES:
        with _blocks_of(block_rows, 4):
            assert _run(argv) == whole


def _fk_argv(tmp_path, rows, strategy):
    return ["fk", "--geometry", _geometry(tmp_path, 4), "--strategy", strategy,
            "--input", _csv(tmp_path / "in.csv", CLARKE_HEADER, rows),
            "--output", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_avoid_straight_names_a_later_straight_row_first(tmp_path, block_rows):
    """Row 2 overflows and row 6 is straight: row 6 is named, as with one block."""
    rows = BENT[:1] + [[1e306, 1e306]] + BENT[1:] + [[0.0, 0.0], BENT[0]]
    with _mapped_blocks_of(block_rows):
        rc, out, err = _run(_fk_argv(tmp_path, rows, "avoid-straight"))
    assert rc == cli.EXIT_DOMAIN and out == ""
    assert err.startswith("error: row 6: bending angle 0.000e+00 below epsilon")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("strategy", ["analytic-branch", "avoid-straight"])
def test_overflow_in_a_later_block_names_its_row_and_column(tmp_path, block_rows, strategy):
    rows = BENT + [[1e306, -1e306], [1e306, 1e306]]
    with _mapped_blocks_of(block_rows):
        rc, out, err = _run(_fk_argv(tmp_path, rows, strategy))
    assert rc == cli.EXIT_DOMAIN and out == ""
    assert err == (
        "error: row 5: column r11 is nan; the input is outside the finite domain of the map\n"
    )
    assert not (tmp_path / "out.csv").exists()


def _traced_peak(argv):
    _run(argv)  # warm: the writer's tables and the parser are built once per process
    tracemalloc.start()
    try:
        rc = _run(argv)[0]
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [20_000, 80_000])
def test_fk_holds_its_input_and_a_fixed_budget(tmp_path, rows):
    """fk's traced peak stays within 3 MiB of its input table.

    No output table is held: each block is mapped, formatted and written
    before the next, so everything traced beyond the input, the block's
    kernel temporaries and text included, must fit the budget.  Mapping the
    whole table at once held about 12 columns of temporaries and a copy of
    the output: 9 MiB over the input and output tables at 80 000 rows.
    """
    clarke = np.random.default_rng(rows).normal(scale=0.01, size=(rows, 2))
    path = str(tmp_path / "clarke.csv")
    cli._write_table(path, CLARKE_HEADER, clarke)
    rc, peak = _traced_peak(["fk", "--geometry", _geometry(tmp_path, 4), "--input", path,
                             "--output", str(tmp_path / "poses.csv")])
    assert rc == cli.EXIT_OK
    assert peak - clarke.nbytes < 3 * 2**20


@pytest.mark.parametrize("rows", [20_000, 80_000])
def test_membership_check_holds_its_input_and_a_fixed_budget(tmp_path, rows):
    """check --membership's traced peak stays within 3 MiB of its table (flags are per block)."""
    rho = np.random.default_rng(rows).normal(scale=0.01, size=(rows, 12))
    path = str(tmp_path / "rho.csv")
    cli._write_table(path, [f"rho_{i}" for i in range(1, 13)], rho)
    rc, peak = _traced_peak(["check", "--geometry", _geometry(tmp_path, 12), "--n-max", "12",
                             "--membership", path])
    assert rc == cli.EXIT_IDENTITY  # random rows lie outside the joint space
    assert peak - rho.nbytes < 3 * 2**20


def test_a_warm_command_leaves_no_cyclic_garbage(tmp_path):
    argv = _fk_argv(tmp_path, BENT, "analytic-branch")
    assert _run(argv)[0] == cli.EXIT_OK
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _run(argv)[0] == cli.EXIT_OK
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_a_usage_error_leaves_the_parser_working(tmp_path):
    argv = _fk_argv(tmp_path, BENT, "analytic-branch")
    rc, out, err = _run(argv + ["--bogus", "1"])
    assert rc == cli.EXIT_USAGE and "unrecognized arguments: --bogus 1" in err
    assert not (tmp_path / "out.csv").exists()
    assert _run(argv) == (cli.EXIT_OK, "", "")
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + len(BENT)


def test_sample_out_of_memory_exits_2(tmp_path):
    out = tmp_path / "rho.csv"
    argv = ["sample", "--geometry", _geometry(tmp_path, 4), "--phi-max", "1",
            "--count", "1000000000", "--seed", "1", "--output", str(out)]
    with mock.patch.object(cli.joint_space, "sample", side_effect=MemoryError):
        result = _run(argv)
    assert result == (cli.EXIT_USAGE, "", "error: sample: not enough memory for 1000000000 rows\n")
    assert not out.exists()


def test_row_mapping_out_of_memory_exits_2_and_publishes_nothing(tmp_path):
    argv = _fk_argv(tmp_path, BENT, "analytic-branch")
    listing = sorted(p.name for p in tmp_path.iterdir())
    with mock.patch.object(cli, "forward_kinematics_rows", side_effect=MemoryError):
        result = _run(argv)
    assert result == (cli.EXIT_USAGE, "", f"error: fk: not enough memory for {len(BENT)} rows\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == listing  # no output, no temporary file


def _parser_out_of_memory():
    """numpy's text parser runs out of memory, as it does on a table past `ulimit -v`."""
    return mock.patch.object(np, "fromstring", side_effect=MemoryError)


def test_reader_out_of_memory_exits_2(tmp_path):
    argv = _fk_argv(tmp_path, BENT, "analytic-branch")
    with _parser_out_of_memory():
        result = _run(argv)
    path = tmp_path / "in.csv"
    assert result == (cli.EXIT_USAGE, "", f"error: {path}: not enough memory for more than 0 rows\n")
    assert not (tmp_path / "out.csv").exists()


def test_membership_reader_out_of_memory_exits_2(tmp_path):
    path = _csv(tmp_path / "rho.csv", [f"rho_{i}" for i in range(1, 5)], np.zeros((5, 4)))
    argv = ["check", "--geometry", _geometry(tmp_path, 4), "--n-max", "4", "--membership", path]
    with _parser_out_of_memory():
        rc, out, err = _run(argv)
    assert rc == cli.EXIT_USAGE and out == ""
    assert err == f"error: {path}: not enough memory for more than 0 rows\n"
