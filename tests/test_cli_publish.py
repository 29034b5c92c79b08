"""Row commands publish their output whole, or leave it as it was.

Each command runs in a child process.  A failed run must exit 1-4 without a
traceback, leave an output that existed before byte-identical and leave no
temporary file behind; a run that succeeds replaces a regular output (the
target of a symlink) and fills a FIFO in place.
"""

import json
import os
import resource
import signal
import stat
import subprocess
import sys

import numpy as np
import pytest

from clarke_kinematics import cli

OLD = b"old\n"


def _run(argv, prelude="", preexec_fn=None):
    """Run clarke-kin with argv in a child process after the statements of prelude."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = f"import sys\nfrom clarke_kinematics import cli\n{prelude}\nsys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          preexec_fn=preexec_fn, timeout=120)


def _fk_argv(tmp_path, rows, output, strategy="analytic-branch"):
    geometry = tmp_path / "g.json"
    geometry.write_text(json.dumps({"n": 4, "d": 0.01, "l": 0.1}))
    clarke = tmp_path / "clarke.csv"
    cli._write_table(str(clarke), ["rho_re", "rho_im"], np.asarray(rows, dtype=float))
    return ["fk", "--geometry", str(geometry), "--input", str(clarke), "--strategy", strategy,
            "--output", str(output)]


def _bent(rows):
    return np.random.default_rng(rows).normal(scale=0.01, size=(rows, 2))


def _listing(directory):
    return sorted(os.listdir(directory))


def _assert_failed_cleanly(proc, code, output, listing):
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert proc.stdout == b""
    assert output.read_bytes() == OLD
    assert _listing(output.parent) == listing


def _file_size_limit():
    """1 MiB files, and a write past that fails with EFBIG instead of killing the process."""
    resource.setrlimit(resource.RLIMIT_FSIZE, (2**20, 2**20))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


def test_a_write_past_the_file_size_limit_keeps_the_old_output(tmp_path):
    output = tmp_path / "poses.csv"
    argv = _fk_argv(tmp_path, _bent(8000), output)  # about 2.2 MB of poses
    output.write_bytes(OLD)
    listing = _listing(tmp_path)
    proc = _run(argv, preexec_fn=_file_size_limit)
    _assert_failed_cleanly(proc, cli.EXIT_USAGE, output, listing)
    assert f"cannot write {output}: " in proc.stderr.decode()
    assert "File too large" in proc.stderr.decode()


def test_a_domain_error_after_written_blocks_keeps_the_old_output(tmp_path):
    output = tmp_path / "poses.csv"
    rows = np.concatenate([_bent(40), [[0.0, 0.0]], _bent(3)])
    argv = _fk_argv(tmp_path, rows, output, "avoid-straight")
    output.write_bytes(OLD)
    listing = _listing(tmp_path)
    proc = _run(argv, prelude="cli._CHUNK_CELLS = 24")  # mapped in 24 rows, written in 2
    _assert_failed_cleanly(proc, cli.EXIT_DOMAIN, output, listing)
    assert proc.stderr.decode().startswith("error: row 41: bending angle")


def test_an_output_under_a_regular_file_exits_2_before_mapping(tmp_path):
    """ENOTDIR, which also stops root; the output is checked before any row maps."""
    parent = tmp_path / "plain.txt"
    parent.write_bytes(OLD)
    output = parent / "poses.csv"
    argv = _fk_argv(tmp_path, [[0.0, 0.0]], output, "avoid-straight")
    listing = _listing(tmp_path)
    proc = _run(argv)
    _assert_failed_cleanly(proc, cli.EXIT_USAGE, parent, listing)
    assert "Not a directory" in proc.stderr.decode()


def test_a_directory_output_exits_2_before_mapping(tmp_path):
    output = tmp_path / "poses"
    output.mkdir()
    argv = _fk_argv(tmp_path, [[0.0, 0.0]], output, "avoid-straight")
    proc = _run(argv)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.decode() == f"error: cannot write {output}: [Errno 21] Is a directory: '{output}'\n"
    assert os.listdir(output) == []


def test_an_interrupt_while_writing_keeps_the_old_output(tmp_path):
    output = tmp_path / "poses.csv"
    argv = _fk_argv(tmp_path, _bent(20), output)
    output.write_bytes(OLD)
    listing = _listing(tmp_path)
    prelude = (
        "cli._CHUNK_CELLS = 24\n"
        "format_rows, calls = cli._format_rows, []\n"
        "def interrupted(*args):\n"
        "    calls.append(1)\n"
        "    if len(calls) == 2:\n"
        "        raise KeyboardInterrupt\n"
        "    return format_rows(*args)\n"
        "cli._format_rows = interrupted"
    )
    proc = _run(argv, prelude=prelude)
    _assert_failed_cleanly(proc, cli.EXIT_USAGE, output, listing)
    assert proc.stderr == b"error: interrupted\n"


def _expected_poses(tmp_path, rows):
    plain = tmp_path / "plain" / "poses.csv"
    plain.parent.mkdir()
    assert _run(_fk_argv(tmp_path, rows, plain)).returncode == cli.EXIT_OK
    return plain.read_bytes()


def test_a_symlinked_output_keeps_the_link_and_replaces_its_target(tmp_path):
    rows = _bent(30)
    expected = _expected_poses(tmp_path, rows)
    target = tmp_path / "data" / "poses.csv"
    target.parent.mkdir()
    target.write_bytes(OLD)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    listings = _listing(tmp_path), _listing(target.parent)
    proc = _run(_fk_argv(tmp_path, rows, link))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected
    assert (_listing(tmp_path), _listing(target.parent)) == listings


def test_a_fifo_output_is_filled_in_place(tmp_path):
    rows = _bent(30)  # poses well within a pipe's buffer
    expected = _expected_poses(tmp_path, rows)
    fifo = tmp_path / "poses.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        proc = _run(_fk_argv(tmp_path, rows, fifo))
        got = b""
        while chunk := os.read(reader, 1 << 16):
            got += chunk
    finally:
        os.close(reader)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == expected


@pytest.mark.parametrize("umask, existing, mode", [
    (0o022, None, 0o644),
    (0o077, None, 0o600),
    (0o022, 0o600, 0o600),
    (0o077, 0o664, 0o664),
])
def test_output_modes_follow_open_and_keep_an_existing_file(tmp_path, umask, existing, mode):
    output = tmp_path / "poses.csv"
    argv = _fk_argv(tmp_path, _bent(5), output)
    if existing is not None:
        output.write_bytes(OLD)
        output.chmod(existing)
    proc = _run(argv, preexec_fn=lambda: os.umask(umask))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert stat.S_IMODE(output.stat().st_mode) == mode
    assert output.read_bytes() != OLD


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_new_output_gets_the_mode_open_gives_without_reading_the_umask(tmp_path, umask, mode):
    """Reading the umask through os.umask(0) would set it to 0 for a moment in every thread."""
    output = tmp_path / "poses.csv"
    argv = _fk_argv(tmp_path, _bent(5), output)
    prelude = (
        "import os\n"
        "def umask(mask):\n"
        "    raise AssertionError('os.umask called')\n"
        "os.umask = umask"
    )
    proc = _run(argv, prelude=prelude, preexec_fn=lambda: os.umask(umask))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert stat.S_IMODE(output.stat().st_mode) == mode
