"""Running out of memory, or a geometry nested too deeply, exits 2 with one line.

MemoryError is injected at every boundary a command crosses: the geometry's
JSON parse, the CSV parser, each row kernel, joint-space membership and
sampling, the formatter and the identity suite.  main alone turns it into
`error: <command>: not enough memory`, followed by numpy's own text when
there is one.  Every refused run leaves stdout empty, writes exactly one
line to stderr and leaves the output's directory as it was, an existing
output byte for byte.
"""

import json
import os
import sys
from unittest import mock

import numpy as np
import pytest

from clarke_kinematics import cli, identities, joint_space, legacy
from test_cli_blocks import _csv
from test_cli_bytes import CASES, RHO4

OLD = b"old\n"
GEOMETRY = (json, "load")
READER = (np, "fromstring")
FORMATTER = (cli, "_format_rows")

# one row command per kernel that _map_rows reaches, and that kernel
ROW_KERNELS = {
    "transform-forward": (cli, "forward_transform_rows"),
    "transform-inverse": (cli, "inverse_transform_rows"),
    "convert-lengths": (legacy, "clarke_from_lengths_rows"),
    "convert-clarke-allen4": (legacy, "legacy_from_clarke_rows"),
    "convert-legacy-allen4": (legacy, "clarke_from_legacy_rows"),
    "convert-lengths-allen4": (legacy, "legacy_from_lengths_rows"),
    "fk-analytic-branch": (cli, "forward_kinematics_rows"),
}
BOUNDARIES = {
    **{name: [GEOMETRY, READER, kernel, FORMATTER] for name, kernel in ROW_KERNELS.items()},
    "sample": [GEOMETRY, (joint_space, "sample"), FORMATTER],
    "check": [GEOMETRY, (identities, "run_identity_suite")],
    "check-membership": [GEOMETRY, READER, (joint_space, "contains_rows"),
                         (identities, "run_identity_suite")],
}
WRITES_NO_FILE = {"check", "check-membership"}


def _command(tmp_path, name, existing):
    """argv of the named command on inputs in tmp_path, its output holding OLD if existing."""
    geometry, output = tmp_path / "g.json", tmp_path / "out.csv"
    n = CASES[name][0] if name in CASES else 4
    geometry.write_text(json.dumps({"n": n, "d": 0.01, "l": 0.1}))
    common = ["--geometry", str(geometry)]
    if name in CASES:
        _, header, rows, argv = CASES[name]
        argv = [*argv, *common, "--input", _csv(tmp_path / "in.csv", header, rows),
                "--output", str(output)]
    elif name == "sample":
        argv = ["sample", *common, "--phi-max", "3", "--count", "5", "--seed", "1",
                "--output", str(output)]
    elif name == "check":
        argv = ["check", *common, "--n-max", "200"]
    else:
        rho = _csv(tmp_path / "rho.csv", [f"rho_{i}" for i in range(1, 5)], RHO4)
        argv = ["check", *common, "--n-max", "4", "--membership", rho]
    if existing:
        output.write_bytes(OLD)
    return argv


def _refused(tmp_path, capsys, argv, existing):
    """main's exit code, stdout and stderr on argv, after checking that it left tmp_path as it was."""
    listing = sorted(os.listdir(tmp_path))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == listing  # no output, no temporary file
    if existing:
        assert (tmp_path / "out.csv").read_bytes() == OLD
    return code, out, err


def _with_outputs(cases):
    """Each (name, ..., label) case with no output and, where name writes one, with an old output."""
    return [pytest.param(*values, existing, id=f"{label}-{'old' if existing else 'no'}-output")
            for *values, label in cases
            for existing in ([False] if values[0] in WRITES_NO_FILE else [False, True])]


@pytest.mark.parametrize("name, boundary, existing", _with_outputs(
    (name, (module, attribute), f"{name}-{module.__name__.rsplit('.')[-1]}.{attribute}")
    for name, boundaries in BOUNDARIES.items() for module, attribute in boundaries))
def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, name, boundary, existing):
    argv = _command(tmp_path, name, existing)
    with mock.patch.object(*boundary, side_effect=MemoryError):
        result = _refused(tmp_path, capsys, argv, existing)
    assert result == (cli.EXIT_USAGE, "", f"error: {argv[0]}: not enough memory\n")


def test_numpys_text_follows_the_message(tmp_path, capsys):
    """A real failed allocation: the largest count sample takes at n=4 needs 2 EiB,
    beyond any address space, so numpy refuses it before touching memory."""
    argv = _command(tmp_path, "sample", existing=True)
    count = sys.maxsize // 32
    argv[argv.index("--count") + 1] = str(count)
    code, out, err = _refused(tmp_path, capsys, argv, existing=True)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: sample: not enough memory: Unable to allocate ")
    assert f"shape ({count},)" in err and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("name, existing", _with_outputs((name, name) for name in BOUNDARIES))
def test_a_geometry_nested_too_deeply_exits_2_with_one_line(tmp_path, capsys, name, existing):
    argv = _command(tmp_path, name, existing)
    geometry = tmp_path / "g.json"
    geometry.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _refused(tmp_path, capsys, argv, existing)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(
        f"error: geometry file {geometry} is not valid JSON: maximum recursion depth exceeded"
    )
    assert err.count("\n") == 1 and err.endswith("\n")
