"""cli.main never raises, over the flags of every command and edge geometries.

Each example draws a geometry file (joint counts at and past both limits,
d and l from the smallest subnormal to 1e308), one command with valid and
invalid flag values, CLARKE_KIN_TOL, and a small input file with the header
the command expects.  cli.main runs in-process: it must return an exit code
in 0-4, leave an output only on exit 0, and write no nan or inf cell.
RuntimeWarning is an error under this suite's pytest settings, so a numpy
warning on the way fails the example too.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clarke_kinematics import cli, legacy
from clarke_kinematics.kinematics import SingularityStrategy

GEOMETRY_VALUES = [5e-324, 1e-300, 0.01, 0.1, 3.14, 1e308]  # d and l
NUMBERS = ["5e-324", "1e-300", "0.01", "0.1", "3.14", "1e305", "1e306", "1e308"]
BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e400", "x", ""]
CELLS = ["0", "-0", "5e-324", "1e-300", "0.01", "-0.02", "3.5", "1e300", "1e308", "-1e308"]
SCHEMES = [s.value for s in legacy.LegacyScheme]
STRATEGIES = [s.value for s in SingularityStrategy]


def optional(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def number():
    valid = st.sampled_from(NUMBERS)
    return st.one_of(valid, valid, st.sampled_from(BAD_NUMBERS), st.floats().map(repr))


def integer(low, high):
    valid = st.integers(low, high).map(str)
    return st.one_of(valid, valid, valid, st.sampled_from(["x", "1.5", ""]))


@st.composite
def invocations(draw):
    """(geometry, argv, CLARKE_KIN_TOL or None, the text of the input files).

    argv holds the fields {geometry}, {input}, {membership} and {output},
    which _run fills with the paths of the files it writes.
    """
    n = draw(st.sampled_from([2, 3, 3, 4, 4, 1024, 1025]))
    geometry = {"n": n, "d": draw(st.sampled_from(GEOMETRY_VALUES)),
                "l": draw(st.sampled_from(GEOMETRY_VALUES))}
    width = min(n, 1024)
    joints = [f"rho_{i}" for i in range(1, width + 1)]
    lengths = [f"l_{i}" for i in range(1, width + 1)]
    clarke = ["rho_re", "rho_im"]
    command = draw(st.sampled_from(["transform", "convert", "fk", "sample", "check"]))
    argv, header = [command, "--geometry", "{geometry}"], clarke
    if command == "transform":
        direction = draw(st.sampled_from(["forward", "inverse", "sideways"]))
        argv += ["--direction", direction, "--input", "{input}", "--output", "{output}"]
        header = joints if direction == "forward" else clarke
    elif command == "convert":
        scheme = draw(st.one_of(st.none(), st.sampled_from(SCHEMES + [" Allen4", "allen5"])))
        source = draw(st.sampled_from(["clarke", "legacy", "lengths", "poses"]))
        argv += ["--scheme", scheme] if scheme is not None else []
        argv += ["--from", source, "--input", "{input}", "--output", "{output}"]
        if source == "lengths":
            header = lengths
        elif source == "legacy" and scheme is not None and scheme.strip().lower() in SCHEMES:
            header = list(legacy.LegacyScheme.from_name(scheme).pair_names)
    elif command == "fk":
        argv += draw(optional("--strategy", st.sampled_from(STRATEGIES + ["bogus", ""])))
        argv += draw(optional("--epsilon", number()))
        argv += ["--input", "{input}", "--output", "{output}"]
    elif command == "sample":
        argv += ["--phi-max", draw(number()), "--count", draw(integer(-2, 1000)),
                 "--seed", draw(integer(-3, 2**70)), "--output", "{output}"]
    else:
        argv += ["--n-max", draw(integer(-1, 16))]
        argv += draw(optional("--tol", number()))
        argv += draw(optional("--membership-tol", number()))
        if draw(st.booleans()):
            argv += ["--membership", "{membership}"]
        header = joints
    tol = draw(st.one_of(st.none(), number()))
    row = st.lists(st.sampled_from(CELLS), min_size=1, max_size=3)
    rows = draw(st.lists(row, max_size=3))
    text = ",".join(header) + "".join(
        "\n" + ",".join(cells[i % len(cells)] for i in range(len(header))) for cells in rows)
    return geometry, argv, tol, text + "\n"


def _run(case):
    geometry, argv, tol, text = case
    with tempfile.TemporaryDirectory() as tmp:
        names = ("input", "membership", "output")
        paths = {name: os.path.join(tmp, f"{name}.csv") for name in names}
        paths["geometry"] = os.path.join(tmp, "g.json")
        with open(paths["geometry"], "w") as fh:
            json.dump(geometry, fh)
        for name in ("input", "membership"):
            with open(paths[name], "w") as fh:
                fh.write(text)
        env = {k: v for k, v in os.environ.items() if k != cli.TOL_ENV_VAR}
        if tol is not None:
            env[cli.TOL_ENV_VAR] = tol
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env, clear=True), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([a.format(**paths) for a in argv])
        written = None
        if os.path.exists(paths["output"]):
            with open(paths["output"], "rb") as fh:
                written = fh.read()
        leftovers = sorted(set(os.listdir(tmp)) - {"g.json"} - {f"{name}.csv" for name in names})
    return code, written, leftovers, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(invocations())
@example(({"n": 4, "d": 1000.0, "l": 0.1},
          ["sample", "--geometry", "{geometry}", "--phi-max", "1e306", "--count", "5",
           "--seed", "1", "--output", "{output}"], None, "\n"))
@example(({"n": 4, "d": 0.01, "l": 0.1},
          ["check", "--geometry", "{geometry}", "--n-max", "256"], None, "\n"))
def test_main_never_raises_over_every_command(case):
    code, written, leftovers, stderr = _run(case)
    assert code in range(5), stderr
    assert (written is not None) == (code == cli.EXIT_OK and "{output}" in case[1]), stderr
    assert leftovers == []
    if written is not None:
        lines = written.decode("utf-8").splitlines()
        for line in lines[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), line

