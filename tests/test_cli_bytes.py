"""Exact output bytes of every row-command mode on one fixed input.

The expected files in data/cli_bytes.json were recorded from the CLI as it
stood before its row commands were merged into one pipeline, so any change
to what a command writes shows up here.  adaptive-epsilon is the one mode
whose arithmetic changed since (its regularized magnitude is computed from
the closed form of rho^T rho), so its poses are compared within the ulp
bound stated on forward_kinematics instead of byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from clarke_kinematics import RobotGeometry, arc_from_clarke
from clarke_kinematics.cli import main

EXPECTED = json.loads((Path(__file__).parent / "data" / "cli_bytes.json").read_text())

# generic bends, two series-band rows (epsilon <= phi < 1e-4 with the default
# epsilon of 1e-11 at d = 0.01), one row below epsilon and the straight row
CLARKE = [
    [0.0123, -0.0045],
    [-0.021, 0.0173],
    [2.1e-7, -1.3e-7],
    [7e-12, 4e-12],
    [3e-14, 0.0],
    [0.0, 0.0],
]
# avoid-straight refuses phi < epsilon, so it runs on the bent rows only
BENT = CLARKE[:4]
RHO4 = [
    [0.004, -0.0013, 0.0021, 0.0007],
    [-0.0089, 0.0031, 0.0052, -0.0011],
    [1e-7, -3e-8, 2e-8, 5e-9],
    [0.001, 0.001, 0.001, 0.001],
    [0.0, 0.0, 0.0, 0.0],
    [1.5e-13, 0.0, -2e-13, 7e-14],
]
RHO3 = [row[:3] for row in RHO4]
PAIRS = [[1.23, -0.45], [-0.021, 0.0173], [2.1e-5, -1.3e-5], [0.0, 0.0], [7e-12, 4e-12], [-3.5, 2.25]]

CLARKE_HEADER = ["rho_re", "rho_im"]
SCHEMES = {"dian3": 3, "allen3": 3, "dellasantina4": 4, "allen4": 4}
PAIR_HEADER = {"dian3": ["delta_x", "delta_y"], "dellasantina4": ["delta_x", "delta_y"],
               "allen3": ["u", "v"], "allen4": ["u", "v"]}
FK_STRATEGIES = ["avoid-straight", "add-epsilon", "saturate-epsilon",
                 "linearize-near-zero", "analytic-branch"]


def _lengths(rows):
    return [[0.1 - r for r in row] for row in rows]


def _length_header(n):
    return [f"l_{i}" for i in range(1, n + 1)]


def _cases():
    """name -> (joint count, input header, input rows, argv without file flags)."""
    cases = {
        "transform-forward": (4, [f"rho_{i}" for i in range(1, 5)], RHO4,
                              ["transform", "--direction", "forward"]),
        "transform-inverse": (4, CLARKE_HEADER, CLARKE, ["transform", "--direction", "inverse"]),
        "convert-lengths": (4, _length_header(4), _lengths(RHO4),
                            ["convert", "--from", "lengths"]),
    }
    for scheme, n in SCHEMES.items():
        rho = RHO3 if n == 3 else RHO4
        argv = ["convert", "--scheme", scheme, "--from"]
        cases[f"convert-clarke-{scheme}"] = (n, CLARKE_HEADER, CLARKE, argv + ["clarke"])
        cases[f"convert-legacy-{scheme}"] = (n, PAIR_HEADER[scheme], PAIRS, argv + ["legacy"])
        cases[f"convert-lengths-{scheme}"] = (n, _length_header(n), _lengths(rho),
                                              argv + ["lengths"])
    for strategy in FK_STRATEGIES + ["adaptive-epsilon"]:
        rows = BENT if strategy == "avoid-straight" else CLARKE
        cases[f"fk-{strategy}"] = (4, CLARKE_HEADER, rows, ["fk", "--strategy", strategy])
    return cases


CASES = _cases()


def run_case(tmp_path, name):
    n, header, rows, argv = CASES[name]
    geom = tmp_path / "g.json"
    geom.write_text(json.dumps({"n": n, "d": 0.01, "l": 0.1}))
    inp = tmp_path / "in.csv"
    inp.write_text("\n".join([",".join(header)] + [",".join(repr(v) for v in r) for r in rows]) + "\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["--geometry", str(geom), "--input", str(inp), "--output", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", [c for c in CASES if c != "fk-adaptive-epsilon"])
def test_output_bytes_are_pinned(tmp_path, name):
    assert run_case(tmp_path, name) == EXPECTED[name]


def test_sample_bytes_are_pinned(tmp_path):
    geom = tmp_path / "g.json"
    geom.write_text(json.dumps({"n": 5, "d": 0.01, "l": 0.1}))
    out = tmp_path / "s.csv"
    assert main(["sample", "--geometry", str(geom), "--phi-max", "2.5", "--count", "6",
                 "--seed", "7", "--output", str(out)]) == 0
    assert out.read_bytes().decode("utf-8") == EXPECTED["sample"]


def _table(text):
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()[1:]])


def test_adaptive_epsilon_within_ulp_bound(tmp_path):
    got = _table(run_case(tmp_path, "fk-adaptive-epsilon"))
    want = _table(EXPECTED["fk-adaptive-epsilon"])
    geometry = RobotGeometry(n=4, d=0.01, l=0.1)
    for row, g, w in zip(CLARKE, got, want):
        # phi_eff may move by 4 * 2**-52 relative; every pose entry is a
        # function of it with slope at most max(1, phi**2), rounded once more
        phi = arc_from_clarke(geometry, row).phi
        atol = 4.0 * 2.0**-52 * max(1.0, phi) ** 3 + 2.0 * np.spacing(1.0)
        np.testing.assert_allclose(g, w, rtol=0.0, atol=atol)
