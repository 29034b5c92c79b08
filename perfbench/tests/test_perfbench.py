"""Checks of the benchmark harness itself; no timing bounds.

Run with:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _run(root, *args, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def _copy_checkout(tmp_path, with_src=True):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_smoke_runs_every_workload_with_oracle_and_trace():
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seed", "7")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert f"\n{name} " in proc.stdout, name
    for workload in ("io-wide", "fk-n4", "api-scalar"):
        for trace in (0, 1):
            path = os.path.join(ROOT, ".perfbench-out", f"{workload}-seed7-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            assert record["correct"] and record["env"]["seed"] == 7
        if workload != "api-scalar":
            for cmd in record["commands"]:
                assert cmd["self_s"] + sum(cmd["children_s"].values()) == pytest.approx(cmd["wall_s"])


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["io-wide", "fk-n4", "api-scalar"]


def test_oracle_passes_one_ulp_and_rejects_a_wrong_result():
    rng = np.random.default_rng(0)
    rho = rng.normal(scale=0.01, size=(50, 2)) @ oracle.inverse_matrix(12).T
    clarke = rho @ oracle.clarke_matrix(12).T
    assert not oracle.check_forward(rho, np.nextafter(clarke, np.inf), 0.01).any()
    assert oracle.check_forward(rho, clarke * (1 + 1e-9), 0.01).all()

    pos, rot = oracle.arc_pose(clarke, 0.01, 0.1)
    flat = np.column_stack([0.1 * pos, rot.reshape(-1, 9)])
    assert not oracle.check_fk(clarke, np.nextafter(flat, np.inf), 0.01, 0.1).any()
    wrong = flat.copy()
    wrong[:, 3] *= 1 + 1e-9
    assert oracle.check_fk(clarke, wrong, 0.01, 0.1).all()

    uv = oracle.allen4(clarke, 0.01)
    assert not oracle.bad_rows(oracle.allen4_inverse(uv, 0.01), clarke, 0.01).any()
    assert oracle.check_sample(rho + 1e-6, 0.01, np.pi).all()


def test_renamed_stage_is_missing_and_its_time_goes_to_self():
    def forward_transform(geometry, rho):
        return sum(rho)

    cli = types.SimpleNamespace(forward_transform=forward_transform)
    empty = types.SimpleNamespace()
    pkg = types.SimpleNamespace(cli=cli, core=empty, kinematics=types.SimpleNamespace(
        RegularizationConfig=None), legacy=empty, joint_space=empty, identities=empty)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, pkg) as missing:
        with tracer.span("cmd.transform-forward"):
            for _ in range(3):
                cli.forward_transform(None, [1.0, 2.0])
    assert cli.forward_transform is forward_transform
    assert "cli.read_table" in missing and "core.forward_transform" not in missing
    metrics, counts = tracing.layer_metrics(tracer, missing)
    assert metrics["cli.read_table.busy_s"] is None and "cli.read_table.cells" not in counts
    assert counts["core.forward_transform.calls"] == 3
    (cmd,) = tracing.command_breakdown(tracer)
    assert cmd["self_s"] + cmd["children_s"]["core.forward_transform"] == pytest.approx(cmd["wall_s"])
    assert metrics["cli.self_s"] == pytest.approx(cmd["self_s"])


def test_wrong_output_gives_a_failed_result(tmp_path):
    root = _copy_checkout(tmp_path)
    core = root / "src" / "clarke_kinematics" / "core.py"
    text = core.read_text()
    broken = text.replace("return ClarkeCoords(float(re), float(im))",
                          "return ClarkeCoords(float(re), -float(im))")
    assert broken != text
    core.write_text(broken)
    proc = _run(str(root), "--workload", "io-wide", "--smoke", "--seed", "2")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_exits_without_result_when_the_package_is_absent(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    proc = _run(str(root), "--workload", "fk-n4", "--seed", "1", "--seconds", "1", "--trace", "0",
                timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
