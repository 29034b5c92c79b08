#!/usr/bin/env python3
"""Benchmark of the clarke-kinematics package: batch CLI and scalar library.

    python3 perfbench/run.py --workload io-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, 13 end-to-end metrics
    python3 perfbench/run.py --workload all --smoke    # tiny inputs, oracle and traced run

One run measures one workload (see workloads.py) in this process, with one
single-threaded caller, for about --seconds seconds of repeated passes.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer split instead.  Every
output is checked against the numpy oracle in oracle.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, host probe,
every metric with its sample count) goes to .perfbench-out/.  Exit status is
0 when every output passed, 1 when the oracle rejected one, and 2 when the
benchmark could not run, for instance because the package is not importable.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import hostenv
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORK = os.path.join(ROOT, ".perfbench-work")

# The end-to-end metrics, all taken with tracing off.  A workload reports the
# stage metrics of its own commands only (cmd.* for the CLI pipelines, tick_*
# for the library loop).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd.sample_s", "s"),
    ("cmd.transform_forward_s", "s"),
    ("cmd.transform_inverse_s", "s"),
    ("cmd.check_s", "s"),
    ("cmd.fk_s", "s"),
    ("cmd.fk_adaptive_s", "s"),
    ("cmd.convert_s", "s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
]
# The end-to-end metrics every workload has, which the result line carries.
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
PER_LAYER = tracing.LAYER_METRICS + [
    ("trace.overhead_s", "s"),
    ("host.probe_before_ms", "ms"),
    ("host.probe_after_ms", "ms"),
]
SETUP_REPS = 7
SETUP_CODE = (
    "import sys\n"
    "from clarke_kinematics import cli\n"
    "if not cli.__file__.startswith(sys.argv[2]):\n"
    "    sys.exit(f'imported {cli.__file__}, not the checkout')\n"
    "cli.load_geometry(sys.argv[1])\n"
)
SUBMODULES = ("cli", "core", "identities", "joint_space", "kinematics", "legacy")


class Package:
    """The checkout's clarke_kinematics modules, by name."""

    def __init__(self) -> None:
        sys.path.insert(0, SRC)
        for name in SUBMODULES:
            module = importlib.import_module(f"clarke_kinematics.{name}")
            if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
                raise ImportError(f"clarke_kinematics.{name} imported from {module.__file__}")
            setattr(self, name, module)


def measure_setup(geometry: str, reps: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and load a geometry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, geometry, SRC + os.sep],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def metric(value, unit, n) -> dict:
    return {"value": value, "unit": unit, "n": n}


def keep_going(start: float, passes: list, seconds: float, minimum: int) -> bool:
    """Another pass if the minimum is not met or one more, as long as the last, still fits."""
    if len(passes) < minimum:
        return True
    return time.perf_counter() - start + passes[-1].wall_s <= seconds


def end_to_end(wl, workdir: str, seconds: float, smoke: bool, record: dict) -> list:
    geometry = os.path.join(workdir, "setup-geometry.json")
    with open(geometry, "w", encoding="utf-8") as fh:
        json.dump({"n": wl.info["n"], "d": workloads.D, "l": workloads.L}, fh)
    setup = measure_setup(geometry, 2 if smoke else SETUP_REPS)
    passes = []
    start = time.perf_counter()
    while keep_going(start, passes, 0 if smoke else seconds, 1):
        passes.append(wl.run_pass())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
    }
    for stage in sorted({k for p in passes for k in p.stages}):
        metrics[stage] = metric(statistics.median(p.stages[stage] for p in passes), "s", len(passes))
    lat = [p.latencies_ns for p in passes if p.latencies_ns is not None]
    if lat:
        lat = np.concatenate(lat)
        metrics["tick_p50_us"] = metric(float(np.percentile(lat, 50)) / 1e3, "us", len(lat))
        metrics["tick_p99_us"] = metric(float(np.percentile(lat, 99)) / 1e3, "us", len(lat))
    metrics["peak_rss_mb"] = metric(rss_mb, "MB", 1)
    record["metrics"] = metrics
    record["setup_samples_s"] = setup
    record["pass_walls_s"] = walls
    return passes


def per_layer(pkg, wl, seconds: float, smoke: bool, record: dict, spans_path: str) -> list:
    """Untraced and traced passes, alternating; at least one untraced and two traced."""
    untraced, traced, history, tracers, layer_runs, count_runs = [], [], [], [], [], []
    missing: set[str] = set()
    start = time.perf_counter()
    order = ["untraced", "traced", "traced"]
    while order or keep_going(start, history, 0 if smoke else seconds, 0):
        kind = order.pop(0) if order else ("untraced" if len(untraced) < len(traced) else "traced")
        if kind == "untraced":
            untraced.append(wl.run_pass())
            history.append(untraced[-1])
            continue
        tracer = tracing.Tracer()
        with tracing.installed(tracer, pkg) as gone:
            traced.append(wl.run_pass(tracer))
        history.append(traced[-1])
        missing |= gone
        metrics, counts = tracing.layer_metrics(tracer, gone)
        layer_runs.append(metrics)
        count_runs.append(counts)
        tracers.append(tracer)
    tracing.save_spans(spans_path, tracers)
    layers = {}
    for name, unit in tracing.LAYER_METRICS:
        values = [m[name] for m in layer_runs]
        if None in values:
            value = None
        elif name in count_runs[0]:
            value = count_runs[0][name]  # exact, and checked equal across passes below
        else:
            value = statistics.median(values)
        layers[name] = {"value": value, "unit": unit, "n": len(values)}
        if value is None:
            layers[name]["missing"] = True
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced)}
    record["layers"] = layers
    record["counts"] = count_runs[0]
    record["missing_stages"] = sorted(missing)
    record["unreadable_counters"] = sorted(set().union(*(t.unreadable for t in tracers)))
    record["commands"] = tracing.command_breakdown(tracers[0])
    record["spans"] = os.path.relpath(spans_path, ROOT)
    if any(c != count_runs[0] for c in count_runs):
        record["failures"].append("exact counts differ between traced passes of the same input")
    return untraced + traced


def _show(value) -> str:
    if value is None:
        return "missing"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    try:
        pkg = Package()
    except ImportError as exc:
        print(f"perfbench: cannot import clarke_kinematics from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = hostenv.record(ROOT, SRC, args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: numpy uses {env['blas_threads']} BLAS threads on {env['nproc']} CPUs",
              file=sys.stderr)
        return 2
    probe_before = hostenv.host_probe_ms()
    sizes = workloads.Sizes(rows=300, ticks=600) if args.smoke else workloads.Sizes()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env, "failures": []}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](pkg, workdir, args.seed, sizes)
        record["inputs"] = wl.info
        with hostenv.CpuRotation():
            if args.trace:
                passes = per_layer(pkg, wl, args.seconds, args.smoke, record,
                                   os.path.join(OUT, f"spans-{stem}.npz"))
            else:
                passes = end_to_end(wl, workdir, args.seconds, args.smoke, record)
        probe = wl.probe()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    results = passes + ([probe] if probe else [])
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    for p in results:
        record["failures"].extend(m for m in p.failures if m not in record["failures"])
    correct = failed == 0 and not record["failures"]
    probe_after = hostenv.host_probe_ms()
    record["host_probe_ms"] = {"before": probe_before, "after": probe_after}
    record.update(correct=correct, attempted=attempted, failed=failed)

    if args.trace:
        record["layers"]["host.probe_before_ms"] = {"value": probe_before, "unit": "ms", "n": 1}
        record["layers"]["host.probe_after_ms"] = {"value": probe_after, "unit": "ms", "n": 1}
        shown = record["layers"]
        result = {k: {f: v for f, v in m.items() if f != "n"} for k, m in shown.items()}
    else:
        record["metrics"]["failed_ratio"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
        shown = {name: record["metrics"][name] for name, _ in END_TO_END if name in record["metrics"]}
        result = {k: {"value": shown[k]["value"], "unit": shown[k]["unit"]} for k in RESULT_METRICS}
    path = os.path.join(OUT, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(env))
    print(f"host probe: {probe_before:.2f} ms before, {probe_after:.2f} ms after")
    print(f"{'metric':<62} {'value':>14}  {'unit':<8} n")
    for name, m in shown.items():
        print(f"{name:<62} {_show(m['value']):>14}  {m['unit']:<8} {m['n']}")
    for message in record["failures"][:10]:
        print(f"FAIL {message}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; prints the end-to-end metrics side by side."""
    names = list(workloads.WORKLOADS)
    modes = [0, 1] if args.smoke or args.trace else [0]
    records: dict[tuple, dict] = {}
    status = 0
    for trace in modes:
        # the smoke run repeats the traced run to show that its counts repeat exactly
        repeats = 2 if args.smoke and trace else 1
        for name in names:
            for rep in range(repeats):
                argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                                      capture_output=True, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    status = max(status, proc.returncode)
                    continue
                path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")
                with open(path, encoding="utf-8") as fh:
                    rec = json.load(fh)
                if rep and rec["counts"] != records.get((name, trace), {}).get("counts"):
                    print(f"FAIL {name}: exact counts differ between two traced runs of seed {args.seed}")
                    status = max(status, 1)
                records[(name, trace)] = rec
    print()
    print(f"{'end-to-end metric':<26}" + "".join(f"{n:>20}" for n in names) + "  unit")
    for metric, unit in END_TO_END:
        cells = []
        for name in names:
            m = records.get((name, 0), {}).get("metrics", {}).get(metric)
            cells.append("-" if m is None else f"{m['value']:.5g} (n={m['n']})")
        print(f"{metric:<26}" + "".join(f"{c:>20}" for c in cells) + f"  {unit}")
    if 1 in modes:
        print()
        print(f"{'per-layer metric (traced)':<62}" + "".join(f"{n:>14}" for n in names) + "  unit")
        for metric, unit in PER_LAYER:
            cells = []
            for name in names:
                m = records.get((name, 1), {}).get("layers", {}).get(metric)
                cells.append("-" if m is None else _show(m["value"]))
            print(f"{metric:<62}" + "".join(f"{c:>14}" for c in cells) + f"  {unit}")
    ok = status == 0 and all(r["correct"] for r in records.values())
    total = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": ok, "attempted": total, "failed": failed, "metrics": {}}))
    return 0 if ok else max(status, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the fewest passes; checks the harness, not speed")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
