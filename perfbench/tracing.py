"""Spans around the package's layer boundaries, installed from outside it.

The traced run replaces module attributes of `clarke_kinematics` with
wrappers that record one span per call (name, start, end, parent) and a few
exact counters.  Spans stay in memory in flat integer arrays and are written
out once the run ends.  A target attribute that no longer exists (an internal
rename) is reported as missing instead of as zero; the time it used to take
then shows up in the self time of the command around it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from array import array
from collections import Counter

import numpy as np

# The bending angle below which the package switches to truncated series.
SERIES_BAND = 1e-4

STRATEGIES = (
    "avoid-straight",
    "add-epsilon",
    "saturate-epsilon",
    "linearize-near-zero",
    "analytic-branch",
    "adaptive-epsilon",
)


class Tracer:
    """In-memory span store plus exact counters for one pass of a workload."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.unreadable: set[str] = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.end[idx] = end
        self._stack.pop()
        return end - self.start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.finish(idx)


def _wrap(tracer: Tracer, name: str, fn, hook):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            ns = tracer.finish(idx)
        if hook is not None:
            try:
                hook(tracer.counts, ns, args, kwargs, result)
            except (TypeError, ValueError, IndexError, AttributeError, KeyError, OSError):
                # the wrapped signature changed; its counters cannot be trusted
                tracer.unreadable.add(name)
        return result

    return traced


def _count_read(counts, ns, args, kwargs, result):
    path, header = args[0], args[1]
    counts["cli.read_table.cells"] += len(result) * len(header)
    counts["cli.read_table.bytes"] += os.path.getsize(path)


def _count_write(counts, ns, args, kwargs, result):
    path, header, rows = args[0], args[1], args[2]
    counts["cli.write_table.cells"] += len(rows) * len(header)
    counts["cli.write_table.bytes"] += os.path.getsize(path)


def _count_contains(counts, ns, args, kwargs, result):
    counts["joint_space.contains.inside"] += bool(result)


def _count_identities(counts, ns, args, kwargs, result):
    counts["identities.checks"] += len(result)


def _fk_counter(kinematics):
    """Per-strategy calls and busy time, and the phi regime of every input row."""
    epsilons: dict[tuple, float] = {}

    def count(counts, ns, args, kwargs, result):
        geometry, clarke = args[0], args[1]
        strategy = kwargs.get("strategy", args[2] if len(args) > 2 else None)
        config = kwargs.get("config", args[3] if len(args) > 3 else None)
        name = "analytic-branch" if strategy is None else strategy.value
        counts[f"kinematics.forward_kinematics.{name}.calls"] += 1
        counts[f"kinematics.forward_kinematics.{name}.busy_ns"] += ns
        if config is None:
            key = (geometry.n, geometry.d, geometry.l)
            if key not in epsilons:
                epsilons[key] = kinematics.RegularizationConfig.default(geometry).epsilon
            eps = epsilons[key]
        else:
            eps = config.epsilon
        phi = math.hypot(float(clarke[0]), float(clarke[1])) / geometry.d
        if phi < eps:
            counts["kinematics.near_straight_rows"] += 1
        elif phi < SERIES_BAND:
            counts["kinematics.series_band_rows"] += 1

    return count


def targets(pkg) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, counter hook) for every traced boundary.

    `cli` reaches core and kinematics through names it imported, and legacy,
    joint_space and identities through their module attributes.  The library
    workload calls core, kinematics, legacy and joint_space directly, so the
    module attributes are wrapped as well; the two never nest.
    """
    cli, core, kin = pkg.cli, pkg.core, pkg.kinematics
    fk_hook = _fk_counter(kin)
    return [
        (cli, "load_geometry", "cli.load_geometry", None),
        (cli, "_read_table", "cli.read_table", _count_read),
        (cli, "_write_table", "cli.write_table", _count_write),
        (cli, "forward_transform", "core.forward_transform", None),
        (cli, "inverse_transform", "core.inverse_transform", None),
        (cli, "forward_kinematics", "kinematics.forward_kinematics", fk_hook),
        (core, "forward_transform", "core.forward_transform", None),
        (core, "inverse_transform", "core.inverse_transform", None),
        (kin, "forward_kinematics", "kinematics.forward_kinematics", fk_hook),
        (pkg.legacy, "legacy_from_clarke", "legacy.legacy_from_clarke", None),
        (pkg.legacy, "clarke_from_legacy", "legacy.clarke_from_legacy", None),
        (pkg.joint_space, "sample", "joint_space.sample", None),
        (pkg.joint_space, "contains", "joint_space.contains", _count_contains),
        (pkg.identities, "run_identity_suite", "identities.run_identity_suite", _count_identities),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, pkg):
    """Wrap every target that exists; yield the span names none of whose targets exist."""
    found: dict[str, bool] = {}
    originals = []
    for module, attr, name, hook in targets(pkg):
        fn = getattr(module, attr, None)
        found[name] = found.get(name, False) or callable(fn)
        if callable(fn):
            originals.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, hook))
    try:
        yield {name for name, ok in found.items() if not ok}
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def command_breakdown(tracer: Tracer) -> list[dict]:
    """Wall, self and per-child time of every command span (a top-level `cmd.*`).

    Raises ValueError if a child span is not nested inside its parent, since
    self time would then be meaningless.
    """
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    nested = parent >= 0
    if np.any(start[nested] < start[parent[nested]]) or np.any(end[nested] > end[parent[nested]]):
        raise ValueError("a span ends outside its parent span")
    dur = end - start
    child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    out = []
    commands = {i for i, name in enumerate(tracer.names) if name.startswith("cmd.")}
    for idx in np.flatnonzero(~nested):
        if tracer.name_id[idx] not in commands:
            continue
        kids = np.flatnonzero(parent == idx)
        children: Counter[str] = Counter()
        for k in kids:
            children[tracer.names[tracer.name_id[k]]] += int(dur[k])
        self_ns = int(dur[idx]) - int(child_ns[idx])
        if self_ns < 0:
            raise ValueError("child spans overlap inside a command span")
        out.append(
            {
                "command": tracer.names[tracer.name_id[idx]],
                "wall_s": int(dur[idx]) / 1e9,
                "self_s": self_ns / 1e9,
                "children_s": {k: v / 1e9 for k, v in sorted(children.items())},
            }
        )
    return out


PER_CALL = (
    "core.forward_transform",
    "core.inverse_transform",
    "joint_space.contains",
    "legacy.legacy_from_clarke",
    "legacy.clarke_from_legacy",
    "kinematics.forward_kinematics",
) + tuple(f"kinematics.forward_kinematics.{s}" for s in STRATEGIES)

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = (
    [("cli.self_s", "s"), ("cli.load_geometry.calls", "count"), ("cli.load_geometry.busy_s", "s")]
    + [
        (f"cli.{io}.{field}", unit)
        for io in ("read_table", "write_table")
        for field, unit in (
            ("calls", "count"), ("busy_s", "s"), ("cells", "count"),
            ("bytes", "bytes"), ("ns_per_cell", "ns/cell"),
        )
    ]
    + [
        (f"{stage}.{field}", unit)
        for stage in PER_CALL
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("ns_per_call", "ns/call"))
    ]
    + [
        ("joint_space.sample.calls", "count"),
        ("joint_space.sample.busy_s", "s"),
        ("joint_space.contains.inside_ratio", "ratio"),
        ("kinematics.near_straight_rows", "count"),
        ("kinematics.series_band_rows", "count"),
        ("identities.run_identity_suite.calls", "count"),
        ("identities.run_identity_suite.busy_s", "s"),
        ("identities.checks", "count"),
    ]
)


def layer_metrics(tracer: Tracer, missing: set[str]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its exact counts.

    Returns (metrics, counts).  metrics maps each LAYER_METRICS name to a
    value, or to None when the stage it measures is missing or its counters
    could not be read; counts holds the integer-valued metrics that are present.
    """
    nid = np.frombuffer(tracer.name_id, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
    calls = np.bincount(nid, minlength=len(tracer.names))
    busy = np.bincount(nid, weights=dur, minlength=len(tracer.names))
    c = tracer.counts
    fk = "kinematics.forward_kinematics"
    raw: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        raw[f"{name}.calls"] = int(calls[i])
        raw[f"{name}.busy_ns"] = float(busy[i])
    for strategy in STRATEGIES:
        raw[f"{fk}.{strategy}.calls"] = c[f"{fk}.{strategy}.calls"]
        raw[f"{fk}.{strategy}.busy_ns"] = c[f"{fk}.{strategy}.busy_ns"]

    metrics: dict[str, float | None] = {
        "cli.self_s": sum(cmd["self_s"] for cmd in command_breakdown(tracer))
    }
    for name, unit in LAYER_METRICS[1:]:
        stage, field = name.rsplit(".", 1)
        source = {"kinematics": fk, "identities": "identities.run_identity_suite"}.get(stage, stage)
        if source.startswith(fk):
            source = fk
        if source in missing or source in tracer.unreadable:
            metrics[name] = None
            continue
        n = raw.get(f"{stage}.calls", 0)
        ns = raw.get(f"{stage}.busy_ns", 0.0)
        if field == "calls":
            value = n
        elif field == "busy_s":
            value = ns / 1e9
        elif field == "ns_per_call":
            value = ns / n if n else 0.0
        elif field == "ns_per_cell":
            cells = c[f"{stage}.cells"]
            value = ns / cells if cells else 0.0
        elif field == "inside_ratio":
            value = c["joint_space.contains.inside"] / n if n else 0.0
        else:  # cells, bytes and the exact row and check counters
            value = c[name]
        metrics[name] = value
    counts = {
        name: metrics[name]
        for name, unit in LAYER_METRICS
        if unit in ("count", "bytes") and metrics[name] is not None
    }
    counts["joint_space.contains.inside"] = c["joint_space.contains.inside"]
    return metrics, counts


def save_spans(path: str, tracers: list[Tracer]) -> None:
    """Write every span of the traced passes: pass index, name, start, end, parent."""
    names = sorted({n for t in tracers for n in t.names})
    remap = {n: i for i, n in enumerate(names)}
    cols = {k: [] for k in ("pass_index", "name", "start_ns", "end_ns", "parent")}
    for p, t in enumerate(tracers):
        table = np.array([remap[n] for n in t.names], dtype=np.int64)
        nid = np.frombuffer(t.name_id, dtype=np.int64)
        cols["pass_index"].append(np.full(len(nid), p, dtype=np.int64))
        cols["name"].append(table[nid] if len(nid) else nid)
        cols["start_ns"].append(np.frombuffer(t.start, dtype=np.int64))
        cols["end_ns"].append(np.frombuffer(t.end, dtype=np.int64))
        cols["parent"].append(np.frombuffer(t.parent, dtype=np.int64))
    np.savez_compressed(
        path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()}
    )
