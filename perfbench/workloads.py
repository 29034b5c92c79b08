"""The three benchmark workloads: seeded inputs, one timed pass, its checks.

io-wide     n = 12 CLI pipeline sample -> transform forward -> transform
            inverse -> check --membership.  12-column CSVs on both sides and
            trivial kernels, so CSV parsing and writing dominate; a faster FK
            kernel must not move it.
fk-n4       n = 4 CLI pipeline fk analytic-branch -> fk adaptive-epsilon ->
            convert allen4 (to legacy and back) on a Clarke trajectory whose
            bending angles mix the regular, straight and series regimes; the
            workload where kinematics does the most work.
api-scalar  library only, one closed-loop caller, n = 4: each tick is
            contains -> forward_transform -> forward_kinematics ->
            legacy_from_clarke(allen4) -> inverse_transform, cycling through
            the six singularity strategies.  It bypasses the batch CLI path,
            so per-call overhead shows here and nowhere else.

Each workload generates its inputs from the seed; the package only sees the
generated files and arrays.  A pass runs the workload once, timed, then checks
its outputs against the oracle outside the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from tracing import SERIES_BAND, STRATEGIES

D, L = 0.01, 0.1
PHI_MAX = math.pi
# The package's documented default near-zero threshold, RegularizationConfig.default.
EPSILON = 1e-9 * D
# Shares of rows that are uniform on the disk phi <= pi, straight (phi < epsilon),
# and in the series band (epsilon <= phi < 1e-4); the strategy and series branches
# of forward kinematics depend on this mix.
MIX = (0.90, 0.05, 0.05)
POSE_HEADER = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]


@dataclass
class Sizes:
    rows: int = 100_000
    ticks: int = 100_000


@dataclass
class PassResult:
    wall_s: float
    stages: dict[str, float]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    latencies_ns: np.ndarray | None = None

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.failures.append(message)


def rho_header(n: int) -> list[str]:
    return [f"rho_{i}" for i in range(1, n + 1)]


def phi_mix(rng: np.random.Generator, count: int, straight_allowed=None) -> tuple[np.ndarray, np.ndarray]:
    """Clarke coordinates (count, 2) in the MIX of regimes, and each row's regime.

    Regime 0 is uniform on the disk of bending angles up to pi, 1 is straight
    (a fifth of those exactly 0), 2 is the series band.  Margins of 10% keep
    every row clear of the regime boundaries.  Rows where straight_allowed is
    False never fall in regime 1.
    """
    regime = rng.choice(3, size=count, p=MIX)
    if straight_allowed is not None:
        redraw = (regime == 1) & ~straight_allowed
        regime[redraw] = rng.choice([0, 2], size=int(redraw.sum()), p=[0.9 / 0.95, 0.05 / 0.95])
    u = rng.random(count)
    phi = np.select(
        [regime == 0, regime == 1],
        [
            PHI_MAX * np.sqrt(u),
            np.where(rng.random(count) < 0.2, 0.0, 0.9 * EPSILON * u),
        ],
        np.exp(np.log(1.1 * EPSILON) + u * (np.log(0.9 * SERIES_BAND) - np.log(1.1 * EPSILON))),
    )
    theta = 2.0 * np.pi * rng.random(count) - np.pi
    return D * phi[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]), regime


def regime_shares(regime: np.ndarray) -> dict[str, float]:
    return {
        name: float(np.mean(regime == k))
        for k, name in enumerate(("uniform", "near_straight", "series_band"))
    }


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CliWorkload:
    """A pipeline of `clarke-kin` commands run in-process through cli.main."""

    name = ""
    geometry_n = 0

    def __init__(self, pkg, workdir: str, seed: int, sizes: Sizes) -> None:
        self.cli = pkg.cli
        self.workdir = workdir
        self.seed = seed
        self.rows = sizes.rows
        self.geometry = self.path("geometry.json")
        with open(self.geometry, "w", encoding="utf-8") as fh:
            json.dump({"n": self.geometry_n, "d": D, "l": L}, fh)
        self.info: dict = {"rows": self.rows, "n": self.geometry_n, "d": D, "l": L}
        # outputs already checked, by content digest, with the number of bad rows found
        self._verdicts: dict[tuple, tuple[int, list[str]]] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def steps(self) -> list[tuple[str, str, list[str]]]:
        """(command label, stage metric, argv) in pipeline order."""
        raise NotImplementedError

    def outputs(self) -> list[str]:
        raise NotImplementedError

    def verify(self, results: dict[str, tuple]) -> tuple[int, list[str]]:
        """Bad rows over all outputs of a pass, and a message per failing check."""
        raise NotImplementedError

    def invoke(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation, not a crashed run
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=err)
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None) -> PassResult:
        for path in self.outputs():
            # every pass creates its files anew, and a failed command leaves no stale output
            if os.path.exists(path):
                os.remove(path)
        stages: dict[str, float] = {}
        results: dict[str, tuple] = {}
        start = time.perf_counter()
        for label, stage, argv in self.steps():
            span = tracer.span(f"cmd.{label}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                results[label] = self.invoke(argv)
            stages[stage] = stages.get(stage, 0.0) + time.perf_counter() - t0
        wall = time.perf_counter() - start

        key = tuple((rc, out) for rc, out, _ in results.values()) + tuple(
            _digest(p) if os.path.exists(p) else None for p in self.outputs()
        )
        if key not in self._verdicts:
            self._verdicts[key] = self.verify(results)
        bad, messages = self._verdicts[key]
        res = PassResult(wall_s=wall, stages=stages, attempted=len(results) * self.rows)
        res.failed, res.failures = bad, list(messages)
        return res

    def probe(self) -> PassResult | None:
        return None

    def _expect(self, results, label, bad_rows, messages, rc=0) -> bool:
        got = results[label][0]
        if got != rc:
            bad_rows.append(self.rows)
            messages.append(f"{label}: exit {got}, expected {rc}: {results[label][2].strip()[:200]}")
            return False
        return True

    def _count(self, label, mask, bad_rows, messages) -> None:
        n = int(np.count_nonzero(mask))
        bad_rows.append(n)
        if n:
            messages.append(f"{label}: {n} row(s) fail the oracle, first at row {int(np.argmax(mask)) + 1}")


class IoWide(CliWorkload):
    name = "io-wide"
    geometry_n = 12

    def steps(self):
        g, rho, clarke, back = self.geometry, self.path("rho.csv"), self.path("clarke.csv"), self.path("rho_back.csv")
        return [
            ("sample", "cmd.sample_s",
             ["sample", "--geometry", g, "--phi-max", repr(PHI_MAX), "--count", str(self.rows),
              "--seed", str(self.seed), "--output", rho]),
            ("transform-forward", "cmd.transform_forward_s",
             ["transform", "--geometry", g, "--input", rho, "--direction", "forward", "--output", clarke]),
            ("transform-inverse", "cmd.transform_inverse_s",
             ["transform", "--geometry", g, "--input", clarke, "--direction", "inverse", "--output", back]),
            ("check", "cmd.check_s",
             ["check", "--geometry", g, "--n-max", "12", "--membership", back]),
        ]

    def outputs(self):
        return [self.path("rho.csv"), self.path("clarke.csv"), self.path("rho_back.csv")]

    def verify(self, results):
        bad: list[int] = []
        msgs: list[str] = []
        n, rows = self.geometry_n, self.rows
        rho = clarke = None
        try:
            if self._expect(results, "sample", bad, msgs):
                rho = oracle.read_csv(self.path("rho.csv"), rho_header(n), rows)
                self._count("sample", oracle.check_sample(rho, D, PHI_MAX), bad, msgs)
            if self._expect(results, "transform-forward", bad, msgs) and rho is not None:
                clarke = oracle.read_csv(self.path("clarke.csv"), ["rho_re", "rho_im"], rows)
                self._count("transform-forward", oracle.check_forward(rho, clarke, D), bad, msgs)
            if self._expect(results, "transform-inverse", bad, msgs) and clarke is not None:
                back = oracle.read_csv(self.path("rho_back.csv"), rho_header(n), rows)
                mask = oracle.check_inverse(clarke, back, D) | oracle.bad_rows(back, rho, D)
                self._count("transform-inverse", mask, bad, msgs)
        except oracle.OracleError as exc:
            bad.append(rows)
            msgs.append(str(exc))
        if self._expect(results, "check", bad, msgs):
            out = results["check"][1]
            member = re.search(r"membership: (\d+)/(\d+) rows inside", out)
            passed = re.search(r"all (\d+) identity checks passed", out)
            if not (member and passed and int(member.group(2)) == rows):
                bad.append(rows)
                msgs.append(f"check: unexpected report {out[-200:]!r}")
            else:
                self.info["identity_checks"] = int(passed.group(1))
                bad.append(rows - int(member.group(1)))
        return sum(bad), msgs


class FkN4(CliWorkload):
    name = "fk-n4"
    geometry_n = 4

    def __init__(self, pkg, workdir, seed, sizes):
        super().__init__(pkg, workdir, seed, sizes)
        self.clarke, regime = phi_mix(np.random.default_rng([seed, 4]), self.rows)
        oracle.write_csv(self.path("clarke.csv"), ["rho_re", "rho_im"], self.clarke)
        straight = np.flatnonzero(regime == 1)
        self.first_straight_row = int(straight[0]) + 1 if len(straight) else None
        self.info.update(shares=regime_shares(regime), first_straight_row=self.first_straight_row)

    def steps(self):
        g, c = self.geometry, self.path("clarke.csv")
        return [
            ("fk", "cmd.fk_s",
             ["fk", "--geometry", g, "--input", c, "--strategy", "analytic-branch",
              "--output", self.path("poses.csv")]),
            ("fk-adaptive", "cmd.fk_adaptive_s",
             ["fk", "--geometry", g, "--input", c, "--strategy", "adaptive-epsilon",
              "--output", self.path("poses_adaptive.csv")]),
            ("convert-to-legacy", "cmd.convert_s",
             ["convert", "--geometry", g, "--scheme", "allen4", "--from", "clarke",
              "--input", c, "--output", self.path("uv.csv")]),
            ("convert-from-legacy", "cmd.convert_s",
             ["convert", "--geometry", g, "--scheme", "allen4", "--from", "legacy",
              "--input", self.path("uv.csv"), "--output", self.path("clarke_back.csv")]),
        ]

    def outputs(self):
        return [self.path(p) for p in ("poses.csv", "poses_adaptive.csv", "uv.csv", "clarke_back.csv")]

    def verify(self, results):
        bad: list[int] = []
        msgs: list[str] = []
        rows, clarke = self.rows, self.clarke
        try:
            for label, out in (("fk", "poses.csv"), ("fk-adaptive", "poses_adaptive.csv")):
                if self._expect(results, label, bad, msgs):
                    poses = oracle.read_csv(self.path(out), POSE_HEADER, rows)
                    self._count(label, oracle.check_fk(clarke, poses, D, L), bad, msgs)
            uv = None
            if self._expect(results, "convert-to-legacy", bad, msgs):
                uv = oracle.read_csv(self.path("uv.csv"), ["u", "v"], rows)
                self._count("convert-to-legacy", oracle.bad_rows(uv, oracle.allen4(clarke, D), 1.0), bad, msgs)
            if self._expect(results, "convert-from-legacy", bad, msgs) and uv is not None:
                back = oracle.read_csv(self.path("clarke_back.csv"), ["rho_re", "rho_im"], rows)
                mask = oracle.bad_rows(back, oracle.allen4_inverse(uv, D), D) | oracle.bad_rows(back, clarke, D)
                self._count("convert-from-legacy", mask, bad, msgs)
        except oracle.OracleError as exc:
            bad.append(rows)
            msgs.append(str(exc))
        return sum(bad), msgs

    def probe(self) -> PassResult:
        """avoid-straight on the same input must exit 4 and name the first straight row."""
        argv = ["fk", "--geometry", self.geometry, "--input", self.path("clarke.csv"),
                "--strategy", "avoid-straight", "--output", self.path("poses_avoid.csv")]
        rc, _, err = self.invoke(argv)
        res = PassResult(wall_s=0.0, stages={}, attempted=1)
        expected = 0 if self.first_straight_row is None else 4
        named = re.search(r"\brow (\d+):", err)
        row = int(named.group(1)) if named else None
        if rc != expected or (expected == 4 and row != self.first_straight_row):
            res.fail(1, f"avoid-straight probe: exit {rc}, row {row}; expected exit {expected}, "
                        f"row {self.first_straight_row}")
        return res


class ApiScalar:
    """Closed loop, one caller: the next tick starts when the previous returns."""

    name = "api-scalar"

    def __init__(self, pkg, workdir: str, seed: int, sizes: Sizes) -> None:
        self.pkg = pkg
        self.geometry = pkg.core.RobotGeometry(n=4, d=D, l=L)
        # a fixed cycle, independent of the enum's declaration order
        self.strategies = [pkg.kinematics.SingularityStrategy(v) for v in STRATEGIES]
        ticks = sizes.ticks
        self.strategy_index = np.arange(ticks) % len(STRATEGIES)
        avoid = self.strategy_index == STRATEGIES.index("avoid-straight")
        self.clarke, regime = phi_mix(np.random.default_rng([seed, 5]), ticks, straight_allowed=~avoid)
        self.rho = self.clarke @ oracle.inverse_matrix(4).T
        self.rows = list(self.rho)
        self.scheme = pkg.legacy.LegacyScheme.ALLEN4
        self.bias = np.where(self.strategy_index == STRATEGIES.index("add-epsilon"),
                             oracle.ADD_EPSILON_BIAS * EPSILON, 0.0)
        self.info = {"ticks": ticks, "n": 4, "d": D, "l": L, "shares": regime_shares(regime),
                     "strategies": list(STRATEGIES)}
        # warm-up: the geometry caches its matrices on first use, as in a long-running loop
        for i in range(min(1000, ticks)):
            clarke = pkg.core.forward_transform(self.geometry, self.rows[i])
            pkg.kinematics.forward_kinematics(self.geometry, clarke, self.strategies[self.strategy_index[i]])

    def _functions(self):
        """Looked up per pass, so that a traced pass calls the installed wrappers."""
        p = self.pkg
        return (p.joint_space.contains, p.core.forward_transform, p.kinematics.forward_kinematics,
                p.legacy.legacy_from_clarke, p.core.inverse_transform)

    def run_pass(self, tracer=None) -> PassResult:
        contains, forward, fk, to_legacy, inverse = self._functions()
        geometry, scheme = self.geometry, self.scheme
        strategies = [self.strategies[i] for i in self.strategy_index]
        count = len(self.rows)
        lat = np.zeros(count, dtype=np.int64)
        inside = np.zeros(count, dtype=bool)
        clarke_out = np.full((count, 2), np.nan)
        poses = np.full((count, 12), np.nan)
        pairs = np.full((count, 2), np.nan)
        back = np.full((count, 4), np.nan)
        errors: list[str] = []
        clock = time.perf_counter_ns
        for i, (rho, strategy) in enumerate(zip(self.rows, strategies)):
            t0 = clock()
            try:
                ok = contains(geometry, rho)
                clarke = forward(geometry, rho)
                pose = fk(geometry, clarke, strategy)
                pair = to_legacy(scheme, geometry, clarke)
                rho_back = inverse(geometry, clarke)
            except Exception as exc:  # a failed tick is counted, the loop goes on
                lat[i] = -1
                errors.append(f"tick {i}: {type(exc).__name__}: {exc}")
                continue
            lat[i] = clock() - t0
            inside[i] = ok
            clarke_out[i] = clarke
            poses[i, :3] = pose.position
            poses[i, 3:] = pose.rotation.ravel()
            pairs[i] = (pair.p1, pair.p2)
            back[i] = rho_back
        done = lat >= 0
        res = PassResult(wall_s=float(lat[done].sum()) / 1e9, stages={}, attempted=count,
                         latencies_ns=lat[done])
        bad = ~done | ~inside
        bad |= oracle.check_forward(self.rho, clarke_out, D)
        bad |= oracle.check_fk(self.clarke, poses, D, L, self.bias)
        bad |= oracle.bad_rows(pairs, oracle.allen4(self.clarke, D), 1.0)
        bad |= oracle.bad_rows(back, self.rho, D)
        n = int(bad.sum())
        res.fail(n, f"{n} tick(s) fail the oracle, first at tick {int(np.argmax(bad))}"
                    + (f"; {errors[0]}" if errors else ""))
        return res

    def probe(self) -> None:
        return None


WORKLOADS = {w.name: w for w in (IoWide, FkN4, ApiScalar)}
