"""Batch CLI: CSV trajectory transforms, conversions, sampling, FK, self-check.

Exit codes: 0 success, 1 identity failure, 2 usage or schema error, 3 cell
parse error, 4 domain error (avoid-straight at a straight configuration).
The identity tolerance of `check` can be overridden with the environment
variable CLARKE_KIN_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import identities, joint_space, legacy
from .core import (
    GeometryError,
    RobotGeometry,
    forward_transform,
    inverse_transform,
)
from .kinematics import (
    RegularizationConfig,
    SingularityStrategy,
    StraightConfigurationError,
    forward_kinematics,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

TOL_ENV_VAR = "CLARKE_KIN_TOL"


class CliError(Exception):
    """Error with an associated process exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def load_geometry(path: str) -> RobotGeometry:
    """Geometry from a JSON file with exactly the keys n, d, l."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read geometry file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE, f"geometry file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_USAGE, f"geometry file {path} must hold a JSON object")
    unknown = sorted(set(data) - {"n", "d", "l"})
    if unknown:
        raise CliError(
            EXIT_USAGE, f"geometry file {path} has unknown keys: {', '.join(unknown)}"
        )
    missing = sorted({"n", "d", "l"} - set(data))
    if missing:
        raise CliError(
            EXIT_USAGE, f"geometry file {path} is missing keys: {', '.join(missing)}"
        )
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise CliError(EXIT_USAGE, f"geometry key n must be an integer, got {n!r}")
    try:
        return RobotGeometry(n=n, d=float(data["d"]), l=float(data["l"]))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"invalid geometry in {path}: {exc}")


def _read_table(path: str, expected_header: list[str]) -> list[list[float]]:
    """Read a CSV table, enforcing the header and finite float cells.

    A UTF-8 byte order mark is dropped.  Blank lines are skipped and not
    counted: messages number the data rows from 1, as _map_rows does.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}")
    if not lines:
        raise CliError(EXIT_USAGE, f"{path} is empty, expected a header row")
    header = [c.strip() for c in lines[0].split(",")]
    if header != expected_header:
        raise CliError(
            EXIT_USAGE,
            f"{path}: expected columns {','.join(expected_header)}, "
            f"found {','.join(header)}",
        )
    rows: list[list[float]] = []
    data = [line for line in lines[1:] if line.strip()]
    for ridx, line in enumerate(data, start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise CliError(
                EXIT_USAGE,
                f"{path}: row {ridx} has {len(cells)} cells, expected {len(header)}",
            )
        parsed = []
        for name, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                raise CliError(
                    EXIT_PARSE, f"{path}: row {ridx}, column {name}: cannot parse {cell!r}"
                )
            if not math.isfinite(value):
                raise CliError(
                    EXIT_PARSE, f"{path}: row {ridx}, column {name}: non-finite value {cell!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    return rows


def _write_table(path: str, header: list[str], rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}")


def _joint_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i}" for i in range(1, n + 1)]


_CLARKE = ["rho_re", "rho_im"]


def _map_rows(args: argparse.Namespace) -> int:
    """Run a row command: map each row of --input to one row of --output.

    args.plan(args, geometry) picks the input header, the output header and
    the row function.  Nothing is written unless every row maps; a straight
    configuration under avoid-straight exits 4 naming its data row.
    """
    geometry = load_geometry(args.geometry)
    in_header, out_header, row_fn = args.plan(args, geometry)
    out = []
    for ridx, row in enumerate(_read_table(args.input, in_header), start=1):
        try:
            out.append(row_fn(row))
        except StraightConfigurationError as exc:
            raise CliError(EXIT_DOMAIN, f"row {ridx}: {exc}")
    _write_table(args.output, out_header, out)
    return EXIT_OK


def _transform_plan(args: argparse.Namespace, geometry: RobotGeometry):
    rho = _joint_header("rho", geometry.n)
    if args.direction == "forward":
        return rho, _CLARKE, lambda row: forward_transform(geometry, row)
    return _CLARKE, rho, lambda row: inverse_transform(geometry, row)


def _convert_plan(args: argparse.Namespace, geometry: RobotGeometry):
    scheme = None
    if args.scheme is not None:
        try:
            scheme = legacy.LegacyScheme.from_name(args.scheme)
            legacy._check_scheme(scheme, geometry)
        except legacy.SchemeMismatchError as exc:
            raise CliError(EXIT_USAGE, str(exc))
    if args.source in ("clarke", "legacy") and scheme is None:
        raise CliError(EXIT_USAGE, f"--scheme is required with --from {args.source}")
    lengths = _joint_header("l", geometry.n)
    if scheme is None:  # --from lengths
        return lengths, _CLARKE, lambda row: legacy.clarke_from_lengths(geometry, row)
    pair = list(scheme.pair_names)
    if args.source == "legacy":
        return pair, _CLARKE, lambda row: legacy.clarke_from_legacy(scheme, geometry, row)
    # [1:] drops the scheme tag of the LegacyPair
    if args.source == "clarke":
        return _CLARKE, pair, lambda row: legacy.legacy_from_clarke(scheme, geometry, row)[1:]
    return lengths, pair, lambda row: legacy.legacy_from_lengths(scheme, geometry, row)[1:]


def _fk_plan(args: argparse.Namespace, geometry: RobotGeometry):
    try:
        strategy = SingularityStrategy.from_name(args.strategy)
        config = RegularizationConfig.default(geometry, epsilon=args.epsilon)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))

    def pose_row(row):
        pose = forward_kinematics(geometry, row, strategy=strategy, config=config)
        return [*pose.position, *pose.rotation.ravel()]

    header = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    return _CLARKE, header, pose_row


def _cmd_sample(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    try:
        rows = joint_space.sample(geometry, args.phi_max, args.count, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    _write_table(args.output, _joint_header("rho", geometry.n), rows)
    return EXIT_OK


def _identity_tolerance(flag_value: float | None) -> float:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return identities.DEFAULT_IDENTITY_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"{TOL_ENV_VAR}={raw!r} is not a number")
    if not tol > 0.0:
        raise CliError(EXIT_USAGE, f"{TOL_ENV_VAR} must be positive, got {raw!r}")
    return tol


def _cmd_check(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    if args.n_max < 3:
        raise CliError(EXIT_USAGE, f"--n-max must be at least 3, got {args.n_max}")
    tol = _identity_tolerance(args.tol)
    results = identities.run_identity_suite(
        d=geometry.d, l=geometry.l, n_max=args.n_max, tol=tol
    )
    width = max(len(r.name) for r in results)
    print(f"{'identity':<{width}}  {'n':>3}  {'residual':>12}  {'tolerance':>10}  status")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  {r.n:>3}  {r.residual:>12.3e}  {r.tolerance:>10.1e}  {status}"
        )
    failures = [r for r in results if not r.passed]

    membership_failures = 0
    if args.membership is not None:
        rows = _read_table(args.membership, _joint_header("rho", geometry.n))
        inside = sum(
            joint_space.contains(geometry, row, tol=args.membership_tol) for row in rows
        )
        membership_failures = len(rows) - inside
        print(
            f"membership: {inside}/{len(rows)} rows inside the joint space "
            f"(tol {args.membership_tol:.1e})"
        )

    if failures:
        worst = max(failures, key=lambda r: r.residual)
        print(
            f"{len(failures)} identity check(s) failed; worst: {worst.name} "
            f"at n={worst.n}, residual {worst.residual:.3e}",
            file=sys.stderr,
        )
        return EXIT_IDENTITY
    if membership_failures:
        print(f"{membership_failures} row(s) outside the joint space", file=sys.stderr)
        return EXIT_IDENTITY
    print(f"all {len(results)} identity checks passed for n=3..{args.n_max}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clarke-kin",
        description="Clarke-coordinate transforms and constant-curvature kinematics "
        "for displacement-actuated continuum robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="map displacement rows to Clarke rows or back")
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--direction", required=True, choices=["forward", "inverse"])
    p.add_argument("--output", required=True, help="output CSV")
    p.set_defaults(func=_map_rows, plan=_transform_plan)

    p = sub.add_parser("convert", help="convert between Clarke, legacy pairs, and lengths")
    p.add_argument("--geometry", required=True)
    p.add_argument("--scheme", default=None, help="dian3|dellasantina4|allen3|allen4")
    p.add_argument(
        "--from",
        dest="source",
        required=True,
        choices=["clarke", "legacy", "lengths"],
        help="representation of the input file",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_map_rows, plan=_convert_plan)

    p = sub.add_parser("fk", help="constant-curvature forward kinematics per row")
    p.add_argument("--geometry", required=True)
    p.add_argument("--input", required=True, help="CSV with rho_re,rho_im columns")
    p.add_argument(
        "--strategy",
        default=SingularityStrategy.ANALYTIC_BRANCH.value,
        help="singularity strategy: "
        + "|".join(s.value for s in SingularityStrategy),
    )
    p.add_argument("--epsilon", type=float, default=None, help="near-zero threshold")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_map_rows, plan=_fk_plan)

    p = sub.add_parser("sample", help="draw joint-space displacement samples")
    p.add_argument("--geometry", required=True)
    p.add_argument("--phi-max", dest="phi_max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("check", help="run the algebraic identity suite")
    p.add_argument("--geometry", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="identity tolerance")
    p.add_argument(
        "--membership", default=None, help="CSV of rho rows to test for joint-space membership"
    )
    p.add_argument(
        "--membership-tol",
        dest="membership_tol",
        type=float,
        default=joint_space.DEFAULT_MEMBERSHIP_TOL,
    )
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
