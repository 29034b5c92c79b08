"""Batch CLI: CSV trajectory transforms, conversions, sampling, FK, self-check.

Exit codes: 0 success, 1 identity failure, 2 usage or schema error, 3 cell
parse error, 4 domain error (a row whose result is not finite, or
avoid-straight at a straight configuration).
The identity tolerance of `check` can be overridden with the environment
variable CLARKE_KIN_TOL.  `check --n-max` is at most 256 (_N_MAX_LIMIT), because
the suite builds an n x n projector for every joint count up to it.
"""

from __future__ import annotations

import argparse
import codecs
import io
import json
import math
import os
import stat
import sys
from array import array

import numpy as np

from . import identities, joint_space, legacy
from .core import (
    GeometryError,
    RobotGeometry,
    forward_transform_rows,
    inverse_transform_rows,
    positive_finite,
)
from .kinematics import (
    RegularizationConfig,
    SingularityStrategy,
    StraightConfigurationError,
    forward_kinematics_rows,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

TOL_ENV_VAR = "CLARKE_KIN_TOL"
_N_MAX_LIMIT = 256


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
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
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
    try:
        return RobotGeometry(n=data["n"], d=data["d"], l=data["l"])
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid geometry in {path}: {exc}")


# Rows per chunk when formatting tables: large enough that the per-chunk
# overhead vanishes, small enough that a chunk's temporary strings stay a few
# MB however long the file is.
_CHUNK_ROWS = 4096

# A plain table: a header of printable ASCII (and tabs) after an optional
# UTF-8 byte order mark, then a body of these bytes only.  Everything
# _write_table and `sample` write is plain.
_PLAIN_HEADER = bytes(range(0x20, 0x7F)) + b"\t"
_PLAIN_BODY = b"0123456789+-.eE, \t\r\n"
_SCAN_BYTES = 1 << 20


def _read_table(path: str, expected_header: list[str]) -> np.ndarray:
    """Read a CSV table into an (N, k) array, enforcing the header and finite cells.

    A UTF-8 byte order mark is dropped.  Blank lines are skipped and not
    counted: messages number the data rows from 1, as _map_rows does.  A
    plain table streams through numpy's C text reader; any other file, and
    any plain one that reader refuses, goes through _parse_rows, one float()
    per cell, which gives the same values and names the first bad row and
    column.
    """
    table = _read_plain(path, expected_header)
    if table is not None:
        return table
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    return _parse_rows(path, header, [line for line in lines[1:] if line.strip()])


def _read_plain(path: str, expected_header: list[str]) -> np.ndarray | None:
    """The table of a plain file with the expected header and finite cells, else None.

    The body is checked in blocks of _SCAN_BYTES and then parsed from the
    open file, so no copy of the whole text is held.  np.loadtxt reads the
    lines as splitlines() would (universal newlines), skips empty ones and
    strips spaces and tabs around each cell as float() does.  Raises and
    prints nothing: a file it declines is left to _parse_rows.  Only a
    regular file is read, since the caller then reads the file again, and a
    pipe gives its bytes once.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb") as raw:
            block = raw.read(_SCAN_BYTES)
            ends = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
            if not ends:
                return None
            body_start = min(ends)
            header = block[:body_start].removeprefix(codecs.BOM_UTF8)
            if header.translate(None, _PLAIN_HEADER) or (
                [c.strip() for c in header.decode("ascii").split(",")] != expected_header
            ):
                return None
            block, has_data, has_blanks = block[body_start:], False, False
            while block:
                if block.translate(None, _PLAIN_BODY):
                    return None
                has_data = has_data or not block.isspace()
                has_blanks = has_blanks or b" " in block or b"\t" in block
                block = raw.read(_SCAN_BYTES)
            if not has_data:  # np.loadtxt would warn of empty input
                return None
            raw.seek(body_start)
            with io.TextIOWrapper(raw, encoding="ascii") as text:
                # np.loadtxt refuses a whitespace-only line: with blanks in
                # the body, lines that hold nothing else are dropped first
                lines = filter(str.strip, text) if has_blanks else text
                table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        return None
    if table.shape[1] != len(expected_header) or not np.isfinite(table).all():
        return None
    return table


def _parse_rows(path: str, header: list[str], lines: list[str]) -> np.ndarray:
    """Parse data lines into an (N, k) array; the first line is data row 1.

    Each row is parsed with one float() per cell, and again with stripped
    cells where that fails (str.strip() drops characters such as \\x1f that
    float() keeps).  The first row with the wrong cell count, a cell neither
    parse takes or a non-finite value is named by _row_error.
    """
    k = len(header)
    values = array("d")
    bad = len(lines)
    for ridx, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != k:
            bad = ridx
            break
        try:
            values.extend(map(float, cells))
        except ValueError:
            del values[ridx * k :]
            try:
                values.extend([float(c.strip()) for c in cells])
            except ValueError:
                bad = ridx
                break
    table = np.frombuffer(values, count=bad * k).reshape(bad, k)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
    if bad < len(lines):
        raise _row_error(path, header, bad + 1, lines[bad])
    return table


def _row_error(path: str, header: list[str], ridx: int, line: str) -> CliError:
    """The CliError for data row ridx, a line _parse_rows could not take.

    It names the wrong cell count, or else the first cell that is not a
    finite float.
    """
    cells = [c.strip() for c in line.split(",")]
    if len(cells) != len(header):
        return CliError(
            EXIT_USAGE, f"{path}: row {ridx} has {len(cells)} cells, expected {len(header)}"
        )
    for name, cell in zip(header, cells):
        try:
            value = float(cell)
        except ValueError:
            return CliError(
                EXIT_PARSE, f"{path}: row {ridx}, column {name}: cannot parse {cell!r}"
            )
        if not math.isfinite(value):
            return CliError(
                EXIT_PARSE, f"{path}: row {ridx}, column {name}: non-finite value {cell!r}"
            )
    raise AssertionError(f"{path}: row {ridx} has no bad cell")


def _write_table(path: str, header: list[str], rows: np.ndarray) -> None:
    """Write the header and the rows of an (N, k) array, every value as %.17g."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start : start + _CHUNK_ROWS]
                fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}")


def _joint_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i}" for i in range(1, n + 1)]


_CLARKE = ["rho_re", "rho_im"]


def _map_rows(args: argparse.Namespace) -> int:
    """Run a row command: map the rows of --input to the rows of --output.

    args.plan(args, geometry) picks the input header, the output header and
    the array function, which maps all rows at once.  Nothing is written
    unless every row maps to finite values; otherwise exit 4 names the data
    row: under avoid-straight the first straight row, else the first row
    with a non-finite result.
    """
    geometry = load_geometry(args.geometry)
    in_header, out_header, rows_fn = args.plan(args, geometry)
    table = _read_table(args.input, in_header)
    try:
        with np.errstate(all="ignore"):
            out = rows_fn(table)
    except StraightConfigurationError as exc:
        raise CliError(EXIT_DOMAIN, f"row {exc.row + 1}: {exc}")
    finite = np.isfinite(out)
    if not finite.all():
        ridx, col = np.argwhere(~finite)[0]
        raise CliError(
            EXIT_DOMAIN,
            f"row {ridx + 1}: column {out_header[col]} is {out[ridx, col]}; "
            "the input is outside the finite domain of the map",
        )
    _write_table(args.output, out_header, out)
    return EXIT_OK


def _transform_plan(args: argparse.Namespace, geometry: RobotGeometry):
    rho = _joint_header("rho", geometry.n)
    if args.direction == "forward":
        return rho, _CLARKE, lambda rows: forward_transform_rows(geometry, rows)
    return _CLARKE, rho, lambda rows: inverse_transform_rows(geometry, rows)


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
        return lengths, _CLARKE, lambda rows: legacy.clarke_from_lengths_rows(geometry, rows)
    pair = list(scheme.pair_names)
    if args.source == "legacy":
        return pair, _CLARKE, lambda rows: legacy.clarke_from_legacy_rows(scheme, geometry, rows)
    if args.source == "clarke":
        return _CLARKE, pair, lambda rows: legacy.legacy_from_clarke_rows(scheme, geometry, rows)
    return lengths, pair, lambda rows: legacy.legacy_from_lengths_rows(scheme, geometry, rows)


def _fk_plan(args: argparse.Namespace, geometry: RobotGeometry):
    try:
        strategy = SingularityStrategy.from_name(args.strategy)
        config = RegularizationConfig.default(geometry, epsilon=args.epsilon)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    header = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    return _CLARKE, header, lambda rows: forward_kinematics_rows(geometry, rows, strategy, config)


def _cmd_sample(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    try:
        rows = joint_space.sample(geometry, args.phi_max, args.count, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    _write_table(args.output, _joint_header("rho", geometry.n), rows)
    return EXIT_OK


def _identity_tolerance(flag_value: float | None) -> float:
    """--tol, else CLARKE_KIN_TOL, else the default; ValueError unless positive and finite."""
    if flag_value is not None:
        return positive_finite(flag_value, "--tol")
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return identities.DEFAULT_IDENTITY_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"{TOL_ENV_VAR}={raw!r} is not a number")
    return positive_finite(tol, TOL_ENV_VAR)


def _cmd_check(args: argparse.Namespace) -> int:
    geometry = load_geometry(args.geometry)
    if not 3 <= args.n_max <= _N_MAX_LIMIT:
        raise CliError(
            EXIT_USAGE, f"--n-max must be between 3 and {_N_MAX_LIMIT}, got {args.n_max}"
        )
    try:
        positive_finite(args.membership_tol, "--membership-tol")
        tol = _identity_tolerance(args.tol)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
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
        with np.errstate(all="ignore"):
            inside_rows = joint_space.contains_rows(geometry, rows, tol=args.membership_tol)
        inside = int(np.count_nonzero(inside_rows))
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
