"""Independent numpy reference for every output the workloads produce.

Nothing here goes through `clarke_kinematics`: the Clarke matrix is rebuilt
from psi_i = 2*pi*(i-1)/n, poses come from the arc form
Rz(theta) Ry(phi) Rz(-theta), and the allen4 map is written out by hand.

Tolerance.  A value passes when |out - ref| <= RTOL * max(scale, |ref|), with
scale the natural size of the quantity (d for displacements and Clarke
coordinates, l for positions, 1 for rotations and dimensionless pairs).
RTOL = 1e-12 is about 4500 ulp at the scale, so a kernel that is a few ulp off
(numpy sin/cos against math, another summation order) passes, while a wrong
branch, sign, scale or a cancellation-prone formula fails.  The add-epsilon
strategy evaluates the pose at phi + epsilon by design, so its poses may also
differ from the arc by that bias: to first order in epsilon, for bending angles
up to pi, at most 1.3*epsilon in a rotation entry and 4.5*epsilon in R^T R and
det R.  ADD_EPSILON_BIAS allows 5*epsilon.
"""

from __future__ import annotations

import functools

import numpy as np

RTOL = 1e-12
# allowed deviation of add-epsilon poses from the arc, in units of epsilon
ADD_EPSILON_BIAS = 5.0
# rows per block, so that the oracle's temporaries stay small beside the program's memory
CHUNK = 8192


class OracleError(Exception):
    """An output file is unreadable or has the wrong shape."""


def clarke_matrix(n: int) -> np.ndarray:
    """Forward matrix M_P = (2/n) [cos psi; sin psi], psi_i = 2*pi*(i-1)/n."""
    psi = 2.0 * np.pi * np.arange(n) / n
    return (2.0 / n) * np.vstack([np.cos(psi), np.sin(psi)])


def inverse_matrix(n: int) -> np.ndarray:
    """Right inverse (n/2) M_P^T, mapping Clarke coordinates to displacements."""
    return (n / 2.0) * clarke_matrix(n).T


def read_csv(path: str, header: list[str], rows: int) -> np.ndarray:
    """A (rows, len(header)) float array; OracleError on any mismatch."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline().rstrip("\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise OracleError(f"{path}: unreadable: {exc}") from None
    if first.split(",") != header:
        raise OracleError(f"{path}: header {first!r}, expected {','.join(header)}")
    if data.shape != (rows, len(header)):
        raise OracleError(f"{path}: shape {data.shape}, expected {(rows, len(header))}")
    return data


def write_csv(path: str, header: list[str], data: np.ndarray) -> None:
    """Input files in the CLI's own format: header row, 17 significant digits."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _blockwise(check):
    """Run a row-wise check block by block over every array argument with one entry per row."""

    @functools.wraps(check)
    def run(*args):
        n = len(args[0])
        parts = [
            check(*(a[i:i + CHUNK] if isinstance(a, np.ndarray) and a.ndim and len(a) == n else a
                    for a in args))
            for i in range(0, n, CHUNK)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)

    return run


@_blockwise
def bad_rows(out: np.ndarray, ref: np.ndarray, scale: float, bias=0.0) -> np.ndarray:
    """Rows (along axis 0) where any entry misses the reference tolerance."""
    err = np.abs(out - ref) > RTOL * np.maximum(scale, np.abs(ref)) + bias
    return err.reshape(len(out), -1).any(axis=1)


def arc_pose(clarke: np.ndarray, d: float, l: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact constant-curvature tip pose: (position / l, rotation), per row.

    position = (l/phi) [(1-cos phi) cos theta, (1-cos phi) sin theta, sin phi]
    rotation = Rz(theta) Ry(phi) Rz(-theta)
    with the phi -> 0 limits taken exactly and 1 - cos phi = 2 sin^2(phi/2).
    """
    phi = np.hypot(clarke[:, 0], clarke[:, 1]) / d
    theta = np.arctan2(clarke[:, 1], clarke[:, 0])
    safe = np.where(phi > 0.0, phi, 1.0)
    sinc = np.where(phi > 0.0, np.sin(phi) / safe, 1.0)
    vers = np.where(phi > 0.0, 2.0 * np.sin(0.5 * phi) ** 2 / safe, 0.0)
    pos = np.column_stack([vers * np.cos(theta), vers * np.sin(theta), sinc])

    def rz(a):
        c, s, z, o = np.cos(a), np.sin(a), np.zeros_like(a), np.ones_like(a)
        return np.stack([np.stack([c, -s, z], -1), np.stack([s, c, z], -1), np.stack([z, z, o], -1)], -2)

    c, s, z, o = np.cos(phi), np.sin(phi), np.zeros_like(phi), np.ones_like(phi)
    ry = np.stack([np.stack([c, z, s], -1), np.stack([z, o, z], -1), np.stack([-s, z, c], -1)], -2)
    return pos, rz(theta) @ ry @ rz(-theta)


@_blockwise
def check_sample(rho: np.ndarray, d: float, phi_max: float) -> np.ndarray:
    """Rows in the joint space (fixed by the projector), summing to 0, radius <= d*phi_max."""
    n = rho.shape[1]
    proj = inverse_matrix(n) @ clarke_matrix(n)
    scale = np.maximum(d, np.abs(rho).max(axis=1))
    off_space = np.abs(rho - rho @ proj.T).max(axis=1) > RTOL * scale
    nonzero_sum = np.abs(rho.sum(axis=1)) > RTOL * scale
    radius = np.hypot(*(rho @ clarke_matrix(n).T).T)
    return off_space | nonzero_sum | (radius > d * phi_max * (1.0 + RTOL))


@_blockwise
def check_forward(rho: np.ndarray, clarke: np.ndarray, d: float) -> np.ndarray:
    return bad_rows(clarke, rho @ clarke_matrix(rho.shape[1]).T, d)


@_blockwise
def check_inverse(clarke: np.ndarray, rho: np.ndarray, d: float) -> np.ndarray:
    return bad_rows(rho, clarke @ inverse_matrix(rho.shape[1]).T, d)


@_blockwise
def check_fk(clarke: np.ndarray, flat_poses: np.ndarray, d: float, l: float, bias=0.0) -> np.ndarray:
    """Rows of x,y,z,r11..r33 that differ from the arc pose or are not rotations.

    bias is the extra deviation a strategy is allowed, a scalar or one per row.
    """
    pos, rot = arc_pose(clarke, d, l)
    out_pos = flat_poses[:, :3] / l
    out_rot = flat_poses[:, 3:].reshape(-1, 3, 3)
    b = np.asarray(bias, dtype=float)
    b_row, b_mat = (b[:, None], b[:, None, None]) if b.ndim else (b, b)
    bad = bad_rows(out_pos, pos, 1.0, b_row) | bad_rows(out_rot, rot, 1.0, b_mat)
    gram = np.swapaxes(out_rot, 1, 2) @ out_rot
    bad |= bad_rows(gram, np.broadcast_to(np.eye(3), gram.shape), 1.0, b_mat)
    bad |= np.abs(np.linalg.det(out_rot) - 1.0) > RTOL + b
    return bad


def allen4(clarke: np.ndarray, d: float) -> np.ndarray:
    """(u, v) = (-2 rho_im / d, 2 rho_re / d)."""
    return np.column_stack([-2.0 * clarke[:, 1] / d, 2.0 * clarke[:, 0] / d])


def allen4_inverse(uv: np.ndarray, d: float) -> np.ndarray:
    """(rho_re, rho_im) = (v d / 2, -u d / 2)."""
    return np.column_stack([uv[:, 1] * d / 2.0, -uv[:, 0] * d / 2.0])
