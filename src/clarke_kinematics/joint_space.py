"""The joint space: the 2-DOF subspace of valid displacement vectors.

A displacement vector is valid iff it is a fixed point of the projector
P = M_P^R M_P, equivalently iff it lies in span{v1, v2} with
v1 = [cos(psi_i)]_i and v2 = [sin(psi_i)]_i.  Membership, projection,
basis extraction, and seeded sampling all operate on that characterization.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import (
    MATVEC_SAFE,
    RobotGeometry,
    _large_product,
    all_finite,
    as_rows,
    as_vector,
    positive_finite,
    projector,
)

DEFAULT_MEMBERSHIP_TOL = 1e-9


class JointSpaceBasis(NamedTuple):
    """Orthogonal spanning vectors of the joint space, each of squared norm n/2."""

    v1: np.ndarray
    v2: np.ndarray


def basis(geometry: RobotGeometry) -> JointSpaceBasis:
    """Spanning vectors v1 = M_P^R [1,0]^T and v2 = M_P^R [0,1]^T."""
    right = geometry.clarke.right_inverse
    return JointSpaceBasis(v1=right[:, 0], v2=right[:, 1])


def contains(geometry: RobotGeometry, rho, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Whether rho lies in the joint space, by projector residual.

    True iff ||rho - P rho||_inf <= tol * max(1, ||rho||_inf); False when rho
    is not finite.
    """
    arr = as_vector(rho, geometry.n, "joint displacements")
    positive_finite(tol, "tolerance")
    values = arr.tolist()
    if not all_finite(values):  # contains_rows finds a NaN residual there
        return False
    peak = max(map(abs, values))
    if peak >= MATVEC_SAFE:  # the residual may overflow, which contains_rows allows for
        return bool(contains_rows(geometry, arr[None], float(tol))[0])
    # float(tol): a float64 product, as in contains_rows, whatever tol's type
    bound = float(tol) * max(1.0, peak)
    residual = _residual(geometry, arr)
    # every |residual| within the bound, so that a NaN residual (an overflow)
    # gives False, as in contains_rows
    return all(map(bound.__ge__, map(abs, residual.tolist())))


def contains_rows(
    geometry: RobotGeometry, rho_rows, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> np.ndarray:
    """Joint-space membership of each displacement row of an (N, n) array.

    The array form of contains, equal to the scalar form on every row: both
    take the residual from _residual, and the maxima and comparisons are
    exact.  A row with NaN or +-inf has a NaN residual, so it is not a member.
    """
    arr = as_rows(rho_rows, geometry.n)
    positive_finite(tol, "tolerance")
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow gives False or an inf bound
        residual = _residual(geometry, arr)
        bound = tol * np.abs(arr).max(axis=-1, initial=1.0)
    return np.abs(residual).max(axis=-1) <= bound


def _residual(geometry: RobotGeometry, arr: np.ndarray) -> np.ndarray:
    """rho - P rho for each displacement vector along arr's last axis.

    The projection is a (stacked) matrix-vector product, which rounds the
    same for one vector and for a stack of rows.
    """
    return arr - (projector(geometry) @ arr[..., None])[..., 0]


def project(geometry: RobotGeometry, rho) -> np.ndarray:
    """Project a displacement vector onto the joint space, P rho.

    Idempotent; the identity on vectors already in the joint space.  The
    component invisible to the forward transform (in particular any constant
    offset) is discarded, so the result always sums to zero.  Raises
    ValueError when rho is not finite or the projection overflows.
    """
    arr = as_vector(rho, geometry.n, "joint displacements")
    values = arr.tolist()
    if math.hypot(*values) < MATVEC_SAFE:  # finite, and no sum in the product overflows
        return projector(geometry) @ arr
    out = _large_product(projector(geometry), arr, values, "joint displacements")
    if not np.isfinite(out).all():
        raise ValueError(f"joint displacements {values} give a non-finite projection")
    return out


def sample(
    geometry: RobotGeometry, phi_max: float, count: int, seed: int
) -> np.ndarray:
    """Draw displacement vectors uniformly over bending angles up to phi_max.

    Clarke coordinates are sampled uniformly on the disk of radius
    d * phi_max and mapped through the inverse transform, so every row of
    the (count, n) result is a valid joint-space vector.  Deterministic for
    a fixed seed.  Raises ValueError naming the argument when count is not
    between 1 and the largest (count, n) array numpy can size or seed is
    negative, and, with no numpy warning before it, when d * phi_max is so
    large that a drawn row is not finite.
    """
    positive_finite(phi_max, "phi_max")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    limit = sys.maxsize // (8 * geometry.n)  # the most float64 rows of n numpy can size
    if count > limit:
        raise ValueError(f"count must be at most {limit} for n={geometry.n}, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the overflow
        radius = geometry.d * phi_max * np.sqrt(rng.random(count))
        angle = 2.0 * np.pi * rng.random(count)
        clarke = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        rows = clarke @ geometry.clarke.right_inverse.T
    if not np.isfinite(rows).all():
        raise ValueError(
            f"phi_max {phi_max!r} at d {geometry.d!r} gives non-finite joint displacements"
        )
    return rows


__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "JointSpaceBasis",
    "basis",
    "contains",
    "contains_rows",
    "project",
    "sample",
]
