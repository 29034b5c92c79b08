"""The joint space: the 2-DOF subspace of valid displacement vectors.

A displacement vector is valid iff it is a fixed point of the projector
P = M_P^R M_P, equivalently iff it lies in span{v1, v2} with
v1 = [cos(psi_i)]_i and v2 = [sin(psi_i)]_i.  Membership, projection,
basis extraction, and seeded sampling all operate on that characterization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import RobotGeometry, as_rows, as_vector, positive_finite, projector

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

    True iff ||rho - P rho||_inf <= tol * max(1, ||rho||_inf).
    """
    return bool(_inside(geometry, as_vector(rho, geometry.n, "joint displacements"), tol))


def contains_rows(
    geometry: RobotGeometry, rho_rows, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> np.ndarray:
    """Joint-space membership of each displacement row of an (N, n) array.

    The array form of contains, bitwise equal to the scalar form on every
    row: both run _inside.
    """
    return _inside(geometry, as_rows(rho_rows, geometry.n), tol)


def _inside(geometry: RobotGeometry, arr: np.ndarray, tol: float):
    """The residual test of contains for each displacement vector along arr's last axis.

    The projection is a (stacked) matrix-vector product, which rounds the
    same for one vector and for a stack of rows; the maxima are exact.
    """
    positive_finite(tol, "tolerance")
    residual = arr - (projector(geometry) @ arr[..., None])[..., 0]
    return np.abs(residual).max(axis=-1) <= tol * np.abs(arr).max(axis=-1, initial=1.0)


def project(geometry: RobotGeometry, rho) -> np.ndarray:
    """Project a displacement vector onto the joint space, P rho.

    Idempotent; the identity on vectors already in the joint space.  The
    component invisible to the forward transform (in particular any constant
    offset) is discarded, so the result always sums to zero.
    """
    arr = as_vector(rho, geometry.n, "joint displacements")
    return projector(geometry) @ arr


def sample(
    geometry: RobotGeometry, phi_max: float, count: int, seed: int
) -> np.ndarray:
    """Draw displacement vectors uniformly over bending angles up to phi_max.

    Clarke coordinates are sampled uniformly on the disk of radius
    d * phi_max and mapped through the inverse transform, so every row of
    the (count, n) result is a valid joint-space vector.  Deterministic for
    a fixed seed.
    """
    positive_finite(phi_max, "phi_max")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    radius = geometry.d * phi_max * np.sqrt(rng.random(count))
    angle = 2.0 * np.pi * rng.random(count)
    clarke = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return clarke @ geometry.clarke.right_inverse.T


__all__ = [
    "DEFAULT_MEMBERSHIP_TOL",
    "JointSpaceBasis",
    "basis",
    "contains",
    "contains_rows",
    "project",
    "sample",
]
