"""Algebraic identity suite for the Clarke transform machinery.

Every identity the rest of the package relies on is checked numerically for
a range of joint counts: right-inverse consistency, projector structure,
basis orthogonality, and the agreement of the published two-parameter
schemes with their Clarke-coordinate form.  Each scheme's formula in rho and
its route through M_P are linear maps, so they agree on the joint space
exactly when they agree on its basis v1, v2, which is where the suite
compares them.  The suite is the package's self-check and the engine of
`clarke-kin check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import joint_space, legacy
from .core import RobotGeometry, build_clarke_matrix, forward_transform, positive_finite, projector

DEFAULT_IDENTITY_TOL = 1e-12
RANK_THRESHOLD = 1e-9


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity at one joint count."""

    name: str
    n: int
    residual: float
    tolerance: float
    passed: bool


def _check(name: str, n: int, residual: float, tol: float) -> IdentityCheck:
    return IdentityCheck(name, n, float(residual), tol, bool(residual <= tol))


def identity_checks(
    geometry: RobotGeometry, tol: float = DEFAULT_IDENTITY_TOL
) -> list[IdentityCheck]:
    """Run every identity for one geometry; returns one record per identity."""
    n = geometry.n
    mat = build_clarke_matrix(geometry)
    fwd, rinv = mat.forward, mat.right_inverse
    proj = projector(geometry)
    checks = [
        _check("forward_right_inverse", n, np.max(np.abs(fwd @ rinv - np.eye(2))), tol),
        _check("right_inverse_scaling", n, np.max(np.abs(rinv - (n / 2.0) * fwd.T)), tol),
        _check("projector_idempotent", n, np.max(np.abs(proj @ proj - proj)), tol),
        _check("projector_trace", n, abs(np.trace(proj) - 2.0), tol),
        _check("projector_det", n, abs(np.linalg.det(proj)), tol),
        _check("ones_filtered", n, np.max(np.abs(proj @ np.ones(n))), tol),
    ]

    # rank 2: exactly two singular values above the threshold
    sv = np.linalg.svd(proj, compute_uv=False)
    rank_ok = bool(np.count_nonzero(sv > RANK_THRESHOLD) == 2)
    checks.append(IdentityCheck("projector_rank_two", n, float(sv[2]), RANK_THRESHOLD, rank_ok))

    # one-hot images: P e_k = (2/n) [cos(psi_i - psi_k)]_i, and each column c_k
    # of (n/2) P has c_k . c_k = n/2; a stacked matmul of contiguous columns
    # rounds as the 1-D dot c_k @ c_k does, where an einsum or row sum does not
    expected = (2.0 / n) * np.cos(np.subtract.outer(geometry.psi, geometry.psi))
    cols = np.ascontiguousarray(((n / 2.0) * proj).T)
    squares = (cols[:, None, :] @ cols[:, :, None])[:, 0, 0]
    checks.append(_check("one_hot_components", n, np.max(np.abs(proj - expected)), tol))
    checks.append(_check("one_hot_magnitude", n, np.max(np.abs(squares - n / 2.0)), tol))

    v1, v2 = joint_space.basis(geometry)
    checks.append(_check("basis_orthogonal", n, abs(float(v1 @ v2)), tol))
    checks.append(
        _check(
            "basis_magnitude",
            n,
            max(abs(float(v1 @ v1) - n / 2.0), abs(float(v2 @ v2) - n / 2.0)),
            tol,
        )
    )

    for scheme in legacy.LegacyScheme:
        if scheme.n == n:
            checks.append(_scheme_equivalence_check(scheme, geometry, tol))
    return checks


def _scheme_equivalence_check(
    scheme: legacy.LegacyScheme, geometry: RobotGeometry, tol: float
) -> IdentityCheck:
    """Joint-value formulas vs. Clarke route on s * v1, s * v2, relative to the pair's scale.

    Both routes are linear in rho, so agreement on v1 and v2 is agreement on
    every joint-space vector: the paper's claim that the scheme is a linear
    image of the Clarke coordinates.  The power of two s is 1 for d < 16 and
    grows with d, so that an Allen pair (rho / d) stays normal up to the
    largest d; it leaves the relative residual as it is wherever nothing
    leaves the normal range.  The routes are the scalar calls, so a fault in
    the scalar forward_transform shows here.  A route whose pair overflows
    fails the identity with an infinite residual.
    """
    name = f"scheme_equivalence_{scheme.value}"
    s = 2.0 ** max(0, math.frexp(geometry.d)[1] - 4)
    worst = 0.0
    scale = 0.0
    for v in joint_space.basis(geometry):
        rho = s * v
        try:
            direct = legacy.legacy_from_displacements(scheme, geometry, rho)
            via = legacy.legacy_from_clarke(scheme, geometry, forward_transform(geometry, rho))
        except ValueError:  # a pair overflows, as an Allen pair (rho / d) does at d = 5e-324
            return _check(name, geometry.n, math.inf, tol)
        worst = max(worst, abs(direct.p1 - via.p1), abs(direct.p2 - via.p2))
        scale = max(scale, abs(via.p1), abs(via.p2))
    residual = worst / scale if scale > 0.0 else worst
    return _check(name, geometry.n, residual, tol)


def run_identity_suite(
    d: float, l: float, n_max: int, tol: float = DEFAULT_IDENTITY_TOL
) -> list[IdentityCheck]:
    """Run the identity suite for every joint count in 3..n_max."""
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    positive_finite(tol, "tolerance")
    results: list[IdentityCheck] = []
    for n in range(3, n_max + 1):
        results.extend(identity_checks(RobotGeometry(n=n, d=d, l=l), tol=tol))
    return results
