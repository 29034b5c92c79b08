import math

import numpy as np
import pytest

from clarke_kinematics import identities, legacy
from clarke_kinematics.core import ClarkeCoords, RobotGeometry, projector
from clarke_kinematics.identities import run_identity_suite

SCHEME_CHECKS = sorted(f"scheme_equivalence_{s.value}" for s in legacy.LegacyScheme)


def _failed(results):
    return sorted(r.name for r in results if not r.passed)


def test_suite_rejects_n_max_below_3():
    with pytest.raises(ValueError, match="n_max must be at least 3, got 2"):
        run_identity_suite(d=0.01, l=0.1, n_max=2)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True])
def test_suite_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        run_identity_suite(d=0.01, l=0.1, n_max=4, tol=tol)


def test_a_wrong_clarke_route_fails_exactly_the_scheme_identities(monkeypatch):
    forward = identities.forward_transform

    def mirrored(geometry, rho):
        re, im = forward(geometry, rho)
        return ClarkeCoords(re, -im)

    monkeypatch.setattr(identities, "forward_transform", mirrored)
    assert _failed(run_identity_suite(d=0.01, l=0.1, n_max=4)) == SCHEME_CHECKS


@pytest.mark.parametrize("scheme", list(legacy.LegacyScheme), ids=lambda s: s.value)
def test_a_wrong_published_pair_fails_only_its_scheme(monkeypatch, scheme):
    published = legacy._pair_from_displacements

    def scaled(which, rho, d):
        p1, p2 = published(which, rho, d)
        if which is scheme:
            return p1 * (1 + 1e-9), p2 * (1 + 1e-9)
        return p1, p2

    monkeypatch.setattr(legacy, "_pair_from_displacements", scaled)
    results = run_identity_suite(d=0.01, l=0.1, n_max=4)
    assert _failed(results) == [f"scheme_equivalence_{scheme.value}"]


@pytest.mark.parametrize(
    "d", [1e-300, 1e-6, 1e-4, 0.01, 1.0, 1e3, 1e300, 7e307, 1e308, 1.7976931348623157e308]
)
def test_scheme_identities_hold_within_four_ulp_on_the_basis(d):
    """The two routes of each scheme differ by at most 4 * 2**-52 of the pair's scale.

    Up to the largest d, where an Allen pair of the unit-scale basis would be subnormal.
    """
    schemes = [r for r in run_identity_suite(d=d, l=0.1, n_max=4) if r.name in SCHEME_CHECKS]
    assert sorted(r.name for r in schemes) == SCHEME_CHECKS
    for r in schemes:
        assert r.residual <= 4 * 2**-52, (r.name, r.residual)


def test_an_overflowing_pair_fails_its_identity_without_raising():
    """At d = 5e-324 an Allen pair of the unit-scale basis (rho / d) is not finite."""
    results = run_identity_suite(d=5e-324, l=0.1, n_max=4)
    allen = [r for r in results if r.name.startswith("scheme_equivalence_allen")]
    assert _failed(results) == sorted(r.name for r in allen)
    assert [r.residual for r in allen] == [math.inf, math.inf]


def _one_hot_residuals(geometry):
    """The one-hot residuals as a loop over the columns P e_k computes them."""
    n, proj = geometry.n, projector(geometry)
    components = magnitude = 0.0
    for k in range(n):
        image = proj[:, k]
        expected = (2.0 / n) * np.cos(geometry.psi - geometry.psi[k])
        components = max(components, float(np.max(np.abs(image - expected))))
        scaled = (n / 2.0) * image
        magnitude = max(magnitude, abs(float(scaled @ scaled) - n / 2.0))
    return components, magnitude


def test_one_hot_residuals_are_the_column_loops_bit_for_bit():
    """The matrix identities round as the loop does, at every joint count check allows."""
    results = run_identity_suite(d=0.01, l=0.1, n_max=256)
    assert all(type(r.passed) is bool for r in results)
    got = {(r.name, r.n): r.residual for r in results}
    for n in range(3, 257):
        components, magnitude = _one_hot_residuals(RobotGeometry(n=n, d=0.01, l=0.1))
        assert got["one_hot_components", n] == components, n
        assert got["one_hot_magnitude", n] == magnitude, n
