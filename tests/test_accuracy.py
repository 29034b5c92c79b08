"""Accuracy of the linear maps against a 50-digit reference.

mpmath evaluates each map at 50 significant digits on the same float inputs,
with the exact joint angles psi_i = 2*pi*(i-1)/n.  The error of a result is
the largest absolute difference over its entries, in units of
2**-52 * scale, where scale is the largest input magnitude carried through
the map's gain: max|rho| for the forward transform, max(|rho_re|, |rho_im|)
for the inverse, and k/d (or d/k) times the largest input for the Allen
pairs, whose gain that is.  Each map has one stated bound (README.md).
"""

import mpmath
import numpy as np
import pytest

from clarke_kinematics import (
    LegacyScheme,
    RobotGeometry,
    clarke_from_legacy,
    forward_transform,
    inverse_transform,
    legacy_from_clarke,
)

ULP = mpmath.mpf(2) ** -52
BOUNDS = {"forward_transform": 8, "inverse_transform": 8,
          "legacy_from_clarke": 8, "clarke_from_legacy": 8}
JOINT_COUNTS = [3, 4, 5, 7, 12, 16, 64]
DRAWS = 200


def _values(rng, size):
    """size normal draws, all scaled by one factor between 1e-6 and 1e3."""
    return rng.normal(size=size) * 10.0 ** rng.uniform(-6, 3)


def _angles(n):
    return [2 * mpmath.pi * i / n for i in range(n)]


def _error(got, exact, scale):
    """max |got - exact| in units of 2**-52 * scale."""
    worst = max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact))
    return float(worst / (ULP * scale))


@pytest.mark.parametrize("n", JOINT_COUNTS)
def test_transforms_are_within_their_bounds(n):
    geometry = RobotGeometry(n=n, d=0.01, l=0.1)
    rng = np.random.default_rng(n)
    worst = {"forward_transform": 0.0, "inverse_transform": 0.0}
    with mpmath.workdps(50):
        cos = [mpmath.cos(psi) for psi in _angles(n)]
        sin = [mpmath.sin(psi) for psi in _angles(n)]
        for _ in range(DRAWS):
            rho = _values(rng, n)
            exact = [2 * mpmath.fsum(mpmath.mpf(r) * c for r, c in zip(rho, trig)) / n
                     for trig in (cos, sin)]
            got = forward_transform(geometry, rho)
            scale = mpmath.mpf(float(np.abs(rho).max()))
            worst["forward_transform"] = max(worst["forward_transform"],
                                             _error(got, exact, scale))

            re, im = _values(rng, 2)
            exact = [mpmath.mpf(re) * c + mpmath.mpf(im) * s for c, s in zip(cos, sin)]
            got = inverse_transform(geometry, (re, im))
            scale = mpmath.mpf(max(abs(re), abs(im)))
            worst["inverse_transform"] = max(worst["inverse_transform"],
                                             _error(got, exact, scale))
    for name, error in worst.items():
        assert error <= BOUNDS[name], (name, n, error)


@pytest.mark.parametrize("scheme", list(LegacyScheme), ids=lambda s: s.value)
def test_legacy_maps_are_within_their_bounds(scheme):
    rng = np.random.default_rng(scheme.n)
    worst = {"legacy_from_clarke": 0.0, "clarke_from_legacy": 0.0}
    with mpmath.workdps(50):
        for _ in range(2 * DRAWS):
            d = float(10.0 ** rng.uniform(-4, 1))
            geometry = RobotGeometry(n=scheme.n, d=d, l=0.1)
            k = None if scheme._k is None else mpmath.mpf(scheme._k)
            gain = 1 if k is None else k / mpmath.mpf(d)

            re, im = map(mpmath.mpf, _values(rng, 2))
            exact = [re, im] if k is None else [-gain * im, gain * re]
            got = legacy_from_clarke(scheme, geometry, (float(re), float(im)))  # (scheme, p1, p2)
            worst["legacy_from_clarke"] = max(worst["legacy_from_clarke"],
                                              _error(got[1:], exact, gain * max(abs(re), abs(im))))

            p1, p2 = map(mpmath.mpf, _values(rng, 2))
            exact = [p1, p2] if k is None else [p2 / gain, -p1 / gain]
            got = clarke_from_legacy(scheme, geometry, (float(p1), float(p2)))
            worst["clarke_from_legacy"] = max(worst["clarke_from_legacy"],
                                              _error(got, exact, max(abs(p1), abs(p2)) / gain))
    for name, error in worst.items():
        assert error <= BOUNDS[name], (name, scheme.value, error)
