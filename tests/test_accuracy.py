"""Accuracy of the linear maps against a 50-digit reference.

mpmath evaluates each map at 50 significant digits on the same float inputs,
with the exact joint angles psi_i = 2*pi*(i-1)/n.  The error of a result is
the largest absolute difference over its entries, in units of
2**-52 * scale, where scale is the largest input magnitude carried through
the map's gain: max|rho| for the forward transform, max(|rho_re|, |rho_im|)
for the inverse, and k/d (or d/k) times the largest input for the Allen
pairs, whose gain that is.  The arc maps are held to relative bounds:
arc_from_clarke's phi and kappa, and regularized_magnitude, in units of
2**-52 times the exact value, and theta in units of 2**-52 * pi.  Forward
kinematics is held, under each strategy, to the exact pose at that
strategy's own bending angle (phi, phi + epsilon, max(phi, epsilon), the
regularized one, or the straight limit): the position in units of
2**-52 * l and the rotation in units of 2**-52.  Each map has one stated
bound (README.md).
"""

import math

import mpmath
import numpy as np
import pytest

from clarke_kinematics import (
    ArcParams,
    LegacyScheme,
    RegularizationConfig,
    RobotGeometry,
    SingularityStrategy,
    StraightConfigurationError,
    arc_from_clarke,
    clarke_from_arc,
    clarke_from_legacy,
    forward_kinematics,
    forward_transform,
    inverse_transform,
    legacy_from_clarke,
    legacy_from_displacements,
    regularized_magnitude,
)

ULP = mpmath.mpf(2) ** -52
BOUNDS = {"forward_transform": 8, "inverse_transform": 8,
          "legacy_from_clarke": 8, "clarke_from_legacy": 8,
          "phi": 4, "theta": 4, "kappa": 4, "regularized_magnitude": 4}
# (position, rotation) of forward_kinematics under each strategy
FK_BOUNDS = {"avoid-straight": (4, 8), "add-epsilon": (4, 12), "saturate-epsilon": (4, 8),
             "linearize-near-zero": (4, 8), "analytic-branch": (4, 8),
             "adaptive-epsilon": (4, 12)}
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


ARC_JOINT_COUNTS = [3, 4, 5, 12, 64]
PHI_RANGE = (1e-12, 2 * np.pi + 0.5)


def _clarke(rng, d):
    """Clarke coordinates of a bend phi, log-uniform over PHI_RANGE, in a uniform direction."""
    phi = 10.0 ** rng.uniform(*np.log10(PHI_RANGE))
    theta = rng.uniform(-np.pi, np.pi)
    return d * phi * np.cos(theta), d * phi * np.sin(theta)


def _relative(got, exact):
    """|got - exact| in units of 2**-52 * |exact|."""
    return float(abs(mpmath.mpf(got) - exact) / (ULP * abs(exact)))


@pytest.mark.parametrize("n", ARC_JOINT_COUNTS)
def test_arc_map_is_within_its_bounds(n):
    rng = np.random.default_rng(100 + n)
    worst = {"phi": 0.0, "theta": 0.0, "kappa": 0.0}
    with mpmath.workdps(50):
        for _ in range(2 * DRAWS):
            d, l = (float(10.0 ** rng.uniform(-4, 1)) for _ in range(2))
            re, im = _clarke(rng, d)
            arc = arc_from_clarke(RobotGeometry(n=n, d=d, l=l), (re, im))
            phi = mpmath.hypot(re, im) / d
            worst["phi"] = max(worst["phi"], _relative(arc.phi, phi))
            worst["kappa"] = max(worst["kappa"], _relative(arc.kappa, phi / l))
            theta = mpmath.atan2(im, re)
            worst["theta"] = max(worst["theta"],
                                 float(abs(arc.theta - theta) / (ULP * mpmath.pi)))
    for name, error in worst.items():
        assert error <= BOUNDS[name], (name, n, error)


def _exact_decay(config, t):
    return mpmath.exp(-t) if config.decay == "exponential" else 2 / (1 + mpmath.exp(t))


@pytest.mark.parametrize("n", ARC_JOINT_COUNTS)
def test_regularized_magnitude_is_within_its_bound(n):
    """The default config, and the mirrored-logistic decay with a != 0."""
    rng = np.random.default_rng(200 + n)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(3 * DRAWS // 2):
            geometry = RobotGeometry(n=n, d=float(10.0 ** rng.uniform(-4, 1)), l=0.1)
            rho = inverse_transform(geometry, _clarke(rng, geometry.d))
            ss = mpmath.fsum(mpmath.mpf(r) ** 2 for r in rho)
            logistic = RegularizationConfig(epsilon=1e-6, a=0.3, b=2.0 / (1e-6 * geometry.d),
                                            decay="mirrored_logistic")
            for config in (RegularizationConfig.default(geometry), logistic):
                t = config.a + mpmath.mpf(config.b) * ss
                exact = mpmath.sqrt(2 * ss / n) + config.epsilon * _exact_decay(config, t)
                got = regularized_magnitude(geometry, rho, config)
                worst = max(worst, _relative(got, exact))
    assert worst <= BOUNDS["regularized_magnitude"], (n, worst)


def _exact_pose(geometry, re, im, strategy, config):
    """The 12 pose entries at 50 digits, at the strategy's own bending angle."""
    d, l, eps = (mpmath.mpf(x) for x in (geometry.d, geometry.l, config.epsilon))
    u, v = mpmath.mpf(re) / d, mpmath.mpf(im) / d
    phi = mpmath.hypot(u, v)
    if strategy is SingularityStrategy.ADD_EPSILON:
        phi_eff = phi + eps
    elif strategy is SingularityStrategy.SATURATE_EPSILON:
        phi_eff = max(phi, eps)
    elif strategy is SingularityStrategy.ADAPTIVE_EPSILON:
        ss = geometry.n * (mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2) / 2
        t = config.a + mpmath.mpf(config.b) * ss
        phi_eff = (mpmath.sqrt(2 * ss / geometry.n) + eps * _exact_decay(config, t)) / d
    else:
        phi_eff = phi
    if phi_eff == 0 or (strategy is SingularityStrategy.LINEARIZE_NEAR_ZERO and phi < eps):
        g1, g2, cos_phi = mpmath.mpf(1), mpmath.mpf(1) / 2, mpmath.mpf(1)
    else:
        g1 = mpmath.sin(phi_eff) / phi_eff
        g2 = 2 * mpmath.sin(phi_eff / 2) ** 2 / phi_eff**2
        cos_phi = mpmath.cos(phi_eff)
    position = [l * u * g2, l * v * g2, l * g1]
    rotation = [1 - u * u * g2, -u * v * g2, u * g1,
                -u * v * g2, 1 - v * v * g2, v * g1,
                -u * g1, -v * g1, cos_phi]
    return position, rotation


@pytest.mark.parametrize("n", ARC_JOINT_COUNTS)
def test_forward_kinematics_is_within_its_bounds(n):
    """Half the bends log-uniform over PHI_RANGE, half uniform on it, so past pi too."""
    rng = np.random.default_rng(300 + n)
    worst = {s: [0.0, 0.0] for s in SingularityStrategy}
    with mpmath.workdps(50):
        for i in range(DRAWS):
            d, l = (float(10.0 ** rng.uniform(-4, 1)) for _ in range(2))
            geometry = RobotGeometry(n=n, d=d, l=l)
            config = RegularizationConfig.default(geometry)
            if i % 2:
                re, im = _clarke(rng, d)
            else:
                phi, theta = rng.uniform(*PHI_RANGE), rng.uniform(-np.pi, np.pi)
                re, im = d * phi * np.cos(theta), d * phi * np.sin(theta)
            for strategy in SingularityStrategy:
                try:
                    pose = forward_kinematics(geometry, (re, im), strategy, config)
                except StraightConfigurationError:  # avoid-straight below epsilon
                    continue
                position, rotation = _exact_pose(geometry, re, im, strategy, config)
                errors = worst[strategy]
                errors[0] = max(errors[0], _error(pose.position.tolist(), position, l))
                errors[1] = max(errors[1], _error(pose.rotation.ravel().tolist(), rotation, 1))
    for strategy, errors in worst.items():
        bounds = FK_BOUNDS[strategy.value]
        assert errors[0] <= bounds[0] and errors[1] <= bounds[1], (strategy.value, n, errors)


# The ends of the range: every map through d either returns the 50-digit
# result within its bound or raises ValueError, and raises only where that
# result is not a normal double.
RANGE_ENDS = [1e-300, 1e-10, 1.0, 1e300, 1.7976931348623157e308]
SUBNORMAL_D = [1e-310, 5e-324]  # where d itself is scaled, and sqrt(3) * d is not exact
RANGE_BOUNDS = {"legacy_from_displacements": 8, "clarke_from_arc": 4, "phi and kappa": 4}
DBL_MAX = mpmath.mpf(1.7976931348623157e308)
DBL_MIN = mpmath.mpf(2) ** -1022


def _up_to_1e308(rng, size):
    """Signed values 10**u, u uniform on [-300, 308], per entry or one u for all;
    for a quarter of the draws u is on [307, log10(DBL_MAX)], where 2 * value may overflow."""
    low, high = (307.0, math.log10(1.7976931348623157e308)) if rng.random() < 0.25 else (-300, 308)
    u = rng.uniform(low, high, size) if rng.random() < 0.5 else rng.uniform(low, high)
    return rng.choice([-1.0, 1.0], size) * 10.0 ** u


def _check_at_scale(call, exact, scale, bound, relative=False):
    """call() is within bound of exact, or raises ValueError where exact is not normal.

    exact is the list of 50-digit results; the error is in units of
    2**-52 * scale, or of 2**-52 * |exact| entry by entry when relative.
    A result within bound of DBL_MAX may round either way; a result below
    DBL_MIN, which no map is held to, may be refused or returned.
    """
    top = max(abs(e) for e in exact)
    try:
        got = call()
    except ValueError:
        assert top > DBL_MAX * (1 - bound * ULP) or top < DBL_MIN, (exact, scale)
        return 0.0
    assert top <= DBL_MAX * (1 + bound * ULP), (got, exact)
    if top < DBL_MIN:
        return 0.0
    if relative:
        return max(_relative(g, e) for g, e in zip(got, exact) if e != 0)
    return _error(got, exact, scale)


def _published(scheme, r, d):
    """The scheme's published formula in the displacements r, at 50 digits."""
    if scheme is LegacyScheme.DIAN3:
        return [(2 * r[0] - r[1] - r[2]) / 3, (r[1] - r[2]) / mpmath.sqrt(3)]
    if scheme is LegacyScheme.DELLA_SANTINA4:
        return [(r[0] - r[2]) / 2, (r[1] - r[3]) / 2]
    if scheme is LegacyScheme.ALLEN3:
        return [(r[2] - r[1]) / (mpmath.sqrt(3) * d), (2 * r[0] - r[1] - r[2]) / (3 * d)]
    return [(r[3] - r[1]) / d, (r[0] - r[2]) / d]


@pytest.mark.parametrize("d", RANGE_ENDS + SUBNORMAL_D)
@pytest.mark.parametrize("scheme", list(LegacyScheme), ids=lambda s: s.value)
def test_legacy_maps_at_the_ends_of_the_range(scheme, d):
    """legacy_from_clarke, clarke_from_legacy and the published formulas.

    legacy_from_displacements is held to 8 * 2**-52 times its gain (1, or
    1/d for the Allen schemes) times max|rho|, on any rho: each published
    formula is the Clarke route's linear form on all of R^n.
    """
    rng = np.random.default_rng(int(-np.log10(d)) % 1000 + scheme.n)
    geometry = RobotGeometry(n=scheme.n, d=d, l=0.1)
    k = None if scheme._k is None else mpmath.mpf(scheme._k)
    gain = 1 if k is None else k / mpmath.mpf(d)
    worst = dict.fromkeys(["legacy_from_clarke", "clarke_from_legacy",
                           "legacy_from_displacements"], 0.0)
    with mpmath.workdps(50):
        for _ in range(DRAWS // 2):
            re, im = map(mpmath.mpf, _up_to_1e308(rng, 2))
            exact = [re, im] if k is None else [-gain * im, gain * re]
            error = _check_at_scale(
                lambda: legacy_from_clarke(scheme, geometry, (float(re), float(im)))[1:],
                exact, gain * max(abs(re), abs(im)), BOUNDS["legacy_from_clarke"])
            worst["legacy_from_clarke"] = max(worst["legacy_from_clarke"], error)

            p1, p2 = map(mpmath.mpf, _up_to_1e308(rng, 2))
            exact = [p1, p2] if k is None else [p2 / gain, -p1 / gain]
            error = _check_at_scale(
                lambda: clarke_from_legacy(scheme, geometry, (float(p1), float(p2))),
                exact, max(abs(p1), abs(p2)) / gain, BOUNDS["clarke_from_legacy"])
            worst["clarke_from_legacy"] = max(worst["clarke_from_legacy"], error)

            rho = _up_to_1e308(rng, scheme.n)
            r = [mpmath.mpf(x) for x in rho]
            dm = mpmath.mpf(d)
            exact = _published(scheme, r, dm)
            scale = max(map(abs, r)) * (1 if k is None else 1 / dm)
            error = _check_at_scale(
                lambda: legacy_from_displacements(scheme, geometry, rho)[1:],
                exact, scale, RANGE_BOUNDS["legacy_from_displacements"])
            worst["legacy_from_displacements"] = max(worst["legacy_from_displacements"], error)
    for name, error in worst.items():
        assert error <= RANGE_BOUNDS.get(name, BOUNDS.get(name)), (name, scheme.value, d, error)


def _phi_kappa(arc):
    return [arc.phi, arc.kappa]


@pytest.mark.parametrize("d", RANGE_ENDS + SUBNORMAL_D)
def test_arc_maps_at_the_ends_of_the_range(d):
    """arc_from_clarke's phi, kappa and theta, and clarke_from_arc within
    4 * 2**-52 * d * phi, for Clarke coordinates and bends up to 1e308."""
    rng = np.random.default_rng(500 + int(-np.log10(d)) % 1000)
    worst = {"phi and kappa": 0.0, "theta": 0.0, "clarke_from_arc": 0.0}
    l = 0.1
    geometry = RobotGeometry(n=4, d=d, l=l)
    with mpmath.workdps(50):
        for _ in range(DRAWS):
            re, im = map(float, _up_to_1e308(rng, 2))
            phi = mpmath.hypot(re, im) / d
            error = _check_at_scale(lambda: _phi_kappa(arc_from_clarke(geometry, (re, im))),
                                    [phi, phi / mpmath.mpf(l)], None, BOUNDS["phi"],
                                    relative=True)
            worst["phi and kappa"] = max(worst["phi and kappa"], error)
            if DBL_MIN <= phi / mpmath.mpf(l) <= DBL_MAX * (1 - 4 * ULP):
                # theta is taken into (-pi, pi], so -pi + 1e-320, say, may come out pi
                miss = arc_from_clarke(geometry, (re, im)).theta - mpmath.atan2(im, re)
                miss -= 2 * mpmath.pi * mpmath.nint(miss / (2 * mpmath.pi))
                worst["theta"] = max(worst["theta"], float(abs(miss) / (ULP * mpmath.pi)))

            arc = ArcParams(theta=rng.uniform(-np.pi, np.pi), phi=abs(_up_to_1e308(rng, 1)[0]))
            m = mpmath.mpf(d) * mpmath.mpf(arc.phi)
            exact = [m * mpmath.cos(arc.theta), m * mpmath.sin(arc.theta)]
            error = _check_at_scale(lambda: clarke_from_arc(geometry, arc), exact, m,
                                    RANGE_BOUNDS["clarke_from_arc"])
            worst["clarke_from_arc"] = max(worst["clarke_from_arc"], error)
    for name, error in worst.items():
        assert error <= RANGE_BOUNDS.get(name, BOUNDS.get(name)), (name, d, error)


def _parent_formula(scheme, rho, d):
    """The published formulas as the package evaluated them before one scaling
    rule served every map through d: a row reaching 2**1021 at a quarter of its
    size, and allen3 dividing by sqrt(3) * m and 3 * m, d = m * 2**-k, then by 2**k."""
    if max(map(abs, rho)) >= 2.0**1021:
        p1, p2 = _parent_formula(scheme, [0.25 * r for r in rho], d)
        return 4.0 * p1, 4.0 * p2
    if scheme is LegacyScheme.DIAN3:
        return (2.0 * rho[0] - rho[1] - rho[2]) / 3.0, (rho[1] - rho[2]) / math.sqrt(3.0)
    if scheme is LegacyScheme.DELLA_SANTINA4:
        return (rho[0] - rho[2]) / 2.0, (rho[1] - rho[3]) / 2.0
    if scheme is LegacyScheme.ALLEN3:
        m, e = math.frexp(d)
        m, k = 2.0 * m, 1 - e
        low, high = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
        return ((rho[2] - rho[1]) / (math.sqrt(3.0) * m) * low * high,
                (2.0 * rho[0] - rho[1] - rho[2]) / (3.0 * m) * low * high)
    return (rho[3] - rho[1]) / d, (rho[0] - rho[2]) / d


def _normal(values):
    return all(math.isfinite(v) and (v == 0.0 or abs(v) >= 2.0**-1022) for v in values)


def test_maps_keep_the_bits_of_their_unscaled_expressions():
    """Wherever the expressions the maps evaluated before the scaling rule give
    a finite normal result, the maps give it bit for bit: k * re / d,
    p2 * d / k, d * phi * cos(theta) and the published formulas, with their
    quarter-scale and allen3's exponent split.

    Every value is at least 1e-300 in magnitude.  Below about 2**-1020 the
    exponent split rounded its quotient among the subnormals (from tiny or
    cancelling displacements) and lost up to all of its digits, which the one
    division by sqrt(3) * d does not.
    """
    rng = np.random.default_rng(17)
    compared = 0
    for i in range(3000):
        d = RANGE_ENDS[i % 5] if i < 100 else float(10.0 ** rng.uniform(-300, 308))
        for scheme in LegacyScheme:
            geometry = RobotGeometry(n=scheme.n, d=d, l=0.1)
            rho = _up_to_1e308(rng, scheme.n).tolist()
            want = _parent_formula(scheme, rho, d)
            if _normal(want):
                assert legacy_from_displacements(scheme, geometry, rho)[1:] == want, (rho, d)
                compared += 1
            if scheme._k is None:
                continue
            k = scheme._k
            re, im, p1, p2 = _up_to_1e308(rng, 4).tolist()
            want = (-k * im / d, k * re / d)
            if _normal(want):
                assert legacy_from_clarke(scheme, geometry, (re, im))[1:] == want, (re, im, d)
                compared += 1
            want = (p2 * d / k, -p1 * d / k)
            if _normal(want):
                assert clarke_from_legacy(scheme, geometry, (p1, p2)) == want, (p1, p2, d)
                compared += 1
        arc = ArcParams(theta=rng.uniform(-np.pi, np.pi), phi=abs(float(_up_to_1e308(rng, 1)[0])))
        m = d * arc.phi
        want = (m * math.cos(arc.theta), m * math.sin(arc.theta))
        if _normal(want):
            assert clarke_from_arc(RobotGeometry(n=4, d=d, l=0.1), arc) == want, (arc, d)
            compared += 1
    assert compared > 10000
