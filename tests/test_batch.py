"""The array forms equal their scalar forms bit for bit, row by row.

Every *_rows function promises the exact bytes the scalar function gives on
each row, so the comparisons below use assert_array_equal, never a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarke_kinematics import (
    LegacyScheme,
    RegularizationConfig,
    RobotGeometry,
    SingularityStrategy,
    StraightConfigurationError,
    clarke_from_legacy,
    clarke_from_legacy_rows,
    clarke_from_lengths,
    clarke_from_lengths_rows,
    contains,
    contains_rows,
    forward_kinematics,
    forward_kinematics_rows,
    forward_transform,
    forward_transform_rows,
    inverse_transform,
    inverse_transform_rows,
    legacy_from_clarke,
    legacy_from_clarke_rows,
    legacy_from_lengths,
    legacy_from_lengths_rows,
    sample,
)
from clarke_kinematics import kinematics
from clarke_kinematics.kinematics import _SERIES_CUTOFF

SETTINGS = settings(max_examples=40, deadline=None)

geometries = st.builds(
    RobotGeometry,
    n=st.integers(3, 16),
    d=st.sampled_from([0.01, 0.0037, 1.3]),
    l=st.sampled_from([0.1, 0.73]),
)
values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def table(width, rows=st.integers(1, 25)):
    return rows.flatmap(lambda n: st.lists(st.lists(values, min_size=width, max_size=width),
                                           min_size=n, max_size=n))


def configs(geometry):
    """The CLI's default, a custom epsilon, and the mirrored-logistic decay with a != 0."""
    eps = st.sampled_from([1e-9 * geometry.d, 1e-6, 1e-3])
    return st.one_of(
        st.just(RegularizationConfig.default(geometry)),
        eps.map(lambda e: RegularizationConfig.default(geometry, epsilon=e)),
        eps.map(lambda e: RegularizationConfig(epsilon=e, a=0.3, b=2.0 / (e * geometry.d),
                                               decay="mirrored_logistic")),
    )


def bending_angles(eps):
    """0, below and around epsilon, the series band, and bends past a full circle."""
    return st.one_of(
        st.just(0.0),
        st.floats(0.0, eps, exclude_max=True),
        st.floats(0.5 * eps, 2.0 * eps),
        st.floats(0.0, _SERIES_CUTOFF, exclude_max=True),
        st.floats(_SERIES_CUTOFF, 2.0 * math.pi + 0.5),
    )


@st.composite
def fk_cases(draw):
    """Drawn edge-case rows, then 60 seeded random rows over the same regimes."""
    geometry = draw(geometries)
    config = draw(configs(geometry))
    eps = config.epsilon
    angles = st.tuples(bending_angles(eps), st.floats(-math.pi, math.pi))
    polar = draw(st.lists(angles, min_size=1, max_size=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = [(0.0, eps), (0.5 * eps, 2.0 * eps), (0.0, _SERIES_CUTOFF),
             (_SERIES_CUTOFF, 2.0 * math.pi + 0.5)]
    low, high = np.array(bands)[rng.integers(len(bands), size=60)].T
    polar += zip(rng.uniform(low, high), rng.uniform(-math.pi, math.pi, 60))
    clarke = np.array([[geometry.d * phi * math.cos(theta), geometry.d * phi * math.sin(theta)]
                       for phi, theta in polar])
    return geometry, config, clarke


def scalar_poses(geometry, clarke, strategy, config):
    poses = [forward_kinematics(geometry, row, strategy, config) for row in clarke]
    return np.array([[*p.position, *p.rotation.ravel()] for p in poses])


@settings(max_examples=120, deadline=None)
@given(fk_cases(), st.sampled_from(list(SingularityStrategy)))
def test_forward_kinematics_rows(case, strategy):
    geometry, config, clarke = case
    if strategy is SingularityStrategy.AVOID_STRAIGHT:
        # the scalar form raises on exactly the rows the array form refuses
        straight = []
        for row in clarke:
            try:
                forward_kinematics(geometry, row, strategy, config)
                straight.append(False)
            except StraightConfigurationError:
                straight.append(True)
        if any(straight):
            with pytest.raises(StraightConfigurationError) as info:
                forward_kinematics_rows(geometry, clarke, strategy, config)
            assert info.value.row == straight.index(True)
        clarke = clarke[~np.array(straight)]
    got = forward_kinematics_rows(geometry, clarke, strategy, config)
    assert got.shape == (len(clarke), 12)
    if len(clarke):
        np.testing.assert_array_equal(got, scalar_poses(geometry, clarke, strategy, config))


@pytest.mark.parametrize("decay", ["exponential", "mirrored_logistic"])
def test_adaptive_decay_around_746(decay):
    # both decays are exactly 0.0 from t = a + b * rho^T rho = 746 on, where the
    # array form stops mapping decay_value; NaN is mapped (exponential gives inf)
    config = RegularizationConfig(epsilon=1e-3, a=0.0, b=1.0, decay=decay)
    t = np.array([745.0, np.nextafter(746.0, 0.0), 746.0, np.nextafter(746.0, 1e3), 747.0,
                  1e308, math.inf, math.nan, -708.0, -709.5, -1e308, -math.inf])
    np.testing.assert_array_equal(kinematics._ARRAY_OPS.decay(config, t),
                                  [config.decay_value(x) for x in t.tolist()])
    # rows with rho^T rho = (n/2) |clarke|^2 on both sides of t = 746
    geometry = RobotGeometry(n=4, d=0.01, l=0.1)
    re = math.sqrt(373.0) + np.arange(-8, 9) * np.spacing(math.sqrt(373.0))
    clarke = np.column_stack([re, np.zeros_like(re)])
    t = config.a + config.b * (0.5 * geometry.n * (re * re))
    assert (t < 746.0).any() and (t >= 746.0).any()
    strategy = SingularityStrategy.ADAPTIVE_EPSILON
    np.testing.assert_array_equal(forward_kinematics_rows(geometry, clarke, strategy, config),
                                  scalar_poses(geometry, clarke, strategy, config))


@SETTINGS
@given(geometries, st.data())
def test_transform_rows(geometry, data):
    rho = np.array(data.draw(table(geometry.n)))
    clarke = np.array(data.draw(table(2)))
    np.testing.assert_array_equal(forward_transform_rows(geometry, rho),
                                  [forward_transform(geometry, row) for row in rho])
    np.testing.assert_array_equal(inverse_transform_rows(geometry, clarke),
                                  [inverse_transform(geometry, row) for row in clarke])


@SETTINGS
@given(geometries, st.data(), st.sampled_from([1e-9, 1e-3]))
def test_contains_rows(geometry, data, tol):
    # rows in the joint space, the same rows nudged off it, arbitrary rows, and
    # rows with NaN and +-inf among finite values
    inside = inverse_transform_rows(geometry, np.array(data.draw(table(2))))
    nudged = inside + data.draw(st.sampled_from([1e-12, 1e-6, 1.0])) * np.arange(geometry.n)
    non_finite = st.lists(st.one_of(values, st.sampled_from([math.nan, math.inf, -math.inf])),
                          min_size=geometry.n, max_size=geometry.n)
    rho = np.vstack([inside, nudged, np.array(data.draw(table(geometry.n))),
                     np.array(data.draw(st.lists(non_finite, min_size=1, max_size=10))),
                     np.full((3, geometry.n), [[math.nan], [math.inf], [-math.inf]])])
    np.testing.assert_array_equal(contains_rows(geometry, rho, tol),
                                  [contains(geometry, row, tol) for row in rho])


@SETTINGS
@given(st.sampled_from(list(LegacyScheme)), st.data())
def test_legacy_rows(scheme, data):
    geometry = RobotGeometry(n=scheme.n, d=data.draw(st.sampled_from([0.01, 0.0037, 1.3])), l=0.1)
    clarke = np.array(data.draw(table(2)))
    pairs = np.array(data.draw(table(2)))
    lengths = np.array(data.draw(table(scheme.n)))
    np.testing.assert_array_equal(legacy_from_clarke_rows(scheme, geometry, clarke),
                                  [legacy_from_clarke(scheme, geometry, row)[1:] for row in clarke])
    np.testing.assert_array_equal(clarke_from_legacy_rows(scheme, geometry, pairs),
                                  [clarke_from_legacy(scheme, geometry, row) for row in pairs])
    np.testing.assert_array_equal(legacy_from_lengths_rows(scheme, geometry, lengths),
                                  [legacy_from_lengths(scheme, geometry, row)[1:] for row in lengths])


@pytest.mark.parametrize("d", [7e307, 1e308])
def test_allen3_length_rows_at_large_d(d):
    """Where 3 * d overflows: bitwise equal to the scalar form, and the Clarke route's pairs."""
    geometry = RobotGeometry(n=3, d=d, l=0.1)
    lengths = geometry.l - sample(geometry, 0.4, 200, seed=5)
    rows = legacy_from_lengths_rows(LegacyScheme.ALLEN3, geometry, lengths)
    np.testing.assert_array_equal(
        rows, [legacy_from_lengths(LegacyScheme.ALLEN3, geometry, row)[1:] for row in lengths])
    clarke = clarke_from_lengths_rows(geometry, lengths)
    want = legacy_from_clarke_rows(LegacyScheme.ALLEN3, geometry, clarke)
    assert (np.abs(want).max(axis=0) > 0.3).all()
    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-15)


@SETTINGS
@given(geometries, st.data())
def test_clarke_from_lengths_rows(geometry, data):
    lengths = np.array(data.draw(table(geometry.n)))
    np.testing.assert_array_equal(clarke_from_lengths_rows(geometry, lengths),
                                  [clarke_from_lengths(geometry, row) for row in lengths])
