"""The array forms equal their scalar forms bit for bit, row by row.

Every *_rows function promises the exact bytes the scalar function gives on
each row, so the comparisons below use assert_array_equal, never a tolerance.
"""

import math
import warnings

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
from clarke_kinematics import joint_space, kinematics
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


@pytest.mark.parametrize("scheme", list(LegacyScheme))
def test_length_rows_past_2_to_1021(scheme):
    """Rows the formulas take a quarter of (max|rho| >= 2**1021) beside rows
    they take whole, in one table: bitwise equal to the scalar form."""
    geometry = RobotGeometry(n=scheme.n, d=1.0, l=0.1)
    rng = np.random.default_rng(1021)
    radius = np.concatenate([rng.uniform(2.0**1021, 8.9e307, 20), rng.uniform(0.0, 2.0**1021, 20),
                             10.0 ** rng.uniform(-3, 300, 20)])
    angle = rng.uniform(-math.pi, math.pi, len(radius))
    clarke = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    lengths = geometry.l - inverse_transform_rows(geometry, clarke)
    rng.shuffle(lengths)
    np.testing.assert_array_equal(legacy_from_lengths_rows(scheme, geometry, lengths),
                                  [legacy_from_lengths(scheme, geometry, row)[1:] for row in lengths])


@SETTINGS
@given(geometries, st.data())
def test_clarke_from_lengths_rows(geometry, data):
    lengths = np.array(data.draw(table(geometry.n)))
    np.testing.assert_array_equal(clarke_from_lengths_rows(geometry, lengths),
                                  [clarke_from_lengths(geometry, row) for row in lengths])


BIG = 1.7976931348623157e308
GEOMETRY3 = RobotGeometry(n=3, d=0.01, l=0.1)
ROW_FORMS = {
    # name: (call, rows that overflow or hold inf or NaN)
    "forward_transform_rows": (lambda rows: forward_transform_rows(GEOMETRY3, rows),
                               [[BIG, -BIG, -BIG], [math.inf, 0.0, 0.0], [math.nan, 1.0, 2.0]]),
    "inverse_transform_rows": (lambda rows: inverse_transform_rows(RobotGeometry(n=8, d=0.01, l=0.1),
                                                                   rows),
                               [[BIG, BIG], [math.inf, 0.0], [0.0, math.nan]]),
    "contains_rows": (lambda rows: contains_rows(GEOMETRY3, rows),
                      [[BIG, -BIG, -BIG], [math.inf, 0.0, 0.0], [math.nan, 1.0, 2.0]]),
    "clarke_from_lengths_rows": (lambda rows: clarke_from_lengths_rows(GEOMETRY3, rows),
                                 [[-BIG, BIG, BIG], [math.inf, 0.0, 0.0], [math.nan, 1.0, 2.0]]),
    "legacy_from_clarke_rows": (
        lambda rows: legacy_from_clarke_rows(LegacyScheme.ALLEN4, RobotGeometry(n=4, d=1e-300, l=0.1),
                                             rows),
        [[1e308, -1e308], [math.inf, 0.0], [0.0, math.nan]]),
    "clarke_from_legacy_rows": (
        lambda rows: clarke_from_legacy_rows(LegacyScheme.ALLEN4, RobotGeometry(n=4, d=1e300, l=0.1),
                                             rows),
        [[1e308, -1e308], [math.inf, 0.0], [0.0, math.nan]]),
    "legacy_from_lengths_rows": (
        lambda rows: legacy_from_lengths_rows(LegacyScheme.ALLEN3, RobotGeometry(n=3, d=1e-300, l=0.1),
                                              rows),
        [[-1e308, 1e308, 0.0], [math.inf, 0.0, 0.0], [math.nan, 1.0, 2.0]]),
    "forward_kinematics_rows": (lambda rows: forward_kinematics_rows(GEOMETRY3, rows),
                                [[1e308, -1e308], [math.inf, 0.0], [0.0, math.nan]]),
}


@pytest.mark.parametrize("form", ROW_FORMS)
def test_row_forms_give_non_finite_rows_without_a_warning(form):
    """A row that overflows, or holds inf or NaN, comes out non-finite (contains_rows:
    False) beside a finite row, in the joint space for n = 3, and numpy warns of nothing."""
    call, rows = ROW_FORMS[form]
    finite = [0.002, -0.001, -0.001][:len(rows[0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = np.asarray(call([*rows, finite]))
    if out.dtype == bool:
        assert out.tolist() == [False] * len(rows) + [True]
    else:
        assert not np.isfinite(out[:-1]).all(axis=1).any() and np.isfinite(out[-1]).all()


RANGE_ENDS = [1e-300, 1e-10, 1.0, 1e300, 1.7976931348623157e308]


def _scalar_rows(call, rows):
    """call on each row, with None where it raises ValueError."""
    out = []
    for row in rows:
        try:
            out.append(list(call(row)))
        except ValueError:
            out.append(None)
    return out


def _assert_rows_equal_scalars(got, scalar):
    """Bitwise equal where the scalar form returns; not finite where it raises."""
    for row, want in zip(got, scalar):
        if want is None:
            assert not np.isfinite(row).all(), row
        else:
            np.testing.assert_array_equal(row, want)


@pytest.mark.parametrize("d", RANGE_ENDS + [1e-310, 5e-324])
@pytest.mark.parametrize("scheme", list(LegacyScheme), ids=lambda s: s.value)
def test_legacy_rows_at_the_ends_of_the_range(scheme, d):
    """Values up to the largest double, one decade per row or per entry, in one
    table; a quarter of the rows in the top decade, where 2 * value may overflow."""
    rng = np.random.default_rng(scheme.n)
    geometry = RobotGeometry(n=scheme.n, d=d, l=0.1)
    low = np.where(rng.random((300, 1)) < 0.25, 307.0, -300.0)
    high = np.where(low > 0, math.log10(BIG), 308.0)
    decades = np.where(rng.random((300, 1)) < 0.5, rng.uniform(low, high, (300, 1)),
                       rng.uniform(low, high, (300, scheme.n)))
    values = rng.choice([-1.0, 1.0], (300, scheme.n)) * 10.0**decades
    pairs, rho = values[:, :2], values
    _assert_rows_equal_scalars(legacy_from_clarke_rows(scheme, geometry, pairs),
                               _scalar_rows(lambda r: legacy_from_clarke(scheme, geometry, r)[1:],
                                            pairs))
    _assert_rows_equal_scalars(clarke_from_legacy_rows(scheme, geometry, pairs),
                               _scalar_rows(lambda r: clarke_from_legacy(scheme, geometry, r),
                                            pairs))
    lengths = geometry.l - rho
    _assert_rows_equal_scalars(legacy_from_lengths_rows(scheme, geometry, lengths),
                               _scalar_rows(lambda r: legacy_from_lengths(scheme, geometry, r)[1:],
                                            lengths))


@pytest.mark.parametrize("n", [3, 4, 12])
def test_sample_maps_its_draws_in_blocks(n):
    """A count one row past a multiple of the block, in three blocks: bitwise equal
    to the product over the whole table (a one-row block would round apart)."""
    geometry = RobotGeometry(n=n, d=0.01, l=0.1)
    count = 3 * joint_space._SAMPLE_BLOCK + 1
    rng = np.random.default_rng(11)
    radius = geometry.d * 2.5 * np.sqrt(rng.random(count))
    angle = 2.0 * np.pi * rng.random(count)
    clarke = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    np.testing.assert_array_equal(sample(geometry, 2.5, count, seed=11),
                                  clarke @ geometry.clarke.right_inverse.T)
