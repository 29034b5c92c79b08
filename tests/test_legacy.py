import functools
import math
import re

import numpy as np
import pytest

from clarke_kinematics import (
    ClarkeCoords,
    LegacyPair,
    LegacyScheme,
    RobotGeometry,
    SchemeMismatchError,
    clarke_from_legacy,
    clarke_from_lengths,
    displacements_to_lengths,
    forward_transform,
    legacy_from_clarke,
    legacy_from_displacements,
    legacy_from_lengths,
    lengths_to_displacements,
    sample,
)
from conftest import assert_close

ALL_SCHEMES = list(LegacyScheme)


def geometry_for(scheme):
    return RobotGeometry(n=scheme.n, d=0.01, l=0.1)


class TestLengths:
    def test_unactuated(self, geometry3):
        np.testing.assert_array_equal(
            lengths_to_displacements(geometry3, [0.1, 0.1, 0.1]), np.zeros(3)
        )

    def test_elementwise_subtraction(self, geometry3):
        assert_close(
            lengths_to_displacements(geometry3, [0.09, 0.105, 0.105]),
            [0.01, -0.005, -0.005],
        )

    def test_displacements_to_lengths_example(self, geometry4):
        rho = 0.01 * np.array([1.0, 0.0, -1.0, 0.0])
        assert_close(displacements_to_lengths(geometry4, rho), [0.09, 0.10, 0.11, 0.10])

    def test_zero_displacement_gives_segment_length(self, geometry4):
        np.testing.assert_array_equal(
            displacements_to_lengths(geometry4, np.zeros(4)), np.full(4, 0.1)
        )

    def test_round_trip_is_identity(self, geometry4):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            rho = rng.normal(scale=0.02, size=4)
            assert_close(
                lengths_to_displacements(geometry4, displacements_to_lengths(geometry4, rho)),
                rho,
            )

    def test_length_mismatch(self, geometry4):
        with pytest.raises(ValueError, match="expected 4 lengths"):
            lengths_to_displacements(geometry4, [0.1, 0.1, 0.1])

    @pytest.mark.parametrize("lengths", [[math.inf, 0.1, 0.1, 0.1], [0.1, math.nan, 0.1, 0.1],
                                         [0.1, 0.1, 0.1, -math.inf]])
    def test_rejects_non_finite(self, geometry4, lengths):
        message = f"lengths must be finite, got {lengths}"
        for convert in (lengths_to_displacements, clarke_from_lengths,
                        functools.partial(legacy_from_lengths, LegacyScheme.ALLEN4)):
            with pytest.raises(ValueError, match=re.escape(message)):
                convert(geometry4, lengths)

    def test_constant_offset_invisible_in_clarke(self, geometry4):
        rng = np.random.default_rng(17)
        lengths = 0.1 + rng.normal(scale=0.01, size=4)
        reference = np.asarray(clarke_from_lengths(geometry4, lengths))
        for c in (-1.0, 1e-3, 10.0):
            shifted = np.asarray(clarke_from_lengths(geometry4, lengths + c))
            np.testing.assert_allclose(
                shifted, reference, atol=1e-12 * max(1.0, np.max(np.abs(reference)))
            )


class TestFromClarke:
    def test_dian3_is_clarke(self, geometry3):
        pair = legacy_from_clarke(LegacyScheme.DIAN3, geometry3, (0.01, -0.02))
        assert pair.p1 == 0.01 and pair.p2 == -0.02

    def test_dellasantina4_is_clarke(self, geometry4):
        pair = legacy_from_clarke(LegacyScheme.DELLA_SANTINA4, geometry4, (0.003, 0.004))
        assert (pair.p1, pair.p2) == (0.003, 0.004)

    def test_allen4_scaling(self, geometry4):
        pair = legacy_from_clarke(LegacyScheme.ALLEN4, geometry4, (0.005, 0.0))
        assert_close([pair.p1, pair.p2], [0.0, 1.0])

    def test_allen3_scaling(self, geometry3):
        pair = legacy_from_clarke(LegacyScheme.ALLEN3, geometry3, (0.0, 0.01))
        assert_close([pair.p1, pair.p2], [-1.0, 0.0])

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_straight_configuration(self, scheme):
        pair = legacy_from_clarke(scheme, geometry_for(scheme), (0.0, 0.0))
        assert pair == LegacyPair(scheme, 0.0, 0.0)

    def test_scheme_geometry_mismatch(self, geometry4):
        with pytest.raises(SchemeMismatchError):
            legacy_from_clarke(LegacyScheme.DIAN3, geometry4, (0.0, 0.0))

    @pytest.mark.parametrize("clarke", [(1.0, 2.0, 3.0), (1.0,), 1.0, [[1.0, 2.0]]])
    def test_rejects_wrong_shape(self, geometry4, clarke):
        with pytest.raises(ValueError, match="expected 2 Clarke coordinates"):
            legacy_from_clarke(LegacyScheme.ALLEN4, geometry4, clarke)


    @pytest.mark.parametrize("scheme,clarke", [
        (LegacyScheme.ALLEN4, (math.nan, 0.0)), (LegacyScheme.DELLA_SANTINA4, (0.0, math.inf)),
        (LegacyScheme.ALLEN3, ClarkeCoords(-math.inf, 0.0)),
        (LegacyScheme.ALLEN4, (1e308, 0.0)),  # finite, but 2 * re / d overflows
    ])
    def test_rejects_non_finite(self, scheme, clarke):
        message = f"Clarke coordinates ({clarke[0]}, {clarke[1]}) give non-finite {scheme.value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            legacy_from_clarke(scheme, geometry_for(scheme), clarke)


class TestToClarke:
    def test_dellasantina4(self, geometry4):
        out = clarke_from_legacy(LegacyScheme.DELLA_SANTINA4, geometry4, (0.003, 0.004))
        assert out == ClarkeCoords(0.003, 0.004)

    def test_allen3_example(self, geometry3):
        out = clarke_from_legacy(LegacyScheme.ALLEN3, geometry3, (0.0, 2.0))
        assert_close(np.asarray(out), [0.02, 0.0])

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_zero(self, scheme):
        out = clarke_from_legacy(scheme, geometry_for(scheme), (0.0, 0.0))
        assert out == ClarkeCoords(0.0, 0.0)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_round_trip(self, scheme):
        geom = geometry_for(scheme)
        rng = np.random.default_rng(3)
        for _ in range(250):
            clarke = rng.normal(scale=0.02, size=2)
            pair = legacy_from_clarke(scheme, geom, clarke)
            assert_close(np.asarray(clarke_from_legacy(scheme, geom, pair)), clarke, rtol=1e-15)

    def test_rejects_mistagged_pair(self, geometry4):
        pair = LegacyPair(LegacyScheme.ALLEN4, 0.1, 0.2)
        with pytest.raises(SchemeMismatchError):
            clarke_from_legacy(LegacyScheme.DELLA_SANTINA4, geometry4, pair)

    @pytest.mark.parametrize("pair", [(1.0, 2.0, 3.0), (1.0,), 1.0, [[1.0, 2.0]]])
    def test_rejects_wrong_shape(self, geometry4, pair):
        with pytest.raises(ValueError, match="expected 2 allen4 parameters"):
            clarke_from_legacy(LegacyScheme.ALLEN4, geometry4, pair)


    @pytest.mark.parametrize("scheme,pair", [
        (LegacyScheme.ALLEN4, (math.nan, 0.0)), (LegacyScheme.DIAN3, (0.0, -math.inf)),
        (LegacyScheme.ALLEN4, LegacyPair(LegacyScheme.ALLEN4, math.inf, 0.0)),
    ])
    def test_rejects_non_finite(self, scheme, pair):
        message = f"{scheme.value} parameters ({pair[-2]}, {pair[-1]}) give non-finite Clarke"
        with pytest.raises(ValueError, match=re.escape(message)):
            clarke_from_legacy(scheme, geometry_for(scheme), pair)

    def test_rejects_overflow(self):
        # finite parameters whose Clarke coordinates p * d / k overflow
        geometry = RobotGeometry(n=4, d=1e10, l=0.1)
        with pytest.raises(ValueError, match=re.escape("allen4 parameters (0.0, 1e+300) give")):
            clarke_from_legacy(LegacyScheme.ALLEN4, geometry, (0.0, 1e300))


class TestFromDisplacements:
    def test_dian3_span_vector(self, geometry3):
        for c in (1.0, -0.37, 2e-3):
            pair = legacy_from_displacements(
                LegacyScheme.DIAN3, geometry3, c * np.array([1.0, -0.5, -0.5])
            )
            assert_close([pair.p1, pair.p2], [c, 0.0], rtol=1e-14)

    def test_dellasantina4_example(self, geometry4):
        pair = legacy_from_displacements(
            LegacyScheme.DELLA_SANTINA4, geometry4, [0.01, 0.0, -0.01, 0.0]
        )
        assert (pair.p1, pair.p2) == (0.01, 0.0)

    def test_allen3_zero(self, geometry3):
        pair = legacy_from_displacements(LegacyScheme.ALLEN3, geometry3, np.zeros(3))
        assert (pair.p1, pair.p2) == (0.0, 0.0)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_agrees_with_clarke_route(self, scheme):
        """Joint-value formulas and the Clarke route give the same pair.

        Up to d = 1e308 too, where sqrt(3) * d and 3 * d overflow; phi_max 0.4
        keeps the rows, and 2 * rho_1 - rho_2 - rho_3, finite there.
        """
        for d, phi_max in ((0.01, math.pi), (7e307, 0.4), (1e308, 0.4)):
            geom = RobotGeometry(n=scheme.n, d=d, l=0.1)
            rhos = sample(geom, phi_max=phi_max, count=1000, seed=2024)
            worst, scale = 0.0, 0.0
            for rho in rhos:
                direct = legacy_from_displacements(scheme, geom, rho)
                via = legacy_from_clarke(scheme, geom, forward_transform(geom, rho))
                worst = max(worst, abs(direct.p1 - via.p1), abs(direct.p2 - via.p2))
                scale = max(scale, abs(via.p1), abs(via.p2))
            assert worst <= 1e-12 * scale, d

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_offset_invariance_via_lengths(self, scheme):
        geom = geometry_for(scheme)
        rng = np.random.default_rng(31)
        lengths = geom.l + rng.normal(scale=0.01, size=geom.n)
        base = legacy_from_lengths(scheme, geom, lengths)
        for c in (-1.0, 1e-3, 10.0):
            shifted = legacy_from_lengths(scheme, geom, lengths + c)
            scale = max(1.0, abs(base.p1), abs(base.p2))
            assert abs(shifted.p1 - base.p1) <= 1e-12 * scale
            assert abs(shifted.p2 - base.p2) <= 1e-12 * scale

    @pytest.mark.parametrize("scheme,rho", [
        (LegacyScheme.ALLEN4, [math.inf, 0.0, 0.0, 0.0]), (LegacyScheme.DIAN3, [0.0, math.nan, 0.0]),
        (LegacyScheme.ALLEN3, [0.0, 0.0, -math.inf]),
        (LegacyScheme.ALLEN4, [1e308, 0.0, -1e308, 0.0]),  # finite, but the pair overflows
    ])
    def test_rejects_non_finite(self, scheme, rho):
        message = f"joint displacements {rho} give non-finite {scheme.value} parameters"
        with pytest.raises(ValueError, match=re.escape(message)):
            legacy_from_displacements(scheme, geometry_for(scheme), rho)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_python_floats_as_the_clarke_route(self, scheme):
        geom = geometry_for(scheme)
        rho = np.linspace(-0.01, 0.02, geom.n)
        pair = legacy_from_displacements(scheme, geom, rho)
        assert type(pair.p1) is float and type(pair.p2) is float
        assert (pair.p1, pair.p2) == tuple(
            legacy_from_displacements(scheme, geom, rho.tolist())[1:]
        )

    def test_allen4_is_scaled_dellasantina4(self, geometry4):
        rng = np.random.default_rng(8)
        d = geometry4.d
        for _ in range(100):
            rho = rng.normal(scale=0.01, size=4)
            ds = legacy_from_displacements(LegacyScheme.DELLA_SANTINA4, geometry4, rho)
            allen = legacy_from_displacements(LegacyScheme.ALLEN4, geometry4, rho)
            assert_close([allen.p1, allen.p2], [-2.0 * ds.p2 / d, 2.0 * ds.p1 / d])


class TestSchemeNames:
    @pytest.mark.parametrize(
        "name,scheme",
        [
            ("dian3", LegacyScheme.DIAN3),
            ("DellaSantina4", LegacyScheme.DELLA_SANTINA4),
            ("ALLEN3", LegacyScheme.ALLEN3),
            (" allen4 ", LegacyScheme.ALLEN4),
        ],
    )
    def test_case_insensitive_parse(self, name, scheme):
        assert LegacyScheme.from_name(name) is scheme

    def test_unknown_name(self):
        with pytest.raises(SchemeMismatchError):
            LegacyScheme.from_name("dian5")

    def test_expected_joint_counts(self):
        assert LegacyScheme.DIAN3.n == 3
        assert LegacyScheme.ALLEN3.n == 3
        assert LegacyScheme.DELLA_SANTINA4.n == 4
        assert LegacyScheme.ALLEN4.n == 4
