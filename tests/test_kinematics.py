import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarke_kinematics import (
    ArcParams,
    Pose,
    RegularizationConfig,
    RobotGeometry,
    SingularityStrategy,
    StraightConfigurationError,
    arc_from_clarke,
    clarke_from_arc,
    forward_kinematics,
    forward_kinematics_rows,
    forward_transform,
    inverse_transform,
    regularized_magnitude,
    sample,
)
from clarke_kinematics import kinematics

ALL_STRATEGIES = list(SingularityStrategy)


def arc_tip_oracle(l, theta, phi, steps=10_000):
    """Independent tip position: composite Simpson over the arc's unit tangent.

    The backbone tangent at arc length s is (sin(kappa*s), 0, cos(kappa*s))
    in the bending plane; integrating it yields the tip with no divisions,
    so the oracle is well defined for any phi >= 0.
    """
    kappa = phi / l
    s = np.linspace(0.0, l, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = l / steps
    x_plane = h / 3.0 * float(weights @ np.sin(kappa * s))
    z = h / 3.0 * float(weights @ np.cos(kappa * s))
    return np.array([x_plane * math.cos(theta), x_plane * math.sin(theta), z])


def rotation_z(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestArcParams:
    def test_rejects_negative_bending(self):
        with pytest.raises(ValueError):
            ArcParams(theta=0.0, phi=-0.1)

    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi),
         (2 * math.pi, 0.0), (-0.25, -0.25)],
    )
    def test_theta_normalized_into_half_open_range(self, raw, expected):
        arc = ArcParams(theta=raw, phi=1.0)
        assert arc.theta == pytest.approx(expected, abs=1e-12)
        assert -math.pi < arc.theta <= math.pi

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_theta(self, theta):
        message = f"bending-plane angle theta must be a finite real number, got {theta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ArcParams(theta=theta, phi=1.0)

    def test_full_circle_flag(self):
        assert not ArcParams(theta=0.0, phi=2 * math.pi).full_circle
        assert ArcParams(theta=0.0, phi=2 * math.pi + 0.1).full_circle


class TestArcFromClarke:
    def test_straight_convention(self, geometry4):
        arc = arc_from_clarke(geometry4, (0.0, 0.0))
        assert (arc.theta, arc.phi, arc.kappa) == (0.0, 0.0, 0.0)

    def test_quarter_bend(self, geometry4):
        arc = arc_from_clarke(geometry4, (geometry4.d * math.pi / 2.0, 0.0))
        assert arc.theta == 0.0
        assert arc.phi == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert arc.kappa == pytest.approx(arc.phi / geometry4.l, rel=1e-15)

    def test_plane_angle_from_atan2(self, geometry4):
        arc = arc_from_clarke(geometry4, (0.0, geometry4.d * 1.0))
        assert arc.theta == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert arc.phi == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("clarke", [(math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf),
                                        (math.inf, math.nan), (1e307, 0.0)])  # the last: phi overflows
    def test_rejects_non_finite(self, geometry4, clarke):
        message = f"Clarke coordinates ({clarke[0]}, {clarke[1]}) give a non-finite arc"
        with pytest.raises(ValueError, match=re.escape(message)):
            arc_from_clarke(geometry4, clarke)

    def test_phi_is_the_one_forward_kinematics_evaluates(self):
        """phi = hypot(re / d, im / d), which stays finite where hypot(re, im) overflows."""
        rng = np.random.default_rng(31)
        for d in (0.01, 1.3, 1e300):
            geometry = RobotGeometry(n=4, d=d, l=0.1)
            for re, im in rng.normal(size=(200, 2)) * d * 10.0 ** rng.uniform(-8, 1, (200, 1)):
                assert arc_from_clarke(geometry, (re, im)).phi == math.hypot(re / d, im / d)
        arc = arc_from_clarke(RobotGeometry(n=4, d=1e300, l=0.1), (1.5e308, 1.5e308))
        assert arc.phi == 2.1213203435596424e8

    def test_rejects_overflowing_curvature(self):
        # phi = 1e10 is finite, kappa = phi / l is not
        with pytest.raises(ValueError, match=re.escape("phi 10000000000.0, kappa inf")):
            arc_from_clarke(RobotGeometry(n=4, d=0.01, l=1e-300), (1e8, 0.0))


class TestClarkeFromArc:
    def test_straight(self, geometry4):
        assert clarke_from_arc(geometry4, ArcParams(0.0, 0.0)) == (0.0, 0.0)

    def test_opposite_plane(self, geometry4):
        out = clarke_from_arc(geometry4, ArcParams(theta=math.pi, phi=2.0))
        np.testing.assert_allclose(out, [-0.02, 0.0], atol=1e-17)

    def test_round_trip_for_positive_bending(self, geometry4):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            theta = rng.uniform(-math.pi, math.pi)
            phi = rng.uniform(1e-6, 2 * math.pi)
            arc = ArcParams(theta=theta, phi=phi)
            back = arc_from_clarke(geometry4, clarke_from_arc(geometry4, arc))
            assert back.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
            assert back.phi == pytest.approx(phi, rel=1e-12)

    def test_rejects_non_finite(self, geometry4):
        arc = ArcParams(0.0, math.inf)  # a NaN theta is refused by ArcParams itself
        message = f"arc (theta {arc.theta}, phi {arc.phi}) gives non-finite Clarke coordinates"
        with pytest.raises(ValueError, match=re.escape(message)):
            clarke_from_arc(geometry4, arc)

    def test_answers_where_d_phi_overflows_but_the_coordinates_do_not(self):
        clarke = clarke_from_arc(RobotGeometry(n=4, d=1e300, l=0.1),
                                 ArcParams(theta=math.pi / 3, phi=2e8))
        np.testing.assert_allclose(clarke, [1e308, math.sqrt(3.0) * 1e308], rtol=4e-16)

    def test_rejects_overflow(self):
        # d * phi overflows although both are finite
        with pytest.raises(ValueError, match=re.escape("(theta 0.0, phi 1e+308) gives non-finite")):
            clarke_from_arc(RobotGeometry(n=4, d=10.0, l=0.1), ArcParams(0.0, 1e308))


class TestRegularizationConfig:
    def test_validation(self, geometry4):
        with pytest.raises(ValueError):
            RegularizationConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            RegularizationConfig(epsilon=1e-9, b=0.0)
        with pytest.raises(ValueError):
            RegularizationConfig(epsilon=1e-9, decay="linear")
        for bad in ({"epsilon": math.inf}, {"a": math.nan}, {"b": math.inf},
                    {"epsilon": True}, {"epsilon": "1e-9"}, {"b": True}):
            with pytest.raises(ValueError):
                RegularizationConfig(**{"epsilon": 1e-9, **bad})
        for a in (True, "0", 10**400, math.inf):
            with pytest.raises(ValueError, match=f"^a must be a finite real number, got {a!r}$"):
                RegularizationConfig(epsilon=1e-9, a=a)
        with pytest.raises(ValueError, match="epsilon must be positive and finite, got inf"):
            RegularizationConfig.default(geometry4, epsilon=math.inf)
        for eps in (True, "1e-9"):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                RegularizationConfig.default(geometry4, epsilon=eps)
        # ln 2/(epsilon * d) overflows or underflows to 0: name epsilon and d, not b
        for geometry, eps in ((geometry4, 5e-324), (geometry4, 1e-310),
                              (RobotGeometry(n=4, d=1e-300, l=0.1), None),
                              (RobotGeometry(n=4, d=1e-320, l=0.1), None),
                              (RobotGeometry(n=4, d=1e160, l=0.1), None),
                              (RobotGeometry(n=4, d=10.0, l=0.1), 1e308)):
            with pytest.raises(ValueError, match=r"epsilon \* d = .* is out of range"):
                RegularizationConfig.default(geometry, epsilon=eps)

    def test_default_built_once_per_geometry(self):
        # a d no other test uses, so that the shared cache has not seen it
        geometry = RobotGeometry(n=4, d=0.0271828, l=0.1)
        before = kinematics._default_config.cache_info().misses
        for strategy in ALL_STRATEGIES:
            forward_kinematics(geometry, [1e-3, 0.0], strategy)
            kinematics.forward_kinematics_rows(geometry, [[1e-3, 0.0]], strategy)
        assert kinematics._default_config.cache_info().misses == before + 1
        # another geometry of the same d shares the config
        other = RobotGeometry(n=7, d=0.0271828, l=2.0)
        forward_kinematics(other, [1e-3, 0.0])
        kinematics.forward_kinematics_rows(other, [[1e-3, 0.0]])
        assert kinematics._default_config.cache_info().misses == before + 1

    def test_default_cache_keeps_no_geometry_alive(self):
        refs = []
        for i in range(8):
            geometry = RobotGeometry(n=64, d=0.01 * (i + 1), l=0.1)
            geometry.projection
            forward_kinematics(geometry, [1e-3, 0.0])
            kinematics.forward_kinematics_rows(geometry, [[1e-3, 0.0]])
            refs.append(weakref.ref(geometry))
        del geometry
        gc.collect()
        assert [r() for r in refs] == [None] * 8

    @pytest.mark.parametrize("d", [0.01, 1, 3e-7, 2.5e150, 1e-100])
    def test_cached_default_is_the_geometrys_default(self, d):
        geometry = RobotGeometry(n=5, d=d, l=0.1)
        cached = kinematics._default_config(geometry.d)
        assert cached == RegularizationConfig.default(geometry)
        assert [type(v) for v in vars(cached).values()] == [float, float, float, str]

    def test_defaults_scale_with_geometry(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        assert cfg.epsilon == pytest.approx(1e-9 * geometry4.d, rel=1e-15)
        # additive term halves once rho^T rho reaches epsilon*d
        half = cfg.decay_value(cfg.a + cfg.b * cfg.epsilon * geometry4.d)
        assert half == pytest.approx(0.5, rel=1e-12)


class TestRegularizedMagnitude:
    def test_zero_displacement_gives_epsilon(self, geometry4):
        cfg = RegularizationConfig(epsilon=1e-6, a=0.0, b=1.0)
        assert regularized_magnitude(geometry4, np.zeros(4), cfg) == 1e-6

    def test_strictly_positive_everywhere(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        rng = np.random.default_rng(4)
        assert regularized_magnitude(geometry4, np.zeros(4), cfg) > 0.0
        for _ in range(100):
            rho = rng.normal(scale=0.01, size=4)
            assert regularized_magnitude(geometry4, rho, cfg) > 0.0

    def test_additive_term_vanishes_for_large_displacements(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        target = 1e6 * cfg.epsilon
        rho = inverse_transform(geometry4, (math.sqrt(target / 2.0), 0.0))
        base = math.sqrt(2.0 * float(rho @ rho) / 4.0)
        reg = regularized_magnitude(geometry4, rho, cfg)
        assert reg - base <= cfg.epsilon * cfg.decay_value(cfg.b * target) + 1e-30

    def test_matches_clarke_norm_on_joint_space(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        for rho in sample(geometry4, math.pi, 200, seed=6):
            base = math.sqrt(2.0 * float(rho @ rho) / geometry4.n)
            clarke_norm = float(np.hypot(*forward_transform(geometry4, rho)))
            assert base == pytest.approx(clarke_norm, rel=1e-12)
            reg = regularized_magnitude(geometry4, rho, cfg)
            assert reg >= base

    @pytest.mark.parametrize("n", [3, 4, 5, 12])
    def test_adaptive_epsilon_within_4_ulp_of_rho_route(self, n, monkeypatch):
        """forward_kinematics' rho^T rho = (n/2)|clarke|^2 against building rho."""
        geometry = RobotGeometry(n=n, d=0.01, l=0.1)
        cfg = RegularizationConfig.default(geometry)
        rng = np.random.default_rng(n)
        phi = np.concatenate(
            [rng.uniform(0.0, math.pi, 500), 10.0 ** rng.uniform(-12.0, -4.0, 500), [0.0]]
        )
        theta = rng.uniform(-math.pi, math.pi, phi.size)
        clarke = geometry.d * phi[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        via_rho = [regularized_magnitude(geometry, inverse_transform(geometry, c), cfg)
                   for c in clarke]
        closed = []
        norm = kinematics._regularized_norm
        monkeypatch.setattr(kinematics, "_regularized_norm",
                            lambda *args: closed.append(norm(*args)) or closed[-1])
        for c in clarke:
            forward_kinematics(geometry, c, SingularityStrategy.ADAPTIVE_EPSILON, cfg)
        assert len(closed) == len(via_rho)
        for got, want in zip(closed, via_rho):
            assert abs(got - want) <= 4.0 * 2.0**-52 * want

    @pytest.mark.parametrize("rho", [[math.inf, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0, 0.0]])
    def test_rejects_non_finite(self, geometry4, rho):
        cfg = RegularizationConfig.default(geometry4)
        with pytest.raises(ValueError, match=re.escape(f"joint displacements must be finite, got {rho}")):
            regularized_magnitude(geometry4, rho, cfg)

    @pytest.mark.parametrize("rho,cfg", [
        ([1e300, 0.0, 0.0, 0.0], RegularizationConfig(epsilon=1e-9)),  # rho^T rho overflows
        ([0.0, 0.0, 0.0, 0.0], RegularizationConfig(epsilon=1e-9, a=-800.0)),  # exp(800) does
    ])
    def test_rejects_overflow(self, geometry4, rho, cfg):
        message = f"joint displacements {rho} give a non-finite regularized magnitude inf"
        with pytest.raises(ValueError, match=re.escape(message)):
            regularized_magnitude(geometry4, rho, cfg)

    def test_mirrored_logistic_floor(self, geometry4):
        cfg = RegularizationConfig(epsilon=1e-6, a=0.0, b=1.0, decay="mirrored_logistic")
        assert regularized_magnitude(geometry4, np.zeros(4), cfg) == 1e-6

    @pytest.mark.parametrize("decay", ["exponential", "mirrored_logistic"])
    def test_decay_is_smooth(self, geometry4, decay):
        """Central differences match the analytic derivative of f."""
        cfg = RegularizationConfig.default(geometry4)
        cfg = RegularizationConfig(epsilon=cfg.epsilon, a=cfg.a, b=cfg.b, decay=decay)
        h = 1e-3
        for ss in (0.0, cfg.epsilon, 10.0 * cfg.epsilon):
            t = cfg.a + cfg.b * ss
            numeric = (cfg.decay_value(t + h) - cfg.decay_value(t - h)) / (2.0 * h)
            if decay == "exponential":
                analytic = -math.exp(-t)
            else:
                analytic = -2.0 * math.exp(-t) / (1.0 + math.exp(-t)) ** 2
            assert numeric == pytest.approx(analytic, rel=1e-6)


class TestForwardKinematics:
    def test_straight_configuration(self, geometry4):
        pose = forward_kinematics(geometry4, (0.0, 0.0))
        np.testing.assert_array_equal(pose.position, [0.0, 0.0, geometry4.l])
        np.testing.assert_array_equal(pose.rotation, np.eye(3))

    def test_quarter_arc_in_plane(self, geometry4):
        clarke = (geometry4.d * math.pi / 2.0, 0.0)
        pose = forward_kinematics(geometry4, clarke)
        r = 2.0 * geometry4.l / math.pi
        np.testing.assert_allclose(pose.position, [r, 0.0, r], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            pose.position, arc_tip_oracle(geometry4.l, 0.0, math.pi / 2.0), atol=1e-9
        )

    def test_quarter_arc_rotated_plane(self, geometry4):
        clarke = (0.0, geometry4.d * math.pi / 2.0)
        pose = forward_kinematics(geometry4, clarke)
        r = 2.0 * geometry4.l / math.pi
        np.testing.assert_allclose(pose.position, [0.0, r, r], rtol=1e-12, atol=1e-15)

    def test_against_integration_oracle(self, geometry4):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi)
            phi = rng.uniform(0.1, math.pi)
            clarke = clarke_from_arc(geometry4, ArcParams(theta=theta, phi=phi))
            pose = forward_kinematics(geometry4, clarke)
            expected = arc_tip_oracle(geometry4.l, theta, phi)
            assert float(np.max(np.abs(pose.position - expected))) <= 1e-6 * geometry4.l

    def test_straight_limit(self, geometry4):
        """Approach to the straight pose: the chord length matches the arc
        length to second order in phi; the full deviation is first order."""
        l = geometry4.l
        straight = np.array([0.0, 0.0, l])
        for k in range(3, 13):
            phi = 10.0 ** -k
            pose = forward_kinematics(
                geometry4, (geometry4.d * phi, 0.0), SingularityStrategy.ANALYTIC_BRANCH
            )
            p = pose.position
            assert abs(float(np.linalg.norm(p)) - l) < l * phi * phi
            assert abs(p[2] - l) < l * phi * phi
            assert float(np.linalg.norm(p - straight)) <= 0.51 * l * phi

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_strategies_agree_away_from_singularity(self, geometry4, strategy):
        cfg = RegularizationConfig.default(geometry4)
        rng = np.random.default_rng(55)
        phis = np.concatenate(
            [10.0 ** rng.uniform(math.log10(1e3 * cfg.epsilon), 0.0, 100), [math.pi]]
        )
        for phi in phis:
            theta = rng.uniform(-math.pi, math.pi)
            clarke = clarke_from_arc(geometry4, ArcParams(theta=theta, phi=float(phi)))
            reference = forward_kinematics(
                geometry4, clarke, SingularityStrategy.ANALYTIC_BRANCH, cfg
            )
            pose = forward_kinematics(geometry4, clarke, strategy, cfg)
            assert (
                float(np.max(np.abs(pose.position - reference.position)))
                <= 1e-9 * geometry4.l
            )

    @pytest.mark.parametrize(
        "strategy",
        [
            SingularityStrategy.ANALYTIC_BRANCH,
            SingularityStrategy.ADAPTIVE_EPSILON,
            SingularityStrategy.LINEARIZE_NEAR_ZERO,
            SingularityStrategy.ADD_EPSILON,
        ],
    )
    def test_no_jump_crossing_the_straight_configuration(self, geometry4, strategy):
        cfg = RegularizationConfig.default(geometry4)
        ts = np.linspace(-10.0 * cfg.epsilon, 10.0 * cfg.epsilon, 1000)
        positions = np.array(
            [forward_kinematics(geometry4, (t, 0.0), strategy, cfg).position for t in ts]
        )
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert float(steps.max()) < 10.0 * float(np.median(steps))

    def test_linearize_seam_is_continuous(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        lo = forward_kinematics(
            geometry4,
            (0.999 * cfg.epsilon * geometry4.d, 0.0),
            SingularityStrategy.LINEARIZE_NEAR_ZERO,
            cfg,
        )
        hi = forward_kinematics(
            geometry4,
            (1.001 * cfg.epsilon * geometry4.d, 0.0),
            SingularityStrategy.LINEARIZE_NEAR_ZERO,
            cfg,
        )
        assert float(np.max(np.abs(hi.position - lo.position))) < 1e-12 * geometry4.l

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_rotation_is_special_orthogonal(self, geometry4, strategy):
        cfg = RegularizationConfig.default(geometry4)
        rng = np.random.default_rng(808)
        # [1e-3, pi], then 0, the straight regime, the series band and past a full circle
        phis = np.concatenate([
            10.0 ** rng.uniform(-3.0, math.log10(math.pi), 1000),
            [0.0], rng.uniform(0.0, cfg.epsilon, 100), rng.uniform(0.0, 1e-4, 100),
            rng.uniform(0.0, 2.0 * math.pi + 0.5, 300),
        ])
        if strategy is SingularityStrategy.AVOID_STRAIGHT:
            phis = phis[phis >= cfg.epsilon]
        for phi in phis:
            theta = rng.uniform(-math.pi, math.pi)
            clarke = clarke_from_arc(geometry4, ArcParams(theta=theta, phi=float(phi)))
            rot = forward_kinematics(geometry4, clarke, strategy, cfg).rotation
            assert float(np.max(np.abs(rot.T @ rot - np.eye(3)))) < 1e-9
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_plane_angle_equivariance(self, geometry4):
        rng = np.random.default_rng(414)
        for _ in range(100):
            clarke = rng.normal(scale=0.01, size=2)
            alpha = rng.uniform(-math.pi, math.pi)
            rotated_clarke = rotation_z(alpha)[:2, :2] @ clarke
            base = forward_kinematics(geometry4, clarke).position
            rotated = forward_kinematics(geometry4, rotated_clarke).position
            np.testing.assert_allclose(
                rotated, rotation_z(alpha) @ base, atol=1e-9 * geometry4.l
            )

    def test_avoid_straight_refuses_near_zero(self, geometry4):
        cfg = RegularizationConfig.default(geometry4)
        with pytest.raises(StraightConfigurationError):
            forward_kinematics(
                geometry4, (0.0, 0.0), SingularityStrategy.AVOID_STRAIGHT, cfg
            )
        # at or above the threshold it computes normally
        clarke = clarke_from_arc(geometry4, ArcParams(0.0, cfg.epsilon))
        pose = forward_kinematics(
            geometry4, clarke, SingularityStrategy.AVOID_STRAIGHT, cfg
        )
        assert np.all(np.isfinite(pose.position))

    def test_rejects_wrong_shape(self, geometry4):
        with pytest.raises(ValueError, match="expected 2 Clarke coordinates"):
            forward_kinematics(geometry4, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="expected 2 Clarke coordinates"):
            arc_from_clarke(geometry4, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("clarke", [(math.nan, 0.0), (0.0, math.inf), (1e308, 1e308)])
    def test_rejects_non_finite_bending_angle(self, geometry4, strategy, clarke):
        with pytest.raises(ValueError, match="bending angle .* is not finite"):
            forward_kinematics(geometry4, clarke, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_rejects_a_non_finite_pose_of_a_finite_angle(self, geometry4, strategy):
        """From |clarke / d| = 1.34e154 on, u * u overflows and a pose term is NaN.

        The row form gives that non-finite row; the scalar form must raise.
        adaptive-epsilon's angle overflows first, which it names instead.
        """
        for clarke in [(1e160, 0.0), (0.0, -1e160), (1e155, 1e155)]:
            with pytest.raises(ValueError, match=re.escape(f"({clarke[0]}, {clarke[1]})")):
                forward_kinematics(geometry4, clarke, strategy)
            row = kinematics.forward_kinematics_rows(geometry4, [clarke], strategy)[0]
            assert not np.isfinite(row).all()
        # just below the overflow the pose is finite and equal to its row, bit for bit
        pose = forward_kinematics(geometry4, (1.34e152, 0.0), strategy)
        terms = np.concatenate([pose.position, pose.rotation.ravel()])
        assert np.isfinite(terms).all()
        row = kinematics.forward_kinematics_rows(geometry4, [(1.34e152, 0.0)], strategy)[0]
        assert terms.tobytes() == row.tobytes()

    def test_linearize_rejects_an_overflowing_position(self):
        """linearize-near-zero takes g2 = 1/2 below epsilon, so l * u / 2 can overflow."""
        geometry = RobotGeometry(n=4, d=1e20, l=1e300)  # epsilon = 1e11 by default
        strategy = SingularityStrategy.LINEARIZE_NEAR_ZERO
        with pytest.raises(ValueError, match=re.escape("(1e+30, 0.0) give a non-finite pose")):
            forward_kinematics(geometry, (1e30, 0.0), strategy)
        row = kinematics.forward_kinematics_rows(geometry, [(1e30, 0.0)], strategy)[0]
        assert not np.isfinite(row).all()

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_pose_is_read_only_views_of_one_array(self, geometry4, strategy):
        cfg = RegularizationConfig.default(geometry4)
        rng = np.random.default_rng(909)
        # 0, the straight regime, the series band and bends past a full circle
        phis = np.concatenate([[0.0], rng.uniform(0.0, cfg.epsilon, 20),
                               rng.uniform(0.0, 1e-4, 20), rng.uniform(0.0, 2.0 * math.pi + 0.5, 60)])
        if strategy is SingularityStrategy.AVOID_STRAIGHT:
            phis = phis[phis >= cfg.epsilon]
        for phi in phis:
            clarke = clarke_from_arc(geometry4, ArcParams(rng.uniform(-math.pi, math.pi), float(phi)))
            pose = forward_kinematics(geometry4, clarke, strategy, cfg)
            assert pose.position.shape == (3,) and pose.rotation.shape == (3, 3)
            assert pose.position.base is pose.rotation.base
            assert not pose.position.flags.writeable and not pose.rotation.flags.writeable
            with pytest.raises(ValueError):
                pose.position[0] = 1.0
            # the construction through the validating Pose(...) of the same 12 terms
            terms = kinematics.forward_kinematics_rows(geometry4, [clarke], strategy, cfg)[0]
            built = Pose(position=np.array(terms[:3].tolist()),
                         rotation=np.array(terms[3:].tolist()).reshape(3, 3))
            assert pose.position.tobytes() == built.position.tobytes()
            assert pose.rotation.tobytes() == built.rotation.tobytes()

    def test_strategy_names_parse(self):
        assert SingularityStrategy.from_name("Analytic-Branch") is (
            SingularityStrategy.ANALYTIC_BRANCH
        )
        with pytest.raises(ValueError):
            SingularityStrategy.from_name("pray")


class TestPose:
    def test_compose_two_straight_segments(self, geometry4):
        pose = forward_kinematics(geometry4, (0.0, 0.0))
        total = pose.compose(pose)
        np.testing.assert_allclose(total.position, [0.0, 0.0, 2 * geometry4.l])
        np.testing.assert_allclose(total.rotation, np.eye(3))

    def test_compose_two_quarter_arcs_makes_half_circle(self, geometry4):
        clarke = (geometry4.d * math.pi / 2.0, 0.0)
        pose = forward_kinematics(geometry4, clarke)
        total = pose.compose(pose)
        r = 2.0 * geometry4.l / math.pi
        np.testing.assert_allclose(total.position, [2 * r, 0.0, 0.0], atol=1e-15)

    def test_identity(self):
        pose = Pose.identity()
        np.testing.assert_array_equal(pose.position, np.zeros(3))
        np.testing.assert_array_equal(pose.rotation, np.eye(3))

    def test_copies_the_callers_arrays(self):
        p, r = np.zeros(3), np.eye(3)
        pose = Pose(position=p, rotation=r)
        assert pose.position is not p and pose.rotation is not r
        assert p.flags.writeable and r.flags.writeable
        p[0], r[0, 0] = 1.0, 2.0
        assert pose.position[0] == 0.0 and pose.rotation[0, 0] == 1.0
        assert not (pose.position.flags.writeable or pose.rotation.flags.writeable)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pose(position=np.zeros(2), rotation=np.eye(3))


# r21 = r12, r31 = -r13 and r32 = -r23 in the 12 pose columns x, y, z, r11, ..., r33
POSE_REPEATS = {"r21": ("r12", False), "r31": ("r13", True), "r32": ("r23", True)}
POSE_COLUMNS = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
_SIGN_BIT = np.uint64(1 << 63)


def _assert_repeats_bitwise(poses):
    bits = np.ascontiguousarray(poses).view(np.uint64)
    for name, (source, negated) in POSE_REPEATS.items():
        want = bits[:, POSE_COLUMNS.index(source)] ^ (_SIGN_BIT if negated else np.uint64(0))
        np.testing.assert_array_equal(bits[:, POSE_COLUMNS.index(name)], want, err_msg=name)


def test_the_declared_pose_repeats_are_the_rotations_symmetries():
    declared = {POSE_COLUMNS[c]: (POSE_COLUMNS[s], n) for c, s, n in kinematics._POSE_REPEATS}
    assert declared == POSE_REPEATS


_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310]),
    st.tuples(st.floats(-320.0, 308.0), st.sampled_from([1.0, -1.0])).map(
        lambda e: e[1] * 10.0 ** e[0]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ALL_STRATEGIES),
    st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
    st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=12),
)
def test_pose_repeats_hold_bit_for_bit(strategy, d, rows):
    """The repeats hold on every finite pose, scalar and row form, at any scale."""
    geometry = RobotGeometry(n=4, d=d, l=0.1)
    posed = []
    for row in rows:
        try:
            pose = forward_kinematics(geometry, row, strategy)
        except ValueError:  # straight under avoid-straight, or a pose that overflows
            continue
        _assert_repeats_bitwise(np.concatenate([pose.position, pose.rotation.ravel()])[None])
        posed.append(row)
    if posed:
        poses = forward_kinematics_rows(geometry, posed, strategy)
        _assert_repeats_bitwise(poses[np.isfinite(poses).all(axis=1)])
