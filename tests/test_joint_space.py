import math
import re

import numpy as np
import pytest

from clarke_kinematics import (
    RobotGeometry,
    basis,
    contains,
    forward_transform,
    project,
    sample,
)
from conftest import assert_close


class TestBasis:
    def test_n4_values(self, geometry4):
        v1, v2 = basis(geometry4)
        np.testing.assert_allclose(v1, [1.0, 0.0, -1.0, 0.0], atol=3e-16)
        np.testing.assert_allclose(v2, [0.0, 1.0, 0.0, -1.0], atol=3e-16)

    def test_n3_cosines(self, geometry3):
        v1, _ = basis(geometry3)
        np.testing.assert_allclose(v1, [1.0, -0.5, -0.5], atol=3e-16)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_orthogonal_with_squared_norm_half_n(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        v1, v2 = basis(geom)
        assert abs(float(v1 @ v2)) < 1e-12
        assert abs(float(v1 @ v1) - n / 2.0) < 1e-12
        assert abs(float(v2 @ v2) - n / 2.0) < 1e-12


class TestContains:
    def test_span_vector_is_member(self, geometry4):
        assert contains(geometry4, [1.0, 0.0, -1.0, 0.0], tol=1e-9)

    def test_constant_vector_is_not(self, geometry3):
        assert not contains(geometry3, [1.0, 1.0, 1.0], tol=1e-9)

    def test_origin_is_member(self, geometry4):
        assert contains(geometry4, np.zeros(4))

    @pytest.mark.parametrize("rho", [[math.nan, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, -math.inf],
                                     [0.0, 0.0, 0.0, -math.inf]])
    def test_non_finite_vector_is_not(self, geometry4, rho):
        assert contains(geometry4, rho) is False

    def test_overflowing_residual_is_not_without_a_warning(self, geometry3):
        # finite entries whose projection overflows; no np.errstate, so a numpy
        # RuntimeWarning would fail the test
        assert contains(geometry3, [1.5e308, -1.5e308, -1.5e308]) is False
        assert contains(geometry3, [1e308, -5e307, -5e307]) is True

    def test_rejects_bad_tolerance(self, geometry4):
        for tol in (0.0, -1.0, math.nan, math.inf, True, "1e-9"):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                contains(geometry4, np.zeros(4), tol=tol)

    def test_length_mismatch(self, geometry4):
        with pytest.raises(ValueError):
            contains(geometry4, np.zeros(3))


class TestProject:
    def test_fixed_point_on_member(self, geometry4):
        rho = np.array([1.0, 0.0, -1.0, 0.0])
        assert_close(project(geometry4, rho), rho)

    def test_constant_vector_filtered(self, geometry3):
        np.testing.assert_allclose(
            project(geometry3, [5.0, 5.0, 5.0]), np.zeros(3), atol=1e-12
        )

    def test_one_hot_image(self, geometry3):
        assert_close(project(geometry3, [1.0, 0.0, 0.0]), [2 / 3, -1 / 3, -1 / 3])

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_idempotent(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        rng = np.random.default_rng(n)
        for _ in range(20):
            rho = rng.normal(size=n)
            once = project(geom, rho)
            assert_close(project(geom, once), once)

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_identity_on_span(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        v1, v2 = basis(geom)
        rng = np.random.default_rng(10 + n)
        for _ in range(20):
            a, b = rng.normal(size=2)
            rho = a * v1 + b * v2
            assert_close(project(geom, rho), rho)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_projection_invisible_to_forward(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        rng = np.random.default_rng(20 + n)
        for _ in range(20):
            rho = rng.normal(size=n)
            assert_close(
                np.asarray(forward_transform(geom, project(geom, rho))),
                np.asarray(forward_transform(geom, rho)),
            )

    def test_projected_vectors_satisfy_displacement_constraint(self, geometry4):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            rho = rng.normal(size=4)
            projected = project(geometry4, rho)
            bound = 4 * 1e-15 * max(float(np.max(np.abs(rho))), 1e-300)
            assert abs(float(np.sum(projected))) <= bound

    @pytest.mark.parametrize("rho", [[math.inf, 0.0, 0.0, 0.0], [0.0, 0.0, math.nan, 0.0]])
    def test_rejects_non_finite(self, geometry4, rho):
        with pytest.raises(ValueError, match=re.escape(f"joint displacements must be finite, got {rho}")):
            project(geometry4, rho)

    def test_rejects_overflow_without_a_warning(self, geometry3):
        message = "joint displacements [1.5e+308, -1.5e+308, -1.5e+308] give a non-finite projection"
        with pytest.raises(ValueError, match=re.escape(message)):
            project(geometry3, [1.5e308, -1.5e308, -1.5e308])
        assert_close(project(geometry3, [1e308, -5e307, -5e307]), [1e308, -5e307, -5e307])


class TestSample:
    def test_deterministic_for_fixed_seed(self, geometry4):
        a = sample(geometry4, math.pi, 100, seed=42)
        b = sample(geometry4, math.pi, 100, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, geometry4):
        a = sample(geometry4, math.pi, 10, seed=1)
        b = sample(geometry4, math.pi, 10, seed=2)
        assert np.max(np.abs(a - b)) > 0.0

    def test_all_samples_in_joint_space(self, geometry4):
        for rho in sample(geometry4, math.pi, 1000, seed=42):
            assert contains(geometry4, rho, tol=1e-9)

    def test_samples_satisfy_displacement_constraint(self, geometry4):
        rows = sample(geometry4, math.pi, 1000, seed=42)
        bound = 1e-12 * 4 * geometry4.d * math.pi
        assert np.max(np.abs(rows.sum(axis=1))) <= bound

    def test_samples_respect_disk_bound(self, geometry4):
        limit = geometry4.d * math.pi
        for rho in sample(geometry4, math.pi, 1000, seed=7):
            re, im = forward_transform(geometry4, rho)
            assert math.hypot(re, im) <= limit * (1.0 + 1e-12)

    def test_mean_converges_to_zero(self, geometry4):
        rows = sample(geometry4, math.pi, 100_000, seed=11)
        # uniform disk of radius R: per-joint variance R^2/4
        sigma_mean = geometry4.d * math.pi / 2.0 / math.sqrt(rows.shape[0])
        assert np.max(np.abs(rows.mean(axis=0))) <= 3.0 * sigma_mean

    def test_overflowing_draw_raises_without_a_warning(self):
        geometry = RobotGeometry(n=4, d=1000.0, l=0.1)
        message = "phi_max 1e+306 at d 1000.0 gives non-finite joint displacements"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample(geometry, 1e306, 5, seed=1)  # RuntimeWarning is an error in this suite
        rows = sample(geometry, 1e305, 5, seed=1)
        assert np.isfinite(rows).all() and np.abs(rows).max() > 5e307

    def test_rejects_bad_arguments(self, geometry4):
        with pytest.raises(ValueError):
            sample(geometry4, 0.0, 10, seed=1)
        for phi_max in (math.inf, math.nan, True, "1"):
            with pytest.raises(ValueError):
                sample(geometry4, phi_max, 10, seed=1)
        with pytest.raises(ValueError):
            sample(geometry4, math.pi, 0, seed=1)
