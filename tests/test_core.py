import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clarke_kinematics import (
    ClarkeCoords,
    GeometryError,
    NonSymmetricJointsError,
    RobotGeometry,
    build_clarke_matrix,
    forward_transform,
    forward_transform_rows,
    generic_clarke_matrix,
    inverse_transform,
    projector,
    symmetric_joint_angles,
)
from clarke_kinematics.core import MAX_JOINTS, as_pair, as_vector
from conftest import assert_close

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def matmul_oracle(matrix, vector):
    """Independent matrix-vector product: plain accumulation, no numpy."""
    return [
        sum(matrix[i][j] * vector[j] for j in range(len(vector)))
        for i in range(len(matrix))
    ]


class TestGenericClarkeMatrix:
    def test_amplitude_invariant_example(self):
        m = generic_clarke_matrix(2.0 / 3.0, 0.5)
        expected = [1.0, 1.0 / math.sqrt(3.0), 0.0]
        assert_close(m @ [1.0, 0.0, -1.0], expected)
        assert_close(matmul_oracle(m.tolist(), [1.0, 0.0, -1.0]), expected)

    def test_power_invariant_is_orthogonal(self):
        m = generic_clarke_matrix(math.sqrt(2.0 / 3.0), math.sqrt(2.0) / 2.0)
        gram = [matmul_oracle(m.T.tolist(), col) for col in m.T.tolist()]
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    @given(k0=finite_floats, k1=finite_floats, c=finite_floats)
    def test_constant_vector_maps_to_third_axis(self, k0, k1, c):
        out = generic_clarke_matrix(k0, k1) @ [c, c, c]
        # roundoff in the cancelling rows scales with |k0*c|
        scale = 1.0 + abs(k0) * (1.0 + abs(k1)) * abs(c)
        np.testing.assert_allclose(out, [0.0, 0.0, 3.0 * k0 * k1 * c], atol=1e-12 * scale)


class TestGeometry:
    def test_rejects_fewer_than_three_joints(self):
        with pytest.raises(GeometryError):
            RobotGeometry(n=2, d=0.01, l=0.1)

    @pytest.mark.parametrize("d,l", [(0.0, 0.1), (-0.01, 0.1), (0.01, 0.0), (0.01, -1.0),
                                     ("0.01", 0.1), (0.01, "0.1"), (math.inf, 0.1),
                                     (0.01, math.nan), (True, 0.1), (0.01, True),
                                     (10**400, 0.1)])
    def test_rejects_nonpositive_dimensions(self, d, l):
        with pytest.raises(GeometryError):
            RobotGeometry(n=4, d=d, l=l)

    @pytest.mark.parametrize("n", [MAX_JOINTS + 1, 10**9, 10**20])
    def test_rejects_more_than_max_joints(self, n):
        # refused before psi is built, so none of these allocates anything
        with pytest.raises(GeometryError, match=f"at most 1024 joints supported, got n={n}$"):
            RobotGeometry(n=n, d=0.01, l=0.1)
        assert RobotGeometry(n=MAX_JOINTS, d=0.01, l=0.1).psi.shape == (1024,)

    def test_rejects_non_integer_count(self):
        with pytest.raises(GeometryError):
            RobotGeometry(n=4.0, d=0.01, l=0.1)

    def test_accepts_explicit_symmetric_angles(self):
        geom = RobotGeometry(n=5, d=0.01, l=0.1, psi=symmetric_joint_angles(5))
        assert geom.n == 5

    def test_rejects_perturbed_angles(self):
        psi = symmetric_joint_angles(4)
        psi = psi + np.array([0.0, 1e-6, 0.0, 0.0])
        with pytest.raises(NonSymmetricJointsError):
            RobotGeometry(n=4, d=0.01, l=0.1, psi=psi)

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(NonSymmetricJointsError):
            RobotGeometry(n=4, d=0.01, l=0.1, psi=symmetric_joint_angles(3))

    def test_cached_matrices_are_readonly(self, geometry4):
        mat = build_clarke_matrix(geometry4)
        with pytest.raises(ValueError):
            mat.forward[0, 0] = 1.0
        assert build_clarke_matrix(geometry4) is mat


class TestBuildClarkeMatrix:
    def test_n3_matches_generic_upper_block(self, geometry3):
        generic = generic_clarke_matrix(2.0 / 3.0, 0.5)
        np.testing.assert_allclose(
            build_clarke_matrix(geometry3).forward, generic[:2, :], atol=3e-16
        )

    def test_n4_forward_values(self, geometry4):
        expected = 0.5 * np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        np.testing.assert_allclose(
            build_clarke_matrix(geometry4).forward, expected, atol=3e-16
        )

    def test_n4_right_inverse_rows(self, geometry4):
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(
            build_clarke_matrix(geometry4).right_inverse, expected, atol=3e-16
        )

    @pytest.mark.parametrize("n", range(3, 17))
    def test_matrix_invariants(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        mat = build_clarke_matrix(geom)
        np.testing.assert_allclose(mat.forward @ mat.right_inverse, np.eye(2), atol=1e-12)
        # the right inverse is (n/2) * forward^T by construction, bit-exact
        np.testing.assert_array_equal(mat.right_inverse, (n / 2.0) * mat.forward.T)
        assert np.max(np.abs(mat.forward)) <= 2.0 / n
        assert np.max(np.abs(mat.right_inverse)) <= 1.0

    @pytest.mark.parametrize("n", range(3, 17))
    def test_right_inverse_is_not_left_inverse(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        mat = build_clarke_matrix(geom)
        product = mat.right_inverse @ mat.forward
        assert np.max(np.abs(product - np.eye(n))) > 0.1
        singular_values = np.linalg.svd(product, compute_uv=False)
        assert int(np.count_nonzero(singular_values > 1e-9)) == 2


class TestForwardTransform:
    def test_n4_example(self, geometry4):
        out = forward_transform(geometry4, [1.0, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    @pytest.mark.parametrize("c", [-2.5, 1e-3, 42.0])
    def test_constant_vectors_filtered(self, n, c):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        out = forward_transform(geom, np.full(n, c))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12 * max(1.0, abs(c)))

    def test_zero_maps_to_zero(self, geometry3):
        assert forward_transform(geometry3, np.zeros(3)) == (0.0, 0.0)

    def test_length_mismatch(self, geometry4):
        with pytest.raises(ValueError):
            forward_transform(geometry4, [1.0, 2.0, 3.0])

    def test_rows_of_the_wrong_width(self, geometry4):
        with pytest.raises(ValueError, match=re.escape("expected rows of 4 values, got shape (3, 5)")):
            forward_transform_rows(geometry4, np.zeros((3, 5)))

    @given(
        a=finite_floats,
        b=finite_floats,
        rho1=st.lists(finite_floats, min_size=5, max_size=5),
        rho2=st.lists(finite_floats, min_size=5, max_size=5),
    )
    def test_linearity(self, a, b, rho1, rho2):
        geom = RobotGeometry(n=5, d=0.01, l=0.1)
        rho1, rho2 = np.array(rho1), np.array(rho2)
        combined = np.asarray(forward_transform(geom, a * rho1 + b * rho2))
        separate = a * np.asarray(forward_transform(geom, rho1)) + b * np.asarray(
            forward_transform(geom, rho2)
        )
        scale = max(1.0, float(np.max(np.abs(separate))))
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-9 * scale)

    def test_offset_invariance(self, geometry4):
        # linearity applied to rates: the same matrix maps displacement rates
        rng = np.random.default_rng(7)
        rho = rng.normal(size=4)
        shifted = np.asarray(forward_transform(geometry4, rho + 3.7))
        assert_close(shifted, np.asarray(forward_transform(geometry4, rho)), rtol=1e-10)


    @pytest.mark.parametrize("rho", [[math.inf, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, -math.inf]])
    def test_rejects_non_finite(self, geometry4, rho):
        with pytest.raises(ValueError, match=re.escape(f"joint displacements must be finite, got {rho}")):
            forward_transform(geometry4, rho)

    def test_rejects_overflow_only(self, geometry3):
        # the sum of these values overflows, but every value and the result are finite
        assert all(map(math.isfinite, forward_transform(geometry3, [1e308, 1e308, -1e308])))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError,
            match=re.escape("joint displacements [1.5e+308, -1.5e+308, -1.5e+308] give non-finite "
                            "Clarke coordinates (inf, "),
        ):
            forward_transform(geometry3, [1.5e308, -1.5e308, -1.5e308])

    def test_overflow_raises_without_a_warning(self, geometry3):
        # no np.errstate here: the suite turns numpy's overflow RuntimeWarning into an error
        with pytest.raises(ValueError, match="give non-finite Clarke coordinates"):
            forward_transform(geometry3, [1.5e308, -1.5e308, -1.5e308])
        assert all(map(math.isfinite, forward_transform(geometry3, [1e308, -1e308, 5e307])))


class TestInverseTransform:
    def test_n4_example(self, geometry4):
        assert_close(inverse_transform(geometry4, (1.0, 0.0)), [1.0, 0.0, -1.0, 0.0])

    def test_n3_example(self, geometry3):
        assert_close(inverse_transform(geometry3, (1.0, 0.0)), [1.0, -0.5, -0.5])

    def test_zero(self, geometry4):
        np.testing.assert_array_equal(inverse_transform(geometry4, (0.0, 0.0)), np.zeros(4))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_result_satisfies_displacement_constraint(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        rng = np.random.default_rng(n)
        for _ in range(20):
            rho = inverse_transform(geom, rng.normal(scale=0.01, size=2))
            bound = n * 1e-15 * max(np.max(np.abs(rho)), 1e-300)
            assert abs(float(np.sum(rho))) <= bound

    @pytest.mark.parametrize("n", range(3, 17))
    def test_round_trip_forward_of_inverse(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            clarke = rng.normal(scale=0.02, size=2)
            assert_close(forward_transform(geom, inverse_transform(geom, clarke)), clarke)


    @pytest.mark.parametrize("clarke", [(math.inf, 0.0), (0.0, math.nan),
                                        ClarkeCoords(-math.inf, math.inf), [math.nan, 1.0]])
    def test_rejects_non_finite(self, geometry4, clarke):
        message = f"Clarke coordinates must be finite, got ({clarke[0]}, {clarke[1]})"
        with pytest.raises(ValueError, match=re.escape(message)):
            inverse_transform(geometry4, clarke)

    def test_rejects_overflow_only(self, geometry4):
        # |re| + |im| overflows, but no entry of the result does
        assert np.isfinite(inverse_transform(geometry4, (1e308, 1e308))).all()
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("Clarke coordinates (1.5e+308, 1.5e+308) give non-finite")
        ):
            inverse_transform(RobotGeometry(n=8, d=0.01, l=0.1), (1.5e308, 1.5e308))

    def test_overflow_raises_without_a_warning(self):
        with pytest.raises(ValueError, match="give non-finite joint displacements"):
            inverse_transform(RobotGeometry(n=8, d=0.01, l=0.1), (1.5e308, 1.5e308))


class FloatSubclass(float):
    pass


class TestAsPair:
    @pytest.mark.parametrize("values", [
        ClarkeCoords(1e-3, -0.0), (1e-3, math.nan), [1e-3, 2e-3], np.array([1e-3, -2e-3]),
        (np.float64(1e-3), np.float64(2e-3)), (1, -2), (True, False), (FloatSubclass(0.5), 2.0),
        ("1e-3", "2"),
        # the wrong shapes of test_rejects_wrong_shape, and strings
        (1.0, 2.0, 3.0), (1.0,), 1.0, [[1.0, 2.0]], "12", ("a", "b"),
    ])
    def test_same_floats_or_error_as_as_vector(self, values):
        def outcome(convert):
            try:
                pair = convert(values, "Clarke coordinates")
            except ValueError as exc:
                return type(exc), str(exc)
            return [(type(v), v.hex()) for v in pair]

        assert outcome(as_pair) == outcome(lambda v, what: as_vector(v, 2, what).tolist())


class TestProjector:
    def test_n3_values(self, geometry3):
        expected = np.array(
            [
                [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
                [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
                [-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0],
            ]
        )
        np.testing.assert_allclose(projector(geometry3), expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_structure(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        p = projector(geom)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 2.0) < 1e-12
        assert abs(np.linalg.det(p)) < 1e-12
        np.testing.assert_allclose(p @ np.ones(n), np.zeros(n), atol=1e-12)
        # entries are (2/n) cos(psi_i - psi_j)
        psi = geom.psi
        expected = (2.0 / n) * np.cos(psi[:, None] - psi[None, :])
        np.testing.assert_allclose(p, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_one_hot_identity(self, n):
        geom = RobotGeometry(n=n, d=0.01, l=0.1)
        p = projector(geom)
        for k in range(n):
            image = p[:, k]
            expected = (2.0 / n) * np.cos(geom.psi - geom.psi[k])
            np.testing.assert_allclose(image, expected, atol=1e-13)
            scaled = (n / 2.0) * image
            assert abs(float(scaled @ scaled) - n / 2.0) < 1e-12
