"""Arc parameters and constant-curvature kinematics from Clarke coordinates.

The robot-dependent map is closed form in both directions: the Clarke
coordinates are (d*phi*cos(theta), d*phi*sin(theta)), where theta is the
bending-plane angle and phi the bending angle, independent of any curvature
assumption.  Under constant curvature the segment backbone is a circular
arc of radius l/phi, giving the tip pose

    position = (l/phi) * [(1-cos(phi))*cos(theta), (1-cos(phi))*sin(theta), sin(phi)]
    rotation = Rz(theta) * Ry(phi) * Rz(-theta)

which is continuous at phi = 0 but numerically singular if evaluated
naively.  Internally the pose is assembled from the even analytic factors
sin(phi)/phi and (1-cos(phi))/phi**2, so the only role of a singularity
strategy is to decide what happens in the phi ~ 0 regime: refuse, bias,
saturate, linearize, branch to the limit, or adaptively regularize the
displacement magnitude with a smooth decaying correction.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    RobotGeometry,
    ClarkeCoords,
    all_finite,
    as_pair,
    as_rows,
    as_vector,
    finite_real,
    float_array,
    positive_finite,
    scaled_form,
)

_TAU = 2.0 * math.pi
# below this angle the truncated series are more accurate than the closed forms
_SERIES_CUTOFF = 1e-4
# the 12 pose terms as the bytes of 12 float64 values, bit for bit
_pack_terms = struct.Struct("=12d").pack


class StraightConfigurationError(ValueError):
    """Raised by the avoid-straight strategy when the bending angle is below epsilon.

    forward_kinematics_rows sets `row` to the index of the first such row.
    """

    row: int | None = None

    @classmethod
    def below(cls, phi: float, eps: float) -> "StraightConfigurationError":
        return cls(
            f"bending angle {phi:.3e} below epsilon {eps:.3e}; "
            "straight configurations are excluded by the avoid-straight strategy"
        )


class SingularityStrategy(enum.Enum):
    """Policy for evaluating the constant-curvature pose near phi = 0."""

    AVOID_STRAIGHT = "avoid-straight"
    ADD_EPSILON = "add-epsilon"
    SATURATE_EPSILON = "saturate-epsilon"
    LINEARIZE_NEAR_ZERO = "linearize-near-zero"
    ANALYTIC_BRANCH = "analytic-branch"
    ADAPTIVE_EPSILON = "adaptive-epsilon"

    @classmethod
    def from_name(cls, name: str) -> "SingularityStrategy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown strategy {name!r}; expected one of {valid}")


# The members the kernels test for, as module globals: on CPython 3.11 each
# SingularityStrategy.X lookup passes through the enum's metaclass and costs
# about 0.1 µs, as much as the arithmetic of a scalar strategy test.
_AVOID_STRAIGHT = SingularityStrategy.AVOID_STRAIGHT
_ADD_EPSILON = SingularityStrategy.ADD_EPSILON
_SATURATE_EPSILON = SingularityStrategy.SATURATE_EPSILON
_LINEARIZE_NEAR_ZERO = SingularityStrategy.LINEARIZE_NEAR_ZERO
_ADAPTIVE_EPSILON = SingularityStrategy.ADAPTIVE_EPSILON


@dataclass(frozen=True)
class ArcParams:
    """Bending-plane angle theta, bending angle phi, and derived curvature.

    theta must be finite and is normalized into (-pi, pi]; phi must be
    non-negative.  kappa is phi/l under the constant-curvature interpretation
    and is filled in by arc_from_clarke; it may be omitted when constructing
    by hand.
    """

    theta: float
    phi: float
    kappa: float | None = None

    def __post_init__(self) -> None:
        vars(self).update({k: v.item() for k, v in vars(self).items() if isinstance(v, np.generic)})
        if not self.phi >= 0.0:
            raise ValueError(f"bending angle must be non-negative, got {self.phi}")
        theta = math.remainder(finite_real(self.theta, "bending-plane angle theta"), _TAU)
        if theta <= -math.pi:
            theta += _TAU
        object.__setattr__(self, "theta", theta)

    @property
    def full_circle(self) -> bool:
        """Warning flag: the segment bends beyond a full circle."""
        return self.phi > _TAU


@dataclass(frozen=True, eq=False)
class Pose:
    """Tip position (meters) and orthonormal rotation matrix."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self) -> None:
        # copies: the caller's arrays stay theirs
        pos = float_array(self.position, "pose position").copy()
        rot = float_array(self.rotation, "pose rotation").copy()
        if pos.shape != (3,) or rot.shape != (3, 3):
            raise ValueError("pose needs a 3-vector position and 3x3 rotation")
        pos.flags.writeable = False
        rot.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def _of_terms(cls, terms) -> "Pose":
        """The pose of the 12 floats x, y, z, r11, ..., r33, without validating again.

        position and rotation are the rows of one (4, 3) array over the packed
        terms, read-only because their buffer, a bytes object, is.
        """
        rows = np.ndarray((4, 3), float, _pack_terms(*terms))
        pose = object.__new__(cls)
        fields = pose.__dict__  # the frozen dataclass's own setattr refuses
        fields["position"] = rows[0]
        fields["rotation"] = rows[1:]
        return pose

    def compose(self, other: "Pose") -> "Pose":
        """Pose of `other` expressed in this pose's base frame (segment chaining)."""
        return Pose(
            position=self.position + self.rotation @ other.position,
            rotation=self.rotation @ other.rotation,
        )

    @classmethod
    def identity(cls) -> "Pose":
        return cls(position=np.zeros(3), rotation=np.eye(3))


@dataclass(frozen=True)
class RegularizationConfig:
    """Parameters of the smooth additive regularization of the displacement magnitude.

    The magnitude sqrt((2/n) rho^T rho) is augmented by epsilon * f(a + b * rho^T rho)
    with f a smooth decaying function: exponential exp(-t) or the mirrored
    logistic 2/(1 + exp(t)).  epsilon also serves as the near-zero threshold
    for the non-adaptive strategies.
    """

    epsilon: float
    a: float = 0.0
    b: float = 1.0
    decay: str = "exponential"

    def __post_init__(self) -> None:
        vars(self).update({k: v.item() for k, v in vars(self).items() if isinstance(v, np.generic)})
        positive_finite(self.epsilon, "epsilon")
        finite_real(self.a, "a")
        positive_finite(self.b, "b")
        if self.decay not in ("exponential", "mirrored_logistic"):
            raise ValueError(
                f"decay must be 'exponential' or 'mirrored_logistic', got {self.decay!r}"
            )

    @classmethod
    def default(
        cls, geometry: RobotGeometry, epsilon: float | None = None
    ) -> "RegularizationConfig":
        """Defaults scaled to the geometry: epsilon = 1e-9 * d, and b chosen so
        the additive term halves once rho^T rho reaches epsilon * d."""
        eps = 1e-9 * geometry.d if epsilon is None else positive_finite(epsilon, "epsilon")
        scale = eps * geometry.d
        b = math.log(2.0) / scale if scale > 0.0 else math.inf
        positive_finite(b, f"epsilon * d = {eps} * {geometry.d} is out of range: the decay "
                        "rate ln(2)/(epsilon * d)")
        return cls(epsilon=eps, a=0.0, b=b)

    def decay_value(self, t: float) -> float:
        """Evaluate the decay function f at t."""
        if self.decay == "exponential":
            return math.exp(-t) if t > -709.0 else math.inf
        if t > 709.0:
            return 0.0
        return 2.0 / (1.0 + math.exp(t))


# RegularizationConfig.default for each of the last 64 offset distances d, the
# only field of a geometry it reads, built once rather than on every call; the
# config is frozen, so it is shared.  Keyed by d rather than by the geometry,
# so that the cache keeps no caller's geometry (nor its cached matrices) alive.
_default_config = functools.lru_cache(maxsize=64)(
    lambda d: RegularizationConfig.default(SimpleNamespace(d=d))
)


def arc_from_clarke(geometry: RobotGeometry, clarke) -> ArcParams:
    """Arc parameters from Clarke coordinates.

    phi = |clarke / d|, the bending angle forward_kinematics evaluates, and
    theta = atan2(rho_im, rho_re); theta is pinned to 0 in the straight
    configuration.  Valid with or without the constant curvature assumption;
    kappa = phi/l is meaningful only with it.  Raises ValueError when clarke
    is not finite or phi or kappa overflows.
    """
    re, im = as_pair(clarke, "Clarke coordinates")
    phi = _bending(re, im, geometry.d, _FLOAT_OPS)[2]
    kappa = phi / geometry.l
    if not math.isfinite(kappa):  # so phi is finite too
        raise ValueError(
            f"Clarke coordinates ({re}, {im}) give a non-finite arc: phi {phi}, kappa {kappa}"
        )
    theta = math.atan2(im, re) if phi > 0.0 else 0.0
    return ArcParams(theta=theta, phi=phi, kappa=kappa)


def clarke_from_arc(geometry: RobotGeometry, arc: ArcParams) -> ClarkeCoords:
    """Clarke coordinates (d*phi*cos(theta), d*phi*sin(theta)) of an arc state.

    Raises ValueError when the arc is not finite or a coordinate overflows.
    """
    cos, sin = math.cos(arc.theta), math.sin(arc.theta)
    re, im = scaled_form(lambda phi, d: (d * phi[0] * cos, d * phi[0] * sin),
                         (arc.phi,), geometry.d, 1)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(
            f"arc (theta {arc.theta}, phi {arc.phi}) gives non-finite Clarke coordinates "
            f"({re}, {im})"
        )
    return ClarkeCoords(re, im)


def regularized_magnitude(
    geometry: RobotGeometry, rho, config: RegularizationConfig
) -> float:
    """Displacement magnitude sqrt((2/n) rho^T rho) with a smooth positive floor.

    For a joint-space rho the first term equals the Clarke-coordinate norm.
    The additive term epsilon * f(a + b * rho^T rho) is strictly positive,
    keeps the result nonzero at rho = 0, and vanishes as rho^T rho grows.
    Raises ValueError when rho is not finite or the result overflows.
    """
    arr = as_vector(rho, geometry.n, "joint displacements")
    values = arr.tolist()
    if not all_finite(values):
        raise ValueError(f"joint displacements must be finite, got {values}")
    with np.errstate(over="ignore"):  # rho^T rho may overflow; the result is checked
        ss = float(arr @ arr)
    magnitude = _regularized_norm(ss, geometry.n, config, _FLOAT_OPS)
    if not math.isfinite(magnitude):
        raise ValueError(
            f"joint displacements {values} give a non-finite regularized magnitude {magnitude}"
        )
    return magnitude


def _decay_rows(config: RegularizationConfig, t: np.ndarray) -> np.ndarray:
    """config.decay_value of each entry of t.

    Both decays are exactly 0.0 from t = 746 on, so only the other entries
    are mapped; a NaN is among them, as the exponential decay of NaN is inf.
    """
    out = np.zeros(len(t))
    live = ~(t >= 746.0)
    out[live] = np.fromiter(map(config.decay_value, t[live].tolist()), float)
    return out


# The elementwise operations of the kernels below, on one Python float (math
# functions only, so a scalar call adds no numpy call) and on numpy columns.
# Each array operation rounds as its float twin on every entry: numpy's
# float64 sin, cos and sqrt agree with math's, but its exp and hypot do not,
# so the adaptive decay and phi map config.decay_value and math.hypot.
_FLOAT_OPS = SimpleNamespace(
    sin=math.sin, cos=math.cos, sqrt=math.sqrt, maximum=max, hypot=math.hypot,
    where=lambda cond, a, b: a if cond else b,
    decay=RegularizationConfig.decay_value,
)
_ARRAY_OPS = SimpleNamespace(
    sin=np.sin, cos=np.cos, sqrt=np.sqrt, maximum=np.maximum, where=np.where,
    decay=_decay_rows,
    hypot=lambda u, v: np.fromiter(map(math.hypot, u.tolist(), v.tolist()), float, len(u)),
)


def _bending(re, im, d: float, ops):
    """(u, v) = clarke/d and the bending angle phi = |(u, v)| that every map here evaluates."""
    u, v = re / d, im / d
    return u, v, ops.hypot(u, v)


def _regularized_norm(ss, n: int, config: RegularizationConfig, ops):
    """regularized_magnitude of an n-vector rho from ss = rho^T rho."""
    return ops.sqrt(2.0 * ss / n) + config.epsilon * ops.decay(config, config.a + config.b * ss)


def _effective_angle(geometry, re, im, phi, strategy, config, ops):
    """The bending angle the strategy evaluates the pose at.

    phi itself, except phi + epsilon (add-epsilon), max(phi, epsilon)
    (saturate-epsilon) and the regularized magnitude over d
    (adaptive-epsilon), with rho^T rho = (n/2) |clarke|^2.
    """
    if strategy is _ADD_EPSILON:
        return phi + config.epsilon
    if strategy is _SATURATE_EPSILON:
        return ops.maximum(phi, config.epsilon)
    if strategy is _ADAPTIVE_EPSILON:
        ss = 0.5 * geometry.n * (re * re + im * im)
        return _regularized_norm(ss, geometry.n, config, ops) / geometry.d
    return phi


def _pose_terms(geometry, u, v, phi, phi_eff, strategy, config, ops):
    """The 12 pose entries x, y, z, r11, ..., r33 at (u, v) = clarke/d, bent by phi_eff.

    g1 = sin(x)/x and g2 = (1 - cos(x))/x**2 at x = phi_eff come from their
    truncated series below _SERIES_CUTOFF and from cancellation-free closed
    forms above it.  linearize-near-zero takes their limits where phi < epsilon.
    """
    x2 = phi_eff * phi_eff
    series = abs(phi_eff) < _SERIES_CUTOFF
    safe = ops.where(series, 1.0, phi_eff)  # keeps the unused closed forms finite at 0
    s = ops.sin(0.5 * phi_eff)
    g1 = ops.where(series, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, ops.sin(phi_eff) / safe)
    g2 = ops.where(series, 0.5 - x2 / 24.0 + x2 * x2 / 720.0, 2.0 * s * s / (safe * safe))
    cos_phi = ops.cos(phi_eff)
    if strategy is _LINEARIZE_NEAR_ZERO:
        straight = phi < config.epsilon
        g1, g2 = ops.where(straight, 1.0, g1), ops.where(straight, 0.5, g2)
        cos_phi = ops.where(straight, 1.0, cos_phi)
    l = geometry.l
    return (
        l * (u * g2), l * (v * g2), l * g1,
        1.0 - u * u * g2, -u * v * g2, u * g1,
        -u * v * g2, 1.0 - v * v * g2, v * g1,
        -u * g1, -v * g1, cos_phi,
    )


# The pose terms that repeat another, as (column, source column, negated):
# r21 = r12, r31 = -r13 and r32 = -r23 bit for bit, since _pose_terms builds
# each pair from the same products and a negation rounds nothing.  The CLI
# formats each source once and checks the repeats on every block it writes.
_POSE_REPEATS = ((6, 4, False), (9, 5, True), (10, 8, True))


def forward_kinematics(
    geometry: RobotGeometry,
    clarke,
    strategy: SingularityStrategy = SingularityStrategy.ANALYTIC_BRANCH,
    config: RegularizationConfig | None = None,
) -> Pose:
    """Constant-curvature tip pose of a single segment from Clarke coordinates.

    With (u, v) = clarke/d (so phi = |(u, v)|) the pose is

        position = l * [u * g2, v * g2, g1]
        rotation = [[1 - u*u*g2, -u*v*g2, u*g1],
                    [-u*v*g2, 1 - v*v*g2, v*g1],
                    [-u*g1, -v*g1, cos(phi)]]

    with g1 = sin(phi)/phi and g2 = (1 - cos(phi))/phi**2, the expanded form
    of an arc of angle phi in the plane rotated by theta about the base
    tangent.  The strategy decides how the phi ~ 0 regime is evaluated;
    avoid-straight raises StraightConfigurationError there.  Every strategy
    raises ValueError naming the coordinates when the bending angle or a pose
    term is not finite: for a NaN coordinate, or where phi, u * u (from
    |clarke / d| = 1.34e154) or, under linearize-near-zero, l * u / 2 overflows.

    adaptive-epsilon takes rho^T rho = (n/2) |clarke|^2 for the joint-space
    rho = inverse_transform(clarke) without building rho; its effective
    angle is within 4 * 2**-52 relative of the one computed through rho.
    """
    re, im = as_pair(clarke, "Clarke coordinates")
    if config is None:
        config = _default_config(geometry.d)

    u, v, phi = _bending(re, im, geometry.d, _FLOAT_OPS)

    if strategy is _AVOID_STRAIGHT and phi < config.epsilon:
        raise StraightConfigurationError.below(phi, config.epsilon)

    phi_eff = _effective_angle(geometry, re, im, phi, strategy, config, _FLOAT_OPS)
    if not math.isfinite(phi_eff):
        raise ValueError(
            f"bending angle {phi_eff} of Clarke coordinates ({re}, {im}) is not finite"
        )

    terms = _pose_terms(geometry, u, v, phi, phi_eff, strategy, config, _FLOAT_OPS)
    # |u|, |v| <= phi: below phi = 2**511 only linearize-near-zero's l * u / 2 can overflow
    if (phi >= 2.0**511 or strategy is _LINEARIZE_NEAR_ZERO) and not all_finite(terms):
        raise ValueError(f"Clarke coordinates ({re}, {im}) give a non-finite pose")
    return Pose._of_terms(terms)


def forward_kinematics_rows(
    geometry: RobotGeometry,
    clarke_rows,
    strategy: SingularityStrategy = SingularityStrategy.ANALYTIC_BRANCH,
    config: RegularizationConfig | None = None,
) -> np.ndarray:
    """Tip poses of an (N, 2) array of Clarke rows, as an (N, 12) array.

    Each row holds position x, y, z and then the rotation row by row, r11 to
    r33.  The array form of forward_kinematics, bitwise equal to the scalar
    form on every row: both run the same kernels, with phi from math.hypot
    because numpy's hypot rounds differently.  A row whose bending angle or
    pose overflows comes out non-finite instead of raising.  avoid-straight
    raises StraightConfigurationError for the first row below epsilon, with
    its index in `row`.
    """
    arr = as_rows(clarke_rows, 2)
    if config is None:
        config = _default_config(geometry.d)
    re, im = arr[:, 0], arr[:, 1]
    with np.errstate(all="ignore"):  # a row that overflows comes out non-finite
        u, v, phi = _bending(re, im, geometry.d, _ARRAY_OPS)
        straight = phi < config.epsilon
        if strategy is _AVOID_STRAIGHT and straight.any():
            row = int(straight.argmax())
            exc = StraightConfigurationError.below(float(phi[row]), config.epsilon)
            exc.row = row
            raise exc

        phi_eff = _effective_angle(geometry, re, im, phi, strategy, config, _ARRAY_OPS)
        terms = _pose_terms(geometry, u, v, phi, phi_eff, strategy, config, _ARRAY_OPS)
        return np.column_stack(terms)
