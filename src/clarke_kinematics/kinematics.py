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
import math
from dataclasses import dataclass

import numpy as np

from .core import RobotGeometry, ClarkeCoords, as_displacements, as_rows

_TAU = 2.0 * math.pi
# below this angle the truncated series are more accurate than the closed forms
_SERIES_CUTOFF = 1e-4


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


@dataclass(frozen=True)
class ArcParams:
    """Bending-plane angle theta, bending angle phi, and derived curvature.

    theta is normalized into (-pi, pi]; phi must be non-negative.  kappa is
    phi/l under the constant-curvature interpretation and is filled in by
    arc_from_clarke; it may be omitted when constructing by hand.
    """

    theta: float
    phi: float
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not self.phi >= 0.0:
            raise ValueError(f"bending angle must be non-negative, got {self.phi}")
        theta = math.remainder(float(self.theta), _TAU)
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
        pos = np.asarray(self.position, dtype=float)
        rot = np.asarray(self.rotation, dtype=float)
        if pos.shape != (3,) or rot.shape != (3, 3):
            raise ValueError("pose needs a 3-vector position and 3x3 rotation")
        pos.flags.writeable = False
        rot.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "rotation", rot)

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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be positive and finite, got {self.b}")
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
        eps = 1e-9 * geometry.d if epsilon is None else epsilon
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
        scale = eps * geometry.d
        return cls(epsilon=eps, a=0.0, b=math.log(2.0) / scale if scale > 0.0 else math.inf)

    def decay_value(self, t: float) -> float:
        """Evaluate the decay function f at t."""
        if self.decay == "exponential":
            return math.exp(-t) if t > -709.0 else math.inf
        if t > 709.0:
            return 0.0
        return 2.0 / (1.0 + math.exp(t))


def arc_from_clarke(geometry: RobotGeometry, clarke) -> ArcParams:
    """Arc parameters from Clarke coordinates.

    phi = |clarke| / d and theta = atan2(rho_im, rho_re); theta is pinned to 0
    in the straight configuration.  Valid with or without the constant
    curvature assumption; kappa = phi/l is meaningful only with it.
    """
    re, im = (float(c) for c in np.asarray(clarke, dtype=float))
    phi = math.hypot(re, im) / geometry.d
    theta = math.atan2(im, re) if phi > 0.0 else 0.0
    return ArcParams(theta=theta, phi=phi, kappa=phi / geometry.l)


def clarke_from_arc(geometry: RobotGeometry, arc: ArcParams) -> ClarkeCoords:
    """Clarke coordinates (d*phi*cos(theta), d*phi*sin(theta)) of an arc state."""
    m = geometry.d * arc.phi
    return ClarkeCoords(m * math.cos(arc.theta), m * math.sin(arc.theta))


def regularized_magnitude(
    geometry: RobotGeometry, rho, config: RegularizationConfig
) -> float:
    """Displacement magnitude sqrt((2/n) rho^T rho) with a smooth positive floor.

    For a joint-space rho the first term equals the Clarke-coordinate norm.
    The additive term epsilon * f(a + b * rho^T rho) is strictly positive,
    keeps the result nonzero at rho = 0, and vanishes as rho^T rho grows.
    """
    arr = as_displacements(geometry, rho)
    return _regularized_norm(float(arr @ arr), geometry.n, config)


def _regularized_norm(ss: float, n: int, config: RegularizationConfig) -> float:
    """regularized_magnitude of an n-vector rho from ss = rho^T rho."""
    return math.sqrt(2.0 * ss / n) + config.epsilon * config.decay_value(config.a + config.b * ss)


def _sinc(x: float) -> float:
    """sin(x)/x, exact limit 1 at x = 0."""
    if abs(x) < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def _versinc(x: float) -> float:
    """(1 - cos(x))/x**2, exact limit 1/2 at x = 0; cancellation-free."""
    if abs(x) < _SERIES_CUTOFF:
        x2 = x * x
        return 0.5 - x2 / 24.0 + x2 * x2 / 720.0
    s = math.sin(0.5 * x)
    return 2.0 * s * s / (x * x)


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
    avoid-straight is the only strategy that can raise.

    adaptive-epsilon takes rho^T rho = (n/2) |clarke|^2 for the joint-space
    rho = inverse_transform(clarke) without building rho; its effective
    angle is within 4 * 2**-52 relative of the one computed through rho.
    """
    vec = np.asarray(clarke, dtype=float)
    if vec.shape != (2,):
        raise ValueError(f"expected 2 Clarke coordinates, got shape {vec.shape}")
    if config is None:
        config = RegularizationConfig.default(geometry)
    eps = config.epsilon

    u = float(vec[0]) / geometry.d
    v = float(vec[1]) / geometry.d
    phi = math.hypot(u, v)

    if strategy is SingularityStrategy.AVOID_STRAIGHT and phi < eps:
        raise StraightConfigurationError.below(phi, eps)

    if strategy is SingularityStrategy.LINEARIZE_NEAR_ZERO and phi < eps:
        g1, g2, cos_phi = 1.0, 0.5, 1.0
    else:
        phi_eff = phi
        if strategy is SingularityStrategy.ADD_EPSILON:
            phi_eff = phi + eps
        elif strategy is SingularityStrategy.SATURATE_EPSILON:
            phi_eff = max(phi, eps)
        elif strategy is SingularityStrategy.ADAPTIVE_EPSILON:
            re, im = float(vec[0]), float(vec[1])
            ss = 0.5 * geometry.n * (re * re + im * im)
            phi_eff = _regularized_norm(ss, geometry.n, config) / geometry.d
        g1, g2, cos_phi = _sinc(phi_eff), _versinc(phi_eff), math.cos(phi_eff)

    position = geometry.l * np.array([u * g2, v * g2, g1])
    rotation = np.array(
        [
            [1.0 - u * u * g2, -u * v * g2, u * g1],
            [-u * v * g2, 1.0 - v * v * g2, v * g1],
            [-u * g1, -v * g1, cos_phi],
        ]
    )
    return Pose(position=position, rotation=rotation)


def _sinc_rows(x: np.ndarray) -> np.ndarray:
    """_sinc of each entry; call under np.errstate, since 0/0 is evaluated and discarded."""
    x2 = x * x
    return np.where(np.abs(x) < _SERIES_CUTOFF, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(x) / x)


def _versinc_rows(x: np.ndarray) -> np.ndarray:
    """_versinc of each entry, under np.errstate like _sinc_rows."""
    x2 = x * x
    s = np.sin(0.5 * x)
    return np.where(np.abs(x) < _SERIES_CUTOFF, 0.5 - x2 / 24.0 + x2 * x2 / 720.0, 2.0 * s * s / x2)


def forward_kinematics_rows(
    geometry: RobotGeometry,
    clarke_rows,
    strategy: SingularityStrategy = SingularityStrategy.ANALYTIC_BRANCH,
    config: RegularizationConfig | None = None,
) -> np.ndarray:
    """Tip poses of an (N, 2) array of Clarke rows, as an (N, 12) array.

    Each row holds position x, y, z and then the rotation row by row, r11 to
    r33.  The array form of forward_kinematics, bitwise equal to the scalar
    form on every row: the same float operations in the same order, with phi
    from math.hypot and the adaptive decay from config.decay_value, because
    numpy's hypot and exp round differently from math's (numpy's float64
    sin, cos and sqrt agree with math's).  A row whose pose overflows comes
    out non-finite instead of raising.  avoid-straight raises
    StraightConfigurationError for the first row below epsilon, with its
    index in `row`.
    """
    arr = as_rows(clarke_rows, 2)
    if config is None:
        config = RegularizationConfig.default(geometry)
    eps, count = config.epsilon, len(arr)
    u = arr[:, 0] / geometry.d
    v = arr[:, 1] / geometry.d
    phi = np.fromiter(map(math.hypot, u.tolist(), v.tolist()), float, count)
    straight = phi < eps

    if strategy is SingularityStrategy.AVOID_STRAIGHT and straight.any():
        row = int(straight.argmax())
        exc = StraightConfigurationError.below(float(phi[row]), eps)
        exc.row = row
        raise exc

    with np.errstate(all="ignore"):
        phi_eff = phi
        if strategy is SingularityStrategy.ADD_EPSILON:
            phi_eff = phi + eps
        elif strategy is SingularityStrategy.SATURATE_EPSILON:
            phi_eff = np.maximum(phi, eps)
        elif strategy is SingularityStrategy.ADAPTIVE_EPSILON:
            re, im = arr[:, 0], arr[:, 1]
            ss = 0.5 * geometry.n * (re * re + im * im)
            t = (config.a + config.b * ss).tolist()
            decay = np.fromiter(map(config.decay_value, t), float, count)
            phi_eff = (np.sqrt(2.0 * ss / geometry.n) + config.epsilon * decay) / geometry.d
        g1, g2, cos_phi = _sinc_rows(phi_eff), _versinc_rows(phi_eff), np.cos(phi_eff)
        if strategy is SingularityStrategy.LINEARIZE_NEAR_ZERO:
            g1[straight], g2[straight], cos_phi[straight] = 1.0, 0.5, 1.0

        l = geometry.l
        return np.column_stack(
            [
                l * (u * g2), l * (v * g2), l * g1,
                1.0 - u * u * g2, -u * v * g2, u * g1,
                -u * v * g2, 1.0 - v * v * g2, v * g1,
                -u * g1, -v * g1, cos_phi,
            ]
        )
