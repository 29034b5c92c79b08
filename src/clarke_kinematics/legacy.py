"""Adapters between Clarke coordinates and earlier two-parameter schemes.

Four published segment parameterizations are supported, each an exact linear
image of the Clarke coordinates:

    dian3           n=3  (dx, dy)  = (rho_re, rho_im)
    dellasantina4   n=4  (dx, dy)  = (rho_re, rho_im)
    allen3          n=3  (u, v)    = (-rho_im/d, rho_re/d)
    allen4          n=4  (u, v)    = (-2*rho_im/d, 2*rho_re/d)

The delta schemes are in meters; the (u, v) schemes are dimensionless.  The
sign of u follows the displacement-based derivation of each scheme (actuator
shortening on the positive side of the bending plane), which keeps every
adapter self-inverse.

The schemes were originally published in terms of absolute actuation lengths
l_i; those relate to displacements by l_i = l - rho_i, and any constant
offset such as l is invisible to the Clarke transform.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .core import (
    ClarkeCoords,
    RobotGeometry,
    all_finite,
    as_pair,
    as_rows,
    as_vector,
    forward_transform,
    forward_transform_rows,
)


class SchemeMismatchError(ValueError):
    """Scheme applied to a geometry or pair it does not belong to."""


class LegacyScheme(enum.Enum):
    """Tag for one of the published two-parameter schemes."""

    # The one per-scheme table: value, n, pair_names, and the k of the map in
    # _pair_of, or None for (p1, p2) = (rho_re, rho_im).
    DIAN3 = ("dian3", 3, ("delta_x", "delta_y"), None)
    DELLA_SANTINA4 = ("dellasantina4", 4, ("delta_x", "delta_y"), None)
    ALLEN3 = ("allen3", 3, ("u", "v"), 1.0)
    ALLEN4 = ("allen4", 4, ("u", "v"), 2.0)

    n: int  # joint count the scheme was published for
    pair_names: tuple[str, str]  # column/field names of the scheme's two parameters

    def __new__(cls, value: str, n: int, pair_names: tuple[str, str], k: float | None):
        member = object.__new__(cls)
        member._value_ = value
        member.n, member.pair_names, member._k = n, pair_names, k
        return member

    def _pair_of(self, re, im, d: float):
        """The scheme's (p1, p2) of Clarke coordinates; floats or numpy columns."""
        k = self._k
        if k is None:
            return re, im
        return -k * im / d, k * re / d

    def _clarke_of(self, p1, p2, d: float):
        """Clarke coordinates of the scheme's (p1, p2), the inverse of _pair_of."""
        k = self._k
        if k is None:
            return p1, p2
        return p2 * d / k, -p1 * d / k

    @classmethod
    def from_name(cls, name: str) -> "LegacyScheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise SchemeMismatchError(f"unknown scheme {name!r}; expected one of {valid}")


class LegacyPair(NamedTuple):
    """A scheme-tagged parameter pair; p1/p2 semantics depend on the scheme."""

    scheme: LegacyScheme
    p1: float
    p2: float


def _check_scheme(scheme: LegacyScheme, geometry: RobotGeometry) -> None:
    if scheme.n != geometry.n:
        raise SchemeMismatchError(
            f"scheme {scheme.value} requires n={scheme.n}, geometry has n={geometry.n}"
        )


def lengths_to_displacements(geometry: RobotGeometry, lengths) -> np.ndarray:
    """Displacements from absolute actuation lengths, rho_i = l - l_i.

    Raises ValueError naming the lengths when one is not finite.
    """
    arr = as_vector(lengths, geometry.n, "lengths")
    values = arr.tolist()
    if not all_finite(values):
        raise ValueError(f"lengths must be finite, got {values}")
    return geometry.l - arr


def displacements_to_lengths(geometry: RobotGeometry, rho) -> np.ndarray:
    """Absolute actuation lengths from displacements, l_i = l - rho_i."""
    return geometry.l - as_vector(rho, geometry.n, "joint displacements")


def legacy_from_clarke(
    scheme: LegacyScheme, geometry: RobotGeometry, clarke
) -> LegacyPair:
    """Convert Clarke coordinates to the scheme's parameter pair.

    Raises ValueError when clarke is not finite or the pair overflows.
    """
    _check_scheme(scheme, geometry)
    re, im = as_pair(clarke, "Clarke coordinates")
    p1, p2 = scheme._pair_of(re, im, geometry.d)
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValueError(f"Clarke coordinates ({re}, {im}) give non-finite "
                         f"{scheme.value} parameters ({p1}, {p2})")
    return tuple.__new__(LegacyPair, (scheme, p1, p2))  # LegacyPair(...) without its Python frame


def clarke_from_legacy(
    scheme: LegacyScheme, geometry: RobotGeometry, pair
) -> ClarkeCoords:
    """Convert a scheme's parameter pair back to Clarke coordinates.

    Exact inverse of legacy_from_clarke.  A tagged LegacyPair is checked
    against the requested scheme; a plain (p1, p2) sequence is trusted.
    Raises ValueError when the pair is not finite or the result overflows.
    """
    _check_scheme(scheme, geometry)
    if isinstance(pair, LegacyPair):
        if pair.scheme is not scheme:
            raise SchemeMismatchError(
                f"pair is tagged {pair.scheme.value}, expected {scheme.value}"
            )
        p1, p2 = pair.p1, pair.p2
    else:
        p1, p2 = as_pair(pair, f"{scheme.value} parameters")
    re, im = scheme._clarke_of(p1, p2, geometry.d)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"{scheme.value} parameters ({p1}, {p2}) give non-finite "
                         f"Clarke coordinates ({re}, {im})")
    return ClarkeCoords(re, im)


def legacy_from_displacements(
    scheme: LegacyScheme, geometry: RobotGeometry, rho
) -> LegacyPair:
    """Compute the scheme's pair directly from its published joint-value formulas.

    Agrees with legacy_from_clarke(scheme, geometry, forward_transform(rho))
    for every displacement vector; the dedicated formulas are kept as an
    independent route for cross-checking.  Raises ValueError when rho is not
    finite or the pair overflows.
    """
    _check_scheme(scheme, geometry)
    values = as_vector(rho, geometry.n, "joint displacements").tolist()
    if all_finite(values) and max(map(abs, values)) >= _FORMULA_SAFE:
        p1, p2 = _pair_from_displacements(scheme, [0.25 * r for r in values], geometry.d)
        p1, p2 = 4.0 * p1, 4.0 * p2
    else:
        p1, p2 = _pair_from_displacements(scheme, values, geometry.d)
    if not (math.isfinite(p1) and math.isfinite(p2)):  # every entry of rho is in the pair
        raise ValueError(f"joint displacements {values} give non-finite "
                         f"{scheme.value} parameters ({p1}, {p2})")
    return LegacyPair(scheme, p1, p2)


# Below this max|rho| no sum in the published formulas overflows: the largest,
# 2*rho[0] - rho[1] - rho[2], stays within 4 max|rho|.  A finite row that
# reaches it is evaluated at a quarter of its size and the pair scaled back,
# which changes no bit while every value stays normal.
_FORMULA_SAFE = 2.0**1021


def _pair_from_displacements(scheme: LegacyScheme, rho, d: float):
    """The published formulas; rho[i] is joint i+1's displacement, a float or a column."""
    if scheme is LegacyScheme.DIAN3:
        dx = (2.0 * rho[0] - rho[1] - rho[2]) / 3.0
        dy = (rho[1] - rho[2]) / math.sqrt(3.0)
        return dx, dy
    if scheme is LegacyScheme.DELLA_SANTINA4:
        return (rho[0] - rho[2]) / 2.0, (rho[1] - rho[3]) / 2.0
    if scheme is LegacyScheme.ALLEN3:
        # d = m * 2**-k with 1 <= m < 2: sqrt(3) * d and 3 * d overflow above
        # 6e307, sqrt(3) * m and 3 * m never do, and each quotient is smaller
        # than its numerator.  2**k, applied last and in two halves (2.0**k
        # alone overflows for a subnormal d), keeps every bit of the division
        # by sqrt(3) * d and 3 * d wherever the pair is normal.
        m, e = math.frexp(d)
        m, k = 2.0 * m, 1 - e
        low, high = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
        u = (rho[2] - rho[1]) / (math.sqrt(3.0) * m) * low * high
        v = (2.0 * rho[0] - rho[1] - rho[2]) / (3.0 * m) * low * high
        return u, v
    return (rho[3] - rho[1]) / d, (rho[0] - rho[2]) / d


def legacy_from_lengths(
    scheme: LegacyScheme, geometry: RobotGeometry, lengths
) -> LegacyPair:
    """The scheme's pair from absolute lengths; offsets common to all l_i cancel."""
    return legacy_from_displacements(
        scheme, geometry, lengths_to_displacements(geometry, lengths)
    )


def clarke_from_lengths(geometry: RobotGeometry, lengths) -> ClarkeCoords:
    """Clarke coordinates from absolute actuation lengths."""
    return forward_transform(geometry, lengths_to_displacements(geometry, lengths))


def legacy_from_clarke_rows(
    scheme: LegacyScheme, geometry: RobotGeometry, clarke_rows
) -> np.ndarray:
    """(p1, p2) rows of Clarke rows; bitwise equal to the scalar form legacy_from_clarke."""
    _check_scheme(scheme, geometry)
    arr = as_rows(clarke_rows, 2)
    return np.column_stack(scheme._pair_of(arr[:, 0], arr[:, 1], geometry.d))


def clarke_from_legacy_rows(
    scheme: LegacyScheme, geometry: RobotGeometry, pair_rows
) -> np.ndarray:
    """Clarke rows of (p1, p2) rows; bitwise equal to the scalar form clarke_from_legacy."""
    _check_scheme(scheme, geometry)
    arr = as_rows(pair_rows, 2)
    return np.column_stack(scheme._clarke_of(arr[:, 0], arr[:, 1], geometry.d))


def legacy_from_lengths_rows(
    scheme: LegacyScheme, geometry: RobotGeometry, length_rows
) -> np.ndarray:
    """(p1, p2) rows of length rows; bitwise equal to the scalar form legacy_from_lengths."""
    _check_scheme(scheme, geometry)
    rho = geometry.l - as_rows(length_rows, geometry.n)
    # the finite rows that reach _FORMULA_SAFE, as in legacy_from_displacements
    # (the peak of a row with NaN is NaN)
    peak = np.abs(rho).max(axis=1)
    large = (peak >= _FORMULA_SAFE) & (peak < math.inf)
    rho[large] *= 0.25
    pairs = np.column_stack(_pair_from_displacements(scheme, rho.T, geometry.d))
    pairs[large] *= 4.0
    return pairs


def clarke_from_lengths_rows(geometry: RobotGeometry, length_rows) -> np.ndarray:
    """Clarke rows of length rows; bitwise equal to the scalar form clarke_from_lengths."""
    return forward_transform_rows(geometry, geometry.l - as_rows(length_rows, geometry.n))
