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
from functools import partial
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
    scaled_form,
    scaled_rows,
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
        member._label = f"{value} parameters"  # what as_pair names, built once
        member._power = 0 if k is None else -1  # of d in the pair: the Allen schemes' gain k/d
        return member

    def _pair_of(self, clarke, d: float):
        """The scheme's (p1, p2) of Clarke coordinates; floats or numpy columns."""
        k = self._k
        return clarke if k is None else (-k * clarke[1] / d, k * clarke[0] / d)

    def _clarke_of(self, pair, d: float):
        """Clarke coordinates of the scheme's (p1, p2), the inverse of _pair_of."""
        k = self._k
        return pair if k is None else (pair[1] * d / k, -pair[0] * d / k)

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
    clarke = as_pair(clarke, "Clarke coordinates")
    p1, p2 = scaled_form(scheme._pair_of, clarke, geometry.d, scheme._power)
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValueError(f"Clarke coordinates ({clarke[0]}, {clarke[1]}) give non-finite "
                         f"{scheme.value} parameters ({p1}, {p2})")
    return tuple.__new__(LegacyPair, (scheme, p1, p2))  # LegacyPair(...) without its Python frame


def clarke_from_legacy(
    scheme: LegacyScheme, geometry: RobotGeometry, pair
) -> ClarkeCoords:
    """Convert a scheme's parameter pair back to Clarke coordinates.

    Exact inverse of legacy_from_clarke.  A tagged LegacyPair must carry the
    requested scheme; its two values are then read as a plain (p1, p2)
    sequence is.  Raises ValueError when the pair is not two real numbers, is
    not finite, or gives a result that overflows.
    """
    _check_scheme(scheme, geometry)
    if isinstance(pair, LegacyPair):
        if pair.scheme is not scheme:
            raise SchemeMismatchError(
                f"pair is tagged {pair.scheme.value}, expected {scheme.value}"
            )
        pair = pair[1:]
    pair = as_pair(pair, scheme._label)
    re, im = scaled_form(scheme._clarke_of, pair, geometry.d, -scheme._power)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"{scheme.value} parameters ({pair[0]}, {pair[1]}) give non-finite "
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
    p1, p2 = scaled_form(partial(_pair_from_displacements, scheme), values, geometry.d,
                         scheme._power)
    if not (math.isfinite(p1) and math.isfinite(p2)):  # every entry of rho is in the pair
        raise ValueError(f"joint displacements {values} give non-finite "
                         f"{scheme.value} parameters ({p1}, {p2})")
    return LegacyPair(scheme, p1, p2)


def _pair_from_displacements(scheme: LegacyScheme, rho, d: float):
    """The published formulas; rho[i] is joint i+1's displacement, a float or a column."""
    if scheme is LegacyScheme.DIAN3:
        dx = (2.0 * rho[0] - rho[1] - rho[2]) / 3.0
        dy = (rho[1] - rho[2]) / math.sqrt(3.0)
        return dx, dy
    if scheme is LegacyScheme.DELLA_SANTINA4:
        return (rho[0] - rho[2]) / 2.0, (rho[1] - rho[3]) / 2.0
    if scheme is LegacyScheme.ALLEN3:
        return ((rho[2] - rho[1]) / (math.sqrt(3.0) * d),
                (2.0 * rho[0] - rho[1] - rho[2]) / (3.0 * d))
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
    return scaled_rows(scheme._pair_of, as_rows(clarke_rows, 2).T, geometry.d, scheme._power)


def clarke_from_legacy_rows(
    scheme: LegacyScheme, geometry: RobotGeometry, pair_rows
) -> np.ndarray:
    """Clarke rows of (p1, p2) rows; bitwise equal to the scalar form clarke_from_legacy."""
    _check_scheme(scheme, geometry)
    return scaled_rows(scheme._clarke_of, as_rows(pair_rows, 2).T, geometry.d, -scheme._power)


def legacy_from_lengths_rows(
    scheme: LegacyScheme, geometry: RobotGeometry, length_rows
) -> np.ndarray:
    """(p1, p2) rows of length rows; bitwise equal to the scalar form legacy_from_lengths."""
    _check_scheme(scheme, geometry)
    rho = geometry.l - as_rows(length_rows, geometry.n)
    return scaled_rows(partial(_pair_from_displacements, scheme), rho.T, geometry.d, scheme._power)


def clarke_from_lengths_rows(geometry: RobotGeometry, length_rows) -> np.ndarray:
    """Clarke rows of length rows; bitwise equal to the scalar form clarke_from_lengths."""
    return forward_transform_rows(geometry, geometry.l - as_rows(length_rows, geometry.n))
