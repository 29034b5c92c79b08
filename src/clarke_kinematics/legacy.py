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

from .core import ClarkeCoords, RobotGeometry, as_displacements, forward_transform


class SchemeMismatchError(ValueError):
    """Scheme applied to a geometry or pair it does not belong to."""


class LegacyScheme(enum.Enum):
    """Tag for one of the published two-parameter schemes."""

    # The one per-scheme table: value, n, pair_names, and the k of the map
    # (p1, p2) = (-k*rho_im/d, k*rho_re/d), or None for (p1, p2) = (rho_re, rho_im).
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
    """Displacements from absolute actuation lengths, rho_i = l - l_i."""
    arr = np.asarray(lengths, dtype=float)
    if arr.shape != (geometry.n,):
        raise ValueError(f"expected {geometry.n} lengths, got shape {arr.shape}")
    return geometry.l - arr


def displacements_to_lengths(geometry: RobotGeometry, rho) -> np.ndarray:
    """Absolute actuation lengths from displacements, l_i = l - rho_i."""
    return geometry.l - as_displacements(geometry, rho)


def legacy_from_clarke(
    scheme: LegacyScheme, geometry: RobotGeometry, clarke
) -> LegacyPair:
    """Convert Clarke coordinates to the scheme's parameter pair."""
    _check_scheme(scheme, geometry)
    re, im = (float(c) for c in np.asarray(clarke, dtype=float))
    k = scheme._k
    if k is None:
        return LegacyPair(scheme, re, im)
    d = geometry.d
    return LegacyPair(scheme, -k * im / d, k * re / d)


def clarke_from_legacy(
    scheme: LegacyScheme, geometry: RobotGeometry, pair
) -> ClarkeCoords:
    """Convert a scheme's parameter pair back to Clarke coordinates.

    Exact inverse of legacy_from_clarke.  A tagged LegacyPair is checked
    against the requested scheme; a plain (p1, p2) sequence is trusted.
    """
    _check_scheme(scheme, geometry)
    if isinstance(pair, LegacyPair):
        if pair.scheme is not scheme:
            raise SchemeMismatchError(
                f"pair is tagged {pair.scheme.value}, expected {scheme.value}"
            )
        p1, p2 = pair.p1, pair.p2
    else:
        p1, p2 = (float(p) for p in pair)
    k = scheme._k
    if k is None:
        return ClarkeCoords(p1, p2)
    d = geometry.d
    return ClarkeCoords(p2 * d / k, -p1 * d / k)


def legacy_from_displacements(
    scheme: LegacyScheme, geometry: RobotGeometry, rho
) -> LegacyPair:
    """Compute the scheme's pair directly from its published joint-value formulas.

    Agrees with legacy_from_clarke(scheme, geometry, forward_transform(rho))
    for every displacement vector; the dedicated formulas are kept as an
    independent route for cross-checking.
    """
    _check_scheme(scheme, geometry)
    arr = as_displacements(geometry, rho)
    d = geometry.d
    if scheme is LegacyScheme.DIAN3:
        dx = (2.0 * arr[0] - arr[1] - arr[2]) / 3.0
        dy = (arr[1] - arr[2]) / math.sqrt(3.0)
        return LegacyPair(scheme, dx, dy)
    if scheme is LegacyScheme.DELLA_SANTINA4:
        return LegacyPair(scheme, (arr[0] - arr[2]) / 2.0, (arr[1] - arr[3]) / 2.0)
    if scheme is LegacyScheme.ALLEN3:
        u = (arr[2] - arr[1]) / (math.sqrt(3.0) * d)
        v = (2.0 * arr[0] - arr[1] - arr[2]) / (3.0 * d)
        return LegacyPair(scheme, u, v)
    return LegacyPair(scheme, (arr[3] - arr[1]) / d, (arr[0] - arr[2]) / d)


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
