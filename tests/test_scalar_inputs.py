"""The scalar calls at large joint counts and on every input type they take.

The scalar transforms and contains take ndarray.dot where their row forms
take a stacked matmul. Both run the same BLAS matrix-vector product on each
vector, and the checks at large n hold them to bitwise equality there too,
since a BLAS may pick another kernel as n grows. Each scalar call also gives
the same values and the same errors for a list, a tuple, a float64 array, a
float32 array and a ClarkeCoords of the same numbers.  A geometry, a
regularization config or an arc built from numpy scalars holds Python
numbers, so that the maps raise their own errors and return Python floats.
An entry that is not a real number, or an integer beyond the float range, is
refused with a ValueError that names the input, by every map and row form.
"""

import math
import re
import warnings

import numpy as np
import pytest

from clarke_kinematics import (
    ArcParams,
    ClarkeCoords,
    GeometryError,
    LegacyPair,
    LegacyScheme,
    Pose,
    RegularizationConfig,
    RobotGeometry,
    SingularityStrategy,
    arc_from_clarke,
    clarke_from_arc,
    clarke_from_legacy,
    clarke_from_legacy_rows,
    clarke_from_lengths,
    clarke_from_lengths_rows,
    contains,
    contains_rows,
    displacements_to_lengths,
    forward_kinematics,
    forward_kinematics_rows,
    forward_transform,
    forward_transform_rows,
    inverse_transform,
    inverse_transform_rows,
    legacy_from_clarke,
    legacy_from_clarke_rows,
    legacy_from_displacements,
    legacy_from_lengths,
    legacy_from_lengths_rows,
    project,
    projector,
    regularized_magnitude,
)

LARGE_N = [17, 64, 257, 1024]


@pytest.mark.parametrize("n", LARGE_N)
def test_transforms_at_large_n_equal_their_row_forms(n):
    geometry = RobotGeometry(n=n, d=0.01, l=0.1)
    rng = np.random.default_rng(n)
    rho = rng.normal(size=(16, n)) * 10.0 ** rng.uniform(-6, 3, (16, 1))
    clarke = rng.normal(size=(16, 2)) * 10.0 ** rng.uniform(-6, 3, (16, 1))
    np.testing.assert_array_equal(forward_transform_rows(geometry, rho),
                                  [forward_transform(geometry, row) for row in rho])
    np.testing.assert_array_equal(inverse_transform_rows(geometry, clarke),
                                  [inverse_transform(geometry, row) for row in clarke])


@pytest.mark.parametrize("n", LARGE_N)
def test_contains_at_large_n_rounds_the_residual_as_its_row_form(n):
    """tol set to a row's own residual, its largest |rho - P rho|.

    With |rho| <= 1 the bound is tol itself, so the row is a member at that
    tol and not at the float below it, in both forms, only when both round
    the residual as contains_rows does.
    """
    geometry = RobotGeometry(n=n, d=0.01, l=0.1)
    rng = np.random.default_rng(1000 + n)
    inside = inverse_transform_rows(geometry, rng.uniform(-0.5, 0.5, (4, 2)))
    rho = np.vstack([inside, inside + 1e-9 * rng.normal(size=inside.shape),
                     rng.uniform(-1.0, 1.0, (4, n))])
    residual = np.abs(rho - (projector(geometry) @ rho[:, :, None])[:, :, 0]).max(axis=1)
    assert np.abs(rho).max() <= 1.0 and (residual[4:] > 0.0).all()
    for i, (row, tol) in enumerate(zip(rho, residual.tolist())):
        if tol == 0.0:
            continue
        below = math.nextafter(tol, 0.0)
        assert contains(geometry, row, tol) and contains_rows(geometry, rho, tol)[i]
        assert not contains(geometry, row, below) and not contains_rows(geometry, rho, below)[i]


def _outcome(call, *args):
    """What call(*args) gives, comparable across input types: its value or its error."""
    try:
        result = call(*args)
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)
    if isinstance(result, Pose):
        return "pose", result.position.tobytes(), result.rotation.tobytes()
    if isinstance(result, np.ndarray):
        return "array", result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, tuple):
        return type(result), tuple(map(repr, result)), tuple(map(type, result))
    return type(result), result


def _vector_forms(values):
    forms = [list(values), tuple(values), np.array(values, dtype=np.float64)]
    if all(abs(v) < 2.0**100 for v in values):  # float32, where it holds them exactly
        forms.append(np.array(values, dtype=np.float32))
    if all(math.isfinite(v) for v in values):  # np.float64 scalars of the same numbers
        forms.append(tuple(map(np.float64, values)))
    return forms


def _pair_forms(values):
    forms = _vector_forms(values)
    if len(values) == 2:
        forms.append(ClarkeCoords(*values))
    return forms


def _agree(call, forms):
    outcomes = [_outcome(call, form) for form in forms]
    assert all(o == outcomes[0] for o in outcomes), outcomes
    return outcomes[0]


@pytest.mark.parametrize("n", [3, 4])
def test_each_input_type_gives_the_same_values_and_errors(n):
    geometry = RobotGeometry(n=n, d=0.01, l=0.1)
    schemes = [s for s in LegacyScheme if s.n == n]
    rng = np.random.default_rng(40 + n)
    # multiples of 2**-30 below 2**-9: exact in float32 too
    exact = lambda size: (rng.integers(-2**21, 2**21, size) * 2.0**-30).tolist()  # noqa: E731
    a, b = exact(2)
    inside = [a, b, -a - b] if n == 3 else [a, b, -a, -b]  # in the joint space
    vectors = [exact(n) for _ in range(20)] + [
        inside, [0.0] * n,
        [math.nan] + [0.0] * (n - 1), [1.0, math.inf] + [0.0] * (n - 2),
        [0.0] * (n + 1), [0.0] * (n - 1), [1e308, -1e308] + [0.0] * (n - 2),
    ]
    pairs = [exact(2) for _ in range(20)] + [
        [0.0, 0.0], [math.nan, 0.0], [0.0, -math.inf], [1.0, 2.0, 3.0], [1.0],
        [3 * 2.0**-10, 2.0**-43], [1e308, 1e308],
    ]
    members = set()
    for values in vectors:
        forms = _vector_forms(values)
        members.add(_agree(lambda rho: contains(geometry, rho), forms)[-1])
        _agree(lambda rho: forward_transform(geometry, rho), forms)
    assert members == {True, False, "expected %d joint displacements, got shape (%d,)" % (n, n + 1),
                       "expected %d joint displacements, got shape (%d,)" % (n, n - 1)}
    outcomes = set()
    for values in pairs:
        forms = _pair_forms(values)
        outcomes.add(_agree(lambda c: inverse_transform(geometry, c), forms)[0])
        for strategy in SingularityStrategy:
            _agree(lambda c: forward_kinematics(geometry, c, strategy), forms)
        for scheme in schemes:
            _agree(lambda c: legacy_from_clarke(scheme, geometry, c), forms)
    assert outcomes == {"array", ValueError}


G4 = RobotGeometry(n=4, d=0.01, l=0.1)
ALLEN4 = LegacyScheme.ALLEN4
ADD_EPSILON = SingularityStrategy.ADD_EPSILON


# Each constructor given numpy scalars, maps of what it builds, and how many
# of them raise their own ValueError; each other one returns Python floats
# (a finite pose for FK).
NUMPY_BUILT = {
    "RobotGeometry": (lambda: RobotGeometry(n=np.int64(4), d=np.float64(0.01), l=np.float64(0.1)), [
        lambda g: arc_from_clarke(g, (1e307, 0.0)),
        lambda g: arc_from_clarke(g, (1e-3, 2e-3)),
        lambda g: legacy_from_clarke(ALLEN4, g, (1e307, 0.0)),
        lambda g: legacy_from_clarke(ALLEN4, g, (1e-3, 2e-3)),
        lambda g: clarke_from_legacy(ALLEN4, g, (1e-3, 2e-3)),
        lambda g: forward_kinematics(g, (1e307, 1e307)),
        lambda g: forward_kinematics(g, (1e-3, 2e-3)),
    ], 3),
    "RegularizationConfig": (lambda: RegularizationConfig(np.float64(1e-11), np.float64(0.0), np.float64(1.0)), [
        lambda c: forward_kinematics(G4, (1e100, 0.0), ADD_EPSILON, c),
        lambda c: forward_kinematics(G4, (1e100, 0.0), SingularityStrategy.ADAPTIVE_EPSILON, c),
        lambda c: forward_kinematics(G4, (0.0, 0.0), ADD_EPSILON, c),
    ], 0),
    "ArcParams": (lambda: ArcParams(theta=np.float64(0.5), phi=np.float64(1e300), kappa=np.float64(1e301)), [
        lambda a: clarke_from_arc(G4, a),
        lambda a: clarke_from_arc(RobotGeometry(n=4, d=1e10, l=0.1), a),
    ], 1),
}


@pytest.mark.parametrize("name", list(NUMPY_BUILT))
def test_numpy_scalar_fields_are_stored_as_python_numbers(name):
    build, maps, want_errors = NUMPY_BUILT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = build()
        assert not [v for v in vars(built).values() if isinstance(v, np.generic)]
        errors = 0
        for call in maps:
            try:
                result = call(built)
            except ValueError:
                errors += 1
                continue
            if isinstance(result, Pose):
                assert np.isfinite(result.position).all() and np.isfinite(result.rotation).all()
            else:
                values = vars(result).values() if isinstance(result, ArcParams) else result
                assert all(type(v) is float for v in values if not isinstance(v, LegacyScheme))
    assert errors == want_errors


# Each map of a vector, a pair or rows, and the name its error gives the input.
VECTOR_MAPS = {
    "joint displacements": [
        lambda v: forward_transform(G4, v), lambda v: contains(G4, v), lambda v: project(G4, v),
        lambda v: regularized_magnitude(G4, v, RegularizationConfig(1e-11)),
        lambda v: displacements_to_lengths(G4, v),
        lambda v: legacy_from_displacements(ALLEN4, G4, v),
    ],
    "lengths": [lambda v: legacy_from_lengths(ALLEN4, G4, v), lambda v: clarke_from_lengths(G4, v)],
    "rows of 4 values": [
        lambda v: forward_transform_rows(G4, [v]), lambda v: contains_rows(G4, [v]),
        lambda v: legacy_from_lengths_rows(ALLEN4, G4, [v]),
        lambda v: clarke_from_lengths_rows(G4, [v]),
    ],
}
PAIR_MAPS = {
    "Clarke coordinates": [
        lambda p: inverse_transform(G4, p), lambda p: arc_from_clarke(G4, p),
        lambda p: legacy_from_clarke(ALLEN4, G4, p),
    ] + [lambda p, s=s: forward_kinematics(G4, p, s) for s in SingularityStrategy],
    "allen4 parameters": [
        lambda p: clarke_from_legacy(ALLEN4, G4, p),
        lambda p: clarke_from_legacy(ALLEN4, G4, LegacyPair(ALLEN4, *p)),
    ],
    "rows of 2 values": [
        lambda p: inverse_transform_rows(G4, [p]), lambda p: legacy_from_clarke_rows(ALLEN4, G4, [p]),
        lambda p: clarke_from_legacy_rows(ALLEN4, G4, [p]),
    ] + [lambda p, s=s: forward_kinematics_rows(G4, [p], s) for s in SingularityStrategy],
}


# entries that are not real numbers: numpy cannot convert the first ones, and
# would read "1" and b"1" as 1.0, keep the real part of a numpy complex and
# read None as NaN
ENTRIES = [10**400, -10**400, 1j, {"a": 1}, "a", "1", b"1", np.complex128(1 + 1j), None]
ENTRY_IDS = ["int-above", "int-below", "complex", "dict", "str", "numeric-str", "bytes",
             "numpy-complex", "none"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_entries_that_are_not_real_numbers_raise_value_error_naming_the_input(entry):
    cases = [(maps, [entry, 0.0, 0.0, 0.0]) for maps in VECTOR_MAPS.items()]
    cases += [(maps, [0.0, entry]) for maps in PAIR_MAPS.items()]
    for (what, maps), values in cases:
        for call in maps:
            with pytest.raises(ValueError, match=re.escape(f"{what} must be real numbers")) as info:
                call(values)
            assert type(info.value) is ValueError
    with pytest.raises(GeometryError, match="joint angles must be real numbers"):
        RobotGeometry(n=4, d=0.01, l=0.1, psi=[entry, 0.0, 0.0, 0.0])


def test_a_whole_input_that_is_not_real_numbers_raises_value_error_naming_it():
    """A dict, which numpy cannot convert, and an array of numeric strings, which
    numpy converts and float_array refuses itself."""
    for what, call in [
        ("joint displacements", lambda x: forward_transform(G4, x)),
        ("Clarke coordinates", lambda x: forward_kinematics(G4, x)),
        ("allen4 parameters", lambda x: clarke_from_legacy(ALLEN4, G4, x)),
        ("rows of 4 values", lambda x: contains_rows(G4, x)),
        ("rows of 2 values", lambda x: forward_kinematics_rows(G4, x)),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"{what} must be real numbers")):
            call({"a": 1})
        with pytest.raises(ValueError, match=re.escape(f"{what} must be real numbers, not <U1")):
            call(np.array(["1", "0", "0", "0"]))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_complex_arrays_raise_value_error_naming_the_input(dtype):
    """A complex array or scalar is refused, even with no imaginary part, before
    numpy casts it to its real part with a warning."""
    rho, clarke = np.array([1e-3, 0.0, 0.0, -1e-3], dtype=dtype), np.array([0.01, 0.0], dtype=dtype)
    calls = [
        ("joint displacements", lambda: forward_transform(G4, rho)),
        ("joint displacements", lambda: contains(G4, rho)),
        ("Clarke coordinates", lambda: inverse_transform(G4, clarke)),
        ("Clarke coordinates", lambda: forward_kinematics(G4, clarke)),
        ("Clarke coordinates", lambda: forward_kinematics(G4, dtype(0.01))),
        ("rows of 4 values", lambda: forward_transform_rows(G4, rho[None])),
        ("rows of 4 values", lambda: contains_rows(G4, rho[None])),
        ("rows of 2 values", lambda: inverse_transform_rows(G4, clarke[None])),
        ("rows of 2 values", lambda: forward_kinematics_rows(G4, clarke[None])),
        ("pose position", lambda: Pose(position=rho[:3], rotation=np.eye(3))),
        ("pose rotation", lambda: Pose(position=np.zeros(3), rotation=np.eye(3, dtype=dtype))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, call in calls:
            message = f"{what} must be real numbers, not {np.dtype(dtype)}"
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                call()
            assert type(info.value) is ValueError
        with pytest.raises(GeometryError, match="joint angles must be real numbers, not"):
            RobotGeometry(n=4, d=0.01, l=0.1, psi=np.zeros(4, dtype=dtype))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_a_pose_with_entries_that_are_not_real_numbers_raises_value_error_naming_it(entry):
    with pytest.raises(ValueError, match="pose position must be real numbers") as info:
        Pose(position=[entry, 0, 0], rotation=np.eye(3))
    assert type(info.value) is ValueError
    rotation = np.eye(3).tolist()
    rotation[1][2] = entry
    with pytest.raises(ValueError, match="pose rotation must be real numbers"):
        Pose(position=np.zeros(3), rotation=rotation)
