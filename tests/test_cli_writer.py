"""The CSV writer against the per-cell %.17g reference, byte for byte.

reference_write_table is the writer as it was before it formatted with
numpy: one %.17g per cell.  cli._write_table must write the same bytes for
every finite float64, on every chunk size, and hold no more memory.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarke_kinematics import cli
from clarke_kinematics.kinematics import _POSE_REPEATS


def reference_write_table(path, header, rows):
    """Write the header and the rows of an (N, k) array, every value as %.17g."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), 4096):
            chunk = rows[start : start + 4096]
            fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def _neighbours(v):
    return [v, -v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, math.inf))]


def _tie(r, j, s):
    """m / 2**j with |x| * 10**(16 - k) = D + 1/2 + s / 2**r exactly, or None.

    m / 2**j = m * 5**j / 10**j, so its decimal digits are those of m * 5**j;
    with 17 + r of them, the fraction of the 17-digit scaled value is
    (m * 5**(j - r) mod 2**r) / 2**r (j >= r), which m's residue sets.
    """
    residue = (2 ** (r - 1) + s) * pow(5 ** (j - r), -1, 2**r) % 2**r
    low = -(-(10 ** (16 + r)) // 5**j)
    m = low + (residue - low) % 2**r
    if m >= min(10 ** (17 + r) // 5**j, 2**53):
        return None
    return m / 2**j


# s = 0: exact ties; |s| / 2**r <= 1e-12: within 1e-12 of one
TIES = [v for r in range(1, 53) for j in range(r, r + 80) for s in (0, 1, -1)
        if (s == 0 or r >= 40) and (v := _tie(r, j, s)) is not None]

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280, 0.5, 1.0, 2.0**60,
           2.0**-60, 1.52588653564453125, 123456789012345678.0, 9.9999999999999995e-5]

finite = st.floats(allow_nan=False, allow_infinity=False)
powers_of_ten = st.integers(-323, 308).map(lambda e: float(f"1e{e}"))
# the decimal exponent k on each side of %g's switch between forms, and
# values that carry into the next power of ten
k_boundaries = st.tuples(st.integers(-5, 17), st.integers(10**16, 10**17 - 1)).flatmap(
    lambda kd: st.sampled_from(
        _neighbours(10.0 ** kd[0]) + [float(f"{kd[1]}e{kd[0] - 16}"), float(f"9.99999999999999999e{kd[0] - 1}")]
    )
)
cells = st.one_of(
    finite,
    st.sampled_from(SPECIAL),
    powers_of_ten.flatmap(lambda v: st.sampled_from(_neighbours(v))),
    st.sampled_from(TIES).flatmap(lambda v: st.sampled_from([v, -v])),
    k_boundaries,
)


@st.composite
def tables(draw, widths=(1, 2, 3, 12)):
    k = draw(st.sampled_from(widths))
    n = draw(st.integers(0, 8))
    return np.array(draw(st.lists(cells, min_size=n * k, max_size=n * k)), dtype=float).reshape(n, k)


def _assert_writes_as_reference(tmp_path, table):
    header = [f"c_{i}" for i in range(table.shape[1])]
    reference_write_table(str(tmp_path / "want.csv"), header, table)
    cli._write_table(str(tmp_path / "got.csv"), header, table)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_ties_are_built_as_stated():
    exact = 0
    for v in TIES:
        x, k = Fraction(v), math.floor(math.log10(v))
        k += (x >= Fraction(10) ** (k + 1)) - (x < Fraction(10) ** k)
        scaled = x * Fraction(10) ** (16 - k)
        assert 10**16 <= scaled < 10**17
        distance = abs(scaled - math.floor(scaled) - Fraction(1, 2))
        assert distance <= Fraction(1, 10**12)
        exact += distance == 0
    assert exact > 500 and len(TIES) - exact > 100


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from([1, 2, 3, cli._CHUNK_CELLS]))
def test_writer_matches_reference(tmp_path_factory, table, chunk_cells):
    with mock.patch.object(cli, "_CHUNK_CELLS", chunk_cells):
        _assert_writes_as_reference(tmp_path_factory.mktemp("writer"), table)


@pytest.mark.parametrize("columns", [1, 2, 3, 12])
def test_writer_matches_reference_on_bit_patterns(tmp_path, columns):
    bits = np.random.default_rng(columns).integers(0, 2**64, size=24_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    values = np.concatenate([values, TIES, SPECIAL])
    _assert_writes_as_reference(tmp_path, values[: len(values) // columns * columns].reshape(-1, columns))


def test_writer_matches_reference_off_the_fast_path(tmp_path):
    """Non-finite values take the per-cell path; the CLI never writes them."""
    table = np.array([[math.inf, -math.inf, math.nan], [-math.nan, 1e-300, -1e300]])
    _assert_writes_as_reference(tmp_path, table)


def test_writer_peak_within_reference(tmp_path):
    """Writing a 20 000 x 12 table peaks at most 1 MiB above the reference writer."""
    header = [f"rho_{i}" for i in range(1, 13)]
    table = np.random.default_rng(11).normal(scale=0.01, size=(20_000, 12))
    cli._format_tables()  # built once per process; counted apart from the write

    def peak(write, name):
        tracemalloc.start()
        try:
            write(str(tmp_path / name), header, table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(cli._write_table, "got.csv") <= peak(reference_write_table, "want.csv") + 2**20
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(tables(widths=(12,)), st.sampled_from([1, 2, 3, 24, cli._CHUNK_CELLS]),
       st.lists(st.integers(-1, 7), min_size=3, max_size=3))
def test_repeated_columns_write_as_reference(tmp_path_factory, table, chunk_cells, broken):
    """Columns set to their declared source, or its negation, are written as the
    reference writes them, and so is a column whose repeat one row breaks
    (row `broken`, -1 or past the end for none)."""
    for (column, source, negated), row in zip(_POSE_REPEATS, broken):
        table[:, column] = -table[:, source] if negated else table[:, source]
        if 0 <= row < len(table):
            table[row : row + 1, column].view(np.uint64)[0] ^= np.uint64(1)  # the last bit: still finite
    header = [f"c_{i}" for i in range(12)]
    path = tmp_path_factory.mktemp("repeats")
    reference_write_table(str(path / "want.csv"), header, table)
    with mock.patch.object(cli, "_CHUNK_CELLS", chunk_cells):
        cli._write_table(str(path / "got.csv"), header, table, None, _POSE_REPEATS)
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def test_fk_formats_in_full_a_repeat_its_kernel_breaks(tmp_path):
    """r21 is nudged off r12 in one row of the second mapped block only.

    That block writes r21 cell by cell and the others copy it from r12, and
    the file is the one-%.17g-per-cell reference of what the kernel gave.
    """
    geometry = tmp_path / "g.json"
    geometry.write_text('{"n": 4, "d": 0.01, "l": 0.1}')
    clarke = np.random.default_rng(21).normal(scale=0.01, size=(20_000, 2))
    clarke[::97] = 0.0  # straight rows
    cli._write_table(str(tmp_path / "clarke.csv"), ["rho_re", "rho_im"], clarke)
    mapped, held = [], []
    kernel, format_rows = cli.forward_kinematics_rows, cli._format_rows

    def broken_kernel(*args):
        poses = kernel(*args)
        if len(mapped) == 1:
            poses[100, 6] = np.nextafter(poses[100, 6], math.inf)
        mapped.append(poses.copy())
        return poses

    def spied_format(rows, repeats=()):
        held.append((len(mapped), repeats))
        return format_rows(rows, repeats)

    with mock.patch.object(cli, "forward_kinematics_rows", broken_kernel), \
            mock.patch.object(cli, "_format_rows", spied_format):
        assert cli.main(["fk", "--geometry", str(geometry), "--input", str(tmp_path / "clarke.csv"),
                         "--output", str(tmp_path / "got.csv")]) == cli.EXIT_OK
    assert len(mapped) == 3
    assert {repeats for block, repeats in held if block != 2} == {_POSE_REPEATS}
    assert {repeats for block, repeats in held if block == 2} == {_POSE_REPEATS[1:]}
    header = ["x", "y", "z"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    reference_write_table(str(tmp_path / "want.csv"), header, np.concatenate(mapped))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
