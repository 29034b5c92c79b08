import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from clarke_kinematics import (
    LegacyScheme,
    RobotGeometry,
    clarke_from_legacy,
    clarke_from_lengths,
    cli,
    inverse_transform_rows,
    legacy_from_clarke,
    sample,
)
from clarke_kinematics.cli import main


def write_geometry(path, n=4, d=0.01, l=0.1, extra=None):
    data = {"n": n, "d": d, "l": l}
    if extra:
        data.update(extra)
    path.write_text(json.dumps(data))
    return str(path)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(argv, stdout, unbuffered=False):
    """Start clarke-kin in a child process, with stdout as given and stderr piped."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "clarke_kinematics.cli", *argv]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


def run_check(tmp_path, n_max, stdout, unbuffered=False):
    """Start `check` in a child process, with stdout as given and stderr piped."""
    argv = ["check", "--geometry", write_geometry(tmp_path / "g.json"), "--n-max", str(n_max)]
    return run_cli(argv, stdout, unbuffered)


def assert_stdout_error(proc):
    """Exit 2 with one stderr line naming stdout, and no traceback."""
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, rows


class TestTransform:
    def test_forward_single_row(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_1", "rho_2", "rho_3", "rho_4"],
                        [[1.0, 0.0, -1.0, 0.0]])
        out = tmp_path / "out.csv"
        assert main(["transform", "--geometry", geom, "--input", inp,
                     "--direction", "forward", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["rho_re", "rho_im"]
        np.testing.assert_allclose(rows, [[1.0, 0.0]], atol=1e-15)

    def test_forward_filters_constants(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=3)
        inp = write_csv(tmp_path / "in.csv", ["rho_1", "rho_2", "rho_3"], [[1.0, 1.0, 1.0]])
        out = tmp_path / "out.csv"
        assert main(["transform", "--geometry", geom, "--input", inp,
                     "--direction", "forward", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        np.testing.assert_allclose(rows, [[0.0, 0.0]], atol=1e-15)

    def test_inverse_then_forward_round_trip(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        rng = np.random.default_rng(0)
        clarke_rows = rng.normal(scale=0.01, size=(50, 2))
        inp = write_csv(tmp_path / "clarke.csv", ["rho_re", "rho_im"], clarke_rows)
        mid = tmp_path / "rho.csv"
        out = tmp_path / "back.csv"
        assert main(["transform", "--geometry", geom, "--input", inp,
                     "--direction", "inverse", "--output", str(mid)]) == 0
        assert main(["transform", "--geometry", geom, "--input", str(mid),
                     "--direction", "forward", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        np.testing.assert_allclose(rows, clarke_rows, rtol=1e-12, atol=1e-14)

    def test_schema_mismatch_exits_2(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_1", "rho_2"], [[1.0, 2.0]])
        assert main(["transform", "--geometry", geom, "--input", inp,
                     "--direction", "forward", "--output", str(tmp_path / "o.csv")]) == 2

    def test_unparsable_cell_exits_3_and_names_cell(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        path = tmp_path / "in.csv"
        path.write_text("rho_1,rho_2,rho_3,rho_4\n1,0,zero,0\n")
        code = main(["transform", "--geometry", geom, "--input", str(path),
                     "--direction", "forward", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 1" in err and "rho_3" in err

    def test_utf8_bom_header_accepted(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        path = tmp_path / "in.csv"
        path.write_bytes("\ufeffrho_re,rho_im\n0.01,0\n".encode("utf-8"))
        out = tmp_path / "o.csv"
        assert main(["transform", "--geometry", geom, "--input", str(path),
                     "--direction", "inverse", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        np.testing.assert_allclose(rows, [[0.01, 0.0, -0.01, 0.0]], atol=1e-15)

    def test_non_finite_cell_exits_3(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        path = tmp_path / "in.csv"
        path.write_text("rho_1,rho_2,rho_3,rho_4\n1,0,inf,0\n")
        assert main(["transform", "--geometry", geom, "--input", str(path),
                     "--direction", "forward", "--output", str(tmp_path / "o.csv")]) == 3

    def test_output_round_trips_bit_exactly(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        rng = np.random.default_rng(1)
        clarke_rows = rng.normal(scale=0.01, size=(20, 2))
        inp = write_csv(tmp_path / "c.csv", ["rho_re", "rho_im"], clarke_rows)
        out = tmp_path / "rho.csv"
        main(["transform", "--geometry", geom, "--input", inp,
              "--direction", "inverse", "--output", str(out)])
        geometry = RobotGeometry(n=4, d=0.01, l=0.1)
        _, rows = read_csv(out)
        expected = np.array(
            [geometry.clarke.right_inverse @ c for c in clarke_rows]
        )
        np.testing.assert_array_equal(rows, expected)


class TestConvert:
    def test_dian3_from_clarke_is_identity(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=3)
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.01, -0.02]])
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "dian3",
                     "--from", "clarke", "--input", inp, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["delta_x", "delta_y"]
        np.testing.assert_array_equal(rows, [[0.01, -0.02]])

    def test_allen4_from_clarke(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=4)
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.005, 0.0]])
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "allen4",
                     "--from", "clarke", "--input", inp, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["u", "v"]
        np.testing.assert_allclose(rows, [[0.0, 1.0]], atol=1e-15)

    def test_legacy_to_clarke(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=4)
        inp = write_csv(tmp_path / "in.csv", ["delta_x", "delta_y"], [[0.003, 0.004]])
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "dellasantina4",
                     "--from", "legacy", "--input", inp, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["rho_re", "rho_im"]
        np.testing.assert_array_equal(rows, [[0.003, 0.004]])

    def test_uniform_lengths_give_zero_clarke(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=4)
        inp = write_csv(tmp_path / "in.csv", ["l_1", "l_2", "l_3", "l_4"],
                        [[0.1, 0.1, 0.1, 0.1]])
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--from", "lengths",
                     "--input", inp, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["rho_re", "rho_im"]
        np.testing.assert_allclose(rows, [[0.0, 0.0]], atol=1e-15)

    def test_lengths_with_scheme_gives_pair(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=3)
        inp = write_csv(tmp_path / "in.csv", ["l_1", "l_2", "l_3"],
                        [[0.09, 0.105, 0.105]])
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "dian3",
                     "--from", "lengths", "--input", inp, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["delta_x", "delta_y"]
        np.testing.assert_allclose(rows, [[0.01, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("scheme", [LegacyScheme.DIAN3, LegacyScheme.ALLEN3])
    def test_lengths_past_2_to_1021_give_the_clarke_routes_pair(self, tmp_path, scheme):
        """Finite rows whose 2 * rho_1 - rho_2 - rho_3 overflows convert: their pairs are finite."""
        geometry = RobotGeometry(n=3, d=1.0, l=0.1)
        clarke = [(1e308, 0.0), (0.0, -1e308), (-1.2e308, 1.2e308), (3e-3, -4e-3)]
        lengths = geometry.l - inverse_transform_rows(geometry, clarke)
        geom = write_geometry(tmp_path / "g.json", n=3, d=1.0)
        inp = write_csv(tmp_path / "in.csv", ["l_1", "l_2", "l_3"], lengths)
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", scheme.value,
                     "--from", "lengths", "--input", inp, "--output", str(out)]) == 0
        _, rows = read_csv(out)
        via = np.array([legacy_from_clarke(scheme, geometry, clarke_from_lengths(geometry, row))[1:]
                        for row in lengths])
        scale = np.abs(via).max(axis=1, keepdims=True)
        assert (np.abs(rows - via) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("source", ["clarke", "legacy"])
    def test_allen4_at_d_1e300_gives_the_clarke_routes_pair(self, tmp_path, source):
        """Rows where 2 * rho_re or the pair times d overflows before d brings it back."""
        geometry = RobotGeometry(n=4, d=1e300, l=0.1)
        clarke = [(1e308, 0.0), (-1.5e308, 1.5e308), (3e-3, -4e-3)]
        pairs = [legacy_from_clarke(LegacyScheme.ALLEN4, geometry, row)[1:] for row in clarke]
        rows, names, want = ((clarke, ["rho_re", "rho_im"], pairs) if source == "clarke" else
                             (pairs, ["u", "v"], [clarke_from_legacy(LegacyScheme.ALLEN4, geometry, p)
                                                  for p in pairs]))
        geom = write_geometry(tmp_path / "g.json", d=1e300)
        inp = write_csv(tmp_path / "in.csv", names, rows)
        out = tmp_path / "out.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "allen4", "--from", source,
                     "--input", inp, "--output", str(out)]) == 0
        np.testing.assert_array_equal(read_csv(out)[1], want)
        assert pairs[0] == (0.0, 2e8)
        if source == "legacy":
            np.testing.assert_allclose(want, clarke, rtol=2**-52, atol=0.0)

    def test_scheme_geometry_mismatch_exits_2(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=4)
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.0, 0.0]])
        assert main(["convert", "--geometry", geom, "--scheme", "dian3",
                     "--from", "clarke", "--input", inp,
                     "--output", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("source, header", [
        ("clarke", ["rho_re", "rho_im"]),
        ("lengths", ["l_1", "l_2", "l_3"]),
    ])
    def test_scheme_geometry_mismatch_on_header_only_input_exits_2(
        self, tmp_path, source, header
    ):
        geom = write_geometry(tmp_path / "g.json", n=3)
        inp = write_csv(tmp_path / "in.csv", header, [])
        out = tmp_path / "o.csv"
        assert main(["convert", "--geometry", geom, "--scheme", "allen4",
                     "--from", source, "--input", inp, "--output", str(out)]) == 2
        assert not out.exists()

    def test_missing_scheme_exits_2(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=4)
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.0, 0.0]])
        assert main(["convert", "--geometry", geom, "--from", "clarke",
                     "--input", inp, "--output", str(tmp_path / "o.csv")]) == 2


class TestFk:
    def test_straight_row(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.0, 0.0]])
        out = tmp_path / "out.csv"
        assert main(["fk", "--geometry", geom, "--input", inp,
                     "--strategy", "analytic-branch", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "z", "r11", "r12", "r13", "r21", "r22", "r23",
                          "r31", "r32", "r33"]
        np.testing.assert_array_equal(
            rows, [[0.0, 0.0, 0.1, 1, 0, 0, 0, 1, 0, 0, 0, 1]]
        )

    def test_quarter_arc_row(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"],
                        [[0.01 * math.pi / 2.0, 0.0]])
        out = tmp_path / "out.csv"
        assert main(["fk", "--geometry", geom, "--input", inp, "--output", str(out)]) == 0
        _, rows = read_csv(out)
        r = 2.0 * 0.1 / math.pi
        assert abs(rows[0, 0] - r) < 1e-9 and abs(rows[0, 2] - r) < 1e-9

    def test_avoid_straight_exits_4_with_row_index(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"],
                        [[0.01, 0.0], [0.0, 0.0]])
        code = main(["fk", "--geometry", geom, "--input", inp,
                     "--strategy", "avoid-straight", "--output", str(tmp_path / "o.csv")])
        assert code == 4
        assert "row 2" in capsys.readouterr().err

    def test_row_numbers_skip_blank_lines(self, tmp_path, capsys):
        """Domain and parse errors both count data rows, not file lines.

        A finite input whose pose is not finite is a domain error too.
        """
        geom = write_geometry(tmp_path / "g.json")
        path = tmp_path / "in.csv"
        out = tmp_path / "o.csv"
        for third_line, code in (("0,0", 4), ("x,0", 3), ("1e300,0", 4), ("1e308,1e308", 4)):
            path.write_text(f"rho_re,rho_im\n0.001,0\n\n{third_line}\n")
            assert main(["fk", "--geometry", geom, "--input", str(path), "--strategy",
                         "avoid-straight", "--output", str(out)]) == code
            assert "row 2" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_strategy_exits_2(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[0.0, 0.0]])
        assert main(["fk", "--geometry", geom, "--input", inp,
                     "--strategy", "hope", "--output", str(tmp_path / "o.csv")]) == 2

    def test_epsilon_flag_scientific_notation(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        inp = write_csv(tmp_path / "in.csv", ["rho_re", "rho_im"], [[1e-5, 0.0]])
        out = tmp_path / "o.csv"
        assert main(["fk", "--geometry", geom, "--input", inp, "--strategy",
                     "avoid-straight", "--epsilon", "1e-6", "--output", str(out)]) == 0


class TestSample:
    def test_reruns_are_byte_identical(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--geometry", geom, "--phi-max", "3.14159",
                         "--count", "5", "--seed", "7", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_sum_to_zero(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        out = tmp_path / "s.csv"
        main(["sample", "--geometry", geom, "--phi-max", str(math.pi),
              "--count", "100", "--seed", "7", "--output", str(out)])
        _, rows = read_csv(out)
        assert rows.shape == (100, 4)
        assert np.max(np.abs(rows.sum(axis=1))) <= 1e-12 * 4 * 0.01 * math.pi

    def test_rows_pass_membership_check(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        out = tmp_path / "s.csv"
        main(["sample", "--geometry", geom, "--phi-max", str(math.pi),
              "--count", "50", "--seed", "3", "--output", str(out)])
        assert main(["check", "--geometry", geom, "--n-max", "4",
                     "--membership", str(out)]) == 0

    def test_invalid_flags_exit_2(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        assert main(["sample", "--geometry", geom, "--phi-max", "-1", "--count", "5",
                     "--seed", "1", "--output", str(tmp_path / "s.csv")]) == 2
        assert main(["sample", "--geometry", geom, "--phi-max", "1", "--count", "0",
                     "--seed", "1", "--output", str(tmp_path / "s.csv")]) == 2
        assert main(["sample", "--geometry", geom, "--phi-max", "inf", "--count", "5",
                     "--seed", "1", "--output", str(tmp_path / "s.csv")]) == 2
        capsys.readouterr()
        # refusals of the library's own, which name the flag's value
        count = "1000000000000000000000000000000"
        for flags, message in (
            (["--count", "5", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["--count", count, "--seed", "1"],
             f"count must be at most {sys.maxsize // 32} for n=4, got {count}"),
        ):
            assert main(["sample", "--geometry", geom, "--phi-max", "1", *flags,
                         "--output", str(tmp_path / "s.csv")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "g.json"]

    def test_overflowing_draw_exits_2_and_writes_nothing(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json", d=1000)
        out = tmp_path / "s.csv"
        argv = ["sample", "--geometry", geom, "--count", "5", "--seed", "1", "--output", str(out)]
        assert main(argv + ["--phi-max", "1e306"]) == 2
        message = "error: phi_max 1e+306 at d 1000 gives non-finite joint displacements\n"
        assert capsys.readouterr().err == message
        assert sorted(tmp_path.iterdir()) == [tmp_path / "g.json"]
        assert main(argv + ["--phi-max", "1e305"]) == 0
        rows = sample(RobotGeometry(n=4, d=1000, l=0.1), 1e305, 5, seed=1)
        want = tmp_path / "want.csv"
        write_csv(want, [f"rho_{i}" for i in range(1, 5)], rows)
        assert np.isfinite(rows).all() and out.read_text() == want.read_text()

    def test_out_of_memory_while_writing_exits_2(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        out = tmp_path / "s.csv"
        with mock.patch.object(cli, "_format_rows", side_effect=MemoryError):
            code = main(["sample", "--geometry", geom, "--phi-max", "3", "--count", "5",
                         "--seed", "1", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: sample: not enough memory for 5 rows\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "g.json"]


class TestCheck:
    def test_out_of_memory_in_the_suite_exits_2(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        with mock.patch.object(cli.identities, "run_identity_suite", side_effect=MemoryError):
            code = main(["check", "--geometry", geom, "--n-max", "200"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: check: not enough memory for the suite up to n=200\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "g.json"]

    def test_suite_passes_through_n12(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        assert main(["check", "--geometry", geom, "--n-max", "12"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_n_max_below_3_exits_2(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        assert main(["check", "--geometry", geom, "--n-max", "2"]) == 2
        # above the limit: refused before the suite builds any projector
        for n_max in ("257", "100000000"):
            assert main(["check", "--geometry", geom, "--n-max", n_max]) == 2
            assert "between 3 and 256" in capsys.readouterr().err

    def test_subnormal_d_fails_the_allen_checks_and_names_the_worst(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json", d=5e-324)
        assert main(["check", "--geometry", geom, "--n-max", "4"]) == 1
        out, err = capsys.readouterr()
        failed = [line.split() for line in out.splitlines() if line.endswith("FAIL")]
        assert [(row[0], row[2]) for row in failed] == [
            ("scheme_equivalence_allen3", "inf"), ("scheme_equivalence_allen4", "inf")]
        assert err == ("2 identity check(s) failed; worst: scheme_equivalence_allen3 "
                       "at n=3, residual inf\n")

    def test_unreadable_or_non_object_geometry_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["check", "--geometry", missing, "--n-max", "4"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read geometry file {missing}: ")
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        assert main(["check", "--geometry", str(array), "--n-max", "4"]) == 2
        assert capsys.readouterr().err == f"error: geometry file {array} must hold a JSON object\n"

    def test_corrupted_geometry_rejected(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", extra={"psi": [0.0, 1.0, 2.0, 3.0]})
        assert main(["check", "--geometry", geom, "--n-max", "4"]) == 2

    def test_geometry_with_missing_key_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 4, "d": 0.01}))
        assert main(["check", "--geometry", str(path), "--n-max", "4"]) == 2

    def test_geometry_with_invalid_n_rejected(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json", n=2)
        assert main(["check", "--geometry", geom, "--n-max", "4"]) == 2

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        geom = write_geometry(tmp_path / "g.json")
        monkeypatch.setenv("CLARKE_KIN_TOL", "1e-10")
        assert main(["check", "--geometry", geom, "--n-max", "4"]) == 0

    def test_invalid_tolerance_env_exits_2(self, tmp_path, monkeypatch, capsys):
        geom = write_geometry(tmp_path / "g.json")
        for raw in ("banana", "-1", "0", "nan", "inf"):
            monkeypatch.setenv("CLARKE_KIN_TOL", raw)
            assert main(["check", "--geometry", geom, "--n-max", "4"]) == 2
        monkeypatch.delenv("CLARKE_KIN_TOL")
        for raw in ("0", "-1", "nan", "inf"):
            assert main(["check", "--geometry", geom, "--n-max", "4", "--tol", raw]) == 2
        # refused before the suite runs: no identity table on stdout
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n,d", [(4, '"0.01"'), (4, "true"), (4, "1" + "0" * 400),
                                     ("4.0", "0.01"), (4, "1e400"), ("1" * 5000, "0.01")])
    def test_geometry_values_must_be_json_numbers(self, tmp_path, capsys, n, d):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": {n}, "d": {d}, "l": 0.1}}')
        assert main(["check", "--geometry", str(path), "--n-max", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_joint_count_above_the_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": 100000000000000000000, "d": 0.01, "l": 0.1}')
        assert main(["check", "--geometry", str(path), "--n-max", "4"]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid geometry in {path}: at most 1024 joints supported, "
            "got n=100000000000000000000\n"
        )

    def test_integer_geometry_values_give_the_same_bytes(self, tmp_path):
        rows = [[1e-3, 2e-3], [0.0, 0.0], [-3e-4, 1e-9]]
        clarke = write_csv(tmp_path / "c.csv", ["rho_re", "rho_im"], rows)
        outputs = []
        for d, l in ((1, 2), (1.0, 2.0)):
            geom = write_geometry(tmp_path / "g.json", d=d, l=l)
            out = tmp_path / f"fk{d!r}.csv"
            assert main(["fk", "--geometry", geom, "--input", clarke,
                         "--strategy", "adaptive-epsilon", "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_closed_stdout_pipe_exits_2(self, tmp_path):
        """check --n-max 200 | head -1: the report outgrows the pipe, whose reader has gone."""
        proc = run_check(tmp_path, 200, subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"identity ")
        proc.stdout.close()
        assert_stdout_error(proc)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_2(self, tmp_path, unbuffered):
        """Buffered, the write fails in main's flush; unbuffered, in the first print."""
        with open("/dev/full", "wb") as full:
            proc = run_check(tmp_path, 4, full, unbuffered)
        assert_stdout_error(proc)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["fk", "--help"]], ids=["main", "fk"])
    def test_help_on_full_stdout_exits_2(self, argv, unbuffered):
        """Unbuffered, the help's own write fails, which argparse would ignore."""
        with open("/dev/full", "wb") as full:
            proc = run_cli(argv, full, unbuffered)
        assert_stdout_error(proc)

    def test_membership_failure_exits_1(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        bad = write_csv(tmp_path / "bad.csv", ["rho_1", "rho_2", "rho_3", "rho_4"],
                        [[1.0, 1.0, 1.0, 1.0]])
        assert main(["check", "--geometry", geom, "--n-max", "4",
                     "--membership", bad]) == 1


class TestEndToEnd:
    def test_sample_forward_inverse_reproduces_file(self, tmp_path):
        geom = write_geometry(tmp_path / "g.json")
        sampled = tmp_path / "s.csv"
        clarke = tmp_path / "c.csv"
        back = tmp_path / "b.csv"
        assert main(["sample", "--geometry", geom, "--phi-max", str(math.pi),
                     "--count", "100", "--seed", "11", "--output", str(sampled)]) == 0
        assert main(["transform", "--geometry", geom, "--input", str(sampled),
                     "--direction", "forward", "--output", str(clarke)]) == 0
        assert main(["transform", "--geometry", geom, "--input", str(clarke),
                     "--direction", "inverse", "--output", str(back)]) == 0
        _, original = read_csv(sampled)
        _, reproduced = read_csv(back)
        scale = max(1.0, float(np.max(np.abs(original))))
        assert float(np.max(np.abs(reproduced - original))) <= 1e-12 * scale

    def test_missing_or_empty_input_exits_2(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        missing, empty = tmp_path / "missing.csv", tmp_path / "empty.csv"
        empty.write_bytes(b"")
        for path, message in ((missing, f"cannot read {missing}: [Errno 2] "),
                              (empty, f"{empty} is empty, expected a header row")):
            out = tmp_path / "o.csv"
            assert main(["fk", "--geometry", geom, "--input", str(path), "--output", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not out.exists()

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_non_utf8_files_exit_2_and_name_the_file(self, tmp_path, capsys):
        geom = write_geometry(tmp_path / "g.json")
        bad_geom = tmp_path / "bad.json"
        bad_geom.write_bytes(b'{"n": 4, "d": 0.01, "l": 0.1}\xff')
        clarke = tmp_path / "c.csv"
        clarke.write_bytes(b"rho_re,rho_im\n0.001,0\xff\n")
        rho = tmp_path / "rho.csv"
        rho.write_bytes(b"rho_1,rho_2,rho_3,rho_4\n0,0,0,0\xff\n")
        for argv, path in (
            (["fk", "--geometry", geom, "--input", str(clarke),
              "--output", str(tmp_path / "o.csv")], clarke),
            (["check", "--geometry", geom, "--n-max", "4", "--membership", str(rho)], rho),
            (["check", "--geometry", str(bad_geom), "--n-max", "4"], bad_geom),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert str(path) in captured.err
            if argv[0] == "check":
                assert captured.out == ""
        # read in 16-byte blocks, a byte that is not UTF-8 in a later block
        # still outranks row 1, bad or good: exit 2, and nothing is written
        out = tmp_path / "o.csv"
        for first_row in (b"x,0\n", b"0.001,0\n"):
            clarke.write_bytes(b"rho_re,rho_im\n" + first_row + b"0.001,0\n" * 8 + b"0,\xff\n")
            with mock.patch.object(cli, "_READ_BYTES", 16):
                code = main(["fk", "--geometry", geom, "--input", str(clarke), "--output", str(out)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith(f"error: cannot read {clarke}: ")
            assert not out.exists()
