"""Command-line interface: exit codes, formats, loaders, verify suites."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nahmpole import cli
from nahmpole.geometry import load_background
from nahmpole.scalars import RationalField
from nahmpole.series import expand, from_json, to_json

from conftest import rotated_h3_file


MATCHED_S3 = {"c_minus": [["-2/3", "0", "0"],
                          ["0", "-2/3", "0"],
                          ["0", "0", "-2/3"]]}
#: ``c^0_01 = 1`` with ``c^0_10 = 0``: structure constants that are not antisymmetric.
_NOT_ANTISYMMETRIC = [[["0", "1", "0"], ["0"] * 3, ["0"] * 3], [["0"] * 3] * 3,
                      [["0"] * 3] * 3]
#: ``c^0_01 = c^1_12 = 1``, antisymmetric: the ``_non_jacobi_c`` of test_exact_frame.py.
_NON_JACOBI = [[["0", "1", "0"], ["-1", "0", "0"], ["0"] * 3],
               [["0"] * 3, ["0", "0", "1"], ["0", "-1", "0"]], [["0"] * 3] * 3]


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("NAHM_COLOR", "0")


def _write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestBackgrounds:
    def test_lists_catalog(self, capsys):
        assert cli.main(["backgrounds"]) == 0
        out = capsys.readouterr().out
        for name in ("flat", "round-s3", "hyperbolic-h3", "berger-s3", "h2xr"):
            assert f"builtin:{name}" in out
        assert "einstein" in out and "non-einstein" in out
        assert "squash=Q" in out


class TestExpand:
    def test_json_output_round_trips(self, capsys, tmp_path, field):
        free = _write_json(tmp_path, "free.json", MATCHED_S3)
        out_file = tmp_path / "series.json"
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--order", "6",
                         "--format", "json", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        bg = load_background("builtin:round-s3", field)
        series = from_json(text, background=bg)
        assert to_json(series) == text
        err = capsys.readouterr().err
        assert "log_free=true" in err
        assert "einstein=true" in err
        assert "parity=ok" in err

    def test_csv_contains_known_coefficient(self, capsys, tmp_path):
        free = _write_json(tmp_path, "free.json", MATCHED_S3)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--order", "4",
                         "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("k,p,")
        k4 = [ln for ln in lines if ln.startswith("4,0,")]
        assert len(k4) == 1
        assert "2/9" in k4[0]

    def test_pretty_contains_known_coefficient(self, capsys, tmp_path):
        free = _write_json(tmp_path, "free.json", MATCHED_S3)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--order", "4",
                         "--format", "pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/9" in out
        # a log-free series renders no log-weighted blocks
        assert "log" not in out

    def test_log_background_summary(self, capsys):
        code = cli.main(["expand", "--background",
                         "builtin:berger-s3?squash=2", "--order", "3",
                         "--format", "pretty"])
        assert code == 0
        captured = capsys.readouterr()
        assert "(log y)^1" in captured.out
        assert "log_free=false" in captured.err
        assert "einstein=false" in captured.err
        assert "parity=ok" in captured.err

    def test_float_mode(self, capsys, tmp_path):
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--order", "3", "--scalar", "float",
                         "--prec", "128", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["background"] == "round-s3"

    def test_float64_squashed_berger_tracks_rational(self, capsys, field):
        # squash=5 coefficients grow large enough that round-off in a
        # non-antisymmetric V0 projection used to trip the "Theta must lie
        # in V0" check at 64 bits
        bg = "builtin:berger-s3?squash=5"
        code = cli.main(["expand", "--background", bg, "--order", "12",
                         "--scalar", "float", "--prec", "64",
                         "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        exact = json.loads(to_json(expand(load_background(bg, field), N=12)))

        def values(doc):
            return {(e["k"], e["p"]): [Fraction(v) for v in
                                       [*e["a"][0], *e["a"][1], *e["a"][2],
                                        *e["b"][0], *e["b"][1], *e["b"][2],
                                        *e["phi_y"]]]
                    for e in doc["entries"]}

        got, exact = values(got), values(exact)
        assert set(got) == set(exact)
        for addr, want in exact.items():
            for g, w in zip(got[addr], want):
                assert abs(g - w) <= Fraction(1, 10**15) * max(abs(w), 1)

    def test_float64_rotated_frame_is_log_free(self, capsys, tmp_path):
        # at scale 1e5 the curvature's round-off exceeds the 64-bit tolerance
        # in absolute terms; judged against its scale, the frame loads and
        # keeps the rational verdicts
        code = cli.main(["expand", "--background", rotated_h3_file(tmp_path, 10**5),
                         "--order", "6", "--scalar", "float", "--prec", "64"])
        assert code == 0
        err = capsys.readouterr().err
        assert "log_free=true einstein=true parity=ok" in err

    @pytest.mark.parametrize("squash, bits", [("1e-8", 64), ("1e-10", 64),
                                              ("1e-20", 128)])
    def test_float_undecidable_einstein_verdict_is_refused(self, capsys, squash,
                                                           bits):
        # (*F)^+ ~ 2.67 is a visible part of *F (~4) but below the round-off
        # of its terms |W|^2 ~ 4 / squash^2: mixed verdicts were printed here
        code = cli.main(["expand", "--background",
                         f"builtin:berger-s3?squash={squash}", "--order", "4",
                         "--scalar", "float", "--prec", str(bits)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert f"cannot decide at {bits} bits" in err

    @pytest.mark.parametrize("squash, bits", [("1e-8", 128), ("2", 64),
                                              ("2", 128), ("5", 64), ("5", 128)])
    def test_float_einstein_verdict_is_rational(self, capsys, squash, bits):
        code = cli.main(["expand", "--background",
                         f"builtin:berger-s3?squash={squash}", "--order", "4",
                         "--scalar", "float", "--prec", str(bits)])
        assert code == 0
        assert "log_free=false einstein=false parity=ok" in capsys.readouterr().err

    def test_unknown_background(self, capsys):
        assert cli.main(["expand", "--background", "builtin:nosuch"]) == 1
        assert "cannot load background" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["scale=2", "squash=1/2", "nosuch=x"])
    def test_unknown_background_with_a_parameter(self, capsys, query):
        # the name is judged before its parameter
        assert cli.main(["expand", "--background", f"builtin:nosuch?{query}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "cannot load background: unknown builtin background 'nosuch'\n"

    def test_missing_background_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["expand", "--background", missing]) == 1

    def test_low_order(self, capsys):
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--order", "1"]) == 1
        assert "order" in capsys.readouterr().err

    def test_low_precision(self, capsys):
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--scalar", "float", "--prec", "32"]) == 1
        assert "precision" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["65537", "100000000000"])
    def test_precision_above_the_maximum(self, capsys, bits):
        # refused before any decimal context of that size is built
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--scalar", "float", "--prec", bits]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "float precision must be 64 to 65536 bits\n"

    @pytest.mark.parametrize("background, free, scalar", [
        ({"name": "x", "c": [[["0"]]]}, None, "rational"),
        ({"name": "x", "c": 5}, None, "rational"),
        ({"name": 5, "c": [[["0"] * 3] * 3] * 3}, None, "rational"),
        ("builtin:round-s3", {"c_plus": 5}, "rational"),
        ("builtin:round-s3", {"c_plus": [["abc"] * 3] * 3}, "float"),
        ("builtin:round-s3", {"c_plus": [["nan"] * 3] * 3}, "float"),
        ("builtin:round-s3", {"c_plus": [["1e99999999"] * 3] * 3}, "float"),
        ("builtin:round-s3", {"c_plus": [["1/0"] * 3] * 3}, "rational"),
        ("builtin:round-s3?scale=1/0", None, "rational"),
        ("builtin:round-s3?scale=1e103", None, "rational"),
        ("builtin:round-s3?scale=1e103", None, "float"),
        ("builtin:round-s3?scale=1e400", None, "rational"),
        ("builtin:round-s3?scale=1e-400", None, "float"),
        ("builtin:berger-s3?squash=1e308", None, "rational"),
        ("builtin:berger-s3?squash=1e-400", None, "float"),
        ({"name": "x", "c": [[["0"] * 3] * 3] * 3, "volume": "-3"}, None, "rational"),
        ({"name": "x", "c": [[["0"] * 3] * 3] * 3, "volume": "0"}, None, "rational"),
        ({"name": "x", "c": _NOT_ANTISYMMETRIC}, None, "rational"),
        ({"name": "x", "c": _NOT_ANTISYMMETRIC}, None, "float"),
        ({"name": "x", "c": _NON_JACOBI}, None, "float"),
    ], ids=["c-not-3x3x3", "c-not-a-list", "name-not-a-string",
            "free-slot-not-a-matrix",
            "float-bad-literal", "float-nan-literal", "float-overflow-literal",
            "free-zero-denominator",
            "builtin-zero-denominator",
            "builtin-volume-underflow", "builtin-volume-underflow-float",
            "builtin-scale-past-float", "builtin-scale-below-float",
            "builtin-volume-inf", "builtin-volume-zero",
            "volume-negative", "volume-zero", "c-not-antisymmetric",
            "c-not-antisymmetric-float", "c-non-jacobi-float"])
    def test_bad_input_is_one_line(self, capsys, tmp_path, background, free,
                                   scalar):
        if not isinstance(background, str):
            background = _write_json(tmp_path, "bg.json", background)
        argv = ["expand", "--background", background, "--scalar", scalar]
        if free is not None:
            argv += ["--free-data", _write_json(tmp_path, "free.json", free)]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--background", "builtin:hyperbolic-h3?scale=1e-3000", "--order", "2"],
        ["--background", "builtin:hyperbolic-h3?scale=1e3000", "--format", "csv"],
    ], ids=["json", "csv"])
    def test_unprintable_table_is_one_line(self, capsys, argv):
        # coefficients past Python's int-to-str digit limit used to end in a
        # traceback from RationalField.format
        assert cli.main(["expand", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("cannot print the table:")

    def test_exponent_past_the_digit_limit_is_refused(self):
        # decided from the literal: Fraction would build 10**5000 first
        with pytest.raises(ValueError, match="exponent"):
            RationalField().parse("1e5000")

    def test_unwritable_out_is_one_line(self, capsys, tmp_path):
        out_file = str(tmp_path / "missing" / "x.json")
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--out", out_file]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot write output:")

    def test_pretty_renders_every_part(self, capsys, tmp_path):
        # a V0 free datum gives a V0 part of a_2 and a degree-0 phi_y
        c_zero = {"c_zero": [["0", "1", "0"], ["-1", "0", "2"], ["0", "-2", "0"]]}
        free = _write_json(tmp_path, "free.json", c_zero)
        assert cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--order", "4",
                         "--format", "pretty"]) == 0
        out = capsys.readouterr().out
        assert ("y^2:\n  a:\n    V0-part: axial (2/1, 0/1, 1/1)\n"
                "  phi_y:\n    (-2/1, 0/1, -1/1)\n") in out
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--format", "pretty"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "(zero series: every coefficient vanishes)"


class TestFreeDataLoader:
    def test_rejects_off_eigenspace_exact(self, capsys, tmp_path):
        bad = {"c_plus": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        free = _write_json(tmp_path, "bad.json", bad)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free])
        assert code == 1
        assert "eigenspace" in capsys.readouterr().err

    def test_rejects_unknown_keys(self, capsys, tmp_path):
        free = _write_json(tmp_path, "bad.json", {"c_bogus": []})
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free])
        assert code == 1
        assert "unknown free-data keys" in capsys.readouterr().err

    def test_rejects_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", str(p)])
        assert code == 1

    def test_float_mode_accepts_near_eigenspace(self, tmp_path, capsys):
        # a value off V+ by ~1e-12 passes the float-mode gate
        near = {"c_plus": [["1.000000000001", "0", "0"],
                           ["0", "-0.5", "0"],
                           ["0", "0", "-0.5"]]}
        free = _write_json(tmp_path, "near.json", near)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--scalar", "float",
                         "--prec", "128", "--order", "2"])
        assert code == 0

    def test_float_mode_rejects_far_eigenspace(self, tmp_path, capsys):
        far = {"c_plus": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        free = _write_json(tmp_path, "far.json", far)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--scalar", "float",
                         "--prec", "128"])
        assert code == 1
        assert "eigenspace" in capsys.readouterr().err

    def test_float_mode_rejects_small_off_eigenspace(self, tmp_path, capsys):
        # a third of this matrix lies in V-: off V+ relative to its own size,
        # though every entry is below 1e-10 (rational mode rejects it too)
        small = {"c_plus": [["1e-12", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
        free = _write_json(tmp_path, "small.json", small)
        for scalar in ("float", "rational"):
            code = cli.main(["expand", "--background", "builtin:round-s3",
                             "--free-data", free, "--scalar", scalar, "--order", "2"])
            assert code == 1
            assert "eigenspace" in capsys.readouterr().err

    def test_float_refusal_gives_relative_deviation_and_bound(self, tmp_path,
                                                               capsys):
        small = {"c_plus": [["1e-12", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
        free = _write_json(tmp_path, "small.json", small)
        assert cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--scalar", "float"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert ("c_plus is off its declared eigenspace by 0.333333 of its "
                "largest entry (bound 1e-10)") in err

    def test_exact_refusal_is_the_free_data_check(self, tmp_path, capsys):
        # an exact matrix is checked once, by FreeData, whose message is the line
        off = {"c_plus": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
        free = _write_json(tmp_path, "off.json", off)
        assert cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--order", "2"]) == 1
        assert capsys.readouterr().err == (
            "cannot load free data: c_plus is not in its declared eigenspace\n")

    def test_float_mode_accepts_large_near_eigenspace(self, tmp_path, capsys):
        # a V+ matrix at scale 1e12 whose trace is 1e-2: off by a relative 3e-15
        large = {"c_plus": [["1e12", "0", "0"], ["0", "-5e11", "0"],
                            ["0", "0", "-499999999999.99"]]}
        free = _write_json(tmp_path, "large.json", large)
        code = cli.main(["expand", "--background", "builtin:round-s3",
                         "--free-data", free, "--scalar", "float",
                         "--prec", "128", "--order", "2"])
        assert code == 0, capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["s3", "hyperbolic", "flat",
                                       "identities", "einstein-catalog"])
    def test_suites_pass(self, capsys, suite):
        assert cli.main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "checks passed" in out
        assert "\x1b[" not in out  # NAHM_COLOR=0 strips ANSI

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "s3",
                            lambda: [("forced failure", False, "details here")])
        assert cli.main(["verify", "s3"]) == 3
        out = capsys.readouterr().out
        assert "FAIL forced failure" in out
        assert "details here" in out
        assert "0/1 checks passed" in out

    def test_failing_check_prints_its_detail(self, capsys, monkeypatch):
        # a check's detail is built only when it fails, as the form it names
        profile = cli.taylor_profile

        def perturbed(sol, order):
            fa, fphi = profile(sol, order)
            fa[2] += 1
            return fa, fphi

        monkeypatch.setattr(cli, "taylor_profile", perturbed)
        assert cli.main(["verify", "s3"]) == 3
        out = capsys.readouterr().out
        assert "FAIL a_2 matches profile\n     engine GForm(degree=1, coeffs=((Fraction(-2, 3), " \
            "Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-2, 3), " \
            "Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(-2, 3)))) " \
            "vs profile coefficient 1/3\n" in out
        assert "14/15 checks passed" in out

    def test_unknown_suite(self, capsys):
        assert cli.main(["verify", "bogus"]) == 1


class TestOdeCompare:
    def test_flat_runs_and_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "conv.csv"
        code = cli.main(["ode-compare", "flat", "--order", "2,3",
                         "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "N,max_err,slope"
        assert len(lines) == 3
        assert "ode check:" in capsys.readouterr().err

    def test_unwritable_out_is_one_line(self, capsys, tmp_path):
        out_file = str(tmp_path / "missing" / "x.csv")
        assert cli.main(["ode-compare", "flat", "--order", "2",
                         "--out", out_file]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot write output:")

    def test_unknown_solution(self, capsys):
        assert cli.main(["ode-compare", "bogus"]) == 1
        assert "no closed-form solution" in capsys.readouterr().err

    def test_bad_order_list(self, capsys):
        assert cli.main(["ode-compare", "flat", "--order", "2,x"]) == 1

    def test_orders_below_two(self, capsys):
        assert cli.main(["ode-compare", "flat", "--order", "1,2"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--y-min", "0"],
        ["--y-max", "0"],
        ["--y-min", "1.5"],
        ["--y-min", "0.2", "--y-max", "0.05"],
        ["--tol", "0"],
    ], ids=["y-min-zero", "y-max-zero", "y-min-above-one", "y-range-reversed",
            "tol-zero"])
    def test_bad_input_is_one_line(self, capsys, flags):
        assert cli.main(["ode-compare", "s3", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("y_max", ["20", "1e100"])
    def test_y_max_beyond_the_exact_window_is_one_line(self, capsys, y_max):
        assert cli.main(["ode-compare", "s3", "--y-max", y_max]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "--y-max <= 0.5" in err

    @pytest.mark.parametrize("y_min", ["1e-310", "2e-308"])
    def test_y_min_below_the_normal_floats_is_one_line(self, capsys, monkeypatch, y_min):
        # 1e-310 used to print three numpy overflow warnings (the pole e/y) and
        # exit 2 with a step size underflow; it is refused before the expansion
        def no_work(*args):
            raise AssertionError("expanded before validating")
        monkeypatch.setattr(cli, "expand", no_work)
        assert cli.main(["ode-compare", "s3", "--y-min", y_min, "--y-max", "1e-300"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("need --y-min >= 2.2250738585072014e-308")

    def test_step_underflow_is_a_math_error(self, capsys):
        # a valid but unreachable tolerance: its budget is below float64 round-off
        assert cli.main(["ode-compare", "s3", "--order", "2",
                         "--tol", "1e-30"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("math error: step size underflow")


class TestUsage:
    def test_runs_as_module(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "nahmpole", "backgrounds"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "builtin:round-s3" in done.stdout

    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli.main(["backgrounds", "--nope"]) == 1

    def test_bad_format_choice(self):
        assert cli.main(["expand", "--background", "builtin:flat",
                         "--format", "yaml"]) == 1

    def test_one_parser_serves_every_call(self, capsys):
        # usage errors, a valid expand and the help texts print the same
        # bytes and exit codes in one process as each does on a fresh parser
        runs = (["expand", "--order", "3"],
                ["expand", "--background", "builtin:round-s3", "--order", "4"],
                ["expand", "--background", "builtin:flat", "--format", "yaml"],
                ["expand", "--background", "builtin:h2xr", "--format", "csv"],
                ["--help"], ["expand", "--help"], ["verify", "--help"])

        def run(argv):
            return (cli.main(argv), *capsys.readouterr())

        together = [run(argv) for argv in runs]
        assert cli._build_parser() is cli._build_parser()
        alone = []
        for argv in runs:
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        assert together == alone
        assert [r[0] for r in together] == [1, 0, 1, 0, 0, 0, 0]
