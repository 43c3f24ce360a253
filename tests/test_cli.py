import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hhverify.cli as cli
import hhverify.verify
from hhverify import Interval, parse, search_min_margin, sweep, verify_theorem, verify_theorems
from hhverify.classify import MAX_GRID_N, check_alpha_m_log_convex
from hhverify.funcspec import MAX_DEPTH
from hhverify.verify import _SCREEN_TOL
from hhverify.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATED,
    MAX_GRID_POINTS,
    _CliError,
    _parse_grid,
    _render,
    report_from_dict,
    run,
)

REPORT_KEYS = ["theorem", "variant", "params", "hypothesis", "lhs", "rhs", "margin", "quad_err", "verdict"]
CSV_HEADER = "theorem,variant,a,b,alpha,m,family_params,lhs,rhs,margin,quad_err,hypothesis,verdict"


FAMILY_VALUE_ERRORS = [
    (["sweep", "--family", "const", "--param", "c=0.5,-1", "--theorem", "eq4", "--a", "0:1:50", "--b", "1:2:50",
      "--m", "0.5,1"], "parameter 'c' must be > 0, got -1.0"),
    (["sweep", "--family", "exp_affine", "--param", "c=0.5", "--param", "k=1,2,nan", "--theorem", "eq4"],
     "parameter 'k' must be finite, got nan"),
    (["search", "--family", "const", "--param", "c=-1", "--range", "b=0.5:2", "--theorem", "eq4", "--budget", "400"],
     "parameter 'c' must be > 0, got -1.0"),
    (["search", "--family", "poly_shift", "--param", "q=0", "--range", "p=1:3", "--theorem", "eq4"],
     "parameter 'q' must be > 0, got 0.0"),
]


class TestExitCodes:
    def test_holds(self, capsys):
        assert run(["check", "--theorem", "eq4", "--f", "exp(x)"]) == EXIT_OK
        assert "holds" in capsys.readouterr().out

    def test_violated(self, capsys):
        code = run([
            "check", "--theorem", "eq22", "--variant", "printed",
            "--family", "const", "--param", "c=0.5",
        ])
        assert code == EXIT_VIOLATED
        assert "violated" in capsys.readouterr().out

    def test_inconclusive(self, capsys):
        code = run(["check", "--theorem", "eq4", "--f", "1/(1-x)", "--b", "2"])
        assert code == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("theorem,function", [
        ("eq22", ["--family", "const", "--param", "c=1e200"]),
        ("eq42", ["--family", "const", "--param", "c=1e200"]),
        ("eq22", ["--f", "exp(700*x)", "--a", "0.9", "--b", "1"]),
    ])
    def test_closed_form_overflow_is_inconclusive(self, capsys, theorem, function):
        code = run(["check", "--theorem", theorem, "--variant", "printed", "--hypothesis", "off", *function])
        assert code == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert "inconclusive" in out
        assert f"note ({theorem}): closed form overflowed: math range error" in out
        assert err == ""

    @pytest.mark.parametrize("argv,note", [
        (["--theorem", "eq22", "--family", "const", "--param", "c=1e-200"],
         "closed form underflowed: f(a)*f(b) = exp(-921.0340371976183) rounds to 0.0"),
        # exp_mean_factor's ratio: theta for eq42, phi for eq31
        (["--theorem", "eq42", "--family", "const", "--param", "c=1e-300", "--m", "0.001"],
         "closed form underflowed: theta = exp(-1380.1695047406308) rounds to 0.0"),
        (["--theorem", "eq31", "--f", "exp(13*x^2-690)", "--m", "0.1"],
         "closed form underflowed: phi = exp(-751.0) rounds to 0.0"),
    ])
    def test_closed_form_underflow_is_inconclusive(self, capsys, argv, note):
        code = run(["check", "--variant", "printed", "--hypothesis", "off", *argv])
        assert code == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert "inconclusive" in out
        assert f"note ({argv[1]}): {note}" in out
        assert err == ""

    def test_closed_form_underflow_does_not_abort_a_sweep(self, capsys):
        code = run([
            "sweep", "--family", "const", "--param", "c=1,1e-200",
            "--theorem", "eq22", "--variant", "printed", "--json", "-",
        ])
        assert code == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert err == ""
        verdicts = [r["verdict"] for r in json.loads(out)["reports"]]
        assert verdicts == ["holds", "inconclusive"]

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "poly_shift", "--param", "p=2", "--param", "q=1e308", "--theorem", "eq4",
         "--hypothesis", "off"],
        ["check", "--family", "poly_shift", "--param", "p=2", "--param", "q=1e308", "--theorem", "eq4"],
        ["check", "--family", "poly_shift", "--param", "p=2", "--param", "q=1e308",
         "--theorem", "eq22,eq31,eq42,dr2"],
    ])
    def test_simpson_sum_overflow_is_inconclusive(self, argv):
        # every value is finite but fa + 4*fm + fb is not; this used to refine to MAX_DEPTH, a hang.
        # x^2 + 1e308 is 1e308 on [0, 1], and no rule reads it, so its means run quadrature
        proc = subprocess.run(
            [sys.executable, "-m", "hhverify", *argv], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_INCONCLUSIVE
        assert "integrand failed at x=0.5: Simpson sum on [0.0, 1.0] is not finite" in proc.stdout
        assert proc.stderr == ""

    def test_largest_constant_whose_simpson_sum_is_finite_keeps_its_bytes(self, capsys):
        code = run([
            "check", "--family", "poly_shift", "--param", "p=2", "--param", "q=2.9e307",
            "--theorem", "eq4,eq11,eq22,eq31,eq42,dr1,dr2", "--hypothesis", "off", "--json", "-",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "577009c5628a0980fa9eec60c2d2964dd09d5faa7d77568d559606ad33639938"
        )

    @pytest.mark.parametrize("f_args", [
        ["--f", "exp(709)"],
        ["--family", "const", "--param", "c=1e308"],
        ["--family", "const", "--param", "c=1.5e308"],  # L(c, c') once summed c + c' to inf and divided by 0
        ["--family", "const", "--param", "c=1.7976931348623157e308"],
        ["--family", "exp_affine", "--param", "c=1e300", "--param", "k=700"],
        ["--family", "poly_shift", "--param", "p=2", "--param", "q=1e308"],
    ])
    @pytest.mark.parametrize("m", ["1", "0.5"])
    def test_no_report_holds_with_a_side_that_is_not_finite(self, capsys, f_args, m):
        # log-affine f takes its means in closed form, where no Simpson sum
        # fails first, so the means themselves must stay finite
        code = run([
            "check", *f_args, "--theorem", "eq4,eq11,eq22,eq31,eq42,dr1,dr2", "--m", m, "--hypothesis", "off",
            "--json", "-",
        ])
        reports = json.loads(capsys.readouterr().out)
        assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_INCONCLUSIVE)
        for report in reports:
            if report["verdict"] == "holds":
                assert all(isinstance(report[side], float) and math.isfinite(report[side]) for side in ("lhs", "rhs"))

    def test_a_log_affine_f_whose_simpson_sum_overflows_takes_its_mean_in_closed_form(self, capsys):
        # the mean of the constant exp(709) is its own value, with no Simpson sum to overflow
        assert run(["check", "--f", "exp(709)", "--theorem", "eq4", "--hypothesis", "off", "--json", "-"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "holds" and report["lhs"] == report["rhs"] == math.exp(709.0)

    @pytest.mark.parametrize("argv,reports", [
        (["check", "--theorem", "eq4,eq11,eq22,eq31,eq42,dr1,dr2", "--f", "exp(x)", "--a", "0", "--b", "5e-324",
          "--hypothesis", "off"], 7),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4,eq22,dr1", "--a", "0", "--b", "1e-320"],
         3),
        (["search", "--family", "const", "--param", "c=0.5", "--range", "b=1e-322:1e-320", "--theorem", "eq4",
          "--budget", "4"], 1),
        (["check", "--theorem", "eq4,eq22,dr2", "--f", "exp(x)", "--a", "0", "--b", "6e-309", "--hypothesis", "off"],
         3),
    ])
    def test_interval_too_narrow_to_average_over_is_inconclusive(self, capsys, argv, reports):
        # 1/(b-a) overflows below a width of about 5.6e-309: the first three
        # were certified violated from inf and nan. At 6e-309 the subnormal
        # panel weights put the means 14 ulps off with err_est 0.
        assert run(argv) == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count("is too narrow to average over: the panel weight (b-a)/12 is subnormal") == reports
        assert "nan" not in out and "inf" not in out

    def test_syntax_error_is_usage(self, capsys):
        assert run(["check", "--theorem", "eq4", "--f", "exp("]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(at offset 4)" in err

    def test_deep_nesting_is_checked_or_usage_never_a_crash(self, capsys):
        deep = "exp(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert run(["check", "--theorem", "eq4", "--f", deep]) == EXIT_INCONCLUSIVE
        deeper = "exp(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1)
        assert run(["check", "--theorem", "eq4", "--f", deeper]) == EXIT_USAGE
        assert f"nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err

    def test_unknown_theorem_is_usage(self, capsys):
        assert run(["check", "--theorem", "eq99", "--f", "exp(x)"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["check", "--f", "exp(x)"],
        ["sweep", "--family", "const", "--param", "c=1"],
    ])
    def test_unknown_theorem_message_comes_before_tol_and_seed(self, capsys, argv):
        unknown = ("error: unknown theorem 'eq99' (known: dr1, dr2, eq4, eq11, eq22, eq31, eq42)\n")
        assert run(argv + ["--theorem", "eq4,eq99"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", unknown)
        assert run(argv + ["--theorem", "eq99", "--tol", "0", "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", unknown)
        assert run(argv + ["--theorem", "eq4", "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer, got -1\n")

    @pytest.mark.parametrize("argv,stderr", [
        # every command range-checks m and alpha, also where the theorem ignores them
        (["check", "--f", "exp(x)", "--theorem", "eq4", "--alpha", "7"], "alpha must lie in (0, 1], got 7.0"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--alpha", "7",
          "--hypothesis", "off"], "alpha must lie in (0, 1], got 7.0"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "dr1", "--m", "2", "--alpha", "5"],
         "m must lie in (0, 1], got 2.0"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--m", "0.5,0"],
         "m must lie in (0, 1], got 0.0"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--param", "alpha=3", "--theorem", "eq4",
          "--budget", "3"], "alpha must lie in (0, 1], got 3.0"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--range", "m=0:1", "--theorem", "eq4"],
         "m must lie in (0, 1], got 0.0"),
        # one tolerance check for every command, also where no integral runs
        (["check", "--f", "1/(1-x)", "--b", "2", "--theorem", "eq4", "--tol", "1e-16"],
         "tol must be a finite real >= 1e-13, got 1e-16"),
        (["check", "--f", "exp(x)", "--theorem", "eq4", "--tol", "nan"], "tol must be a finite real >= 1e-13, got nan"),
        (["chain", "--f", "exp(x)", "--theorem", "dr1", "--tol", "0"], "tol must be a finite real >= 1e-13, got 0.0"),
        (["sweep", "--family", "const", "--param", "c=1", "--theorem", "eq4", "--a", "1", "--tol", "0"],
         "tol must be a finite real >= 1e-13, got 0.0"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--theorem", "eq4", "--tol", "0"],
         "tol must be a finite real >= 1e-13, got 0.0"),
        (["classify", "--f", "exp(x)", "--domain-upper", "0"], "domain_upper must be a positive finite real, got 0.0"),
        (["classify", "--f", "exp(x)", "--domain-upper", "inf"],
         "domain_upper must be a positive finite real, got inf"),
        (["classify", "--f", "exp(x)", "--domain-upper", "1", "--tol-rel", "-1"],
         "tol_rel must be a nonnegative real, got -1.0"),
        # the class check's grid_n and tol_rel, also where nothing is sampled
        (["check", "--f", "exp(x)", "--theorem", "eq4", "--hypothesis", "off", "--grid-n", "1"],
         "grid_n must lie in [2, 257], got 1"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--hypothesis", "off",
          "--grid-n", "100000"], "grid_n must lie in [2, 257], got 100000"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--hypothesis", "once",
          "--tol-rel", "-1", "--b", "0"], "tol_rel must be a nonnegative real, got -1.0"),
        # the sampling seed, for an f the rule decides, an f it samples, and with nothing sampled
        *[(argv + ["--seed", "-1"], "seed must be a nonnegative integer, got -1") for argv in (
            ["check", "--f", "exp(x)", "--theorem", "eq4"],
            ["check", "--f", "x^2+1", "--theorem", "eq4"],
            ["check", "--f", "exp(x)", "--theorem", "eq4", "--hypothesis", "off"],
            ["chain", "--f", "exp(x)", "--theorem", "dr1"],
            ["chain", "--f", "x^2+1", "--theorem", "dr1"],
            ["chain", "--f", "x^2+1", "--theorem", "dr1", "--hypothesis", "off"],
            ["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--hypothesis", "once"],
            ["sweep", "--family", "poly_shift", "--param", "p=2", "--param", "q=1", "--theorem", "eq4",
             "--hypothesis", "per-point"],
            ["sweep", "--family", "poly_shift", "--param", "p=2", "--param", "q=1", "--theorem", "eq4"],
            ["classify", "--f", "exp(x)", "--domain-upper", "1"],
            ["classify", "--f", "x^2+1", "--domain-upper", "1"],
        )],
        # a non-finite interval endpoint, as check refuses it
        (["sweep", "--family", "const", "--param", "c=0.5", "--a", "nan", "--b", "1", "--theorem", "eq4"],
         "a values must be finite, got [nan]"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--b", "nan,1", "--theorem", "eq4"],
         "b values must be finite, got [nan, 1.0]"),
        (["sweep", "--family", "const", "--param", "c=0.5", "--a", "0,-1", "--b", "1", "--theorem", "eq4"],
         "a values must stay >= 0, got [0.0, -1.0]"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--param", "a=nan", "--theorem", "eq4"],
         "a values must be finite, got [nan]"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--param", "b=inf", "--theorem", "eq4"],
         "b values must be finite, got [inf]"),
        (["search", "--family", "const", "--range", "c=0.2:1", "--param", "a=-1", "--theorem", "eq4"],
         "a values must stay >= 0, got [-1.0]"),
        # a range whose width overflows, although both ends are finite
        (["search", "--family", "exp_linear", "--range", "k=-1e308:1e308", "--theorem", "eq4"],
         "box range for 'k' must have lo < hi and a finite width, got (-1e+308, 1e+308)"),
        # a family value, before the members or points that come first are computed
        *FAMILY_VALUE_ERRORS,
    ])
    def test_out_of_range_value_is_usage(self, capsys, argv, stderr):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {stderr}\n")

    @pytest.mark.parametrize("argv,stderr", FAMILY_VALUE_ERRORS)
    def test_a_bad_family_value_is_refused_before_any_report(self, monkeypatch, argv, stderr):
        fail = lambda *args, **kwargs: pytest.fail("a report was computed")  # noqa: E731
        monkeypatch.setattr(hhverify.verify, "_reports", fail)
        monkeypatch.setattr(hhverify.verify, "_report", fail)
        assert run(argv) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["classify", "--f", "x^2+1", "--domain-upper", "1"],
        # random.Random seeds with |seed|, so -5 would have printed what 5 prints
        ["search", "--family", "exp_affine", "--range", "c=0.5:2", "--range", "k=-1:1", "--theorem", "eq4",
         "--budget", "6"],
    ])
    def test_a_negative_seed_is_usage(self, monkeypatch, capsys, argv):
        fail = lambda *args, **kwargs: pytest.fail("a report was computed")  # noqa: E731
        monkeypatch.setattr(hhverify.verify, "_reports", fail)
        assert run(argv + ["--seed", "-5"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer, got -5\n")

    def test_conflicting_function_flags(self, capsys):
        code = run(["check", "--theorem", "eq4", "--f", "exp(x)", "--param", "c=1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,stderr", [
        (["check", "--theorem", "eq4", "--f", "exp(x)", "--family", "const"], "give either --f or --family, not both"),
        (["check", "--theorem", "eq4"], "a function is required: --f EXPR or --family NAME --param NAME=VALUE"),
        (["check", "--theorem", ",", "--f", "exp(x)"], "at least one --theorem is required"),
        (["search", "--family", "const", "--range", "c=0.1:1", "--range", "c=0.2:1", "--theorem", "eq4"],
         "duplicate --range 'c'"),
        # names are checked before values, as for --param
        (["search", "--family", "const", "--range", "c=1:2", "--range", "c=bad", "--theorem", "eq4"],
         "duplicate --range 'c'"),
        (["search", "--family", "const", "--range", "c", "--theorem", "eq4"], "--range expects NAME=VALUE, got 'c'"),
        (["search", "--family", "const", "--range", "c=1", "--theorem", "eq4"], "range must be 'lo:hi', got '1'"),
    ])
    def test_malformed_request_is_usage(self, capsys, argv, stderr):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {stderr}\n")

    def test_unwritable_destination(self, capsys):
        code = run([
            "check", "--theorem", "eq4", "--f", "exp(x)",
            "--json", "/nonexistent-dir/report.json",
        ])
        assert code == EXIT_INCONCLUSIVE
        assert capsys.readouterr().err.startswith("error:")

    def test_argparse_errors(self, capsys):
        assert run(["check"]) == 2
        assert run([]) == 2
        assert run(["--help"]) == 0
        assert run(["check", "--theorem", "eq4", "--f"]) == 2
        assert run(["check", "--theorem", "eq4", "--f", "--json", "-"]) == 2
        assert "argument --f: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--theorem", "eq4", "--hypothesis", "off"],
            ["chain", "--theorem", "dr1"],
            ["classify", "--domain-upper", "2"],
        ],
    )
    def test_expression_may_start_with_a_minus_sign(self, capsys, argv):
        attached = run(argv + ["--f=-x+3"])
        attached_out = capsys.readouterr()
        assert attached_out.err == ""
        assert run(argv + ["--f", "-x+3"]) == attached
        assert capsys.readouterr() == attached_out


class TestCheckOutput:
    def test_json_key_order(self, capsys):
        assert run(["check", "--theorem", "eq4", "--f", "exp(x)", "--json", "-"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == REPORT_KEYS
        assert list(payload["params"]) == ["a", "b", "alpha", "m", "family_params"]
        assert payload["params"]["family_params"] is None
        assert payload["verdict"] == "holds"

    def test_json_array_for_multiple_theorems(self, capsys):
        code = run(["check", "--theorem", "eq4,eq11", "--f", "exp(x)", "--json", "-"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [p["theorem"] for p in payload] == ["eq4", "eq11"]

    def test_json_round_trips_to_equal_report(self, capsys):
        run(["check", "--theorem", "eq4", "--f", "exp(x)", "--json", "-"])
        payload = json.loads(capsys.readouterr().out)
        direct = verify_theorem("eq4", parse("exp(x)"), Interval(0.0, 1.0))
        assert report_from_dict(payload) == direct
        assert report_from_dict(json.loads(_render([direct])[0])) == direct

    def test_family_params_serialized(self, capsys):
        run([
            "check", "--theorem", "eq4", "--family", "exp_affine",
            "--param", "k=0.5", "--param", "c=2", "--json", "-",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["family_params"] == {"c": 2.0, "k": 0.5}

    def test_csv_header(self, capsys):
        assert run(["check", "--theorem", "eq4", "--f", "exp(x)", "--csv", "-"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_json_written_to_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert run(["check", "--theorem", "eq4", "--f", "exp(x)", "--json", str(dest)]) == EXIT_OK
        assert json.loads(dest.read_text())["theorem"] == "eq4"
        assert capsys.readouterr().out == ""


def test_generic_encoder_writes_bools_and_refuses_other_types():
    # No payload the CLI writes holds a bool or an unsupported type; the
    # encoder still writes the one as JSON and refuses the other.
    assert cli._json_value(True) == "true"
    payload = {"on": False, "items": [True, None, 2]}
    assert json.loads(cli._json_value(payload)) == payload
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        cli._json_value(object())


class TestSeedSource:
    # each output depends on the seed, so an ambient seed that the CLI read would show in its bytes
    ARGVS = [
        ["classify", "--f", "x^2+1", "--domain-upper", "2", "--m", "0.5", "--alpha", "0.5", "--grid-n", "3",
         "--json", "-"],
        ["check", "--f", "x^2+1", "--theorem", "eq31", "--m", "0.5", "--alpha", "0.5", "--grid-n", "3"],
        ["search", "--family", "exp_affine", "--range", "c=0.5:2", "--range", "k=-1:1", "--theorem", "eq4",
         "--budget", "6", "--json", "-"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_the_environment_does_not_set_the_seed(self, capsys, monkeypatch, argv):
        default = run(argv), capsys.readouterr()
        assert (run(argv + ["--seed", "12345"]), capsys.readouterr()) != default
        monkeypatch.setenv("HH_SEED", "12345")
        assert (run(argv), capsys.readouterr()) == default


class TestClassify:
    def test_pass_exit_zero(self, capsys):
        code = run(["classify", "--f", "exp(x)", "--domain-upper", "2", "--m", "0.5", "--json", "-"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["verdict", "samples", "m", "alpha", "domain_upper", "worst_violation"]
        assert payload["verdict"] == "pass"
        assert payload["worst_violation"] is None

    def test_fail_exit_one_with_witness(self, capsys):
        code = run(["classify", "--f", "x^2+1", "--domain-upper", "2", "--json", "-"])
        assert code == EXIT_VIOLATED
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        w = payload["worst_violation"]
        assert list(w) == ["x", "y", "t", "lhs", "rhs", "deficit"]
        assert w["deficit"] > 0.0

    def test_abort_exit_three(self, capsys):
        code = run(["classify", "--f", "1/(1-x)", "--domain-upper", "2"])
        assert code == EXIT_INCONCLUSIVE
        assert capsys.readouterr().err.startswith("error:")


class TestChain:
    def test_dr2_table_lists_all_terms(self, capsys):
        assert run(["chain", "--theorem", "dr2", "--f", "exp(x^2)"]) == EXIT_OK
        out = capsys.readouterr().out
        for label in (
            "midpoint_value", "exp_mean_log", "geometric_mean_integral",
            "mean_integral", "endpoint_logarithmic_mean", "endpoint_arithmetic_mean",
        ):
            assert label in out
        assert "verdict: holds" in out

    def test_json_shape(self, capsys):
        code = run(["chain", "--theorem", "dr1", "--f", "exp(x)", "--json", "-"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["theorem", "terms", "report"]
        assert [t["label"] for t in payload["terms"]] == [
            "midpoint_value", "geometric_mean_integral", "endpoint_geometric_mean",
        ]
        assert list(payload["report"]) == REPORT_KEYS

    def test_violated_chain_exit_code(self, capsys):
        code = run([
            "chain", "--theorem", "dr1", "--f", "x^2+1",
            "--a", "1", "--b", "2", "--hypothesis", "off",
        ])
        assert code == EXIT_VIOLATED
        assert "geometric_mean_integral <= endpoint_geometric_mean" in capsys.readouterr().out


SWEEP_ARGS = [
    "sweep", "--family", "exp_linear", "--param", "k=0.5:2:3",
    "--theorem", "eq4", "--m", "0.5,1", "--hypothesis", "once",
]


class TestSweep:
    def test_json_is_deterministic(self, capsys):
        assert run(SWEEP_ARGS + ["--json", "-"]) == EXIT_OK
        first = capsys.readouterr().out
        assert run(SWEEP_ARGS + ["--json", "-"]) == EXIT_OK
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert list(payload) == ["reports", "min_margin"]
        assert len(payload["reports"]) == 6
        assert all(r["verdict"] == "holds" for r in payload["reports"])
        assert payload["min_margin"] is not None

    def test_csv_rows(self, capsys):
        assert run(SWEEP_ARGS + ["--csv", "-"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        assert all(line.startswith("eq4,corrected,") for line in lines[1:])

    def test_table_counts(self, capsys):
        assert run(SWEEP_ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "holds: 6" in out
        assert "min margin:" in out

    def test_violation_drives_exit_code(self, capsys):
        code = run([
            "sweep", "--family", "const", "--param", "c=0.25:1:4",
            "--theorem", "eq22,eq42", "--variant", "printed",
        ])
        assert code == EXIT_VIOLATED


# holds, violated, inapplicable (rhs and margin None) and inconclusive (lhs None)
MIXED_SWEEP_ARGS = [
    "sweep", "--family", "const", "--param", "c=1e-300,1,1e200,1e308",
    "--theorem", "eq4,eq11,eq22,eq31,eq42,dr1,dr2", "--variant", "printed",
    "--m", "0.5,1", "--alpha", "0.5,1",
]


def _with_nonfinite_numbers(summary):
    """``summary`` with inf, -inf, nan and an overflowing sum in place of some of its numbers."""
    reports = list(summary.reports)
    for i, (lhs, rhs, margin, quad_err) in enumerate([
        (1.0, math.inf, math.inf, 0.0), (math.nan, 1.0, math.nan, 0.0), (1.0, 2.0, 1.0, math.inf),
        (1e308, 1e308, 0.0, 1e308), (None, None, None, -math.inf),
    ]):
        reports[i] = dataclasses.replace(reports[i], lhs=lhs, rhs=rhs, margin=margin, quad_err=quad_err)
    return dataclasses.replace(summary, reports=tuple(reports))


class TestJsonAndCsvTogether:
    """A command writing both outputs renders each report once, with the bytes of two separate runs."""

    @staticmethod
    def _outputs(argv, tmp_path, name, json_out, csv_out):
        paths = {"--json": tmp_path / f"{name}.json", "--csv": tmp_path / f"{name}.csv"}
        extra = []
        for flag, wanted in (("--json", json_out), ("--csv", csv_out)):
            if wanted:
                extra += [flag, str(paths[flag])]
        code = run(argv + extra)
        return code, {flag: paths[flag].read_bytes() for flag in paths if paths[flag].exists()}

    def _assert_together_equals_apart(self, argv, tmp_path):
        code, together = self._outputs(argv, tmp_path, "both", True, True)
        json_code, json_only = self._outputs(argv, tmp_path, "json", True, False)
        csv_code, csv_only = self._outputs(argv, tmp_path, "csv", False, True)
        assert code == json_code == csv_code
        assert together == {**json_only, **csv_only}
        return code, together

    def test_sweep(self, tmp_path, capsys):
        code, together = self._assert_together_equals_apart(MIXED_SWEEP_ARGS, tmp_path)
        assert code == EXIT_VIOLATED
        verdicts = {r["verdict"] for r in json.loads(together["--json"])["reports"]}
        assert verdicts == {"holds", "violated", "inapplicable", "inconclusive"}
        assert b",,," in together["--csv"]  # None numbers are empty cells

    def test_sweep_with_nonfinite_numbers(self, tmp_path, capsys, monkeypatch):
        computed = cli.sweep
        monkeypatch.setattr(cli, "sweep", lambda *args, **kw: _with_nonfinite_numbers(computed(*args, **kw)))
        _, together = self._assert_together_equals_apart(MIXED_SWEEP_ARGS, tmp_path)
        rows = together["--csv"].decode().splitlines()[1:6]
        assert [row.split(",")[7:11] for row in rows] == [
            ["1", "inf", "inf", "0"], ["nan", "1", "nan", "0"], ["1", "2", "1", "inf"],
            ["1e+308", "1e+308", "0", "1e+308"], ["", "", "", "-inf"],
        ]
        reports = json.loads(together["--json"])["reports"][:5]
        assert [[r[k] for k in ("lhs", "rhs", "margin", "quad_err")] for r in reports] == [
            [1, None, None, 0], [None, 1, None, 0], [1, 2, 1, None], [1e308, 1e308, 0, 1e308],
            [None, None, None, None],
        ]

    def test_sweep_both_to_stdout(self, capsys):
        outputs = []
        for extra in (["--json", "-", "--csv", "-"], ["--json", "-"], ["--csv", "-"]):
            outputs.append((run(MIXED_SWEEP_ARGS + extra), capsys.readouterr()))
        (code, both), (json_code, json_only), (csv_code, csv_only) = outputs
        assert code == json_code == csv_code == EXIT_VIOLATED
        assert both.err == json_only.err == csv_only.err == ""
        assert both.out == json_only.out + csv_only.out

    @pytest.mark.parametrize("json_path,csv_path", [("P", "P"), ("P", "./P")])
    @pytest.mark.parametrize("argv", [["check", "--f", "2", "--theorem", "eq4,eq22"], MIXED_SWEEP_ARGS])
    def test_one_file_for_both_is_usage(self, tmp_path, capsys, monkeypatch, argv, json_path, csv_path):
        def computed(*args, **kwargs):
            raise AssertionError("a refused request computed reports")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "verify_theorems", computed)
        monkeypatch.setattr(cli, "sweep", computed)
        assert run(argv + ["--json", json_path, "--csv", csv_path]) == EXIT_USAGE
        message = f"error: --json and --csv name the same file: {json_path!r} and {csv_path!r}\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("theorems", ["eq4", "eq4,eq22,eq31"])
    def test_check(self, tmp_path, capsys, theorems):
        argv = ["check", "--family", "const", "--param", "c=1e200", "--theorem", theorems,
                "--variant", "printed", "--m", "0.5", "--alpha", "0.5", "--hypothesis", "off"]
        self._assert_together_equals_apart(argv, tmp_path)


class TestSearch:
    def test_printed_eq22_violation(self, capsys):
        code = run([
            "search", "--family", "const", "--range", "c=0.1:0.9",
            "--theorem", "eq22", "--variant", "printed", "--budget", "150",
            "--json", "-",
        ])
        assert code == EXIT_VIOLATED
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["best_params", "best_margin", "evals", "report"]
        assert payload["best_margin"] == pytest.approx(-0.25, abs=1e-3)
        assert payload["best_params"]["c"] == pytest.approx(0.5, abs=0.02)
        assert payload["evals"] <= 150

    def test_bad_range_is_usage(self, capsys):
        code = run([
            "search", "--family", "const", "--range", "c=0.9",
            "--theorem", "eq4",
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: range must be 'lo:hi', got '0.9'\n")


PARAM_COMMANDS = {
    "check": ["check", "--theorem", "eq4", "--family", "exp_affine"],
    "sweep": ["sweep", "--theorem", "eq4", "--family", "exp_affine"],
    "search": ["search", "--theorem", "eq4", "--family", "exp_affine", "--range", "k=0:1"],
}
PARAM_ERRORS = [
    (["c=1", "c=2"], "error: duplicate --param 'c'\n"),
    (["c=1", "c=abc"], "error: duplicate --param 'c'\n"),  # names are checked before values
    (["c"], "error: --param expects NAME=VALUE, got 'c'\n"),
    (["c=1", "c"], "error: --param expects NAME=VALUE, got 'c'\n"),  # split before the duplicate check
    (["c=abc"], "error: could not convert string to float: 'abc'\n"),
]


class TestParamErrors:
    @pytest.mark.parametrize("command", sorted(PARAM_COMMANDS))
    @pytest.mark.parametrize("params,stderr", PARAM_ERRORS)
    def test_param_error_is_usage(self, capsys, command, params, stderr):
        argv = list(PARAM_COMMANDS[command])
        for param in params:
            argv += ["--param", param]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", stderr)

    @pytest.mark.parametrize("grid,stderr", [
        ("1:2", "error: grid must be 'lo:hi:n', a value, or a comma list, got '1:2'\n"),
        ("1,x", "error: could not convert string to float: 'x'\n"),
    ])
    def test_malformed_sweep_grid_is_usage(self, capsys, grid, stderr):
        assert run(PARAM_COMMANDS["sweep"] + ["--param", f"c={grid}"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", stderr)


class TestGridCap:
    def test_largest_grid_is_built(self):
        values = _parse_grid(f"0:1:{MAX_GRID_POINTS}")
        assert len(values) == MAX_GRID_POINTS
        assert (values[0], values[-1]) == (0.0, 1.0)

    def test_one_point_grid_is_its_low_end(self):
        assert _parse_grid("0.5:2:1") == [0.5]

    @pytest.mark.parametrize("n", [0, MAX_GRID_POINTS + 1])
    def test_count_outside_the_cap_is_refused(self, n):
        with pytest.raises(_CliError) as exc:
            _parse_grid(f"0:1:{n}")
        assert str(exc.value) == f"grid count must lie in [1, {MAX_GRID_POINTS}], got {n}"
        assert exc.value.code == EXIT_USAGE

    def test_count_above_the_cap_is_usage(self, capsys):
        n = MAX_GRID_POINTS + 1
        argv = ["sweep", "--family", "const", "--param", "c=1", "--theorem", "eq4", "--a", f"0:1:{n}", "--b", "0"]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: grid count must lie in [1, {MAX_GRID_POINTS}], got {n}\n")



def _subparsers() -> dict:
    (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestDefaults:
    """A default is written in the API signature, the parser and the help text; all say the same."""

    @pytest.mark.parametrize("argv,function,names", [
        (["check", "--f", "x", "--theorem", "eq4"], verify_theorems,
         {"m", "alpha", "variant", "tol", "grid_n", "tol_rel", "seed"}),
        (["chain", "--f", "x", "--theorem", "dr1"], verify_theorems, {"tol", "grid_n", "tol_rel", "seed"}),
        (["classify", "--f", "x", "--domain-upper", "1"], check_alpha_m_log_convex, {"grid_n", "tol_rel", "seed"}),
        (["sweep", "--family", "const", "--theorem", "eq4"], sweep,
         {"variant", "tol", "hypothesis", "grid_n", "tol_rel", "seed"}),
        (["search", "--family", "const", "--theorem", "eq4"], search_min_margin,
         {"variant", "budget", "tol", "seed"}),
    ])
    def test_parsed_defaults_are_the_signature_defaults(self, argv, function, names):
        parsed = vars(cli._build_parser().parse_args(argv))
        signature = {
            name: p.default for name, p in inspect.signature(function).parameters.items()
            # the CLI's --family names what the keyword takes as a spec
            if p.default is not inspect.Parameter.empty and name != "family"
        }
        assert set(parsed) & set(signature) == names
        assert {name: parsed[name] for name in names} == {name: signature[name] for name in names}

    def test_every_signature_declares_one_default_per_keyword(self):
        keywords = ("tol", "variant", "grid_n", "tol_rel", "seed")
        declared = {keyword: {} for keyword in keywords}  # keyword -> default -> the functions declaring it
        for name in ("bounds", "classify", "cli", "funcspec", "means", "quadrature", "verify"):
            module = importlib.import_module(f"hhverify.{name}")
            for function_name, function in vars(module).items():
                if function_name.startswith("_") or not inspect.isfunction(function):
                    continue
                if function.__module__ != module.__name__:
                    continue
                for keyword, p in inspect.signature(function).parameters.items():
                    if keyword in declared and p.default is not inspect.Parameter.empty:
                        declared[keyword].setdefault(p.default, []).append(function_name)
        assert all(len(defaults) == 1 for defaults in declared.values()), declared
        declaring = {name for defaults in declared.values() for names in defaults.values() for name in names}
        assert declaring >= {
            "check_alpha_m_log_convex", "check_alphas", "exact_membership", "integrate", "mean_integral",
            "eq22_rhs", "eq42_rhs", "verify_theorems", "sweep", "search_min_margin",
        }

    def test_help_states_the_parsed_default(self):
        stated = set()
        for command, parser in _subparsers().items():
            for action in parser._actions:
                match = re.search(r"\(default ([^)]+)\)", action.help or "")
                if match and type(action.default) in (int, float):
                    # int(text, 0) reads a hexadecimal default such as the seed's 0x5EED
                    read = int(match.group(1), 0) if type(action.default) is int else float(match.group(1))
                    assert read == action.default, (command, action.dest)
                    stated.add((command, action.dest))
        assert {"tol", "grid_n", "tol_rel", "budget"} <= {dest for _, dest in stated}
        assert {(command, "seed") for command in _subparsers()} <= stated

    def test_screening_tolerance_is_stated_as_it_is(self):
        (tol_help,) = [a.help for a in _subparsers()["search"]._actions if a.dest == "tol"]
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for text in (tol_help, readme, search_min_margin.__doc__):
            stated = re.findall(r"max\(tol, ([^)]+)\)", text)
            assert stated and all(float(value) == _SCREEN_TOL for value in stated)


class TestGridNCap:
    @pytest.mark.parametrize("argv", [
        ["classify", "--f", "exp(x)", "--domain-upper", "1"],
        ["check", "--theorem", "eq4", "--f", "exp(x)"],
        ["chain", "--theorem", "dr1", "--f", "exp(x)"],
    ])
    @pytest.mark.parametrize("grid_n", [1, MAX_GRID_N + 1])
    def test_grid_n_outside_the_cap_is_usage(self, capsys, argv, grid_n):
        assert run(argv + ["--grid-n", str(grid_n)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: grid_n must lie in [2, {MAX_GRID_N}], got {grid_n}\n")


# One process serves these one after another with a single parser; each
# must print and exit as a fresh process does.
REUSED_PARSER_ARGVS = [
    ["check", "--theorem", "eq4,eq22", "--family", "exp_affine", "--param", "c=0.5", "--param", "k=1.5",
     "--hypothesis", "off", "--json", "-"],
    ["check", "--theorem", "eq31", "--theorem", "eq42", "--family", "poly_shift", "--param", "p=2",
     "--param", "q=0.5", "--m", "0.8", "--alpha", "0.6", "--grid-n", "9", "--csv", "-"],
    ["check", "--theorem", "eq4", "--family", "const", "--param", "c=0.5"],
    ["sweep", "--family", "const", "--param", "c=0.5,2", "--theorem", "eq4", "--m", "0.5,1"],
    ["sweep", "--family", "exp_affine", "--param", "c=1", "--param", "k=0:1:3", "--theorem", "eq11"],
    ["classify", "--f", "x^2+1", "--domain-upper", "2", "--grid-n", "5", "--seed", "7"],
    ["chain", "--theorem", "dr2", "--f", "exp(x)"],
    ["search", "--family", "const", "--range", "c=0.2:1", "--theorem", "eq22", "--variant", "printed",
     "--budget", "20"],
    ["--help"],
    ["check", "--help"],
    ["check", "--theorem", "eq4", "--f", "exp(x)", "--grid-n", "many"],
    ["sweep", "--family", "const", "--param", "c=0.5", "--theorem", "eq4", "--param", "c=1"],
]


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    env = {**os.environ, "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")
    for argv in REUSED_PARSER_ARGVS:
        code = run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "hhverify", *argv], capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hhverify", "check", "--theorem", "eq4", "--f", "exp(x)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "holds" in proc.stdout


def test_console_script_entry_point_runs(capsys, monkeypatch):
    # what the installed script runs, read from pyproject.toml, so it is checked without an install
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hhverify"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    monkeypatch.setattr(sys, "argv", ["hhverify", "check", "--theorem", "eq4", "--f", "exp(x)"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == EXIT_OK
    assert "holds" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("hhverify") is None, reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(
        ["hhverify", "check", "--theorem", "eq11", "--f", "exp(x)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "holds" in proc.stdout
