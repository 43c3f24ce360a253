import json
import shutil
import subprocess
import sys

import pytest

from hhverify import Interval, parse, verify_theorem
from hhverify.funcspec import MAX_DEPTH
from hhverify.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATED,
    MAX_GRID_POINTS,
    _CliError,
    _parse_grid,
    _ReportText,
    report_from_dict,
    run,
)

REPORT_KEYS = ["theorem", "variant", "params", "hypothesis", "lhs", "rhs", "margin", "quad_err", "verdict"]
CSV_HEADER = "theorem,variant,a,b,alpha,m,family_params,lhs,rhs,margin,quad_err,hypothesis,verdict"


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("HH_SEED", raising=False)


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
    def test_unknown_theorem_message_comes_before_tol_and_seed(self, capsys, monkeypatch, argv):
        unknown = ("error: unknown theorem 'eq99' (known: dr1, dr2, eq4, eq11, eq22, eq31, eq42)\n")
        assert run(argv + ["--theorem", "eq4,eq99"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", unknown)
        monkeypatch.setenv("HH_SEED", "not-a-number")
        assert run(argv + ["--theorem", "eq99", "--tol", "0"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", unknown)
        assert run(argv + ["--theorem", "eq4", "--tol", "0"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: HH_SEED must be an integer, got 'not-a-number'\n")

    def test_conflicting_function_flags(self, capsys):
        code = run(["check", "--theorem", "eq4", "--f", "exp(x)", "--param", "c=1"])
        assert code == EXIT_USAGE

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
        assert report_from_dict(json.loads(_ReportText().json(direct))) == direct

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


class TestSeedResolution:
    CLASSIFY_ARGS = ["classify", "--f", "x^2+1", "--domain-upper", "2", "--json", "-"]

    def test_flag_and_env_agree(self, capsys, monkeypatch):
        assert run(self.CLASSIFY_ARGS + ["--seed", "12345"]) == EXIT_VIOLATED
        via_flag = capsys.readouterr().out
        monkeypatch.setenv("HH_SEED", "12345")
        assert run(self.CLASSIFY_ARGS) == EXIT_VIOLATED
        via_env = capsys.readouterr().out
        assert via_flag == via_env

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_SEED", "999")
        assert run(self.CLASSIFY_ARGS + ["--seed", "12345"]) == EXIT_VIOLATED

    def test_bad_env_seed_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_SEED", "abc")
        assert run(self.CLASSIFY_ARGS) == EXIT_USAGE
        assert "HH_SEED" in capsys.readouterr().err

    def test_hex_env_seed_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_SEED", "0x5EED")
        assert run(self.CLASSIFY_ARGS) == EXIT_VIOLATED


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


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hhverify", "check", "--theorem", "eq4", "--f", "exp(x)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "holds" in proc.stdout


@pytest.mark.skipif(shutil.which("hhverify") is None, reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(
        ["hhverify", "check", "--theorem", "eq11", "--f", "exp(x)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "holds" in proc.stdout
