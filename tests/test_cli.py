"""CLI driver: subcommands, reports, schema validation, exit codes."""

import json
from fractions import Fraction

import jsonschema
import pytest

from nagata import invariants
from nagata.cli import EXIT_ERROR, EXIT_OK, EXIT_VERDICT_FAILED, _json_safe, load_schema, main
from nagata.configs import generic_points, make_config
from nagata.exactla import PrimeField
from nagata.invariants import HarbourneCell, HarbourneCheck, Verdict


def run_cli(tmp_path, *args):
    out = tmp_path / "reports"
    code = main([*args, "--out", str(out)])
    return code, out


def read_report(out, command):
    return json.loads((out / f"{command}.json").read_text())


def strip_volatile(report):
    r = json.loads(json.dumps(report))
    r["meta"].pop("elapsed_ms")
    r["meta"].pop("timestamp", None)
    return r


def test_omega_subcommand_grid(tmp_path):
    code, out = run_cli(tmp_path, "omega", "--grid", "3", "--l-max", "2",
                        "--format", "both")
    assert code == EXIT_OK
    report = read_report(out, "omega")
    assert report["results"]["table"] == [[1, 3], [2, 6]]
    assert (out / "omega.csv").read_text().splitlines()[0] == "l,omega_l"


def test_omega_subcommand_rational(tmp_path):
    # certified over Q, with no option choosing the domain
    code, out = run_cli(tmp_path, "omega", "--n", "2", "--r", "10", "--seed", "3")
    assert code == EXIT_OK
    assert read_report(out, "omega")["results"]["table"] == [[1, 4]]


def test_nagata_subcommand_passes_for_r12(tmp_path):
    code, out = run_cli(tmp_path, "nagata", "--n", "2", "--r", "12",
                        "--l-max", "2", "--seed", "3")
    assert code == EXIT_OK
    report = read_report(out, "nagata")
    assert all(ok for _, ok in report["results"]["checks"])
    assert len(report["verdicts"]) == 2


def test_nagata_boundary_exit_code(tmp_path):
    # r = 9 is the equality boundary: verdicts fail, exit code 2
    code, out = run_cli(tmp_path, "nagata", "--n", "2", "--r", "9",
                        "--l-max", "1", "--seed", "3")
    assert code == EXIT_VERDICT_FAILED
    report = read_report(out, "nagata")
    assert report["verdicts"][0]["pass"] is False


def test_harbourne_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "harbourne", "--m-max", "2", "--seed", "1",
                        "--format", "both")
    assert code == EXIT_OK
    report = read_report(out, "harbourne")
    assert len(report["verdicts"]) == 18
    assert all(v["pass"] for v in report["verdicts"])


def test_interval_subcommand_report_schema(tmp_path):
    code, out = run_cli(tmp_path, "interval", "--n", "2", "--r", "10",
                        "--l-max", "2", "--seed", "3")
    assert code == EXIT_OK
    report = read_report(out, "interval")
    jsonschema.validate(report, load_schema())
    assert report["results"]["omega_lower"]
    assert report["meta"]["version"]


def test_green_profile_exact(tmp_path):
    code, out = run_cli(tmp_path, "green-profile", "--exact", "two-point-limit",
                        "--mode", "polydisc", "--format", "both")
    assert code == EXIT_OK
    report = read_report(out, "green-profile")
    assert report["results"]["slope"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv, mode", [
    (["--exact", "two-point-limit"], "polydisc"),
    (["--exact", "ball-origin"], "ball"),
    (["--example", "two-point", "--t", "1/10", "--boundary-samples", "64"], "ball"),
])
def test_green_profile_spec_records_the_mode_profiled(tmp_path, argv, mode):
    # with no --mode, an --exact target is profiled in its own mode and an
    # approximant in the ball, and the report's spec says which
    code, out = run_cli(tmp_path, "green-profile", *argv, "--sphere-samples", "16")
    assert code == EXIT_OK
    assert read_report(out, "green-profile")["spec"]["params"]["mode"] == mode


@pytest.mark.parametrize("argv, params", [
    (["--exact", "ball-origin"], {"l": None, "d": None, "boundary_samples": None}),
    (["--example", "two-point", "--t", "1/10", "--boundary-samples", "64"],
     {"l": 1, "d": 2, "boundary_samples": 64}),
])
def test_green_profile_spec_records_the_approximant_options_read(tmp_path, argv, params):
    # an approximant resolves the defaults it reads; an --exact target reads none
    code, out = run_cli(tmp_path, "green-profile", *argv, "--sphere-samples", "16")
    assert code == EXIT_OK
    recorded = read_report(out, "green-profile")["spec"]["params"]
    assert {key: recorded[key] for key in params} == params


def test_green_profile_approximant(tmp_path):
    code, out = run_cli(tmp_path, "green-profile", "--example", "two-point",
                        "--t", "1/10", "--l", "1", "--d", "2", "--mode",
                        "polydisc", "--boundary-samples", "512",
                        "--sphere-samples", "128")
    assert code == EXIT_OK
    report = read_report(out, "green-profile")
    assert report["results"]["slope"] == pytest.approx(1.0, abs=0.05)


def test_collide_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "collide", "--example", "two-point", "--t",
                        "0.5,0.25,0.1", "--d", "2", "--with-oracle",
                        "--boundary-samples", "512", "--n-radii", "8",
                        "--n-dirs", "8", "--format", "both")
    assert code == EXIT_OK
    report = read_report(out, "collide")
    assert report["results"]["omega_hat"] == "1/1"
    gaps = [row["oracle_gap"] for row in report["results"]["rows"]]
    assert gaps[0] > gaps[-1]
    csv_lines = (out / "collide.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in csv_lines[1:]] == \
        [row["t"] for row in report["results"]["rows"]] == ["1/2", "1/4", "1/10"]


def test_schwarz_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "schwarz", "--example", "two-point", "--l",
                        "1", "--boundary-samples", "512")
    assert code == EXIT_OK
    report = read_report(out, "schwarz")
    assert all(c["pass"] for c in report["results"]["checks"])


# command: (argv, results keys, CSV header, the results list the CSV rows
# follow, the keys of each of its items or None for a list of lists)
REPORT_CONTRACTS = {
    "omega": (["--grid", "2", "--l-max", "2"], {"config", "table"}, "l,omega_l",
              "table", None),
    "interval": (["--n", "2", "--r", "10", "--l-max", "2", "--seed", "3"],
                 {"config", "table", "omega_lower", "omega_upper", "w_lower"},
                 "l,omega_l,omega_lower,omega_upper,w_lower", "table", None),
    "nagata": (["--n", "2", "--r", "10", "--l-max", "2", "--seed", "2"],
               {"config", "checks"}, "l,strict_inequality_holds", "checks", None),
    "harbourne": (["--m-max", "1", "--seed", "1"], {"seed", "cells"},
                  "r,m,expected,actual,pass", "cells",
                  {"r", "m", "expected", "actual", "pass"}),
    "green-profile": (["--exact", "ball-origin", "--sphere-samples", "16"],
                      {"source", "radii", "sup_values", "slope", "slope_stderr"},
                      "radius,sup,residual", "radii", None),
    "collide": (["--example", "two-point", "--t", "1/4", "--boundary-samples", "128",
                 "--n-radii", "6", "--n-dirs", "6"],
                {"config", "omega_hat", "l", "degree", "mode", "seed", "grid", "rows"},
                "t,deviation,slope", "rows",
                {"t", "envelope_dev", "slope", "upper_ok", "upper_margin", "eps_sample",
                 "oracle_gap"}),
    "schwarz": (["--example", "two-point", "--boundary-samples", "256"],
                {"config", "omega_lower", "rho", "R", "epsilon", "checks"},
                "index,degree,lhs,rhs,pass", "checks",
                {"index", "degree", "lhs", "rhs", "pass"}),
}


@pytest.mark.parametrize("command", REPORT_CONTRACTS)
def test_report_contract(tmp_path, command):
    argv, keys, header, items, item_keys = REPORT_CONTRACTS[command]
    code, out = run_cli(tmp_path, command, *argv, "--format", "both")
    assert code == EXIT_OK
    results = read_report(out, command)["results"]
    assert set(results) == keys
    if item_keys is not None:
        assert all(set(item) == item_keys for item in results[items])
    csv_lines = (out / f"{command}.csv").read_text().splitlines()
    assert csv_lines[0] == header
    assert len(csv_lines) == 1 + len(results[items]) > 1


def test_json_safe():
    plain = make_config([[0, Fraction(1, 2)]])
    assert "multiplicities" not in _json_safe(plain)
    assert _json_safe(make_config([[0, 0]], [2]))["multiplicities"] == [2]
    check = HarbourneCheck((HarbourneCell(2, 1, 1, 1),), seed=5)
    assert _json_safe({"check": check, "t": Fraction(1, 4), "pair": (Fraction(2), plain)}) == {
        "check": {"cells": [{"r": 2, "m": 1, "expected": 1, "actual": 1}], "seed": 5},
        "t": "1/4",
        "pair": ["2/1", {"dimension": 2, "points": [["0/1", "1/2"]], "label": ""}],
    }
    assert _json_safe(Verdict("v", False, "d")) == {"name": "v", "pass": False, "detail": "d"}


def test_config_file_source(tmp_path):
    cfg = generic_points(2, 4, seed=5)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code, out = run_cli(tmp_path, "omega", "--config", str(path), "--l-max", "1")
    assert code == EXIT_OK
    assert read_report(out, "omega")["results"]["config"]["label"] == cfg.label


def test_inline_config_source(tmp_path):
    cfg_json = '{"dimension": 2, "points": [["0/1", "0/1"]], "label": "o"}'
    code, out = run_cli(tmp_path, "omega", "--config-json", cfg_json,
                        "--l-max", "2")
    assert code == EXIT_OK
    assert read_report(out, "omega")["results"]["table"] == [[1, 1], [2, 2]]


def test_error_paths(tmp_path):
    assert main(["omega", "--config", "/does/not/exist.json"]) == EXIT_ERROR
    assert main(["omega"]) == EXIT_ERROR  # no config source
    assert main(["omega", "--grid", "2", "--r", "3"]) == EXIT_ERROR  # conflict
    assert main(["collide", "--example", "two-point", "--t", "abc"]) == EXIT_ERROR
    assert main(["nonsense"]) == EXIT_ERROR
    assert main(["omega", "--grid", "2", "--badflag"]) == EXIT_ERROR


def test_arithmetic_failure_is_one_line_error(tmp_path, capsys, monkeypatch):
    # a ReductionError from a runner is reported without a traceback
    from nagata import cli

    def reduce_one_seventh(spec):
        return PrimeField(7).from_rational(Fraction(1, 7))

    monkeypatch.setitem(cli._COMMANDS, "omega",
                        cli._COMMANDS["omega"]._replace(run=reduce_one_seventh))
    out = tmp_path / "reports"
    code = main(["omega", "--grid", "2", "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "divisible by modulus 7" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_report_reproducibility(tmp_path):
    a_code, a_out = run_cli(tmp_path / "a", "interval", "--n", "2", "--r", "6",
                            "--l-max", "2", "--seed", "9")
    b_code, b_out = run_cli(tmp_path / "b", "interval", "--n", "2", "--r", "6",
                            "--l-max", "2", "--seed", "9")
    assert a_code == b_code == EXIT_OK
    a = strip_volatile(read_report(a_out, "interval"))
    b = strip_volatile(read_report(b_out, "interval"))
    assert a == b


def test_all_reports_validate_against_schema(tmp_path):
    schema = load_schema()
    cases = [
        ["omega", "--grid", "2", "--l-max", "1"],
        ["nagata", "--n", "2", "--r", "10", "--l-max", "1", "--seed", "2"],
        ["harbourne", "--m-max", "1", "--seed", "1"],
        ["schwarz", "--config-json",
         '{"dimension": 2, "points": [["0/1", "0/1"]], "label": "o"}',
         "--l", "1", "--boundary-samples", "256"],
    ]
    for i, case in enumerate(cases):
        out = tmp_path / f"case{i}"
        code = main([*case, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VERDICT_FAILED)
        report = json.loads((out / f"{case[0]}.json").read_text())
        jsonschema.validate(report, schema)


@pytest.mark.parametrize("argv, name", [
    (["collide", "--example", "two-point", "--t", "1/2", "--n-radii", "1"], "n_radii"),
    (["collide", "--example", "two-point", "--t", "1/2", "--n-dirs", "0"], "n_dirs"),
    (["green-profile", "--exact", "ball-origin", "--sphere-samples", "0"],
     "sphere_samples"),
    (["green-profile", "--example", "two-point", "--t", "1/10", "--mode", "polydisc",
      "--boundary-samples", "64", "--sphere-samples", "0"], "sphere_samples"),
    (["schwarz", "--example", "two-point", "--boundary-samples", "0"],
     "boundary_samples"),
])
def test_bad_sample_counts_are_one_line_errors(tmp_path, capsys, argv, name):
    assert_one_line_error(tmp_path, capsys, argv, name)


def assert_one_line_error(tmp_path, capsys, argv, name):
    out = tmp_path / "reports"
    code = main([*argv, "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, name", [
    # no subcommand takes --prime or --scalar; with a valid prime or domain,
    # only argparse's "unrecognized arguments: --prime 7" can refuse them
    (["omega", "--grid", "2", "--prime", "7"], "prime"),
    (["interval", "--grid", "2", "--prime", "7"], "prime"),
    (["nagata", "--grid", "2", "--prime", "7"], "prime"),
    (["harbourne", "--prime", "7"], "prime"),
    (["collide", "--example", "two-point", "--t", "1/2", "--prime", "7"], "prime"),
    (["schwarz", "--example", "two-point", "--prime", "7"], "prime"),
    (["green-profile", "--exact", "ball-origin", "--prime", "7"], "prime"),
    # --grid 0 is a grid source, not an absent one
    (["omega", "--grid", "0"], "s must be >= 1"),
    (["omega", "--grid", "0", "--r", "5"], "conflicting config sources"),
    (["green-profile", "--grid", "0", "--t", "1/10"], "s must be >= 1"),
    # the scales must shrink toward the collision
    (["collide", "--example", "two-point", "--t", "1/4,1/2"], "t_sequence"),
    # --n and --bound are read by value, not by truthiness
    (["omega", "--grid", "2", "--n", "0"], "dimension must be >= 1"),
    (["omega", "--r", "3", "--bound", "0"], "bound 0 too small"),
    (["green-profile", "--exact", "ball-origin", "--scalar", "rational"], "scalar"),
    (["omega", "--grid", "2", "--l-max", "0"], "l_max"),
    (["interval", "--grid", "2", "--l-max", "0"], "l_max"),
    (["nagata", "--grid", "2", "--l-max", "0"], "l_max"),
    (["harbourne", "--m-max", "0"], "m_max"),
    # a parse error is one line too, with no usage block
    (["omega", "--grid", "2", "--badflag"], "badflag"),
    (["nonsense"], "nonsense"),
    # --n shapes only --grid and --r, --bound only --r
    (["omega", "--example", "two-point", "--n", "3"], "n: --n applies only"),
    (["omega", "--config-json", '{"dimension": 2, "points": [["0", "0"]]}',
      "--n", "2"], "n: --n applies only"),
    (["omega", "--config", "cfg.json", "--n", "2"], "n: --n applies only"),
    (["green-profile", "--exact", "ball-origin", "--n", "2"], "n: --n applies only"),
    (["omega", "--example", "two-point", "--bound", "5"], "bound: --bound applies only"),
    (["omega", "--grid", "2", "--bound", "5"], "bound: --bound applies only"),
    (["interval", "--config-json", '{"dimension": 2, "points": [["0", "0"]]}',
      "--bound", "5"], "bound: --bound applies only"),
    # dimension and multiplicities are integers, not truncated floats or bools
    (["omega", "--config-json", '{"dimension": 2.5, "points": [["0", "0"]]}'],
     "config-json: dimension must be an integer"),
    (["omega", "--config-json",
      '{"dimension": 2, "points": [["0", "0"], ["1", "1"]], "multiplicities": [1.5, 1]}'],
     "config-json: multiplicities must be an integer"),
    (["omega", "--config-json",
      '{"dimension": 2, "points": [["0", "0"], ["1", "1"]], "multiplicities": [true, 1]}'],
     "config-json: multiplicities must be an integer"),
    # a label is a string and a seed an integer, not whatever the JSON holds
    (["omega", "--config-json",
      '{"dimension": 2, "points": [["0", "0"], ["1", "2"]], "label": [1]}'],
     "config-json: label must be a string"),
    (["omega", "--config-json",
      '{"dimension": 2, "points": [["0", "0"], ["1", "2"]], "seed": true}'],
     "config-json: seed must be an integer"),
    *(([*source, "--scalar", "rational"], "unrecognized arguments: --scalar")
      for source in (["omega", "--grid", "2"], ["interval", "--grid", "2"],
                     ["nagata", "--grid", "2"], ["harbourne"],
                     ["collide", "--example", "two-point", "--t", "1/2"],
                     ["schwarz", "--example", "two-point"])),
    # a missing key or a value of the wrong kind is named
    (["omega", "--config-json", '{"points": [[0, 0], [1, 1]]}'],
     "config-json: config is missing the key 'dimension'"),
    (["omega", "--config-json", '{"dimension": 2}'],
     "config-json: config is missing the key 'points'"),
    (["omega", "--config-json", '[[0, 0], [1, 1]]'],
     "config-json: config must be a JSON object, got list"),
    (["omega", "--config-json",
      '{"dimension": 2, "points": [[0, 0], [1, 1]], "multiplicities": 3}'],
     "config-json: multiplicities must be a list, got 3"),
    (["omega", "--config-json", '{"dimension": 2, "points": "0,0"}'],
     "config-json: points must be a list, got '0,0'"),
    (["omega", "--config-json", '{"dimension": 1, "points": [0, 1]}'],
     "config-json: points[0] must be a list, got 0"),
    (["omega", "--config-json", '{"dimension": 1, "points": [[0], [null]]}'],
     "config-json: points[1] must hold rationals, got None"),
    (["omega", "--config-json", '{"dimension": 1, "points": [["1/x"]]}'],
     "config-json: points[0] must hold rationals, got '1/x'"),
    (["omega", "--config-json", '{"dimension": 1, "points": [[Infinity]]}'],
     "config-json: points[0] must hold rationals, got inf"),
    # an --exact target has its own mode, no pole scale and no config
    (["green-profile", "--exact", "two-point-limit", "--mode", "ball"],
     "mode: --exact two-point-limit lives in mode polydisc, not ball"),
    (["green-profile", "--exact", "ball-origin", "--mode", "polydisc"],
     "mode: --exact ball-origin lives in mode ball, not polydisc"),
    (["green-profile", "--exact", "two-point-limit", "--mode", "polydisc", "--t", "1/3"],
     "t: --t scales an approximant's poles"),
    (["green-profile", "--exact", "two-point-limit", "--mode", "ball", "--t", "1/3",
      "--r", "5"], "mode: --exact two-point-limit"),
    *((["green-profile", "--exact", "ball-origin", *source], "config: --exact")
      for source in (["--r", "5"], ["--grid", "2"], ["--example", "two-point"],
                     ["--config-json", '{"dimension": 2, "points": [["0", "0"]]}'])),
    # --l, --d and --boundary-samples shape an approximant: an --exact target
    # refuses them rather than record values it never reads
    *((["green-profile", "--exact", "ball-origin", flag, "3"],
      f"{flag[2:].replace('-', '_')}: {flag} shapes an approximant")
      for flag in ("--l", "--d", "--boundary-samples")),
])
def test_bad_arguments_are_one_line_errors(tmp_path, capsys, argv, name):
    assert_one_line_error(tmp_path, capsys, argv, name)


def test_small_prime_rank_loss_is_confirmed_away(tmp_path, monkeypatch):
    # mod 7 this config has a cubic through its 10 points; over Q it has none,
    # and the exact rank over Q steps past the rank lost mod 7
    monkeypatch.setattr(invariants, "DEFAULT_FIELD", PrimeField(7))
    argv = ["--n", "2", "--r", "10", "--seed", "3"]
    code, out = run_cli(tmp_path, "omega", *argv)
    assert code == EXIT_OK
    assert read_report(out, "omega")["results"]["table"] == [[1, 4]]
    code, out = run_cli(tmp_path, "interval", *argv)
    assert code == EXIT_OK
    assert read_report(out, "interval")["results"]["table"] == [[1, 4], [2, 7]]


def test_non_finite_report_is_refused(tmp_path, capsys, monkeypatch):
    from nagata import cli

    monkeypatch.setitem(cli._COMMANDS, "omega", cli._COMMANDS["omega"]._replace(
        run=lambda spec: ({"value": float("nan")}, [], [])))
    out = tmp_path / "reports"
    code = main(["omega", "--grid", "2", "--out", str(out), "--format", "both"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
