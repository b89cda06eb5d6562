"""CLI driver: subcommands, reports, schema validation, exit codes."""

import json

import jsonschema
import pytest

from nagata.cli import EXIT_ERROR, EXIT_OK, EXIT_VERDICT_FAILED, load_schema, main
from nagata.configs import generic_points


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
    gaps = [row["oracle_gap"] for row in report["results"]["rows"]]
    assert gaps[0] > gaps[-1]
    csv_lines = (out / "collide.csv").read_text().splitlines()
    assert csv_lines[0] == "t,deviation,slope"
    assert len(csv_lines) == 4


def test_schwarz_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "schwarz", "--example", "two-point", "--l",
                        "1", "--boundary-samples", "512")
    assert code == EXIT_OK
    report = read_report(out, "schwarz")
    assert all(c["pass"] for c in report["results"]["checks"])


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


def test_arithmetic_failure_is_one_line_error(tmp_path, capsys):
    # 1/7 has no image mod 7: a ReductionError, reported without a traceback
    cfg_json = '{"dimension":2,"points":[["1/7","0"],["2","3"]]}'
    code = main(["omega", "--config-json", cfg_json, "--prime", "7",
                 "--out", str(tmp_path / "reports")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "divisible by modulus 7" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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
    out = tmp_path / "reports"
    code = main([*argv, "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_report_is_refused(tmp_path, capsys, monkeypatch):
    from nagata import cli

    monkeypatch.setitem(cli._RUNNERS, "omega",
                        lambda spec: ({"value": float("nan")}, [], []))
    out = tmp_path / "reports"
    code = main(["omega", "--grid", "2", "--out", str(out), "--format", "both"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
