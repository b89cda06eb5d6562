"""Command-line driver: experiment orchestration and reproducible reports.

Every subcommand writes a JSON report (optionally a CSV twin) that embeds the
full resolved spec, the library version, the master seed, and wall-clock
metadata, and that validates against the schema shipped with the package.
Exit status 0 means success, 2 means at least one mathematical verdict failed
(so a scan over seeds can be gated in CI), 1 means an operational error.
All randomness flows from the single --seed through named sub-streams.
One table, ``_COMMANDS``, declares each subcommand once (help, runner, own
options, config source); it builds both the parser and the spec.  One
serializer, ``_json_safe``, turns every runner's library results into the
report's JSON, so no other module knows the report format.  No option
picks a scalar domain or a search prime: every omega_l is certified over Q.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .configs import PointConfig, frac_str, generic_points, grid_points, two_point_example
from .green import (
    ball_green_single_pole,
    build_approximant,
    collision_experiment,
    polydisc_two_pole_limit,
    radial_profile,
    schwarz_check,
    two_point_oracle,
)
from .invariants import (
    Verdict,
    harbourne_table_check,
    invariant_report,
    nagata_check,
    omega_table,
)
from .seeds import derive_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT_FAILED = 2


class CliError(Exception):
    """Malformed spec; the message names the offending field."""


@dataclass
class ExperimentSpec:
    """Resolved description of one experiment run."""

    command: str
    params: dict = dc_field(default_factory=dict)
    config: PointConfig | None = None
    seed: int = 0
    out: Path = Path("reports")
    format: str = "json"

    def to_json_dict(self) -> dict:
        d = {
            "command": self.command,
            "params": _json_safe(self.params),
            "seed": self.seed,
            "format": self.format,
        }
        if self.config is not None:
            d["config"] = self.config.to_json_dict()
        return d


def _json_safe(value):
    """The report JSON of a result, the one serializer of every report: an
    object with ``to_json_dict`` (a PointConfig, whose method is also the
    config-file format, a Verdict, the spec) by that method, any other
    dataclass as {field name: its value's JSON}, a Fraction as "num/den",
    and dicts, lists and tuples item by item."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _json_safe(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def load_schema() -> dict:
    text = resources.files("nagata").joinpath("report.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _report_validator():
    """The report schema's validator, its schema checked once per process.
    jsonschema is imported here, so importing this module does not load it."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _resolve_config(args) -> PointConfig | None:
    sources = [s for s in ("config", "config_json", "example", "grid", "r")
               if getattr(args, s) is not None]
    if len(sources) > 1:
        raise CliError(f"conflicting config sources: {sources}")
    if args.n is not None and args.grid is None and args.r is None:
        raise CliError("n: --n applies only to --grid and --r")
    if args.bound is not None and args.r is None:
        raise CliError("bound: --bound applies only to --r")
    n = 2 if args.n is None else args.n
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config: file {path} does not exist")
        try:
            return PointConfig.from_json(path.read_text())
        except Exception as e:
            raise CliError(f"config: {e}") from e
    if args.config_json is not None:
        try:
            return PointConfig.from_json(args.config_json)
        except Exception as e:
            raise CliError(f"config-json: {e}") from e
    if args.example is not None:
        return two_point_example()
    if args.grid is not None:
        return grid_points(n, args.grid)
    if args.r is not None:
        return generic_points(n, args.r, derive_seed(args.seed, "configs"),
                              1000 if args.bound is None else args.bound)
    return None


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (results, verdicts, csv rows),
# the results as library values that ``run`` serializes with ``_json_safe``


def _run_omega(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    table = omega_table(cfg, l_max)
    results = {"config": cfg, "table": table}
    rows = [("l", "omega_l")] + [(l, om) for l, om in table]
    return results, [], rows


def _run_interval(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    report = invariant_report(cfg, l_max)
    rows = [("l", "omega_l", "omega_lower", "omega_upper", "w_lower")]
    for l, om in report.table:
        rows.append((l, om, frac_str(report.omega_lower),
                     frac_str(report.omega_upper), frac_str(report.w_lower)))
    results = _json_safe(report)
    del results["verdicts"]  # the report's top-level verdicts
    return results, list(report.verdicts), rows


def _run_nagata(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    checks = nagata_check(cfg, l_max)
    verdicts = [
        Verdict(f"nagata-l{l}", ok,
                f"strict inequality {'holds' if ok else 'fails'} at l={l}")
        for l, ok in checks
    ]
    results = {"config": cfg, "checks": checks}
    rows = [("l", "strict_inequality_holds")] + [(l, ok) for l, ok in checks]
    return results, verdicts, rows


def _run_harbourne(spec: ExperimentSpec):
    check = harbourne_table_check(spec.params["m_max"], spec.seed)
    results = {"seed": check.seed,
               "cells": [{**_json_safe(c), "pass": c.passed} for c in check.cells]}
    rows = [("r", "m", "expected", "actual", "pass")]
    rows += [(c.r, c.m, c.expected, c.actual, c.passed) for c in check.cells]
    return results, check.verdicts(), rows


# green-profile options that only an approximant reads, and their defaults;
# the report's spec records them as resolved, or null for an --exact target
_APPROXIMANT_DEFAULTS = {"l": 1, "d": 2, "boundary_samples": 4096}


def _run_green_profile(spec: ExperimentSpec):
    p = spec.params
    radii = p["radii"]
    seed = derive_seed(spec.seed, "green")
    if p["exact"] is not None:
        if p["exact"] == "ball-origin":
            target, mode = (lambda z: ball_green_single_pole([0, 0], z)), "ball"
        else:  # "two-point-limit", the other --exact choice
            target, mode = polydisc_two_pole_limit, "polydisc"
        if p["mode"] not in (None, mode):
            raise CliError(f"mode: --exact {p['exact']} lives in mode {mode}, not {p['mode']}")
        if p["t"] is not None:
            raise CliError("t: --t scales an approximant's poles, not an --exact target")
        if spec.config is not None:
            raise CliError("config: --exact profiles a closed form and takes no config")
        for key in _APPROXIMANT_DEFAULTS:
            if p[key] is not None:
                flag = "--" + key.replace("_", "-")
                raise CliError(f"{key}: {flag} shapes an approximant, not an --exact target")
        p["mode"] = mode  # the report's spec records the mode profiled
        profile = radial_profile(target, radii, p["sphere_samples"], seed,
                                 mode=mode, axis=p["axis"])
        source = {"exact": p["exact"]}
    else:
        cfg = spec.config
        if cfg is None:
            raise CliError("config: a config (or --exact) is required")
        if p["t"] is None:
            raise CliError("t: required when profiling an approximant")
        p["mode"] = p["mode"] or "ball"
        for key, default in _APPROXIMANT_DEFAULTS.items():
            if p[key] is None:
                p[key] = default
        g = build_approximant(cfg, p["t"], p["l"], p["d"],
                              p["boundary_samples"], seed, p["mode"])
        profile = radial_profile(g, radii, p["sphere_samples"],
                                 derive_seed(spec.seed, "green-profile"),
                                 axis=p["axis"])
        source = {"config": cfg, "t": p["t"], "eps_sample": g.eps_sample}
    results = {"source": source, **_json_safe(profile)}
    rows = [("radius", "sup", "residual")] + profile.to_csv_rows()
    return results, [], rows


def _run_collide(spec: ExperimentSpec):
    p = spec.params
    cfg = spec.config
    oracle = two_point_oracle if p["with_oracle"] else None
    table = collision_experiment(
        cfg, p["l"], p["d"], p["t_sequence"], mode=p["mode"],
        r_min=p["r_min"], r_max=p["r_max"], n_radii=p["n_radii"],
        n_dirs=p["n_dirs"], boundary_samples=p["boundary_samples"],
        seed=derive_seed(spec.seed, "green"), oracle=oracle,
    )
    devs = [r.envelope_dev for r in table.rows]
    non_increasing = all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    verdicts = [Verdict("envelope-deviation-non-increasing", non_increasing,
                        f"deviations {devs}")]
    for row in table.rows:
        verdicts.append(Verdict(
            f"upper-bound-t{frac_str(row.t)}", row.upper_ok,
            f"margin {row.upper_margin:.4f} vs eps {row.eps_sample:.2e} "
            "(collision-limit bound; expected to fail at coarse t when "
            "omega_hat > 1)"))
    rows = [("t", "deviation", "slope")]
    rows += [(frac_str(r.t), r.envelope_dev, r.slope) for r in table.rows]
    return table, verdicts, rows


def _run_schwarz(spec: ExperimentSpec):
    p = spec.params
    cfg = spec.config
    result = schwarz_check(cfg, p["l"], p["d"], p["rho"], p["R"],
                           p["epsilon"], p["boundary_samples"],
                           derive_seed(spec.seed, "green"))
    verdicts = [Verdict(f"schwarz-poly{v.index}", v.passed,
                        f"ln||f||_r = {v.lhs:.6f} <= {v.rhs:.6f}")
                for v in result.verdicts]
    results = {"config": cfg, **_json_safe(result),
               "checks": [{**_json_safe(v), "pass": v.passed} for v in result.verdicts]}
    del results["verdicts"]
    rows = [("index", "degree", "lhs", "rhs", "pass")]
    rows += [(v.index, v.degree, v.lhs, v.rhs, v.passed) for v in result.verdicts]
    return results, verdicts, rows


def run(spec: ExperimentSpec) -> int:
    """Execute a spec, write report artifacts, return the exit status."""
    start = time.monotonic()
    results, verdicts, rows = _COMMANDS[spec.command].run(spec)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = _json_safe({
        "spec": spec,
        "results": results,
        "verdicts": verdicts,
        "meta": {
            "version": __version__,
            "seed": spec.seed,
            "elapsed_ms": elapsed_ms,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
    })
    _report_validator().validate(report)
    # a non-finite float is no JSON: refuse it before anything is written
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    spec.out.mkdir(parents=True, exist_ok=True)
    if spec.format in ("json", "both"):
        path = spec.out / f"{spec.command}.json"
        path.write_text(text)
        print(f"wrote {path}")
    if spec.format in ("csv", "both"):
        path = spec.out / f"{spec.command}.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {path}")
    failed = [v for v in verdicts if not v.passed]
    for v in verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    return EXIT_VERDICT_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code 2 is reserved
        raise CliError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact rational") from None


def _fractions(text: str) -> list:
    return [_fraction(x) for x in text.split(",")]


def _floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


class Subcommand(NamedTuple):
    """One subcommand.  Its own options, given as ``(flag, argparse kwargs)``,
    land in ``spec.params`` under their dests."""

    help: str
    run: Callable  # spec -> (results, verdicts, csv rows)
    options: tuple
    config: str = "required"  # "required", "optional" or "none"


_CONFIG_SOURCE = (
    ("--config", dict(help="path to a PointConfig JSON file")),
    ("--config-json", dict(help="inline PointConfig JSON")),
    ("--example", dict(choices=["two-point"], help="named example configuration")),
    ("--grid", dict(type=int, metavar="S", help="grid side length s")),
    ("--n", dict(type=int, help="ambient dimension for --grid/--r (default 2)")),
    ("--r", dict(type=int, help="number of generic points")),
    ("--bound", dict(type=int, help="coordinate box for --r (default 1000)")),
)

_COMMON = (
    ("--seed", dict(type=int, default=0, help="master seed")),
    ("--out", dict(type=Path, default=Path("reports"))),
    ("--format", dict(choices=["json", "csv", "both"], default="json")),
)

_BOUNDARY_SAMPLES = ("--boundary-samples", dict(type=int, default=4096))

_COMMANDS = {
    "omega": Subcommand("omega_l table", _run_omega, (
        ("--l-max", dict(type=int, default=1)),
    )),
    "interval": Subcommand("Waldschmidt interval and report", _run_interval, (
        ("--l-max", dict(type=int, default=2)),
    )),
    "nagata": Subcommand("strict Nagata inequality per level", _run_nagata, (
        ("--l-max", dict(type=int, default=1)),
    )),
    "harbourne": Subcommand("small-r least-degree table check", _run_harbourne, (
        ("--m-max", dict(type=int, default=4)),
    ), config="none"),
    "green-profile": Subcommand("radial profile and log slope", _run_green_profile, (
        ("--exact", dict(choices=["ball-origin", "two-point-limit"],
                         help="profile a closed form instead of an approximant")),
        ("--mode", dict(choices=["ball", "polydisc"],
                        help="default: the --exact target's own mode, else ball")),
        ("--t", dict(type=_fraction, help="exact rational pole scale, e.g. 1/10")),
        ("--l", dict(type=int, help="default 1; an approximant's only")),
        ("--d", dict(type=int, help="default 2; an approximant's only")),
        ("--radii", dict(type=_floats,
                         help="comma-separated decreasing radii in (0,1)")),
        ("--sphere-samples", dict(type=int, default=512)),
        ("--boundary-samples", dict(type=int, help="default 4096; an approximant's only")),
        ("--axis", dict(type=int, help="restrict sampling to one axis")),
    ), config="optional"),
    "collide": Subcommand("pole-collision convergence table", _run_collide, (
        ("--t", dict(type=_fractions, required=True, dest="t_sequence", metavar="T",
                     help="comma-separated decreasing rational scales, "
                          "e.g. 0.5,0.25,0.1")),
        ("--l", dict(type=int, default=1)),
        ("--d", dict(type=int, default=2)),
        ("--mode", dict(choices=["ball", "polydisc"], default="polydisc")),
        ("--r-min", dict(type=float, default=0.3)),
        ("--r-max", dict(type=float, default=0.95)),
        ("--n-radii", dict(type=int, default=20)),
        ("--n-dirs", dict(type=int, default=20)),
        _BOUNDARY_SAMPLES,
        ("--with-oracle", dict(action="store_true",
                               help="report the pointwise gap to the two-point "
                                    "closed form")),
    )),
    "schwarz": Subcommand("Schwarz-type norm inequality check", _run_schwarz, (
        ("--l", dict(type=int, default=1)),
        ("--d", dict(type=int, help="degree cap (default: omega_l)")),
        ("--rho", dict(type=float, default=0.25)),
        ("--R", dict(type=float, default=8.0)),
        ("--epsilon", dict(type=float, default=0.1)),
        _BOUNDARY_SAMPLES,
    )),
}


def _dest(flag: str, kwargs: dict) -> str:
    return kwargs.get("dest", flag[2:].replace("-", "_"))


@functools.cache  # one parser per process, built on the first call to main
def build_parser() -> _Parser:
    parser = _Parser(prog="nagata",
                     description="Exact fat-point invariants and Green-function "
                                 "experiments")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help)
        for flag, kwargs in (*(_CONFIG_SOURCE if cmd.config != "none" else ()),
                             *cmd.options, *_COMMON):
            sub.add_argument(flag, **kwargs)
    return parser


def spec_from_args(args) -> ExperimentSpec:
    cmd = _COMMANDS[args.command]
    config = _resolve_config(args) if cmd.config != "none" else None
    if config is None and cmd.config == "required":
        raise CliError("config: give --config, --config-json, --example, --grid, or --r")
    params = {_dest(flag, kw): getattr(args, _dest(flag, kw)) for flag, kw in cmd.options}
    return ExperimentSpec(command=args.command, params=params, config=config,
                          seed=args.seed, out=args.out, format=args.format)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = spec_from_args(args)
        return run(spec)
    except (CliError, ValueError, TypeError, OSError, ArithmeticError, RuntimeError) as e:
        # ArithmeticError covers ReductionError (a coordinate's denominator
        # divisible by the prime); RuntimeError an empty kernel or sample set
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
