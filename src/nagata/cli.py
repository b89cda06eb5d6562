"""Command-line driver: experiment orchestration and reproducible reports.

Every subcommand writes a JSON report (optionally a CSV twin) that embeds the
full resolved spec, the library version, the master seed, and wall-clock
metadata, and that validates against the schema shipped with the package.
Exit status 0 means success, 2 means at least one mathematical verdict failed
(so a scan over seeds can be gated in CI), 1 means an operational error.
All randomness flows from the single --seed through named sub-streams.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema

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
    waldschmidt_interval,
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
    scalar: str = "field"
    prime: int | None = None
    seed: int = 0
    out: Path = Path("reports")
    format: str = "json"

    def to_json_dict(self) -> dict:
        d = {
            "command": self.command,
            "params": _json_safe(self.params),
            "scalar": self.scalar,
            "seed": self.seed,
            "format": self.format,
        }
        if self.prime is not None:
            d["prime"] = self.prime
        if self.config is not None:
            d["config"] = self.config.to_json_dict()
        return d


def _json_safe(value):
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
    """The report schema's validator, its schema checked once per process."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _resolve_config(args) -> PointConfig | None:
    sources = [s for s in ("config", "config_json", "example", "grid", "r")
               if getattr(args, s, None) is not None]
    if len(sources) > 1:
        raise CliError(f"conflicting config sources: {sources}")
    if getattr(args, "config", None) is not None:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config: file {path} does not exist")
        try:
            return PointConfig.from_json(path.read_text())
        except Exception as e:
            raise CliError(f"config: {e}") from e
    if getattr(args, "config_json", None) is not None:
        try:
            return PointConfig.from_json(args.config_json)
        except Exception as e:
            raise CliError(f"config-json: {e}") from e
    if getattr(args, "example", None) is not None:
        if args.example != "two-point":
            raise CliError(f"example: unknown name {args.example!r}")
        return two_point_example()
    if getattr(args, "grid", None) is not None:
        n = getattr(args, "n", None) or 2
        return grid_points(n, args.grid)
    if getattr(args, "r", None) is not None:
        n = getattr(args, "n", None) or 2
        return generic_points(n, args.r, derive_seed(args.seed, "configs"),
                              getattr(args, "bound", None) or 1000)
    return None


def _require_config(args) -> PointConfig:
    cfg = _resolve_config(args)
    if cfg is None:
        raise CliError("config: give --config, --config-json, --example, --grid, or --r")
    return cfg


def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"{name}: {text!r} is not an exact rational") from e


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (results dict, verdicts, csv rows)


def _run_omega(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    table = omega_table(cfg, l_max, spec.scalar, spec.prime)
    results = {"config": cfg.to_json_dict(), "table": [[l, om] for l, om in table]}
    rows = [("l", "omega_l")] + [(l, om) for l, om in table]
    return results, [], rows


def _run_interval(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    report = invariant_report(cfg, l_max, spec.scalar, spec.prime)
    results = report.to_json_dict()
    rows = [("l", "omega_l", "omega_lower", "omega_upper", "w_lower")]
    for l, om in report.table:
        rows.append((l, om, frac_str(report.omega_lower),
                     frac_str(report.omega_upper), frac_str(report.w_lower)))
    return results, list(report.verdicts), rows


def _run_nagata(spec: ExperimentSpec):
    cfg = spec.config
    l_max = spec.params["l_max"]
    checks = nagata_check(cfg, l_max, spec.scalar, spec.prime)
    verdicts = [
        Verdict(f"nagata-l{l}", ok,
                f"strict inequality {'holds' if ok else 'fails'} at l={l}")
        for l, ok in checks
    ]
    results = {"config": cfg.to_json_dict(), "checks": [[l, ok] for l, ok in checks]}
    rows = [("l", "strict_inequality_holds")] + [(l, ok) for l, ok in checks]
    return results, verdicts, rows


def _run_harbourne(spec: ExperimentSpec):
    check = harbourne_table_check(spec.params["m_max"], spec.seed,
                                  spec.scalar, spec.prime)
    results = {
        "seed": spec.seed,
        "cells": [
            {"r": c.r, "m": c.m, "expected": c.expected, "actual": c.actual,
             "pass": c.passed}
            for c in check.cells
        ],
    }
    rows = [("r", "m", "expected", "actual", "pass")]
    rows += [(c.r, c.m, c.expected, c.actual, c.passed) for c in check.cells]
    return results, check.verdicts(), rows


def _run_green_profile(spec: ExperimentSpec):
    p = spec.params
    radii = p.get("radii")
    seed = derive_seed(spec.seed, "green")
    if p.get("exact"):
        name = p["exact"]
        if name == "ball-origin":
            target, mode = (lambda z: ball_green_single_pole([0, 0], z)), "ball"
        elif name == "two-point-limit":
            target, mode = polydisc_two_pole_limit, "polydisc"
        else:
            raise CliError(f"exact: unknown formula {name!r}")
        profile = radial_profile(target, radii, p["sphere_samples"], seed,
                                 mode=mode, axis=p.get("axis"))
        source = {"exact": name}
    else:
        cfg = spec.config
        if cfg is None:
            raise CliError("config: a config (or --exact) is required")
        if p.get("t") is None:
            raise CliError("t: required when profiling an approximant")
        g = build_approximant(cfg, p["t"], p["l"], p["d"],
                              p["boundary_samples"], seed, p["mode"])
        profile = radial_profile(g, radii, p["sphere_samples"],
                                 derive_seed(spec.seed, "green-profile"),
                                 axis=p.get("axis"))
        source = {"config": cfg.to_json_dict(), "t": frac_str(p["t"]),
                  "eps_sample": g.eps_sample}
    results = {
        "source": source,
        "radii": list(profile.radii),
        "sup_values": list(profile.sup_values),
        "slope": profile.slope,
        "slope_stderr": profile.slope_stderr,
    }
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
        scalar=spec.scalar,
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
    results = table.to_json_dict()
    rows = [("t", "deviation", "slope")] + table.to_csv_rows()
    return results, verdicts, rows


def _run_schwarz(spec: ExperimentSpec):
    p = spec.params
    cfg = spec.config
    result = schwarz_check(cfg, p["l"], p.get("d"), p["rho"], p["R"],
                           p["epsilon"], p["boundary_samples"],
                           derive_seed(spec.seed, "green"), scalar=spec.scalar)
    verdicts = [v.to_verdict() for v in result.verdicts]
    results = {
        "config": cfg.to_json_dict(),
        "omega_lower": frac_str(result.omega_lower),
        "rho": result.rho,
        "R": result.R,
        "epsilon": result.epsilon,
        "checks": [
            {"index": v.index, "degree": v.degree, "lhs": v.lhs, "rhs": v.rhs,
             "pass": v.passed}
            for v in result.verdicts
        ],
    }
    rows = [("index", "degree", "lhs", "rhs", "pass")]
    rows += [(v.index, v.degree, v.lhs, v.rhs, v.passed) for v in result.verdicts]
    return results, verdicts, rows


_RUNNERS = {
    "omega": _run_omega,
    "interval": _run_interval,
    "nagata": _run_nagata,
    "harbourne": _run_harbourne,
    "green-profile": _run_green_profile,
    "collide": _run_collide,
    "schwarz": _run_schwarz,
}


def run(spec: ExperimentSpec) -> int:
    """Execute a spec, write report artifacts, return the exit status."""
    start = time.monotonic()
    results, verdicts, rows = _RUNNERS[spec.command](spec)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "spec": spec.to_json_dict(),
        "results": results,
        "verdicts": [v.to_json_dict() for v in verdicts],
        "meta": {
            "version": __version__,
            "seed": spec.seed,
            "elapsed_ms": elapsed_ms,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
    }
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
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_common(sub):
    sub.add_argument("--scalar", choices=["field", "rational"], default="field")
    sub.add_argument("--prime", type=int, help="prime-field modulus override")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--out", type=Path, default=Path("reports"))
    sub.add_argument("--format", choices=["json", "csv", "both"], default="json")


def _add_config_source(sub, generator=True):
    sub.add_argument("--config", help="path to a PointConfig JSON file")
    sub.add_argument("--config-json", dest="config_json",
                     help="inline PointConfig JSON")
    sub.add_argument("--example", choices=["two-point"],
                     help="named example configuration")
    sub.add_argument("--grid", type=int, metavar="S", help="grid side length s")
    if generator:
        sub.add_argument("--n", type=int, help="ambient dimension (default 2)")
        sub.add_argument("--r", type=int, help="number of generic points")
        sub.add_argument("--bound", type=int, help="coordinate box (default 1000)")


@functools.cache  # one parser per process, built on the first call to main
def build_parser() -> _Parser:
    parser = _Parser(prog="nagata",
                     description="Exact fat-point invariants and Green-function "
                                 "experiments")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("omega", parents=[], help="omega_l table")
    _add_config_source(s)
    s.add_argument("--l-max", dest="l_max", type=int, default=1)
    _add_common(s)

    s = subs.add_parser("interval", help="Waldschmidt interval and report")
    _add_config_source(s)
    s.add_argument("--l-max", dest="l_max", type=int, default=2)
    _add_common(s)

    s = subs.add_parser("nagata", help="strict Nagata inequality per level")
    _add_config_source(s)
    s.add_argument("--l-max", dest="l_max", type=int, default=1)
    _add_common(s)

    s = subs.add_parser("harbourne", help="small-r least-degree table check")
    s.add_argument("--m-max", dest="m_max", type=int, default=4)
    _add_common(s)

    s = subs.add_parser("green-profile", help="radial profile and log slope")
    _add_config_source(s)
    s.add_argument("--exact", choices=["ball-origin", "two-point-limit"],
                   help="profile a closed form instead of an approximant")
    s.add_argument("--mode", choices=["ball", "polydisc"], default="ball")
    s.add_argument("--t", help="exact rational pole scale, e.g. 1/10")
    s.add_argument("--l", type=int, default=1)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--radii", help="comma-separated decreasing radii in (0,1)")
    s.add_argument("--sphere-samples", dest="sphere_samples", type=int, default=512)
    s.add_argument("--boundary-samples", dest="boundary_samples", type=int,
                   default=4096)
    s.add_argument("--axis", type=int, help="restrict sampling to one axis")
    _add_common(s)

    s = subs.add_parser("collide", help="pole-collision convergence table")
    _add_config_source(s)
    s.add_argument("--t", required=True,
                   help="comma-separated decreasing rational scales, e.g. 0.5,0.25,0.1")
    s.add_argument("--l", type=int, default=1)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--mode", choices=["ball", "polydisc"], default="polydisc")
    s.add_argument("--r-min", dest="r_min", type=float, default=0.3)
    s.add_argument("--r-max", dest="r_max", type=float, default=0.95)
    s.add_argument("--n-radii", dest="n_radii", type=int, default=20)
    s.add_argument("--n-dirs", dest="n_dirs", type=int, default=20)
    s.add_argument("--boundary-samples", dest="boundary_samples", type=int,
                   default=4096)
    s.add_argument("--with-oracle", dest="with_oracle", action="store_true",
                   help="report the pointwise gap to the two-point closed form")
    _add_common(s)

    s = subs.add_parser("schwarz", help="Schwarz-type norm inequality check")
    _add_config_source(s)
    s.add_argument("--l", type=int, default=1)
    s.add_argument("--d", type=int, help="degree cap (default: omega_l)")
    s.add_argument("--rho", type=float, default=0.25)
    s.add_argument("--R", type=float, default=8.0)
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--boundary-samples", dest="boundary_samples", type=int,
                   default=4096)
    _add_common(s)

    return parser


def spec_from_args(args) -> ExperimentSpec:
    command = args.command
    if args.prime is not None:  # a prime must reach an omega_l search
        if args.prime < 2:
            raise CliError(f"prime: {args.prime} is not a prime")
        if command in ("green-profile", "collide", "schwarz"):
            raise CliError(f"prime: {command} runs no prime-field search")
        if args.scalar == "rational":
            raise CliError("prime: --scalar rational runs no prime-field search")
    params: dict = {}
    config = None
    if command in ("omega", "interval", "nagata"):
        config = _require_config(args)
        if args.l_max < 1:
            raise CliError("l-max: must be >= 1")
        params["l_max"] = args.l_max
    elif command == "harbourne":
        if args.m_max < 1:
            raise CliError("m-max: must be >= 1")
        params["m_max"] = args.m_max
    elif command == "green-profile":
        config = _resolve_config(args)
        params["exact"] = args.exact
        params["mode"] = args.mode
        params["l"] = args.l
        params["d"] = args.d
        params["sphere_samples"] = args.sphere_samples
        params["boundary_samples"] = args.boundary_samples
        params["axis"] = args.axis
        if args.t:
            params["t"] = _parse_fraction(args.t, "t")
        if args.radii:
            try:
                params["radii"] = [float(x) for x in args.radii.split(",")]
            except ValueError as e:
                raise CliError(f"radii: {e}") from e
        if not args.exact and config is None:
            raise CliError("config: give a config source or --exact")
    elif command == "collide":
        config = _require_config(args)
        params["t_sequence"] = [_parse_fraction(x, "t") for x in args.t.split(",")]
        params["l"] = args.l
        params["d"] = args.d
        params["mode"] = args.mode
        params["r_min"] = args.r_min
        params["r_max"] = args.r_max
        params["n_radii"] = args.n_radii
        params["n_dirs"] = args.n_dirs
        params["boundary_samples"] = args.boundary_samples
        params["with_oracle"] = args.with_oracle
    elif command == "schwarz":
        config = _require_config(args)
        params["l"] = args.l
        params["d"] = args.d
        params["rho"] = args.rho
        params["R"] = args.R
        params["epsilon"] = args.epsilon
        params["boundary_samples"] = args.boundary_samples
    return ExperimentSpec(
        command=command, params=params, config=config, scalar=args.scalar,
        prime=args.prime, seed=args.seed, out=args.out, format=args.format,
    )


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
