"""The benchmark's workloads: inputs generated from the master seed, the ops
that run on them, and each op's pinned correctness check.

Every op looks its library function up through the module at call time, so
the traced run's wrappers see it.  Every pass of a run gets fresh inputs of
the same size (``ops(k)`` for pass k), so no call repeats an earlier pass's
inputs.  Expected values come from the inputs, not from a recorded run:
closed forms for generic plane points, or field references the library
computes after the pass's timed calls.  Why each workload exists, and which
ROADMAP item it serves, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from nagata import cli, configs, fatpoints, invariants
from nagata.seeds import derive_seed


@dataclass
class Op:
    """One timed call.  ``observe`` turns the raw result into the value that
    is checked and fingerprinted (untimed); ``check`` returns the problems
    found, given the observed values of every op of the pass."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    observe: Callable[[object], object] = lambda result: result


def expected_omega(r: int, l: int) -> int:
    """omega_l of r general points of the plane.

    r <= 9: Harbourne's ceil(c_r l).  r >= 10: the least degree whose
    expected dimension C(d+2, 2) - r C(l+1, 2) is positive; such systems are
    non-special for the multiplicities used here (SHGH is proven for l <= 42).
    """
    if r <= 9:
        return math.ceil(invariants.HARBOURNE_CR[r - 1] * l)
    d = l
    while comb(d + 2, 2) - r * comb(l + 1, 2) < 1:
        d += 1
    return d


def stream(name: str, k: int) -> str:
    """Seed stream of pass k; pass 0 uses the plain name."""
    return name if k == 0 else f"{name}-p{k}"


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# harbourne-field


class HarbourneField:
    """The 72 omega_l cells of ``nagata harbourne --m-max 8 --seed <seed>``
    (pass 0; later passes draw their own configurations)."""

    name = "harbourne-field"
    min_passes = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def ops(self, k: int) -> list:
        ops = []
        for r in range(1, 10):
            cfg = configs.generic_points(
                2, r, derive_seed(self.seed, stream(f"harbourne-r{r}", k)), 1000)
            for m in range(1, 9):
                want = expected_omega(r, m)
                ops.append(Op(
                    f"omega-r{r}-m{m}",
                    lambda cfg=cfg, m=m: invariants.omega_l(cfg, m),
                    lambda got, done, want=want: (
                        [] if got == want else [f"omega_l = {got}, expected {want}"]),
                ))
        return ops

    def warm_up(self) -> None:
        invariants.omega_l(configs.generic_points(2, 2, 0, 1000), 2)


# ---------------------------------------------------------------------------
# kernel-exact

KERNEL_L = 3
FIELD_KERNEL_R = (10, 12, 14, 16, 18, 20)
RATIONAL_KERNEL_R = (6, 8, 10)
RATIONAL_OMEGA_R = (6, 8, 10, 12)
RATIONAL_OMEGA_L = (1, 2, 3)


class KernelExact:
    """Kernel extraction at l = 3, d = omega_3 over M61 and Q, plus rational
    omega_l cells."""

    name = "kernel-exact"
    min_passes = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def ops(self, k: int) -> list:
        rs = sorted({*FIELD_KERNEL_R, *RATIONAL_KERNEL_R, *RATIONAL_OMEGA_R})
        cfgs = {
            r: configs.generic_points(
                2, r, derive_seed(self.seed, stream(f"kernel-exact-r{r}", k)), 1000)
            for r in rs
        }
        reference: dict = {}

        def field_omega(r, l):
            # computed in the checks, which run after every timed call of the pass
            if (r, l) not in reference:
                reference[r, l] = invariants.omega_l(cfgs[r], l)
            return reference[r, l]

        ops = [self._kernel_op(cfgs[r], r, invariants.DEFAULT_FIELD, field_omega)
               for r in FIELD_KERNEL_R]
        ops += [self._kernel_op(cfgs[r], r, None, field_omega) for r in RATIONAL_KERNEL_R]
        ops += [self._omega_op(cfgs[r], r, l, field_omega) for r in RATIONAL_OMEGA_R
                for l in RATIONAL_OMEGA_L]
        return ops

    @staticmethod
    def _kernel_op(cfg, r, field, field_omega):
        domain = "Q" if field is None else "M61"
        d = expected_omega(r, KERNEL_L)
        problem = fatpoints.InterpolationProblem.uniform(cfg, KERNEL_L, d, field)

        def check(polys, done):
            problems = []
            _expect(problems, field_omega(r, KERNEL_L) == d,
                    f"input degree {d} is not omega_{KERNEL_L} = "
                    f"{field_omega(r, KERNEL_L)}")
            _expect(problems, len(polys) > 0, "empty kernel")
            _expect(problems, all(p.degree == d for p in polys),
                    "a kernel polynomial has degree below omega")
            _expect(problems, all(min(p.achieved_orders) >= KERNEL_L for p in polys),
                    f"an achieved order is below {KERNEL_L}")
            if r >= 10:
                want = comb(d + 2, 2) - r * comb(KERNEL_L + 1, 2)
                _expect(problems, len(polys) == want,
                        f"kernel dimension {len(polys)}, expected {want}")
            other = done.get(f"kernel-M61-r{r}")
            if field is None and other is not None:
                _expect(problems, len(polys) == len(other),
                        f"kernel dimension {len(polys)} over Q, {len(other)} over M61")
            return problems

        return Op(f"kernel-{domain}-r{r}",
                  lambda: fatpoints.kernel_polynomials(problem), check)

    @staticmethod
    def _omega_op(cfg, r, l, field_omega):
        want = expected_omega(r, l)

        def check(got, done):
            field_value = field_omega(r, l)
            problems = []
            _expect(problems, got == field_value,
                    f"rational omega_{l} = {got}, field value {field_value}")
            _expect(problems, got == want, f"rational omega_{l} = {got}, expected {want}")
            return problems

        return Op(f"omega-Q-r{r}-l{l}",
                  lambda: invariants.omega_l(cfg, l, "rational"), check)

    def warm_up(self) -> None:
        cfg = configs.generic_points(2, 3, 0, 1000)
        for field in (invariants.DEFAULT_FIELD, None):
            fatpoints.kernel_polynomials(
                fatpoints.InterpolationProblem.uniform(cfg, 2, 4, field))


# ---------------------------------------------------------------------------
# cli-reports

TWO_POINT_T = "1/2,1/4,1/10,1/20"
GRID_BALL_T = "1/8,1/16,1/32,1/64"


def _check_interval(report):
    r, l_max = 16, 3
    table = [[l, expected_omega(r, l)] for l in range(1, l_max + 1)]
    lower = max(Fraction(om, l + 1) for l, om in table)
    upper = min(Fraction(om, l) for l, om in table)
    res = report["results"]
    problems = []
    _expect(problems, res["table"] == table, f"table {res['table']}, expected {table}")
    want = [configs.frac_str(lower), configs.frac_str(upper)]
    got = [res["omega_lower"], res["omega_upper"]]
    _expect(problems, got == want, f"interval {got}, expected {want}")
    _expect(problems, len(report["verdicts"]) == 6, "expected 6 verdicts")
    return problems


def _check_nagata(r, l_max, holds):
    def check(report):
        want = [[l, holds] for l in range(1, l_max + 1)]
        got = report["results"]["checks"]
        return [] if got == want else [f"checks {got}, expected {want}"]
    return check


def _check_omega_grid(report):
    want = [[l, 4 * l] for l in range(1, 4)]  # omega_l of the s x s grid is s*l
    got = report["results"]["table"]
    return [] if got == want else [f"table {got}, expected {want}"]


def _check_harbourne(report):
    cells = report["results"]["cells"]
    bad = [c for c in cells if c["actual"] != expected_omega(c["r"], c["m"])]
    problems = []
    _expect(problems, len(cells) == 27, f"{len(cells)} cells, expected 27")
    _expect(problems, not bad, f"cells off the closed form: {bad}")
    return problems


def _check_two_point_collide(report):
    res = report["results"]
    gaps = [row["oracle_gap"] for row in res["rows"]]
    problems = []
    _expect(problems, res["omega_hat"] == "1/1", f"omega_hat {res['omega_hat']}")
    _expect(problems, len(gaps) == 4 and None not in gaps, f"oracle gaps {gaps}")
    if len(gaps) == 4 and None not in gaps:
        _expect(problems, all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 5e-3,
                f"oracle gaps {gaps} do not shrink below 5e-3")
    return problems


def _check_grid_collide(report):
    res = report["results"]
    margins = [row["upper_margin"] for row in res["rows"]]
    problems = []
    _expect(problems, res["omega_hat"] == "2/1", f"omega_hat {res['omega_hat']}")
    _expect(problems, len(margins) == 4 and margins[0] > 0.05
            and margins[-1] < margins[0] / 2, f"upper margins {margins} do not shrink")
    return problems


def _check_slope(target, tol, max_eps=None):
    def check(report):
        res = report["results"]
        problems = []
        _expect(problems, abs(res["slope"] - target) < tol,
                f"slope {res['slope']}, expected {target} +- {tol}")
        if max_eps is not None:
            eps = res["source"]["eps_sample"]
            _expect(problems, 0.0 <= eps < max_eps, f"eps_sample {eps}")
        return problems
    return check


def _check_schwarz(report):
    res = report["results"]
    problems = []
    _expect(problems, res["omega_lower"] == "1/2", f"omega_lower {res['omega_lower']}")
    _expect(problems, len(res["checks"]) == 1, f"{len(res['checks'])} checks")
    return problems


# Verdicts as (must fail, may fail).  In the grid collision the upper-bound
# margin shrinks towards 0 as t does (the collision limit).  At t = 1/8 it
# is far above eps_sample on every seed tried; at the finer scales it comes
# within a few hundredths of 0, and whether it and the envelope deviation
# pass depends on the sampled directions.
PASS = (frozenset(), frozenset())
GRID_VERDICTS = (frozenset({"upper-bound-t1/8"}),
                 frozenset({"upper-bound-t1/16", "upper-bound-t1/32",
                            "upper-bound-t1/64", "envelope-deviation-non-increasing"}))

# (argv, exit code, verdicts, result check)
CLI_COMMANDS = [
    (["interval", "--r", "16", "--l-max", "3"], 0, PASS, _check_interval),
    (["nagata", "--r", "12", "--l-max", "4"], 0, PASS, _check_nagata(12, 4, True)),
    (["nagata", "--r", "9", "--l-max", "2"], 2,
     (frozenset({"nagata-l1", "nagata-l2"}), frozenset()), _check_nagata(9, 2, False)),
    (["omega", "--grid", "4", "--l-max", "3"], 0, PASS, _check_omega_grid),
    (["harbourne", "--m-max", "3"], 0, PASS, _check_harbourne),
    (["collide", "--example", "two-point", "--t", TWO_POINT_T, "--with-oracle",
      "--d", "2"], 0, PASS, _check_two_point_collide),
    (["collide", "--example", "two-point", "--t", TWO_POINT_T, "--with-oracle",
      "--l", "2", "--d", "4"], 0, PASS, _check_two_point_collide),
    (["collide", "--grid", "2", "--mode", "ball", "--t", GRID_BALL_T], 2, GRID_VERDICTS,
     _check_grid_collide),
    (["green-profile", "--r", "10", "--t", "1/200", "--l", "2", "--d", "7", "--mode",
      "polydisc", "--bound", "20"], 0, PASS,
     _check_slope(expected_omega(10, 2) / 2, 1.0, max_eps=0.05)),
    (["green-profile", "--example", "two-point", "--t", "1/10", "--mode", "polydisc"],
     0, PASS, _check_slope(1.0, 1e-3, max_eps=0.05)),
    (["green-profile", "--exact", "ball-origin", "--mode", "ball"], 0, PASS,
     _check_slope(1.0, 1e-9)),
    (["green-profile", "--exact", "two-point-limit", "--mode", "polydisc"], 0, PASS,
     _check_slope(1.0, 1e-9)),
    (["schwarz", "--example", "two-point"], 0, PASS, _check_schwarz),
]

# on configurations and parameters no timed command uses
CLI_WARM_UP = [
    ["omega", "--grid", "3"],
    ["collide", "--example", "two-point", "--t", "1/3", "--with-oracle", "--n-radii",
     "3", "--n-dirs", "3", "--boundary-samples", "16"],
    ["green-profile", "--exact", "two-point-limit", "--mode", "polydisc",
     "--sphere-samples", "8"],
]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class CliReports:
    """``nagata.cli.main`` in-process on pinned arguments; every command gets
    the pass's seed (the master seed on pass 0) and writes its report into a
    scratch directory."""

    name = "cli-reports"
    min_passes = 2

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.seed = seed

    def ops(self, k: int) -> list:
        seed = self.seed if k == 0 else derive_seed(self.seed, stream("cli-reports", k))
        return [self._op(seed, *spec) for spec in CLI_COMMANDS]

    def _argv(self, argv, seed):
        return [*argv, "--seed", str(seed), "--out", self.out_dir]

    def _op(self, seed, argv, want_code, verdicts, check_results):
        must_fail, may_fail = verdicts
        full = self._argv(argv, seed)
        path = os.path.join(self.out_dir, f"{argv[0]}.json")

        def observe(code):
            # removed once read, so a later command that fails to write
            # cannot be judged on this report
            with open(path) as fh:
                report = json.load(fh)
            os.remove(path)
            return {"code": code, "results": report["results"],
                    "verdicts": report["verdicts"]}

        def check(seen, done):
            failed = {v["name"] for v in seen["verdicts"] if not v["pass"]}
            problems = []
            _expect(problems, seen["code"] == want_code,
                    f"exit {seen['code']}, expected {want_code}")
            _expect(problems, must_fail <= failed <= must_fail | may_fail,
                    f"failed verdicts {sorted(failed)}, expected {sorted(must_fail)}"
                    + (f" and possibly {sorted(may_fail)}" if may_fail else ""))
            return problems + check_results(seen)

        return Op(" ".join(argv), lambda: _quiet_main(full), check, observe)

    def warm_up(self) -> None:
        for argv in CLI_WARM_UP:
            _quiet_main(self._argv(argv, self.seed))


WORKLOADS = {w.name: w for w in (HarbourneField, KernelExact, CliReports)}
