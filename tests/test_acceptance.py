"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the exact criteria use
integer/rational equality, the numerical ones carry their stated slack.
"""

import math
import time
from fractions import Fraction

import numpy as np

from nagata.configs import generic_points, make_config, two_point_example
from nagata.exactla import PrimeField
from nagata.fatpoints import InterpolationProblem, kernel_polynomials, vanishing_dimension
from nagata.green import annulus_grid, ball_green_single_pole, build_approximant, \
    collision_experiment, polydisc_two_pole_limit, radial_profile, schwarz_check, \
    two_point_oracle
from nagata.invariants import harbourne_table_check, nagata_check, omega_l, omega_table
from nagata.seeds import derive_seed
from oracles import poly_mul, proportional

MASTER_SEED = 2024
FIELD = PrimeField()


def report(name: str, ok: bool, elapsed: float, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def test_criterion_1_harbourne_table():
    start = time.monotonic()
    check = harbourne_table_check(8, seed=MASTER_SEED)
    elapsed = time.monotonic() - start
    failures = check.failures()
    detail = f"72 cells, failures={[(c.r, c.m) for c in failures]}"
    ok = check.all_pass and len(check.cells) == 72 and elapsed < 120
    report("1 harbourne-table", ok, elapsed, detail)


def test_criterion_2_nagata_strictness_boundary():
    start = time.monotonic()
    nine = generic_points(2, 9, derive_seed(MASTER_SEED, "nagata-r9"))
    boundary_ok = True
    for l in range(1, 5):
        om = omega_l(nine, l)
        boundary_ok &= om == 3 * l  # equality forced by the slope 3 at r = 9
    boundary_ok &= all(not ok for _, ok in nagata_check(nine, 4))
    strict_ok = True
    for r in range(10, 21):
        cfg = generic_points(2, r, derive_seed(MASTER_SEED, f"nagata-r{r}"))
        strict_ok &= all(ok for _, ok in nagata_check(cfg, 4))
    elapsed = time.monotonic() - start
    ok = boundary_ok and strict_ok and elapsed < 300
    report("2 nagata-boundary", ok, elapsed,
           f"r=9 equality={boundary_ok}, r=10..20 strict={strict_ok}")


def test_criterion_3_perfect_square_consistency():
    start = time.monotonic()
    ok = True
    details = []
    for r in (16, 25):
        cfg = generic_points(2, r, derive_seed(MASTER_SEED, f"square-r{r}"))
        table = omega_table(cfg, 3)
        for l, om in table:
            ok &= om * om > l * l * r
        lower = max(Fraction(om, l + 1) for l, om in table)
        upper = min(Fraction(om, l) for l, om in table)
        ok &= lower * lower <= r <= upper * upper
        details.append(f"r={r}: omega={[om for _, om in table]}, "
                       f"interval=[{lower},{upper}]")
    elapsed = time.monotonic() - start
    report("3 perfect-squares", ok, elapsed, "; ".join(details))


def test_criterion_4_double_conic_special_system():
    start = time.monotonic()
    cfg = generic_points(2, 5, derive_seed(MASTER_SEED, "double-conic"))
    ok = True
    for fld in (FIELD, None):
        pr_quartic = InterpolationProblem.uniform(cfg, 2, 4, fld)
        ok &= vanishing_dimension(pr_quartic) == 1
        (quartic,) = kernel_polynomials(pr_quartic)
        (conic,) = kernel_polynomials(InterpolationProblem.uniform(cfg, 1, 2, fld))
        ok &= proportional(quartic.as_dict(),
                           poly_mul(conic.as_dict(), conic.as_dict(), fld), fld)
        ok &= quartic.achieved_orders == (2,) * 5
    elapsed = time.monotonic() - start
    report("4 double-conic", ok, elapsed)


def test_criterion_5_property_suite():
    start = time.monotonic()
    ok = True
    bad = []
    agreements = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        r = (i % 12) + 1
        cfg = generic_points(n, r, derive_seed(MASTER_SEED, f"prop-{i}"))
        table = dict(omega_table(cfg, 4))
        om1 = table[1]
        for l in range(1, 5):
            if not (l <= table[l] <= l * om1):
                ok = False
                bad.append((i, "ratio", l))
            if l > 1 and table[l] < table[l - 1]:
                ok = False
                bad.append((i, "monotone", l))
        for l1 in range(1, 4):
            for l2 in range(l1, 5 - l1):
                if table[l1 + l2] > table[l1] + table[l2]:
                    ok = False
                    bad.append((i, "superadd", (l1, l2)))
        lower = max(Fraction(table[l], l + n - 1) for l in range(1, 5))
        upper = min(Fraction(table[l], l) for l in range(1, 5))
        if lower > upper:
            ok = False
            bad.append((i, "sandwich", None))
        if r >= 2:
            sub = cfg.drop_point(r - 1)
            if omega_l(sub, 2) > table[2]:
                ok = False
                bad.append((i, "subset", None))
        d2 = table[2]
        if math.comb(d2 + n, n) <= 60:
            dim_f = vanishing_dimension(InterpolationProblem.uniform(cfg, 2, d2, FIELD))
            dim_q = vanishing_dimension(InterpolationProblem.uniform(cfg, 2, d2, None))
            if dim_f != dim_q:
                ok = False
                bad.append((i, "field-vs-rational", None))
            agreements += 1
    elapsed = time.monotonic() - start
    ok = ok and agreements >= 10 and elapsed < 600
    report("5 property-suite", ok, elapsed,
           f"50 configs, {agreements} field/rational agreements, bad={bad[:5]}")


def test_criterion_6_polydisc_oracle_match():
    start = time.monotonic()
    t = Fraction(1, 10)
    g = build_approximant(two_point_example(), t, 1, 2, boundary_samples=4096,
                          seed=derive_seed(MASTER_SEED, "oracle"), mode="polydisc")
    _, pts = annulus_grid(0.3, 0.95, 20, 20, 2, "polydisc",
                          derive_seed(MASTER_SEED, "oracle-grid"))
    approx = g.values(pts)
    exact = np.array([two_point_oracle(t, p) for p in pts])
    eps_ok = g.eps_sample <= 0.02
    one_sided_ok = bool(np.all(approx <= exact + g.eps_sample + 1e-9))
    sup_dev = float(np.max(np.abs(approx - exact)))
    elapsed = time.monotonic() - start
    ok = eps_ok and one_sided_ok and sup_dev <= 0.05
    report("6 polydisc-oracle", ok, elapsed,
           f"eps_sample={g.eps_sample:.4f}, sup_dev={sup_dev:.4f}")


def test_criterion_7_lelong_slopes_and_collision():
    start = time.monotonic()
    radial = radial_profile(polydisc_two_pole_limit, mode="polydisc",
                            sphere_samples=512,
                            seed=derive_seed(MASTER_SEED, "slope"))
    slope_ok = abs(radial.slope - 1.0) <= 0.01
    axial = radial_profile(polydisc_two_pole_limit, mode="polydisc",
                           sphere_samples=128, axis=0,
                           seed=derive_seed(MASTER_SEED, "slope-axis"))
    axial_ok = abs(axial.slope - 2.0) <= 0.01
    table = collision_experiment(
        two_point_example(), 1, 2, ["0.5", "0.25", "0.1", "0.05"],
        mode="polydisc", boundary_samples=4096,
        seed=derive_seed(MASTER_SEED, "collide"), oracle=two_point_oracle)
    devs = [row.envelope_dev for row in table.rows]
    gaps = [row.oracle_gap for row in table.rows]
    monotone_ok = all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    gaps_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - start
    ok = slope_ok and axial_ok and monotone_ok and gaps_ok
    report("7 lelong-slopes", ok, elapsed,
           f"slope={radial.slope:.4f}, axial={axial.slope:.4f}, "
           f"devs={[f'{d:.2e}' for d in devs]}, gaps={[f'{g:.4f}' for g in gaps]}")


def test_criterion_8_ball_fundamentals():
    start = time.monotonic()
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "ball"))
    interior_ok = True
    checked = 0
    while checked < 1000:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norm = np.linalg.norm(z)
        z = z / norm * rng.random()
        r = float(np.linalg.norm(z))
        if r < 1e-8:
            continue
        if abs(ball_green_single_pole([0, 0], z) - math.log(r)) > 1e-12:
            interior_ok = False
        checked += 1
    boundary_ok = True
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = a / np.linalg.norm(a) * (0.9 * rng.random())
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = z / np.linalg.norm(z)
            if abs(ball_green_single_pole(a, z)) > 1e-9:
                boundary_ok = False
    elapsed = time.monotonic() - start
    report("8 ball-fundamentals", interior_ok and boundary_ok, elapsed)


def test_criterion_9_schwarz_inequality():
    start = time.monotonic()
    origin = make_config([[0, 0]], label="origin")
    two = two_point_example()
    ok = True
    details = []
    for cfg in (origin, two):
        for l in (1, 2, 3):
            res = schwarz_check(cfg, l, rho=0.25, R=8.0, epsilon=0.1,
                                boundary_samples=4096,
                                seed=derive_seed(MASTER_SEED, f"schwarz-{l}"))
            ok &= res.all_pass
            details.append(f"{cfg.label} l={l}: {len(res.verdicts)} polys, "
                           f"lb={res.omega_lower}")
    elapsed = time.monotonic() - start
    report("9 schwarz", ok, elapsed, "; ".join(details))
