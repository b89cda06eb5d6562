"""Closed forms, approximants, radial slopes, collision, and Schwarz checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagata import invariants
from nagata.configs import grid_points, make_config, two_point_example
from nagata.fatpoints import KernelPolynomial
from nagata.green import (
    NEG_INF,
    annulus_grid,
    ball_green_single_pole,
    build_approximant,
    collision_experiment,
    default_radii,
    evaluate_approximant,
    polydisc_two_pole_exact,
    polydisc_two_pole_limit,
    radial_profile,
    schwarz_check,
    two_point_oracle,
    _kernel_arrays,
    _monomials,
)
from oracles import evaluate

ORIGIN = make_config([[0, 0]], label="origin")
TWO = two_point_example()


# -- closed forms -----------------------------------------------------------


def test_ball_green_origin_is_log_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.9 * z / np.linalg.norm(z) * rng.random()
        if np.linalg.norm(z) < 1e-6:
            continue
        assert ball_green_single_pole([0, 0], z) == pytest.approx(
            math.log(np.linalg.norm(z)), abs=1e-12
        )


def test_ball_green_boundary_and_pole():
    rng = np.random.default_rng(1)
    a = [0.3 + 0.1j, -0.2]
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z = z / np.linalg.norm(z)
    assert abs(ball_green_single_pole(a, z)) < 1e-9
    assert ball_green_single_pole(a, a) == NEG_INF
    assert ball_green_single_pole([0.5, 0], [0.5, 0]) == NEG_INF


def test_ball_green_log_pole_normalization():
    # near the pole the value behaves like ln(eps) + O(1): the ratio tends to 1
    a = [0.5, 0.0]
    ratios = []
    for eps in (1e-6, 1e-12):
        v = ball_green_single_pole(a, [0.5, eps])
        ratios.append(v / math.log(eps))
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1) + 1e-12
    assert ratios[1] == pytest.approx(1.0, abs=2e-2)


def test_ball_green_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ball_green_single_pole([1.2, 0], [0, 0])
    with pytest.raises(ValueError):
        ball_green_single_pole([0, 0], [1.2, 0.5])
    with pytest.raises(ValueError):
        ball_green_single_pole([0, 0], [float("nan"), 0])


def test_polydisc_exact_limit_and_branches():
    # the t -> 0 limit on the z1 axis doubles the log
    assert polydisc_two_pole_limit([0.3, 0]) == pytest.approx(2 * math.log(0.3))
    assert polydisc_two_pole_limit([0, 0.3]) == pytest.approx(math.log(0.3))
    # the exact formula approaches the limit as t shrinks
    z = [0.4, 0.05]
    vals = [abs(polydisc_two_pole_exact(t, z) - polydisc_two_pole_limit(z))
            for t in (0.2, 0.02)]
    assert vals[1] < vals[0]
    # second branch dominates on the z2 axis
    assert polydisc_two_pole_exact(0.1, [0, 0.5]) == pytest.approx(math.log(0.5))
    # near-boundary values are near zero
    assert polydisc_two_pole_exact(0.1, [0.2, 0.999]) == pytest.approx(0.0, abs=2e-3)
    # poles
    assert polydisc_two_pole_exact(0.2, [0.1, 0]) == NEG_INF
    with pytest.raises(ValueError):
        polydisc_two_pole_exact(3.0, [0.1, 0])


def test_polydisc_exact_sandwich_small_t():
    # 2 ln|z| <= g_t <= ln|z| in sup norm, up to the finite-t deficit O(t^2)
    t = Fraction(1, 100)
    _, pts = annulus_grid(0.3, 0.95, 10, 16, 2, "polydisc", seed=5)
    for p in pts:
        g = polydisc_two_pole_exact(float(t), p)
        sup = max(abs(p[0]), abs(p[1]))
        assert 2 * math.log(sup) - float(t) ** 2 <= g <= math.log(sup) + 1e-12


def _closed_form_batches():
    rng = np.random.default_rng(17)
    ball = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    ball *= (rng.random(40) / np.linalg.norm(ball, axis=1))[:, None]
    torus = rng.random((40, 2)) * np.exp(2j * np.pi * rng.random((40, 2)))
    a = np.array([0.3 + 0.1j, -0.2])
    t = complex(Fraction(1, 10))
    return [
        # (closed form, batch, pole row, a row outside the domain)
        (lambda z: ball_green_single_pole(a, z), ball, a, [0.9, 0.9]),
        (lambda z: ball_green_single_pole([0, 0], z), ball, [0, 0], [1.2, 0]),
        (lambda z: polydisc_two_pole_exact(0.2, z), torus, [0.1, 0], [0.5, 1.2]),
        (lambda z: two_point_oracle(Fraction(1, 10), z), torus, [-t / 2, 0],
         [1.5j, 0]),
        (polydisc_two_pole_limit, torus, [0, 0], [np.inf, 0]),
    ]


def test_closed_forms_batch_equals_per_point_calls():
    for fn, batch, pole, outside in _closed_form_batches():
        batch = np.vstack([batch, [pole], [[0.5, 0.0], [0.0, 0.5]]])
        got = fn(batch)
        assert got.shape == (len(batch),)
        singles = [fn(p) for p in batch]
        assert all(isinstance(v, float) for v in singles)
        # bit for bit, the pole row's -inf included
        assert np.array_equal(got, np.array(singles))
        assert got[-3] == NEG_INF and np.all(got[:-3] > NEG_INF)
        with pytest.raises(ValueError):
            fn(np.vstack([batch, [outside]]))


def test_closed_forms_reject_bad_batch_shapes():
    with pytest.raises(ValueError):
        polydisc_two_pole_limit(np.zeros((3, 3)))  # dimension 3
    with pytest.raises(ValueError):
        ball_green_single_pole([0, 0], np.zeros((2, 2, 2)))


fracs = st.fractions(min_value=-2, max_value=2, max_denominator=16)


@st.composite
def polynomial_families(draw):
    n = draw(st.integers(1, 3))
    basis = [tuple(b) for b in np.ndindex(*(5,) * n) if sum(b) <= 4]
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        betas = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=8,
                              unique=True))
        coeffs = [draw(fracs.filter(bool)) for _ in betas]
        stored = tuple(sorted(zip(betas, coeffs),
                              key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0]))))
        polys.append(KernelPolynomial(stored, max(sum(b) for b in betas), ()))
    points = draw(st.lists(st.tuples(*(fracs,) * n), min_size=1, max_size=6))
    return polys, points


@settings(deadline=None, max_examples=60)
@given(polynomial_families())
def test_batched_family_values_match_exact_evaluation(family):
    polys, points = family
    exps, coeffs = _kernel_arrays(polys)
    pts = np.array([[complex(float(x)) for x in p] for p in points])
    vals = _monomials(exps, pts) @ coeffs
    assert vals.shape == (len(points), len(polys))
    for i, point in enumerate(points):
        for k, p in enumerate(polys):
            exact = complex(float(evaluate(p.as_dict(), point, None)))
            # relative to the size of the terms, which bounds the rounding of
            # a sum that may cancel to zero
            scale = sum(abs(c * math.prod(x**b for x, b in zip(point, beta)))
                        for beta, c in p.coefficients)
            assert abs(vals[i, k] - exact) <= 1e-12 * float(scale)


def test_annulus_grid_matches_row_loop():
    def reference(rng, count, n):
        # the per-row loop the polydisc boundary sampler was written as
        w = rng.random((count, n)) * np.exp(2j * np.pi * rng.random((count, n)))
        for i in range(count):
            w[i, i % n] = np.exp(2j * np.pi * rng.random())
        return w

    for seed in range(5):
        for n, n_radii, n_dirs in [(1, 3, 4), (2, 4, 7), (3, 2, 5), (2, 20, 20)]:
            radii, pts = annulus_grid(0.3, 0.95, n_radii, n_dirs, n, "polydisc", seed)
            dirs = reference(np.random.default_rng(seed), n_dirs, n)
            expected = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
            assert np.array_equal(pts, expected)
            assert np.allclose(np.max(np.abs(dirs), axis=1), 1.0)


# -- approximants -----------------------------------------------------------


def test_single_pole_approximant_kernel_and_value():
    g = build_approximant(ORIGIN, Fraction(1, 2), 1, 1, boundary_samples=512,
                          seed=3, mode="ball")
    # kernel of degree <= 1 vanishing at O is spanned by z1, z2
    assert g.coeffs.shape[1] >= 2
    v = evaluate_approximant(g, [0.3, 0])
    assert v <= math.log(0.3) + g.eps_sample + 1e-9
    assert v == pytest.approx(math.log(0.3), abs=0.02)
    assert evaluate_approximant(g, [0, 0]) == NEG_INF


def test_single_pole_approximant_below_log_norm_everywhere():
    g = build_approximant(ORIGIN, Fraction(1, 2), 1, 1, boundary_samples=1024,
                          seed=3, mode="ball")
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = z / np.linalg.norm(z) * rng.random()
        if np.linalg.norm(z) < 1e-3:
            continue
        assert evaluate_approximant(g, z) <= math.log(np.linalg.norm(z)) \
            + g.eps_sample + 1e-9


def test_two_point_scaled_kernel_membership():
    t = Fraction(1, 10)
    g = build_approximant(TWO, t, 1, 2, boundary_samples=256, seed=2,
                          mode="polydisc")
    # kernel = all degree <= 2 polynomials vanishing at both scaled points:
    # dimension 4, containing (z1 - t/2)(z1 + t/2) and z2
    assert g.coeffs.shape[1] >= 4
    scaled = TWO.scaled(t)
    for coeffs in ({(2, 0): Fraction(1), (0, 0): -t * t / 4},
                   {(0, 1): Fraction(1)}):
        for pt in scaled.points:
            val = sum(c * pt[0] ** b[0] * pt[1] ** b[1] for b, c in coeffs.items())
            assert val == 0


def test_approximant_pole_sentinel():
    g = build_approximant(TWO, Fraction(1, 10), 1, 2, boundary_samples=128,
                          seed=1, mode="polydisc")
    assert evaluate_approximant(g, [0.05, 0]) == NEG_INF
    assert evaluate_approximant(g, [-0.05, 0]) == NEG_INF
    assert evaluate_approximant(g, [0.0500001, 0]) > NEG_INF


def test_approximant_determinism():
    a = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=256,
                          seed=9, mode="polydisc")
    b = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=256,
                          seed=9, mode="polydisc")
    assert np.array_equal(a.sup_estimates, b.sup_estimates)
    assert np.array_equal(a.samples, b.samples)
    assert a.eps_sample == b.eps_sample


def test_extra_combos_are_seeded_kernel_combinations():
    # the family is the kernel basis, then 32 complex combinations whose
    # weights are the first draws of the seed's stream
    g = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=64,
                          seed=9, mode="polydisc")
    basis = g.coeffs[:, :-32]
    k = basis.shape[1]
    rng = np.random.default_rng(9)
    weights = rng.standard_normal((32, k)) + 1j * rng.standard_normal((32, k))
    assert np.array_equal(g.coeffs[:, k:], basis @ weights.T)
    assert len(g.sup_estimates) == k + 32


def test_approximant_nonpositive_up_to_sampling():
    g = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=512,
                          seed=11, mode="polydisc")
    rng = np.random.default_rng(13)
    pts = np.exp(2j * np.pi * rng.random((100, 2)))  # unit torus
    assert np.all(g.values(pts) <= g.eps_sample + 1e-9)


def test_sup_estimates_recomputable_from_stored_samples():
    g = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=256,
                          seed=21, mode="polydisc")
    from nagata.green import _monomials

    vals = np.abs(_monomials(g.exps, g.samples) @ g.coeffs)
    for k, sup in enumerate(g.sup_estimates):
        recomputed = float(np.max(vals[:, k]))
        assert recomputed == sup


def test_approximant_zero_at_max_attaining_sample():
    # at the stored boundary samples every branch is <= 0 by construction,
    # with equality exactly where a sup is attained
    g = build_approximant(TWO, Fraction(1, 4), 1, 2, boundary_samples=256,
                          seed=22, mode="polydisc")
    vals = g.values(g.samples)
    assert np.all(vals <= 1e-12)
    assert float(np.max(vals)) == pytest.approx(0.0, abs=1e-12)


def test_approximant_matches_exact_formula_on_grid():
    t = Fraction(1, 10)
    g = build_approximant(TWO, t, 1, 2, boundary_samples=2048, seed=5,
                          mode="polydisc")
    _, pts = annulus_grid(0.3, 0.95, 10, 10, 2, "polydisc", seed=6)
    approx = g.values(pts)
    exact = np.array([two_point_oracle(t, p) for p in pts])
    assert np.all(approx <= exact + g.eps_sample + 1e-9)
    assert float(np.max(np.abs(approx - exact))) <= 0.05


def test_build_approximant_input_validation():
    with pytest.raises(TypeError):
        build_approximant(TWO, 0.1, 1, 2)  # floats are not exact scales
    with pytest.raises(ValueError):
        build_approximant(TWO, Fraction(3), 1, 2, mode="polydisc")  # poles outside
    with pytest.raises(ValueError):
        build_approximant(TWO, Fraction(1, 10), 1, 2, mode="disc")
    with pytest.raises(ValueError):
        # no degree-1 polynomial vanishes to order 2 at two points
        build_approximant(TWO, Fraction(1, 10), 2, 1, mode="polydisc")


# -- radial profiles --------------------------------------------------------


def test_radial_profile_exact_single_pole_slope_one():
    prof = radial_profile(lambda z: ball_green_single_pole([0, 0], z),
                          mode="ball", sphere_samples=64, seed=1)
    assert prof.slope == pytest.approx(1.0, abs=1e-9)
    assert prof.slope_stderr < 1e-9


def test_radial_profile_polydisc_limit_slopes():
    prof = radial_profile(polydisc_two_pole_limit, mode="polydisc",
                          sphere_samples=64, seed=2)
    assert prof.slope == pytest.approx(1.0, abs=1e-12)
    axial = radial_profile(polydisc_two_pole_limit, mode="polydisc",
                           sphere_samples=16, seed=2, axis=0)
    assert axial.slope == pytest.approx(2.0, abs=1e-12)


def test_radial_profile_approximant_slope_in_range():
    g = build_approximant(ORIGIN, Fraction(1, 2), 1, 1, boundary_samples=512,
                          seed=3, mode="ball")
    prof = radial_profile(g, sphere_samples=256, seed=4)
    assert prof.slope == pytest.approx(1.0, abs=0.05)


def test_radial_profile_validation():
    fn = polydisc_two_pole_limit
    with pytest.raises(ValueError):
        radial_profile(fn, radii=[0.1, 0.5], mode="polydisc")  # not decreasing
    with pytest.raises(ValueError):
        radial_profile(fn, radii=[1.5, 0.5], mode="polydisc")  # outside (0,1)
    with pytest.raises(ValueError):
        radial_profile(fn, radii=[0.5, 0.2], mode="polydisc", pole_radius=0.3)
    with pytest.raises(ValueError):
        radial_profile(fn)  # mode required for callables
    with pytest.raises(ValueError, match="sphere_samples"):
        radial_profile(fn, mode="polydisc", sphere_samples=0)


def test_radial_profile_shape_assertion():
    # a radial profile that decreases with radius is not psh-like: rejected
    def bad(z):
        return -np.abs(z[:, 0])

    with pytest.raises(ValueError, match="decreases|non-convex"):
        radial_profile(bad, radii=[0.5, 0.4, 0.3, 0.2], mode="ball",
                       sphere_samples=16, seed=0)


def test_default_radii():
    radii = default_radii(0.0)
    assert radii[0] == 0.5 and len(radii) >= 4
    assert all(a > b for a, b in zip(radii, radii[1:]))
    radii2 = default_radii(0.03)
    assert radii2[-1] >= 4 * 0.03 - 1e-12 and len(radii2) >= 4
    with pytest.raises(ValueError):
        default_radii(0.2)


def test_radial_profile_slope_within_certified_window():
    # approximant slope lies in [certified lower bound - 3*stderr, |S| + slack]
    from nagata.invariants import waldschmidt_interval

    for cfg, t, l, d, mode in [(ORIGIN, Fraction(1, 2), 1, 1, "ball"),
                               (TWO, Fraction(1, 8), 1, 2, "polydisc")]:
        g = build_approximant(cfg, t, l, d, boundary_samples=512, seed=6,
                              mode=mode)
        prof = radial_profile(g, sphere_samples=256, seed=7)
        lower, _ = waldschmidt_interval(cfg, l)
        assert float(lower) - 3 * prof.slope_stderr - 1e-9 <= prof.slope
        assert prof.slope <= cfg.r + 0.5


def test_radial_profile_csv_rows():
    prof = radial_profile(polydisc_two_pole_limit, mode="polydisc",
                          sphere_samples=16, seed=2)
    rows = prof.to_csv_rows()
    assert len(rows) == len(prof.radii)
    for _, _, resid in rows:
        assert abs(resid) < 1e-9  # the limit profile is exactly linear


# -- collision experiments --------------------------------------------------


def test_collision_two_point_oracle_gap_decreases():
    table = collision_experiment(TWO, 1, 2, ["1/2", "1/4", "1/10"],
                                 mode="polydisc", boundary_samples=512,
                                 n_radii=10, n_dirs=10, seed=3,
                                 oracle=two_point_oracle)
    gaps = [r.oracle_gap for r in table.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    devs = [r.envelope_dev for r in table.rows]
    assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    assert all(r.upper_ok for r in table.rows)
    assert all(abs(r.slope - 1.0) < 0.05 for r in table.rows)


def test_collision_single_point_scale_invariance():
    table = collision_experiment(ORIGIN, 1, 1, ["1/2", "1/10"], mode="ball",
                                 boundary_samples=512, n_radii=8, n_dirs=48,
                                 seed=3)
    for row in table.rows:
        assert row.envelope_dev < 5e-3  # zero up to sphere sampling
        assert row.upper_ok


def test_collision_grid_slope_trend():
    table = collision_experiment(grid_points(2, 2), 1, 2,
                                 ["1/8", "1/32", "1/64"], mode="ball",
                                 boundary_samples=1024, n_radii=10, n_dirs=48,
                                 seed=3)
    slopes = [r.slope for r in table.rows]
    assert slopes[0] < slopes[1] < slopes[2]
    assert abs(slopes[-1] - 2.0) < 0.1
    margins = [r.upper_margin for r in table.rows]
    assert margins[0] > margins[-1]  # the collision-limit bound tightens


def test_collision_validation():
    with pytest.raises(TypeError):
        collision_experiment(TWO, 1, 2, [0.5], mode="polydisc")
    with pytest.raises(ValueError):
        collision_experiment(TWO, 1, 2, ["3/2"], mode="polydisc")
    with pytest.raises(ValueError, match="n_radii"):
        collision_experiment(TWO, 1, 2, ["1/2"], mode="polydisc", n_radii=1)
    with pytest.raises(ValueError, match="n_dirs"):
        collision_experiment(TWO, 1, 2, ["1/2"], mode="polydisc", n_dirs=0)
    for ts in (["1/4", "1/2"], ["1/4", "1/4"], ["1/2", "1/10", "1/4"]):
        with pytest.raises(ValueError, match="t_sequence"):
            collision_experiment(TWO, 1, 2, ts, mode="polydisc")


# -- Schwarz norm inequality ------------------------------------------------


def test_schwarz_single_point_monomials():
    res = schwarz_check(ORIGIN, 2, boundary_samples=1024, seed=4)
    assert res.all_pass
    # kernel polynomials of the (l, d=l) system at O are the degree-l monomials
    assert all(v.degree == 2 for v in res.verdicts)


def test_schwarz_two_point_line():
    res = schwarz_check(TWO, 1, boundary_samples=1024, seed=4)
    assert res.all_pass
    assert res.omega_lower == Fraction(1, 2)


def test_schwarz_explicit_lower_bound_override():
    res = schwarz_check(ORIGIN, 1, omega_lower=Fraction(1), epsilon=0.0,
                        boundary_samples=2048, seed=4)
    # f = z_i, Omega = 1, eps = 0: equality case, sampled within tolerance
    assert all(v.lhs <= v.rhs + 1e-9 for v in res.verdicts)


def test_schwarz_computes_each_level_once(monkeypatch):
    # d and the Waldschmidt lower bound come from one omega table
    levels = []

    def recording(config, l, field, memo):
        levels.append(l)
        return omega(config, l, field, memo)

    omega = invariants._omega
    monkeypatch.setattr(invariants, "_omega", recording)
    res = schwarz_check(grid_points(2, 3), 2, boundary_samples=64, seed=4)
    assert sorted(levels) == [1, 2]
    assert res.omega_lower == Fraction(6, 3) and {v.degree for v in res.verdicts} == {6}


def test_schwarz_needs_uniform_multiplicities_for_its_lower_bound():
    weighted = make_config([[0, 0], [1, 0]], [1, 2])
    for d in (None, 2):
        with pytest.raises(ValueError, match="uniform multiplicities"):
            schwarz_check(weighted, 1, d, boundary_samples=64)
    res = schwarz_check(weighted, 1, omega_lower=Fraction(1, 2), boundary_samples=64)
    assert {v.degree for v in res.verdicts} == {2}


def test_schwarz_validation():
    with pytest.raises(ValueError):
        schwarz_check(ORIGIN, 1, rho=0.0)
    with pytest.raises(ValueError):
        schwarz_check(ORIGIN, 1, R=-1.0)
    with pytest.raises(ValueError, match="boundary_samples"):
        schwarz_check(ORIGIN, 1, boundary_samples=0)
