"""Interpolation matrices, vanishing dimensions, and kernel polynomials."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagata import fatpoints, invariants
from nagata.configs import generic_points, grid_points, make_config, two_point_example
from nagata.exactla import ExactMatrix, PrimeField, ReductionError, kernel_basis, rank
from nagata.fatpoints import (
    DimensionSearch,
    InterpolationProblem,
    condition_matrix,
    kernel_polynomials,
    monomial_count,
    monomials,
    monomials_exact_degree,
    rational_dimension,
    uniform_orders,
    vanishing_dimension,
    vanishing_order,
)
from oracles import condition_row, evaluate, poly_mul, proportional

F = PrimeField()


def test_monomials_order_and_counts():
    assert monomials(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert monomials(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(monomials(2, 3)) == 10
    assert len(monomials(3, 2)) == 10
    assert monomial_count(2, 3) == 10
    assert monomial_count(3, 2) == 10


def test_condition_row_evaluation_at_origin():
    basis = monomials(2, 2)
    row = condition_row((0, 0), (0, 0), basis)
    assert row == [Fraction(1)] + [Fraction(0)] * 5


def test_condition_row_first_derivative():
    basis = monomials(2, 1)
    row = condition_row((1, 0), (1, 0), basis)
    assert row == [Fraction(0), Fraction(1), Fraction(0)]


def test_condition_row_half_point():
    basis = monomials(2, 2)
    row = condition_row((Fraction(1, 2), 0), (0, 0), basis)
    assert row == [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(1, 4),
                   Fraction(0), Fraction(0)]


def test_vanishing_dimension_one_point_order_two():
    cfg = make_config([[0, 0]])
    assert vanishing_dimension(InterpolationProblem.uniform(cfg, 2, 1)) == 0


@pytest.mark.parametrize("fld", [None, F])
def test_vanishing_dimension_double_conic(fld):
    cfg = generic_points(2, 5, seed=3)
    assert vanishing_dimension(InterpolationProblem.uniform(cfg, 2, 4, fld)) == 1


@pytest.mark.parametrize("fld", [None, F])
def test_vanishing_dimension_nine_points_cubic(fld):
    cfg = generic_points(2, 9, seed=7)
    assert vanishing_dimension(InterpolationProblem.uniform(cfg, 1, 3, fld)) == 1


def test_condition_counts_match_formula():
    cfg = generic_points(2, 3, seed=1)
    pr = InterpolationProblem(cfg, 4, (2, 3, 1))
    mat = condition_matrix(pr)
    assert mat.rows == pr.n_conditions == 3 + 6 + 1
    assert mat.cols == pr.n_columns == 15


def test_kernel_polynomials_single_point_linear():
    cfg = make_config([[0, 0]])
    polys = kernel_polynomials(InterpolationProblem.uniform(cfg, 1, 1))
    assert len(polys) == 2
    assert {p.coefficients for p in polys} == {
        (((1, 0), Fraction(1)),),
        (((0, 1), Fraction(1)),),
    }
    assert all(p.achieved_orders == (1,) for p in polys)


def test_kernel_polynomials_two_point_line():
    polys = kernel_polynomials(
        InterpolationProblem.uniform(two_point_example(), 1, 1)
    )
    assert len(polys) == 1
    assert polys[0].as_dict() == {(0, 1): Fraction(1)}  # the line through both
    assert polys[0].achieved_orders == (1, 1)
    assert polys[0].degree == 1


@pytest.mark.parametrize("fld", [None, F])
def test_kernel_polynomials_store_coefficients_in_basis_order(fld):
    # d = 3 lies above omega_1 = 2 of five points, so the conic through them
    # is a kernel polynomial of degree below d
    d = 3
    polys = kernel_polynomials(
        InterpolationProblem.uniform(generic_points(2, 5, seed=3), 1, d, fld))
    basis = monomials(2, d)
    for p in polys:
        betas = [b for b, _ in p.coefficients]
        assert betas == [b for b in basis if b in p.as_dict()]
        assert p.degree == max(sum(b) for b in betas)
    assert sorted(p.degree for p in polys) == [2, 3, 3, 3, 3]


def test_kernel_polynomial_vanishes_exactly_at_points():
    cfg = generic_points(2, 4, seed=2)
    for p in kernel_polynomials(InterpolationProblem.uniform(cfg, 1, 2)):
        for pt in cfg.points:
            assert evaluate(p.as_dict(), pt, None) == 0


@pytest.mark.parametrize("fld", [None, F])
def test_double_conic_factors_as_square(fld):
    cfg = generic_points(2, 5, seed=3)
    (quartic,) = kernel_polynomials(InterpolationProblem.uniform(cfg, 2, 4, fld))
    (conic,) = kernel_polynomials(InterpolationProblem.uniform(cfg, 1, 2, fld))
    assert quartic.achieved_orders == (2, 2, 2, 2, 2)
    square = poly_mul(conic.as_dict(), conic.as_dict(), fld)
    assert proportional(quartic.as_dict(), square, fld)


def test_empty_kernel_raises():
    cfg = make_config([[0, 0]])
    with pytest.raises(ValueError, match="empty"):
        kernel_polynomials(InterpolationProblem.uniform(cfg, 1, 0))


def as_vector(coeffs: dict, basis, fld=None) -> list:
    zero = 0 if fld else Fraction(0)
    return [coeffs.get(beta, zero) for beta in basis]


def test_taylor_shift_and_vanishing_order():
    # P = z1^2 - z2 has order 1 at (1, 1): the shifted constant term, the
    # condition_row dot for alpha = 0, vanishes
    basis = monomials(2, 2)
    p = as_vector({(2, 0): Fraction(1), (0, 1): Fraction(-1)}, basis)
    row = condition_row((1, 1), (0, 0), basis)
    assert sum(a * c for a, c in zip(row, p)) == 0
    assert vanishing_order([p], [(1, 1), (0, 0)], basis) == ((1,), (1,))  # -z2 term at 0
    square = as_vector({(2, 0): Fraction(1)}, basis)
    assert vanishing_order([p, square], [(0, 0)], basis) == ((1, 2),)
    assert vanishing_order([p, square], [(1, 1), (0, 0)], basis) == ((1, 0), (1, 2))
    f7 = PrimeField(7)
    assert vanishing_order([as_vector({(2, 0): 1}, basis, f7)], [(0, 0)], basis, f7) == ((2,),)


def test_a_shell_zero_mod_the_lift_prime_is_read_exactly():
    # P = (2^31 - 1) z^3 + z^4 at 0: its order-3 Taylor coefficient is zero
    # mod 2^31 - 1, the prime the kernels over Q are lifted from, so the
    # order is 3 only if that shell is read in integers
    q = 2**31 - 1
    basis = monomials(1, 4)
    p = as_vector({(3,): Fraction(q), (4,): Fraction(1)}, basis)
    for reached in (None, (1,), (3,)):
        assert vanishing_order([p], [(0,)], basis, reached=reached) == ((3,),)
    g = PrimeField(2**31 - 19)  # mod another prime q is a unit, and the order 3
    assert vanishing_order([as_vector({(3,): q, (4,): 1}, basis, g)], [(0,)], basis, g) == ((3,),)
    assert vanishing_order([as_vector({(3,): q, (4,): 1}, basis, F)], [(0,)], basis, F) == ((4,),)
    with pytest.raises(ValueError, match="reaches order 5"):
        vanishing_order([p], [(0,)], basis, reached=(5,))


def test_reached_needs_one_order_at_least_zero_per_point():
    # x^2 has order 2 at the origin and 0 at (1, 0); a reached that skips
    # (1, 0) or goes below 0 there is refused, not read as order -1
    basis = monomials(2, 2)
    square = as_vector({(2, 0): Fraction(1)}, basis)
    points = [(0, 0), (1, 0)]
    assert vanishing_order([square], points, basis, reached=(2, 0)) == ((2,), (0,))
    for reached in ((0,), (0, 0, 0), (0, -1)):
        with pytest.raises(ValueError, match=f"reached needs 2 orders >= 0.*got {len(reached)}"):
            vanishing_order([square], points, basis, reached=reached)
    with pytest.raises(ValueError, match="reached needs 2"):
        vanishing_order([as_vector({(2, 0): 1}, basis, F)], points, basis, F, reached=(0,))


def test_dimension_search_monotonicity_in_degree_and_orders():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice([2, 3])
        r = rng.randint(1, 4)
        cfg = generic_points(n, r, seed=rng.randint(0, 999))
        for l in (1, 2):
            dims = []
            search = DimensionSearch(cfg, uniform_orders(cfg, l), F)
            for d in range(l, l + 4):
                dims.append(search.dimension_at(d))
            assert dims == sorted(dims)  # non-decreasing in d
            # raising the order can only cut the space
            hi = InterpolationProblem.uniform(cfg, l + 1, l + 3, F)
            lo = InterpolationProblem.uniform(cfg, l, l + 3, F)
            assert vanishing_dimension(hi) <= vanishing_dimension(lo)


def test_dimension_lower_bound_virtual():
    cfg = generic_points(2, 6, seed=9)
    pr = InterpolationProblem.uniform(cfg, 2, 5, F)
    dim = vanishing_dimension(pr)
    assert dim >= pr.n_columns - pr.n_conditions


def test_field_rational_agreement_small_systems():
    # spec cap: assert on instances up to 60 columns
    rng = random.Random(4)
    checked = 0
    for _ in range(8):
        n = rng.choice([2, 3])
        r = rng.randint(1, 5)
        cfg = generic_points(n, r, seed=rng.randint(0, 999))
        l = rng.randint(1, 2)
        d = rng.randint(l, l + 3)
        if monomial_count(n, d) > 60:
            continue
        dim_f = vanishing_dimension(InterpolationProblem.uniform(cfg, l, d, F))
        dim_q = vanishing_dimension(InterpolationProblem.uniform(cfg, l, d, None))
        assert dim_f == dim_q
        checked += 1
    assert checked >= 4


def test_achieved_orders_meet_requirements_with_multiplicities():
    cfg = make_config([[0, 0], [1, 0]], multiplicities=[1, 2])
    orders = uniform_orders(cfg, 1)
    assert orders == (1, 2)
    polys = kernel_polynomials(InterpolationProblem(cfg, 2, orders))
    for p in polys:
        assert p.achieved_orders[0] >= 1 and p.achieved_orders[1] >= 2


def test_kernel_polynomials_reject_order_below_requirement(monkeypatch):
    cfg = generic_points(2, 5, seed=3)
    problem = InterpolationProblem.uniform(cfg, 2, 4)
    assert kernel_polynomials(problem)[0].achieved_orders == (2,) * 5
    real = fatpoints.vanishing_order

    def one_short(vectors, points, basis, field=None, reached=None):
        got = real(vectors, points, basis, field, reached)
        return got[:-1] + (tuple(o - 1 for o in got[-1]),)

    monkeypatch.setattr(fatpoints, "vanishing_order", one_short)
    with pytest.raises(RuntimeError, match="misses required order: 1 < 2"):
        kernel_polynomials(problem)


# ids as test_exactla.FIELD_IDS: the slots keep their earlier kinds' names,
# "object" now 65521 and "m61" now 2^31 - 19
TABLE_FIELDS = (PrimeField(65521), F, PrimeField(2**31 - 19))
TABLE_IDS = ["Q", "object", "small", "m61"]
TABLE_CONFIGS = [
    make_config([[Fraction(-3, 2)], [5], [Fraction(2, 7)]], multiplicities=[2, 1, 3]),
    make_config([[Fraction(-1, 2), 3], [0, Fraction(-5, 3)], [2, 2]],
                multiplicities=[3, 1, 2]),
    make_config([[1, Fraction(-2, 5), 0], [Fraction(3, 4), 1, -2]],
                multiplicities=[2, 3]),
]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=["n1", "n2", "n3"])
@pytest.mark.parametrize("fld", [None, *TABLE_FIELDS],
                         ids=TABLE_IDS)
def test_condition_tables_match_condition_row(cfg, fld):
    orders = uniform_orders(cfg, 1)
    for d in range(max(orders) + 3):
        pr = InterpolationProblem(cfg, d, orders, fld)
        basis = monomials(pr.n, d)
        mat = condition_matrix(pr)
        assert (mat.rows, mat.cols) == (pr.n_conditions, len(basis))
        assert mat.entries.dtype == (fld.dtype if fld else object)
        assert not mat.entries.flags.writeable
        rows = mat.entries.tolist()
        assert {type(x) for r in rows for x in r} == {int if fld else Fraction}
        for i, (j, alpha) in enumerate(pr.condition_index()):
            want = condition_row(cfg.points[j], alpha, basis)
            if fld is not None:
                want = [fld.from_rational(x) for x in want]
            assert rows[i] == want
    if fld is None:  # incremental dimensions are modular only
        with pytest.raises(TypeError, match="PrimeField"):
            DimensionSearch(cfg, orders, fld)
        return
    degrees = range(max(orders) + 3)
    want = [vanishing_dimension(InterpolationProblem(cfg, d, orders, fld)) for d in degrees]
    search = DimensionSearch(cfg, orders, fld)
    assert [search.dimension_at(d) for d in degrees] == want
    # every degree is built now, so each answer is read off the rank profile;
    # a fresh search asked for the top degree first builds all in one call
    fresh = DimensionSearch(cfg, orders, fld)
    for s in (search, fresh):
        assert [s.dimension_at(d) for d in reversed(degrees)] == want[::-1]


# The largest order is tied and not on point 0, so the point moved to the
# origin is point 1 (j0 = 1).
TIED_CONFIG = make_config([[2, -1], [Fraction(1, 3), 4], [-2, Fraction(5, 2)], [3, 3]],
                          multiplicities=[1, 3, 2, 3])
# Frames with fewer directions than n: on one line only one point joins the
# frame (k = 1); (2, -1) lies on the line through the first two candidates,
# which the frame sends to infinity, so the last is dropped (k = 1 again).
COLLINEAR_CONFIG = make_config([[0, 0], [1, 2], [2, 4], [-1, -2]], multiplicities=[2, 1, 1, 1])
DROP_CONFIG = make_config([[0, 0], [1, 0], [0, 1], [2, -1]], multiplicities=[3, 2, 2, 1])
FRAME_CONFIGS = {"tied-j0-1": TIED_CONFIG, "n1": TABLE_CONFIGS[0], "n2": TABLE_CONFIGS[1],
                 "n3": TABLE_CONFIGS[2], "collinear": COLLINEAR_CONFIG, "drop": DROP_CONFIG,
                 "grid-3^2": grid_points(2, 3), "grid-2^3": grid_points(3, 2)}


@pytest.mark.parametrize("cfg, offsets", [
    (TIED_CONFIG, [3, 2]), (COLLINEAR_CONFIG, [1, 0]), (DROP_CONFIG, [2, 0]),
    (grid_points(2, 3), [1, 1]), (grid_points(3, 2), [1, 1, 1]),
], ids=["tied-j0-1", "collinear", "drop", "grid-3^2", "grid-2^3"])
@pytest.mark.parametrize("fld", [None, *TABLE_FIELDS], ids=TABLE_IDS)
def test_frame_takes_independent_points_in_decreasing_order(cfg, offsets, fld):
    assert fatpoints._frame_conditions(cfg, uniform_orders(cfg, 1), fld)[1].tolist() == offsets


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-3, 3), min_size=rows, max_size=rows), min_size=1, max_size=8)))
def test_simplex_sends_the_pivot_columns_to_a_diagonal(columns):
    rows = len(columns[0])
    for fld in (None, PrimeField(7)):
        m = columns if fld is None else [[x % 7 for x in c] for c in columns]
        pivots, reduced = fatpoints._simplex(m, fld)

        def prefix_rank(k):
            return rank(ExactMatrix.from_rows([[c[i] for c in m[:k]] for i in range(rows)], fld))

        assert pivots == [j for j in range(len(m)) if prefix_rank(j + 1) > prefix_rank(j)]
        # E F = D: column t of the pivot block is D_t e_t, D_t != 0 (over Q,
        # one D_t for all t)
        diag = [reduced[j][t] for t, j in enumerate(pivots)]
        assert all(diag) and (fld is not None or len(set(diag)) <= 1)
        for t, j in enumerate(pivots):
            assert [x for i, x in enumerate(reduced[j]) if i != t] == [0] * (rows - 1)
        # reduced[j] = D F^-1 M[j]: zero below the rank, and the coefficients
        # c = D^-1 reduced[j] rebuild M[j] = F c exactly
        inv = ([Fraction(1, x) for x in diag] if fld is None
               else [fld.inv(x) for x in diag])
        for j, col in enumerate(m):
            assert list(reduced[j][len(pivots):]) == [0] * (rows - len(pivots))
            coeffs = [reduced[j][t] * inv[t] for t in range(len(pivots))]
            rebuilt = [sum(m[p][i] * c for p, c in zip(pivots, coeffs)) for i in range(rows)]
            assert (rebuilt if fld is None else [x % 7 for x in rebuilt]) == col


@pytest.mark.parametrize("cfg", FRAME_CONFIGS.values(), ids=FRAME_CONFIGS.keys())
@pytest.mark.parametrize("fld", [None, *TABLE_FIELDS],
                         ids=TABLE_IDS)
def test_reduced_dimensions_match_the_full_matrix(cfg, fld):
    orders = uniform_orders(cfg, 1)
    degrees = range(max(orders) + 4)
    want = [vanishing_dimension(InterpolationProblem(cfg, d, orders, fld)) for d in degrees]
    if fld is None:
        assert [rational_dimension(cfg, orders, d) for d in degrees] == want
    else:
        search = DimensionSearch(cfg, orders, fld)
        assert [search.dimension_at(d) for d in degrees] == want
    assert want[max(orders) - 1] == 0 and want[-1] > 0


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_rational_dimension_matches_the_full_matrix_on_mixed_denominators(data):
    # coordinate i of point j is k +- 1/den_ji, with den a different integer
    # 1..12 at every point and axis.  The reduced block is built from the
    # primitive integer images of the points in the frame (on collinear
    # points too), the full block from the homogeneous points; both must
    # match the rank and kernel of the Fraction rows of condition_row
    n = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(1, 4))
    dens = data.draw(st.permutations(range(1, 13)))[:r * n]
    coords = [data.draw(st.integers(-3, 3)) + Fraction(data.draw(st.sampled_from((-1, 1))), c)
              for c in dens]
    cfg = make_config([coords[j * n:(j + 1) * n] for j in range(r)])
    assert [x.denominator for p in cfg.points for x in p] == dens
    orders = tuple(data.draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    for d in range(max(orders) + 3):
        problem = InterpolationProblem(cfg, d, orders)
        basis = monomials(n, d)
        full = ExactMatrix.from_rows([condition_row(cfg.points[j], alpha, basis)
                                      for j, alpha in problem.condition_index()])
        dim = len(basis) - rank(full)
        assert rational_dimension(cfg, orders, d) == vanishing_dimension(problem) == dim
        if dim:
            want = [{b: c for b, c in zip(basis, v) if c} for v in kernel_basis(full)]
            assert [p.as_dict() for p in kernel_polynomials(problem)] == want


def test_reduced_dimensions_with_points_congruent_mod_p():
    # (7, 0) is the point moved to the origin, and (0, 0) lands there mod 7
    f7 = PrimeField(7)
    cfg = make_config([[0, 0], [7, 0], [1, 3]], multiplicities=[1, 2, 1])
    orders = uniform_orders(cfg, 1)
    degrees = range(max(orders) + 4)
    want = [vanishing_dimension(InterpolationProblem(cfg, d, orders, f7)) for d in degrees]
    search = DimensionSearch(cfg, orders, f7)
    assert [search.dimension_at(d) for d in degrees] == want
    # mod 7 the order-1 condition at (0, 0) is one of the three at (7, 0)
    assert want[:4] == [0, 0, 2, 6]
    assert vanishing_dimension(InterpolationProblem(cfg, 2, orders, None)) == 1
    # (8, 0) is (1, 0) mod 7, a point of the frame over Q, so mod 7 it lies at
    # infinity until the frame drops both directions (k = 0)
    cfg = make_config([[0, 0], [1, 0], [0, 1], [8, 0]], multiplicities=[2, 1, 1, 1])
    orders = uniform_orders(cfg, 1)
    assert fatpoints._frame_conditions(cfg, orders, None)[1].tolist() == [1, 1]
    assert fatpoints._frame_conditions(cfg, orders, f7)[1].tolist() == [0, 0]
    degrees = range(max(orders) + 4)
    want = [vanishing_dimension(InterpolationProblem(cfg, d, orders, f7)) for d in degrees]
    search = DimensionSearch(cfg, orders, f7)
    assert [search.dimension_at(d) for d in degrees] == want == [0, 0, 1, 5, 10, 16]
    assert [rational_dimension(cfg, orders, d) for d in degrees] == [0, 0, 1, 4, 9, 15]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_dimension_search_matches_the_full_matrix_mod_p(data):
    # small coordinates repeat, fall on common lines and meet mod 7, so
    # frames with fewer directions, drops and coinciding residues all occur
    fld = data.draw(st.sampled_from([PrimeField(7), F]))
    n = data.draw(st.integers(1, 3))
    coord = st.integers(-8, 8) | st.fractions(-3, 3, max_denominator=3)
    points = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6, unique=True))
    orders = tuple(data.draw(st.lists(st.integers(1, 3), min_size=len(points),
                                      max_size=len(points))))
    cfg = make_config(points)
    degrees = range(max(orders) + 3)
    search = DimensionSearch(cfg, orders, fld)
    assert [search.dimension_at(d) for d in degrees] == [
        vanishing_dimension(InterpolationProblem(cfg, d, orders, fld)) for d in degrees]


def test_dimension_search_builds_no_column_below_the_largest_order():
    cfg = generic_points(2, 9, 0)
    search = DimensionSearch(cfg, uniform_orders(cfg, 8), F)
    assert search.dimension_at(23) == 0
    # the frame takes the order-8 conditions of three points: 36 monomials
    # below degree 8 at the origin, and 36 with beta_i > 15 at each point at
    # infinity, leaving 216 x 192 of the full 324 x 300
    assert search._cols == comb(25, 2) - 3 * comb(9, 2) == 192
    assert search.n_conditions == 9 * comb(9, 2)
    one = DimensionSearch(make_config([[1, 2]]), (3,), F)
    assert [one.dimension_at(d) for d in range(7)] == [0, 0, 0, 4, 9, 15, 22]
    assert one._cols == 0


def test_the_point_moved_to_the_origin_must_still_reduce():
    cfg = make_config([[Fraction(1, 7), 0], [1, 2]])
    msg = "denominator 7 divisible by modulus 7; re-draw the prime"
    with pytest.raises(ReductionError) as search_error:
        DimensionSearch(cfg, (2, 2), PrimeField(7)).dimension_at(2)
    assert str(search_error.value) == msg
    # omega_l then searches mod the first prime from 2^31 - 1 down under
    # which every point reduces: the same value as under the default prime
    five = make_config([[Fraction(1, 7), 0], [1, 2], [2, 5], [4, 1], [3, 3]])
    for c in (cfg, five):
        for l in (1, 2, 3):
            assert invariants.omega_l(c, l, prime=7) == invariants.omega_l(c, l)


# Points with fractional and negative coordinates, n = 1, 2, 3.
ORDER_POINTS = {
    1: [(Fraction(-3, 2),), (Fraction(2, 7),), (5,), (0,)],
    2: [(Fraction(-1, 2), 3), (0, Fraction(-5, 3)), (2, 2), (Fraction(7, 4), Fraction(-1, 3))],
    3: [(1, Fraction(-2, 5), 0), (Fraction(3, 4), 1, -2), (0, 0, Fraction(1, 9))],
}


def hyperplane_through(q, rnd) -> dict:
    """a . (z - q) for a random nonzero integer direction a."""
    n = len(q)
    a = [0] * n
    while not any(a):
        a = [rnd.randint(-4, 4) for _ in range(n)]
    lin = {tuple(int(i == j) for j in range(n)): Fraction(a[i]) for i in range(n) if a[i]}
    const = -sum(Fraction(ai) * Fraction(qi) for ai, qi in zip(a, q))
    if const:
        lin[(0,) * n] = const
    return lin


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fld", [None, *TABLE_FIELDS], ids=TABLE_IDS)
def test_vanishing_order_matches_product_of_hyperplanes(n, fld):
    # Oracle: the order at p of a product of linear forms is the summed
    # exponent of the forms vanishing at p (checked by evaluation).
    rnd = random.Random(100 * n + (fld.modulus % 97 if fld else 0))
    points = ORDER_POINTS[n]
    one = 1 if fld else Fraction(1)
    polys, want = [], []
    for i in range(6):
        # every other polynomial has order >= 4 at one point
        center = points[i % len(points)]
        factors = [] if i % 2 else [(hyperplane_through(center, rnd), 2),
                                    (hyperplane_through(center, rnd), 2)]
        factors += [(hyperplane_through(rnd.choice(points), rnd), rnd.randint(1, 3))
                    for _ in range(rnd.randint(1, 3))]
        poly = {(0,) * n: one}
        for lin, e in factors:
            if fld is not None:
                lin = {b: fld.from_rational(c) for b, c in lin.items()}
            for _ in range(e):
                poly = poly_mul(poly, lin, fld)
        polys.append(poly)
        want.append(tuple(
            sum(e for lin, e in factors if evaluate(lin, p, fld) == 0) for p in points))
    degree = max(sum(b) for poly in polys for b in poly) + 1  # padded basis
    basis = monomials(n, degree)
    vectors = [as_vector(poly, basis, fld) for poly in polys]
    # one call for all points, whose per-axis denominators differ
    got = vanishing_order(vectors, points, basis, fld)
    assert [tuple(col) for col in zip(*got)] == want
    assert max(max(w) for w in want) >= 4  # several shells walked
    assert min(min(w) for w in want) == 0
    with pytest.raises(ValueError, match="zero polynomial"):
        vanishing_order(vectors + [as_vector({}, basis, fld)], points, basis, fld)


def order_oracle(vector, point, basis) -> int:
    """The order at point of the polynomial with this coefficient vector:
    the least t with a nonzero Fraction dot of a condition_row, |alpha| = t."""
    for t in range(max(sum(b) for b in basis) + 1):
        for alpha in monomials_exact_degree(len(point), t):
            if sum(a * c for a, c in zip(condition_row(point, alpha, basis), vector)):
                return t
    raise AssertionError("zero polynomial")


def test_rational_orders_at_the_scaled_two_point_example():
    # coordinates +-1/20 and 0: each of the two points is (20, +-1, 0) in
    # homogeneous integers, and the extra point (21, 7, -6)
    cfg = two_point_example().scaled(Fraction(1, 10))
    assert {c.denominator for p in cfg.points for c in p} == {1, 20}
    points = [*cfg.points, (Fraction(1, 3), Fraction(-2, 7))]
    for l, d in ((1, 1), (2, 3), (3, 5)):
        polys = kernel_polynomials(InterpolationProblem.uniform(cfg, l, d))
        basis = monomials(2, d)
        vectors = [as_vector(p.as_dict(), basis) for p in polys]
        got = vanishing_order(vectors, points, basis)
        assert got[:cfg.r] == vanishing_order(vectors, cfg.points, basis)
        for j, point in enumerate(points):
            want = tuple(order_oracle(v, point, basis) for v in vectors)
            assert got[j] == want
            if j < cfg.r:
                assert tuple(p.achieved_orders[j] for p in polys) == want
                assert min(want) >= l


@st.composite
def rational_order_cases(draw):
    """(vectors, points, basis): n = 1..3, 1..4 points with small rational
    coordinates drawn independently, and polynomials g * L^e for L a linear
    form through one of the points (so orders up to 3 and beyond there) and
    g of degree <= 1."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(-3, 3, max_denominator=9)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        point = draw(st.sampled_from(points))
        a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        lin = {tuple(int(i == j) for j in range(n)): Fraction(a[i]) for i in range(n) if a[i]}
        const = -sum(ai * pi for ai, pi in zip(a, point))
        if const:
            lin[(0,) * n] = const
        g = {beta: draw(coord) for beta in monomials(n, 1)}
        poly = {b: c for b, c in g.items() if c} or {(0,) * n: Fraction(1)}
        for _ in range(draw(st.integers(0, 3))):
            poly = poly_mul(poly, lin)
        polys.append(poly)
    basis = monomials(n, max(sum(b) for poly in polys for b in poly))
    return [as_vector(poly, basis) for poly in polys], points, basis


@settings(deadline=None, max_examples=50)
@given(rational_order_cases())
def test_rational_orders_match_the_condition_row_oracle(case):
    vectors, points, basis = case
    want = tuple(tuple(order_oracle(v, p, basis) for v in vectors) for p in points)
    assert vanishing_order(vectors, points, basis) == want
