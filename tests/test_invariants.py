"""omega_l, the Waldschmidt interval, witness bounds, and conjecture checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nagata import fatpoints, invariants
from nagata.configs import generic_points, grid_points, make_config, two_point_example
from nagata.exactla import PrimeField
from nagata.fatpoints import (
    DimensionSearch,
    InterpolationProblem,
    _cremona_nonempty,
    rational_dimension,
    uniform_orders,
    vanishing_dimension,
)
from nagata.invariants import (
    HARBOURNE_CR,
    _upper_bound,
    harbourne_table_check,
    invariant_report,
    nagata_check,
    omega_l,
    omega_s_witness_bound,
    omega_table,
    superadditivity_check,
    waldschmidt_interval,
    waldschmidt_upper_check,
)
from nagata.seeds import derive_seed

ORIGIN = make_config([[0, 0]], label="origin")


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_omega_single_point_equals_l(l):
    assert omega_l(ORIGIN, l) == l


def test_omega_reference_values():
    assert omega_l(generic_points(2, 9, seed=7), 1) == 3
    assert omega_l(generic_points(2, 5, seed=3), 2) == 4
    assert omega_l(generic_points(2, 16, seed=13), 1) == 5


def test_omega_grid_is_special():
    # the literal 4x4 grid lies on 4 horizontal lines, so a degree-4 curve
    # through all 16 points exists; only generic 16-point sets need degree 5
    assert omega_l(grid_points(2, 4), 1) == 4


def test_omega_rational_domain_agrees():
    cfg = generic_points(2, 5, seed=3)
    assert omega_l(cfg, 2, scalar="rational") == omega_l(cfg, 2)


def rational_scan(cfg, l):
    """Reference: the least d with a nonzero kernel over Q, one whole-matrix
    exact rank per degree."""
    orders = uniform_orders(cfg, l)
    d = max(orders)
    while vanishing_dimension(InterpolationProblem(cfg, d, orders, None)) < 1:
        d += 1
    return d


def harbourne_config(r):
    return generic_points(2, r, derive_seed(0, f"harbourne-r{r}"), 1000)


# special systems: at omega_p the monomials do not outnumber the conditions
SPECIAL_CASES = [
    *((f"grid4-l{l}", grid_points(2, 4), l) for l in (1, 2, 3)),
    *((f"two-point-l{l}", two_point_example(), l) for l in (2, 3)),
    *((f"harbourne-r{r}-m{m}", harbourne_config(r), m)
      for r, m in ((2, 3), (2, 4), (3, 4), (3, 5), (5, 3), (5, 4))),
    # collinear, so the cube of their line has orders (3, 3, 3)
    ("weighted", make_config([[0, 0], [Fraction(1, 2), 1], [1, 2]],
                             multiplicities=[3, 3, 1]), 1),
    # the same line, with the point moved to the origin (order 3) not first
    ("weighted-last", make_config([[0, 0], [Fraction(1, 2), 1], [1, 2]],
                                  multiplicities=[1, 3, 3]), 1),
]


@pytest.mark.parametrize("cfg, l", [c[1:] for c in SPECIAL_CASES],
                         ids=[c[0] for c in SPECIAL_CASES])
def test_rational_omega_matches_exact_scan(cfg, l):
    at_omega_p = InterpolationProblem(cfg, omega_l(cfg, l), uniform_orders(cfg, l))
    assert at_omega_p.n_columns <= at_omega_p.n_conditions  # no count certifies it
    want = rational_scan(cfg, l)
    assert omega_l(cfg, l, "rational") == want
    assert omega_l(cfg, l) == want  # the same loop over a field


M61 = 2**61 - 1


def test_rational_omega_without_modular_image():
    # 1/(2^61 - 1) has no image mod 2^61 - 1, but one mod the search prime:
    # the line y = 0 lies below the bound 2, and one exact rank certifies it
    # in both domains
    cfg = make_config([[Fraction(1, M61), 0], [1, 0], [2, 0], [3, 0]])
    assert _upper_bound(cfg, 1) == 2
    assert omega_l(cfg, 1) == omega_l(cfg, 1, "rational") == rational_scan(cfg, 1) == 1


def test_field_omega_without_image_mod_the_search_prime(monkeypatch):
    # 1/(2^31 - 1) has no affine image mod the default prime, but its
    # primitive vector is a point at infinity there, and the quadratic
    # transformations certify the bound, 4, with no search
    built, ranked = recorded_searches(monkeypatch)
    cfg = make_config([[Fraction(1, 2**31 - 1), 0], [1, 2], [2, 5], [4, 1], [3, 3]])
    assert omega_l(cfg, 2) == omega_l(cfg, 2, "rational") == rational_scan(cfg, 2) == 4
    assert not built and not ranked


def test_a_degree_the_count_settles_needs_no_confirmation():
    # 2 conditions, 3 linear monomials: the count settles degree 1, so no
    # exact rank is taken
    assert omega_l(make_config([[Fraction(1, M61), 0], [1, 2]]), 1) == 1


def recorded_searches(monkeypatch):
    """Wrap the searches and exact ranks omega_l takes: returns the lists of
    (modulus, orders) of every DimensionSearch built and of the
    (orders, degree) of every rational_dimension taken."""
    built, ranked = [], []

    class Recording(DimensionSearch):
        def __init__(self, config, orders, field):
            built.append((field.modulus, tuple(orders)))
            super().__init__(config, orders, field)

    def recording_dimension(config, orders, degree):
        ranked.append((tuple(orders), degree))
        return rational_dimension(config, orders, degree)

    monkeypatch.setattr(invariants, "DimensionSearch", Recording)
    monkeypatch.setattr(invariants, "rational_dimension", recording_dimension)
    return built, ranked


def test_open_cell_is_certified_by_a_lower_level(monkeypatch):
    # the bound is 9 and the search finds a kernel at 8; level 1 is open too
    # (bound 5, kernel at 4), and one exact rank there certifies omega_1 = 4,
    # so the product omega_1 + omega_1 = 8 closes level 2 with no rank of its own
    built, ranked = recorded_searches(monkeypatch)
    grid = grid_points(2, 4)
    assert _upper_bound(grid, 2) == 9 and _upper_bound(grid, 1) == 5
    assert omega_l(grid, 2) == 8
    assert ranked == [((1,) * 16, 4)]
    p = invariants.DEFAULT_FIELD.modulus
    assert built == [(p, (2,) * 16), (p, (1,) * 16)]


def test_omega_table_searches_each_level_once(monkeypatch):
    # levels 1 and 2 are as above; level 3 closes from the memoized levels,
    # omega_1 + omega_2 = 12, with no search or rank of level 1 or 2 again
    built, ranked = recorded_searches(monkeypatch)
    assert omega_table(grid_points(2, 4), 3) == ((1, 4), (2, 8), (3, 12))
    p = invariants.DEFAULT_FIELD.modulus
    assert built == [(p, (l,) * 16) for l in (1, 2, 3)]
    assert ranked == [((1,) * 16, 4)]


P31 = 2**31 - 1


@st.composite
def small_configs(draw):
    """Up to four points on a line or in the plane, coordinates in -2..2,
    some moved by 2^31 - 1 (so they coincide mod the search prime), some on
    the line y = 2x + 1, some with multiplicities 1..2."""
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    coord = st.builds(lambda t, k: t + k * P31, st.integers(-2, 2), st.integers(0, 1))
    if n == 2 and draw(st.booleans()):
        xs = draw(st.lists(coord, min_size=r, max_size=r, unique=True))
        points = [(x, 2 * x + 1) for x in xs]
    else:
        points = draw(st.lists(st.tuples(*[coord] * n), min_size=r, max_size=r,
                               unique=True))
    mults = draw(st.none() | st.lists(st.integers(1, 2), min_size=r, max_size=r))
    return make_config(points, mults)


@settings(deadline=None, max_examples=60)
@given(small_configs(), st.integers(1, 2))
def test_upper_bound_is_at_least_the_rational_scan(cfg, l):
    want = rational_scan(cfg, l)
    assert want <= _upper_bound(cfg, l)
    # certified in both domains, whatever the search prime: mod 7 too, where
    # 2^31 - 1 is 1 and the moved points coincide with others
    assert omega_l(cfg, l, "rational") == want
    assert omega_l(cfg, l) == want
    assert omega_l(cfg, l, prime=7) == want


@pytest.mark.parametrize("r", range(1, 10))
def test_upper_bound_is_the_harbourne_ceiling(r):
    cfg = generic_points(2, r, seed=0)
    assert [_upper_bound(cfg, m) for m in range(1, 9)] == [
        math.ceil(HARBOURNE_CR[r - 1] * m) for m in range(1, 9)]


@pytest.mark.parametrize("scalar", ["field", "rational"])
def test_harbourne_table_needs_no_confirmation(monkeypatch, scalar):
    # every cell's bound is certified by quadratic transformations of its own
    # points, in either domain omega_l still accepts: no search, no lower
    # level and no exact rank
    built, ranked = recorded_searches(monkeypatch)
    monkeypatch.setattr(invariants, "omega_l",
                        lambda cfg, l: omega_l(cfg, l, scalar))
    assert harbourne_table_check(8, 2024).all_pass
    assert not built
    assert not ranked


@st.composite
def plane_configs(draw):
    """Up to nine plane points with coordinates in -2..2, some on the line
    y = 2x + 1 or the conic y = x^2, so that collinear triples, points on a
    line through two others and points on a conic are common; then some
    coordinates moved by 2^31 - 1 (so they coincide mod the search prime);
    multiplicities 1..5."""
    t = st.integers(-2, 2)
    shape = st.one_of(st.tuples(t, t), t.map(lambda x: (x, 2 * x + 1)), t.map(lambda x: (x, x * x)))
    point = st.builds(lambda p, k: (p[0] + k[0] * P31, p[1] + k[1] * P31),
                      shape, st.tuples(st.integers(0, 1), st.integers(0, 1)))
    points = draw(st.lists(point, min_size=1, max_size=9, unique=True))
    mults = st.lists(st.integers(1, 5), min_size=len(points), max_size=len(points))
    return make_config(points, draw(mults))


@settings(deadline=None, max_examples=30)  # an open cell can take seconds of exact ranks
@given(plane_configs())
def test_cremona_certificate_agrees_with_the_search(cfg):
    # the value with the certificate off is the same in both domains (one
    # search mod the default prime, then exact ranks over Q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_cremona_nonempty", lambda *args: None)
        want = omega_l(cfg, 1)
    assert omega_l(cfg, 1) == omega_l(cfg, 1, "rational") == want


@settings(deadline=None, max_examples=150)
@given(plane_configs())
def test_cremona_answer_is_sound_at_every_degree(cfg):
    # where the chain answers, whatever the prime its checks run mod, the
    # exact rank over Q must agree
    orders = uniform_orders(cfg, 1)
    for d in range(_upper_bound(cfg, 1) + 1):
        for fld in (PrimeField(7), invariants.DEFAULT_FIELD):
            nonempty = _cremona_nonempty(cfg, orders, d, fld)
            if nonempty is not None:
                assert (rational_dimension(cfg, orders, d) >= 1) == nonempty


@settings(deadline=None, max_examples=100)
@given(plane_configs(), st.integers(1, 2))
def test_memoized_chain_steps_change_no_answer(cfg, l):
    # each answer with the memo warm from every other degree, field and
    # config is that of a chain run on an empty memo
    orders = uniform_orders(cfg, l)
    asked = [(d, fld) for d in range(_upper_bound(cfg, l) + 1)
             for fld in (PrimeField(7), invariants.DEFAULT_FIELD)]
    warm = [_cremona_nonempty(cfg, orders, d, fld) for d, fld in asked]
    cold = []
    for d, fld in asked:
        fatpoints._quadratic_step.cache_clear()
        cold.append(_cremona_nonempty(cfg, orders, d, fld))
    assert warm == cold


@pytest.mark.parametrize("seed", [2024, 7])
def test_harbourne_table_takes_each_quadratic_step_once(monkeypatch, seed):
    # the 72 cells of one seed take 25 distinct quadratic transformations,
    # each one _simplex, however many degrees and levels meet it
    calls = []

    def counted(columns, field):
        calls.append(len(columns))
        return simplex(columns, field)

    simplex = fatpoints._simplex
    monkeypatch.setattr(fatpoints, "_simplex", counted)
    built, _ = recorded_searches(monkeypatch)
    fatpoints._quadratic_step.cache_clear()
    assert harbourne_table_check(8, seed).all_pass
    assert len(calls) <= 25
    assert not built


def recorded_chain(monkeypatch):
    """Wrap the quadratic transformations omega_l asks: returns the list of
    (degree, answer) of every call."""
    calls = []

    def recording(config, orders, degree, field):
        calls.append((degree, chain(config, orders, degree, field)))
        return calls[-1][1]

    chain = invariants._cremona_nonempty
    monkeypatch.setattr(invariants, "_cremona_nonempty", recording)
    return calls


@pytest.mark.parametrize("seed", [2024, 7])
def test_the_chain_is_asked_at_the_bound_only_after_it_answers_below(monkeypatch, seed):
    # 12 general points end in a standard form with chi <= 0 just below each
    # bound (4, 8, 11), which the chain cannot tell: one call per level, and
    # each level is searched
    calls = recorded_chain(monkeypatch)
    built, _ = recorded_searches(monkeypatch)
    assert omega_table(generic_points(2, 12, seed), 3) == ((1, 4), (2, 8), (3, 11))
    assert calls == [(3, None), (7, None), (10, None)]
    assert len(built) == 3
    # a Harbourne cell: empty just below its bound, 5, then nonempty at it
    calls.clear()
    assert omega_l(generic_points(2, 6, seed), 2) == 5
    assert calls == [(4, False), (5, True)]
    assert len(built) == 3


def scanned_bound(cfg, l):
    """Reference for _upper_bound: each count by a linear scan of the
    degrees, every level recomputed."""
    n = cfg.dimension
    bound = []
    for a in range(1, l + 1):
        conditions = sum(math.comb(m - 1 + n, n) for m in uniform_orders(cfg, a))
        count = next(d for d in range(conditions + 1) if math.comb(d + n, n) > conditions)
        bound.append(min([count] + [bound[b] + bound[a - b - 2] for b in range(a - 1)]))
    return bound[-1]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3), st.lists(st.integers(1, 5), min_size=1, max_size=12),
       st.booleans(), st.lists(st.integers(1, 8), min_size=1, max_size=8))
def test_bisected_upper_bound_is_the_scanned_one(n, mults, uniform, levels):
    # levels asked in any order, on top of those earlier examples stored
    points = [[i] + [0] * (n - 1) for i in range(len(mults))]
    cfg = make_config(points, None if uniform else mults)
    for l in levels:
        assert _upper_bound(cfg, l) == scanned_bound(cfg, l)


# three points of order 2 and three of order 1; at the bound 4 - 1 the class
# (3; 2, 2, 2, 1, 1, 1) needs a quadratic transformation centred at the first three
CENTRED = [2, 2, 2, 1, 1, 1]
REFUSED = {
    # the three centres lie on the line y = x
    "collinear-centres": ([[0, 0], [1, 1], [2, 2], [1, 0], [0, 1], [3, 5]],
                          [[0, 0], [1, 1], [2, 7], [1, 0], [0, 1], [3, 5]]),
    # (2, 0) lies on the line y = 0 through the centres (0, 0) and (1, 0)
    "point-on-a-centre-line": ([[0, 0], [1, 0], [0, 1], [2, 0], [3, 5], [5, 2]],
                               [[0, 0], [1, 0], [0, 1], [2, 7], [3, 5], [5, 2]]),
}


@pytest.mark.parametrize("special, moved", REFUSED.values(), ids=REFUSED.keys())
def test_cremona_chain_refuses_special_centres(monkeypatch, special, moved):
    for points, certified in ((special, False), (moved, True)):
        cfg = make_config(points, CENTRED)
        assert _upper_bound(cfg, 1) == 4
        answer = _cremona_nonempty(cfg, CENTRED, 3, invariants.DEFAULT_FIELD)
        assert answer is (False if certified else None)
        built, _ = recorded_searches(monkeypatch)
        for l in (1, 2, 3):
            assert omega_l(cfg, l) == omega_l(cfg, l, "rational") == rational_scan(cfg, l)
        assert bool(built) is not certified


def test_cremona_certifies_from_fewer_than_three_points(monkeypatch):
    # two points: (2; 3, 3) is empty, and the cube of their line lies in (3; 3, 3)
    built, ranked = recorded_searches(monkeypatch)
    cfg = make_config([[0, 0], [1, 2]])
    assert _cremona_nonempty(cfg, (3, 3), 2, invariants.DEFAULT_FIELD) is False
    assert _cremona_nonempty(cfg, (3, 3), 3, invariants.DEFAULT_FIELD) is True
    assert omega_l(cfg, 3) == omega_l(cfg, 3, "rational") == 3
    assert not built and not ranked
    assert rational_scan(cfg, 3) == 3


@st.composite
def sevens_configs(draw, dimensions=(2, 3)):
    """Up to five plane points or three points of 3-space, coordinates
    k / q with k in -3..3 and q in 1, 3, 7, 14, 49, so that most points have
    no affine image mod 7; multiplicities 1..3."""
    n = draw(st.sampled_from(dimensions))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 3, 7, 14, 49]))
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=5 if n == 2 else 3,
                           unique=True))
    mults = st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points))
    return make_config(points, draw(mults))


@st.composite
def refused_configs(draw):
    """Plane configs whose first quadratic transformation must be refused:
    three points of the largest order m on a line, or a fourth point of
    order below m on the line through two of them.  One point of the line
    has a coordinate k / q with q in 7, 14, 49, a point at infinity mod 7,
    and up to two more points of order below m have coordinates as in
    ``sevens_configs``."""
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 3, 7, 14, 49]))
    a, c = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2, unique=True))
    unit = st.sampled_from([-3, -2, -1, 1, 2, 3])
    seventh = st.builds(Fraction, unit, st.sampled_from([7, 14, 49]))
    e = draw(st.tuples(seventh, coord) | st.tuples(coord, seventh))
    t = draw(st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 3), 2, 3]))
    line = draw(st.permutations([a, e, tuple(u + t * (v - u) for u, v in zip(a, e))]))
    m = draw(st.integers(2, 3))
    below = st.integers(1, m - 1)
    if draw(st.booleans()):  # collinear centres
        points, orders = line, [m, m, m]
    else:  # the last point of the line on the line through the first two
        points, orders = [line[0], line[1], c, line[2]], [m, m, m, draw(below)]
    more = draw(st.lists(st.tuples(coord, coord), max_size=2))
    points = [*points, *more]
    assume(len(set(points)) == len(points))
    return make_config(points, orders + [draw(below) for _ in more])


@settings(deadline=None, max_examples=100)
@given(sevens_configs(dimensions=(2,)) | refused_configs())
@example(make_config([[1, 0], [0, 1], [Fraction(1, 7), Fraction(6, 7)]], [2, 2, 2]))
def test_cremona_answer_is_sound_at_points_at_infinity_mod_p(cfg):
    # a point whose denominator 7 divides is a point at infinity mod 7: the
    # chain runs through it, and every answer matches the exact rank over Q,
    # also where the step it must refuse involves such a point.  In the
    # example (1/7, 6/7) is (0 : 1 : 6) mod 7, on the line x + y = 1 of the
    # other two: the step must be refused, as read off that line it would
    # call degree 2 empty, though the square of the line is there
    orders = uniform_orders(cfg, 1)
    for d in range(max(orders) + 6):
        nonempty = _cremona_nonempty(cfg, orders, d, PrimeField(7))
        if nonempty is not None:
            assert (rational_dimension(cfg, orders, d) >= 1) == nonempty


@settings(deadline=None, max_examples=60)
@given(sevens_configs())
def test_omega_is_the_same_whatever_prime_the_search_starts_from(cfg):
    # mod 7 some points have no affine image, and the search takes the first
    # prime from 2^31 - 1 down under which every point reduces
    for l in (1, 2, 3):
        assert omega_l(cfg, l, prime=7) == omega_l(cfg, l) == rational_scan(cfg, l)


def test_a_point_without_image_moves_the_search_to_the_next_prime(monkeypatch):
    # 1/(2^31 - 1) has no affine image mod 2^31 - 1, and the three points of
    # largest order lie on the line y = 0, so the chain is refused and every
    # level is searched, mod 2^31 - 19
    cfg = make_config([[Fraction(1, 2**31 - 1), 0], [0, 0], [1, 0], [2, 0], [3, 5], [5, 2]],
                      CENTRED)
    built, _ = recorded_searches(monkeypatch)
    assert omega_table(cfg, 3) == ((1, 3), (2, 6), (3, 9))
    assert built and {modulus for modulus, _ in built} == {2147483629}


@pytest.mark.parametrize("scalar", ["field", "rational"])
@pytest.mark.parametrize("cfg, l", [(generic_points(2, 5, seed=3), 1),  # by the count
                                    (generic_points(2, 2, seed=3), 4)],  # by a product
                         ids=["count", "product"])
def test_a_bound_below_omega_raises(monkeypatch, scalar, cfg, l):
    assert omega_l(cfg, l, scalar) == _upper_bound(cfg, l)
    monkeypatch.setattr(invariants, "_upper_bound",
                        lambda c, k, bound=_upper_bound: bound(c, k) - 1)
    with pytest.raises(RuntimeError, match="bound"):
        omega_l(cfg, l, scalar)


def test_rational_omega_survives_an_unlucky_prime(monkeypatch):
    # the configs of `nagata omega --n 2 --r 10 --seed 3`: rank drops mod 7 at
    # d = 3, where 10 monomials meet 10 conditions; the exact rank over Q
    # finds no kernel there and steps to the bound, 4
    cfg = generic_points(2, 10, derive_seed(3, "configs"), 1000)
    assert omega_l(cfg, 1, prime=7) == 4
    monkeypatch.setattr(invariants, "DEFAULT_FIELD", PrimeField(7))
    assert omega_l(cfg, 1) == 4
    assert omega_l(cfg, 1, "rational") == 4


def test_harbourne_table_passes_with_a_small_search_prime(monkeypatch):
    monkeypatch.setattr(invariants, "DEFAULT_FIELD", PrimeField(7))
    assert harbourne_table_check(4, 2024).all_pass


def test_prime_zero_is_refused_not_taken_as_the_default():
    cfg = make_config([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="not prime"):
        omega_l(cfg, 1, prime=0)


def test_prime_is_refused_over_the_rationals():
    cfg = make_config([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="prime"):
        omega_l(cfg, 1, "rational", prime=7)


def test_omega_monotone_and_bounded():
    cfg = generic_points(2, 6, seed=5)
    table = dict(omega_table(cfg, 4))
    om1 = table[1]
    prev = 0
    for l in range(1, 5):
        assert table[l] >= prev
        prev = table[l]
        assert l <= table[l] <= l * om1


def test_waldschmidt_interval_single_point():
    lo, up = waldschmidt_interval(ORIGIN, 3)
    assert lo == Fraction(3, 4)
    assert up == Fraction(1)


def test_waldschmidt_interval_nine_points():
    lo, up = waldschmidt_interval(generic_points(2, 9, seed=7), 1)
    assert (lo, up) == (Fraction(3, 2), Fraction(3))


def test_waldschmidt_interval_four_points_upper():
    _, up = waldschmidt_interval(generic_points(2, 4, seed=2), 2)
    assert up <= 2


def test_witness_bound_examples():
    assert omega_s_witness_bound(ORIGIN, 1, 1) == 1
    assert omega_s_witness_bound(two_point_example(), 1, 1) == 2
    nine = generic_points(2, 9, seed=7)
    assert omega_s_witness_bound(nine, 1, 3) >= 3


def test_witness_bound_at_least_analytic():
    cfg = generic_points(2, 6, seed=5)
    l = 2
    d = omega_l(cfg, l)
    assert omega_s_witness_bound(cfg, l, d) >= Fraction(cfg.r * l, d)


def test_nagata_check_examples():
    assert nagata_check(generic_points(2, 10, seed=4), 1) == [(1, True)]
    assert omega_l(generic_points(2, 10, seed=4), 1) == 4
    nine = generic_points(2, 9, seed=7)
    assert nagata_check(nine, 2) == [(1, False), (2, False)]
    assert nagata_check(generic_points(2, 16, seed=13), 1) == [(1, True)]


def test_nagata_check_weighted_two_dim():
    cfg = make_config([[0, 0], [1, 1], [2, 1]], multiplicities=[1, 1, 2])
    checks = nagata_check(cfg, 1)
    om = omega_l(cfg, 1)
    assert checks == [(1, om * om * 3 > (1 * 4) ** 2)]


def test_nagata_check_weighted_rejected_for_n3():
    cfg = make_config([[0, 0, 0], [1, 1, 1]], multiplicities=[1, 2])
    with pytest.raises(ValueError):
        nagata_check(cfg, 1)


def test_omega_weighted_two_points():
    cfg = make_config([[Fraction(1, 2), 0], [Fraction(-1, 2), 0]],
                      multiplicities=[1, 2])
    assert omega_l(cfg, 1) == 2  # z2*(z1+1/2) works; degree 1 cannot


def test_harbourne_expected_values():
    assert math.ceil(HARBOURNE_CR[5] * 5) == 12   # r=6, m=5
    assert math.ceil(HARBOURNE_CR[7] * 17) == 48  # r=8, m=17
    assert math.ceil(HARBOURNE_CR[0] * 4) == 4    # r=1, m=4


def test_harbourne_table_small():
    check = harbourne_table_check(2, seed=1)
    assert check.all_pass
    assert len(check.cells) == 18
    cell = next(c for c in check.cells if c.r == 6 and c.m == 2)
    assert cell.expected == math.ceil(Fraction(12, 5) * 2) == 5
    assert all(v.passed for v in check.verdicts())


@pytest.mark.parametrize("actual, detail", [
    (3, "expected 2, got 3; contradicts Harbourne's table (a fault)"),
    (1, "expected 2, got 1 (config possibly special; re-seed)"),
])
def test_harbourne_verdicts_tell_a_fault_from_a_special_config(monkeypatch, actual,
                                                               detail):
    # r = 4, m = 1 expects ceil(2 * 1) = 2: a certified value above it
    # contradicts the table, one below it is a special config
    monkeypatch.setattr(invariants, "omega_l",
                        lambda cfg, m, *args: actual if (cfg.r, m) == (4, 1)
                        else math.ceil(HARBOURNE_CR[cfg.r - 1] * m))
    check = harbourne_table_check(1, seed=1)
    assert [c.r for c in check.failures()] == [4]
    (bad,) = [v for v in check.verdicts() if not v.passed]
    assert (bad.name, bad.detail) == ("harbourne-r4-m1", detail)
    assert not any("fault" in v.detail or "re-seed" in v.detail
                   for v in check.verdicts() if v.passed)


def test_superadditivity_single_point_equalities():
    v = superadditivity_check(ORIGIN, 4)
    assert v.passed


def test_superadditivity_generic_and_grid():
    assert superadditivity_check(generic_points(2, 5, seed=3), 4).passed
    assert superadditivity_check(grid_points(2, 2), 4).passed


def test_waldschmidt_upper_examples():
    assert waldschmidt_upper_check(generic_points(2, 9, seed=7), 1).passed
    assert waldschmidt_upper_check(ORIGIN, 3).passed
    assert waldschmidt_upper_check(generic_points(2, 16, seed=13), 1).passed


def test_subset_monotonicity():
    cfg = generic_points(2, 7, seed=6)
    smaller = cfg.drop_point(cfg.r - 1)
    for l in (1, 2):
        assert omega_l(smaller, l) <= omega_l(cfg, l)


def test_weighted_configs_rejected_where_uniform_required():
    cfg = make_config([[0, 0], [1, 0]], multiplicities=[1, 2])
    with pytest.raises(ValueError):
        waldschmidt_interval(cfg, 2)
    with pytest.raises(ValueError):
        waldschmidt_upper_check(cfg, 2)


def test_invariant_report_structure():
    cfg = generic_points(2, 10, seed=4)
    report = invariant_report(cfg, 2)
    assert report.omega_lower <= report.omega_upper
    assert report.w_lower >= Fraction(cfg.r, report.table[0][1])
    assert len(report.table) == 2
    assert report.all_pass  # r=10: strictness holds, all checks green


def test_invariant_report_reads_one_table(monkeypatch):
    cfg = generic_points(2, 16, seed=13)
    l_max = 3
    built, _ = recorded_searches(monkeypatch)
    report = invariant_report(cfg, l_max)
    assert len(built) == len(set(built)) <= l_max  # no level searched twice
    nagata = [v for v in report.verdicts if v.name.startswith("nagata-l")]
    assert [(int(v.name[len("nagata-l"):]), v.passed) for v in nagata] == \
        nagata_check(cfg, l_max)
    assert report.verdicts[-2] == superadditivity_check(cfg, l_max)
    assert report.verdicts[-1] == waldschmidt_upper_check(cfg, l_max)
    assert report.table == omega_table(cfg, l_max)
    analytic = max(Fraction(cfg.r * l, om) for l, om in report.table)
    assert report.w_lower == max(analytic,
                                 omega_s_witness_bound(cfg, 1, report.table[0][1]))


def test_invariant_report_flags_boundary_failure():
    report = invariant_report(generic_points(2, 9, seed=7), 1)
    nag = [v for v in report.verdicts if v.name.startswith("nagata")]
    assert nag and not nag[0].passed  # equality at r=9 is a reported failure
