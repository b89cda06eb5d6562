"""Exact linear algebra: field arithmetic, rank, kernels, incremental rank."""

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nagata import exactla
from nagata.configs import generic_points
from nagata.exactla import (
    ExactMatrix,
    PrimeField,
    RankAccumulator,
    ReductionError,
    _verify_in_kernel,
    integer_rows,
    is_prime,
    kernel_basis,
    rank,
)
from nagata.configs import make_config
from nagata.fatpoints import (
    InterpolationProblem,
    condition_matrix,
    kernel_polynomials,
    monomial_count,
    monomials,
    vanishing_order,
)
from nagata.green import _scaled_kernel
from nagata.seeds import derive_seed

F = PrimeField()


def rref(rows, p=None):
    """Independent oracle: plain Gauss-Jordan on scalars, Fractions over Q
    or ints mod p.  Returns the nonzero rows of the reduced row echelon form
    (pivots 1) and the pivot columns."""
    norm = (lambda a: a) if p is None else (lambda a: a % p)
    work = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    for c in range(nc):
        piv = len(pivots)
        sel = next((i for i in range(piv, nr) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        inv = 1 / work[piv][c] if p is None else pow(work[piv][c], -1, p)
        work[piv] = [norm(a * inv) for a in work[piv]]
        for i in range(nr):
            if i != piv and work[i][c] != 0:
                f = work[i][c]
                work[i] = [norm(a - f * b) for a, b in zip(work[i], work[piv])]
        pivots.append(c)
    return work[:len(pivots)], pivots


def rref_rank(rows, p=None):
    return len(rref(rows, p)[1])


def rref_kernel(rows, nc, p=None):
    """The RREF kernel basis of an nc-column matrix, one vector per free
    column, first nonzero entry 1, from the scalar oracle."""
    norm = (lambda a: a) if p is None else (lambda a: a % p)
    red, pivots = rref(rows, p)
    basis = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [0] * nc
        v[free] = 1
        for row, pc in zip(red, pivots):
            v[pc] = norm(-row[free])
        lead = next(x for x in v if x)
        inv = 1 / Fraction(lead) if p is None else pow(lead, -1, p)
        basis.append(tuple(norm(x * inv) for x in v))
    return basis


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(7)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(2**31 - 19)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(2**61 - 3)  # composite neighbor
    assert is_prime(4294967311)  # prime just above 2^32


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(2**62 + 1)
    # primes at or above 2^31 are refused: residues multiply in one uint64
    for p in (2**31 + 11, 4294967311, 2**61 - 1):
        with pytest.raises(ValueError, match="not below 2\\^31"):
            PrimeField(p)
    assert PrimeField().modulus == 2**31 - 1


def test_rational_to_field_examples():
    f7 = PrimeField(7)
    assert f7.from_rational(Fraction(1, 2)) == 4
    assert f7.from_rational(Fraction(0)) == 0
    assert f7.from_rational(Fraction(-1, 3)) == 2


def test_rational_to_field_reduction_failure():
    f7 = PrimeField(7)
    with pytest.raises(ReductionError):
        f7.from_rational(Fraction(1, 7))
    with pytest.raises(ReductionError):
        f7.from_rational(Fraction(3, 14))


@pytest.mark.parametrize("p", [97, 2**31 - 1, 65521])
def test_vector_ops_other_moduli(p):
    f = PrimeField(p)
    vals = [0, 1, p - 1, p // 2, 12345 % p]
    v = f.vec(vals)
    c = p - 3
    out = f.vec_mul(v, c)
    assert [int(x) for x in out] == [x * c % p for x in vals]
    out2 = f.vec_submul(v, c, f.vec(list(reversed(vals))))
    assert [int(x) for x in out2] == [
        (x - c * y) % p for x, y in zip(vals, reversed(vals))
    ]


# k.bit_length() takes every value from 1 to 12 and 14 and 15 here.
# PrimeField.matmul splits b into limbs of 53 - p.bit_length() - k.bit_length()
# bits.  Mod 2^31 - 1 and 2^31 - 19, k takes each limb count: 2 below 64, 3
# below 2^11, 4 at 2^11 and 2^13, and 2^14 is split into two chunks of k; mod
# 65521 every k takes one limb, and mod 7 the widest one
MATMUL_K = sorted({1, 600, *(2**j - 1 for j in range(2, 12)), *(2**j for j in range(1, 12)),
                   2**13, 2**14})
MATMUL_PRIMES = (7, 65521, 2**31 - 19, 2**31 - 1)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(MATMUL_PRIMES), st.sampled_from(MATMUL_K) | st.integers(1, 600),
       st.integers(1, 4), st.integers(1, 4), st.booleans(),
       st.randoms(use_true_random=False))
def test_matmul_matches_object_dot(p, k, m, n, top, rnd):
    f = PrimeField(p)
    draw = (lambda: p - 1) if top else (lambda: rnd.randrange(p))
    a = [[draw() for _ in range(k)] for _ in range(m)]
    b = [[draw() for _ in range(n)] for _ in range(k)]
    want = np.array(a, dtype=object).dot(np.array(b, dtype=object)) % p
    got = f.matmul(f.vec(a), f.vec(b))
    assert got.dtype == f.vec(a).dtype and got.shape == (m, n)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_all_top_entries_at_every_limb_width(p):
    # p - 1 and the odd p - 2: with an odd a, every dot of a with a limb of
    # b's high bits is a sum of odd terms, which float64 would round past 2^53
    f = PrimeField(p)
    for k in MATMUL_K:
        for top in (p - 1, p - 2):
            a, b = f.vec([[top] * k] * 2), f.vec([[top] * 3] * k)
            assert f.matmul(a, b).tolist() == [[k * top ** 2 % p] * 3] * 2


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_reduces_the_sum_of_its_chunks(p):
    # mod a 31-bit prime k = 2^14 is split into chunks of 2^14 - 1 and 1;
    # each chunk's product is p - 1, and their sum must be reduced once more
    f, k = PrimeField(p), 2**14
    b = [[p - 1]] + [[0]] * (k - 2) + [[p - 1]]
    assert f.matmul(f.vec([[1] * k]), f.vec(b)).tolist() == [[p - 2]]


def test_matmul_reduces_unreduced_factors():
    # mod 7 one 26-bit limb holds a reduced entry; 2^40 lies above it, and is 2 mod 7
    got = PrimeField(7).matmul(np.array([[2**40]], dtype=np.uint64),
                               np.array([[1]], dtype=np.uint64))
    assert got.tolist() == [[2]]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(MATMUL_PRIMES), st.sampled_from(MATMUL_K),
       st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_matmul_of_any_uint64_entries_matches_object_dot(p, k, m, n, rnd):
    # entries up to 2^64 - 1, unreduced
    draw = lambda: rnd.choice((rnd.randrange(2**64), 2**64 - 1, p, p + rnd.randrange(p)))
    a = np.array([[draw() for _ in range(k)] for _ in range(m)], dtype=np.uint64)
    b = np.array([[draw() for _ in range(n)] for _ in range(k)], dtype=np.uint64)
    want = a.astype(object).dot(b.astype(object)) % p
    assert PrimeField(p).matmul(a, b).tolist() == want.tolist()


@pytest.mark.parametrize("p", [2**31 - 19, 97, 2**31 - 1, 65521])
def test_vector_ops_broadcast_array_multiplier(p):
    f = PrimeField(p)
    vals = [0, 1, p - 1, p // 2, 12345 % p]
    cs = [p - 3, 0, 1, p // 3]
    out = f.vec_mul(f.vec(vals)[:, None], f.vec(cs))
    assert [[int(x) for x in row] for row in out] == [[x * c % p for c in cs] for x in vals]
    block = [[(7 * i + j) % p for j in range(len(cs))] for i in range(len(vals))]
    out2 = f.vec_submul(f.vec(block), f.vec(cs), f.vec(vals)[:, None])
    assert [[int(x) for x in row] for row in out2] == [
        [(b - c * x) % p for b, c in zip(brow, cs)] for brow, x in zip(block, vals)
    ]


def test_rank_examples_both_domains():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    zeros = [[0, 0], [0, 0]]
    dep = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    for fld in (None, F):
        assert rank(ExactMatrix.from_rows(eye, fld)) == 3
        assert rank(ExactMatrix.from_rows(zeros, fld)) == 0
        assert rank(ExactMatrix.from_rows(dep, fld)) == 2


def test_kernel_examples():
    m = ExactMatrix.from_rows([[1, -1]])
    assert kernel_basis(m) == [(Fraction(1), Fraction(1))]

    inv = ExactMatrix.from_rows([[2, 1], [1, 1]])
    assert kernel_basis(inv) == []

    m2 = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert kernel_basis(m2) == [(Fraction(0), Fraction(0), Fraction(1))]


def test_kernel_field_normalization():
    m = ExactMatrix.from_rows([[1, -1]], F)
    (v,) = kernel_basis(m)
    assert v == (1, 1)


small_matrix = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@settings(deadline=None, max_examples=150)
@given(small_matrix)
def test_rank_plus_kernel_equals_cols(rows):
    for fld in (None, F):
        m = ExactMatrix.from_rows(rows, fld)
        assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(deadline=None, max_examples=150)
@given(small_matrix)
def test_rational_rank_matches_fraction_oracle(rows):
    assert rank(ExactMatrix.from_rows(rows)) == rref_rank(rows)


@settings(deadline=None, max_examples=100)
@given(small_matrix)
def test_field_rank_at_most_rational_rank(rows):
    # small integer entries: 2^31 - 1 never divides a relevant minor here, so the
    # two ranks agree; <= is the general guarantee
    r_rat = rank(ExactMatrix.from_rows(rows))
    r_fld = rank(ExactMatrix.from_rows(rows, F))
    assert r_fld <= r_rat
    assert r_fld == r_rat


def test_mod_p_rank_can_only_drop():
    # [[1, 1], [1, 4]] has rank 2 over Q but rank 1 mod 3
    rows = [[1, 1], [1, 4]]
    assert rank(ExactMatrix.from_rows(rows)) == 2
    assert rank(ExactMatrix.from_rows(rows, PrimeField(3))) == 1


@settings(deadline=None, max_examples=60)
@given(small_matrix, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(rows, rnd):
    m = ExactMatrix.from_rows(rows)
    base = rank(m)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    factors = [rnd.choice([1, 2, 3, -1, 5]) for _ in shuffled]
    scaled = [[x * f for x in row] for row, f in zip(shuffled, factors)]
    assert rank(ExactMatrix.from_rows(scaled)) == base


@settings(deadline=None, max_examples=80)
@given(small_matrix)
def test_kernel_vectors_annihilate_matrix(rows):
    m = ExactMatrix.from_rows(rows)
    for v in kernel_basis(m):
        for i in range(m.rows):
            assert sum(a * b for a, b in zip(m.entries[i], v)) == 0
        first = next(x for x in v if x)
        assert first == 1


entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


# entries of up to 100 bits: the lift takes many digits and several
# reconstruction attempts, and B's limbs several weights
big_entry = st.one_of(st.integers(-2**100, 2**100),
                      st.fractions(-2**60, 2**60, max_denominator=2**40))


@st.composite
def kernel_cases(draw, entries=entry):
    """(rows, cols): up to 6 x 8, integer and rational entries, rank at most
    a drawn k (k = 0 gives the zero matrix), some rows and columns zeroed."""
    nr, nc, k = draw(st.integers(0, 6)), draw(st.integers(1, 8)), draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=k, max_size=k))
    coeff = st.sampled_from([-2, -1, 1, 2, 3])
    mix = draw(st.lists(st.lists(coeff, min_size=k, max_size=k), min_size=nr, max_size=nr))
    rows = [[sum((c * b[j] for c, b in zip(cs, base)), Fraction(0)) for j in range(nc)]
            for cs in mix]
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)], nc


@settings(deadline=None, max_examples=150)
@given(kernel_cases())
@example(([], 4))  # 0-row matrix: the unit vectors
@example(([[0, 0, 0], [0, 0, 0]], 3))  # rank 0
@example(([[1, 0], [0, 2], [3, 4]], 2))  # empty kernel
@example(([[Fraction(1, 2), 0, 3], [1, 0, 6]], 3))  # zero column, rank 1
def test_rational_kernel_matches_fraction_rref(case):
    rows, nc = case
    m = ExactMatrix(len(rows), nc, tuple(Fraction(x) for r in rows for x in r))
    basis = kernel_basis(m)
    assert basis == rref_kernel(rows, nc)
    assert all(type(x) is Fraction for v in basis for x in v)


@settings(deadline=None, max_examples=40)
@given(kernel_cases(big_entry))
def test_rational_kernel_and_rank_with_large_entries(case):
    rows, nc = case
    m = ExactMatrix(len(rows), nc, tuple(Fraction(x) for r in rows for x in r))
    assert kernel_basis(m) == rref_kernel(rows, nc)
    assert rank(m) == rref_rank(rows)


@settings(deadline=None, max_examples=80)
@given(kernel_cases())
@example(([], 4))  # 0-row matrix: the unit vectors
@example(([[0, 0, 0], [0, 0, 0]], 3))  # rank 0
@example(([[1, 1], [1, 4]], 2))  # rank 2 over Q, rank 1 mod 3
def test_field_rank_and_kernel_match_mod_p_rref(case):
    rows, nc = case
    for fld in (*FIELD_KINDS, PrimeField(3), PrimeField(7)):
        p = fld.modulus
        try:
            reduced = [[fld.from_rational(x) for x in r] for r in rows]
        except ReductionError:
            continue
        m = ExactMatrix(len(rows), nc, [x for r in reduced for x in r], fld)
        assert rank(m) == rref_rank(reduced, p)
        basis = kernel_basis(m)
        assert basis == rref_kernel(reduced, nc, p)
        assert all(type(x) is int for v in basis for x in v)


def test_rational_kernel_on_a_condition_matrix():
    # the smallest rational kernel of the kernel-exact family: r=6, l=3, d=8
    cfg = generic_points(2, 6, derive_seed(2024, "kernel-exact-r6"), 1000)
    mat = condition_matrix(InterpolationProblem.uniform(cfg, 3, 8, None))
    basis = kernel_basis(mat)
    assert len(basis) == 9
    assert basis == rref_kernel(mat.entries.tolist(), mat.cols)


@st.composite
def mixed_denominator_problems(draw):
    """InterpolationProblems over Q: n = 1..3, 1..4 distinct points whose
    coordinates have denominators drawn independently per point and axis,
    multiplicities 1..3, and a degree at most one above the least whose
    monomials outnumber the conditions (so the kernel is not empty)."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(-4, 4, max_denominator=12)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    cfg = make_config(points, multiplicities=mults)
    problem = InterpolationProblem.uniform(cfg, 1, 0)
    d = 0
    while monomial_count(n, d) <= problem.n_conditions:
        d += 1
    return InterpolationProblem.uniform(cfg, 1, d + draw(st.integers(0, 1)))


@settings(deadline=None, max_examples=40)
@given(mixed_denominator_problems())
def test_integer_kernel_path_matches_the_rref_oracle(problem):
    # kernel_polynomials over Q lifts the kernel of the integer block, a row
    # scaling of the rational one; the oracle eliminates the Fraction
    # condition matrix, and reads the orders from shell 0
    mat = condition_matrix(problem)
    want = rref_kernel(mat.entries.tolist(), mat.cols)
    polys = kernel_polynomials(problem)
    basis = monomials(problem.n, problem.degree)
    assert [p.coefficients for p in polys] == [
        tuple((b, c) for b, c in zip(basis, v) if c) for v in want]
    orders = vanishing_order(want, problem.config.points, basis)
    assert [p.achieved_orders for p in polys] == [tuple(o) for o in zip(*orders)]
    assert all(got >= need for p in polys for got, need in zip(p.achieved_orders,
                                                                 problem.orders))


@settings(deadline=None, max_examples=30)
@given(mixed_denominator_problems(),
       st.fractions(-3, 3, max_denominator=200).filter(lambda t: t != 0))
def test_rescaled_kernel_is_the_kernel_of_the_scaled_points(problem, t):
    # green's collision tables rescale one kernel for every t: P(z / t),
    # renormalized by its lead, is the kernel polynomial at t S
    scaled = InterpolationProblem(problem.config.scaled(t), problem.degree, problem.orders)
    got = _scaled_kernel(kernel_polynomials(problem), t)
    assert got == kernel_polynomials(scaled)
    mat = condition_matrix(scaled)
    basis = monomials(problem.n, problem.degree)
    assert [p.coefficients for p in got] == [
        tuple((b, c) for b, c in zip(basis, v) if c)
        for v in rref_kernel(mat.entries.tolist(), mat.cols)]


def test_stacked_elimination_inverts_the_pivot_block():
    # one Gauss-Jordan of [b; I] with pivots sought in b only: the same
    # profile and reduced b as on b alone, and the identity's part inverts
    # b on the pivot rows and columns (what the lift reads as B^-1)
    rnd = np.random.default_rng(5)
    f = exactla._LIFT_FIELD
    for _ in range(100):
        k, m, rank_b = rnd.integers(1, 9, size=3)
        b = (rnd.integers(-50, 50, size=(k, min(rank_b, m)))
             @ rnd.integers(-50, 50, size=(min(rank_b, m), m))).astype(object)
        red, cols, rows = exactla._gauss_jordan(f, f.vec(b))
        stacked = np.vstack([f.vec(b), np.eye(m, dtype=f.dtype)])
        red2, cols2, rows2 = exactla._gauss_jordan(f, stacked, k)
        assert (cols2, rows2) == (cols, rows)
        assert (red2[:k] == red).all()
        e = red2[k:][np.ix_(cols, cols)]
        assert (f.matmul(f.vec(b[np.ix_(rows, cols)]), e) == np.eye(len(cols))).all()


def column_loop(field, b, limit=None):
    """Reference: the column-by-column Gauss-Jordan loop, one broadcast
    update per pivot, at every width (``_gauss_jordan`` runs it only on
    blocks of at most ``_BASE_COLUMNS`` columns)."""
    cols, rows = [], []
    for j in range(b.shape[1]):
        nz = np.flatnonzero(b[:limit, j])
        if not len(nz):
            continue
        pivot = int(nz[0])
        b[:, j] = field.vec_mul(b[:, j], field.inv(int(b[pivot, j])))
        coef = b[pivot].copy()
        coef[j] = 0
        if coef.any():
            b = field.vec_submul(b, coef, b[:, j, None])
        cols.append(j)
        rows.append(pivot)
    return b, cols, rows


def elimination_blocks(p, width, rng):
    """Blocks of the given width mod p: random with more rows than columns;
    rank at most half the width, with three zero columns (the right half of
    a split finds no pivot); fewer rows than columns and a zero left half
    (the left half finds none)."""
    def entries(r, c):
        return rng.integers(0, p, size=(r, c), dtype=np.uint64).astype(object)

    rank_half = max(1, width // 2)
    deficient = entries(width + 2, rank_half).dot(entries(rank_half, width)) % p
    deficient[:, rng.choice(width, size=min(3, width), replace=False)] = 0
    wide = entries(width // 3 + 1, width)
    wide[:, :width // 2] = 0
    return [entries(width + 3, width), deficient, wide]


@pytest.mark.parametrize("p", [7, 2**31 - 1, 2**31 - 19, 65521])
@pytest.mark.parametrize("width", sorted({1, *(exactla._BASE_COLUMNS + d for d in (-1, 0, 1)),
                                          2 * exactla._BASE_COLUMNS + 1,
                                          3 * exactla._BASE_COLUMNS}))
def test_recursive_elimination_matches_the_column_loop(p, width):
    # the halving recursion and its two products per level give the loop's
    # pivot columns, pivot rows and reduced block, on b and on [b; I] with
    # pivots sought in b only (the lift's stacked elimination)
    f = PrimeField(p)
    rng = np.random.default_rng(width)
    for b in elimination_blocks(p, width, rng):
        stacked = np.vstack([b, np.eye(width, dtype=object)])
        for block, limit in ((b, None), (stacked, len(b))):
            got, cols, rows = exactla._gauss_jordan(f, f.vec(block), limit)
            want, want_cols, want_rows = column_loop(f, f.vec(block), limit)
            assert (cols, rows) == (want_cols, want_rows)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def recorded_lifts(monkeypatch):
    """Wrap exactla._lift_at: returns the list of (modulus, lifted) it was
    called with, lifted False where the prime was found unlucky."""
    calls = []
    real = exactla._lift_at

    def lift_at(field, a, norms):
        x = real(field, a, norms)
        calls.append((field.modulus, x is not None))
        return x

    monkeypatch.setattr(exactla, "_lift_at", lift_at)
    return calls


Q = 2**31 - 1  # the first prime of the lift
Q_NEXT = max(p for p in range(Q - 200, Q) if is_prime(p))


@pytest.mark.parametrize("rows, rank_q", [
    ([[1, 1], [1, 1 + Q]], 2),  # rank 2 over Q, rank 1 mod q
    ([[1, 1, 1], [1, 1 + Q, 1]], 2),  # the same rows, wider: rank lifts the transpose
    ([[Q, 1]], 1),  # column profile {0} over Q, {1} mod q
    ([[Q, 1, 1]], 1),  # the same, with a basis mod q that is not the echelon one
    ([[Q, 1], [2 * Q, 2]], 1),
    ([[Q, 2 * Q]], 1),  # zero mod q: nothing to lift, and the unit vectors fail
])
def test_unlucky_prime_moves_to_the_next(monkeypatch, rows, rank_q):
    calls = recorded_lifts(monkeypatch)
    m = ExactMatrix.from_rows(rows)
    assert rank(m) == rref_rank(rows) == rank_q
    assert kernel_basis(m) == rref_kernel(rows, m.cols)
    # the kernel_basis lift: q is unlucky, the next prime below it lifts
    assert calls[-2:] == [(Q, False), (Q_NEXT, True)]


def test_a_lift_that_never_verifies_raises(monkeypatch):
    calls = recorded_lifts(monkeypatch)

    def never(rows, vectors, field):
        raise RuntimeError("kernel vector 0 fails m @ v = 0 at row 0")

    monkeypatch.setattr(exactla, "_verify_in_kernel", never)
    rows = [[2**70 + 1, 3, -(2**90)], [5, -(2**80), 7]]
    m = ExactMatrix.from_rows(rows)
    with pytest.raises(RuntimeError, match="no prime lifts the kernel"):
        kernel_basis(m)
    # it stops once the failed primes multiply past the Hadamard bound H:
    # every unlucky prime divides one nonzero minor, of size at most H
    h2 = prod(sum(x * x for x in r) for r in rows)
    moduli = [q for q, lifted in calls]
    assert not any(lifted for q, lifted in calls)
    assert moduli == sorted(moduli, reverse=True) and moduli[:2] == [Q, Q_NEXT]
    assert prod(moduli[:-1]) ** 2 <= h2 < prod(moduli) ** 2
    # a full rank mod p needs no lift; a rank below it does
    assert rank(m) == 2
    with pytest.raises(RuntimeError, match="no prime lifts the kernel"):
        rank(ExactMatrix.from_rows([rows[0], [2 * x for x in rows[0]]]))


# denominators of the non-probe entries: coprime, small ones that the
# truncated reconstruction extends its denominator by, and primes past 2^64
# that it refuses, so the full reconstruction takes over
DENOMINATORS = (3, 5, 7, 11, 13, 2**61 - 1, 2**89 - 1)


@st.composite
def probe_free_kernels(draw):
    """(rows, cols) of [D | -D X] for a k x c rational X whose probe entries
    (0, c - 1), (k - 1, 0) and (k // 2, c // 2) are integers, zero among
    them, and whose other entries carry the denominators, D the diagonal of
    each row's lcm: the lift solves D X' = D X on the first k columns, so X'
    is X, and the probes reconstruct with denominator 1 at every attempt."""
    k, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    probes = {(0, c - 1), (k - 1, 0), (k // 2, c // 2)}
    small = st.integers(-3, 3)
    x = [[draw(small) if (i, j) in probes else
          Fraction(draw(st.integers(-2**70, 2**70)), draw(st.sampled_from(DENOMINATORS)))
          for j in range(c)] for i in range(k)]
    rows = []
    for i, xi in enumerate(x):
        m = lcm(*(v.denominator for v in map(Fraction, xi)))
        rows.append([m if j == i else 0 for j in range(k)] + [int(-m * v) for v in xi])
    return rows, k + c


@settings(deadline=None, max_examples=60)
@given(probe_free_kernels())
@example(([[2**89 - 1, 0, -5, 0], [0, 1, -1, -2]], 4))  # X = [[5 / (2^89 - 1), 0], [1, 2]]
def test_rational_kernel_with_integral_probes_matches_the_rref_oracle(case):
    rows, nc = case
    m = ExactMatrix.from_rows(rows)
    assert kernel_basis(m) == rref_kernel(rows, nc)


def recorded_candidates(monkeypatch):
    """Wrap exactla._lift_solution and exactla._candidates: returns one
    [modulus, cap, candidates] per lift, each candidate as (digits taken
    when it came, (Y, D))."""
    lifts = []
    lift_solution, candidates = exactla._lift_solution, exactla._candidates

    def recorded_lift(field, b, inv, rhs, cap):
        lifts.append([field.modulus, cap, []])
        return lift_solution(field, b, inv, rhs, cap)

    def recorded_attempt(digits, p, d):
        for candidate in candidates(digits, p, d):
            lifts[-1][2].append((len(digits), candidate))
            yield candidate

    monkeypatch.setattr(exactla, "_lift_solution", recorded_lift)
    monkeypatch.setattr(exactla, "_candidates", recorded_attempt)
    return lifts


def reference_first_candidate(p, x, cap):
    """Digit count of the first candidate of the lift that rebuilds all of X
    mod p^N at every attempt and reconstructs it in full, for the exact
    solution x = (Y, D): X mod p^N is Y D^-1 mod p^N, the value of its first
    N digits.  The attempts come at N = 1, 2, 3, ... growing by about a
    quarter, and at the cap."""
    y, d = x
    digits, attempt, modulus = 0, 1, 1
    while modulus <= cap:
        digits += 1
        modulus *= p
        if digits == attempt or modulus > cap:
            attempt += digits // 4 + 1
            xs = np.array([v * pow(d, -1, modulus) % modulus for v in y.flat],
                          dtype=object).reshape(y.shape)
            if reference_reconstruct(xs, modulus) is not None:
                return digits
    return None


def reference_reconstruct(xs, modulus):
    """Shared-denominator reconstruction over the full modulus, every entry
    in turn (the oracle of ``exactla._reconstruct`` at its default bounds)."""
    h = isqrt(modulus // 2)
    d, ys = 1, []
    for u in xs.flat:
        y = u * d % modulus
        if y > h:
            y -= modulus
        if y < -h:
            found = reference_fraction(y % modulus, modulus, h, h // d)
            if found is None:
                return None
            y, e = found
            d *= e
        ys.append((y, d))
    if any(abs(y * (d // di)) > h for y, di in ys):
        return None
    return d


def reference_fraction(u, modulus, num_bound, den_bound):
    """Wang's rational reconstruction by the extended Euclidean algorithm,
    at every bound (the oracle of ``exactla._fraction``)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    g = gcd(t1, r1) * (1 if t1 > 0 else -1)
    n, e = r1 // g, t1 // g
    return (n, e) if 1 < e <= den_bound else None


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([3, 2**31 - 1]), st.integers(1, 8), st.integers(1, 200),
       st.integers(1, 100), st.data())
def test_fraction_matches_wang_reconstruction(p, digits, den, den_bound, data):
    # the loop stops once |t| passes den_bound; it must still give Wang's
    # fraction, and None where Wang finds none, on residues with and without
    # one.  Where the last remainder and t share the prime, the oracle's
    # quotient by their gcd is not congruent to u, and None is right there;
    # every fraction returned is congruent to u
    assume(den % p)
    modulus = p ** digits
    h = isqrt(modulus // 2)
    den_bound = min(den_bound, h)
    num = data.draw(st.integers(-h, h))
    u = data.draw(st.sampled_from([num * pow(den, -1, modulus) % modulus,
                                   data.draw(st.integers(0, modulus - 1))]))
    assume(h < u < modulus - h)  # as _reconstruct calls it: u itself is out of bounds
    got = exactla._fraction(u, modulus, h, den_bound)
    want = reference_fraction(u, modulus, h, den_bound)
    assert got == want or (got is None and (want[0] - u * want[1]) % modulus)
    assert got is None or (got[0] - u * got[1]) % modulus == 0


def lift_cases():
    """Integer matrices whose kernels take many digits: the r = 6 condition
    matrix of the kernel-exact family and seeded dense ones with entries of
    up to 100 bits."""
    cfg = generic_points(2, 6, derive_seed(2024, "kernel-exact-r6"), 1000)
    yield condition_matrix(InterpolationProblem.uniform(cfg, 3, 8, None))
    rng = np.random.default_rng(derive_seed(0, "lift-cases"))
    for nr, nc, bits in ((3, 5, 100), (5, 8, 60), (6, 7, 40)):
        rows = [[int(v) << int(s) for v, s in zip(r, rng.integers(0, bits - 30, nc))]
                for r in rng.integers(-2**30, 2**30, (nr, nc))]
        yield ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("index", range(4))
def test_first_candidate_comes_at_the_full_reconstruction_digit_count(monkeypatch, index):
    # the probes reconstruct whenever all of X does, so the first candidate
    # comes at the first attempt where the full reconstruction succeeds
    m = list(lift_cases())[index]
    lifts = recorded_candidates(monkeypatch)
    assert kernel_basis(m) == rref_kernel(m.entries.tolist(), m.cols)
    (p, cap, candidates), = lifts
    (digits, x), = candidates
    assert digits == reference_first_candidate(p, x, cap)


def test_a_refused_truncated_step_falls_back_to_the_full_reconstruction(monkeypatch):
    real = exactla._reconstruct
    refused = []

    def refuse_truncated(xs, modulus, h=None, d=1):
        if h is not None:  # the truncated step: X mod p^n1 under the full bound h
            refused.append(modulus)
            return None
        return real(xs, modulus)

    monkeypatch.setattr(exactla, "_reconstruct", refuse_truncated)
    for m in lift_cases():
        refused.clear()
        assert kernel_basis(m) == rref_kernel(m.entries.tolist(), m.cols)
        assert refused


# moduli of 16 and 31 bits: one limb in every matmul here, and the most limbs.
# The ids are those of the slots' earlier kinds, kept so the case names stay
# stable: "object" (once 4294967311) holds 65521, "m61" (once 2^61 - 1) holds
# 2^31 - 19; both earlier moduli are now refused (test_prime_field_rejects_bad_modulus)
FIELD_KINDS = (PrimeField(65521), F, PrimeField(2**31 - 19))
FIELD_IDS = ["object", "small", "m61"]


def test_field_kinds_cover_every_vector_path():
    assert F.modulus == 2**31 - 1  # the default, as invariants searches
    assert [f.modulus.bit_length() for f in FIELD_KINDS] == [16, 31, 31]
    assert all(is_prime(f.modulus) and f.dtype == np.uint64 for f in FIELD_KINDS)


@pytest.mark.parametrize("fld", [None, *FIELD_KINDS], ids=["Q", *FIELD_IDS])
def test_verify_in_kernel_rejects_vector_off_by_one_entry(fld):
    # 3 x 6, no zero column: every kernel vector moved by one unit in one
    # entry leaves the kernel
    rows = [[Fraction(1, 2), -3, Fraction(5, 7), 2, 0, Fraction(-4, 3)],
            [7, Fraction(2, 9), 1, -1, Fraction(3, 5), 6],
            [0, 4, Fraction(-1, 6), Fraction(8, 11), 5, 1]]
    if fld is not None:
        rows = [[fld.from_rational(x) for x in r] for r in rows]
    m = ExactMatrix.from_rows(rows, fld)
    basis = kernel_basis(m)
    assert len(basis) == 3
    if fld is None:
        assert any(x.denominator > 1 for v in basis for x in v)

    def verify(vectors):
        if fld is None:
            _verify_in_kernel(integer_rows(m.entries), integer_rows(vectors), None)
        else:
            _verify_in_kernel(m.entries, fld.vec(vectors), fld)

    verify(basis)
    for k in range(len(basis)):
        for j in range(m.cols):
            bad = list(basis)
            v = list(bad[k])
            v[j] = v[j] + 1 if fld is None else (v[j] + 1) % fld.modulus
            bad[k] = tuple(v)
            with pytest.raises(RuntimeError, match=f"kernel vector {k} fails"):
                verify(bad)


def column_partitions(nc, rnd):
    """Column-index blocks: width one, the whole matrix, random cuts."""
    cuts = sorted(rnd.sample(range(1, nc), rnd.randint(0, nc - 1)))
    bounds = list(zip([0, *cuts], [*cuts, nc]))
    return [
        [range(j, j + 1) for j in range(nc)],
        [range(nc)],
        [range(a, b) for a, b in bounds],
    ]


@settings(deadline=None, max_examples=80)
@given(small_matrix, st.randoms(use_true_random=False))
def test_rank_accumulator_matches_one_shot(rows, rnd):
    # the last three columns are c, 3c and c0 - c: a block holding them
    # (the whole matrix always does) has dependent columns inside it
    rows = [[*r, 3 * r[-1], r[0] - r[-1]] for r in rows]
    nc = len(rows[0])
    for fld in FIELD_KINDS:
        want = rref_rank(rows, fld.modulus)
        prefix_want = [rref_rank([r[:k] for r in rows], fld.modulus) for k in range(nc + 1)]
        for partition in column_partitions(nc, rnd):
            acc = RankAccumulator(fld)
            added = 0
            for cols in partition:
                block = [[row[j] for j in cols] for row in rows]
                packed = fld.vec(block)
                added += acc.add(packed)
                assert (packed == fld.vec(block)).all()  # input left intact
            assert acc.rank == added == want
            assert [acc.prefix_rank(k) for k in range(nc + 1)] == prefix_want


@pytest.mark.parametrize("fld", FIELD_KINDS, ids=FIELD_IDS)
def test_rank_accumulator_rejects_blocks_of_another_height(fld):
    acc = RankAccumulator(fld)
    acc.add([0, 0, 0])
    with pytest.raises(ValueError, match="block has 2 rows, the first block had 3"):
        acc.add([1, 2])
    assert acc.add([[1], [2], [3]]) == 1  # a panel is stored now
    with pytest.raises(ValueError, match="block has 4 rows, the first block had 3"):
        acc.add(fld.vec([[1, 0]] * 4))
    assert acc.rank == 1 and acc.prefix_rank(2) == 1


@pytest.mark.parametrize("p", [7, 2**31 - 19, 2**31 - 1, 65521])
def test_rank_accumulator_reduces_raw_arrays_mod_p(p):
    fld = PrimeField(p)
    cases = [
        (np.array([[1, -1], [2, -2]], dtype=np.int64), 1),  # columns c and -c
        (np.array([[p], [2 * p]], dtype=np.int64), 0),  # zero mod p
        (np.array([[7], [14]], dtype=np.int64), 0 if p == 7 else 1),
        # uint64 entries at or past p: columns 0 and (1, 3)
        (np.array([[p, p + 1], [2 * p, 2 * p + 3]], dtype=np.uint64), 1),
    ]
    for block, want in cases:
        before = block.copy()
        acc = RankAccumulator(fld)
        assert acc.add(block) == acc.rank == want
        assert (block == before).all()  # input left intact


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    for fld in (None, *FIELD_KINDS):
        m = ExactMatrix.from_rows([[1, -2], [3, 4]], fld)
        assert m.entries.shape == (2, 2) and not m.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 5
    # a rational entry is reduced mod p, not truncated to an integer
    half = ExactMatrix.from_rows([[Fraction(1, 2), -3]], PrimeField(7))
    assert half.entries.tolist() == [[4, 4]]
    with pytest.raises(ReductionError):
        ExactMatrix.from_rows([[Fraction(1, 7)]], PrimeField(7))
    for fld in (*FIELD_KINDS, PrimeField(7)):  # entries at or past p are reduced
        p = fld.modulus
        raw = [[p + 1, 2**62 + 5, 3 * p], [2 * p, 1, 2**63 + p]]
        want = [[x % p for x in r] for r in raw]
        for entries in (raw, np.array(raw, dtype=fld.dtype)):
            m = ExactMatrix(2, 3, entries, fld)
            assert m.entries.tolist() == want
            assert rank(m) == rref_rank(want, p)
            assert kernel_basis(m) == rref_kernel(want, 3, p)

