"""Fat-point interpolation systems.

A degree-d polynomial vanishes to order >= m at a point p exactly when the
Taylor coefficients of (z - p)^alpha vanish for every |alpha| <= m - 1.  The
coefficient of (z - p)^alpha in the monomial z^beta is

    prod_i C(beta_i, alpha_i) * p_i^(beta_i - alpha_i),

so the conditions are rows of an exact matrix against the graded-lex monomial
basis of degree <= d.  Binomial-weighted ("divided") derivatives are used
instead of raw partials: the kernel is identical, there is no factorial
growth, and the formula is valid verbatim over a prime field with p >> m.

Every factor C(b, a) * x^(b - a) of an entry is read from a per-point,
per-coordinate table that grows by one column per degree, so a block of
columns (a whole matrix, or a few degrees' new monomials in DimensionSearch)
is a product of n gathered arrays.  ``condition_row`` of
``tests/oracles.py`` evaluates the same formula independently and serves
as the reference in the tests.

Over Q the tables hold Python ints, those of each point as the primitive
integer vector (c_j, c_j x_j) of P^n, c_j the lcm of its denominators
(``configs.primitive_vectors``, made once per config as
``PointConfig.homogeneous``).  Read at ((0,) + alpha, (d - |beta|, beta)),
they give row (j, alpha) of the rational block times c_j^(d - |alpha|): a
row scaling, with the same kernel, rank, column rank profile and zero
pattern (``_condition_tables``).  Every rank, kernel and order over Q is
taken on those integers; only ``condition_matrix`` makes Fractions, for its
public result.

The dimension of the linear system is column count minus rank; kernel vectors
convert to polynomials.  The searches take that rank of a smaller matrix,
in a projective frame of up to n + 1 of the points (``_frame_conditions``).
A polynomial of degree <= d is a form of degree d in the homogeneous
coordinates of P^n, and a change of coordinates A of P^n (over Q, or mod p
where A is invertible there) maps the forms vanishing to given orders at
given points onto those vanishing to the same orders at their images.
One fraction-free elimination (``_simplex``) finds such an A that sends
p_j0, a point of the largest order m0, to the origin and up to n more
points b_i to the points at infinity of the coordinate axes, the
coordinate simplex, and applies it to every other point.  There the
conditions only delete monomials: order m0 at the origin deletes those of
degree below m0, and order c_i at the point at infinity of axis i deletes
those with beta_i > d - c_i.  So monomial beta enters at degree
max(|beta|, max_i(beta_i + c_i)), and the dimension at d is the number of
monomials entered by d minus the rank of the other points' conditions on
them (``DimensionSearch`` mod p, ``rational_dimension`` over Q).
``vanishing_dimension`` and ``condition_matrix`` stay on the full matrix.

In the plane the same routine serves Nagata's quadratic transformations:
``_simplex`` sends the three centres of each to the coordinate triangle,
and ``_cremona_nonempty`` moves a class (d; orders) and its points by the
transformations, mod p, and reads off whether the system is empty,
without building any matrix (see ``invariants._omega``).  Where the
points go depends only on the points and the centres, not on the class,
so each transformation is taken once and memoized (``_quadratic_step``)
for every degree and level asked of the same points.

The condition rows also give exact vanishing orders: the (z - p)^alpha
Taylor coefficient of a polynomial is the dot of its coefficient vector with
the row of (p, alpha), so the order at p is the least t whose shell of rows
|alpha| = t has a nonzero dot with it.  ``vanishing_order`` reads every
point at once, from the orders the vectors are known to reach up: each
shell of all points still open is one block of one set of tables and one
exact product, in integers over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import numpy as np

from .configs import PointConfig, primitive_vectors
from .exactla import (
    ExactMatrix,
    PrimeField,
    RankAccumulator,
    exact_products,
    integer_rows,
    kernel_basis,
    rank,
)


def monomials_exact_degree(n: int, t: int) -> list:
    """Multi-indices with |beta| = t, lexicographically descending."""
    if n == 1:
        return [(t,)]
    out = []
    for head in range(t, -1, -1):
        for rest in monomials_exact_degree(n - 1, t - head):
            out.append((head,) + rest)
    return out


def monomials(n: int, d: int) -> list:
    """All multi-indices with |beta| <= d in graded-lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    out = []
    for t in range(d + 1):
        out.extend(monomials_exact_degree(n, t))
    return out


def monomial_count(n: int, d: int) -> int:
    return comb(d + n, n)


def uniform_orders(config: PointConfig, l: int) -> tuple:
    """Required vanishing orders at level l: l per point, scaled by any
    per-point multiplicities the config carries."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if config.multiplicities is None:
        return (l,) * config.r
    return tuple(l * m for m in config.multiplicities)


@dataclass(frozen=True)
class InterpolationProblem:
    """Vanishing conditions of given orders at config points, degree cap d."""

    config: PointConfig
    degree: int
    orders: tuple
    field: PrimeField | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if len(self.orders) != self.config.r:
            raise ValueError("orders length must equal point count")
        if any(m < 1 for m in self.orders):
            raise ValueError("orders must be >= 1")

    @classmethod
    def uniform(cls, config: PointConfig, l: int, degree: int,
                field: PrimeField | None = None) -> "InterpolationProblem":
        return cls(config, degree, uniform_orders(config, l), field)

    @property
    def n(self) -> int:
        return self.config.dimension

    @property
    def n_columns(self) -> int:
        return monomial_count(self.n, self.degree)

    @property
    def n_conditions(self) -> int:
        return sum(comb(m - 1 + self.n, self.n) for m in self.orders)

    def condition_index(self) -> list:
        """(point index, alpha) pairs in assembly order: points outer,
        multi-indices graded-lex inner."""
        out = []
        for j, m in enumerate(self.orders):
            for alpha in monomials(self.n, m - 1):
                out.append((j, alpha))
        return out


def _mul(field: PrimeField | None, a, b):
    return a * b if field is None else field.vec_mul(a, b)


def _submul(field: PrimeField | None, v, c, e):
    return v - c * e if field is None else field.vec_submul(v, c, e)


class _ConditionTables:
    """Condition-matrix blocks from per-point, per-coordinate tables.

    ``T[j, i, a, b] = C(b, a) * x_ji^(b - a)`` (0 for b < a) holds every
    factor of an entry, so the entry of condition (j, alpha) at monomial
    beta is ``prod_i T[j, i, alpha_i, beta_i]``, gathered for a whole block
    of monomials by fancy indexing.  Entries are field elements, or Python
    ints when ``field`` is None: over Q the coordinates must be integers,
    the homogeneous ones of ``primitive_vectors`` or the images of
    ``_frame_conditions``.  The tables grow by one column per degree
    through Pascal's rule, T[a, b] = x T[a, b-1] + T[a-1, b-1].

    ``index`` lists the conditions as two arrays, the point index of each
    and its alpha (one entry per coordinate); ``_index_arrays`` makes them from
    (point index, alpha) pairs.
    """

    def __init__(self, points, index, field: PrimeField | None):
        point, alpha = index
        if not len(point):  # orders >= 1 always give at least one row per point
            raise RuntimeError("empty condition set")
        self.field = field
        if field is None:
            neg_x = np.array([[-c for c in p] for p in points], dtype=object)
        else:
            neg_x = field.vec([[-field.from_rational(c) for c in p] for p in points])
        self._neg_x = neg_x[..., None]
        self._point = point[:, None]
        self._alpha = alpha
        shape = neg_x.shape + (int(self._alpha.max()) + 1, 1)
        self._tab = np.zeros(shape, dtype=neg_x.dtype)
        self._tab[:, :, 0, 0] = 1

    def _grow(self, degree: int) -> None:
        while self._tab.shape[-1] <= degree:
            prev = self._tab[..., -1]
            shifted = np.roll(prev, 1, axis=-1)
            shifted[..., 0] = 0
            col = _submul(self.field, shifted, self._neg_x, prev)
            self._tab = np.concatenate([self._tab, col[..., None]], axis=-1)

    def block(self, basis, rows=slice(None)) -> np.ndarray:
        """Conditions x monomials block for the multi-indices in basis, over
        the conditions of the index selected by rows (a slice or an array of
        positions)."""
        betas = np.array(basis)
        self._grow(int(betas.max()))
        point, alpha = self._point[rows], self._alpha[rows]
        out = None
        for i in range(betas.shape[1]):
            t = self._tab[point, i, alpha[:, i, None], betas[None, :, i]]
            out = t if out is None else _mul(self.field, out, t)
        return out


def _index_arrays(pairs) -> tuple:
    """The (point indices, alphas) arrays of (point index, alpha) pairs."""
    return np.array([j for j, _ in pairs]), np.array([alpha for _, alpha in pairs])


def _condition_tables(points, index, basis, field: PrimeField | None) -> tuple:
    """(tables, columns): the ``_ConditionTables`` of the conditions in
    ``index`` at the points, and the multi-indices whose block is that of
    the conditions on the basis.  Mod p those are the basis itself.  Over Q
    the tables are those of the homogeneous points (``primitive_vectors``) at
    (0,) + alpha and the columns are (d - |beta|, beta), d the largest
    degree of the basis: the entry at (j, alpha) and beta is
    C(beta, alpha) c_j^(d - |beta|) (c_j x_j)^(beta - alpha), c_j^(d - |alpha|)
    times the rational one.  That is a row scaling, with the rational
    block's kernel, rank, column rank profile and zero pattern."""
    if field is not None:
        return _ConditionTables(points, index, field), basis
    point, alpha = index
    betas = np.array(basis)
    sizes = betas.sum(axis=1)
    tables = _ConditionTables(primitive_vectors(points),
                              (point, np.pad(alpha, ((0, 0), (1, 0)))), None)
    return tables, np.column_stack([sizes.max() - sizes, betas])


def _block(problem: InterpolationProblem) -> np.ndarray:
    """The problem's conditions x monomials block of ``_condition_tables``:
    field elements, or Python ints over Q."""
    tables, columns = _condition_tables(problem.config.points,
                                        _index_arrays(problem.condition_index()),
                                        monomials(problem.n, problem.degree), problem.field)
    return tables.block(columns)


def condition_matrix(problem: InterpolationProblem) -> ExactMatrix:
    """Assemble the full conditions x monomials matrix in the scalar domain:
    field elements, or Fractions over Q."""
    block = _block(problem)
    if problem.field is None:  # row (j, alpha) of the block is c_j^(d - |alpha|) times its own
        dens = [h[0] for h in problem.config.homogeneous]
        block = np.array([[Fraction(x, dens[j] ** max(0, problem.degree - sum(alpha))) for x in row]
                          for row, (j, alpha) in zip(block.tolist(), problem.condition_index())],
                         dtype=object)
    return ExactMatrix(*block.shape, block, problem.field)


def _system_matrix(problem: InterpolationProblem) -> ExactMatrix:
    """A matrix with the condition matrix's rank and kernel: that matrix mod
    p, and over Q the integer block of ``_block``, so that no Fraction
    enters a rank or kernel."""
    if problem.field is not None:
        return condition_matrix(problem)
    block = _block(problem)
    return ExactMatrix(*block.shape, block)


def vanishing_dimension(problem: InterpolationProblem) -> int:
    """Dimension of the space of degree <= d polynomials meeting all orders."""
    return problem.n_columns - rank(_system_matrix(problem))


def _simplex(columns: list, field: PrimeField | None) -> tuple:
    """(pivots, images): the column rank profile of the matrix M with the
    given columns (n + 1 entries each), and every column times one E with
    E F = D diagonal, each D_t != 0, F the pivot columns: as points of P^n
    the t-th pivot column goes to the t-th coordinate point.

    Fraction-free Gauss-Jordan on the rows of M: the pivot in row k and
    column j clears column j from every other row,
    row <- M[k][j] row - row[j] M[k], reduced mod p in the same pass.  Over
    Q each step is divided exactly by the previous pivot (Bareiss), so
    every entry stays a minor of M up to sign, and D = +-det(F) I for a
    full-rank F.  O(n^2 len(columns)) scalar operations."""
    rows = [list(row) for row in zip(*columns)]
    pivots, last = [], 1
    for j in range(len(columns)):
        k = len(pivots)
        if k == len(rows):
            break
        i = next((i for i in range(k, len(rows)) if rows[i][j]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top, f = rows[k], rows[k][j]
        for i, row in enumerate(rows):
            if i == k:
                continue
            g = row[j]
            if field is None:
                rows[i] = [(f * x - g * y) // last for x, y in zip(row, top)]
            elif g:
                rows[i] = [(f * x - g * y) % field.modulus for x, y in zip(row, top)]
        pivots.append(j)
        last = f
    return pivots, list(zip(*rows))


def _frame_conditions(config: PointConfig, orders: tuple, field: PrimeField | None):
    """The system in a projective frame of up to n + 1 of its points.

    Returns (m0, offsets, tables).  m0 = max(orders), p_j0 is the first
    point of order m0, and one ``_simplex`` of the columns P_j0, the
    candidates, the unit directions (0, e_i) and then every P_j, for
    P = (1, x), gives the frame and E.  Its pivots are p_j0, the b_i and
    the completing directions: the b_i are the first candidates (the other
    points in decreasing order and then config order) independent of p_j0
    and the points taken before them, n at most.  E sends the frame to
    D times the coordinate simplex, D diagonal: p_j0 to the origin and b_i
    to the point at infinity of axis i.  ``offsets`` holds c_i, the order
    of b_i, for i <= k and 0 for a completing direction: monomial beta of
    degree >= m0 enters at degree max(|beta|, max_i(beta_i + c_i)).
    ``tables`` holds the conditions of every other point at its image
    Q_j = E P_j, one of the trailing columns (None when there is no other
    point).

    E is the inverse of the frame only up to D, which changes nothing: D
    fixes the origin and every point at infinity of an axis, and on the
    other points' conditions it multiplies row (j, alpha) and column beta
    by nonzero factors, so every column prefix keeps its rank.

    Every coordinate is reduced first, in config order, so a point with no
    image mod p raises the same ReductionError wherever it stands.  While
    another point has Q_j0 = 0, so lies at infinity, the last b_i is
    dropped and ``_simplex`` run again on the frame kept, O(n^2 r) each
    time.  With k = 0, E is D times the translation by -p_j0, and no
    Q_j0 is 0.  Mod p the tables are those of the affine images
    Q_j / Q_j0.  Over Q each Q_j is a primitive integer vector and the
    tables are homogeneous, coordinate 0 first with alpha_0 = 0: the entry
    at (j, alpha) and beta (with beta_0 = d - |beta|) is the affine one of
    Q_j / Q_j0 times Q_j0^(d - |alpha|), a row scaling of the same rank.
    """
    n, r = config.dimension, config.r
    m0 = max(orders)
    j0 = orders.index(m0)
    if field is None:
        homog = list(config.homogeneous)
    else:
        homog = [[1] + [field.from_rational(c) for c in p] for p in config.points]
    units = [[int(i == k) for i in range(n + 1)] for k in range(1, n + 1)]
    b = sorted(set(range(r)) - {j0}, key=lambda j: (-orders[j], j))  # the candidates
    while True:
        frame = [j0] + b
        pivots, images = _simplex([homog[j] for j in frame] + units + homog, field)
        b = [frame[i] for i in pivots[1:] if i < len(frame)]
        images = images[-r:]
        rest = [j for j in range(r) if j != j0 and j not in b]
        if not b or all(images[j][0] for j in rest):
            break
        b.pop()
    offsets = np.array([orders[j] for j in b] + [0] * (n - len(b)))
    if not rest:
        return m0, offsets, None
    alphas = {m: monomials(n, m - 1) for m in set(orders)}
    lead = (0,) if field is None else ()  # over Q, alpha_0 = 0 on homogeneous coordinates
    index = [(i, lead + alpha) for i, j in enumerate(rest) for alpha in alphas[orders[j]]]
    points = [images[j] for j in rest]
    if field is None:
        points = [[x // gcd(*q) for x in q] for q in points]
    else:
        points = [[x * field.inv(q[0]) % field.modulus for x in q[1:]] for q in points]
    return m0, offsets, _ConditionTables(points, _index_arrays(index), field)


_CHAIN_STEPS = 512  # quadratic transformations memoized, some 1 MB at r = 9


@lru_cache(maxsize=_CHAIN_STEPS)
def _quadratic_step(images: tuple, centres: tuple, field: PrimeField):
    """The quadratic transformation centred at the points of index
    ``centres`` applied to every point of ``images`` (homogeneous vectors
    mod p): (every point's image, the indices of the other points on a
    line through two centres), or None where the centres are collinear.

    One ``_simplex`` of [the centres, every point] gives E with
    E P_i = D_i e_i, D_i != 0, and every image E P.  It needs the pivots
    0, 1, 2: the centres are not collinear.  Row i of E vanishes at the two
    centres other than P_i, so it is the line L_i through them, and
    (E P)_i = 0 says that P lies on L_i.  sigma(x:y:z) = (yz : xz : xy)
    then takes each other image (x : y : z) to (yz : xz : xy), and each
    centre stays at D_i e_i, the point that replaces L_i.  E is the adjugate
    of [P1 P2 P3] only up to a diagonal map, which fixes e_1, e_2, e_3,
    keeps every zero coordinate and passes through sigma as another
    diagonal map, so no later check changes.  O(r) operations mod p."""
    pivots, moved = _simplex([images[j] for j in centres] + list(images), field)
    if pivots != [0, 1, 2]:
        return None
    p = field.modulus
    out, on_lines = [], set()
    for j, (x, y, z) in enumerate(moved[3:]):
        if j in centres:
            out.append((x, y, z))
            continue
        if not (x and y and z):
            on_lines.add(j)
        out.append((y * z % p, x * z % p, x * y % p))
    return tuple(out), frozenset(on_lines)


def _cremona_nonempty(config: PointConfig, orders, degree: int, field: PrimeField):
    """Whether the plane system of the given orders at the config's points
    has a nonzero form of degree ``degree`` over Q, decided by quadratic
    transformations of those points mod p: True, False, or None where they
    cannot tell.

    A step is centred at the three points of largest order (ties in config
    order), P1, P2, P3, taken as primitive homogeneous vectors
    (``PointConfig.homogeneous``) mod p, and moves every point by
    ``_quadratic_step``.  The step is refused (None) where the centres are
    collinear or another point of positive order lies on a line L_i through
    two of them.  Otherwise it takes L_i to the coordinate point e_i, of
    order d - m_j - m_k; with k = d - m_1 - m_2 - m_3 the class
    (d; orders) becomes (d + k; m_i + k, the other orders).  This is an
    isomorphism of the blown-up planes, so the system's dimension is the
    same.  Every check is a value nonzero mod p, hence nonzero in the
    integers it reduces (the same steps on the primitive vectors over Z),
    so the chain holds over Q.  An order below 0 is clamped to 0, which
    removes an exceptional curve, a fixed component, and a point of order 0
    is dropped: it no longer changes the system.

    The points' images depend on the points mod p and the centres taken so
    far, never on d or the orders: E is fixed by the centre columns alone.
    So each step moves every point, dropped or not, and records which
    points it puts on a centre line; only the call's orders decide whether
    one of those counts.  ``_quadratic_step`` memoizes the steps, keyed by
    the images before the step, the centres and p, so every degree and
    level asked of one config takes each of its transformations once (the
    72 Harbourne cells of one seed take 25 ``_simplex``).  The memo is
    bounded (least recently used, ``_CHAIN_STEPS``), as it would otherwise
    grow with every config a process asks.

    The chain ends in False at d < 0 or at an order above d.  It ends in
    True at fewer than three points, each of order <= d (a power of their
    line times a power of a line through the first), or at a standard form,
    d >= m_1 + m_2 + m_3, with more monomials than conditions (chi >= 1);
    at a standard form with chi <= 0 it cannot tell.

    A point whose primitive vector has w = 0 mod p (p divides a
    denominator) needs no refusal: it has no affine image mod p, but its
    primitive vector is nonzero mod p, a point of P^2(F_p) at infinity like
    any other.  Every check above reduces an integer that the same steps
    make from the primitive vectors over Z, and none singles out w.
    """
    p = field.modulus
    images = tuple((w % p, x % p, y % p) for w, x, y in config.homogeneous)
    alive = {j: m for j, m in enumerate(orders) if m > 0}
    d = degree
    while True:
        ms = sorted(alive.values(), reverse=True)
        if d < 0 or (ms and ms[0] > d):
            return False
        if len(ms) < 3:
            return True
        if sum(ms[:3]) <= d:
            return True if comb(d + 2, 2) > sum(comb(m + 1, 2) for m in ms) else None
        centres = tuple(sorted(alive, key=lambda j: -alive[j])[:3])
        step = _quadratic_step(images, centres, field)
        if step is None or not step[1].isdisjoint(alive):
            return None
        images, k = step[0], d - sum(ms[:3])
        for j in centres:
            alive[j] += k
        alive = {j: m for j, m in alive.items() if m > 0}
        d += k


def _shells(n: int, low: int, high: int) -> np.ndarray:
    """The multi-indices with low <= |beta| <= high, graded-lex, as rows."""
    return np.array([beta for t in range(low, high + 1) for beta in monomials_exact_degree(n, t)],
                    dtype=int).reshape(-1, n)


def _entry_degrees(betas: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """max(|beta|, max_i(beta_i + c_i)): the least degree at which monomial
    beta survives the frame points' conditions."""
    return np.maximum(betas.sum(axis=1), (betas + offsets).max(axis=1))


def rational_dimension(config: PointConfig, orders, degree: int) -> int:
    """Vanishing dimension over Q at ``degree``, by one exact rank of the
    reduced matrix in integers: the conditions of every point outside the
    frame, on the monomials entered by ``degree`` (see
    ``_frame_conditions``).  Equal to ``vanishing_dimension`` of the same
    problem over Q."""
    m0, offsets, tables = _frame_conditions(config, tuple(orders), None)
    betas = _shells(config.dimension, m0, degree)
    betas = betas[_entry_degrees(betas, offsets) <= degree]
    if tables is None or not len(betas):
        return len(betas)
    block = tables.block(np.column_stack([degree - betas.sum(axis=1), betas]))
    return len(betas) - rank(ExactMatrix(*block.shape, block, None))


_PANEL_COLUMNS = 32  # least width of a block handed to the RankAccumulator


class DimensionSearch:
    """Incremental dimension mod p of the interpolation system by degree, an
    upper bound on the dimension over Q (a rank can only drop mod p).

    The conditions of up to n + 1 points are solved outright.  The change
    of coordinates of ``_frame_conditions`` is an automorphism of P^n mod p
    where its frame is accepted, so the dimension at every degree is that of
    the system at the images.  There p_j0 sits at the origin and each b_i at
    the point at infinity of axis i, whose conditions say that the
    coefficients of the monomials not yet entered are 0: beta enters at
    degree max(|beta|, max_i(beta_i + c_i)), c_i the order of b_i.  With
    those columns gone, the frame points' rows are gone too:

        dim(d) = (monomials entered by d) - rank(the other points'
                 conditions at their images on those monomials),

    and dim(d) = 0 for d < m0.  ``n_conditions`` stays the full count, so
    that counting monomials against it compares the full problem.

    Columns are appended in order of entry degree, so the dimension at any
    degree already built is the column count entered by it minus the rank
    of that column prefix.  Each monomial's entry degree is computed once:
    a monomial generated with its shell but entering later waits for its
    degree.  Missing degrees are built in blocks of whole entry degrees, at
    least _PANEL_COLUMNS columns wide where enough degrees are asked for,
    and appended to a RankAccumulator, so building up to a degree costs one
    pass over its matrix in total.  With no other point the dimension is
    the column count, and nothing is built.
    """

    def __init__(self, config: PointConfig, orders, field: PrimeField):
        self.config = config
        self.orders = tuple(orders)
        self.field = field
        self.n_conditions = InterpolationProblem(config, 0, self.orders, field).n_conditions
        self._acc = RankAccumulator(field)
        m0, self._offsets, self._tables = _frame_conditions(config, self.orders, field)
        self._cols = 0  # columns built
        self._degree = m0 - 1  # every shell up to here is generated
        self._entered = [0] * m0  # columns entered by each degree up to self._degree
        self._waiting = (np.zeros((0, config.dimension), dtype=int), np.zeros(0, dtype=int))

    def dimension_at(self, degree: int) -> int:
        """Vanishing dimension at the given degree."""
        if degree > self._degree:
            self._build(degree)
        cols = self._entered[degree] if degree >= 0 else 0
        return cols - self._acc.prefix_rank(cols)

    def _build(self, degree: int) -> None:
        """Generate the shells up to ``degree`` and append the columns
        entering at self._degree + 1 .. degree, in order of entry degree."""
        shells = _shells(self.config.dimension, self._degree + 1, degree)
        betas = np.concatenate([self._waiting[0], shells])
        entry = np.concatenate([self._waiting[1], _entry_degrees(shells, self._offsets)])
        order = np.argsort(entry, kind="stable")
        betas, entry = betas[order], entry[order]
        ends = np.searchsorted(entry, np.arange(self._degree + 1, degree + 1), side="right")
        self._waiting = (betas[ends[-1]:], entry[ends[-1]:])
        self._entered += (self._entered[-1] + ends).tolist()
        self._degree = degree
        if self._tables is None:
            return
        start = 0
        for i, end in enumerate(ends.tolist()):
            if end > start and (end - start >= _PANEL_COLUMNS or i == len(ends) - 1):
                self._acc.add(self._tables.block(betas[start:end]))
                self._cols += end - start
                start = end


# ---------------------------------------------------------------------------
# Kernel polynomials


@dataclass(frozen=True)
class KernelPolynomial:
    """Exact polynomial witnessing the vanishing orders of a problem.

    ``coefficients`` maps multi-indices to nonzero scalars (graded-lex
    ordering in the stored tuple); ``achieved_orders[j]`` is the exact
    vanishing order at the j-th config point, read off the condition rows
    at that point (see ``vanishing_order``).
    """

    coefficients: tuple
    degree: int
    achieved_orders: tuple

    def as_dict(self) -> dict:
        return dict(self.coefficients)


def vanishing_order(vectors, points, basis, field: PrimeField | None = None,
                    reached=None) -> tuple:
    """Exact vanishing orders at every point of the polynomials whose
    coefficient vectors over the monomial basis are given: one tuple per
    point, with one order per vector.

    The order of P at p is the least t for which some (z - p)^alpha Taylor
    coefficient with |alpha| = t, the dot of c with the condition row of
    (p, alpha) (``condition_row`` of ``tests/oracles.py``), is nonzero; a
    nonzero polynomial of degree <= d has order <= d.
    ``reached`` gives, per point, an order that every vector is already
    known to reach (0 by default); kernel_polynomials passes the problem's
    orders, whose shells its verified kernel has proven zero.  One
    ``_ConditionTables`` indexes the shells t = reached_j .. d of every
    point j.  Shell t, from the least order reached up, gathers the
    |alpha| = t rows of every point indexed there that still has an open
    (vector, point) pair into one block, and one product multiplies it by
    the vectors open at any of those points.  A pair closes at its first
    shell with a nonzero dot, and the loop ends when every pair has closed.

    Over Q the products stay in integers: the vectors are scaled to integer
    rows and the tables are those of ``_condition_tables``, whose row
    (j, alpha) is c_j^(d - |alpha|) times the condition row.  So every
    product is a nonzero multiple of the Taylor coefficient, and the zero
    pattern, and with it every order, is unchanged.
    """
    if not all(any(v) for v in vectors):
        raise ValueError("zero polynomial has no vanishing order")
    n, r = len(points[0]), len(points)
    degree = max(sum(b) for b in basis)
    low = np.array(reached if reached is not None else (0,) * r)
    if len(low) != r or (low < 0).any():
        raise ValueError(f"reached needs {r} orders >= 0, one per point; got {len(low)}: {reached}")
    if low.max() > degree:
        raise ValueError(f"no nonzero polynomial of degree {degree} reaches order {low.max()}")
    shells = {t: np.array(monomials_exact_degree(n, t)) for t in range(low.min(), degree + 1)}
    members = {t: np.flatnonzero(low <= t) for t in shells}  # the points indexed at shell t
    index = (np.concatenate([np.repeat(members[t], len(shell)) for t, shell in shells.items()]),
             np.concatenate([np.tile(shell, (len(members[t]), 1))
                             for t, shell in shells.items()]))
    vecs = integer_rows(vectors) if field is None else field.vec(vectors)
    tables, columns = _condition_tables(points, index, basis, field)
    orders = np.full((r, len(vectors)), -1)  # -1 while the pair is open
    start = 0
    for t, shell in shells.items():
        if (orders >= 0).all():
            break
        size = len(shell)
        todo = orders[members[t]] < 0
        pts, vs = np.flatnonzero(todo.any(axis=1)), np.flatnonzero(todo.any(axis=0))
        if len(pts):
            rows = (start + pts[:, None] * size + np.arange(size)).ravel()
            dots = exact_products(tables.block(columns, rows), vecs[vs], field)
            hit = (dots != 0).reshape(-1, size, len(vs)).any(axis=1)
            at, of = np.nonzero(hit & todo[np.ix_(pts, vs)])
            orders[members[t][pts[at]], vs[of]] = t
        start += len(members[t]) * size
    return tuple(map(tuple, orders.tolist()))


def kernel_polynomials(problem: InterpolationProblem) -> list:
    """Kernel basis of the condition matrix as polynomials with exact
    achieved orders.  Raises when the system is empty at this degree.

    The kernel is that of ``_system_matrix``, over Q a row scaling of the
    rational condition matrix in integers, so ``kernel_basis`` returns the
    rational kernel itself and no Fraction matrix is built.  The orders are
    read from the shells of the required orders up, which the verified
    kernel has proven zero."""
    basis = monomials(problem.n, problem.degree)
    vectors = kernel_basis(_system_matrix(problem))
    if not vectors:
        raise ValueError(
            f"system empty at this degree (d={problem.degree}, orders={problem.orders})"
        )
    per_point = vanishing_order(vectors, problem.config.points, basis, problem.field,
                                problem.orders)
    out = []
    for v, achieved in zip(vectors, zip(*per_point)):
        for got, need in zip(achieved, problem.orders):
            if got < need:
                raise RuntimeError(
                    f"kernel polynomial misses required order: {got} < {need}"
                )
        stored = tuple((b, c) for b, c in zip(basis, v) if c)  # graded-lex, as basis
        out.append(KernelPolynomial(stored, sum(stored[-1][0]), achieved))
    return out
