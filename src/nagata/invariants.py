"""Algebraic invariants of point configurations.

omega_l(S, l) is the least degree of a nonzero polynomial vanishing to order
>= l at every point of S.  From a finite table of these values the module
derives the Waldschmidt interval, certified over Q

    max_l omega_l/(l + n - 1)  <=  Omega(S)  <=  min_l omega_l/l,

lower bounds for the very-singular-degree invariant omega(S), and the named
conjecture checks (Nagata strictness, the small-r ceiling table, Waldschmidt's
upper bound, superadditivity).  Omega(S) itself is a limit over all l and is
never reported as a point value, only as this interval.

Everything here is exact: integer comparisons and Fraction arithmetic, never
floating point.  Each omega_l is an interval [lo, hi] over Q, narrowed by
certificates until lo = hi: hi starts at U = ``_upper_bound`` (monomial
counts and products of lower bounds), lo at 0, so that even a cell whose
U is its largest order (one or two points) meets a certificate that could
contradict U.  They run cheapest first, each only while lo < hi, and one
that would put lo above hi raises RuntimeError:

1. In the plane, quadratic transformations of the points mod p
   (``fatpoints._cremona_nonempty``) that take the system at U - 1 to an
   empty class, and then the one at U to a nonempty one, set lo = U.  A
   step is taken only where its three centres are not collinear and no
   other point lies on a line through two of them: values nonzero mod p,
   hence over Q, so each step is an isomorphism of the blown-up planes
   over Q.  That closes all 72 Harbourne cells (seeds 2024, 7 and 11).
2. A search mod p, the prime of ``field`` or else the first from 2^31 - 1
   down (``exactla._lift_fields``) under which every point reduces, sets lo
   to the first degree with a kernel mod p (a rank can only drop mod p); it
   builds U too where the count leaves U open.
3. Products of the certified lower levels, omega(a) + omega(l - a), lower
   hi; one memo (``levels``) computes each lower level once.
4. Exact ranks over Q (``rational_dimension``) step lo up to the first
   degree with a kernel, or to hi.

Every rank is of the reduced matrix of fatpoints: a projective frame sends
a point of the largest order to the origin and up to n more points to the
points at infinity of the axes, their conditions drop and only delete
monomials, and the dimension is the same.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .configs import PointConfig, frac_str, generic_points
from .exactla import PrimeField, _lift_fields
from .fatpoints import (
    DimensionSearch,
    InterpolationProblem,
    _cremona_nonempty,
    kernel_polynomials,
    monomial_count,
    rational_dimension,
    uniform_orders,
)
from .seeds import derive_seed

DEFAULT_FIELD = PrimeField(2**31 - 1)  # search modulus: one uint64 product per update

# Least degree forced by r <= 9 general plane points at multiplicity m is
# ceil(c_r * m) with these slopes (r = 1..9).
HARBOURNE_CR = (
    Fraction(1),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(2),
    Fraction(12, 5),
    Fraction(21, 8),
    Fraction(48, 17),
    Fraction(3),
)


def resolve_scalar(scalar, prime: int | None = None) -> PrimeField | None:
    """Map a scalar-domain request to a PrimeField or None (= rationals)."""
    if isinstance(scalar, PrimeField):
        return scalar
    if scalar == "rational":
        if prime is not None:
            raise ValueError(f"prime {prime} given, but the rational domain runs "
                             "no prime-field search")
        return None
    if scalar == "field":
        return DEFAULT_FIELD if prime is None else PrimeField(prime)
    raise ValueError(f"unknown scalar domain {scalar!r} (use 'field' or 'rational')")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def omega_l(config: PointConfig, l: int, scalar="field", prime=None) -> int:
    """Least degree d with a nonzero degree <= d polynomial vanishing to
    order >= l (times any per-point multiplicities) at every config point.

    The same certified value over Q whatever ``scalar`` and ``prime`` (the
    first search modulus tried, 2^31 - 1 by default); they remain only
    because ``perfbench/layers.py`` binds them.  See ``_omega``.
    """
    fld = resolve_scalar(scalar, prime)
    return _omega(config, l, fld or DEFAULT_FIELD, {})


def _omega(config: PointConfig, l: int, field: PrimeField, levels: dict) -> int:
    """omega_l over Q: the interval of the module docstring, narrowed by its
    certificates in order, searching mod ``field`` first; ``levels``
    memoizes the lower levels one call computes."""
    orders = uniform_orders(config, l)
    lo, hi = 0, _upper_bound(config, l)
    for certificate in (_chain, _search, _products, _exact):
        if lo < hi:
            lo, hi = certificate(config, l, orders, field, levels, lo, hi)
        if lo > hi:
            raise RuntimeError(f"omega_l >= {lo}, above the count-and-product bound {hi}")
    return lo


def _chain(config, l, orders, field, levels, lo, hi):
    if config.dimension == 2 and _cremona_nonempty(config, orders, hi - 1, field) is False:
        lo = hi if _cremona_nonempty(config, orders, hi, field) else lo
    return lo, hi


def _search(config, l, orders, field, levels, lo, hi):
    field = next(f for f in chain([field], _lift_fields())
                 if all(h[0] % f.modulus for h in config.homogeneous))
    search = DimensionSearch(config, orders, field)
    # where the count leaves hi open, it has a kernel mod p too
    top = hi - (monomial_count(config.dimension, hi) > search.n_conditions)
    search.dimension_at(top)  # the whole matrix in one pass
    return next((d for d in range(max(orders), top + 1)
                 if search.dimension_at(d) >= 1), top + 1), hi


def _products(config, l, orders, field, levels, lo, hi):
    for a in range(1, l // 2 + 1):
        if lo < hi:
            for b in {a, l - a} - levels.keys():
                levels[b] = _omega(config, b, field, levels)
            hi = min(hi, levels[a] + levels[l - a])
    return lo, hi


def _exact(config, l, orders, field, levels, lo, hi):
    while lo < hi and rational_dimension(config, orders, lo) < 1:
        lo += 1
    return lo, lo


def _upper_bound(config: PointConfig, l: int) -> int:
    """U(l) >= omega_l over Q from monomial counts alone,
    U(l) = min(count(l), min over a + b = l of U(a) + U(b)), where count(a)
    is the least degree whose monomials outnumber the conditions at level a
    (a kernel over any field), and a product of nonzero level-a and level-b
    polynomials is nonzero and vanishes to the orders of level a + b.
    U depends only on the dimension and the multiplicities: see
    ``_bound``."""
    return _bound(config.dimension, uniform_orders(config, 1), l)


@lru_cache(maxsize=4096)
def _bound(n: int, weights: tuple, l: int) -> int:
    """U(l) of ``_upper_bound`` for points of these multiplicities in
    dimension n.  Memoized, so each level is computed once however many
    levels, cells or configs ask for it, and bounded, as it is keyed by
    every config's multiplicities; count(l) is found by bisection, the
    monomial count being increasing in the degree."""
    conditions = sum(monomial_count(n, l * w - 1) for w in weights)
    count = bisect_right(range(conditions + 1), conditions,
                         key=lambda d: monomial_count(n, d))
    return min([count] + [_bound(n, weights, a) + _bound(n, weights, l - a)
                          for a in range(1, l // 2 + 1)])


def omega_table(config: PointConfig, l_max: int) -> tuple:
    """((l, omega_l) for l = 1..l_max), each value that of ``omega_l``.
    One memo of certified levels runs through every ``_omega`` call, so no
    level is searched twice: a lower level one cell needs is that of the
    table, and a level computed for a cell is not computed again."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    levels = {}
    for l in range(1, l_max + 1):
        levels[l] = _omega(config, l, DEFAULT_FIELD, levels)
    return tuple((l, levels[l]) for l in range(1, l_max + 1))


def _require_uniform(config: PointConfig, what: str) -> None:
    if not config.is_uniform():
        raise ValueError(f"{what} is stated for uniform multiplicities only")


def _interval_from_table(table, n: int) -> tuple:
    lower = max(Fraction(om, l + n - 1) for l, om in table)
    upper = min(Fraction(om, l) for l, om in table)
    return lower, upper


def waldschmidt_interval(config: PointConfig, l_max: int) -> tuple:
    """Enclosure of the singular degree Omega(S) from levels 1..l_max:
    (max_l omega_l/(l+n-1), min_l omega_l/l), exact rationals, certified
    over Q."""
    _require_uniform(config, "the Waldschmidt sandwich")
    return _interval_from_table(omega_table(config, l_max), config.dimension)


def omega_s_witness_bound(config: PointConfig, l: int, d: int) -> Fraction:
    """Certified lower bound for omega(S) = sup_P (sum_j ord(P, p_j))/deg P.

    Takes the best of (a) the witnessed ratio over the exact rational kernel
    basis at (l, d) and (b) the analytic bound |S|*l/omega_l(S, l).  Kernel
    witnesses are always computed over the rationals: a mod-p reduction could
    only overstate an order, and the bound must stay certified.
    """
    return _witness_bound(config, l, d, [(l, omega_l(config, l))])


def _witness_bound(config: PointConfig, l: int, d: int, table) -> Fraction:
    """``omega_s_witness_bound`` at (l, d), analytic at every level of ``table``."""
    polys = kernel_polynomials(InterpolationProblem.uniform(config, l, d, None))
    witnessed = max(Fraction(sum(p.achieved_orders), p.degree) for p in polys)
    return max([witnessed] + [Fraction(config.r * k, om) for k, om in table])


def nagata_check(config: PointConfig, l_max: int) -> list:
    """Strict Nagata inequality per level: omega_l^n > l^n * r, by exact
    integer comparison.  In dimension 2 configs with multiplicities m_j are
    checked against the general form omega^2 * r > (l * sum m_j)^2."""
    if not config.is_uniform() and config.dimension != 2:
        raise ValueError("multiplicity-weighted Nagata check is stated for n = 2")
    return _nagata_from_table(config, omega_table(config, l_max))


def _nagata_from_table(config: PointConfig, table) -> list:
    n = config.dimension
    if config.is_uniform():
        return [(l, om**n > l**n * config.r) for l, om in table]
    total = sum(config.multiplicities)
    return [(l, om * om * config.r > (l * total) ** 2) for l, om in table]


@dataclass(frozen=True)
class HarbourneCell:
    r: int
    m: int
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class HarbourneCheck:
    cells: tuple
    seed: int

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cells)

    def failures(self) -> list:
        return [c for c in self.cells if not c.passed]

    def verdicts(self) -> list:
        # omega only drops on special configs, so a certified value above the
        # table's ceiling is a fault, and one below it a special config
        out = []
        for c in self.cells:
            detail = f"expected {c.expected}, got {c.actual}"
            if c.actual > c.expected:
                detail += "; contradicts Harbourne's table (a fault)"
            elif c.actual < c.expected:
                detail += " (config possibly special; re-seed)"
            out.append(Verdict(f"harbourne-r{c.r}-m{c.m}", c.passed, detail))
        return out


def harbourne_table_check(m_max: int, seed: int) -> HarbourneCheck:
    """Least-degree table check for r = 1..9 seeded generic plane configs:
    omega_l(S_r, m) must equal ceil(c_r * m), with an exact rational ceiling."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    cells = []
    for r in range(1, 10):
        cfg = generic_points(2, r, derive_seed(seed, f"harbourne-r{r}"))
        c_r = HARBOURNE_CR[r - 1]
        for m in range(1, m_max + 1):
            expected = math.ceil(c_r * m)
            actual = omega_l(cfg, m)
            cells.append(HarbourneCell(r, m, expected, actual))
    return HarbourneCheck(tuple(cells), seed)


def superadditivity_check(config: PointConfig, l_max: int) -> Verdict:
    """omega_{l1+l2} <= omega_{l1} + omega_{l2} for all l1 + l2 <= l_max,
    plus the ratio sandwich omega_1/n <= omega_l/l <= omega_1."""
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    return _superadditivity_from_table(config, omega_table(config, l_max))


def _superadditivity_from_table(config: PointConfig, table) -> Verdict:
    l_max = len(table)
    table = dict(table)
    n = config.dimension
    bad = []
    for l1 in range(1, l_max):
        for l2 in range(l1, l_max - l1 + 1):
            if table[l1 + l2] > table[l1] + table[l2]:
                bad.append(f"omega({l1 + l2})={table[l1 + l2]} > "
                           f"omega({l1})+omega({l2})={table[l1] + table[l2]}")
    for l in range(1, l_max + 1):
        lo = Fraction(table[1], n)
        ratio = Fraction(table[l], l)
        if not (lo <= ratio <= table[1]):
            bad.append(f"ratio omega({l})/{l}={ratio} outside [{lo}, {table[1]}]")
    detail = "; ".join(bad) if bad else f"all splits up to l_max={l_max} hold"
    return Verdict("superadditivity", not bad, detail)


def waldschmidt_upper_check(config: PointConfig, l_max: int) -> Verdict:
    """omega_l <= (l+n-1)|S|^{1/n} - (n-1) per level, compared through the
    integer power (omega_l + n - 1)^n <= (l + n - 1)^n * r."""
    _require_uniform(config, "Waldschmidt's upper bound")
    return _waldschmidt_upper_from_table(config, omega_table(config, l_max))


def _waldschmidt_upper_from_table(config: PointConfig, table) -> Verdict:
    n = config.dimension
    r = config.r
    bad = []
    for l, om in table:
        if (om + n - 1) ** n > (l + n - 1) ** n * r:
            bad.append(f"l={l}: ({om}+{n - 1})^{n} > ({l}+{n - 1})^{n}*{r}")
    detail = "; ".join(bad) if bad else f"holds for l = 1..{len(table)}"
    return Verdict("waldschmidt-upper", not bad, detail)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of computed invariants and check verdicts for one config."""

    config: PointConfig
    table: tuple
    omega_lower: Fraction
    omega_upper: Fraction
    w_lower: Fraction
    verdicts: tuple = dc_field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def invariant_report(config: PointConfig, l_max: int) -> InvariantReport:
    """Compute the omega table up to l_max with the derived interval, a lower
    bound for omega(S), and the standard verdicts."""
    _require_uniform(config, "the invariant report")
    table = omega_table(config, l_max)
    lower, upper = _interval_from_table(table, config.dimension)
    w_lower = _witness_bound(config, 1, table[0][1], table)
    verdicts = [Verdict("interval-order", lower <= upper,
                        f"[{frac_str(lower)}, {frac_str(upper)}]")]
    for (l, ok), (_, om) in zip(_nagata_from_table(config, table), table):
        verdicts.append(Verdict(
            f"nagata-l{l}", ok,
            f"omega={om}: {om}^{config.dimension} "
            f"{'>' if ok else '<='} {l}^{config.dimension}*{config.r}"))
    if l_max >= 2:
        verdicts.append(_superadditivity_from_table(config, table))
    verdicts.append(_waldschmidt_upper_from_table(config, table))
    return InvariantReport(config, table, lower, upper, w_lower, tuple(verdicts))
