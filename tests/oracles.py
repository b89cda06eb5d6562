"""Reference computations the tests check the library against: condition
rows entry by entry in Fractions, polynomial products and evaluation on
coefficient dicts, and proportionality up to a scalar."""

from fractions import Fraction
from math import comb, prod


def condition_row(point, alpha, basis) -> list:
    """Row expressing vanishing of the (z - p)^alpha Taylor coefficient.

    Entries are exact rationals, one per basis monomial.
    """
    point = tuple(Fraction(x) for x in point)
    row = []
    for beta in basis:
        if any(b < a for b, a in zip(beta, alpha)):
            row.append(Fraction(0))
            continue
        val = Fraction(1)
        for b, a, p in zip(beta, alpha, point):
            val *= comb(b, a)
            if b > a:
                val *= p ** (b - a)
        row.append(val)
    return row


def poly_mul(a: dict, b: dict, field=None) -> dict:
    out: dict = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            key = tuple(x + y for x, y in zip(ba, bb))
            if field is None:
                out[key] = out.get(key, Fraction(0)) + ca * cb
            else:
                out[key] = (out.get(key, 0) + ca * cb) % field.modulus
    return {k: v for k, v in out.items() if v}


def proportional(a: dict, b: dict, field=None) -> bool:
    """True when a and b agree up to a nonzero scalar."""
    if set(a) != set(b):
        return False
    key = min(a, key=lambda k: (sum(k), tuple(-x for x in k)))
    if field is None:
        ratio = b[key] / a[key]
        return all(b[k] == ratio * a[k] for k in a)
    ratio = b[key] * field.inv(a[key]) % field.modulus
    return all(b[k] == ratio * a[k] % field.modulus for k in a)


def evaluate(poly: dict, p, fld):
    """The polynomial with these coefficients at the rational point p,
    exactly, reduced mod the field where one is given."""
    val = sum(c * prod(Fraction(x) ** e for x, e in zip(p, b)) for b, c in poly.items())
    return val if fld is None else fld.from_rational(val)
