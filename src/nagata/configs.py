"""Finite point configurations with exact rational coordinates.

A configuration is an ordered list of distinct points in affine n-space,
optionally carrying per-point multiplicities.  Generators cover the cases the
invariant checks need: seeded pseudo-generic integer points (generic position
is realized by sampling, not certified), s^n grids, and the symmetric
two-point set {(1/2, 0), (-1/2, 0)} whose pole-collision Green function has a
closed form on the unit polydisc.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm


def _integer(key: str, x) -> int:
    """x as an int; a bool, a float or a string raises, naming the key."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"{key} must be an integer, got {x!r}")


def _list(key: str, x) -> list:
    """x itself if it is a JSON array; anything else raises, naming the key."""
    if not isinstance(x, list):
        raise TypeError(f"{key} must be a list, got {x!r}")
    return x


def _rational(key: str, x) -> Fraction:
    """x as an exact rational; anything Fraction refuses raises, naming the key."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):  # OverflowError: JSON's Infinity
        raise TypeError(f"{key} must hold rationals, got {x!r}") from None


def primitive_vectors(points) -> tuple:
    """Each rational point x (Fractions or ints) as the primitive integer
    vector (c, c x) of P^n, c the lcm of its denominators."""
    out = []
    for p in points:
        c = lcm(*(x.denominator for x in p))
        out.append((c,) + tuple(x.numerator * (c // x.denominator) for x in p))
    return tuple(out)


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class PointConfig:
    """Labeled finite set of distinct points with exact rational coordinates."""

    dimension: int
    points: tuple
    multiplicities: tuple | None = None
    label: str = ""
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", _integer("dimension", self.dimension))
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got {self.label!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.multiplicities is not None:
            object.__setattr__(self, "multiplicities", tuple(
                _integer("multiplicities", m) for m in self.multiplicities))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.points) < 1:
            raise ValueError("need at least one point")
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError(f"point {p} has wrong dimension")
            if not all(isinstance(x, Fraction) for x in p):
                raise TypeError("coordinates must be Fractions (use make_config)")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        if self.multiplicities is not None:
            if len(self.multiplicities) != len(self.points):
                raise ValueError("multiplicities length must equal point count")
            if any(m < 1 for m in self.multiplicities):
                raise ValueError("multiplicities must be positive")

    @property
    def r(self) -> int:
        return len(self.points)

    @cached_property
    def homogeneous(self) -> tuple:
        """The points as ``primitive_vectors``, made once per config: every
        frame, rank and quadratic transformation over the config reads them."""
        return primitive_vectors(self.points)

    def is_uniform(self) -> bool:
        return self.multiplicities is None or all(m == 1 for m in self.multiplicities)

    def scaled(self, factor) -> "PointConfig":
        """Config with every coordinate multiplied by an exact rational factor."""
        factor = Fraction(factor)
        if factor == 0:
            raise ValueError("scale factor must be nonzero (points must stay distinct)")
        pts = tuple(tuple(factor * x for x in p) for p in self.points)
        return PointConfig(self.dimension, pts, self.multiplicities,
                           f"{self.label}*{factor}" if self.label else f"scaled*{factor}",
                           self.seed)

    def drop_point(self, index: int) -> "PointConfig":
        if not 0 <= _integer("index", index) < self.r:
            raise IndexError(f"point index {index} outside 0..{self.r - 1} "
                             f"(r = {self.r})")
        if self.r < 2:
            raise ValueError("cannot drop a point from a singleton config")
        pts = self.points[:index] + self.points[index + 1 :]
        mults = None
        if self.multiplicities is not None:
            mults = self.multiplicities[:index] + self.multiplicities[index + 1 :]
        return PointConfig(self.dimension, pts, mults, f"{self.label}-drop{index}", self.seed)

    def max_norm_squared(self) -> Fraction:
        """Largest squared Euclidean norm among the points (exact)."""
        return max(sum(x * x for x in p) for p in self.points)

    def max_sup_norm(self) -> Fraction:
        """Largest sup-norm coordinate magnitude among the points (exact)."""
        return max(max(abs(x) for x in p) for p in self.points)

    # -- JSON (exact rationals as "num/den" strings) -----------------------

    def to_json_dict(self) -> dict:
        d = {
            "dimension": self.dimension,
            "points": [[frac_str(x) for x in p] for p in self.points],
            "label": self.label,
        }
        if self.multiplicities is not None:
            d["multiplicities"] = list(self.multiplicities)
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PointConfig":
        """The config of a JSON object; a missing key, or a value of the
        wrong kind, raises naming it."""
        if not isinstance(d, dict):
            raise TypeError(f"config must be a JSON object, got {type(d).__name__}")
        for key in ("dimension", "points"):
            if key not in d:
                raise ValueError(f"config is missing the key {key!r}")
        pts = tuple(tuple(_rational(f"points[{i}]", x) for x in _list(f"points[{i}]", p))
                    for i, p in enumerate(_list("points", d["points"])))
        mults = d.get("multiplicities")
        mults = None if mults is None else tuple(_list("multiplicities", mults))
        return cls(d["dimension"], pts, mults, d.get("label", ""), d.get("seed"))

    @classmethod
    def from_json(cls, s: str) -> "PointConfig":
        return cls.from_json_dict(json.loads(s))


def make_config(points, multiplicities=None, label="", seed=None) -> PointConfig:
    """Build a PointConfig, coercing coordinates to exact Fractions."""
    pts = tuple(tuple(Fraction(x) for x in p) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    mults = tuple(multiplicities) if multiplicities is not None else None
    return PointConfig(len(pts[0]), pts, mults, label, seed)


def generic_points(n: int, r: int, seed: int, bound: int = 1000) -> PointConfig:
    """r distinct pseudo-generic points with integer coordinates in [-bound, bound].

    Deterministic for a fixed seed; collisions are re-drawn.  Integer
    coordinates keep interpolation-matrix entries small for exact
    elimination, and avoid the proper Zariski-closed special loci with
    overwhelming probability (sampled, not certified).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if bound < 2 * r:
        raise ValueError(f"bound {bound} too small for {r} distinct points (need >= 2r)")
    rng = random.Random(seed)
    seen = set()
    pts = []
    attempts = 0
    while len(pts) < r:
        p = tuple(rng.randint(-bound, bound) for _ in range(n))
        attempts += 1
        if attempts > 1000 * r:
            raise ValueError("could not draw distinct points; increase bound")
        if p in seen:
            continue
        seen.add(p)
        pts.append(tuple(Fraction(x) for x in p))
    return PointConfig(n, tuple(pts), None, f"generic-n{n}-r{r}", seed)


def grid_points(n: int, s: int) -> PointConfig:
    """The s^n integer grid {0, ..., s-1}^n."""
    if s < 1:
        raise ValueError("s must be >= 1")
    pts = tuple(
        tuple(Fraction(x) for x in p) for p in itertools.product(range(s), repeat=n)
    )
    return PointConfig(n, pts, None, f"grid-{s}^{n}")


def two_point_example() -> PointConfig:
    """The symmetric pair {(1/2, 0), (-1/2, 0)} in dimension 2.

    The collision limit of its unit-polydisc Green functions is known in
    closed form (see green.polydisc_two_pole_exact), which makes this the
    reference configuration for the numerical experiments.
    """
    half = Fraction(1, 2)
    zero = Fraction(0)
    return PointConfig(2, ((half, zero), (-half, zero)), None, "two-point")
