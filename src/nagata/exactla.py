"""Exact dense linear algebra over prime fields or the rationals.

Rank and right-kernel computations for interpolation matrices.  Two scalar
domains are supported:

* ``PrimeField`` -- arithmetic mod a prime p < 2^62, used as a fast
  generic-rank oracle.  A modulus below 2^31 (invariants searches mod
  2^31 - 1 by default) multiplies in one uint64 product.  The Mersenne
  prime 2^61 - 1 (the constructor's default, and the modulus invariants
  confirms a degree with) needs 122-bit products, which the numpy hot path
  emulates with a split 31/30-bit multiply in uint64; any other modulus
  uses object arrays of Python ints.  One routine eliminates mod p,
  ``_gauss_jordan``: column by column, the first nonzero row is the pivot
  and one broadcast update (``vec_submul``) clears its row from every other
  column of the block.  It reveals the column rank profile, so it gives the
  field ``rank``, the field ``kernel_basis`` (run on the transpose, whose
  pivot columns are the reduced row echelon basis of the row space) and
  the in-block step of ``RankAccumulator.add``.  ``RankAccumulator``
  reduces a block by all the pivots of an earlier block (a panel) at once,
  with one exact product mod p (``matmul``): both factors are split into
  limbs of w = (53 - k.bit_length()) // 2 bits for inner length k, so every
  dot of limbs stays below 2^53 and one float64 BLAS product computes all
  of them exactly.
* rationals -- ``fractions.Fraction`` entries.  Elimination is fraction-free
  (Bareiss) on denominator-cleared integer rows, so intermediate entries are
  minors of the input and stay bounded.  It is the only exact eliminator:
  ``RankAccumulator`` is modular only.  Kernels stay in integers too: the
  last Bareiss pivot D is the determinant of the pivot minor, so by Cramer's
  rule D times a kernel vector with one free entry 1 is integral, and
  back-substitution divides exactly.  Fractions appear only in the output.

Exact checks take one matrix product (``exact_products``): ``matmul`` over
a field, and over Q a Python-int product of rows scaled by the lcm of their
denominators (``integer_rows``), so no Fraction gcd is taken per product.
``kernel_basis`` verifies m @ v = 0 for all its vectors this way, and
fatpoints reads vanishing orders off condition rows with it.

Pivot rules are fixed (first nonzero row in column order for the field,
largest-magnitude entry for integers, ties to the lowest row index), so every
result is a deterministic function of the input matrix alone.  All public
values are immutable and safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

M61 = (1 << 61) - 1  # default modulus: Mersenne prime 2^61 - 1

_U = np.uint64
_M61 = _U(M61)
_MASK31 = _U((1 << 31) - 1)
_MASK30 = _U((1 << 30) - 1)

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24,
# far beyond the 2^62 modulus cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ReductionError(ArithmeticError):
    """A rational could not be reduced mod p (denominator divisible by p).

    The caller should re-draw the prime and retry.
    """


class PrimeField:
    """Prime field Z/pZ with p < 2^62, verified prime at construction.

    Scalars are plain ints in [0, p).  Arrays of elements have the field's
    ``dtype``: uint64 when the modulus allows overflow-free uint64
    arithmetic (the Mersenne default, or any p < 2^31), object arrays of
    Python ints otherwise, which are slower but exact.  ``vec_mul`` and
    ``vec_submul`` work elementwise and broadcast; ``matmul`` is an exact
    matrix product mod p.
    """

    __slots__ = ("modulus", "_kind", "dtype")

    def __init__(self, modulus: int = M61):
        if not isinstance(modulus, int):
            raise TypeError("modulus must be an int")
        if modulus >= 1 << 62:
            raise ValueError("modulus must be < 2^62")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        if modulus == M61:
            self._kind = "m61"
        elif modulus < 1 << 31:
            self._kind = "small"
        else:
            self._kind = "object"
        self.dtype = object if self._kind == "object" else np.uint64

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    # -- scalar arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.modulus)

    def from_rational(self, x) -> int:
        """Reduce a rational mod p: numerator times inverse denominator.

        Raises ReductionError when p divides the denominator; the caller
        should re-draw the prime.
        """
        x = Fraction(x)
        if x.denominator % self.modulus == 0:
            raise ReductionError(
                f"denominator {x.denominator} divisible by modulus "
                f"{self.modulus}; re-draw the prime"
            )
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    # -- vector arithmetic (hot path of elimination) ----------------------

    def vec(self, xs) -> np.ndarray:
        """Pack a sequence (or nested sequence) of integers into an array of
        the field's dtype, reduced mod p.  Always a new array: one of that
        dtype is reduced with one ``%``, anything else through Python ints."""
        if isinstance(xs, np.ndarray) and xs.dtype == self.dtype:
            return xs % self.modulus
        return (np.array(xs, dtype=object) % self.modulus).astype(self.dtype, copy=False)

    def vec_mul(self, v: np.ndarray, c) -> np.ndarray:
        """Elementwise v*c mod p; c is a field element or an array of them
        broadcasting against v."""
        if self._kind == "m61":
            return _m61_mul(v, c)
        if self._kind == "small":
            return v * np.asarray(c, dtype=_U) % _U(self.modulus)
        return (v * c) % self.modulus

    def vec_submul(self, v: np.ndarray, c, e: np.ndarray) -> np.ndarray:
        """Elementwise (v - c*e) mod p, broadcasting v, c and e together."""
        return self._sub(v, self.vec_mul(e, c))

    def _sub(self, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Elementwise (v - t) mod p."""
        if self._kind == "object":
            return (v - t) % self.modulus
        d = v - t  # wraps past 2^64 exactly when v < t; then d + p < p
        return np.minimum(d, d + _U(self.modulus))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, exactly, for 2-D arrays of the field's dtype.

        Both factors are reduced mod p first, so any uint64 entry counts by
        its residue.  Each is then split into t limbs of w bits,
        a = sum_i a_i 2^(w i), with w = (53 - L) // 2 for the inner length
        k < 2^L (L is ``k.bit_length()``) and t w >= the bit length of p.
        A limb is below 2^w, so every dot of two limb arrays is an integer
        of at most k (2^w - 1)^2 < 2^L 2^(2w) <= 2^53, and so is each of
        its partial sums: float64 holds every one of them exactly, and one
        BLAS product of all the limbs is exact in any summation order.  The
        limb products of one weight s = i + j (at most t <= 62 of them,
        below 2^64) are added in uint64, reduced mod p, scaled by
        2^(w s) mod p and accumulated.  Object arrays take one Python-int
        product.
        """
        p = self.modulus
        if self._kind == "object":
            return a.astype(object).dot(b.astype(object)) % p
        a, b = a % _U(p), b % _U(p)
        (m, k), n = a.shape, b.shape[1]
        w = (53 - k.bit_length()) // 2
        t = -(-p.bit_length() // w)
        shifts = _U(w) * np.arange(t, dtype=_U)
        mask = _U((1 << w) - 1)
        a_limbs = (a[None] >> shifts[:, None, None]) & mask  # t x m x k
        b_limbs = (b[:, None] >> shifts[None, :, None]) & mask  # k x t x n
        prod = (a_limbs.reshape(t * m, k).astype(np.float64)
                @ b_limbs.reshape(k, t * n).astype(np.float64)).reshape(t, m, t, n)
        del a_limbs, b_limbs  # freed before the weight sums, where memory peaks
        out = np.zeros((m, n), dtype=_U)
        for s in range(2 * t - 1):
            part = sum(prod[i, :, s - i].astype(_U)
                       for i in range(max(0, s - t + 1), min(s, t - 1) + 1))
            part %= _U(p)
            out += self.vec_mul(part, pow(2, w * s, p)) if s else part  # < 2p < 2^63
            np.minimum(out, out - _U(p), out=out)
        return out


def _m61_mul(v: np.ndarray, c) -> np.ndarray:
    # 61x61-bit product mod 2^61-1 without 128-bit ints: split both factors
    # into 31/30-bit halves and fold with 2^61 = 1, 2^62 = 2 (mod M61).
    c = np.asarray(c, dtype=_U)
    c1 = c >> _U(31)
    c0 = c & _MASK31
    v1 = v >> _U(31)
    v0 = v & _MASK31
    mid = v1 * c0 + v0 * c1  # < 2^62
    total = (
        ((v1 * c1) << _U(1))
        + (mid >> _U(30))
        + ((mid & _MASK30) << _U(31))
        + v0 * c0
    )  # < 2^64, congruent to v*c
    r = (total >> _U(61)) + (total & _M61)  # <= M61 + 7
    return np.minimum(r, r - _M61)  # r - M61 wraps past 2^64 when r < M61


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Dense matrix over a prime field (``field`` set) or the rationals.

    ``entries`` is a read-only rows x cols array: Fractions (in lowest terms
    with positive denominator) in an object array over Q, or the entries
    reduced mod p into a new array of the field's dtype.
    """

    rows: int
    cols: int
    entries: np.ndarray
    field: PrimeField | None = None

    def __post_init__(self):
        f = self.field
        a = np.asarray(self.entries, dtype=object) if f is None else f.vec(self.entries)
        if a.size != self.rows * self.cols:
            raise ValueError("entries size must equal rows * cols")
        a = a.reshape(self.rows, self.cols)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_rows(cls, rows, field: PrimeField | None = None) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        to = Fraction if field is None else field.from_rational
        return cls(nr, nc, [to(x) for r in rows for x in r], field)


def integer_rows(rows) -> np.ndarray:
    """Rational rows as a 2-D object array of Python ints, each row scaled by
    the lcm of its denominators: rank, kernel and the zero pattern of every
    dot product taken with a row stay as they are.  Entries are ints or
    Fractions; the scaling is integer arithmetic only."""
    out = []
    for r in rows:
        m = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (m // x.denominator) for x in r])
    return np.array(out, dtype=object)


def exact_products(a: np.ndarray, b: np.ndarray, field: PrimeField | None) -> np.ndarray:
    """a @ b.T exactly: ``field.matmul`` on arrays of field elements, or a
    Python-int product of rows from ``integer_rows`` over Q (zero exactly
    where the rational dot of the unscaled rows is).  No Fraction, and so
    no gcd, enters the products."""
    return a.dot(b.T) if field is None else field.matmul(a, b.T)


def _bareiss_echelon(rows: list) -> tuple[list, list]:
    """Fraction-free row echelon form of integer rows.

    Pivot: largest-magnitude entry in the current column (ties to the lowest
    row index).  Returns (echelon rows, pivot column indices); all arithmetic
    is exact, divisions are guaranteed exact by the Sylvester identity.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    piv_cols = []
    pr = 0
    for pc in range(nc):
        if pr == nr:
            break
        best = -1
        best_abs = 0
        for i in range(pr, nr):
            a = abs(m[i][pc])
            if a > best_abs:
                best, best_abs = i, a
        if best < 0:
            continue
        if best != pr:
            m[pr], m[best] = m[best], m[pr]
        piv = m[pr][pc]
        prow = m[pr]
        for i in range(pr + 1, nr):
            row = m[i]
            a = row[pc]
            # every row below is transformed, a == 0 included: the exact
            # divisibility of later steps needs the pivot scaling
            if a:
                for j in range(pc, nc):
                    row[j] = (piv * row[j] - a * prow[j]) // prev
            else:
                for j in range(pc, nc):
                    row[j] = piv * row[j] // prev
        prev = piv
        piv_cols.append(pc)
        pr += 1
    return m[:pr], piv_cols


def _gauss_jordan(field: PrimeField, b: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Column Gauss-Jordan elimination of the block b mod p, overwriting b.

    Columns are taken left to right; the first nonzero row of a column is
    its pivot, the column is scaled to 1 there, and one broadcast update
    clears the pivot row from every other column.  Returns (reduced block,
    pivot columns, pivot rows).  The pivot columns are the column rank
    profile of b, and in the reduced block they are the basis of its column
    space that is the identity on the pivot rows; every other column is
    zero.
    """
    cols, rows = [], []
    for j in range(b.shape[1]):
        nz = np.flatnonzero(b[:, j])
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


def rank(m: ExactMatrix) -> int:
    """Rank of m over its scalar domain."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field is None:
        _, piv = _bareiss_echelon(integer_rows(m.entries))
    else:
        _, piv, _ = _gauss_jordan(m.field, m.field.vec(m.entries))
    return len(piv)


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of the right kernel of m, cols - rank(m) vectors: the reduced
    row echelon basis, one vector per free column, fixed by the column rank
    profile.  Each vector has its first nonzero entry normalized to 1 and is
    verified to satisfy m @ v = 0 exactly before being returned.

    Over a field, ``_gauss_jordan`` runs on m.T: its pivot rows are the
    pivot columns of m, and its pivot columns are the reduced row echelon
    basis of m's row space.  The vector of free column f is 1 at f, 0 at
    the other free columns and minus that basis's entry in column f at
    each pivot column.

    Over Q the kernel is solved from the Bareiss echelon of the integer rows
    in integers.  Let D be the last pivot, the determinant of the pivot minor
    M.  The vector with D in free column f and 0 in the other free columns
    has pivot entries -det(M with its f-th column swapped in) by Cramer's
    rule, so it is integral.  Back-substitution from the last pivot row up
    computes it exactly, one product per pivot row for all free columns; a
    quotient with a remainder raises.  Fractions are made once, from the
    verified integer vectors.
    """
    if m.cols == 0:
        return []
    f = m.field
    if f is None:
        rows = integer_rows(m.entries)
        ech, piv_cols = _bareiss_echelon(rows)
    else:
        rows = m.entries
        red, piv_rows, piv_cols = _gauss_jordan(f, f.vec(rows.T))
    free = sorted(set(range(m.cols)) - set(piv_cols))
    x = np.zeros((m.cols, len(free)), dtype=object if f is None else f.dtype)
    if f is None:
        x[free, range(len(free))] = ech[-1][piv_cols[-1]] if ech else 1
        for row, pc in zip(reversed(ech), reversed(piv_cols)):
            s = -np.array(row[pc + 1:], dtype=object).dot(x[pc + 1:])
            x[pc] = s // row[pc]
            if (s % row[pc]).any():
                raise RuntimeError(f"back-substitution at pivot column {pc} is not integral")
    else:
        x[free, range(len(free))] = 1
        x[piv_cols] = (f.modulus - red[np.ix_(free, piv_rows)].T) % f.modulus
    _verify_in_kernel(rows, x.T, f)
    vectors = x.T.tolist()
    leads = [next(filter(None, v)) for v in vectors]
    if f is None:
        return [tuple(Fraction(y, d) for y in v) for v, d in zip(vectors, leads)]
    p = f.modulus
    invs = [pow(d, -1, p) for d in leads]
    return [tuple(y * c % p for y in v) for v, c in zip(vectors, invs)]


def _verify_in_kernel(rows: np.ndarray, vectors: np.ndarray, field: PrimeField | None) -> None:
    """Raise unless rows @ v = 0 exactly for every vector v (a row of
    ``vectors``), with one exact product of all of them.  Over a field both
    are arrays of field elements; over Q both come from ``integer_rows``."""
    if not len(rows) or not len(vectors):
        return
    bad = exact_products(rows, vectors, field) != 0
    for k in range(len(vectors)):
        if bad[:, k].any():
            i = int(np.argmax(bad[:, k]))
            raise RuntimeError(f"kernel vector {k} fails m @ v = 0 at row {i}")


# ---------------------------------------------------------------------------
# Incremental rank


class RankAccumulator:
    """Online rank mod p of a growing list of vectors (appended columns).

    ``add`` takes one vector or a block of columns (conditions x columns),
    reduced mod p as given, and stores the block's new basis vectors as one
    panel (V, Q): their pivot rows Q and their entries V on the other rows
    that were free when the panel was made, i.e. pivot rows of no earlier
    panel.  A panel is the identity on Q and zero on every earlier pivot
    row, so those rows are not stored.  A new block B, kept on the free
    rows only, is reduced by each panel in insertion order with one exact
    product, ``B <- B[free rows not in Q] - V @ B[Q]``: B is zero on Q after
    it, so Q's rows are dropped.  The block's own columns are then
    eliminated by ``_gauss_jordan``.  Dropping rows keeps the order of the
    rest, so the basis is fixed by the insertion order and the result is
    deterministic.  The columns that raised the rank are recorded, so the
    rank of any prefix of the columns added is known (``prefix_rank``).
    Every block must have the row count of the first.
    """

    def __init__(self, field: PrimeField):
        if not isinstance(field, PrimeField):
            raise TypeError("RankAccumulator needs a PrimeField; use rank() for an exact rank")
        self.field = field
        self._panels: list = []  # (V, Q, rows kept), in insertion order
        self._raised: list = []  # indices of the added columns that raised the rank
        self._added = 0
        self._height = None  # rows of every block, fixed by the first

    @property
    def rank(self) -> int:
        return len(self._raised)

    def prefix_rank(self, k: int) -> int:
        """Rank of the first k columns added."""
        return bisect_left(self._raised, k)

    def add(self, entries) -> int:
        """Reduce a vector, or each column of a 2-D block in order; returns
        how many of them enlarged the span."""
        f = self.field
        b = f.vec(entries)
        if b.ndim == 1:
            b = b[:, None]
        if self._height is None:
            self._height = b.shape[0]
        elif b.shape[0] != self._height:
            raise ValueError(f"block has {b.shape[0]} rows, the first block had {self._height}")
        for v, q, kept in self._panels:
            bq = b[q]
            b = b[kept]
            if bq.any():
                b = f._sub(b, f.matmul(v, bq))
        b, cols, rows = _gauss_jordan(f, b)
        if cols:
            kept = np.ones(b.shape[0], dtype=bool)
            kept[rows] = False
            self._panels.append((b[kept][:, cols], np.array(rows), kept))
        self._raised.extend(self._added + j for j in cols)
        self._added += b.shape[1]
        return len(cols)
