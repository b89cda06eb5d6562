"""Exact dense linear algebra over prime fields or the rationals.

Rank and right-kernel computations for interpolation matrices.  Two scalar
domains are supported:

* ``PrimeField`` -- arithmetic mod a prime p < 2^31 (2^31 - 1 by default),
  used as a fast generic-rank oracle.  Residues are uint64, and a product
  of two of them is below 2^62.  One routine eliminates mod p,
  ``_gauss_jordan``: in column order, the first nonzero row is the pivot
  and its row is cleared from every other column of the block.  A block of
  at most 32 columns is eliminated column by column, one broadcast update
  (``vec_submul``) per pivot; a wider one is halved, and each half's pivots
  reach the other half through one exact product mod p (``matmul``), with
  the same pivots and reduced block.  It reveals the column rank profile,
  so it gives the field ``rank``, the field ``kernel_basis`` (run on the
  transpose, whose pivot columns are the reduced row echelon basis of the
  row space) and the in-block step of ``RankAccumulator.add``.
  ``RankAccumulator`` reduces a block by all the pivots of an earlier block
  (a panel) at once, with one ``matmul``.  ``matmul`` keeps its left factor
  whole and splits the right one into limbs of
  53 - p.bit_length() - k.bit_length() bits for inner length k, so that
  every dot stays below 2^53 and one float64 BLAS product computes all of
  them exactly; a long inner length is split into chunks that keep at
  most 4 limbs.
* rationals -- ``fractions.Fraction`` or Python int entries, eliminated mod
  p by the same routine: ``RankAccumulator`` is modular only, and there is
  no exact eliminator.  A kernel over Q is a p-adic lift (Dixon) of the
  solution mod p.  One ``_gauss_jordan`` mod p = 2^31 - 1 of the
  transposed denominator-cleared integer rows, stacked over an identity
  that records the column operations, gives the rank rho, rho independent
  rows R, the column rank profile P and the inverse of B = a[R, P] mod p,
  and B X = -a[R, F] (F the free columns) is lifted one p-adic digit at a
  time: ``matmul`` for B^-1 r mod p, and one exact float64 product of
  signed w-bit limbs for B x, on the same 2^53 argument.  X is reconstructed
  with one shared denominator (rational reconstruction) at digit counts
  growing by about a quarter and at the cap p^N > 2 prod_i |a_i|^2 over the
  rows of R (Hadamard), where it is exact.  An attempt first reconstructs
  three probe entries, kept as ints as the digits come: when all of X
  reconstructs, so does every subset, so an attempt whose probes fail has
  no candidate.  X is then summed from its digits once, by a product tree,
  and only from the low digits the answer needs: about half, those with
  p^n1 > 2^65 h for the bound h = isqrt(p^N // 2) of the attempt.  Where
  that candidate fails, X from all N digits is reconstructed, so the
  candidates are those of the full reconstruction.  Vectors are returned
  only once m @ v = 0 holds exactly and each is zero on every pivot column
  right of its free column; together these prove that rho is the rank over
  Q, that P is its column rank profile and that the vectors are the reduced
  row echelon basis.  A prime that fails the checks at the cap, or fails the
  second, divides a nonzero minor of the input: the lift moves to the next
  prime below, so every result is a function of the matrix alone.  The rank
  over Q is rho where rho = min(rows, cols), and otherwise comes from the
  kernel of the side with fewer columns.  Fractions appear only in the
  output.

Exact checks take one matrix product (``exact_products``): ``matmul`` over
a field, and over Q a Python-int product of rows scaled by the lcm of their
denominators (``integer_rows``), so no Fraction gcd is taken per product.
``kernel_basis`` verifies m @ v = 0 for all its vectors this way, and
fatpoints reads vanishing orders off condition rows with it.

The pivot rule is fixed (first nonzero row in column order), and so is the
sequence of lift primes, so every result is a deterministic function of the
input matrix alone.  All public values are immutable and safe to share
between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np

_U = np.uint64

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24,
# far beyond the 2^31 modulus cap.
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
    """Prime field Z/pZ with p < 2^31 (2^31 - 1 by default), verified prime
    at construction.

    Scalars are plain ints in [0, p).  Arrays of elements are uint64
    (``dtype``): a product of two residues is below 2^62, so ``vec_mul``
    and ``vec_submul`` take one uint64 multiply per element, elementwise and
    broadcasting; ``matmul`` is an exact matrix product mod p.
    """

    __slots__ = ("modulus",)
    dtype = np.uint64

    def __init__(self, modulus: int = (1 << 31) - 1):
        if not isinstance(modulus, int):
            raise TypeError("modulus must be an int")
        if modulus >= 1 << 31:
            raise ValueError(f"modulus {modulus} is not below 2^31")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    # -- scalar arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.modulus)

    def from_rational(self, x) -> int:
        """Reduce a rational mod p: numerator times inverse denominator.

        Raises ReductionError when p divides the denominator; the caller
        should re-draw the prime.
        """
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if x.denominator % self.modulus == 0:
            raise ReductionError(
                f"denominator {x.denominator} divisible by modulus "
                f"{self.modulus}; re-draw the prime"
            )
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    # -- vector arithmetic (hot path of elimination) ----------------------

    def vec(self, xs) -> np.ndarray:
        """Pack a sequence (or nested sequence) of integers into a uint64
        array reduced mod p.  Always a new array: a uint64 one is reduced
        with one ``%``, anything else through Python ints."""
        if isinstance(xs, np.ndarray) and xs.dtype == _U:
            return xs % _U(self.modulus)
        return (np.array(xs, dtype=object) % self.modulus).astype(_U)

    def vec_mul(self, v: np.ndarray, c) -> np.ndarray:
        """Elementwise v*c mod p; c is a field element or an array of them
        broadcasting against v."""
        return v * np.asarray(c, dtype=_U) % _U(self.modulus)

    def vec_submul(self, v: np.ndarray, c, e: np.ndarray) -> np.ndarray:
        """Elementwise (v - c*e) mod p, broadcasting v, c and e together."""
        return self._sub(v, self.vec_mul(e, c))

    def _sub(self, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Elementwise (v - t) mod p."""
        d = v - t  # wraps past 2^64 exactly when v < t; then d + p < p
        return np.minimum(d, d + _U(self.modulus))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, exactly, for 2-D uint64 arrays.

        Both factors are reduced mod p first, so any uint64 entry counts by
        its residue.  Let k < 2^L be the inner length (L is
        ``k.bit_length()``) and P the bit length of p.  Float64 holds every
        integer up to 2^53 exactly, so a BLAS product whose dots are all at
        most 2^53 is exact in any summation order (each partial sum is
        below its dot).

        a stays whole, below 2^P, and only b is split into t limbs of
        w = 53 - P - L bits, b = sum_j b_j 2^(w j).  A dot of a with a limb
        array is at most k (p - 1)(2^w - 1) < 2^(L + P + w) = 2^53, so one
        BLAS product of a with all t limbs is exact: t = 2 for k < 64 and 3
        for k < 2^11 mod 2^31 - 1.  Limb j's product is reduced mod p and
        scaled by 2^(w j) mod p, below 2^62; the unscaled j = 0 term is
        below 2^53, so t <= 4 terms sum below 2^64 in uint64, and one ``%``
        finishes.  t <= 4 holds while w >= P / 4; a longer inner length is
        split into chunks of the longest k that keeps it, whose products
        (each below p) are summed and reduced once.
        """
        p = _U(self.modulus)
        bits = self.modulus.bit_length()
        chunk = (1 << (53 - bits - -(-bits // 4))) - 1  # longest k with t <= 4
        (m, k), n = a.shape, b.shape[1]
        if k > chunk:
            return sum(self.matmul(a[:, i:i + chunk], b[i:i + chunk])
                       for i in range(0, k, chunk)) % p
        a, b = a % p, b % p
        w = 53 - bits - k.bit_length()
        t = -(-bits // w)
        limbs = (b[:, None] >> (_U(w) * np.arange(t, dtype=_U))[:, None]) & _U((1 << w) - 1)
        prod = (a.astype(np.float64) @ limbs.reshape(k, t * n).astype(np.float64))
        prod = prod.astype(_U).reshape(m, t, n)
        out = prod[:, 0]
        for j in range(1, t):
            out = out + prod[:, j] % p * _U(pow(2, w * j, self.modulus))
        return out % p


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Dense matrix over a prime field (``field`` set) or the rationals.

    ``entries`` is a read-only rows x cols array: Fractions (in lowest terms
    with positive denominator) or Python ints in an object array over Q, or
    the entries reduced mod p into a new uint64 array.
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
    Fractions; the scaling is integer arithmetic only, and rows of ints are
    taken as they are."""
    a = np.array(rows, dtype=object)
    if set(map(type, a.flat)) <= {int}:
        return a
    out = []
    for r in a.tolist():
        m = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (m // x.denominator) for x in r])
    return np.array(out, dtype=object)


def exact_products(a: np.ndarray, b: np.ndarray, field: PrimeField | None) -> np.ndarray:
    """a @ b.T exactly: ``field.matmul`` on arrays of field elements, or a
    Python-int product of rows from ``integer_rows`` over Q (zero exactly
    where the rational dot of the unscaled rows is).  No Fraction, and so
    no gcd, enters the products."""
    return a.dot(b.T) if field is None else field.matmul(a, b.T)


_BASE_COLUMNS = 32  # widest block _gauss_jordan eliminates column by column


def _gauss_jordan(field: PrimeField, b: np.ndarray,
                  limit: int | None = None) -> tuple[np.ndarray, list, list]:
    """Column Gauss-Jordan elimination of the block b mod p, overwriting b.

    Columns are taken left to right; the first nonzero row of a column is
    its pivot, the column is scaled to 1 there, and the pivot row is
    cleared from every other column.  Returns (reduced block, pivot
    columns, pivot rows).  The pivot columns are the column rank profile of
    b, and in the reduced block they are the basis of its column space that
    is the identity on the pivot rows; every other column is zero.

    With ``limit``, pivots are sought in the first ``limit`` rows only, and
    the rows below are carried along by the same column operations: the
    profile and reduced form are those of b[:limit], and the rows below
    record what the operations made of them (``_lift_at`` reads B^-1 there).

    A block of at most _BASE_COLUMNS columns is eliminated column by column,
    one broadcast update (``vec_submul``) per pivot.  A wider one is split
    in half: the left half is eliminated, the right half is reduced by its
    pivots with one product (right -= left[:, C] @ right[R] for its pivot
    columns C and rows R, leaving it zero on R), the right half is
    eliminated, and its pivots are cleared from the left half with one more
    product.  The pivots come out as the column loop's.  When the loop
    reaches column j, the column holds the one vector in b[:, j] + (the
    span of the earlier pivot columns) that is zero on the earlier pivot
    rows (those columns are invertible on those rows), and its pivot is
    that vector's first nonzero row; the reduced right half holds the same
    vectors.  The reduced block is the loop's too, as the pivots fix it:
    its pivot columns are b[:, C] B^-1 for B = b[R, C], and each other
    column f is b[:, f] - b[:, C] Y for the one Y with b[:limit, f]
    = b[:limit, C] Y.
    """
    if b.shape[1] > _BASE_COLUMNS:
        h = b.shape[1] // 2
        left, cols, rows = _gauss_jordan(field, b[:, :h], limit)
        right = b[:, h:]
        if cols:
            right = field._sub(right, field.matmul(left[:, cols], right[rows]))
        right, right_cols, right_rows = _gauss_jordan(field, right, limit)
        if right_cols:
            left = field._sub(left, field.matmul(right[:, right_cols], left[right_rows]))
        return np.hstack([left, right]), cols + [h + j for j in right_cols], rows + right_rows
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


def rank(m: ExactMatrix) -> int:
    """Rank of m over its scalar domain.

    Over Q the rank mod 2^31 - 1 of the integer rows is the rank when it
    equals min(rows, cols), since a rank can only drop mod p.  Otherwise the
    kernel of the side with fewer columns (m, or its transpose) is lifted
    and verified as in ``kernel_basis``, the next prime down taking over
    from an unlucky one, and the rank is that side's column count minus the
    kernel's dimension.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field is not None:
        _, piv, _ = _gauss_jordan(m.field, m.field.vec(m.entries))
        return len(piv)
    a = integer_rows(m.entries)
    if m.cols > m.rows:
        a = a.T
    return a.shape[1] - _rational_kernel(a).shape[1]


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

    Over Q the vectors come from ``_rational_kernel`` on the integer rows:
    the same elimination mod 2^31 - 1, then a p-adic lift of the solution
    on the pivot columns (one exact float64 product of limbs below 2^53 per
    digit) and its rational reconstruction.  They are returned only once
    m @ v = 0 holds and each is zero on the pivot columns right of its free
    column, which proves them this basis; where a prime fails that, the
    primes below 2^31 - 1 are tried in turn.  Fractions are made once, from
    the verified integer vectors.
    """
    if m.cols == 0:
        return []
    f = m.field
    if f is None:
        vectors = _rational_kernel(integer_rows(m.entries).reshape(m.rows, m.cols)).T.tolist()
        leads = [next(filter(None, v)) for v in vectors]
        return [tuple(Fraction(y, d) for y in v) for v, d in zip(vectors, leads)]
    red, piv_rows, piv_cols = _gauss_jordan(f, f.vec(m.entries.T))
    free = sorted(set(range(m.cols)) - set(piv_cols))
    x = np.zeros((m.cols, len(free)), dtype=f.dtype)
    x[free, range(len(free))] = 1
    x[piv_cols] = (f.modulus - red[np.ix_(free, piv_rows)].T) % f.modulus
    _verify_in_kernel(m.entries, x.T, f)
    p = f.modulus
    vectors = x.T.tolist()
    invs = [pow(next(filter(None, v)), -1, p) for v in vectors]
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
# Kernels over Q by p-adic lifting

_LIFT_FIELD = PrimeField((1 << 31) - 1)  # the lift's first prime; the next ones descend


def _lift_fields():
    """PrimeField(p) for the primes p <= 2^31 - 1, in descending order."""
    yield _LIFT_FIELD
    p = _LIFT_FIELD.modulus - 2
    while True:
        if is_prime(p):
            yield PrimeField(p)
        p -= 2


def _rational_kernel(a: np.ndarray) -> np.ndarray:
    """Right kernel over Q of the integer matrix a (a 2-D object array of
    Python ints), as an n x k object array of ints: column j is D times the
    reduced row echelon kernel vector of the j-th free column, for one D > 0.

    Each prime of ``_lift_fields`` in turn goes to ``_lift_at``, which
    returns verified vectors, or None when the prime is unlucky.  Every
    unlucky prime divides one nonzero minor of a, of absolute value at most
    H, the product of the norms of a's nonzero rows (Hadamard).  So the
    unlucky primes multiply to at most H, and a product past it raises.
    """
    norms = [sum(x * x for x in row) for row in a.tolist()]  # squared row norms
    bound = prod(s for s in norms if s)  # H^2
    failed = 1
    for field in _lift_fields():
        x = _lift_at(field, a, norms)
        if x is not None:
            return x
        failed *= field.modulus
        if failed * failed > bound:
            raise RuntimeError(f"no prime lifts the kernel of the {a.shape[0]} x {a.shape[1]} "
                               f"matrix: the primes tried multiply past its Hadamard bound")


def _lift_at(field: PrimeField, a: np.ndarray, norms: list):
    """The kernel of the integer matrix a from one prime p, as
    ``_rational_kernel`` returns it, or None when p is unlucky.

    One ``_gauss_jordan`` mod p of a.T stacked over the identity I_m, with
    pivots sought in a.T only, gives the rank rho, the column rank profile
    P of a mod p (its pivot rows), rho independent rows R of a (its pivot
    columns) and B^-1 for B = a[R, P].  The column operations make
    a.T E = red for the matrix E left in the identity's place.  A pivot
    column is a combination of pivot columns only, so E[:, R] is zero off
    R, and red is the identity on P x R: B^T E[R, R] = I, so B^-1 is
    E[R, R]^T.  B is invertible mod p, so over Q too, and B X = -a[R, F], F
    the free columns, has one rational solution, which ``_lift_solution``
    finds as X = Y / D.  The vector of free column f (D at f, 0 at the other
    free columns, Y[:, f] on P) is returned only after two checks:

    * a @ v = 0 (``_verify_in_kernel``): the n - rho independent vectors lie
      in the kernel, so rank_Q <= rho, and B gives rank_Q >= rho;
    * v is zero on every pivot column right of f: then each free column is
      a combination of the pivot columns left of it, so P is the column rank
      profile over Q, and v is the one kernel vector that is D at f and 0 at
      the other free columns, the reduced row echelon one times D.

    p is unlucky when the second check fails, or when no candidate passes
    the first up to the lift's cap.  Let M be a nonzero maximal minor on the
    profile columns over Q.  Where p does not divide M, those columns stay
    independent mod p, every prefix of the columns keeps its rank, P is the
    profile over Q, and the candidate at the cap is the basis.
    """
    m, n = a.shape
    stacked = np.vstack([field.vec(a.T), np.eye(m, dtype=field.dtype)])
    red, rows, cols = _gauss_jordan(field, stacked, n)
    inv = red[n:][np.ix_(rows, rows)].T
    free = sorted(set(range(n)) - set(cols))
    x = np.zeros((n, len(free)), dtype=object)
    if not free:
        return x
    right = np.array(cols, dtype=int)[:, None] > np.array(free)[None, :]
    cap = 2 * prod(norms[i] for i in rows)  # >= 2 |det B| |any Cramer numerator|
    a_rows = a[rows]
    for y, d in _lift_solution(field, a_rows[:, cols], inv, -a_rows[:, free], cap):
        x[cols] = y
        x[free, range(len(free))] = d
        try:
            _verify_in_kernel(a, x.T, None)
        except RuntimeError:
            continue
        return None if (y[right] != 0).any() else x
    return None


def _lift_solution(field: PrimeField, b: np.ndarray, inv: np.ndarray, rhs: np.ndarray,
                   cap: int):
    """Candidates (Y, D) for the solution X = Y / D over Q of B X = rhs, for
    integer B square and invertible mod p, Y integral and D > 0.

    Dixon's p-adic lift: with C = ``inv``, B^-1 mod p from the elimination
    that found B, and the residue r = rhs at first, each digit is
    x = C r mod p (``matmul``) and r becomes (r - B x) / p, exact since
    B x = r mod p; after N digits, X = sum_i x_i p^i mod p^N.  A
    reconstruction is attempted when the digit count reaches 1, 2, 3, ...
    growing by about a quarter each time, and at the cap: once p^N > cap >=
    2 H^2, with H bounding |det B| and every Cramer numerator, it gives X
    exactly.  Nothing is lifted past the cap.

    The digits are kept as they come, and X is not summed from them until
    an attempt needs it.  Three probe entries of X, (0, last), (k - 1, 0)
    and (k / 2, cols / 2), are kept as Python ints, one multiply-add per
    digit, and each attempt first runs ``_reconstruct`` on them alone.  If
    all of X reconstructs mod p^N, so does every subset of its entries:
    each entry's fraction is the only one in the bounds (2 h^2 < p^N), and
    the denominator of a subset divides that of X.  So an attempt whose
    probes do not reconstruct has no candidate, and the others go to
    ``_candidates``.  One probe would not do: a single residue mod p^N has
    a fraction in the bounds about 6 times in 10 (some 12 h^2 / pi^2 of
    the 2 h^2 residues), while the next entry must then fit the denominator
    found.  So three make a false pass rare, and a false pass costs only a
    candidate that the caller's checks refuse.  They are spread over X
    (corners and middle), so that a block of zeros in X, which reconstructs
    at any N, does not hold all of them.

    r stays in int64 limbs, r = sum_s r_s 2^(w s), with w = (53 - L) // 2
    for k < 2^L rows of B, as in ``PrimeField.matmul``.  B is split into
    signed w-bit limbs (``_limbs``) and each digit x < p < 2^31 into
    unsigned ones, so every dot of a B limb with an x limb is below
    k 2^(2w) <= 2^53 in absolute value and one float64 product gives all of
    B x exactly; the limb products of weight j + i are subtracted from
    r_(j+i).  Then r is divided by p from its top limb down, carrying each
    remainder (below p) into the next limb.  A quotient limb is below
    2^w + 2^25 in absolute value (p > 2^30), so every int64 stays below
    2^58, and r mod p is sum_s r_s (2^(w s) mod p), taken over 16 limbs at
    a time below 2^62.
    """
    if not len(b):
        yield rhs, 1
        return
    p = field.modulus
    k = len(b)
    w = (53 - k.bit_length()) // 2
    tx = -(-p.bit_length() // w)  # limbs of a digit
    b_limbs = _limbs(b, w)
    t = len(b_limbs)
    b_limbs = b_limbs.reshape(t * k, k).astype(np.float64)
    r = _limbs(rhs, w, t + tx - 1)
    powers = np.array([pow(2, w * s, p) for s in range(len(r))], dtype=np.int64)
    shifts = _U(w) * np.arange(tx, dtype=_U)
    mask = _U((1 << w) - 1)
    cols = rhs.shape[1]
    probes = list(dict.fromkeys([(0, cols - 1), (k - 1, 0), (k // 2, cols // 2)]))
    seen = [0] * len(probes)  # the probe entries of X mod modulus
    digits, modulus, attempt = [], 1, 1
    while modulus <= cap:
        flat = r.reshape(len(r), -1)  # a copy where r is not C-ordered
        residue = sum(powers[s:s + 16] @ flat[s:s + 16] % p for s in range(0, len(r), 16))
        x = field.matmul(inv, residue.reshape(k, -1).astype(_U))
        x_limbs = (x[:, None] >> shifts[None, :, None]) & mask  # k x tx x cols
        bx = (b_limbs @ x_limbs.reshape(k, -1).astype(np.float64)).astype(np.int64)
        bx = bx.reshape(t, k, tx, -1)
        for i in range(tx):
            r[i:i + t] -= bx[:, :, i]
        rem = 0
        for s in reversed(range(len(r))):
            r[s], rem = np.divmod((rem << w) + r[s], p)
        digits.append(x)
        seen = [v + int(x[e]) * modulus for v, e in zip(seen, probes)]
        modulus *= p
        if len(digits) == attempt or modulus > cap:
            attempt += len(digits) // 4 + 1
            gate = _reconstruct(np.array(seen, dtype=object), modulus)
            if gate is not None:
                yield from _candidates(digits, p, gate[1])


# The truncated reconstruction works mod p^n1 > _GUARD h, so Wang's step
# there takes denominator factors up to 2^64: one machine word of slack over
# the probes' denominator, for a few digits more than half of them
_GUARD = 1 << 65


def _candidates(digits: list, p: int, d: int):
    """The candidates (Y, D) of one reconstruction attempt on X mod p^N, N
    = len(digits), once its probe entries have reconstructed with the
    shared denominator d.

    The first comes from the low n1 digits only, the least n1 with p^n1 >
    2^65 h for h = isqrt(p^N // 2), where n1 < N: ``_reconstruct`` walks
    X mod p^n1 with the full bound h and starts from d, so an entry whose
    denominator divides d is read off directly (|Y| <= h < p^n1 / 2), and
    one that needs more extends d by Wang's step with denominators up to
    (p^n1 - 1) // (2h) >= 2^64, the most for which the fraction is still
    the only one congruent to it.  That is about half the digits and half
    the bits of every product of the full reconstruction.  Generically the
    probes already hold the whole denominator of X, and no entry extends
    it.  Such a candidate agrees with X on the low digits only, so the
    caller's checks decide it: one that passes them is X, whose numerators
    and denominator are within h, so the full reconstruction would have
    given the same fractions.  When the step refuses, or the caller asks
    for the next candidate (its checks failed), ``_reconstruct`` runs on
    all N digits, as at every attempt before, and its candidate comes
    next.  So every candidate of the full reconstruction is still tried,
    in the same order.

    The digits are uint64 arrays below p; X is summed from them by a
    product tree, digit pairs in uint64 (below p^2 < 2^62) and then Python
    ints, so no array is multiplied once per digit."""
    modulus = p ** len(digits)
    h = isqrt(modulus // 2)
    low, base = 1, p
    while base <= _GUARD * h:
        low, base = low + 1, base * p
    if low < len(digits):
        xs = _digit_sum(digits[:low], p)
        candidate = _reconstruct(xs, base, h, d)
        if candidate is not None:
            yield candidate
        xs = xs + _digit_sum(digits[low:], p) * base
    else:
        xs = _digit_sum(digits, p)
    candidate = _reconstruct(xs, modulus)
    if candidate is not None:
        yield candidate


def _digit_sum(digits: list, p: int) -> np.ndarray:
    """sum_i digits[i] p^i as an object array of Python ints, by a product
    tree: each level adds the odd blocks, times p to the block length, to
    the even ones, so the large products are few."""
    def pairs(level, base):  # block 2i + 1 times base, added to block 2i
        odd = level[len(level) // 2 * 2:]
        return [a + b * base for a, b in zip(level[::2], level[1::2])] + odd

    level, base = [v.astype(object) for v in pairs(digits, _U(p))], p * p
    while len(level) > 1:
        level, base = pairs(level, base), base * base
    return level[0]


def _limbs(a: np.ndarray, w: int, count: int = 1) -> np.ndarray:
    """Signed w-bit limbs of an integer array, as int64: at least count of
    them, with a = sum_i limbs[i] 2^(w i), limb i holding bits
    w i .. w (i + 1) - 1 of |a| with a's sign."""
    mag = np.abs(a)
    t = max(count, -(-max(int(v).bit_length() for v in mag.flat) // w))
    mask = (1 << w) - 1
    limbs = np.stack([((mag >> (w * i)) & mask).astype(np.int64) for i in range(t)])
    return limbs * np.where(a < 0, -1, 1)


def _reconstruct(xs: np.ndarray, modulus: int, h: int | None = None, d: int = 1):
    """(Y, D) with Y = D xs mod modulus, |Y| <= h and 0 < D <= h, or None;
    h = isqrt(modulus // 2) unless given.  D is shared: it starts at d, each
    entry in turn is reduced with the current D, and one that does not fit
    gives D a new factor e (``_fraction``); the entries before it are scaled
    by e at the end.  e is at most h // D, and at most (modulus - 1) // (2h),
    so 2 h e < modulus and the fraction found is the only one congruent to
    its entry in these bounds.  At the default h the second bound is never
    the smaller (2 h^2 < modulus), and each fraction Y / D in the bounds is
    the only one congruent to its entry."""
    if h is None:
        h = isqrt(modulus // 2)
    factor_bound = (modulus - 1) // (2 * h)
    ys = []
    for u in xs.flat:
        y = u * d % modulus
        if y > h:
            y -= modulus
        if y < -h:
            found = _fraction(y % modulus, modulus, h, min(factor_bound, h // d))
            if found is None:
                return None
            y, e = found
            d *= e
        ys.append((y, d))
    ys = [y * (d // di) for y, di in ys]
    if any(abs(y) > h for y in ys):
        return None
    return np.array(ys, dtype=object).reshape(xs.shape), d


def _fraction(u: int, modulus: int, num_bound: int, den_bound: int):
    """(n, e) with n / e = u mod modulus, |n| <= num_bound and
    1 < e <= den_bound, by Wang's rational reconstruction (the extended
    Euclidean algorithm), or None.  The caller keeps 2 num_bound den_bound
    < modulus, so by Wang's lemma a fraction in the bounds, if there is one,
    is +-(r, t) at the first remainder r <= num_bound, and |t| only grows along
    the way: the loop stops as soon as |t| passes den_bound, which with the
    small bound h // D of a shared denominator D is after a few steps.
    Where g = gcd(r, t) shares a factor with the modulus, (r / g, t / g) is
    not congruent to u (r - u t = s modulus with s prime to t), so the
    answer is None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        if abs(t1) > den_bound:
            return None
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    g = gcd(t1, r1) * (1 if t1 > 0 else -1)
    n, e = r1 // g, t1 // g
    return (n, e) if 1 < e <= den_bound and gcd(g, modulus) == 1 else None


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
