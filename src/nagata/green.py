"""Numerical laboratory for multipole pluricomplex Green functions.

Closed forms for the unit ball (single pole, via the standard automorphism)
and for the symmetric two-point set on the unit polydisc; polynomial lower
approximants of the Green function built from exact interpolation kernels;
radial sup envelopes with a fitted log slope (the Lelong number of the
singularity); pole-collision convergence tables; and a sampled check of the
Schwarz-type norm inequality for polynomials with prescribed vanishing.

Two domain modes are threaded through all sampling: "ball" (Euclidean norm,
boundary = unit sphere) and "polydisc" (sup norm, boundary sampled on the
unit torus, which carries the sup of any psh function over the polydisc).
Sup norms are sampled, never certified: every approximant carries eps_sample,
the observed normalization gap when the boundary sample count is doubled, and
one-sided inequalities are reported with that slack.  All routines are
deterministic given (inputs, seed, sample counts).

Batch contract.  The closed forms (ball_green_single_pole,
polydisc_two_pole_exact, polydisc_two_pole_limit, two_point_oracle) take z
as one point of shape (n,), returning a float, or as a batch of shape
(m, n), returning an array of m values equal bit for bit to the per-point
calls; a pole row gets -inf, and one row outside the domain rejects the
whole batch.  A callable radial_profile target receives every sampled point
of every radius as one (m, n) array and returns m values; a collision
oracle(t, pts) is called once per t on the whole annulus grid.

Evaluation.  Every polynomial family (an approximant's kernel basis and its
random combinations, or a Schwarz check's kernel) is one complex coefficient
matrix over one shared monomial list, evaluated at m points as V @ coeffs
with V the (m, N) monomial matrix; sups and values are column reductions of
its modulus.

Scaling.  The exact kernel at the poles t*S is the one at S rescaled: P(z/t)
vanishes at t*p to the order P does at p, so the kernel polynomial of t*S,
normalized by its lead as ``kernel_polynomials`` normalizes it, has the
coefficient c_beta t^(|lead| - |beta|) where the one of S has c_beta.  An
approximant takes its kernel at S and rescales it (``_scaled_kernel``), and a
collision table computes that kernel once for all its t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configs import PointConfig
from .fatpoints import InterpolationProblem, KernelPolynomial, kernel_polynomials, uniform_orders
from .invariants import _interval_from_table, _require_uniform, omega_l, omega_table
from .seeds import derive_seed

NEG_INF = float("-inf")

_MODES = ("ball", "polydisc")
_EXTRA_COMBOS = 32  # random complex kernel combinations added to each approximant
_SHAPE_TOL = 1e-7  # slack of the radial envelope's monotonicity and convexity checks


def _as_points(z) -> tuple:
    """(points as an (m, n) array, whether z was one point of shape (n,))."""
    v = np.asarray(z, dtype=complex)
    if v.ndim not in (1, 2):
        raise ValueError("z is one point of shape (n,) or a batch of shape (m, n)")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    return np.atleast_2d(v), v.ndim == 1


def _as_vector(z) -> np.ndarray:
    pts, single = _as_points(z)
    if not single:
        raise ValueError("a point is a flat sequence of complex coordinates")
    return pts[0]


def _norm(v: np.ndarray, mode: str) -> float:
    if mode == "ball":
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def _log_abs(vals: np.ndarray) -> np.ndarray:
    # ln|v| with ln 0 = -inf: the value at a pole, not an error
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


def _two_point_coords(z) -> tuple:
    pts, single = _as_points(z)
    if pts.shape[1] != 2:
        raise ValueError("the two-pole formula lives in dimension 2")
    return pts[:, 0], pts[:, 1], single


def _shaped(out: np.ndarray, single: bool):
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Closed forms


def ball_green_single_pole(a, z):
    """Green function of the unit ball with one logarithmic pole at a.

    Equals ln|phi_a(z)| for the ball automorphism

        phi_a(z) = (a - P_a z - sqrt(1 - |a|^2) (z - P_a z)) / (1 - <z, a>)

    sending a to the origin (P_a is the projection onto a).  Evaluating the
    automorphism directly keeps full relative precision near the pole, where
    the equivalent identity 1 - |phi|^2 = (1-|a|^2)(1-|z|^2)/|1-<z,a>|^2
    would cancel.  Reduces to ln||z|| for a = O, vanishes on the boundary,
    and returns an explicit -inf sentinel at the pole.
    """
    a = _as_vector(a)
    pts, single = _as_points(z)
    na2 = float(np.sum(np.abs(a) ** 2))
    nz2 = np.sum(np.abs(pts) ** 2, axis=1)
    if na2 >= 1.0:
        raise ValueError("pole must lie strictly inside the unit ball")
    if np.any(nz2 > 1.0 + 1e-9):
        raise ValueError("z must lie in the closed unit ball")
    if na2 == 0.0:
        mod2 = nz2
    else:
        inner = np.sum(pts * np.conj(a), axis=1)
        proj = (inner / na2)[:, None] * a
        num = a - proj - math.sqrt(1.0 - na2) * (pts - proj)
        mod2 = np.sum(np.abs(num) ** 2, axis=1) / np.abs(1.0 - inner) ** 2
    out = 0.5 * _log_abs(mod2)
    out[np.all(pts == a, axis=1)] = NEG_INF
    return _shaped(out, single)


def polydisc_two_pole_exact(t: complex, z):
    """Green function of the unit polydisc with weight-1 poles at (+-t/2, 0):

        max{ ln |(z1 - t/2)(z1 + t/2) / ((1 - conj(t) z1 / 2)(1 + conj(t) z1 / 2))|,
             ln |z2| }.

    Valid for |t| < 2 (poles inside); -inf exactly at the poles.
    """
    z1, z2, single = _two_point_coords(z)
    if abs(t) >= 2.0:
        raise ValueError("|t| must be < 2")
    if np.any(np.maximum(np.abs(z1), np.abs(z2)) > 1.0 + 1e-9):
        raise ValueError("z must lie in the closed unit polydisc")
    tc = complex(t).conjugate()
    num = (z1 - t / 2.0) * (z1 + t / 2.0)
    den = (1.0 - tc * z1 / 2.0) * (1.0 + tc * z1 / 2.0)
    out = np.maximum(_log_abs(num) - _log_abs(den), _log_abs(z2))
    return _shaped(out, single)


def polydisc_two_pole_limit(z):
    """Collision limit of polydisc_two_pole_exact as t -> 0:
    max{2 ln|z1|, ln|z2|}."""
    z1, z2, single = _two_point_coords(z)
    return _shaped(np.maximum(2.0 * _log_abs(z1), _log_abs(z2)), single)


# ---------------------------------------------------------------------------
# Boundary sampling


def _unit_sphere(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    w = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return w / norms


def _unit_torus(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random((count, n)))


def _boundary(rng, count, n, mode):
    # torus for the polydisc: the sup of |P| (and of any psh function) over
    # the closed polydisc is attained on the distinguished boundary
    return _unit_sphere(rng, count, n) if mode == "ball" else _unit_torus(rng, count, n)


def _full_boundary(rng, count: int, n: int, mode: str) -> np.ndarray:
    """Quasi-uniform points of the full unit boundary (sup-norm 1 for the
    polydisc: one cycled coordinate on the circle, the rest inside the disc).
    Pointwise comparisons need these; sup estimates use _boundary."""
    if mode == "ball":
        return _unit_sphere(rng, count, n)
    w = rng.random((count, n)) * np.exp(2j * np.pi * rng.random((count, n)))
    w[np.arange(count), np.arange(count) % n] = np.exp(2j * np.pi * rng.random(count))
    return w


def annulus_grid(r_min: float, r_max: float, n_radii: int, n_dirs: int,
                 n: int, mode: str, seed: int = 0) -> tuple:
    """(radii, points) for an annulus grid: geometric radii from r_max down
    to r_min times quasi-uniform boundary directions.  points has shape
    (n_radii * n_dirs, n), radius-major."""
    if not 0.0 < r_min < r_max < 1.0:
        raise ValueError("need 0 < r_min < r_max < 1")
    radii = np.geomspace(r_max, r_min, n_radii)
    dirs = _full_boundary(np.random.default_rng(seed), n_dirs, n, mode)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return radii, pts


def _kernel_arrays(polys) -> tuple:
    """Exponents (N, n) of every monomial the polynomials use, in graded
    order, and their complex coefficient matrix (N, len(polys))."""
    exps = sorted({beta for p in polys for beta, _ in p.coefficients},
                  key=lambda b: (sum(b), tuple(-x for x in b)))
    row = {beta: i for i, beta in enumerate(exps)}
    coeffs = np.zeros((len(exps), len(polys)), dtype=complex)
    for k, p in enumerate(polys):
        for beta, c in p.coefficients:
            coeffs[row[beta], k] = complex(c)
    return np.array(exps, dtype=np.int64), coeffs


def _monomials(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(m, N) values z^exps[k] at every point of the (m, n) array pts.

    Per-coordinate power tables z_j^0, z_j^1, ... are grown by repeated
    multiplication; each monomial gathers its factors from them, one
    coordinate at a time so no (N, n, m) array is held.  V @ coeffs then
    evaluates a whole family of polynomials over these monomials.
    """
    m, n = pts.shape
    powers = np.empty((int(exps.max(initial=0)) + 1, n, m), dtype=complex)
    powers[0] = 1.0
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], pts.T, out=powers[k])
    v = powers[exps[:, 0], 0]
    for j in range(1, n):
        v *= powers[exps[:, j], j]
    return v.T


# ---------------------------------------------------------------------------
# Approximants


@dataclass(frozen=True)
class GreenApproximant:
    """Finite-family lower approximant of the Green function with poles t*S.

    Holds complex copies of the exact kernel polynomials of the scaled
    interpolation system (plus seeded random kernel combinations), one
    column of ``coeffs`` per family member over the shared monomial
    exponents ``exps``, together with their sampled boundary sup norms.
    Its value at z,

        max_P (ln|P(z)| - ln sup_est(P)) / l,

    under-estimates the true Green function up to the sup-sampling error,
    reported as eps_sample.
    """

    config: PointConfig
    t: Fraction
    l: int
    degree: int
    mode: str
    exps: np.ndarray            # (N, n) monomial exponents
    coeffs: np.ndarray          # (N, F) complex coefficients, one column per member
    sup_estimates: np.ndarray   # (F,) sampled sup of |P| over stored samples
    samples: np.ndarray         # boundary samples the sups were taken over
    eps_sample: float
    seed: int

    @property
    def pole_radius(self) -> float:
        if self.mode == "ball":
            return float(abs(self.t)) * math.sqrt(float(self.config.max_norm_squared()))
        return float(abs(self.t)) * float(self.config.max_sup_norm())

    def poles(self) -> np.ndarray:
        """Scaled pole locations t * p_j as complex doubles."""
        return np.array([[complex(float(self.t * x)) for x in p]
                         for p in self.config.points])

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Approximant values at an (m, n) array of points."""
        logs = _log_abs(_monomials(self.exps, pts) @ self.coeffs)
        best = np.max(logs - np.log(self.sup_estimates), axis=1) / self.l
        # explicit sentinel: float rounding of exact coefficients can leave a
        # ~1e-17 residue at a pole instead of an exact zero
        for pole in self.poles():
            best[np.all(pts == pole, axis=1)] = NEG_INF
        return best


def build_approximant(config: PointConfig, t, l: int, d: int,
                      boundary_samples: int = 4096, seed: int = 0,
                      mode: str = "ball") -> GreenApproximant:
    """Exact kernel of the t-scaled system, normalized by sampled sup norms.

    t must be an exact rational (int, Fraction, or a decimal string such as
    "1/10" or "0.25") so the scaled condition matrix stays exact.  The scaled
    poles must lie strictly inside the unit domain of the chosen mode.  The
    kernel is that of the unscaled system, rescaled (``_scaled_kernel``).
    """
    return _approximant(config, t, l, d, boundary_samples, seed, mode)


def _kernel(config: PointConfig, l: int, d: int) -> list:
    """The exact kernel polynomials of the (l, d) system at the config's
    points; raises when the kernel is empty."""
    return kernel_polynomials(InterpolationProblem(config, d, uniform_orders(config, l), None))


def _scaled_kernel(polys: list, t: Fraction) -> list:
    """The kernel polynomials of ``config.scaled(t)`` from those of config.

    P vanishes to order m at p exactly when P(z / t) vanishes to order m at
    t p.  So the condition matrix at t S is the one at S with column beta
    times t^(-|beta|) (and its rows rescaled): the same column rank profile,
    and the kernel vector c_beta t^(-|beta|) for each vector c.  Normalized
    by its lead (its first nonzero coefficient, 1 in c), coefficient c_beta
    becomes c_beta t^(|lead| - |beta|).  The support, degree and achieved
    orders stay as they are, and the result equals ``kernel_polynomials``
    of the scaled problem."""
    out = []
    for p in polys:
        lead = sum(p.coefficients[0][0])
        coefficients = tuple((beta, c * t ** (lead - sum(beta))) for beta, c in p.coefficients)
        out.append(KernelPolynomial(coefficients, p.degree, p.achieved_orders))
    return out


def _approximant(config: PointConfig, t, l: int, d: int, boundary_samples: int,
                 seed: int, mode: str, kernel: list | None = None) -> GreenApproximant:
    """``build_approximant``, from the unscaled kernel when it is given (a
    collision table computes it once for all its t)."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if isinstance(t, float):
        raise TypeError("pass t as an exact rational (Fraction, int, or string)")
    t = Fraction(t)
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be >= 1")
    if t == 0:
        raise ValueError("scale factor must be nonzero (points must stay distinct)")
    if mode == "ball":
        if t * t * config.max_norm_squared() >= 1:
            raise ValueError("scaled poles must lie strictly inside the unit ball")
    else:
        if abs(t) * config.max_sup_norm() >= 1:
            raise ValueError("scaled poles must lie strictly inside the unit polydisc")

    polys = _scaled_kernel(_kernel(config, l, d) if kernel is None else kernel, t)

    exps, coeffs = _kernel_arrays(polys)
    rng = np.random.default_rng(seed)
    if len(polys) >= 2:
        # random complex combinations of the kernel basis widen the family;
        # each is normalized by its own sampled sup, so they stay minorants
        weights = rng.standard_normal((_EXTRA_COMBOS, len(polys))) \
            + 1j * rng.standard_normal((_EXTRA_COMBOS, len(polys)))
        coeffs = np.concatenate([coeffs, coeffs @ weights.T], axis=1)

    probe = _boundary(rng, 2 * boundary_samples, config.dimension, mode)
    vals = np.abs(_monomials(exps, probe) @ coeffs)
    sups = np.max(vals[:boundary_samples], axis=0)
    if np.any(sups <= 0.0):
        raise RuntimeError("sampled sup of a nonzero kernel polynomial is zero")
    gap = max(0.0, float(np.max(np.log(np.max(vals, axis=0)) - np.log(sups))) / l)
    return GreenApproximant(config, t, l, d, mode, exps, coeffs, sups,
                            probe[:boundary_samples], gap, seed)


def evaluate_approximant(g: GreenApproximant, z) -> float:
    """Approximant value at one point of the closed unit domain."""
    z = _as_vector(z)
    if _norm(z, g.mode) > 1.0 + 1e-9:
        raise ValueError("z must lie in the closed unit domain")
    return float(g.values(z[None, :])[0])


# ---------------------------------------------------------------------------
# Radial profiles and Lelong slopes


@dataclass(frozen=True)
class RadialProfile:
    """Radial sup envelope with the least-squares slope against ln r.

    The slope is the numerical Lelong-number estimate of the singularity; the
    fitted standard error quantifies the sampling noise.
    """

    radii: tuple
    sup_values: tuple
    slope: float
    slope_stderr: float

    def to_csv_rows(self) -> list:
        x = np.log(np.array(self.radii))
        y = np.array(self.sup_values)
        intercept = float(np.mean(y) - self.slope * np.mean(x))
        return [
            (r, s, s - (intercept + self.slope * math.log(r)))
            for r, s in zip(self.radii, self.sup_values)
        ]


def default_radii(pole_radius: float) -> tuple:
    """Geometric radii with ratio 1/2 from 0.5 down to 4x the pole radius,
    at least 4 of them."""
    lo = 4.0 * pole_radius
    if lo <= 0.0:
        lo = 0.5 / 2**7
    if lo >= 0.5:
        raise ValueError(
            f"pole radius {pole_radius} leaves no slope window below 0.5; "
            "shrink t or pass explicit radii"
        )
    radii = []
    r = 0.5
    while r >= lo - 1e-15:
        radii.append(r)
        r *= 0.5
    if len(radii) < 4:
        ratio = (lo / 0.5) ** (1.0 / 3.0)
        radii = [0.5 * ratio**k for k in range(4)]
    return tuple(radii)


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple:
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    if len(x) < 3:
        return slope, 0.0
    resid = y - (ybar + slope * (x - xbar))
    stderr = math.sqrt(float(np.sum(resid**2)) / (len(x) - 2) / sxx)
    return slope, stderr


def _check_shape(x: np.ndarray, y: np.ndarray) -> None:
    # sup over spheres of a psh function is convex non-decreasing in ln r;
    # sampled sups must respect this up to _SHAPE_TOL
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    if np.any(np.diff(ys) < -_SHAPE_TOL):
        raise ValueError("radial envelope decreases with radius beyond tolerance")
    slopes = np.diff(ys) / np.diff(xs)
    if np.any(np.diff(slopes) < -_SHAPE_TOL):
        raise ValueError("radial envelope is non-convex in ln r beyond tolerance")


def radial_profile(target, radii=None, sphere_samples: int = 512, seed: int = 0,
                   mode: str | None = None, axis: int | None = None,
                   pole_radius: float | None = None) -> RadialProfile:
    """Sup of target over sampled spheres of each radius, with log-slope fit.

    target is a GreenApproximant (mode, dimension, and pole radius inferred)
    or a callable on C^2, with mode given, that maps an (m, 2) array of
    points to their m values.
    Radii must be decreasing in (0, 1) and stay outside the pole radius;
    passing axis=j restricts the sampling to the j-th coordinate axis (an
    axial slope).
    """
    if isinstance(target, GreenApproximant):
        mode = target.mode
        n = target.config.dimension
        if pole_radius is None:
            pole_radius = target.pole_radius
        fn = None
    else:
        if mode not in _MODES:
            raise ValueError("mode is required for callable targets")
        n = 2
        fn = target
        if pole_radius is None:
            pole_radius = 0.0
    if radii is None:
        radii = default_radii(pole_radius)
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if radii[0] >= 1.0 or radii[-1] <= 0.0:
        raise ValueError("radii must lie in (0, 1)")
    if radii[-1] <= pole_radius:
        raise ValueError(
            f"smallest radius {radii[-1]} does not exclude the poles "
            f"(pole radius {pole_radius}); the slope window must avoid them"
        )
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be >= 1")

    rng = np.random.default_rng(seed)
    if axis is not None:
        if not 0 <= axis < n:
            raise ValueError("axis out of range")
        dirs = np.zeros((sphere_samples, n), dtype=complex)
        dirs[:, axis] = np.exp(2j * np.pi * rng.random(sphere_samples))
    else:
        dirs = _boundary(rng, sphere_samples, n, mode)

    pts = (np.array(radii)[:, None, None] * dirs).reshape(-1, n)
    if fn is None:
        vals = target.values(pts)
    else:
        vals = np.asarray(fn(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError(f"a callable target must map {len(pts)} points to "
                             f"{len(pts)} values, got shape {vals.shape}")
    y = np.max(vals.reshape(len(radii), sphere_samples), axis=1)
    for r, sup in zip(radii, y):
        if sup == NEG_INF:
            raise ValueError(f"target is -inf on the whole sampled sphere r={r}")

    x = np.log(np.array(radii))
    _check_shape(x, y)
    slope, stderr = _fit_line(x, y)
    return RadialProfile(radii, tuple(y.tolist()), slope, stderr)


# ---------------------------------------------------------------------------
# Pole-collision experiments


@dataclass(frozen=True)
class CollisionRow:
    t: Fraction
    envelope_dev: float     # sup_r |envelope(r) - (omega_l/l) ln r|
    slope: float            # fitted envelope slope over the annulus radii
    upper_ok: bool          # approximant <= (omega_l/l) ln|z| + eps everywhere
    upper_margin: float     # max over the grid of approximant - (omega_l/l) ln|z|
    eps_sample: float
    oracle_gap: float | None = None   # sup |approximant - oracle| when given


@dataclass(frozen=True)
class CollisionTable:
    rows: tuple
    omega_hat: Fraction
    config: PointConfig
    l: int
    degree: int
    mode: str
    seed: int
    grid: dict


def two_point_oracle(t: Fraction, z) -> float:
    """Exact polydisc Green value for the two-point config at scale t."""
    return polydisc_two_pole_exact(complex(Fraction(t)), z)


def collision_experiment(config: PointConfig, l: int, d: int, t_sequence,
                         mode: str = "ball", r_min: float = 0.3,
                         r_max: float = 0.95, n_radii: int = 20,
                         n_dirs: int = 20, boundary_samples: int = 4096,
                         seed: int = 0, oracle=None) -> CollisionTable:
    """Convergence of approximants as the poles t*S collide at the origin.

    For each t the approximant's radial envelope over an annulus grid is
    compared against (omega_l/l) * ln r, its fitted slope recorded, and the
    one-sided bound  approximant <= (omega_l/l) ln|z| + eps_sample  checked
    on every grid point.  That bound is the collision-limit statement: at
    finite t the true Green function exceeds Omega(S) ln|z| by a margin that
    decays only as t -> 0, so on configs with omega_l/l > 1 expect upper_ok
    to fail at coarse t while upper_margin shrinks down the table.  When an
    oracle(t, pts) is supplied (called once per t on the whole (m, n) grid,
    returning m values), the sup pointwise gap is reported as well.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if n_radii < 2:
        raise ValueError("n_radii must be >= 2 (the slope fit needs two radii)")
    if n_dirs < 1:
        raise ValueError("n_dirs must be >= 1")
    ts = [Fraction(t) if not isinstance(t, float) else None for t in t_sequence]
    if None in ts:
        raise TypeError("pass t values as exact rationals (Fractions or strings)")
    if not ts:
        raise ValueError("empty t sequence")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_sequence must be strictly decreasing toward the collision")
    omega_hat = Fraction(omega_l(config, l), l)
    radii, pts = annulus_grid(r_min, r_max, n_radii, n_dirs, config.dimension,
                              mode, derive_seed(seed, "collision-dirs"))
    log_r = np.log(radii)
    target = float(omega_hat)

    kernel = _kernel(config, l, d)
    rows = []
    for i, t in enumerate(ts):
        g = _approximant(config, t, l, d, boundary_samples,
                         derive_seed(seed, f"collision-t{i}"), mode, kernel)
        if g.pole_radius >= r_min:
            raise ValueError(
                f"t={t}: poles (radius {g.pole_radius:.3g}) intrude on the "
                f"annulus r >= {r_min}"
            )
        vals = g.values(pts).reshape(n_radii, n_dirs)
        env = vals.max(axis=1)
        dev = float(np.max(np.abs(env - target * log_r)))
        slope, _ = _fit_line(log_r, env)
        margin = float(np.max(vals - target * log_r[:, None]))
        upper_ok = margin <= g.eps_sample + 1e-9
        gap = None
        if oracle is not None:
            ovals = np.asarray(oracle(t, pts), dtype=float).reshape(n_radii, n_dirs)
            gap = float(np.max(np.abs(vals - ovals)))
        rows.append(CollisionRow(t, dev, slope, upper_ok, margin,
                                 g.eps_sample, gap))
    grid = {"r_min": r_min, "r_max": r_max, "n_radii": n_radii, "n_dirs": n_dirs,
            "boundary_samples": boundary_samples, "extra_combos": _EXTRA_COMBOS}
    return CollisionTable(tuple(rows), omega_hat, config, l, d, mode, seed, grid)


# ---------------------------------------------------------------------------
# Schwarz-type norm inequality


@dataclass(frozen=True)
class SchwarzVerdict:
    index: int
    degree: int
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


@dataclass(frozen=True)
class SchwarzResult:
    verdicts: tuple
    omega_lower: Fraction
    rho: float
    R: float
    epsilon: float

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def schwarz_check(config: PointConfig, l: int, d: int | None = None,
                  rho: float = 0.25, R: float = 8.0, epsilon: float = 0.1,
                  boundary_samples: int = 4096, seed: int = 0,
                  omega_lower: Fraction | None = None) -> SchwarzResult:
    """Sampled check of  ln||f||_r <= ln||f||_R - l (Omega_lb - eps) ln(R/r)
    with r = rho * R, for every exact kernel polynomial of the (l, d) system.

    Omega(S) is replaced by the certified Waldschmidt lower bound from levels
    1..l (unless ``omega_lower`` is given), which only weakens the inequality
    and keeps a pass sound.  ``d`` defaults to omega_l; with neither given,
    both come from one ``omega_table``, so no level is computed twice.
    Verdicts are reported per (R, rho, epsilon); no claim is made about
    the asymptotic threshold radius.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if R <= 0.0:
        raise ValueError("R must be positive")
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be >= 1")
    if omega_lower is None:
        _require_uniform(config, "the Waldschmidt sandwich")
        table = omega_table(config, l)
        omega_lower, _ = _interval_from_table(table, config.dimension)
        d = table[-1][1] if d is None else d
    elif d is None:
        d = omega_l(config, l)
    omega_lower = Fraction(omega_lower)

    polys = _kernel(config, l, d)
    exps, coeffs = _kernel_arrays(polys)
    dirs = _unit_sphere(np.random.default_rng(seed), boundary_samples,
                        config.dimension)
    r = rho * R
    factor = l * (float(omega_lower) - epsilon) * math.log(R / r)
    # ln sup |P| on the spheres of radius r and R, one column per polynomial
    logs = _log_abs(_monomials(exps, np.concatenate([r * dirs, R * dirs])) @ coeffs)
    lhs, ln_R = np.max(logs.reshape(2, boundary_samples, -1), axis=1).tolist()
    out = [SchwarzVerdict(i, p.degree, lhs[i], ln_R[i] - factor)
           for i, p in enumerate(polys)]
    return SchwarzResult(tuple(out), omega_lower, rho, R, epsilon)
