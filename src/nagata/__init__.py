"""Exact invariants of fat-point interpolation systems and a numerical
laboratory for multipole pluricomplex Green functions.

The exact side computes, over a prime field or the rationals, the least
degree omega_l(S, l) of a hypersurface vanishing to prescribed orders at a
finite point set S, certified Waldschmidt intervals for the singular degree,
witness lower bounds for the very singular degree, and the classical
strictness checks at desk scale.  The numerical side builds polynomial lower
approximants of multipole Green functions from those exact kernels and
verifies the collision and slope statements against closed forms.
"""

__version__ = "0.1.0"

from .configs import (
    PointConfig,
    generic_points,
    grid_points,
    make_config,
    two_point_example,
)
from .exactla import (
    ExactMatrix,
    PrimeField,
    RankAccumulator,
    ReductionError,
    kernel_basis,
    rank,
)
from .fatpoints import (
    InterpolationProblem,
    KernelPolynomial,
    condition_matrix,
    kernel_polynomials,
    monomial_count,
    monomials,
    uniform_orders,
    vanishing_dimension,
)
from .green import (
    GreenApproximant,
    RadialProfile,
    annulus_grid,
    ball_green_single_pole,
    build_approximant,
    collision_experiment,
    default_radii,
    evaluate_approximant,
    polydisc_two_pole_exact,
    polydisc_two_pole_limit,
    radial_profile,
    schwarz_check,
    two_point_oracle,
)
from .invariants import (
    HARBOURNE_CR,
    InvariantReport,
    Verdict,
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
from .seeds import derive_seed

__all__ = [
    "HARBOURNE_CR",
    "ExactMatrix",
    "GreenApproximant",
    "InterpolationProblem",
    "InvariantReport",
    "KernelPolynomial",
    "PointConfig",
    "PrimeField",
    "RadialProfile",
    "RankAccumulator",
    "ReductionError",
    "Verdict",
    "annulus_grid",
    "ball_green_single_pole",
    "build_approximant",
    "collision_experiment",
    "condition_matrix",
    "default_radii",
    "derive_seed",
    "evaluate_approximant",
    "generic_points",
    "grid_points",
    "harbourne_table_check",
    "invariant_report",
    "kernel_basis",
    "kernel_polynomials",
    "make_config",
    "monomial_count",
    "monomials",
    "nagata_check",
    "omega_l",
    "omega_s_witness_bound",
    "omega_table",
    "polydisc_two_pole_exact",
    "polydisc_two_pole_limit",
    "radial_profile",
    "rank",
    "schwarz_check",
    "superadditivity_check",
    "two_point_example",
    "two_point_oracle",
    "uniform_orders",
    "vanishing_dimension",
    "waldschmidt_interval",
    "waldschmidt_upper_check",
]
