"""Solvers and audits for variational problems of linear growth."""

from .energy import (DirichletProblem, FidelityProblem, RegularizationState,
                     clip_data, energy_relaxed, relaxed_boundary_penalty,
                     total_variation)
from .grids import Ball, Field, Grid2, Mask, sup_on
from .moser import (BallFamily, MoserGeometryError, MoserReport,
                    caccioppoli_check, exponents, masses, moser_report,
                    radii, select_radius, sup_bound, verify_recursion)
from .profiles import (ConditionReport, GrowthConstants, RadialProfile,
                       certify_conditions, combined, minimal_surface, phi_mu,
                       profile_d1, profile_d2, profile_eval, recession_slope)
from .solver import (MinimalityReport, SolveTrace, SolverConfig, SolverError,
                     continuation_solve, minimize_fixed_delta,
                     verify_minimality)

__version__ = "0.1.0"
