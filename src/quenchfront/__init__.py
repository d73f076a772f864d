"""Monotone front solutions of u'' + c u' - x u - u^3 = 0.

Solver (4th-order finite differences + damped Newton), natural-parameter
continuation in the drift speed c, spectra of the linearization, IMEX time
stepping, closed-form asymptotic cross-checks, and a quantitative
acceptance suite.
"""

__version__ = "0.1.0"

from .asymptotics import (erf_profile, front_loc_largec, front_loc_negc,
                          left_tail)
from .bvp import FrontProfile, default_grid, fit_tail_coefficients
from .continuation import Branch, continue_branch, reinterpolate, solve_front
from .diagnostics import admissibility, crossings, front_position
from .evolve import EvolveConfig, EvolveResult, ImexStepper, compare_inner_scaling
from .grid import BandedMatrix, Grid, make_grid
from .newton import SolveReport, banded_lu_solve, solve
from .spectrum import SpectrumReport, build_potential, leading_eigenvalues

__all__ = [
    "__version__",
    "BandedMatrix", "Branch", "EvolveConfig", "EvolveResult",
    "FrontProfile", "Grid", "ImexStepper", "SolveReport", "SpectrumReport",
    "admissibility", "banded_lu_solve", "build_potential",
    "compare_inner_scaling", "continue_branch",
    "crossings", "default_grid", "erf_profile",
    "fit_tail_coefficients", "front_loc_largec", "front_loc_negc",
    "front_position", "leading_eigenvalues", "left_tail",
    "make_grid", "reinterpolate", "solve",
    "solve_front",
]
