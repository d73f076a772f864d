"""Monotone front solutions of u'' + c u' - x u - u^3 = 0.

Solver (4th-order finite differences + damped Newton), natural-parameter
continuation in the drift speed c, spectra of the linearization, IMEX time
stepping, closed-form asymptotic cross-checks, and a quantitative
acceptance suite.
"""

__version__ = "0.1.0"

from . import bvp, evolve
from .bvp import fit_tail_coefficients
from .continuation import continue_branch, solve_front
from .diagnostics import admissibility, crossings, front_position
from .newton import banded_lu_solve, solve
from .spectrum import leading_eigenvalues

__all__ = [
    "__version__",
    "admissibility", "banded_lu_solve", "continue_branch", "crossings",
    "fit_tail_coefficients", "front_position", "leading_eigenvalues",
    "solve", "solve_front",
]
