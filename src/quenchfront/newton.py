"""Damped Newton iteration with banded direct linear solves.

Each linear solve is one LAPACK dgbsv call in ``grid.solve_banded`` on the cached
equation band plus the Jacobian's diagonal (for one solve it beats the stepper's
unpivoted factor loop); it checks every answer's backward error, so a near-singular
Jacobian surfaces as a SingularJacobianError naming the run and iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bvp import FrontProfile, equation_band, jacobian_diagonal, stationary_residual
from .bvp import stationary_jacobian  # noqa: F401  not called; perfbench/spans.py traces it
from .grid import BandedMatrix, Grid, SingularMatrixError, solve_banded


class SolverError(RuntimeError):
    """Base class for Newton-iteration failures."""


class SingularJacobianError(SolverError):
    pass


class DivergenceError(SolverError):
    pass


class MaxIterationsError(SolverError):
    pass


BACKTRACK_FACTOR = 0.5   # Armijo step reduction
MIN_STEP = 2.0 ** -20     # smallest damping factor tried; taken if none passes
# a full correction below ROUNDOFF_STEP * max(1, max|u|) that does not lower
# the residual means Newton sits at the roundoff floor of the residual
ROUNDOFF_STEP = 1e-12
MAX_ITERATIONS = 50
DEFAULT_TOL = 1e-10   # max-norm residual a solve stops at unless told otherwise


@dataclass
class SolveReport:
    iterations: int
    residual_norms: list[float] = field(default_factory=list)


def banded_lu_solve(A: BandedMatrix, b: np.ndarray,
                    diagonal: np.ndarray | None = None) -> np.ndarray:
    """``grid.solve_banded``, its SingularMatrixError a SingularJacobianError."""
    try:
        return solve_banded(A, b, diagonal)
    except SingularMatrixError as exc:
        raise SingularJacobianError(str(exc)) from exc


def solve(initial: FrontProfile,
          tol: float = DEFAULT_TOL) -> tuple[FrontProfile, SolveReport]:
    """Newton-solve the stationary equation of ``initial`` (its c, ramp and
    closure) from its nodal values, with Armijo backtracking, until the
    max-norm of the residual is at most ``tol``.

    The shape of the result is not graded: a converged profile is returned
    whether or not it is an admissible front (``continuation.admissible_solve``
    adds that verdict).  A solve stalled at the roundoff floor above ``tol``
    raises MaxIterationsError at once rather than backtracking through the
    remaining iterations.  Every failure message names c, h and n.
    """
    if not tol > 0:
        raise ValueError(f"Newton tolerance must be positive, got tol={tol}")
    g: Grid = initial.grid
    c = initial.c
    u = np.asarray(initial.u, dtype=float).copy()
    f = stationary_residual(initial, u)
    res = float(np.abs(f).max())
    report = SolveReport(iterations=0, residual_norms=[res])
    where = f"at c={c:g}, h={g.h:g}, n={g.n}"

    for it in range(1, MAX_ITERATIONS + 1):
        if res <= tol:
            break
        try:
            step = banded_lu_solve(equation_band(g, c, initial.eps), -f,
                                   jacobian_diagonal(initial, u))
        except SingularJacobianError as exc:
            raise SingularJacobianError(f"Newton step {where}, iteration {it}: {exc}") from exc
        step_norm = float(np.abs(step).max())
        at_roundoff = step_norm <= ROUNDOFF_STEP * max(1.0, float(np.abs(u).max()))

        t = 1.0
        while t >= MIN_STEP:
            trial = u + t * step
            f_trial = stationary_residual(initial, trial)
            if np.abs(f_trial).max() <= (1.0 - 1e-4 * t) * res:
                break
            if at_roundoff:
                raise MaxIterationsError(
                    f"Newton stalled at the roundoff floor {where}: iteration "
                    f"{it}, residual {res:.3e} > tol {tol:g}, full step "
                    f"{step_norm:.3e}")
            t *= BACKTRACK_FACTOR

        u, f = trial, f_trial
        res = float(np.abs(f).max())
        report.iterations = it
        report.residual_norms.append(res)
        if len(report.residual_norms) > 5 and res > 10.0 * report.residual_norms[-6]:
            raise DivergenceError(
                f"residual grew 10x over 5 iterations {where} (now {res:.3e})")

    if res > tol:
        raise MaxIterationsError(
            f"no convergence in {MAX_ITERATIONS} iterations {where}, "
            f"residual {res:.3e}")

    profile = FrontProfile(c=c, grid=g, u=u, eps=initial.eps,
                           residual_norm=res, converged=True)
    return profile, report
