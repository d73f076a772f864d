"""Continuation of admissible fronts in the drift speed c.

Each step predicts the front at the next c and corrects the prediction
with Newton.  The predictor is one tangent rule in the frame x + c+^2/4
(c+ = max(c, 0)), which moves with the delayed interface of c > 0: the
co-moving derivative du/dc - (c+/2) u', du/dc from J du/dc = -dF/dc at the
accepted point, steps the shape, and the front moves by -(c_next+^2 -
c+^2)/4; for c <= 0 this is the plain tangent u + dc du/dc.  A step that
fails on the carried grid is retried once on c_next's default grid.  After
an accepted step dc <- dc clamp(5 / iterations, 0.5, 2); a failed step is
halved down to DC_MIN.  There are no folds in c, so no arclength is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bvp, diagnostics, grid, newton
from .bvp import FrontProfile
from .grid import Grid, UniformSpline

DC_MIN = 1e-4
TARGET_ITERATIONS = 5   # Newton iterations per step the step controller aims at
# pointwise_c_ordering_gap compares adjacent fronts at ORDER_SAMPLES points
# at least ORDER_MARGIN inside their common domain (the boundary closures
# are only asymptotically consistent near the edges), where the lower front
# exceeds ORDER_FLOOR (below it the ordering sits under roundoff)
ORDER_SAMPLES = 200
ORDER_MARGIN = 5.0
ORDER_FLOOR = 1e-12


@dataclass
class Branch:
    """Ordered family of admissible fronts along c."""

    points: list[tuple[float, FrontProfile]] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)

    def sort(self) -> None:
        self.points.sort(key=lambda item: item[0])


def reinterpolate(p: FrontProfile, g_new: Grid) -> FrontProfile:
    """Move a profile to a new grid: cubic interpolation on the overlap,
    the left closure value extends it on the left, zero on the right."""
    g_old = p.grid
    if g_new.x_min > g_old.x_max or g_new.x_max < g_old.x_min:
        raise ValueError("new grid does not overlap the profile's grid")
    x_new = g_new.nodes()
    spline = UniformSpline(g_old.x_min, g_old.h, p.u)
    u_new = np.empty(g_new.n)
    inside = (x_new >= g_old.x_min - 1e-12) & (x_new <= g_old.x_max + 1e-12)
    u_new[inside] = spline(np.clip(x_new[inside], g_old.x_min, g_old.x_max))
    left = x_new < g_old.x_min - 1e-12
    if np.any(left):
        u_new[left] = [bvp.left_value(p.c, float(t), p.eps) for t in x_new[left]]
    u_new[x_new > g_old.x_max + 1e-12] = 0.0
    u_new = np.maximum(u_new, 0.0)  # spline overshoot is not a valid guess
    return FrontProfile(c=p.c, grid=g_new, u=u_new, eps=p.eps)


def _tangent(p: FrontProfile) -> np.ndarray:
    """Co-moving derivative du/dc - (c+/2) D1 u at a converged point, where
    c+ = max(c, 0) and du/dc solves J du/dc = -dF/dc.

    dF/dc is D1 u on the interior rows (upwinded by sign(c), as in F), minus
    the slope in c of the left closure value on row 0 (affine in c, so a unit
    difference is exact), and -(dL/dc) u[-1] on the Robin row n-1.  For
    c <= 0 the frame term vanishes and this is du/dc.
    """
    g = p.grid
    d1u = grid.d1_matvec(g, int(np.sign(p.c)), p.u)   # boundary rows are 0
    rhs = -d1u
    rhs[0] = (bvp.left_value(p.c + 1.0, g.x_min, p.eps)
              - bvp.left_value(p.c, g.x_min, p.eps))
    rhs[-1] = bvp.right_log_derivative_dc(p.c, g.x_max, p.eps) * p.u[-1]
    du_dc = newton.banded_lu_solve(bvp.stationary_jacobian(p, p.u), rhs)
    return du_dc - 0.5 * max(p.c, 0.0) * d1u


def predict(current: FrontProfile, tangent: np.ndarray, c_next: float,
            g_target: Grid) -> np.ndarray:
    """Initial guess on g_target: u + (c_next - c) tangent, clipped at zero,
    translated by -(c_next+^2 - c+^2)/4 and re-interpolated if need be."""
    g = current.grid
    shift = -(max(c_next, 0.0) ** 2 - max(current.c, 0.0) ** 2) / 4.0
    moved = FrontProfile(c=c_next, grid=Grid(g.x_min + shift, g.x_max + shift, g.n),
                         u=np.maximum(current.u + (c_next - current.c) * tangent, 0.0))
    if moved.grid == g_target:
        return moved.u
    return reinterpolate(moved, g_target).u


def continue_branch(seed: FrontProfile, c_target: float, dc_init: float = 0.25,
                    tol: float = newton.DEFAULT_TOL, h: float = bvp.DEFAULT_H) -> Branch:
    """Continue an admissible seed toward c_target, recording every point
    (seed included) that ``admissible_solve`` accepts at residual ``tol``.
    The first step is dc_init > 0; each accepted step scales the next by
    clamp(TARGET_ITERATIONS / Newton iterations, 0.5, 2), and each failed
    step is halved, down to DC_MIN.  Domains and the moving frame of the
    predictor are those of the linear ramp, so a tanh-ramp seed is refused."""
    if not seed.converged:
        raise ValueError("continuation seed must be a converged profile")
    if seed.eps is not None:
        raise ValueError("continuation follows the linear ramp; got a tanh-ramp seed")
    if not dc_init > 0:
        raise ValueError(f"continuation step dc must be positive, got dc={dc_init}")
    branch = Branch(points=[(seed.c, seed)])

    sgn = 1.0 if c_target >= seed.c else -1.0
    current, tangent = seed, None   # tangent at current, computed on its first attempt
    c = seed.c
    dc = dc_init
    while sgn * (c_target - c) > 1e-12:
        applied = min(dc, abs(c_target - c))
        c_next = c + sgn * applied
        if c_next == c:
            raise ValueError(f"continuation step dc={applied:g} leaves c={c:.17g} "
                             f"unchanged")
        g_default = bvp.default_grid(c_next, h)
        carried = current.grid != g_default and bvp.domain_ok(current.grid, c_next)
        for g_target in ([current.grid, g_default] if carried else [g_default]):
            try:
                tangent = _tangent(current) if tangent is None else tangent
                trial = FrontProfile(c=c_next, grid=g_target,
                                     u=predict(current, tangent, c_next, g_target))
                solved, report = admissible_solve(trial, tol)
                break
            except newton.SolverError as exc:
                branch.failures.append((c_next, str(exc)))
        else:
            dc = 0.5 * applied
            if dc < DC_MIN:
                branch.failures.append((c_next, "step size underflow"))
                break
            continue
        branch.points.append((c_next, solved))
        current, tangent = solved, None
        c = c_next
        dc *= min(2.0, max(0.5, TARGET_ITERATIONS / max(report.iterations, 1)))
    branch.sort()
    return branch


def admissible_solve(trial: FrontProfile,
                     tol: float) -> tuple[FrontProfile, newton.SolveReport]:
    """``newton.solve`` from ``trial``, then ``diagnostics.admissibility``: a
    converged profile with a problem is a SolverError naming c, the grid and
    the first problem."""
    profile, report = newton.solve(trial, tol)
    problems = diagnostics.admissibility(profile)
    if problems:
        g = profile.grid
        raise newton.SolverError(
            f"converged to a non-admissible profile at c={profile.c:g} on grid "
            f"h={g.h:g} x_min={g.x_min:g} x_max={g.x_max:g} n={g.n}: {problems[0]}")
    return profile, report


def solve_front(c: float, grid: Grid | None = None, tol: float = newton.DEFAULT_TOL,
                h: float = bvp.DEFAULT_H) -> FrontProfile:
    """The admissible front at c on ``grid`` (default: c's default grid at
    mesh h): one ``admissible_solve`` from ``bvp.initial_guess`` to residual
    ``tol``.  Newton's failures and the verdict's refusal propagate."""
    g = grid or bvp.default_grid(c, h)
    return admissible_solve(
        FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c)), tol)[0]


def pointwise_c_ordering_gap(branch: Branch) -> float:
    """Smallest value of u(x; c_j) - u(x; c_{j+1}) over adjacent branch pairs
    (c_j < c_{j+1}) on their common x-range, sampled as ORDER_SAMPLES,
    ORDER_MARGIN and ORDER_FLOOR say.

    A correct branch returns a positive margin; a negative value flags an
    ordering violation.
    """
    worst = math.inf
    for (c_lo, p_lo), (c_hi, p_hi) in zip(branch.points, branch.points[1:]):
        assert c_lo < c_hi
        x_lo = max(p_lo.grid.x_min, p_hi.grid.x_min) + ORDER_MARGIN
        x_hi = min(p_lo.grid.x_max, p_hi.grid.x_max) - ORDER_MARGIN
        if x_hi <= x_lo:
            continue
        xs = np.linspace(x_lo, x_hi, ORDER_SAMPLES)
        v_lo = UniformSpline(p_lo.grid.x_min, p_lo.grid.h, p_lo.u)(xs)
        v_hi = UniformSpline(p_hi.grid.x_min, p_hi.grid.h, p_hi.u)(xs)
        mask = v_lo > ORDER_FLOOR
        if np.any(mask):
            worst = min(worst, float(np.min(v_lo[mask] - v_hi[mask])))
    return worst
