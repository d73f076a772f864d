"""Continuation of admissible fronts in the drift speed c.

Each step predicts the front at the next c and corrects the prediction
with Newton.  For c <= 2 the predictor is the tangent u + dc du/dc, where
du/dc solves J du/dc = -dF/dc at the accepted point.  For c > 2 the front
translates by -(c_next^2 - c^2)/4, which no linear predictor follows, so
the previous front is shifted by that displacement instead.  The step is
driven by Newton: after an accepted step dc <- dc clamp(5 / iterations,
0.5, 2), and a failed step is halved down to DC_MIN.  There are no folds
in c, so no arclength machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import bvp, newton
from .bvp import BoundaryClosure, FrontProfile
from .grid import Grid, d1_apply

DC_MIN = 1e-4
TARGET_ITERATIONS = 5   # Newton iterations per step the step controller aims at


@dataclass
class Branch:
    """Ordered family of admissible fronts along c."""

    points: list[tuple[float, FrontProfile]] = field(default_factory=list)
    direction: str = "increasing_c"
    failures: list[tuple[float, str]] = field(default_factory=list)

    def cs(self) -> np.ndarray:
        return np.array([c for c, _ in self.points])

    def profiles(self) -> list[FrontProfile]:
        return [p for _, p in self.points]

    def profile_at(self, c: float, tol: float = 1e-9) -> FrontProfile:
        for cc, p in self.points:
            if abs(cc - c) <= tol:
                return p
        raise KeyError(f"no branch point at c={c}")

    def sort(self) -> None:
        self.points.sort(key=lambda item: item[0])


def reinterpolate(p: FrontProfile, g_new: Grid,
                  bc: BoundaryClosure | None = None) -> FrontProfile:
    """Move a profile to a new grid: cubic interpolation on the overlap,
    sqrt(-x) closure extension on the left, zero on the right."""
    bc = bc or BoundaryClosure()
    g_old = p.grid
    if g_new.x_min > g_old.x_max or g_new.x_max < g_old.x_min:
        raise ValueError("new grid does not overlap the profile's grid")
    x_new = g_new.nodes()
    spline = CubicSpline(g_old.nodes(), p.u)
    u_new = np.empty(g_new.n)
    inside = (x_new >= g_old.x_min - 1e-12) & (x_new <= g_old.x_max + 1e-12)
    u_new[inside] = spline(np.clip(x_new[inside], g_old.x_min, g_old.x_max))
    left = x_new < g_old.x_min - 1e-12
    if np.any(left):
        u_new[left] = [bc.left_value(p.c, float(t)) for t in x_new[left]]
    u_new[x_new > g_old.x_max + 1e-12] = 0.0
    u_new = np.maximum(u_new, 0.0)  # spline overshoot is not a valid guess
    return FrontProfile(c=p.c, grid=g_new, u=u_new)


def _is_admissible(profile: FrontProfile) -> bool:
    u = profile.u
    interior_positive = bool(np.all(u[1:-1] > 0.0))
    decreasing = bool(np.all(np.diff(u) <= 1e-12 * max(1.0, u.max())))
    return interior_positive and decreasing


def _tangent(p: FrontProfile, bc: BoundaryClosure, sgn: float) -> np.ndarray:
    """du/dc at a converged point, from J du/dc = -dF/dc.

    dF/dc is D1 u on the interior rows (upwinded by sign(c), as in F),
    minus the slope in c of the left closure value on row 0, and 0 on row
    n-1.  The closure is affine in c on either side of c = 0 and jumps at
    c = 0, so its slope is differenced on the side the branch moves to
    (``sgn``).
    """
    g = p.grid
    rhs = -d1_apply(g, p.u, int(np.sign(p.c)))   # boundary rows of D1 are 0
    c1, c2 = p.c + sgn * DC_MIN, p.c + 2.0 * sgn * DC_MIN
    rhs[0] = (bc.left_value(c2, g.x_min) - bc.left_value(c1, g.x_min)) / (c2 - c1)
    return newton.banded_lu_solve(bvp.stationary_jacobian(g, p.u, p.c), rhs)


def _predict(current: FrontProfile, tangent: np.ndarray | None, c_next: float,
             g_target: Grid, bc: BoundaryClosure) -> np.ndarray:
    """Initial guess for the next continuation step on g_target.

    With a tangent: u + (c_next - c) du/dc, clipped at zero.  Without one
    (c > 2): the previous front shifted by its displacement
    -(c_next^2 - c^2)/4, which lies far beyond the Newton basin of a
    steep-tailed profile.  Either is re-interpolated when the grid changes.
    """
    g = current.grid
    if tangent is None:
        shift = -(c_next ** 2 - current.c ** 2) / 4.0
        moved = FrontProfile(c=c_next, grid=Grid(g.x_min + shift, g.x_max + shift, g.n),
                             u=current.u)
    else:
        moved = FrontProfile(c=c_next, grid=g, u=np.maximum(
            current.u + (c_next - current.c) * tangent, 0.0))
    if moved.grid == g_target:
        return moved.u
    return reinterpolate(moved, g_target, bc).u


def continue_branch(seed: FrontProfile, c_target: float, dc_init: float = 0.25,
                    cfg: newton.SolverConfig | None = None,
                    bc: BoundaryClosure | None = None,
                    h: float = bvp.DEFAULT_H) -> Branch:
    """Continue an admissible seed toward c_target, recording every converged
    point (seed included).  The first step is dc_init; each accepted step
    scales the next by clamp(TARGET_ITERATIONS / Newton iterations, 0.5, 2),
    and each failed step is halved, down to DC_MIN."""
    if not seed.converged:
        raise ValueError("continuation seed must be a converged profile")
    bc = bc or BoundaryClosure()
    cfg = cfg or newton.SolverConfig()
    direction = "increasing_c" if c_target >= seed.c else "decreasing_c"
    branch = Branch(points=[(seed.c, seed)], direction=direction)

    sgn = 1.0 if c_target >= seed.c else -1.0
    current = seed
    c = seed.c
    dc = abs(dc_init)
    while sgn * (c_target - c) > 1e-12:
        applied = min(dc, abs(c_target - c))
        c_next = c + sgn * applied
        g_target = current.grid
        if not bvp.domain_ok(g_target, c_next):
            g_target = bvp.default_grid(c_next, h)
        try:
            tangent = None if c > 2.0 and c_next > 2.0 else _tangent(current, bc, sgn)
            trial = FrontProfile(c=c_next, grid=g_target,
                                 u=_predict(current, tangent, c_next, g_target, bc))
            solved, report = newton.solve(trial, bc, cfg)
            if not _is_admissible(solved):
                raise newton.SolverError("converged to a non-admissible profile")
        except newton.SolverError as exc:
            branch.failures.append((c_next, str(exc)))
            dc = 0.5 * applied
            if dc < DC_MIN:
                branch.failures.append((c_next, "step size underflow"))
                break
            continue
        branch.points.append((c_next, solved))
        current = solved
        c = c_next
        dc *= min(2.0, max(0.5, TARGET_ITERATIONS / max(report.iterations, 1)))
    branch.sort()
    return branch


def solve_front(c: float, grid: Grid | None = None,
                bc: BoundaryClosure | None = None,
                cfg: newton.SolverConfig | None = None,
                h: float = bvp.DEFAULT_H) -> FrontProfile:
    """Solve for the admissible front at one c.

    Tries Newton from the heuristic seed first; if that fails (possible for
    intermediate positive c where no closed-form seed exists), falls back to
    continuation from the well-conditioned c = 0 anchor (SolverError if it stops short).
    """
    bc = bc or BoundaryClosure()
    cfg = cfg or newton.SolverConfig()
    g = grid or bvp.default_grid(c, h)
    anchor_grid = bvp.default_grid(0.0, h)
    # on the anchor problem itself the fallback would repeat this very
    # solve, so its outcome stands
    is_anchor = c == 0.0 and g == anchor_grid
    try:
        seed = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c))
        profile, _ = newton.solve(seed, bc, cfg)
        if is_anchor or _is_admissible(profile):
            return profile
    except newton.SolverError:
        if is_anchor:
            raise
    anchor_seed = FrontProfile(c=0.0, grid=anchor_grid,
                               u=bvp.initial_guess(anchor_grid, 0.0))
    anchor, _ = newton.solve(anchor_seed, bc, cfg)
    branch = continue_branch(anchor, c, cfg=cfg, bc=bc, h=h)
    try:
        profile = branch.profile_at(c)
    except KeyError:   # the step underflowed right after the last real failure
        reached = branch.cs()[0 if c < 0 else -1]
        last_c, why = branch.failures[-2]
        raise newton.SolverError(
            f"continuation toward c={c:g} on grid h={g.h:g} x_min={g.x_min:g} "
            f"x_max={g.x_max:g} n={g.n} stopped at c={reached:.6g}; last failure "
            f"at c={last_c:.6g}: {why}") from None
    if grid is not None and (profile.grid.n != grid.n
                             or profile.grid.x_min != grid.x_min):
        reseeded = reinterpolate(profile, grid, bc)
        profile, _ = newton.solve(reseeded, bc, cfg)
    return profile


def pointwise_c_ordering_gap(branch: Branch, n_samples: int = 200,
                             boundary_margin: float = 5.0,
                             floor: float = 1e-12) -> float:
    """Smallest value of u(x; c_j) - u(x; c_{j+1}) over adjacent branch pairs
    (c_j < c_{j+1}) on their common x-range.

    A correct branch returns a positive margin; a negative value flags an
    ordering violation.  The comparison window stays ``boundary_margin``
    inside the common domain (Dirichlet closures are only asymptotically
    consistent near the edges) and skips points where the lower profile has
    decayed below ``floor``, where the ordering sits under roundoff.
    """
    worst = math.inf
    for (c_lo, p_lo), (c_hi, p_hi) in zip(branch.points, branch.points[1:]):
        assert c_lo < c_hi
        x_lo = max(p_lo.grid.x_min, p_hi.grid.x_min) + boundary_margin
        x_hi = min(p_lo.grid.x_max, p_hi.grid.x_max) - boundary_margin
        if x_hi <= x_lo:
            continue
        xs = np.linspace(x_lo, x_hi, n_samples)
        s_lo = CubicSpline(p_lo.grid.nodes(), p_lo.u)
        s_hi = CubicSpline(p_hi.grid.nodes(), p_hi.u)
        v_lo = s_lo(xs)
        mask = v_lo > floor
        if np.any(mask):
            worst = min(worst, float(np.min(v_lo[mask] - s_hi(xs)[mask])))
    return worst
