"""Natural-parameter continuation of admissible fronts in the drift speed c.

The previous converged profile (re-interpolated when the domain must grow)
seeds Newton at the next c; steps halve on failure and expand after a run of
successes.  There are no folds in c, so no arclength machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import bvp, newton
from .bvp import BoundaryClosure, FrontProfile
from .grid import Grid

DC_MIN = 1e-4
DC_MAX = 1.0
GROW_FACTOR = 1.5
GROW_AFTER = 3


def _dc_cap(c: float) -> float:
    """Step cap keeping the front displacement per step below ~3 units.

    For c > 2 the interface sits at -c^2/4 - O(1) and moves c/2 per unit c;
    the translation predictor absorbs most of that, but the leftover shape
    correction still needs the step bounded.  For c <= 2 the interface
    drifts slowly and the global cap suffices.
    """
    if c <= 2.0:
        return DC_MAX
    return min(DC_MAX, 6.0 / c)


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
    interior_positive = bool(np.all(u[1:-1] > -1e-12 * max(1.0, u.max())))
    decreasing = bool(np.all(np.diff(u) <= 1e-12 * max(1.0, u.max())))
    return interior_positive and decreasing


def _predict(current: FrontProfile, c_next: float, g_target: Grid,
             bc: BoundaryClosure) -> np.ndarray:
    """Initial guess for the next continuation step.

    Base rule: the previous solution (re-interpolated when the grid
    changes).  For c > 2 the front translates by -(c_next^2 - c^2)/4, far
    beyond the Newton basin of a steep-tailed profile, so the previous
    solution is shifted by the known front displacement first.
    """
    shift = 0.0
    if current.c > 2.0 and c_next > 2.0:
        shift = -(c_next ** 2 - current.c ** 2) / 4.0
    if shift != 0.0:
        g = current.grid
        virtual = FrontProfile(c=c_next,
                               grid=Grid(g.x_min + shift, g.x_max + shift, g.n),
                               u=current.u)
        return reinterpolate(virtual, g_target, bc).u
    if (g_target.n, g_target.x_min, g_target.x_max) != (
            current.grid.n, current.grid.x_min, current.grid.x_max):
        return reinterpolate(current, g_target, bc).u
    return current.u


def continue_branch(seed: FrontProfile, c_target: float, dc_init: float = 0.25,
                    cfg: newton.SolverConfig | None = None,
                    bc: BoundaryClosure | None = None,
                    h: float = bvp.DEFAULT_H) -> Branch:
    """Continue an admissible seed toward c_target, recording every converged
    point (seed included).  Steps halve on failure down to 1e-4 and grow
    1.5x after three straight successes, capped at 1.0."""
    if not seed.converged:
        raise ValueError("continuation seed must be a converged profile")
    bc = bc or BoundaryClosure()
    cfg = cfg or newton.SolverConfig()
    direction = "increasing_c" if c_target >= seed.c else "decreasing_c"
    branch = Branch(points=[(seed.c, seed)], direction=direction)

    sgn = 1.0 if c_target >= seed.c else -1.0
    current = seed
    c = seed.c
    dc = min(abs(dc_init), DC_MAX)
    streak = 0
    while sgn * (c_target - c) > 1e-12:
        applied = min(dc, _dc_cap(c), abs(c_target - c))
        c_next = c + sgn * applied
        g_target = current.grid
        if not bvp.domain_ok(g_target, c_next):
            g_target = bvp.default_grid(c_next, h)
        try:
            trial = FrontProfile(c=c_next, grid=g_target,
                                 u=_predict(current, c_next, g_target, bc))
            solved, _ = newton.solve(trial, bc, cfg)
            if not _is_admissible(solved):
                raise newton.SolverError("converged to a non-admissible profile")
        except newton.SolverError as exc:
            branch.failures.append((c_next, str(exc)))
            streak = 0
            dc = 0.5 * applied
            if dc < DC_MIN:
                branch.failures.append((c_next, "step size underflow"))
                break
            continue
        branch.points.append((c_next, solved))
        current = solved
        c = c_next
        streak += 1
        if streak >= GROW_AFTER:
            dc = min(dc * GROW_FACTOR, DC_MAX)
            streak = 0
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
    try:
        seed = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c))
        profile, _ = newton.solve(seed, bc, cfg)
        if _is_admissible(profile):
            return profile
    except newton.SolverError:
        pass
    anchor_grid = bvp.default_grid(0.0, h)
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
