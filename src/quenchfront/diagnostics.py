"""Quantitative front descriptors and the admissibility verdict."""

from __future__ import annotations

import math

import numpy as np

from .bvp import REQUIRED_RIGHT_LEVEL, FrontProfile
from .grid import UniformSpline

DEFAULT_DELTA = 0.1
REFINE_TOL = 1e-10   # relative tolerance in x of each root that crossings bisects
NOISE_REL = 1e-12    # monotonicity floor relative to max(1, max|u|)


def front_position(p: FrontProfile, delta: float = DEFAULT_DELTA) -> float:
    """Interface position x_delta = sup{x : u(x) > delta} by linear
    interpolation of the unique level crossing of a decreasing profile."""
    u = p.u
    if not (u.max() > delta > u.min()):
        raise ValueError(
            f"delta={delta} outside the profile range [{u.min():.3g}, {u.max():.3g}]")
    above = np.nonzero(u > delta)[0]
    i = int(above[-1])
    if i + 1 >= p.grid.n:
        raise ValueError("level crossing sits on the right boundary")
    x = p.grid.nodes()
    frac = (u[i] - delta) / (u[i] - u[i + 1])
    return float(x[i] + frac * p.grid.h)


def crossings(p: FrontProfile) -> list[float]:
    """Roots with x < 0 of g(x) = x u + u^3 (equivalently u = sqrt(-x)).

    Since g = u (u^2 + x) and u > 0, the roots are those of
    f(x) = 2 ln u - ln(-x), which stays finite for every positive double u;
    g itself underflows to 0 near the root once u(0) <~ 1e-108 (c >~ 10.6).
    The sign of f is scanned over the nodes with x < 0 and u > 0 (nodes
    with u = 0 are skipped).  The last interval is closed at the x = 0 node,
    taken as the nearest node as in ``u_at_zero``, where f = +inf because
    u(0) > 0.  Each sign change is bisected in t = ln(-x) on the cubic
    spline of u, to relative tolerance REFINE_TOL in x.

    A root in the last interval sits at -u(0)^2 (1 + O(c u(0)^2)).  Its
    bracket is closed at t = 2 ln u(0) - 1, where f >= 1 because u >= u(0)
    left of the origin, so it is resolved however small it is; once
    u(0)^2 underflows it is still counted, but reported as -0.0.

    For x > 0 and u > 0, g is strictly positive, which is checked rather
    than assumed.
    """
    x = p.grid.nodes()
    u = p.u
    # below ~1e-300 the products themselves underflow, so the sign claim
    # is only checkable above that floor
    pos = (x > 0) & (u > 1e-300)
    if np.any(x[pos] * u[pos] + u[pos] ** 3 <= 0):
        raise AssertionError("x u + u^3 should be positive wherever x, u > 0")

    i0 = int(np.argmin(np.abs(x)))
    closed = abs(x[i0]) < 0.25 * p.grid.h
    left = x < 0.0
    if closed:
        left[i0:] = False
    idx = np.nonzero(left & (u > 0.0))[0]
    f = 2.0 * np.log(u[idx]) - np.log(-x[idx])
    if closed and u[i0] > 0.0:
        idx = np.append(idx, i0)
        f = np.append(f, np.inf)

    sign_change = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    roots: list[float] = []
    for i in sign_change:
        a, b = idx[i], idx[i + 1]
        window = slice(max(a - 3, 0), b + 4)
        spline = UniformSpline(x[window.start], p.grid.h, u[window])
        left_negative = f[i] < 0
        t_hi = math.log(-x[a])
        t_lo = 2.0 * math.log(u[b]) - 1.0 if b == i0 and closed else math.log(-x[b])
        while t_hi - t_lo > REFINE_TOL:
            mid = 0.5 * (t_lo + t_hi)
            f_mid = 2.0 * math.log(float(spline(-math.exp(mid)))) - mid
            if (f_mid < 0) == left_negative:
                t_hi = mid
            else:
                t_lo = mid
        roots.append(-math.exp(0.5 * (t_lo + t_hi)))
    return roots


def u_at_zero(p: FrontProfile) -> float:
    x = p.grid.nodes()
    i = int(np.argmin(np.abs(x)))
    if abs(x[i]) < 0.25 * p.grid.h:
        return float(p.u[i])
    return float(UniformSpline(p.grid.x_min, p.grid.h, p.u)(0.0))


def admissibility(p: FrontProfile) -> list[str]:
    """The ways ``p`` fails to be an admissible front, one message each;
    empty when it is admissible.  Never raises.  A non-finite u is the only
    problem reported, at its first node.

    Interior values must be strictly positive, and u may rise from one node
    to the next only below the roundoff floor NOISE_REL max(1, max|u|);
    without such a rise the interface (0.1 to 0.9 of max u) must fall
    strictly.  u[0] must match the ramp's left limit (sqrt(-x_min) for
    r = x, sqrt(tanh(-eps x_min)) for the tanh ramp) to within twice the
    first neglected sqrt(-x) tail term, and 0 <= u[-1] <= REQUIRED_RIGHT_LEVEL.
    """
    u = p.u
    x = p.grid.nodes()
    nonfinite = np.flatnonzero(~np.isfinite(u))
    if nonfinite.size:
        return [f"non-finite value at x={x[nonfinite[0]]:.4g}"]
    problems = []

    nonpositive = np.nonzero(u[1:-1] <= 0.0)[0] + 1
    if nonpositive.size:
        problems.append(f"non-positive value at x={x[nonpositive[0]]:.4g}")

    du = np.diff(u)
    if np.any(du > NOISE_REL * max(1.0, float(np.abs(u).max()))):
        problems.append(f"increase at x={x[int(np.argmax(du))]:.4g}")
    else:
        umax = u.max()
        interface = (u >= 0.1 * umax) & (u <= 0.9 * umax)
        idx = np.nonzero(interface[:-1])[0]
        if idx.size and np.max(du[idx] / p.grid.h) >= -1e-12:
            problems.append("interface slope not strictly negative")

    s = -p.grid.x_min
    if s <= 0:
        problems.append("domain does not reach x < 0")
    else:
        tol = 2.0 * max(abs(p.c) / (4.0 * s * s),
                        1.0 / (8.0 * s ** 3)) * math.sqrt(s) + 1e-10
        limit = math.sqrt(s if p.eps is None else math.tanh(p.eps * s))
        gap = abs(u[0] - limit)
        if gap > tol:
            problems.append(
                f"left boundary gap {gap:.3g} exceeds closure tolerance {tol:.3g}")

    if not 0.0 <= u[-1] <= REQUIRED_RIGHT_LEVEL:
        problems.append(f"right boundary value {u[-1]:.3g} outside [0, {REQUIRED_RIGHT_LEVEL:g}]")
    return problems
