"""Residual and Jacobian assembly for the stationary front equation

    u'' + c u' - r(x) u - u^3 = 0

A profile is its equation: its c, its grid and its ramp, where
``FrontProfile.eps`` None means the linear ramp r = x and a float the tanh
ramp r = tanh(eps x) of the full slow-quench model.  Its linear part is
one cached band, ``equation_band``: D2 + c D1 - r on the interior rows, the
left Dirichlet row (u(x_min) is ``left_value``: the sqrt(-x) tail series,
or sqrt(tanh(-eps x_min))) and the right Robin row u' = L u of the decaying
tail (Lentini & Keller, SIAM J. Numer. Anal. 17, 1980).  The residual, the
Jacobian and the time stepper's matrix read it; no caller builds a ramp or
a closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import asymptotics
from .grid import MAX_BANDWIDTH, BandedMatrix, Grid, d1_band, d2_band, fd_weights, make_grid

DEFAULT_H = 0.01          # mesh size used throughout, matching dx = 0.01
FRONT_MARGIN = 10.0       # minimum gap between front interface and boundary
RIGHT_EDGE_LEVEL = 1e-3       # c < -2 domains end 2 past this closed-form level
REQUIRED_RIGHT_LEVEL = 1e-2   # and must reach 1 past this one
_D1_LAST = fd_weights(0.0, np.arange(-4.0, 1.0), 1)   # one-sided D1 at x_max, h = 1


@dataclass
class FrontProfile:
    """One stationary front: parameter c, mesh, nodal values, ramp
    (eps None: r = x; eps float: r = tanh(eps x)), Newton outcome."""

    c: float
    grid: Grid
    u: np.ndarray
    eps: float | None = None
    residual_norm: float = math.inf
    converged: bool = False


def ramp(g: Grid, eps: float | None) -> np.ndarray:
    """Ramp coefficient r(x) at the nodes: x, or tanh(eps x)."""
    return g.nodes() if eps is None else np.tanh(eps * g.nodes())


def left_value(c: float, x_min: float, eps: float | None = None) -> float:
    """Dirichlet value at the left edge x_min.

    Tanh ramp (x_min <= 0): the local equilibrium sqrt(tanh(-eps x_min)),
    independent of c.  Linear ramp (x_min < -2): the sqrt(-x) tail series
    ``asymptotics.left_tail``, affine in c.  Its remainder (s = -x_min) is
    led by -(9/32) c^2/s^4 < 0, which keeps the closure above the solution,
    or for |c| s < 23/9 by -(23/32) c/s^5, far below the profile's drop
    across one node: neither breaks the profile's monotonicity at the edge.
    """
    if eps is not None:
        return math.sqrt(math.tanh(-eps * x_min))
    return asymptotics.left_tail(x_min, c)


def right_log_derivative(c: float, x_max: float, eps: float | None = None) -> float:
    """L in the right closure u' = L u: the decaying tail's log-derivative
    -c/2 - sqrt(c^2/4 + r(x_max)), less 1/(4 x_max) for the linear ramp."""
    if not x_max > 0:
        raise ValueError(f"right closure needs x_max > 0, got x_max={x_max}")
    if eps is not None:
        return -0.5 * c - math.sqrt(0.25 * c * c + math.tanh(eps * x_max))
    return asymptotics.right_tail_log_derivative(x_max, c)


def right_log_derivative_dc(c: float, x_max: float, eps: float | None = None) -> float:
    """dL/dc of ``right_log_derivative``: -1/2 - c / (4 sqrt(c^2/4 + r(x_max)))."""
    r = x_max if eps is None else math.tanh(eps * x_max)
    return -0.5 - 0.25 * c / math.sqrt(0.25 * c * c + r)


def default_domain(c: float) -> tuple[float, float]:
    """Solve domain keeping the front interface interior by >= FRONT_MARGIN.

    For c >= 0 this is [-max(25, c^2/4 + 30), max(15, sqrt|c| + 15)].  For
    c < -2 the nominal right edge sqrt(-c) + 15 is pushed 2 past where the
    closed-form profile has decayed to RIGHT_EDGE_LEVEL: the spill-over tail
    is a slow Gaussian whose level-0.1 crossing overtakes sqrt(-c) once
    c < -25 or so.  The Robin row follows that tail, so the edge may sit
    where u is still ~1e-3.
    """
    if not math.isfinite(c):
        raise ValueError(f"drift speed must be finite, got c={c}")
    if c >= 0:
        x_min = -max(25.0, c * c / 4.0 + 30.0)
        x_max = max(15.0, math.sqrt(abs(c)) + 15.0)
    else:
        x_min = -25.0
        x_max = max(15.0, math.sqrt(-c) + 15.0)
        if c < -2.0:
            x_max = max(x_max, asymptotics.erf_front_position(c, RIGHT_EDGE_LEVEL) + 2.0)
    return x_min, x_max


def required_bounds(c: float) -> tuple[float, float]:
    """Strict domain needed for a trustworthy solve/measurement at this c.

    On the right, for spill-over fronts, the edge must lie 1 past the
    closed-form profile's REQUIRED_RIGHT_LEVEL crossing, where the tail is
    Gaussian and the Robin row holds; re-gridding to the (wider) default
    domain restores slack whenever continuation drifts past this bound.
    """
    if c > 2.0:
        left = min(-20.0, asymptotics.front_loc_largec(c) - FRONT_MARGIN)
    else:
        left = -15.0
    if c < -2.0:
        right = max(12.0, asymptotics.erf_front_position(c, REQUIRED_RIGHT_LEVEL) + 1.0)
    else:
        right = 12.0
    return left, right


def domain_ok(g: Grid, c: float) -> bool:
    left, right = required_bounds(c)
    return g.x_min <= left + 1e-9 and g.x_max >= right - 1e-9


def default_grid(c: float, h: float = DEFAULT_H) -> Grid:
    x_min, x_max = default_domain(c)
    return make_grid(x_min, x_max, h)


# A continuation step reads two: the accepted point's, once for its tangent,
# and the trial point's, for Newton.  The only cached operator band.
@lru_cache(maxsize=2)
def equation_band(g: Grid, c: float, eps: float | None) -> BandedMatrix:
    """The equation's linear part on g, read-only (copy it): D2 + c D1 - r on
    the interior rows (D1 upwinded by sign(c), diagonal fl(fl(d2 + fl(c d1))
    - r)), the identity row 0 and the Robin row u' - L u on the last five
    nodes.  D1 is freed before D2 is built."""
    p = MAX_BANDWIDTH
    band = BandedMatrix(g.n, p, c * d1_band(g, int(np.sign(c))).data)
    band.data += d2_band(g).data
    band.data[p] -= ramp(g, eps)
    band.set_identity_row(0)
    k = np.arange(5)   # entry (n-1, n-5+k) sits at data[p + 4 - k, n-5+k]
    band.data[p + 4 - k, g.n - 5 + k] = (
        _D1_LAST / g.h - right_log_derivative(c, g.x_max, eps) * (k == 4))
    band.data.flags.writeable = False
    return band


def _checked_profile(g: Grid, u: np.ndarray, c: float) -> np.ndarray:
    """u as floats, refused unless it has g.n entries, all finite."""
    u = np.asarray(u, dtype=float)
    if u.shape != (g.n,):
        raise ValueError(f"vector length {u.shape} does not match grid n={g.n}")
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise ValueError(f"non-finite values in profile at c={c:g}, h={g.h:g}, n={g.n}: "
                         f"first at x={g.x_min + bad[0] * g.h:g} (node {bad[0]})")
    return u


def stationary_residual(p: FrontProfile, u: np.ndarray) -> np.ndarray:
    """The equation of profile ``p`` (its c, grid, ramp and closures) at the
    values ``u``: F_i = u'' + c u' - r(x_i) u - u^3 at interior nodes, and
    the boundary rows u - ``left_value`` and u' - L u."""
    u = _checked_profile(p.grid, u, p.c)
    out = equation_band(p.grid, p.c, p.eps).matvec(u)
    out[1:-1] -= u[1:-1] ** 3
    out[0] -= left_value(p.c, p.grid.x_min, p.eps)
    return out


def stationary_jacobian(p: FrontProfile, u: np.ndarray) -> BandedMatrix:
    """Jacobian of ``stationary_residual(p, .)`` at ``u``: the equation's
    band with 3u^2 taken off its interior diagonal."""
    u = _checked_profile(p.grid, u, p.c)
    jac = equation_band(p.grid, p.c, p.eps).copy()
    jac.data[jac.bandwidth, 1:-1] -= 3.0 * u[1:-1] ** 2
    return jac


class TailFit(NamedTuple):
    log_alpha_plus: float   # log of the right-tail amplitude alpha_+
    right_residual: float   # max deviation of the log-linear fit


class TailFitError(RuntimeError):
    pass


_UNDERFLOW_FLOOR = 1e-300
RIGHT_WINDOW = (5.0, 9.0)   # x-range of the right-tail fit, before clipping


def fit_tail_coefficients(p: FrontProfile) -> TailFit:
    """Fit the right-tail amplitude alpha_+ of a converged profile.

    The mean of log u + (2/3)(x + c^2/4)^{3/2} + (c/2) x + (1/4) log x over
    RIGHT_WINDOW gives log alpha_+ (flat when the profile follows the
    predicted decay).  Only the log is returned: alpha_+ itself overflows
    double precision once c drops below about -22.  The profile is not
    modified.
    """
    x = p.grid.nodes()
    c = p.c

    slack = 1e-6 * p.grid.h   # node roundoff must not decide the window's ends
    lo = max(RIGHT_WINDOW[0], p.grid.x_min) - slack
    hi = min(RIGHT_WINDOW[1], p.grid.x_max) + slack
    mask = (x >= lo) & (x <= hi)
    # shrink the window from the right while it contains underflowed values
    while mask.sum() > 4 and np.any(p.u[mask] < _UNDERFLOW_FLOOR):
        hi -= p.grid.h
        mask = (x >= lo) & (x <= hi)
    if mask.sum() < 4 or np.any(p.u[mask] <= _UNDERFLOW_FLOOR):
        raise TailFitError("right tail window underflowed; extend the domain "
                           "or move the window inward")
    xr, ur = x[mask], p.u[mask]
    zr = (np.log(ur) + (2.0 / 3.0) * (xr + c * c / 4.0) ** 1.5
          + 0.5 * c * xr + 0.25 * np.log(xr))
    log_alpha_plus = float(np.mean(zr))
    right_residual = float(np.max(np.abs(zr - log_alpha_plus)))
    return TailFit(log_alpha_plus, right_residual)


def smooth_sqrt_ramp(x: np.ndarray, interface: float = 0.0,
                     steepness: float = 1.0) -> np.ndarray:
    """Smoothed sqrt(max(-x,0)) shape cut off by a sigmoid at ``interface``;
    a serviceable Newton seed near the admissible front."""
    x = np.asarray(x, dtype=float)
    body = np.sqrt(0.5 * (np.hypot(x, 1.0) - x))
    return body * 0.5 * (1.0 - np.tanh(steepness * (x - interface)))


def initial_guess(g: Grid, c: float, eps: float | None = None) -> np.ndarray:
    """Newton seed for the front at c with the ramp of ``eps``.

    Linear ramp: the closed-form profile for c <= -3, a plain sqrt ramp for
    -3 < c <= 2, and for c > 2 a sqrt ramp cut off at the delay-formula
    interface whose tail decays like the leading edge e^{-cx/2} Ai(x + c^2/4).
    Tanh ramp: the local equilibrium sqrt(tanh(-eps x)) cut off at
    x_f / eps^{1/3}, where x_f is the interface of the linear-ramp front at
    the inner-scaled speed eps^{-1/3} c (0 where that speed is in [-2, 2])."""
    x = g.nodes()
    if eps is not None:
        e13 = eps ** (1.0 / 3.0)
        c_scaled = c / e13
        if c_scaled > 2.0:
            interface = asymptotics.front_loc_largec(c_scaled) / e13
        elif c_scaled < -2.0:
            interface = asymptotics.erf_front_position(c_scaled) / e13
        else:
            interface = 0.0
        return (np.sqrt(np.maximum(np.tanh(-eps * x), 0.0))
                * 0.5 * (1.0 - np.tanh(e13 * (x - interface))))
    if c <= -3.0:
        return asymptotics.erf_profile_vec(x, c)
    if c > 2.0:
        # slope s = c/4: the cut-off decays like e^{-2s x}, at the edge's rate c/2
        return smooth_sqrt_ramp(x, interface=asymptotics.front_loc_largec(c),
                                steepness=c / 4.0)
    return smooth_sqrt_ramp(x)
