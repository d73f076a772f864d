"""Residual and Jacobian assembly for the stationary front equation

    u'' + c u' - r(x) u - u^3 = 0

A profile is its equation: its c, its grid and its ramp, where
``FrontProfile.eps`` None means the linear ramp r = x and a float the tanh
ramp r = tanh(eps x) of the full slow-quench model.  Its linear part is
one cached band, ``equation_band``: D2 + c D1 - r on the interior rows, the
left Dirichlet row (u(x_min) is ``left_value``: the sqrt(-x) tail series,
or sqrt(tanh(-eps x_min))) and the right Robin row u' = L u of the decaying
tail (Lentini & Keller, SIAM J. Numer. Anal. 17, 1980).  The residual, the
Jacobian (that band plus ``jacobian_diagonal``, solved as the pair) and the
time stepper's matrix read it, ``stationary_residual_dc`` is its derivative
in c, and no caller builds a ramp or a closure.  A linear-ramp front ends as
k(c) e^{-cx/2} Ai(x + c^2/4), and ``fit_tail_coefficients`` measures log k.
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
    -c/2 - sqrt(c^2/4 + r(x_max)), less 1/(4 z) for the linear ramp's Airy
    tail, z = x_max + c^2/4."""
    if not x_max > 0:
        raise ValueError(f"right closure needs x_max > 0, got x_max={x_max}")
    if eps is not None:
        return -0.5 * c - math.sqrt(0.25 * c * c + math.tanh(eps * x_max))
    return asymptotics.right_tail_log_derivative(x_max, c)


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


# One profile's at a time: a continuation step reads the accepted point's
# for its tangent before Newton builds the trial's.  The only cached band.
@lru_cache(maxsize=1)
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


def stationary_residual_dc(p: FrontProfile, u: np.ndarray) -> np.ndarray:
    """dF/dc of ``stationary_residual(p, .)`` at ``u``: D1 u on the interior
    rows (upwinded by sign(c), as in the band), the left closure's slope in c
    on row 0 (affine in c, so a unit difference is exact), and -(dL/dc) u on
    the Robin row, dL/dc = -1/2 - c / (4 sqrt(z)), z = c^2/4 + r(x_max), plus
    c / (8 z^2) for the linear ramp.  D1 is freed on return."""
    g, c, eps = p.grid, p.c, p.eps
    u = _checked_profile(g, u, c)
    out = d1_band(g, int(np.sign(c))).matvec(u)
    out[0] = left_value(c, g.x_min, eps) - left_value(c + 1.0, g.x_min, eps)
    z = 0.25 * c * c + (g.x_max if eps is None else math.tanh(eps * g.x_max))
    dl_dc = -0.5 - 0.25 * c / math.sqrt(z) + (0.125 * c / (z * z) if eps is None else 0.0)
    out[-1] = -dl_dc * u[-1]
    return out


def jacobian_diagonal(p: FrontProfile, u: np.ndarray) -> np.ndarray:
    """The Jacobian at ``u`` less ``equation_band``: -3u^2 inside, 0 on both closure rows."""
    return np.pad(-3.0 * _checked_profile(p.grid, u, p.c)[1:-1] ** 2, 1)


def stationary_jacobian(p: FrontProfile, u: np.ndarray) -> BandedMatrix:
    """Jacobian of ``stationary_residual(p, .)`` at ``u`` as one band: a copy
    of the equation's band with ``jacobian_diagonal`` added to its diagonal."""
    jac = equation_band(p.grid, p.c, p.eps).copy()
    jac.data[jac.bandwidth] += jacobian_diagonal(p, u)
    return jac


class TailFit(NamedTuple):
    log_k: float          # log of k(c) in the right tail k e^{-cx/2} Ai(x + c^2/4)
    log_k_spread: float   # largest deviation from log_k over the window


class TailFitError(RuntimeError):
    pass


def fit_tail_coefficients(p: FrontProfile) -> TailFit:
    """Fit log k(c) of a linear-ramp front's right tail k e^{-cx/2} Ai(x + c^2/4);
    k(0) = sqrt(2) (Hastings & McLeod, ARMA 73, 1980).

    log k is the mean of log u + cx/2 - log Ai(z), z = x + c^2/4, over the 4
    units of x from the first node with z >= 8 and u <= REQUIRED_RIGHT_LEVEL,
    cut at x_max; k itself overflows once c < -21.  The profile is not modified.
    """
    if p.eps is not None:
        raise TailFitError(f"the tanh-ramp front (eps={p.eps:g}) has no Airy tail")
    x, c, u = p.grid.nodes(), p.c, p.u
    z = x + 0.25 * c * c
    slack = 1e-6 * p.grid.h   # node roundoff must not decide the window's start
    start = np.flatnonzero((z >= 8.0 - slack) & (u <= REQUIRED_RIGHT_LEVEL))
    w = slice(start[0], start[0] + round(4.0 / p.grid.h) + 1) if start.size else slice(0)
    if u[w].size < 2 or np.any(u[w] <= 0.0):
        raise TailFitError(f"no right-tail window at c={c:g}, x_max={p.grid.x_max:g}: "
                           f"need 2 positive nodes with z >= 8, u <= {REQUIRED_RIGHT_LEVEL:g}")
    logs = np.log(u[w]) + 0.5 * c * x[w] - asymptotics.log_airy(z[w])
    log_k = float(np.mean(logs))
    return TailFit(log_k, float(np.max(np.abs(logs - log_k))))


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
    the inner-scaled speed c_s = eps^{-1/3} c (0 where c_s is in [-2, 2]),
    with the linear seed's slope in inner units: c_s/4 for c_s > 2, else 1."""
    x = g.nodes()
    if eps is not None:
        e13 = eps ** (1.0 / 3.0)
        c_scaled = c / e13
        interface, slope = 0.0, e13
        if c_scaled > 2.0:
            interface, slope = asymptotics.front_loc_largec(c_scaled) / e13, e13 * c_scaled / 4.0
        elif c_scaled < -2.0:
            interface = asymptotics.erf_front_position(c_scaled) / e13
        return (np.sqrt(np.maximum(np.tanh(-eps * x), 0.0))
                * 0.5 * (1.0 - np.tanh(slope * (x - interface))))
    if c <= -3.0:
        return asymptotics.erf_profile_vec(x, c)
    if c > 2.0:
        # slope s = c/4: the cut-off decays like e^{-2s x}, at the edge's rate c/2
        return smooth_sqrt_ramp(x, interface=asymptotics.front_loc_largec(c),
                                steepness=c / 4.0)
    return smooth_sqrt_ramp(x)
