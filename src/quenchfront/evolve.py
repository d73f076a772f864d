"""Method-of-lines time integration of u_t = u_xx + c u_x - r(x) u - u^3.

The front being perturbed defines the problem: its c, its ramp r(x)
(``FrontProfile.eps``), its grid and its closures.  The implicit operator
is Newton's Jacobian at the front u*, J = A - 3 u*^2, with A the band
``bvp.equation_band`` (diffusion, drift, and the ramp r(x), stiff for
large |x|); its one implicit matrix, I - (dt/2) J on the interior rows and
the band's closure rows, is LU-factored once per run without row
interchanges, so a solve is two banded triangular sweeps.  The rest of the
reaction, 3 u*^2 u - u^3, is explicit (the whole cubic there outgrows the
step at the left edge, where -3 u^2 ~ x, once c >~ 4), by Adams-Bashforth-2
with Crank-Nicolson (Ascher, Ruuth & Wetton 1995), carried from the last
solve and started by backward-Euler half-steps on the same matrix
(Rannacher 1984; Giles & Carter 2006).  Newton's solutions are fixed points.

The tanh-ramp variant (r = tanh(eps x)) is the full slow-quench model; its
steady fronts are compared against inner rescalings of the linear-ramp
fronts, u ~ eps^{1/3} u_lin(eps^{1/3} x; eps^{-1/3} c).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bvp, continuation, diagnostics, newton
from .bvp import FrontProfile
from .grid import Grid, UniformSpline, UnpivotedBandedLU, make_grid

TANH_DOMAIN_HALF = 300.0   # solve domain for the tanh-ramp equation
TANH_H = 0.05
# measured_rate fits deviations at least PLATEAU_MARGIN times the plateau
# they level off at; a plateau P shifts ln(dev) by about P / dev
PLATEAU_MARGIN = 1e4
# the stepper's own roundoff level, below which no plateau is taken
# (measured plateaus: 2.9e-13 to 5.0e-13 at c in {-1, 0, 1}, h = dt = 0.01)
ROUNDOFF_PLATEAU = 1e-12
# the one time-stepping scheme, as named by ``evolve --scheme`` and headers
SCHEME = "imex_cn"


@dataclass
class EvolveConfig:
    dt: float
    t_end: float
    record_every: int = 10

    def __post_init__(self):
        if not (self.dt > 0 and 0.5 < self.t_end / self.dt < math.inf):
            raise ValueError(f"dt={self.dt:g} and t_end={self.t_end:g} must be positive, "
                             f"with t_end/dt finite and rounding to at least one step")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class EvolveResult:
    final: FrontProfile
    deviation_history: list[tuple[float, float]] = field(default_factory=list)
    measured_rate: float = math.nan
    rate_samples: int = 0            # deviation samples the rate was fitted to; 0: nan rate
    steps: int = 0
    step_s: float = math.nan         # mean wall time per step
    factor_s: float = math.nan       # wall time of building the stepper
    peak_growth: float = math.nan    # largest recorded deviation over the initial one


class BlowUpError(RuntimeError):
    pass


class ImexStepper:
    """One-step integrator for the equation of ``front``, holding the LU
    factors of its one implicit matrix I - (dt/2) J, J = A - 3 u*^2.

    A CN/AB2 step solves (I - dt/2 J) u_{n+1} = R_n with N = 3 u*^2 u - u^3,
    R_n = (I + dt/2 J) u_n + dt (3/2 N_n - 1/2 N_{n-1}).  The last solve's
    interior rows make (I + dt/2 J) u_n = 2 u_n - R_{n-1}, so no step
    applies J: R_n = 2 u_n - G - 3 C_n with C = -(dt/2) N and the one
    carried vector G = R_{n-1} - C_{n-1}.  From its second call on ``step``
    takes only the array it last returned (else a ValueError).

    Row 0 of every solve pins the front's left Dirichlet value, row n-1 is
    Newton's Robin row, with right-hand side 0.  Each of the first
    STARTUP_EULER_STEPS steps is two backward-Euler half-steps on the same
    matrix (Rannacher smoothing, in Giles & Carter's half-step form, which
    keeps second order): CN alone is not L-stable and rings for many time
    units when the initial data has under-resolved features; they also give
    the first CN step R and N.
    """

    STARTUP_EULER_STEPS = 2

    def __init__(self, front: FrontProfile, dt: float):
        g = front.grid
        self.dt = dt
        self.boundary = (bvp.left_value(front.c, g.x_min, front.eps), 0.0)
        self._three_sq = 3.0 * front.u ** 2
        # interior rows into I - (dt/2) J: band row r holds entries (j + r - p, j)
        lhs = bvp.stationary_jacobian(front, front.u)
        p = lhs.bandwidth
        for r in range(2 * p + 1):
            lhs.data[r, max(0, p - r + 1):g.n - 1 + p - r] *= -0.5 * dt
        lhs.data[p, 1:-1] += 1.0
        self._lu = UnpivotedBandedLU(lhs)
        self._last = self._carry = None   # the last step's output, and G (kept in place)
        self._steps_taken = 0

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs[0], rhs[-1] = self.boundary
        out = self._lu.solve(rhs)
        if not np.isfinite(out).all():   # unit L carries any inf or nan of rhs into out
            raise BlowUpError("non-finite state after implicit solve")
        return out

    def _explicit(self, v: np.ndarray) -> np.ndarray:
        """C(v) = (dt/2) v (v^2 - 3 u*^2), in one fresh array."""
        out = v * v
        out -= self._three_sq
        out *= v
        out *= 0.5 * self.dt
        return out

    def step(self, u: np.ndarray) -> np.ndarray:
        if self._last is not None and u is not self._last:
            raise ValueError("ImexStepper.step continues from the array its last "
                             "step returned; start a new stepper for other data")
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            cube = self._explicit(u)
            if self._steps_taken < self.STARTUP_EULER_STEPS:
                mid = self._solve(u - cube)
                rhs = mid - self._explicit(mid)
            else:
                rhs = u + u - self._carry - 3.0 * cube
            out = self._solve(rhs)   # its first sweep copies rhs, which is kept
            self._carry = np.subtract(rhs, cube, out=self._carry)
        self._last = out
        self._steps_taken += 1
        return out


def evolve(front: FrontProfile, u0: np.ndarray, cfg: EvolveConfig) -> EvolveResult:
    """Integrate u0 to t_end under the equation of ``front`` (its c, ramp,
    grid and closures), recording sup-norm deviations from
    ``front.u`` every ``record_every`` steps."""
    plateau = deviation_plateau(front)
    start = time.perf_counter()
    stepper = ImexStepper(front, cfg.dt)
    factor_s = time.perf_counter() - start
    u = np.asarray(u0, dtype=float).copy()
    n_steps = int(round(cfg.t_end / cfg.dt))
    history = [(0.0, float(np.abs(u - front.u).max()))]
    start = time.perf_counter()
    for k in range(1, n_steps + 1):
        try:
            u = stepper.step(u)
        except BlowUpError as exc:
            raise BlowUpError(f"blow-up at step {k} (t={k * cfg.dt:.4g}) at c={front.c:g}, "
                              f"dt={cfg.dt:g}, scheme={SCHEME}, h={front.grid.h:g}, "
                              f"n={front.grid.n}: {exc}") from exc
        if k % cfg.record_every == 0 or k == n_steps:
            history.append((k * cfg.dt, float(np.abs(u - front.u).max())))
    step_s = (time.perf_counter() - start) / n_steps

    final = FrontProfile(c=front.c, grid=front.grid, u=u, eps=front.eps)
    final.residual_norm = float(np.abs(bvp.stationary_residual(final, u)).max())
    d0 = history[0][1]
    rate, samples = measured_rate(history, plateau)
    return EvolveResult(final=final, deviation_history=history, steps=n_steps, step_s=step_s,
                        factor_s=factor_s, measured_rate=rate, rate_samples=samples,
                        peak_growth=max(d for _, d in history) / d0 if d0 > 0 else math.nan)


def deviation_plateau(front: FrontProfile) -> float:
    """The sup-norm deviation from ``front.u`` that the stepper's fixed
    point keeps: the stepper's spatial operator is Newton's, so that fixed
    point is the exact discrete front, one Newton correction away from
    ``front.u``.  Never below ROUNDOFF_PLATEAU."""
    correction = newton.banded_lu_solve(bvp.equation_band(front.grid, front.c, front.eps),
                                        -bvp.stationary_residual(front, front.u),
                                        bvp.jacobian_diagonal(front, front.u))
    return max(float(np.abs(correction).max()), ROUNDOFF_PLATEAU)


def measured_rate(history: list[tuple[float, float]], plateau: float) -> tuple[float, int]:
    """Log-slope of the deviation tail and the number of samples fitted:
    least-squares fit of ln(dev) vs t over samples past the initial
    transient and PLATEAU_MARGIN times above the deviation ``plateau``;
    (nan, 0) when fewer than 3 samples qualify."""
    t = np.array([h[0] for h in history])
    d = np.array([h[1] for h in history])
    if len(d) < 4 or d[0] == 0:
        return math.nan, 0
    mask = (d > PLATEAU_MARGIN * plateau) & (d < 0.5 * d[0]) & (t > 0)
    if mask.sum() < 3:
        return math.nan, 0
    return float(np.polyfit(t[mask], np.log(d[mask]), 1)[0]), int(mask.sum())


def solve_tanh_front(eps: float, c: float, g: Grid | None = None,
                     guess: np.ndarray | None = None) -> FrontProfile:
    """Steady front of the tanh-ramp equation: ``admissible_solve`` (Newton,
    then the verdict) on the profile with ramp tanh(eps x), by default on
    [-300, 300] from ``bvp.initial_guess``."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    g = g or make_grid(-TANH_DOMAIN_HALF, TANH_DOMAIN_HALF, TANH_H)
    if guess is None:
        guess = bvp.initial_guess(g, c, eps)
    return continuation.admissible_solve(
        FrontProfile(c=c, grid=g, u=guess, eps=eps), newton.DEFAULT_TOL)[0]


@dataclass
class InnerScalingReport:
    c_scaled: float
    grid: Grid              # the tanh front's grid
    xs: np.ndarray
    u_tanh: np.ndarray
    u_inner_scaled: np.ndarray
    sup_gap: float
    x_delta_tanh: float
    x_delta_inner_scaled: float
    interface_gap: float


def compare_inner_scaling(eps: float, c_unscaled: float,
                          delta: float = 0.1) -> InnerScalingReport:
    """Compare the tanh-ramp front with the rescaled linear-ramp front.

    The linear-ramp solution at c_scaled = eps^{-1/3} c, rescaled by
    u -> eps^{1/3} u(eps^{1/3} x), should reproduce the tanh front on
    |x| <= eps^{-1/3}, the window compared; interface positions use the
    level delta (inner) and delta * eps^{1/3} (tanh).  The rescaled front,
    extended by the tanh ramp's closure, seeds the tanh solve.
    """
    e13 = eps ** (1.0 / 3.0)
    c_scaled = c_unscaled / e13
    inner = continuation.solve_front(c_scaled)
    g = inner.grid
    rescaled = FrontProfile(c=c_unscaled, grid=Grid(g.x_min / e13, g.x_max / e13, g.n),
                            u=e13 * inner.u, eps=eps)
    tanh_grid = make_grid(-TANH_DOMAIN_HALF, TANH_DOMAIN_HALF, TANH_H)
    front = solve_tanh_front(eps, c_unscaled, tanh_grid,
                             continuation.reinterpolate(rescaled, tanh_grid).u)

    half = 1.0 / e13
    spline_inner = UniformSpline(g.x_min, g.h, inner.u)
    xs = np.linspace(-half, half, max(201, int(20 * half) + 1))
    u_tanh = UniformSpline(front.grid.x_min, front.grid.h, front.u)(xs)
    u_inner_scaled = e13 * spline_inner(e13 * xs)
    sup_gap = float(np.abs(u_tanh - u_inner_scaled).max())

    xd_tanh = diagnostics.front_position(front, delta * e13)
    xd_inner = diagnostics.front_position(inner, delta) / e13

    return InnerScalingReport(
        c_scaled=c_scaled, grid=front.grid, xs=xs,
        u_tanh=u_tanh, u_inner_scaled=u_inner_scaled, sup_gap=sup_gap,
        x_delta_tanh=xd_tanh, x_delta_inner_scaled=xd_inner,
        interface_gap=abs(xd_tanh - xd_inner))
