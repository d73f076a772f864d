"""Method-of-lines time integration of u_t = u_xx + c u_x - r(x) u - u^3.

The linear spatial operator (diffusion, drift, and the ramp coefficient
r(x), which is stiff for large |x|) is implicit, LU-factored once per
stepper so each step only back-substitutes; the cubic reaction is explicit.
Two schemes: IMEX Euler and Crank-Nicolson with Adams-Bashforth-2 on the
reaction.  The spatial discretization is the same fourth-order operator the
Newton solver uses, so Newton solutions are exact discrete fixed points.

The tanh-ramp variant (r = tanh(eps x)) is the full slow-quench model; its
steady fronts are compared against inner rescalings of the linear-ramp
fronts, u ~ eps^{1/3} u_lin(eps^{1/3} x; eps^{-1/3} c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bvp, continuation, newton
from .bvp import BoundaryClosure, FrontProfile
from .grid import BandedLU, Grid, UniformSpline, make_grid

TANH_DOMAIN_HALF = 300.0   # solve domain for the tanh-ramp equation
TANH_H = 0.05


@dataclass
class EvolveConfig:
    ramp: str = "linear"          # "linear" | "tanh" | "none"
    epsilon: float = 1e-3         # tanh ramp gradient
    c: float = 0.0
    dt: float = 0.01
    t_end: float = 200.0
    scheme: str = "imex_cn"       # "imex_euler" | "imex_cn"
    record_every: int = 10
    include_cubic: bool = True    # disabled only by conservation checks

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("imex_euler", "imex_cn"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.ramp not in ("linear", "tanh", "none"):
            raise ValueError(f"unknown ramp {self.ramp!r}")
        if self.ramp == "tanh" and not 0.0 < self.epsilon < 1.0:
            raise ValueError("tanh ramp requires epsilon in (0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class EvolveResult:
    final: FrontProfile
    deviation_history: list[tuple[float, float]] = field(default_factory=list)
    measured_rate: float = math.nan


class BlowUpError(RuntimeError):
    pass


def ramp_values(g: Grid, cfg: EvolveConfig) -> np.ndarray:
    if cfg.ramp == "linear":
        return g.nodes()
    if cfg.ramp == "tanh":
        return np.tanh(cfg.epsilon * g.nodes())
    return np.zeros(g.n)


class ImexStepper:
    """One-step integrator holding the LU factors of its implicit systems.

    Boundary rows of every implicit solve are identity rows pinning the
    state to the supplied Dirichlet values.  The Crank-Nicolson scheme
    starts with two implicit-Euler steps (Rannacher smoothing): CN alone is
    not L-stable and rings for many time units when the initial data has
    under-resolved features.
    """

    STARTUP_EULER_STEPS = 2

    def __init__(self, g: Grid, cfg: EvolveConfig,
                 boundary: tuple[float, float] = (0.0, 0.0)):
        self.grid = g
        self.cfg = cfg
        self.boundary = boundary
        self._a = bvp._drift_diffusion_band(g, cfg.c).copy()  # boundary rows zero
        diag = -ramp_values(g, cfg)
        diag[0] = diag[-1] = 0.0
        self._a.add_diagonal(diag)

        self._lu_euler = self._factor(cfg.dt)
        self._lu_cn = self._factor(0.5 * cfg.dt) if cfg.scheme == "imex_cn" else None
        self._n_prev: np.ndarray | None = None
        self._steps_taken = 0

    def _factor(self, weight: float) -> BandedLU:
        lhs = self._a.copy()
        lhs.data *= -weight
        lhs.add_diagonal(np.ones(self.grid.n))
        lhs.set_identity_row(0)
        lhs.set_identity_row(self.grid.n - 1)
        return BandedLU(lhs)

    def _nonlinear(self, u: np.ndarray) -> np.ndarray:
        if not self.cfg.include_cubic:
            return np.zeros_like(u)
        with np.errstate(over="ignore", invalid="ignore"):
            return -u ** 3

    def step(self, u: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        u = np.asarray(u, dtype=float)
        n_cur = self._nonlinear(u)
        use_euler = (cfg.scheme == "imex_euler"
                     or self._steps_taken < self.STARTUP_EULER_STEPS)
        if use_euler:
            lu = self._lu_euler
            rhs = u + cfg.dt * n_cur
        else:
            lu = self._lu_cn
            n_old = self._n_prev if self._n_prev is not None else n_cur
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = (u + 0.5 * cfg.dt * self._a.matvec(u)
                       + cfg.dt * (1.5 * n_cur - 0.5 * n_old))
        rhs[0] = self.boundary[0]
        rhs[-1] = self.boundary[1]
        if not np.all(np.isfinite(rhs)):
            raise BlowUpError("non-finite state entering implicit solve")
        out = lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise BlowUpError("non-finite state after implicit solve")
        self._n_prev = n_cur
        self._steps_taken += 1
        return out


def boundary_from_closure(g: Grid, cfg: EvolveConfig,
                          bc: BoundaryClosure | None = None) -> tuple[float, float]:
    bc = bc or BoundaryClosure()
    if bc.kind == "dirichlet_zero" or cfg.ramp == "none":
        return 0.0, 0.0
    if cfg.ramp == "tanh":
        return math.sqrt(math.tanh(-cfg.epsilon * g.x_min)), 0.0
    return bc.left_value(cfg.c, g.x_min), bc.right_value(cfg.c, g.x_max)


def evolve(u0: np.ndarray, g: Grid, cfg: EvolveConfig,
           boundary: tuple[float, float] = (0.0, 0.0),
           reference: np.ndarray | None = None) -> EvolveResult:
    """Integrate to t_end, recording sup-norm deviations from ``reference``
    (default: the initial state) every ``record_every`` steps."""
    stepper = ImexStepper(g, cfg, boundary)
    u = np.asarray(u0, dtype=float).copy()
    ref = u.copy() if reference is None else np.asarray(reference, dtype=float)
    n_steps = int(round(cfg.t_end / cfg.dt))
    history = [(0.0, float(np.abs(u - ref).max()))]
    for k in range(1, n_steps + 1):
        try:
            u = stepper.step(u)
        except BlowUpError as exc:
            raise BlowUpError(f"blow-up at step {k} (t={k * cfg.dt:.4g})") from exc
        if k % cfg.record_every == 0 or k == n_steps:
            history.append((k * cfg.dt, float(np.abs(u - ref).max())))

    r = ramp_values(g, cfg)
    res = bvp.stationary_residual(g, u, cfg.c, boundary[0], boundary[1], ramp=r)
    final = FrontProfile(c=cfg.c, grid=g, u=u,
                         residual_norm=float(np.abs(res).max()), converged=False)
    return EvolveResult(final=final, deviation_history=history,
                        measured_rate=measured_rate(history))


def measured_rate(history: list[tuple[float, float]]) -> float:
    """Log-slope of the deviation tail: least-squares fit of ln(dev) vs t
    over samples past the initial transient and above the roundoff floor."""
    t = np.array([h[0] for h in history])
    d = np.array([h[1] for h in history])
    if len(d) < 4 or d[0] == 0:
        return math.nan
    floor = max(1e-12, 1e-8 * d.max())
    mask = (d > floor) & (d < 0.5 * d[0]) & (t > 0)
    if mask.sum() < 3:
        return math.nan
    coeffs = np.polyfit(t[mask], np.log(d[mask]), 1)
    return float(coeffs[0])


def solve_tanh_front(eps: float, c: float, g: Grid | None = None,
                     guess: np.ndarray | None = None,
                     cfg: newton.SolverConfig | None = None) -> FrontProfile:
    """Steady front of the tanh-ramp equation by Newton iteration.

    Left boundary pinned to the local equilibrium sqrt(tanh(-eps x_min)),
    right to zero.  The returned profile's residual_norm refers to the
    tanh-ramp system.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    g = g or make_grid(-TANH_DOMAIN_HALF, TANH_DOMAIN_HALF, TANH_H)
    ramp = np.tanh(eps * g.nodes())
    gl = math.sqrt(math.tanh(-eps * g.x_min))
    if guess is None:
        from . import asymptotics
        x = g.nodes()
        e13 = eps ** (1.0 / 3.0)
        c_scaled = c / e13
        if c_scaled > 2.0:
            interface = asymptotics.front_loc_largec(c_scaled) / e13
        elif c_scaled < -2.0:
            interface = asymptotics.erf_front_position(c_scaled) / e13
        else:
            interface = 0.0
        guess = (np.sqrt(np.maximum(np.tanh(-eps * x), 0.0))
                 * 0.5 * (1.0 - np.tanh(e13 * (x - interface))))
        guess = np.maximum(guess, 0.0)
    u, report = newton.solve_system(
        lambda v: bvp.stationary_residual(g, v, c, gl, 0.0, ramp=ramp),
        lambda v: bvp.stationary_jacobian(g, v, c, ramp=ramp),
        guess, cfg)
    return FrontProfile(c=c, grid=g, u=u, residual_norm=report.final_residual,
                        converged=report.converged)


@dataclass
class InnerScalingReport:
    eps: float
    c: float
    c_scaled: float
    xs: np.ndarray
    u_tanh: np.ndarray
    u_inner_scaled: np.ndarray
    sup_gap: float
    x_delta_tanh: float
    x_delta_inner_scaled: float
    interface_gap: float
    evolution_deviation: float | None = None


def compare_inner_scaling(eps: float, c_unscaled: float, delta: float = 0.1,
                          window_half: float | None = None,
                          verify_with_evolution: bool = False) -> InnerScalingReport:
    """Compare the tanh-ramp front with the rescaled linear-ramp front.

    The linear-ramp solution at c_scaled = eps^{-1/3} c, rescaled by
    u -> eps^{1/3} u(eps^{1/3} x), should reproduce the tanh front on
    |x| <= eps^{-1/3}; interface positions use the level delta (inner) and
    delta * eps^{1/3} (tanh).
    """
    e13 = eps ** (1.0 / 3.0)
    c_scaled = c_unscaled / e13
    inner = continuation.solve_front(c_scaled)
    tanh_guess_grid = make_grid(-TANH_DOMAIN_HALF, TANH_DOMAIN_HALF, TANH_H)
    spline_inner = UniformSpline(inner.grid.x_min, inner.grid.h, inner.u)

    xg = tanh_guess_grid.nodes()
    guess = np.empty(tanh_guess_grid.n)
    scaled_x = e13 * xg
    inside = (scaled_x >= inner.grid.x_min) & (scaled_x <= inner.grid.x_max)
    guess[inside] = e13 * spline_inner(scaled_x[inside])
    left = scaled_x < inner.grid.x_min
    guess[left] = np.sqrt(np.maximum(np.tanh(-eps * xg[left]), 0.0))
    guess[scaled_x > inner.grid.x_max] = 0.0
    guess = np.maximum(guess, 0.0)
    front = solve_tanh_front(eps, c_unscaled, tanh_guess_grid, guess)

    half = window_half if window_half is not None else 1.0 / e13
    xs = np.linspace(-half, half, max(201, int(20 * half) + 1))
    u_tanh = UniformSpline(front.grid.x_min, front.grid.h, front.u)(xs)
    u_inner_scaled = e13 * spline_inner(e13 * xs)
    sup_gap = float(np.abs(u_tanh - u_inner_scaled).max())

    from .diagnostics import front_position
    xd_tanh = front_position(front, delta * e13)
    xd_inner = front_position(inner, delta) / e13

    evo_dev = None
    if verify_with_evolution:
        cfg = EvolveConfig(ramp="tanh", epsilon=eps, c=c_unscaled, dt=0.05,
                           t_end=20.0, scheme="imex_cn", record_every=20)
        bump = 1e-3 * np.exp(-(front.grid.nodes() - xd_tanh) ** 2)
        res = evolve(front.u + bump, front.grid, cfg,
                     boundary=boundary_from_closure(front.grid, cfg),
                     reference=front.u)
        evo_dev = res.deviation_history[-1][1]

    return InnerScalingReport(
        eps=eps, c=c_unscaled, c_scaled=c_scaled, xs=xs, u_tanh=u_tanh,
        u_inner_scaled=u_inner_scaled, sup_gap=sup_gap, x_delta_tanh=xd_tanh,
        x_delta_inner_scaled=xd_inner,
        interface_gap=abs(xd_tanh - xd_inner), evolution_deviation=evo_dev)
