"""Quantitative validation suite.

Each criterion is a function of a shared AcceptanceContext (which lazily
computes and caches the continuation branches) returning a CriterionResult;
``run_all`` executes the requested subset in order.  The same functions back
both the ``validate`` CLI command and the acceptance test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, bvp, continuation, diagnostics, evolve, newton, spectrum
from .bvp import FrontProfile
from .grid import make_grid

PI_QUARTER_INV = math.pi ** -0.25


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    tolerance: str
    measured: dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0
    details: str = ""


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    vals = " ".join(f"{k}={v:.6g}" for k, v in r.measured.items())
    line = f"{status} {r.number:2d} {r.name}: {vals} [tol {r.tolerance}] ({r.runtime_s:.1f}s)"
    if r.details and not r.passed:
        line += f"\n        {r.details}"
    return line


class AcceptanceContext:
    """Shared, lazily computed artifacts for the criteria."""

    def __init__(self, h: float = bvp.DEFAULT_H):
        self.h = h
        self.cfg = newton.SolverConfig()
        self._anchor: FrontProfile | None = None
        self._branch_down: continuation.Branch | None = None
        self._branch_up: continuation.Branch | None = None
        self._profiles: dict[float, FrontProfile] = {}
        self._spectra: dict[float, spectrum.SpectrumReport] = {}

    def anchor(self) -> FrontProfile:
        if self._anchor is None:
            self._anchor = continuation.solve_front(0.0, cfg=self.cfg, h=self.h)
        return self._anchor

    def branch_down(self) -> continuation.Branch:
        if self._branch_down is None:
            self._branch_down = continuation.continue_branch(
                self.anchor(), -200.0, dc_init=0.25, cfg=self.cfg, h=self.h)
        return self._branch_down

    def branch_up(self) -> continuation.Branch:
        if self._branch_up is None:
            self._branch_up = continuation.continue_branch(
                self.anchor(), 12.0, dc_init=0.25, cfg=self.cfg, h=self.h)
        return self._branch_up

    def profile(self, c: float) -> FrontProfile:
        """Front at exactly c, continued from the nearest branch point."""
        if c in self._profiles:
            return self._profiles[c]
        if c == 0.0:
            p = self.anchor()
        else:
            branch = self.branch_down() if c < 0 else self.branch_up()
            try:
                p = branch.profile_at(c)
            except KeyError:
                cs = branch.cs()
                near = branch.points[int(np.argmin(np.abs(cs - c)))][1]
                p = continuation.continue_branch(
                    near, c, dc_init=abs(c - near.c), cfg=self.cfg,
                    h=self.h).profile_at(c)
        self._profiles[c] = p
        return p

    def spectrum_at(self, c: float, k: int = 5) -> spectrum.SpectrumReport:
        if c not in self._spectra:
            self._spectra[c] = spectrum.leading_eigenvalues(self.profile(c), k)
        return self._spectra[c]


def _timed(fn):
    def wrapper(ctx: AcceptanceContext) -> CriterionResult:
        t0 = time.time()
        result = fn(ctx)
        result.runtime_s = time.time() - t0
        return result
    wrapper.__name__ = fn.__name__
    return wrapper


@_timed
def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """u(0; c) vs (-c)^{1/4} at c = -50, -51, ..., -200: slope within 0.01
    of pi^{-1/4}.  The sample is fixed, so the fit does not depend on where
    the continuation steps land."""
    cs = -np.arange(50.0, 201.0)
    xs = (-cs) ** 0.25
    ys = np.array([diagnostics.u_at_zero(ctx.profile(float(c))) for c in cs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    err = abs(slope - PI_QUARTER_INV)
    return CriterionResult(
        1, "large-negative-c amplitude law", err <= 0.01,
        "slope within pi^(-1/4) +- 0.01",
        {"slope": slope, "target": PI_QUARTER_INV, "error": err,
         "points": len(cs)})


@_timed
def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Front-delay law at c in {8, 10, 12}: |x_delta - (-c^2/4 - Omega0
    (15/16)^{2/3})| <= 0.5."""
    measured = {}
    worst = 0.0
    for c in (8.0, 10.0, 12.0):
        xd = diagnostics.front_position(ctx.profile(c))
        gap = abs(xd - asymptotics.front_loc_largec(c))
        measured[f"gap_c{c:g}"] = gap
        worst = max(worst, gap)
    return CriterionResult(
        2, "front-delay law", worst <= 0.5, "|x_delta - formula| <= 0.5",
        measured,
        details="measured offsets decay like ~3.5 ln(c)/c, exceeding the "
                "0.5 budget at these c (see x_delta columns of a branch run)")


@_timed
def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """Reverse-quench law at c in {-100, -200}: |x_delta - sqrt(-c)| <= 1.0.

    Each measured x_delta is reported next to the closed-form profile's
    level-delta crossing, ``asymptotics.erf_front_position(c)``."""
    measured = {}
    worst = 0.0
    for c in (-100.0, -200.0):
        xd = diagnostics.front_position(ctx.profile(c))
        gap = abs(xd - asymptotics.front_loc_negc(c))
        measured[f"gap_c{c:g}"] = gap
        measured[f"x_delta_c{c:g}"] = xd
        measured[f"x_delta_erf_c{c:g}"] = asymptotics.erf_front_position(c)
        worst = max(worst, gap)
    return CriterionResult(
        3, "reverse-quench law", worst <= 1.0, "|x_delta - sqrt(-c)| <= 1.0",
        measured,
        details="the fixed-level (delta=0.1) crossing tracks the Gaussian "
                "tail at ~sqrt(2|c| ln(u(0)/delta)) rather than sqrt(-c); the "
                "closed-form profile (x_delta_erf) and an independent "
                "collocation solver both give the same crossing")


@_timed
def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """Closed-form agreement at c = -200: sup gap vs the erf profile,
    relative to the profile amplitude, <= 5% on the interface region."""
    p = ctx.profile(-200.0)
    x = p.grid.nodes()
    region = p.u >= 0.1
    region &= x >= p.grid.x_min + 2.0
    gap = np.abs(p.u[region] - asymptotics.erf_profile_vec(x[region], p.c))
    rel = float(gap.max() / p.u[region].max())
    return CriterionResult(
        4, "closed-form erf-profile agreement", rel <= 0.05,
        "sup-norm relative gap <= 5%",
        {"relative_gap": rel, "amplitude": float(p.u[region].max())})


@_timed
def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Spectral negativity across c in {-10,-1,0,1,10} plus the
    harmonic-oscillator eigensolver validation."""
    g = make_grid(-20.0, 20.0, 0.01)
    vals, vec = spectrum.eigenvalues_of_potential(g, g.nodes() ** 2, 6)
    osc_err = float(max(abs(vals[j] + (2 * j + 1)) for j in range(6)))
    measured = {"oscillator_error": osc_err}
    ok = osc_err <= 1e-3 and vec.min() >= -1e-8
    for c in (-10.0, -1.0, 0.0, 1.0, 10.0):
        rep = ctx.spectrum_at(c)
        measured[f"lambda0_c{c:g}"] = float(rep.eigenvalues[0])
        ok &= rep.eigenvalues[0] < -1e-3
        ok &= rep.ground_state.min() >= -1e-8
    return CriterionResult(
        5, "spectral negativity", ok,
        "lambda0 < -1e-3, sign-definite ground state, oscillator oracle 1e-3",
        measured)


@_timed
def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Perturbation decay rate matches |lambda0| within 20% at c in {0, 1}."""
    measured = {}
    ok = True
    for c in (0.0, 1.0):
        p = ctx.profile(c)
        lam0 = float(ctx.spectrum_at(c).eigenvalues[0])
        cfg = evolve.EvolveConfig(c=c, dt=0.01, t_end=25.0, scheme="imex_cn",
                                  record_every=25)
        x = p.grid.nodes()
        bump = 1e-3 * np.exp(-(x - diagnostics.front_position(p)) ** 2)
        result = evolve.evolve(p.u + bump, p.grid, cfg,
                               boundary=evolve.boundary_from_closure(p.grid, cfg),
                               reference=p.u)
        rel = abs(result.measured_rate - lam0) / abs(lam0)
        measured[f"rate_c{c:g}"] = result.measured_rate
        measured[f"lambda0_c{c:g}"] = lam0
        measured[f"rel_err_c{c:g}"] = rel
        ok &= rel <= 0.2
    return CriterionResult(
        6, "dynamical decay rate", ok, "|rate - lambda0| / |lambda0| <= 20%",
        measured)


@_timed
def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Monotonicity suite: profiles decrease in x, branches order in c,
    and two independent seeds agree at c in {0, 3}."""
    measured = {}
    ok = True
    for name, branch in (("down", ctx.branch_down()), ("up", ctx.branch_up())):
        bad = sum(not diagnostics.admissibility(p).strictly_decreasing
                  for _, p in branch.points)
        gap = continuation.pointwise_c_ordering_gap(branch)
        measured[f"nonmonotone_{name}"] = bad
        measured[f"c_order_gap_{name}"] = gap
        ok &= bad == 0 and gap > 0.0

    for c in (0.0, 3.0):
        g = bvp.default_grid(c, ctx.h)
        x = g.nodes()
        interface = asymptotics.front_loc_largec(c) if c > 2 else 0.0
        seed_a = FrontProfile(c=c, grid=g,
                              u=bvp.smooth_sqrt_ramp(x, interface, steepness=0.7))
        ramp_b = (np.sqrt(np.clip(-x, 0.0, None))
                  * 0.5 * (1.0 - np.tanh(0.7 * (x - interface - 0.5))))
        seed_b = FrontProfile(c=c, grid=g, u=ramp_b)
        pa, _ = newton.solve(seed_a, cfg=ctx.cfg)
        pb, _ = newton.solve(seed_b, cfg=ctx.cfg)
        gap = float(np.abs(pa.u - pb.u).max())
        measured[f"uniqueness_gap_c{c:g}"] = gap
        ok &= gap <= 1e-8
    return CriterionResult(
        7, "monotonicity and uniqueness", ok,
        "decreasing profiles; c-ordering; two-seed agreement 1e-8", measured)


@_timed
def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Exactly one root of x u + u^3 (x < 0) for every branch point c >= 0."""
    counts = {}
    ok = True
    for c, p in ctx.branch_up().points:
        n_roots = len(diagnostics.crossings(p))
        counts[f"count_c{c:.4g}"] = n_roots
        ok &= n_roots == 1
    bad = {k: v for k, v in counts.items() if v != 1}
    return CriterionResult(
        8, "crossing uniqueness (c >= 0)", ok, "exactly one root each",
        {"points": len(counts), **bad})


@_timed
def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Tail asymptotics: right-tail log-slope within 5% at c in {0, 1};
    left gap at x=-10, c=0 within 5e-4 of sqrt(10)/8000."""
    measured = {}
    ok = True
    for c in (0.0, 1.0):
        p = ctx.profile(c)
        x = p.grid.nodes()
        window = (x >= 6.0) & (x <= 9.0)
        slope = float(np.polyfit(x[window], np.log(p.u[window]), 1)[0])
        predicted = float(np.mean(
            [asymptotics.right_tail_log_derivative(t, c) for t in x[window]]))
        rel = abs(slope - predicted) / abs(predicted)
        measured[f"logslope_c{c:g}"] = slope
        measured[f"predicted_c{c:g}"] = predicted
        measured[f"rel_err_c{c:g}"] = rel
        ok &= rel <= 0.05

    p0 = ctx.profile(0.0)
    i = int(np.argmin(np.abs(p0.grid.nodes() + 10.0)))
    gap = math.sqrt(10.0) - float(p0.u[i])
    predicted_gap = math.sqrt(10.0) / 8000.0
    measured["left_gap"] = gap
    measured["left_gap_predicted"] = predicted_gap
    ok &= abs(gap - predicted_gap) <= 5e-4
    return CriterionResult(
        9, "tail asymptotics", ok,
        "log-slope 5%; left gap within 5e-4 of prediction", measured)


@_timed
def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """Inner/outer match at eps = 1e-3: sup gap <= 0.05 eps^{1/3} at c=0;
    interface positions within 0.5 across c in [-2 eps^{1/3}, 2 eps^{1/3}]."""
    eps = 1e-3
    e13 = eps ** (1.0 / 3.0)
    rep0 = evolve.compare_inner_scaling(eps, 0.0)
    measured = {"sup_gap_c0": rep0.sup_gap, "gap_tol": 0.05 * e13}
    ok = rep0.sup_gap <= 0.05 * e13
    worst = 0.0
    for c_scaled in (-2.0, -1.0, 0.0, 1.0, 2.0):
        rep = rep0 if c_scaled == 0.0 else evolve.compare_inner_scaling(
            eps, c_scaled * e13)
        measured[f"interface_gap_cs{c_scaled:g}"] = rep.interface_gap
        worst = max(worst, rep.interface_gap)
    ok &= worst <= 0.5
    return CriterionResult(
        10, "inner/outer front match", ok,
        "sup gap <= 0.05 eps^(1/3); interface gaps <= 0.5", measured)


def _convergence_order(apply_fn, exact_fn, h1: float = 0.05) -> float:
    orders = []
    for lo, hi in ((-1.0, 1.0),):
        g1 = make_grid(lo, hi, h1)
        g2 = make_grid(lo, hi, h1 / 2)
        errs = []
        for g in (g1, g2):
            x = g.nodes()
            err = np.abs(apply_fn(g) - exact_fn(x))[3:-3].max()
            errs.append(err)
        orders.append(math.log2(errs[0] / errs[1]))
    return float(np.mean(orders))


@_timed
def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Numerical hygiene: 4th-order operators, Jacobian vs directional
    differences, and domain-doubling insensitivity of u(0; c)."""
    from .grid import d1_apply, d2_apply

    measured = {}
    ok = True
    order_d2 = _convergence_order(lambda g: d2_apply(g, np.sin(g.nodes())),
                                  lambda x: -np.sin(x))
    measured["order_d2"] = order_d2
    ok &= 3.7 <= order_d2 <= 4.3
    for sign in (-1, 0, 1):
        order = _convergence_order(
            lambda g, s=sign: d1_apply(g, np.exp(g.nodes()), s), np.exp)
        measured[f"order_d1_sign{sign:+d}"] = order
        ok &= 3.7 <= order <= 4.3

    p = ctx.profile(0.0)
    x = p.grid.nodes()
    # amplitude 3 keeps ||Jv|| well above the eps*|u|/h^2/t cancellation
    # floor of the differenced stencil applications
    v = 3.0 * np.cos(0.3 * x) * np.exp(-((x + 2.0) / 8.0) ** 2)
    t = 1e-6
    f0 = bvp.residual(p)
    shifted = FrontProfile(c=p.c, grid=p.grid, u=p.u + t * v)
    fd = (bvp.residual(shifted) - f0) / t
    jv = bvp.jacobian(p).matvec(v)
    rel = float(np.abs(fd - jv).max() / np.abs(jv).max())
    measured["jacobian_fd_rel"] = rel
    ok &= rel <= 1e-5

    for c in (0.0, 5.0):
        base = ctx.profile(c) if c == 0.0 else continuation.solve_front(c, cfg=ctx.cfg)
        lo, hi = base.grid.x_min, base.grid.x_max
        big = make_grid(2 * lo, 2 * hi, ctx.h)
        seed = continuation.reinterpolate(base, big)
        seed = FrontProfile(c=c, grid=big, u=seed.u)
        solved, _ = newton.solve(seed, cfg=ctx.cfg)
        change = abs(diagnostics.u_at_zero(solved) - diagnostics.u_at_zero(base))
        measured[f"u0_change_c{c:g}"] = change
        ok &= change < 1e-6
    return CriterionResult(
        11, "numerical hygiene", ok,
        "orders in [3.7, 4.3]; Jacobian 1e-5; domain doubling 1e-6", measured)


CRITERIA = {i: fn for i, fn in enumerate(
    (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
     criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
     criterion_11), start=1)}


def run_all(ctx: AcceptanceContext | None = None,
            only: set[int] | None = None) -> list[CriterionResult]:
    ctx = ctx or AcceptanceContext()
    results = []
    for number, fn in CRITERIA.items():
        if only is not None and number not in only:
            continue
        results.append(fn(ctx))
    return results
