"""Quantitative validation suite.

Each criterion is a function of a shared AcceptanceContext (which lazily
computes and caches fronts, spectra and continuation branches) returning a
CriterionResult; ``run_all`` executes the requested subset in order on a
fresh context.  The same functions back both the ``validate`` CLI command
and the acceptance test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, bvp, continuation, diagnostics, evolve, newton, spectrum
from .bvp import FrontProfile
from .grid import d1_band, d2_band, make_grid

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

    def __init__(self):
        self._branches: dict[float, continuation.Branch] = {}
        self._profiles: dict[float, FrontProfile] = {}
        self._spectra: dict[float, spectrum.SpectrumReport] = {}

    def branch(self, c_target: float) -> continuation.Branch:
        """The branch continued from the c = 0 front to c_target."""
        if c_target not in self._branches:
            self._branches[c_target] = continuation.continue_branch(self.profile(0.0), c_target)
        return self._branches[c_target]

    def profile(self, c: float) -> FrontProfile:
        """The admissible front at c on its default grid: ``solve_front(c)``."""
        if c not in self._profiles:
            self._profiles[c] = continuation.solve_front(c)
        return self._profiles[c]

    def spectrum_at(self, c: float) -> spectrum.SpectrumReport:
        """lambda0 and the ground state (the criteria read nothing else)."""
        if c not in self._spectra:
            self._spectra[c] = spectrum.leading_eigenvalues(self.profile(c), 1)
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
    of pi^{-1/4}, each front solved directly at its c."""
    cs = -np.arange(50.0, 201.0)
    xs = (-cs) ** 0.25
    ys = np.array([diagnostics.u_at_zero(ctx.profile(float(c))) for c in cs])
    slope = diagnostics.line_slope(xs, ys)
    err = abs(slope - PI_QUARTER_INV)
    return CriterionResult(
        1, "large-negative-c amplitude law", err <= 0.01,
        "slope within pi^(-1/4) +- 0.01",
        {"slope": slope, "target": PI_QUARTER_INV, "error": err,
         "points": len(cs)})


@_timed
def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Front-delay law at c in {8, 10, 12}: |x_delta - (-c^2/4 - Omega0
    (15/16)^{2/3})| <= 0.5.  Also reports decay_k, the least-squares k of
    gap = k ln(c)/c over the three offsets."""
    cs = np.array([8.0, 10.0, 12.0])
    gaps = np.array([abs(diagnostics.front_position(ctx.profile(c))
                         - asymptotics.front_loc_largec(c)) for c in cs])
    measured = {f"gap_c{c:g}": float(gap) for c, gap in zip(cs, gaps)}
    shape = np.log(cs) / cs
    k = float(np.sum(shape * gaps) / np.sum(shape * shape))
    measured["decay_k"] = k
    return CriterionResult(
        2, "front-delay law", bool(gaps.max() <= 0.5), "|x_delta - formula| <= 0.5",
        measured,
        details=f"measured offsets decay like ~{k:.2f} ln(c)/c (decay_k), "
                f"exceeding the 0.5 budget at these c (see x_delta columns of "
                f"a branch run)")


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
                "collocation solver (tests/test_collocation_oracle.py) both "
                "give the same crossing")


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
    osc = spectrum.eigenvalues_of_potential(g, g.nodes() ** 2, 6)
    osc_err = float(max(abs(osc.eigenvalues[j] + (2 * j + 1)) for j in range(6)))
    measured = {"oscillator_error": osc_err}
    ok = osc_err <= 1e-3 and osc.ground_state.min() >= -1e-8
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
        x = p.grid.nodes()
        bump = 1e-3 * np.exp(-(x - diagnostics.front_position(p)) ** 2)
        result = evolve.evolve(p, p.u + bump, dt=0.01, t_end=25.0, record_every=25)
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
    """Monotonicity suite: every branch point passes the admissibility
    verdict, branches order in c, and two independent seeds agree at c in
    {0, 3}."""
    measured = {}
    ok = True
    for name, branch in (("down", ctx.branch(-200.0)), ("up", ctx.branch(12.0))):
        bad = sum(bool(diagnostics.admissibility(p)) for _, p in branch.points)
        gap = continuation.pointwise_c_ordering_gap(branch)
        measured[f"nonmonotone_{name}"] = bad
        measured[f"c_order_gap_{name}"] = gap
        ok &= bad == 0 and gap > 0.0

    for c in (0.0, 3.0):
        g = bvp.default_grid(c)
        x = g.nodes()
        interface = asymptotics.front_loc_largec(c) if c > 2 else 0.0
        seed_a = FrontProfile(c=c, grid=g,
                              u=bvp.smooth_sqrt_ramp(x, interface, steepness=0.7))
        ramp_b = (np.sqrt(np.clip(-x, 0.0, None))
                  * 0.5 * (1.0 - np.tanh(0.7 * (x - interface - 0.5))))
        seed_b = FrontProfile(c=c, grid=g, u=ramp_b)
        pa, _ = newton.solve(seed_a)
        pb, _ = newton.solve(seed_b)
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
    for c, p in ctx.branch(12.0).points:
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
        slope = diagnostics.line_slope(x[window], np.log(p.u[window]))
        predicted = float(np.mean(asymptotics.right_tail_log_derivative(x[window], c)))
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


def _convergence_order(apply_fn, exact_fn) -> float:
    """Observed order of ``apply_fn`` on [-1, 1] from h = 0.05 to 0.025,
    with the error taken 3 nodes inside the boundary."""
    errs = []
    for h in (0.05, 0.025):
        g = make_grid(-1.0, 1.0, h)
        errs.append(np.abs(apply_fn(g) - exact_fn(g.nodes()))[3:-3].max())
    return math.log2(errs[0] / errs[1])


@_timed
def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Numerical hygiene: 4th-order operators, Jacobian vs directional
    differences, and domain-doubling insensitivity of u(0; c)."""
    measured = {}
    ok = True
    order_d2 = _convergence_order(lambda g: d2_band(g).matvec(np.sin(g.nodes())),
                                  lambda x: -np.sin(x))
    measured["order_d2"] = order_d2
    ok &= 3.7 <= order_d2 <= 4.3
    for sign in (-1, 0, 1):
        order = _convergence_order(
            lambda g, s=sign: d1_band(g, s).matvec(np.exp(g.nodes())), np.exp)
        measured[f"order_d1_sign{sign:+d}"] = order
        ok &= 3.7 <= order <= 4.3

    p = ctx.profile(0.0)
    x = p.grid.nodes()
    # amplitude 3 keeps ||Jv|| well above the eps*|u|/h^2/t cancellation
    # floor of the differenced stencil applications
    v = 3.0 * np.cos(0.3 * x) * np.exp(-((x + 2.0) / 8.0) ** 2)
    t = 1e-6
    f0 = bvp.stationary_residual(p, p.u)
    fd = (bvp.stationary_residual(p, p.u + t * v) - f0) / t
    jv = bvp.stationary_jacobian(p, p.u).matvec(v)
    rel = float(np.abs(fd - jv).max() / np.abs(jv).max())
    measured["jacobian_fd_rel"] = rel
    ok &= rel <= 1e-5

    for c in (0.0, 5.0):
        base = ctx.profile(c)
        lo, hi = base.grid.x_min, base.grid.x_max
        big = make_grid(2 * lo, 2 * hi, bvp.DEFAULT_H)
        solved, _ = newton.solve(continuation.reinterpolate(base, big))
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


def run_all(only: set[int] | None = None) -> list[CriterionResult]:
    """Run the criteria numbered in ``only`` (all when None) in order."""
    unknown = sorted(set(only or ()) - CRITERIA.keys())
    if unknown:
        raise ValueError(f"unknown criteria {unknown}: criteria are numbered "
                         f"{min(CRITERIA)}-{max(CRITERIA)}")
    ctx = AcceptanceContext()
    return [fn(ctx) for number, fn in CRITERIA.items()
            if only is None or number in only]
