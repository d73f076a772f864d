import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from quenchfront import bvp, continuation, diagnostics, evolve, grid, spectrum
from quenchfront.bvp import FrontProfile
from quenchfront.evolve import (BlowUpError, EvolveConfig, ImexStepper,
                                compare_inner_scaling, measured_rate,
                                solve_tanh_front)
from quenchfront.grid import (BandedMatrix, UnpivotedBandedLU, d1_band, d2_band,
                             fd_weights, make_grid)
from quenchfront.newton import SolverError


def closure_rows(a, front):
    """Row 0 := the identity (left Dirichlet row); row n-1 := the Robin row
    u' - L u of ``front`` on the last five nodes, written entry by entry."""
    g = front.grid
    a.set_identity_row(0)
    ell = bvp.right_log_derivative(front.c, g.x_max, front.eps)
    weights = fd_weights(0.0, np.arange(-4.0, 1.0), 1) / g.h
    for k in range(5):   # entry (n-1, n-5+k) sits at data[p + 4 - k, n-5+k]
        a.data[a.bandwidth + 4 - k, g.n - 5 + k] = weights[k] - ell * (k == 4)


def implicit_matrix(a, weight, front=None):
    """I - weight A with the closure rows of ``front``, as ImexStepper
    factors it, or with identity boundary rows."""
    lhs = a.copy()
    lhs.data *= -weight
    lhs.data[lhs.bandwidth] += 1.0
    if front is None:
        lhs.set_identity_row(0)
        lhs.set_identity_row(lhs.n - 1)
    else:
        closure_rows(lhs, front)
    return lhs


class PivotedFactor:
    """Reference pivoted banded LU: scipy's LAPACK dgbtrf once, then dgbtrs
    at every solve."""

    def __init__(self, a):
        p = self.p = a.bandwidth
        ab = np.zeros((3 * p + 1, a.n))   # p extra rows for U's fill-in
        ab[p:] = a.data
        self.lu, self.piv, info = scipy.linalg.lapack.dgbtrf(ab, p, p)
        assert info == 0

    def solve(self, b):
        return scipy.linalg.lapack.dgbtrs(self.lu, self.p, self.p, b, self.piv)[0]


class RefactorEachStep:
    """Reference implicit solve: UnpivotedBandedLU re-run on the unfactored
    left-hand side at every call."""

    def __init__(self, a):
        self.a = a

    def solve(self, b):
        return UnpivotedBandedLU(self.a).solve(b)


class SolveBandedEachStep:
    """Reference implicit solve: scipy.linalg.solve_banded on the unfactored
    left-hand side at every call."""

    def __init__(self, a):
        self.a = a

    def solve(self, b):
        p = self.a.bandwidth
        return scipy.linalg.solve_banded((p, p), self.a.data, b)


class MatvecImexStepper:
    """Reference CN/AB2 stepper with the textbook right-hand side
    u + dt/2 J u + dt (3/2 N_n - 1/2 N_{n-1}), J = A - 3 u*^2 Newton's
    Jacobian at the front u* applied by a matvec at every step and
    N = -u^3 + 3 u*^2 u, after ImexStepper's start-up steps of two
    backward-Euler half-steps each, all on one pivoted factor of
    I - dt/2 J."""

    def __init__(self, front, dt):
        g = front.grid
        self.a = bvp.stationary_jacobian(front, front.u)
        self.three_sq = 3.0 * front.u ** 2
        self.dt, self.half = dt, 0.5 * dt
        self.boundary = (bvp.left_value(front.c, g.x_min, front.eps), 0.0)
        self.lu = PivotedFactor(implicit_matrix(self.a, self.half, front))
        self.n_prev = None
        self.steps = 0

    def solve(self, rhs):
        rhs[0], rhs[-1] = self.boundary
        return self.lu.solve(rhs)

    def step(self, u):
        n_cur = -u ** 3 + self.three_sq * u
        if self.steps < ImexStepper.STARTUP_EULER_STEPS:
            mid = self.solve(u + self.half * n_cur)
            rhs = mid + self.half * (-mid ** 3 + self.three_sq * mid)
        else:
            rhs = (u + self.half * self.a.matvec(u)
                   + self.dt * (1.5 * n_cur - 0.5 * self.n_prev))
        self.n_prev = n_cur
        self.steps += 1
        return self.solve(rhs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolveConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            EvolveConfig(dt=0.01, t_end=1.0, record_every=0)


class TestStepper:
    def test_stationary_profile_is_fixed_point(self, hm_profile):
        st = ImexStepper(hm_profile, 0.01)
        u = hm_profile.u.copy()
        for _ in range(100):
            u = st.step(u)
        assert np.abs(u - hm_profile.u).max() <= 1e-8  # per unit time

    def test_zero_state_invariant(self):
        # on x >= 0 the tanh ramp is positive and both Dirichlet values
        # vanish, so the quenched state u = 0 is an exact fixed point
        g = make_grid(0.0, 20.0, 0.1)
        front = FrontProfile(c=0.0, grid=g, u=np.zeros(g.n), eps=0.1)
        st = ImexStepper(front, 0.01)
        u = np.zeros(g.n)
        for _ in range(ImexStepper.STARTUP_EULER_STEPS + 2):
            u = st.step(u)
        assert np.all(u == 0.0)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_factored_step_equals_refactored_step_bitwise(self, monkeypatch, c):
        g = bvp.default_grid(c, 0.05)
        front = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c))
        factored = ImexStepper(front, 0.01)
        monkeypatch.setattr(evolve, "UnpivotedBandedLU", RefactorEachStep)
        reference = ImexStepper(front, 0.01)
        u = v = front.u
        for _ in range(ImexStepper.STARTUP_EULER_STEPS + 3):
            u, v = factored.step(u), reference.step(v)
            assert u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_step_matches_pivoted_solve_banded(self, monkeypatch, c):
        # unpivoted and pivoted LU round differently; measured gap ~1e-15
        g = bvp.default_grid(c, 0.05)
        front = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c))
        factored = ImexStepper(front, 0.01)
        monkeypatch.setattr(evolve, "UnpivotedBandedLU", SolveBandedEachStep)
        reference = ImexStepper(front, 0.01)
        u = v = front.u
        for _ in range(ImexStepper.STARTUP_EULER_STEPS + 3):
            u, v = factored.step(u), reference.step(v)
            assert np.abs(u - v).max() <= 1e-13 * np.abs(v).max()

    def test_step_is_two_triangular_sweeps_and_no_dgbtrs(self, hm_profile, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pivoted banded solve called")

        sweeps = []
        dtbtrs = grid.flapack.dtbtrs

        def counted(ab, b, **kwargs):
            sweeps.append((kwargs.get("uplo", "U"), kwargs.get("diag", "N")))
            return dtbtrs(ab, b, **kwargs)

        monkeypatch.setattr(grid.flapack, "dgbtrs", refuse)
        monkeypatch.setattr(grid.flapack, "dgbsv", refuse)
        monkeypatch.setattr(grid.flapack, "dtbtrs", counted)
        st = ImexStepper(hm_profile, 0.01)
        sweeps.clear()   # the factors' probe solves
        u = hm_profile.u + 1e-3
        for _ in range(10):
            u = st.step(u)
        # each start-up step is two half-step solves; U is stored with a unit
        # diagonal, so neither sweep divides
        assert sweeps == [("L", "U"), ("U", "U")] * (10 + ImexStepper.STARTUP_EULER_STEPS)

    @pytest.mark.parametrize("c, eps", [(-200.0, None), (0.0, None), (12.0, None), (0.3, 0.01)])
    def test_matrix_is_i_minus_half_dt_a_with_closure_rows(self, c, eps, monkeypatch):
        # A = D2 + c D1 - r assembled from its parts, made into I - (dt/2) A
        # with the closure rows written by hand: the stepper factors that matrix
        g = bvp.default_grid(c, 0.04) if eps is None else make_grid(-150.0, 150.0, 0.5)
        front = FrontProfile(c=c, grid=g, u=np.zeros(g.n), eps=eps)
        a = BandedMatrix(g.n, 4, d2_band(g).data + c * d1_band(g, int(np.sign(c))).data)
        a.data[4] -= bvp.ramp(g, eps)
        closure_rows(a, front)
        factored = []

        class Recorded(UnpivotedBandedLU):
            def __init__(self, m):
                factored.append(m)
                super().__init__(m)

        monkeypatch.setattr(evolve, "UnpivotedBandedLU", Recorded)
        ImexStepper(front, 0.01)
        assert np.array_equal(factored[0].data, implicit_matrix(a, 0.005, front).data)

    def test_one_factor_per_run(self, hm_profile, monkeypatch):
        factors = []

        class Counted(UnpivotedBandedLU):
            def __init__(self, a):
                factors.append(a)
                super().__init__(a)

        monkeypatch.setattr(evolve, "UnpivotedBandedLU", Counted)
        evolve.evolve(hm_profile, hm_profile.u + 1e-3, EvolveConfig(dt=0.01, t_end=0.5))
        assert len(factors) == 1

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(-200.0, 13.0), theta=st.floats(5e-4, 5.0),
           h=st.sampled_from([0.04, 0.02, 0.01]), eps=st.sampled_from([None, 0.001, 0.1]))
    @example(c=0.0, theta=0.5, h=0.01, eps=None)   # worst of a 405-matrix scan: 7.6e-14
    @example(c=-200.0, theta=5.0, h=0.01, eps=None)
    def test_unpivoted_factor_is_backward_stable(self, c, theta, h, eps):
        # the stepper's matrices on either ramp and at step sizes well past
        # those in use: without pivoting, stability rests on small growth
        g = bvp.default_grid(c, h)
        front = FrontProfile(c=c, grid=g, u=np.zeros(g.n), eps=eps)
        a = implicit_matrix(bvp.stationary_jacobian(front, front.u), theta, front)
        b = np.random.default_rng(0).standard_normal(g.n)
        x = UnpivotedBandedLU(a).solve(b)
        scale = np.abs(a.data).sum(axis=0).max() * np.abs(x).max() + np.abs(b).max()
        assert np.abs(a.matvec(x) - b).max() <= 1e-12 * scale

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_carried_rhs_matches_the_matvec_step(self, c):
        front = continuation.solve_front(c)
        x = front.grid.nodes()
        carried, reference = ImexStepper(front, 0.01), MatvecImexStepper(front, 0.01)
        u = v = front.u + 1e-3 * np.exp(-(x - diagnostics.front_position(front)) ** 2)
        worst = 0.0
        for _ in range(200):
            u, v = carried.step(u), reference.step(v)
            worst = max(worst, float(np.abs(u - v).max()))
        assert worst <= 1e-12

    def test_steps_without_a_matvec(self, hm_profile, monkeypatch):
        def refuse(self, u):
            raise AssertionError("matvec called")

        monkeypatch.setattr(BandedMatrix, "matvec", refuse)
        st = ImexStepper(hm_profile, 0.01)
        u = hm_profile.u + 1e-3
        for _ in range(50):
            u = st.step(u)
        assert np.all(np.isfinite(u))

    def test_step_takes_only_its_last_output(self, hm_profile):
        st = ImexStepper(hm_profile, 0.01)
        u = st.step(hm_profile.u.copy())
        with pytest.raises(ValueError, match="last"):
            st.step(u.copy())
        # the refused call changed nothing: the next step is a start-up step
        assert np.array_equal(st.step(u), ImexStepper(hm_profile, st.dt).step(u))

    def test_boundary_values_come_from_the_front(self, hm_profile):
        g = make_grid(-150.0, 150.0, 0.5)
        tanh_front = FrontProfile(c=0.3, grid=g, u=np.zeros(g.n), eps=0.01)
        for front in (hm_profile, tanh_front):
            g = front.grid
            u = ImexStepper(front, 0.01).step(np.ones(g.n))
            assert u[0] == pytest.approx(
                bvp.left_value(front.c, g.x_min, front.eps), rel=1e-14)
            # Newton's Robin row, with right-hand side 0
            robin = np.array([0.25, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0]) / g.h
            robin[-1] -= bvp.right_log_derivative(front.c, g.x_max, front.eps)
            assert robin @ u[-5:] == pytest.approx(0.0, abs=1e-14 * np.abs(robin).sum())

    def test_comparison_principle_spot_check(self, hm_profile):
        x = hm_profile.grid.nodes()
        hi = hm_profile.u + 1e-3 * np.exp(-(x - 1.0) ** 2)
        lo = hm_profile.u.copy()
        st_hi, st_lo = ImexStepper(hm_profile, 0.01), ImexStepper(hm_profile, 0.01)
        for _ in range(50):
            hi = st_hi.step(hi)
            lo = st_lo.step(lo)
        assert np.min(hi - lo) >= -1e-10

    def test_diffusion_only_conserves_mass(self):
        # implicit Euler for u_t = u_xx with zero Dirichlet data solves
        # (I - dt D2) u_next = u; D2 annihilates constants, so mass is kept
        g = make_grid(-30.0, 15.0, 0.01)
        lu = PivotedFactor(implicit_matrix(d2_band(g), 0.01))
        x = g.nodes()
        u = np.exp(-x ** 2)
        before = trapezoid(u, x)
        for _ in range(100):
            u[0] = u[-1] = 0.0
            u = lu.solve(u)
        assert abs(trapezoid(u, x) - before) <= 1e-10 * before

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_carried_state_raises(self, hm_profile, bad):
        # the one finiteness check is on each solve's output: a non-finite
        # right-hand side entry must still reach it
        st = ImexStepper(hm_profile, 0.01)
        u = hm_profile.u + 1e-3
        for _ in range(ImexStepper.STARTUP_EULER_STEPS + 2):
            u = st.step(u)
        st._carry[hm_profile.grid.n // 2] = bad
        with pytest.raises(BlowUpError, match="non-finite"):
            st.step(u)

    def test_blow_up_reported_with_step_index(self, hm_profile):
        cfg = EvolveConfig(dt=1.0, t_end=50.0)
        with pytest.raises(BlowUpError, match="step"):
            evolve.evolve(hm_profile, 50.0 * np.ones(hm_profile.grid.n), cfg)


class TestEvolveRuns:
    def test_perturbation_decay_matches_lambda0(self, hm_profile):
        lam0 = spectrum.leading_eigenvalues(hm_profile, 1).eigenvalues[0]
        cfg = EvolveConfig(dt=0.01, t_end=20.0, record_every=20)
        x = hm_profile.grid.nodes()
        bump = 1e-3 * np.exp(-(x - diagnostics.front_position(hm_profile)) ** 2)
        res = evolve.evolve(hm_profile, hm_profile.u + bump, cfg)
        assert abs(res.measured_rate - lam0) / abs(lam0) <= 0.2

    def test_deviation_history_decreases_after_transient(self, hm_profile):
        cfg = EvolveConfig(dt=0.01, t_end=5.0, record_every=50)
        x = hm_profile.grid.nodes()
        bump = 1e-3 * np.exp(-x ** 2)
        res = evolve.evolve(hm_profile, hm_profile.u + bump, cfg)
        devs = [d for _, d in res.deviation_history]
        tail = devs[max(1, len(devs) // 5):]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_steady_state_limit_equals_newton_solution(self, hm_profile):
        g = hm_profile.grid
        cfg = EvolveConfig(dt=0.01, t_end=30.0, record_every=50)
        res = evolve.evolve(hm_profile, bvp.initial_guess(g, 0.0), cfg)
        assert np.abs(res.final.u - hm_profile.u).max() <= 1e-6
        assert res.final.residual_norm <= 1e-6
        assert res.measured_rate * cfg.t_end <= -14.0

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_second_order_in_dt(self, c):
        # sup error at t = 1 against a dt = 0.0003125 run falls about 4x per
        # halving of dt (measured 4.008 and 4.046 at c = 0): the half-step
        # start-up keeps Crank-Nicolson's order
        front = continuation.solve_front(c, h=0.04)
        x = front.grid.nodes()
        u0 = front.u + 0.1 * np.exp(-(x - diagnostics.front_position(front)) ** 2)

        def run(dt):
            st = ImexStepper(front, dt)
            u = u0
            for _ in range(int(round(1.0 / dt))):
                u = st.step(u)
            return u

        reference = run(0.0003125)
        errors = [np.abs(run(dt) - reference).max() for dt in (0.01, 0.005, 0.0025)]
        assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5

    def test_measured_rate_skips_the_plateau(self):
        t = np.arange(0.0, 30.0, 0.25)
        history = list(zip(t, 1e-3 * np.exp(-t) + 1e-11))
        rate, samples = measured_rate(history, 1e-11)
        # fitted: t in (ln 2, ln 1e4), where d < d0 / 2 and d > 1e4 * 1e-11
        assert rate == pytest.approx(-1.0, rel=1e-5) and samples == 34

    def test_rate_does_not_depend_on_the_reference_path(self, hm_profile):
        # the same c = 1 front reached directly and by continuation from
        # c = 0: different grids and Newton residuals, one decay rate
        direct = continuation.solve_front(1.0)
        continued = continuation.continue_branch(hm_profile, 1.0).points[-1][1]
        assert direct.grid != continued.grid
        cfg = EvolveConfig(dt=0.01, t_end=25.0, record_every=25)
        rates = []
        for front in (direct, continued):
            x = front.grid.nodes()
            bump = 1e-3 * np.exp(-(x - diagnostics.front_position(front)) ** 2)
            rates.append(evolve.evolve(front, front.u + bump, cfg).measured_rate)
        assert rates[0] == pytest.approx(rates[1], rel=1e-6)

    def test_peak_growth_is_over_the_initial_deviation(self, hm_profile):
        cfg = EvolveConfig(dt=0.01, t_end=0.5, record_every=5)
        bumped = evolve.evolve(hm_profile, hm_profile.u + 1e-3, cfg)
        devs = [d for _, d in bumped.deviation_history]
        assert bumped.peak_growth == max(devs) / devs[0]
        assert bumped.steps == 50 and bumped.step_s > 0.0
        assert np.isnan(evolve.evolve(hm_profile, hm_profile.u, cfg).peak_growth)

    @pytest.mark.parametrize("amp", [1e-6, 1e-12])
    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0, 5.0])
    def test_near_zero_data_grow_into_the_front(self, c, amp):
        # the front is what grows out of u ~ 0 between its own end values;
        # at t = 90 the worst case (c = 5, amp = 1e-12) is 2.7e-13 / 1.5e-13,
        # while at t = 60 it still reads 1.1e-8
        front = continuation.solve_front(c, h=0.04)
        u0 = np.full(front.grid.n, amp)
        u0[[0, -1]] = front.u[[0, -1]]
        final = evolve.evolve(front, u0, EvolveConfig(dt=0.05, t_end=90.0,
                                                      record_every=100)).final
        assert np.abs(final.u - front.u).max() <= 1e-8
        assert abs(diagnostics.front_position(final)
                   - diagnostics.front_position(front)) <= 1e-9

    def test_measured_rate_empty_history(self):
        rate, samples = measured_rate([(0.0, 0.0)], evolve.ROUNDOFF_PLATEAU)
        assert np.isnan(rate) and samples == 0


class TestTanhFront:
    def test_newton_and_evolution_agree(self):
        eps, c = 1e-2, 0.0
        g = make_grid(-150.0, 150.0, 0.05)
        front = solve_tanh_front(eps, c, g)
        assert front.converged
        assert np.all(np.diff(front.u) <= 1e-12)
        assert front.u[0] == pytest.approx(np.sqrt(np.tanh(eps * 150.0)), abs=1e-12)

        cfg = EvolveConfig(dt=0.05, t_end=100.0, record_every=100)
        x = g.nodes()
        bump = 1e-3 * np.exp(-(x / 4.0) ** 2)
        res = evolve.evolve(front, front.u + bump, cfg)
        assert res.deviation_history[-1][1] <= 1e-5
        assert res.final.eps == eps

    def test_generic_residual_reads_the_tanh_ramp(self):
        front = solve_tanh_front(0.01, 0.0, make_grid(-150.0, 150.0, 0.05))
        assert np.abs(bvp.stationary_residual(front, front.u)).max() <= 1e-10
        assert front.eps == 0.01

    def test_boundary_sensitivity_small(self):
        # doubling the tanh solve domain must not move the interface
        eps, c = 1e-2, 0.0
        f1 = solve_tanh_front(eps, c, make_grid(-150.0, 150.0, 0.05))
        f2 = solve_tanh_front(eps, c, make_grid(-300.0, 300.0, 0.05))
        e13 = eps ** (1.0 / 3.0)
        xd1 = diagnostics.front_position(f1, 0.1 * e13)
        xd2 = diagnostics.front_position(f2, 0.1 * e13)
        assert abs(xd1 - xd2) <= 1e-6

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            solve_tanh_front(1.5, 0.0)

    def test_verdict_refuses_a_non_admissible_front(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "admissibility", lambda p: ["planted problem"])
        with pytest.raises(SolverError, match=r"non-admissible profile at c=0.5 on grid "
                                              r"h=0.05 x_min=-150 x_max=150 n=6001: "
                                              r"planted problem"):
            solve_tanh_front(0.01, 0.5, make_grid(-150.0, 150.0, 0.05))


class TestInnerScaling:
    def test_moderate_eps_sanity(self):
        rep = compare_inner_scaling(1e-2, 0.0)
        assert rep.c_scaled == 0.0
        assert rep.sup_gap <= 0.05 * 1e-2 ** (1.0 / 3.0)
        assert rep.interface_gap <= 0.5
        assert rep.x_delta_tanh == pytest.approx(
            rep.x_delta_inner_scaled, abs=0.5)

    def test_report_arrays_consistent(self):
        rep = compare_inner_scaling(1e-2, 0.0)
        assert rep.xs.shape == rep.u_tanh.shape == rep.u_inner_scaled.shape
        assert np.abs(rep.u_tanh - rep.u_inner_scaled).max() == pytest.approx(
            rep.sup_gap)
