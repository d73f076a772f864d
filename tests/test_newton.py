import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from quenchfront import bvp, diagnostics, newton
from quenchfront.bvp import FrontProfile
from quenchfront.continuation import solve_front
from quenchfront.grid import BandedMatrix
from quenchfront.newton import (DivergenceError, MaxIterationsError,
                                SingularJacobianError, banded_lu_solve, solve)


class TestBandedSolve:
    def test_identity(self):
        n = 17
        a = BandedMatrix(n, 2)
        a.data[a.bandwidth] += np.ones(n)
        b = np.sin(np.arange(n, dtype=float))
        assert np.allclose(banded_lu_solve(a, b), b, atol=1e-14)

    def test_toeplitz_laplacian_vs_analytic_inverse(self):
        # tridiagonal (-1, 2, -1): (A^-1)_{ij} = min(i,j)(n+1-max(i,j))/(n+1)
        # with 1-based indices
        n = 10
        a = BandedMatrix(n, 1)
        a.data[0, 1:] = -1.0    # entry (i, j) sits at data[1 + i - j, j]
        a.data[1] = 2.0
        a.data[2, :-1] = -1.0
        rng = np.random.default_rng(11)
        b = rng.normal(size=n)
        inv = np.empty((n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                inv[i - 1, j - 1] = min(i, j) * (n + 1 - max(i, j)) / (n + 1)
        assert np.allclose(banded_lu_solve(a, b), inv @ b, atol=1e-12)

    def test_random_banded_residual(self):
        rng = np.random.default_rng(5)
        n, p = 200, 4
        a = BandedMatrix(n, p)
        for i in range(n):
            a.data[p, i] += 6.0 + rng.normal()
            for j in range(max(0, i - p), min(n, i + p + 1)):
                if j != i:
                    a.data[p + i - j, j] += rng.normal()
        x_true = rng.normal(size=n)
        b = a.matvec(x_true)
        x = banded_lu_solve(a, b)
        norm_a = np.abs(a.data).sum(axis=0).max()
        assert np.abs(a.matvec(x) - b).max() <= 1e-9 * (
            norm_a * np.abs(x).max() + np.abs(b).max())

    def test_singular_matrix_raises(self):
        n = 8
        a = BandedMatrix(n, 1)  # all-zero matrix
        with pytest.raises(SingularJacobianError):
            banded_lu_solve(a, np.ones(n))

    def test_diagonal_cancelling_the_band_is_a_singular_jacobian(self):
        a = BandedMatrix(8, 1)
        a.data[a.bandwidth] = 2.0
        with pytest.raises(SingularJacobianError, match="zero pivot in column 0"):
            banded_lu_solve(a, np.ones(8), np.full(8, -2.0))

    def test_non_finite_rhs_rejected(self):
        a = BandedMatrix(4, 1)
        a.data[a.bandwidth] += np.ones(4)
        with pytest.raises(ValueError):
            banded_lu_solve(a, np.array([1.0, np.inf, 0.0, 0.0]))

    @pytest.mark.parametrize("c", [-200.0, 0.0, 12.0])
    def test_newton_step_matches_scipy_bit_for_bit(self, c):
        # scipy's solve_banded takes LAPACK gbsv for a (4, 4) band, the one
        # call grid.solve_banded makes
        g = bvp.default_grid(c)
        seed = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c))
        jac, b = bvp.stationary_jacobian(seed, seed.u), -bvp.stationary_residual(seed, seed.u)
        x = banded_lu_solve(jac, b)
        assert x.tobytes() == scipy.linalg.solve_banded((4, 4), jac.data, b).tobytes()


def shooting_oracle_c0():
    """Independent oracle for the c = 0 front: integrate u'' = x u + u^3
    backward from x = 9 with right-tail initial data, bisecting on the tail
    amplitude for boundedness."""
    x0 = 9.0

    def tail(alpha, x):
        expo = -(2.0 / 3.0) * x ** 1.5
        u = alpha * math.exp(expo) * x ** -0.25
        du = u * (-math.sqrt(x) - 0.25 / x)
        return u, du

    def blew_up(t, y):      # above the sqrt branch
        return y[0] - (math.sqrt(max(-t, 0.0)) * 3.0 + 5.0)

    def went_negative(t, y):  # oscillatory family below
        return y[0] + 1e-3

    blew_up.terminal = went_negative.terminal = True

    def classify(alpha):
        u0, du0 = tail(alpha, x0)
        sol = solve_ivp(lambda t, y: [y[1], t * y[0] + y[0] ** 3],
                        (x0, -12.0), [u0, du0], method="DOP853", rtol=1e-12,
                        atol=1e-14, dense_output=True, max_step=0.1,
                        events=(blew_up, went_negative))
        if sol.t_events[0].size:
            return 1, sol
        if sol.t_events[1].size:
            return -1, sol
        return 0, sol

    lo, hi = 0.1, 1.2
    assert classify(lo)[0] == -1 and classify(hi)[0] == 1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        side, _ = classify(mid)
        if side >= 0:
            hi = mid
        else:
            lo = mid
    _, sol = classify(0.5 * (lo + hi))
    return float(sol.sol(0.0)[0]), 0.5 * (lo + hi)


class TestSolve:
    def test_fixed_point_converges_immediately(self, hm_profile):
        p, report = solve(hm_profile)
        assert p.converged and report.iterations <= 2
        assert np.abs(p.u - hm_profile.u).max() <= 1e-9

    def test_ramp_guess_converges_to_front(self, hm_profile):
        # oracle: backward shooting with right-tail data
        u0_oracle, alpha_oracle = shooting_oracle_c0()
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        p, report = solve(seed)
        assert p.converged and not diagnostics.admissibility(p)
        i0 = int(np.argmin(np.abs(g.nodes())))
        assert abs(p.u[i0] - 0.52) <= 0.05
        assert p.u[i0] == pytest.approx(u0_oracle, abs=1e-4)
        # the same bisection pins the tail amplitude near 1/sqrt(2 pi)
        assert alpha_oracle == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.02)

    @pytest.mark.parametrize("h", [0.01, 0.02])
    def test_hastings_mcleod_oracle(self, h):
        # at c = 0 the front is sqrt(2) q with q the Hastings-McLeod solution
        # of Painleve II, q(0) = 0.3670615515480784 (Fornberg & Weideman 2011)
        p = solve_front(0.0, h=h)
        assert diagnostics.u_at_zero(p) == pytest.approx(
            math.sqrt(2.0) * 0.3670615515480784, rel=0.0, abs=1e-9)

    def test_erf_seed_at_large_negative_c(self):
        c = -200.0
        g = bvp.default_grid(c)
        u_init = bvp.initial_guess(g, c)
        p, _ = solve(FrontProfile(c=c, grid=g, u=u_init))
        assert p.converged and p.residual_norm <= 1e-10
        rel = np.abs(u_init - p.u).max() / np.abs(p.u).max()
        assert rel <= 0.05

    def test_quadratic_convergence_tail(self, hm_profile):
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        _, report = solve(seed)
        rs = report.residual_norms
        tail = [(rs[k], rs[k + 1]) for k in range(max(0, len(rs) - 4), len(rs) - 1)]
        for r_k, r_next in tail:
            assert r_next <= 1e6 * r_k ** 2

    def test_uniqueness_from_two_seeds(self, hm_profile):
        g = hm_profile.grid
        x = g.nodes()
        seed_a = FrontProfile(c=0.0, grid=g, u=bvp.smooth_sqrt_ramp(x, 0.0, 0.7))
        ramp_b = np.sqrt(np.clip(-x, 0.0, None)) * 0.5 * (1 - np.tanh(0.7 * (x - 0.5)))
        seed_b = FrontProfile(c=0.0, grid=g, u=ramp_b)
        pa, _ = solve(seed_a)
        pb, _ = solve(seed_b)
        assert np.abs(pa.u - pb.u).max() <= 1e-8

    def test_failure_reports_max_iterations(self, hm_profile, monkeypatch):
        monkeypatch.setattr(newton, "MAX_ITERATIONS", 2)
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        with pytest.raises(MaxIterationsError,
                           match=rf"no convergence in 2 iterations at c=0, h=0.01, "
                                 rf"n={g.n}, residual "):
            solve(seed)

    def test_divergence_names_its_solve(self, hm_profile, monkeypatch):
        # a correction that no damping makes a descent step: each MIN_STEP
        # fallback adds ~95 to u, and the u^3 residual outgrows 10x in 5 steps
        monkeypatch.setattr(newton, "banded_lu_solve",
                            lambda *args: np.full_like(args[1], 1e8))
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        with pytest.raises(DivergenceError,
                           match=rf"over 5 iterations at c=0, h=0.01, n={g.n} "):
            solve(seed)

    def test_exhausted_line_search_evaluates_each_trial_once(self, hm_profile,
                                                             monkeypatch):
        # no damping of this correction lowers the residual: the iteration
        # tries t = 1, 1/2, ..., MIN_STEP and takes the last trial as it is
        evaluations = []
        real_residual = newton.stationary_residual

        def counting_residual(*args):
            evaluations.append(1)
            return real_residual(*args)

        monkeypatch.setattr(newton, "stationary_residual", counting_residual)
        monkeypatch.setattr(newton, "banded_lu_solve",
                            lambda *args: np.full_like(args[1], 1e8))
        monkeypatch.setattr(newton, "MAX_ITERATIONS", 1)
        g = hm_profile.grid
        with pytest.raises(MaxIterationsError, match="no convergence in 1 iterations"):
            solve(FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0)))
        # the seed's, then one per trial t = 1, 1/2, ..., MIN_STEP = 2^-20
        assert len(evaluations) == 1 + 21

    def test_non_admissible_front_is_returned_not_raised(self):
        # Newton does not grade shape: at c = 14, past the u-form reach, on
        # the coarse h = 0.04 mesh it converges to a profile whose tail has
        # underflowed to exact zeros, and returns it
        c = 14.0
        g = bvp.default_grid(c, 0.04)
        p, _ = solve(FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c)))
        assert p.converged and p.residual_norm <= 1e-10
        assert diagnostics.admissibility(p) == ["non-positive value at x=10.8"]

    def test_stall_at_roundoff_floor_raises_at_once(self, monkeypatch):
        # at h = 0.005 the residual's roundoff floor (~2e-10) lies above the
        # tolerance; Newton converges in 4 steps and then only sees roundoff
        evaluations = []
        real_residual = newton.stationary_residual

        def counting_residual(*args):
            evaluations.append(1)
            return real_residual(*args)

        monkeypatch.setattr(newton, "stationary_residual", counting_residual)
        g = bvp.default_grid(0.0, 0.005)
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        with pytest.raises(MaxIterationsError,
                           match=rf"c=0, h=0.005, n={g.n}: iteration [4-7], "
                                 r"residual .* full step"):
            solve(seed)
        assert len(evaluations) <= 20   # was 917 over 50 iterations

    def test_config_validation(self, hm_profile):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol="):
                solve(hm_profile, tol=tol)
