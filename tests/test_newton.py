import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quenchfront import bvp, diagnostics, newton
from quenchfront.bvp import FrontProfile
from quenchfront.continuation import solve_front
from quenchfront.grid import BandedMatrix
from quenchfront.newton import (DivergenceError, MaxIterationsError,
                                SingularJacobianError, SolverConfig,
                                banded_lu_solve, solve)


class TestBandedSolve:
    def test_identity(self):
        n = 17
        a = BandedMatrix(n, 2)
        for i in range(n):
            a.add(i, i, 1.0)
        b = np.sin(np.arange(n, dtype=float))
        assert np.allclose(banded_lu_solve(a, b), b, atol=1e-14)

    def test_toeplitz_laplacian_vs_analytic_inverse(self):
        # tridiagonal (-1, 2, -1): (A^-1)_{ij} = min(i,j)(n+1-max(i,j))/(n+1)
        # with 1-based indices
        n = 10
        a = BandedMatrix(n, 1)
        for i in range(n):
            a.add(i, i, 2.0)
            if i:
                a.add(i, i - 1, -1.0)
                a.add(i - 1, i, -1.0)
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
            a.add(i, i, 6.0 + rng.normal())
            for j in range(max(0, i - p), min(n, i + p + 1)):
                if j != i:
                    a.add(i, j, rng.normal())
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

    def test_non_finite_rhs_rejected(self):
        a = BandedMatrix(4, 1)
        a.add_diagonal(np.ones(4))
        with pytest.raises(ValueError):
            banded_lu_solve(a, np.array([1.0, np.inf, 0.0, 0.0]))


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

    def classify(alpha):
        u0, du0 = tail(alpha, x0)
        sol = solve_ivp(lambda t, y: [y[1], t * y[0] + y[0] ** 3],
                        (x0, -12.0), [u0, du0], rtol=1e-12, atol=1e-14,
                        dense_output=True, max_step=0.1)
        for t, (u, du) in zip(sol.t, sol.y.T):
            ceiling = math.sqrt(max(-t, 0.0)) * 3.0 + 5.0
            if u > ceiling:
                return 1, sol   # blew up above the sqrt branch
            if u < -1e-3:
                return -1, sol  # went negative: oscillatory family below
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
        p, report = solve(hm_profile.copy())
        assert report.converged and report.iterations <= 2
        assert np.abs(p.u - hm_profile.u).max() <= 1e-9

    def test_ramp_guess_converges_to_front(self, hm_profile):
        # oracle: backward shooting with right-tail data
        u0_oracle, alpha_oracle = shooting_oracle_c0()
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        p, report = solve(seed)
        assert report.converged and report.decreasing and report.positive
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
        p, report = solve(FrontProfile(c=c, grid=g, u=u_init))
        assert report.converged
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

    def test_failure_reports_max_iterations(self, hm_profile):
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        with pytest.raises((MaxIterationsError, DivergenceError)):
            solve(seed, cfg=SolverConfig(max_iter=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(damping="trust_region")

    def test_undamped_newton_from_exact_seed(self, hm_profile):
        p, report = solve(hm_profile.copy(), cfg=SolverConfig(damping="none"))
        assert report.converged and report.iterations <= 2

    def test_positivity_clip_option(self, hm_profile):
        g = hm_profile.grid
        seed = FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0))
        p, report = solve(seed, cfg=SolverConfig(positivity_clip=True))
        assert report.converged
        assert np.all(p.u >= 0.0)
