import dataclasses
import math

import numpy as np
import pytest
from scipy.special import airye

from quenchfront import asymptotics, bvp, continuation, diagnostics, evolve, spectrum
from quenchfront.bvp import (FrontProfile, TailFitError, default_domain,
                             fit_tail_coefficients, left_value, required_bounds,
                             right_log_derivative, stationary_jacobian,
                             stationary_residual)
from quenchfront.grid import BandedMatrix, Grid, d1_band, d2_band, make_grid
from quenchfront.newton import solve

# one-sided five-point first derivative at the last node, unit spacing
D1_LAST = np.array([1.0 / 4.0, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0])


class TestBoundaryClosure:
    def test_left_value_c_zero(self):
        s = 25.0
        assert left_value(0.0, -25.0) == pytest.approx(
            math.sqrt(s) * (1.0 - 1.0 / (8.0 * s ** 3)), rel=1e-15)

    def test_left_value_with_drift(self):
        assert left_value(-2.0, -20.0) == pytest.approx(
            math.sqrt(20.0) * (1.0 + 2.0 / (4.0 * 400.0) - 1.0 / 64000.0), rel=1e-15)
        assert left_value(3.0, -20.0) == pytest.approx(
            math.sqrt(20.0) * (1.0 - 3.0 / (4.0 * 400.0) - 1.0 / 64000.0), rel=1e-15)

    def test_left_value_tanh_is_local_equilibrium(self):
        # sqrt(tanh(-eps x_min)) whatever c
        for c in (-1.0, 0.0, 2.0):
            assert left_value(c, -150.0, 0.01) == math.sqrt(math.tanh(1.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            left_value(0.0, 5.0)
        with pytest.raises(ValueError):
            left_value(0.0, 5.0, 0.01)
        for eps in (None, 0.01):
            with pytest.raises(ValueError, match="x_max > 0"):
                right_log_derivative(0.0, 0.0, eps)

    def test_right_log_derivative_is_the_decaying_root(self):
        # L^2 + c L - r(x_max) = 0 for the tanh ramp; the linear ramp adds
        # the Airy tail's z^{-1/4} factor, z = x_max + c^2/4
        linear = asymptotics.right_tail_log_derivative(20.0, -3.0)
        assert right_log_derivative(-3.0, 20.0) == linear
        for c in (-5.0, 0.0, 2.0):
            ell = right_log_derivative(c, 150.0, 0.01)
            assert ell < 0.0
            assert ell * ell + c * ell - math.tanh(1.5) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("c", [-10.0, 3.0, 12.0])
    def test_right_log_derivative_near_the_exact_airy_tail(self, c):
        # at the default x_max, L is within 2e-4 of the log-derivative
        # -c/2 + Ai'(z)/Ai(z) of the exact tail e^{-cx/2} Ai(z), z = x + c^2/4
        # (airye's common scale cancels in the ratio); 1.3e-5, 9.8e-5, 7.1e-6
        x_max = default_domain(c)[1]
        ai, aip, _, _ = airye(x_max + c * c / 4.0)
        assert abs(right_log_derivative(c, x_max) - (-0.5 * c + aip / ai)) <= 2e-4

    @pytest.mark.parametrize("c, x_max, eps", [(-200.0, 57.14, None), (0.0, 15.0, None),
                                               (12.0, 18.46, None), (0.3, 150.0, 0.01)])
    def test_right_log_derivative_dc_matches_central_difference(self, c, x_max, eps):
        d = 1e-3
        fd = (right_log_derivative(c + d, x_max, eps)
              - right_log_derivative(c - d, x_max, eps)) / (2.0 * d)
        assert bvp.right_log_derivative_dc(c, x_max, eps) == pytest.approx(fd, rel=1e-6)


class TestResidual:
    @pytest.mark.parametrize("c", [0.0, 1.0, -3.0, 10.0])
    def test_zero_state_interior_rows_exactly_zero(self, c):
        g = make_grid(-10.0, 10.0, 0.1)
        f = stationary_residual(FrontProfile(c=c, grid=g, u=np.zeros(g.n)), np.zeros(g.n))
        assert np.all(f[1:] == 0.0) and f[0] == -left_value(c, g.x_min)

    def test_sqrt_branch_residual_decays(self):
        # u = sqrt(-x) cancels x u + u^3 exactly; what is left is
        # u'' = -(1/4)(-x)^{-3/2}; the rows are those of x in (-100, -50),
        # on a domain reaching x > 0 as the Robin closure needs
        g = make_grid(-100.0, 10.0, 0.01)
        x = g.nodes()
        u = np.sqrt(np.maximum(-x, 0.0))
        f = stationary_residual(FrontProfile(c=0.0, grid=g, u=u), u)
        interior = slice(1, 5000)
        assert x[interior][[0, -1]] == pytest.approx([-99.99, -50.01], abs=1e-9)
        bound = 0.5 * (-x[interior]) ** -1.5
        assert np.all(np.abs(f[interior]) <= bound)
        assert np.abs(f[interior]).max() >= 0.1 * (1.0 / 4.0) * 100.0 ** -1.5

    def test_boundary_rows_enforce_closure(self):
        g = make_grid(-10.0, 10.0, 0.1)
        u = np.linspace(3.0, 1.0, g.n)
        p = FrontProfile(c=1.5, grid=g, u=u)
        f = stationary_residual(p, u)
        assert f[0] == pytest.approx(u[0] - left_value(1.5, g.x_min))
        # the Robin row u'(x_max) - L u(x_max): u' = -0.1 is exact on a line
        ell = asymptotics.right_tail_log_derivative(10.0, 1.5)
        assert f[-1] == pytest.approx(-0.1 - ell * 1.0, rel=1e-12)

    def test_tanh_ramp_read_from_profile(self):
        g = make_grid(-10.0, 10.0, 0.1)
        x = g.nodes()
        u = np.linspace(1.0, 0.0, g.n)
        f = stationary_residual(FrontProfile(c=0.5, grid=g, u=u, eps=0.1), u)
        # D2 + 0.5 D1 - tanh(0.1 x) with closed-form closure rows, times u
        a = BandedMatrix(g.n, 4, d2_band(g).data + 0.5 * d1_band(g, 1).data)
        a.data[4] -= np.tanh(0.1 * x)
        a.set_identity_row(0)
        k = np.arange(5)   # entry (n-1, n-5+k) sits at data[8 - k, n-5+k]
        a.data[8 - k, g.n - 5 + k] = (bvp._D1_LAST / g.h
                                      - (-0.25 - math.sqrt(0.0625 + math.tanh(1.0))) * (k == 4))
        expected = a.matvec(u)
        expected[1:-1] -= u[1:-1] ** 3
        expected[0] = u[0] - math.sqrt(math.tanh(1.0))
        assert np.array_equal(f, expected)
        # cached, so shared by every caller
        assert not bvp.equation_band(g, 0.5, 0.1).data.flags.writeable

    def test_converged_profile_residual(self, hm_profile):
        assert np.abs(stationary_residual(hm_profile, hm_profile.u)).max() < 1e-10

    def test_converged_residual_on_compact_domain(self):
        # c = 0 on [-15, 10] with n = 2501 (h = 0.01)
        from quenchfront.grid import Grid
        from quenchfront.bvp import initial_guess
        g = Grid(-15.0, 10.0, 2501)
        p, _ = solve(FrontProfile(c=0.0, grid=g, u=initial_guess(g, 0.0)))
        assert p.converged
        assert np.abs(stationary_residual(p, p.u)).max() < 1e-10

    def test_non_finite_rejected(self):
        g = make_grid(-10.0, 10.0, 0.1)
        u = np.zeros(g.n)
        u[3] = np.nan
        u[5] = np.inf
        p = FrontProfile(c=1.5, grid=g, u=u)
        for assemble in (stationary_residual, stationary_jacobian):
            with pytest.raises(ValueError, match=r"at c=1.5, h=0.1, n=201: "
                                                 r"first at x=-9.7 \(node 3\)"):
                assemble(p, u)


class TestJacobian:
    def test_zero_state_diagonal(self):
        g = make_grid(-10.0, 10.0, 0.1)
        x = g.nodes()
        p = FrontProfile(c=0.0, grid=g, u=np.zeros(g.n))
        jac = stationary_jacobian(p, p.u)
        from quenchfront.grid import d2_band
        base = d2_band(g)
        p_ = jac.bandwidth   # diagonal entries sit in band row p
        for i in (1, g.n // 2, g.n - 2):
            assert jac.data[p_, i] == pytest.approx(base.data[p_, i] - x[i], rel=1e-14)

    def test_interior_row_sums(self, hm_profile):
        # stencil parts annihilate constants, so J 1 = -(x + 3u^2) interior
        p = hm_profile
        sums = stationary_jacobian(p, p.u).matvec(np.ones(p.grid.n))
        x = p.grid.nodes()
        expected = -(x + 3.0 * p.u ** 2)
        assert np.abs(sums[1:-1] - expected[1:-1]).max() <= 1e-8

    def test_matches_directional_difference(self):
        # both ramps, at the seed and at the front it converges to; v sits on
        # each profile's half-amplitude crossing, where 3u^2 v is not negligible
        for c, eps in [(-200.0, None), (0.0, None), (12.0, None), (0.3, 0.01)]:
            g = bvp.default_grid(c, 0.04) if eps is None else make_grid(-150.0, 150.0, 0.5)
            seed = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c, eps), eps=eps)
            x = g.nodes()
            t = 1e-6
            for p in (seed, solve(seed)[0]):
                rng = np.random.default_rng(3)
                centre = diagnostics.front_position(p, 0.5 * p.u.max())
                smooth = np.exp(-((x - centre) / 6.0) ** 2)
                v = smooth * np.cos(0.4 * x + rng.uniform(0, 2 * np.pi)) * 3.0
                assert np.abs(3.0 * p.u ** 2 * v).max() >= 1.0, (c, eps, p.converged)
                f0 = stationary_residual(p, p.u)
                f1 = stationary_residual(p, p.u + t * v)
                jv = stationary_jacobian(p, p.u).matvec(v)
                rel = np.abs((f1 - f0) / t - jv).max() / np.abs(jv).max()
                assert rel <= 1e-5, (c, eps, p.converged)

    def test_closure_rows(self, hm_profile):
        # row 0 is the identity; row n-1 is the Robin row on the last five nodes
        g = hm_profile.grid
        jac = stationary_jacobian(hm_profile, hm_profile.u)
        n = g.n
        e0 = np.zeros(n)
        e0[0] = 1.0
        assert np.allclose(jac.matvec(e0)[0], 1.0)
        p = jac.bandwidth   # entry (i, j) sits at data[p + i - j, j]
        assert jac.data[p - 1, 1] == 0.0
        cols = np.arange(n - 5, n)
        robin = D1_LAST / g.h
        robin[-1] -= right_log_derivative(0.0, g.x_max)
        assert np.allclose(jac.data[p + n - 1 - cols, cols], robin, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("c, eps", [(-200.0, None), (0.0, None), (12.0, None),
                                        (0.3, 0.01)])
    def test_robin_row_matches_a_difference_of_the_residual(self, c, eps):
        g = bvp.default_grid(c, 0.04) if eps is None else make_grid(-150.0, 150.0, 0.5)
        p = FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c, eps), eps=eps)
        v = np.random.default_rng(8).standard_normal(g.n)
        t = 1e-6 * np.abs(p.u[-5:]).max() + 1e-12
        fd = (stationary_residual(p, p.u + t * v)[-1] - stationary_residual(p, p.u)[-1]) / t
        jv = stationary_jacobian(p, p.u).matvec(v)[-1]
        assert fd == pytest.approx(jv, rel=1e-6)


class TestDomains:
    def test_default_domain_c_zero(self):
        lo, hi = default_domain(0.0)
        assert lo == -30.0 and hi == 15.0

    def test_default_domain_large_positive(self):
        lo, hi = default_domain(10.0)
        assert lo == -55.0
        assert hi == pytest.approx(max(15.0, math.sqrt(10.0) + 15.0))

    def test_default_domain_negative_tracks_spillover(self):
        lo, hi = default_domain(-200.0)
        assert lo == -25.0
        assert hi > 34.6  # level-0.1 crossing sits near 34.6 at c = -200

    def test_required_bounds_margins(self):
        left, right = required_bounds(10.0)
        assert left <= bvp.asymptotics.front_loc_largec(10.0) - 10.0
        left, right = required_bounds(-100.0)
        assert right >= 23.7  # past the measured interface

    def test_domain_ok(self):
        g = make_grid(*default_domain(0.0), 0.01)
        assert bvp.domain_ok(g, 0.0)
        assert not bvp.domain_ok(g, 12.0)

    def test_widest_spill_over_grid_ends_at_the_1e_3_level(self):
        # 11,957 nodes while the edge sat at the closed form's 1e-9 level
        assert bvp.default_grid(-200.0).n <= 8300


class TestRightClosure:
    @pytest.mark.parametrize("h", [0.04, 0.02, 0.01])
    @pytest.mark.parametrize("c", [-200.0, -150.0, -103.0, -50.0])
    def test_spill_over_fronts_are_admissible_on_every_rung(self, c, h):
        g = bvp.default_grid(c, h)
        p, _ = solve(FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c)))
        assert p.converged and diagnostics.admissibility(p) == []

    @pytest.mark.parametrize("c", [-200.0, -100.0, -50.0, -10.0])
    def test_widening_to_the_1e_9_edge_changes_nothing_inside(self, c):
        # the same nodes continued to the closed form's 1e-9 level + 2
        short = continuation.solve_front(c)
        g = short.grid
        n = g.n + math.ceil((asymptotics.erf_front_position(c, 1e-9) + 2.0 - g.x_max) / g.h)
        wide_grid = Grid(g.x_min, g.x_min + (n - 1) * g.h, n)
        assert wide_grid.h == g.h
        wide = continuation.solve_front(c, grid=wide_grid)
        assert diagnostics.u_at_zero(wide) == diagnostics.u_at_zero(short)
        assert diagnostics.front_position(wide) == diagnostics.front_position(short)
        assert spectrum.leading_eigenvalues(wide, 1).eigenvalues[0] == pytest.approx(
            spectrum.leading_eigenvalues(short, 1).eigenvalues[0], rel=0.0, abs=1e-11)


class TestTailFit:
    def test_alpha_plus_matches_airy_normalization(self, hm_profile):
        # the c = 0 front scaled by 1/sqrt(2) solves v'' = x v + 2 v^3 with
        # right tail Ai(x) ~ x^{-1/4} e^{-(2/3) x^{3/2}} / (2 sqrt(pi)), so the
        # amplitude of that leading term is k(0) / (2 sqrt(pi)) = 1/sqrt(2 pi)
        alpha_plus = math.exp(fit_tail_coefficients(hm_profile).log_k) / (2.0 * math.sqrt(math.pi))
        assert alpha_plus == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.05)
        assert alpha_plus > 0.0

    def test_log_k_at_zero_is_hastings_mcleod(self, hm_profile):
        # u = sqrt(2) q with q ~ Ai(x) the Hastings-McLeod solution, so
        # k(0) = sqrt(2); measured 4.0e-8 off at h = 0.01
        assert abs(fit_tail_coefficients(hm_profile).log_k - 0.5 * math.log(2.0)) <= 1e-7

    def test_log_k_at_zero_converges_with_h(self, hm_profile):
        # the fourth-order mesh error: 1.0e-5, 6.3e-7, 4.0e-8 at h = 0.04, 0.02, 0.01
        fronts = [continuation.solve_front(0.0, h=h) for h in (0.04, 0.02)] + [hm_profile]
        errs = [abs(fit_tail_coefficients(p).log_k - 0.5 * math.log(2.0)) for p in fronts]
        assert errs[0] >= 12.0 * errs[1] and errs[1] >= 12.0 * errs[2]

    def test_log_fit_flatness(self, hm_profile):
        fit = fit_tail_coefficients(hm_profile)
        assert fit.log_k_spread <= 0.1  # 10% relative variation over window

    def test_domain_truncation_insensitivity(self, hm_profile):
        from quenchfront import continuation
        wide = continuation.solve_front(0.0, grid=make_grid(-30.0, 30.0, 0.01))
        k_narrow = math.exp(fit_tail_coefficients(hm_profile).log_k)
        k_wide = math.exp(fit_tail_coefficients(wide).log_k)
        assert abs(k_wide - k_narrow) <= 0.01 * k_narrow

    def test_fit_leaves_profile_unchanged(self, hm_profile):
        # a pure function: the coefficient lives on the returned TailFit only
        state = dict(vars(hm_profile), u=hm_profile.u.copy())
        fit = fit_tail_coefficients(hm_profile)
        assert math.isfinite(fit.log_k)
        assert vars(hm_profile).keys() == state.keys()
        assert np.array_equal(hm_profile.u, state["u"])
        assert hm_profile.residual_norm == state["residual_norm"]
        assert not any(f.name.startswith("alpha")
                       for f in dataclasses.fields(FrontProfile))

    def test_window_ends_ignore_node_roundoff(self):
        # one front cut to domains whose edges differ by whole cells: the
        # nodes at z = 8 carry different roundoff on each grid
        for c in (0.0, -7.6626):
            p = continuation.solve_front(c)
            g = p.grid
            fits = [fit_tail_coefficients(FrontProfile(
                        c=c, grid=Grid(g.x_min + k * g.h, g.x_max - m * g.h, g.n - k - m),
                        u=p.u[k:g.n - m])).log_k
                    for k in range(0, 30, 3) for m in range(0, 30, 3)]
            assert np.ptp(fits) <= 1e-12 * abs(fits[0])

    def test_underflow_window_raises(self):
        g = make_grid(-25.0, 15.0, 0.05)
        u = np.zeros(g.n)
        p = FrontProfile(c=0.0, grid=g, u=u, converged=True)
        with pytest.raises(TailFitError):
            fit_tail_coefficients(p)

    def test_tanh_ramp_front_is_refused(self):
        # tanh(eps x) levels off at 1, so this front's tail is no Airy function
        with pytest.raises(TailFitError, match="tanh"):
            fit_tail_coefficients(evolve.solve_tanh_front(0.01, 0.0))


def test_initial_guess_shapes():
    g = make_grid(-30.0, 15.0, 0.05)
    u0 = bvp.initial_guess(g, 0.0)
    assert np.all(u0 >= 0.0) and np.all(np.isfinite(u0))
    gneg = make_grid(*default_domain(-50.0), 0.05)
    uneg = bvp.initial_guess(gneg, -50.0)
    assert np.all(np.isfinite(uneg)) and uneg.max() > 1.0
    gpos = make_grid(*default_domain(6.0), 0.05)
    upos = bvp.initial_guess(gpos, 6.0)
    assert upos[0] > 5.0 and upos[-1] < 1e-8
