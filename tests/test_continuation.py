import numpy as np
import pytest

from quenchfront import bvp, continuation, diagnostics, newton
from quenchfront.bvp import BoundaryClosure, FrontProfile
from quenchfront.continuation import (continue_branch, pointwise_c_ordering_gap,
                                      reinterpolate, solve_front)
from quenchfront.grid import make_grid


@pytest.fixture(scope="module")
def small_branch(hm_profile):
    return continue_branch(hm_profile, 2.0, dc_init=0.25)


class TestContinueBranch:
    def test_trivial_branch_is_seed(self, hm_profile):
        br = continue_branch(hm_profile, hm_profile.c)
        assert len(br.points) == 1
        assert br.points[0][1] is hm_profile

    def test_reaches_target_with_converged_points(self, small_branch):
        cs = small_branch.cs()
        assert cs[0] == 0.0 and cs[-1] == pytest.approx(2.0)
        assert np.all(np.diff(cs) > 0)
        assert not small_branch.failures
        for _, p in small_branch.points:
            assert p.converged
            assert p.residual_norm <= 1e-10

    def test_profiles_admissible(self, small_branch):
        for _, p in small_branch.points:
            assert diagnostics.admissibility(p).admissible

    def test_pointwise_ordering_in_c(self, small_branch):
        assert pointwise_c_ordering_gap(small_branch) > 0.0

    def test_front_position_continuity(self, small_branch):
        xds = [(c, diagnostics.front_position(p)) for c, p in small_branch.points]
        for (c1, x1), (c2, x2) in zip(xds, xds[1:]):
            bound = 5.0 * abs(c2 - c1) * max(1.0, abs(c1) / 2.0 + 1.0)
            assert abs(x2 - x1) <= bound

    def test_u_at_zero_decreasing_in_c(self, small_branch):
        u0s = [diagnostics.u_at_zero(p) for _, p in small_branch.points]
        assert all(b < a for a, b in zip(u0s, u0s[1:]))

    def test_front_position_decreasing_in_c(self, small_branch):
        xds = [diagnostics.front_position(p) for _, p in small_branch.points]
        assert all(b < a for a, b in zip(xds, xds[1:]))

    def test_amplitude_law_endpoint(self, accept_ctx):
        # deep branch endpoint follows u(0; c) = (-c)^{1/4} pi^{-1/4}
        p = accept_ctx.profile(-200.0)
        assert diagnostics.u_at_zero(p) == pytest.approx(
            200.0 ** 0.25 / np.pi ** 0.25, rel=0.02)

    def test_seed_must_be_converged(self, hm_profile):
        bad = FrontProfile(c=0.0, grid=hm_profile.grid, u=hm_profile.u)
        with pytest.raises(ValueError):
            continue_branch(bad, 1.0)

    def test_stepper_reaches_minus_200_in_few_points(self, hm_profile):
        br = continue_branch(hm_profile, -200.0)
        assert not br.failures
        assert br.cs()[0] == pytest.approx(-200.0)
        assert len(br.points) <= 50

    def test_stepper_reaches_12_in_few_points(self, hm_profile):
        br = continue_branch(hm_profile, 12.0)
        assert not br.failures
        assert br.cs()[-1] == pytest.approx(12.0)
        assert len(br.points) <= 21

    def test_tangent_matches_central_difference(self, hm_profile):
        c, d = -1.0, 1e-2
        p = continue_branch(hm_profile, c).profile_at(c)
        tangent = continuation._tangent(p, BoundaryClosure(), -1.0)
        up, _ = newton.solve(FrontProfile(c=c + d, grid=p.grid, u=p.u))
        um, _ = newton.solve(FrontProfile(c=c - d, grid=p.grid, u=p.u))
        assert np.abs(tangent - (up.u - um.u) / (2 * d)).max() <= 1e-4

    def test_downward_direction(self, hm_profile):
        br = continue_branch(hm_profile, -1.0, dc_init=0.5)
        assert br.direction == "decreasing_c"
        assert br.cs()[0] == pytest.approx(-1.0)
        assert not br.failures


class TestReinterpolate:
    def test_same_grid_identity(self, hm_profile):
        q = reinterpolate(hm_profile, hm_profile.grid)
        assert np.allclose(q.u, hm_profile.u, rtol=0.0, atol=1e-13)

    def test_refine_then_resolve_fast(self, hm_profile):
        g2 = make_grid(hm_profile.grid.x_min, hm_profile.grid.x_max,
                       hm_profile.grid.h / 2.0)
        q = reinterpolate(hm_profile, g2)
        # the assembly roundoff floor scales like eps/h^2, so the refined
        # grid cannot reach the default 1e-10 residual target
        cfg = newton.SolverConfig(tol_residual=1e-9)
        _, report = newton.solve(FrontProfile(c=0.0, grid=g2, u=q.u), cfg=cfg)
        assert report.converged and report.iterations <= 5

    def test_left_extension_matches_closure(self, hm_profile):
        bc = BoundaryClosure()
        g2 = make_grid(hm_profile.grid.x_min - 20.0, hm_profile.grid.x_max, 0.01)
        q = reinterpolate(hm_profile, g2, bc)
        x = g2.nodes()
        left = x < hm_profile.grid.x_min - 1e-9
        expected = np.array([bc.left_value(0.0, float(t)) for t in x[left]])
        assert np.allclose(q.u[left], expected, rtol=0.0, atol=1e-14)
        # for c = 0 the closure is the printed series sqrt(-x)(1 - 1/(8(-x)^3))
        assert np.allclose(q.u[left],
                           np.sqrt(-x[left]) * (1.0 - 1.0 / (8.0 * (-x[left]) ** 3)),
                           atol=1e-14)

    def test_right_extension_zero_and_nonnegative(self, hm_profile):
        g2 = make_grid(hm_profile.grid.x_min, hm_profile.grid.x_max + 10.0, 0.01)
        q = reinterpolate(hm_profile, g2)
        x = g2.nodes()
        assert np.all(q.u[x > hm_profile.grid.x_max + 1e-9] == 0.0)
        assert np.all(q.u >= 0.0)

    def test_no_overlap_raises(self, hm_profile):
        g_far = make_grid(100.0, 130.0, 0.1)
        with pytest.raises(ValueError):
            reinterpolate(hm_profile, g_far)


class TestSolveFront:
    def test_positive_c_with_fallback(self):
        p = solve_front(4.0)
        assert p.converged
        assert diagnostics.admissibility(p).admissible

    def test_failed_anchor_solve_is_not_repeated(self, monkeypatch):
        calls = []
        real_solve = newton.solve

        def counting_solve(*args, **kwargs):
            calls.append(args[0].c)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(newton, "solve", counting_solve)
        # an unreachable tolerance makes the c = 0 anchor solve fail quickly
        cfg = newton.SolverConfig(tol_residual=1e-16, max_iter=2)
        with pytest.raises(newton.MaxIterationsError):
            solve_front(0.0, cfg=cfg)
        assert calls == [0.0]

    def test_respects_requested_grid(self):
        g = make_grid(-26.0, 14.0, 0.02)
        p = solve_front(0.0, grid=g)
        assert p.grid.n == g.n
        assert p.converged

    def test_negative_c_erf_seeded(self):
        p = solve_front(-30.0)
        assert p.converged
        assert diagnostics.u_at_zero(p) == pytest.approx(
            30.0 ** 0.25 / np.pi ** 0.25, rel=0.01)
