import numpy as np
import pytest

from quenchfront import bvp, continuation, diagnostics, newton
from quenchfront.bvp import FrontProfile, fit_tail_coefficients, left_value
from quenchfront.continuation import (continue_branch, pointwise_c_ordering_gap,
                                      reinterpolate, solve_front)
from quenchfront.grid import UniformSpline, make_grid


@pytest.fixture(scope="module")
def small_branch(hm_profile):
    return continue_branch(hm_profile, 2.0, dc_init=0.25)


def _cs(branch):
    return np.array([c for c, _ in branch.points])


class TestContinueBranch:
    def test_trivial_branch_is_seed(self, hm_profile):
        br = continue_branch(hm_profile, hm_profile.c)
        assert len(br.points) == 1
        assert br.points[0][1] is hm_profile

    def test_reaches_target_with_converged_points(self, small_branch):
        cs = _cs(small_branch)
        assert cs[0] == 0.0 and cs[-1] == pytest.approx(2.0)
        assert np.all(np.diff(cs) > 0)
        assert not small_branch.failures
        for _, p in small_branch.points:
            assert p.converged
            assert p.residual_norm <= 1e-10

    def test_profiles_admissible(self, small_branch):
        for _, p in small_branch.points:
            assert diagnostics.admissibility(p) == []

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

    @pytest.mark.parametrize("dc", [0.0, -0.25, np.nan])
    def test_step_must_be_positive(self, hm_profile, dc):
        with pytest.raises(ValueError, match="dc="):
            continue_branch(hm_profile, 1.0, dc_init=dc)

    def test_step_that_leaves_c_unchanged_is_refused(self, hm_profile):
        # -1 + 1e-17 == -1: the sweep would re-solve the same c forever
        seed = FrontProfile(c=-1.0, grid=hm_profile.grid, u=hm_profile.u,
                            converged=True)
        with pytest.raises(ValueError, match="dc=1e-17 leaves c=-1 unchanged"):
            continue_branch(seed, 0.0, dc_init=1e-17)

    def test_seed_must_be_converged(self, hm_profile):
        bad = FrontProfile(c=0.0, grid=hm_profile.grid, u=hm_profile.u)
        with pytest.raises(ValueError):
            continue_branch(bad, 1.0)

    def test_tanh_seed_rejected(self):
        g = make_grid(-20.0, 20.0, 0.1)
        seed = FrontProfile(c=0.0, grid=g, u=np.zeros(g.n), eps=0.01,
                            converged=True)
        with pytest.raises(ValueError, match="linear ramp"):
            continue_branch(seed, 1.0)

    @staticmethod
    def _sweep_from_a_long_right_edge():
        # c = 12.75 on its default domain cut at x = 20 rather than 18.57:
        # the step to c = 13 on that carried grid leaves the tail past the
        # u-form reach, where it underflows to exact zeros
        x_min = bvp.default_domain(12.75)[0]
        seed = solve_front(12.75, grid=make_grid(x_min, 20.0, 0.04))
        return continue_branch(seed, 13.0, h=0.04)

    def test_non_admissible_step_is_rejected_by_name(self):
        br = self._sweep_from_a_long_right_edge()
        c, message = br.failures[0]
        assert c == 13.0
        assert message.startswith(
            "converged to a non-admissible profile at c=13 on grid h=0.04 ")
        assert message.endswith(": non-positive value at x=19.76")

    def test_failed_step_on_a_carried_grid_is_retried_on_the_default_grid(self):
        # the carried grid [-70.68, 20] still passes domain_ok at c = 13 but
        # fails there; c = 13's default grid [-72.28, 18.64] solves it
        br = self._sweep_from_a_long_right_edge()
        c, p = br.points[-1]
        assert c == 13.0 and p.grid == bvp.default_grid(13.0, 0.04)
        assert [c for c, _ in br.failures] == [13.0]

    def test_tangent_is_computed_once_per_accepted_point(self, monkeypatch):
        # the sweep above: one failed attempt on the carried grid, then its
        # retry on the default grid, both from the same accepted point
        at = []
        tangent = continuation._tangent
        monkeypatch.setattr(continuation, "_tangent",
                            lambda p: at.append(p.c) or tangent(p))
        br = self._sweep_from_a_long_right_edge()
        assert br.failures and br.points[-1][0] == 13.0
        assert at == [c for c, _ in br.points[:-1]]   # every point but the last, once

    def test_stepper_reaches_minus_200_in_few_points(self, hm_profile):
        br = continue_branch(hm_profile, -200.0)
        assert not br.failures
        assert br.points[0][0] == pytest.approx(-200.0)
        assert len(br.points) <= 50

    def test_stepper_reaches_12_in_few_points(self, hm_profile):
        br = continue_branch(hm_profile, 12.0)
        assert not br.failures
        assert br.points[-1][0] == pytest.approx(12.0)
        assert len(br.points) <= 11

    def test_tangent_matches_central_difference(self, hm_profile):
        d = 1e-2
        p = continue_branch(hm_profile, -1.0).points[0][1]
        c = p.c
        tangent = continuation._tangent(p)
        up, _ = newton.solve(FrontProfile(c=c + d, grid=p.grid, u=p.u))
        um, _ = newton.solve(FrontProfile(c=c - d, grid=p.grid, u=p.u))
        assert np.abs(tangent - (up.u - um.u) / (2 * d)).max() <= 1e-4

    def test_tangent_carries_the_robin_rows_c_dependence(self):
        # at c = -50 the edge value is 3.4e-4; leaving out (dL/dc) u[-1] on
        # row n-1 puts the tangent 9e-8 off the central difference
        c, d = -50.0, 1e-2
        p = solve_front(c, h=0.04)
        up, _ = newton.solve(FrontProfile(c=c + d, grid=p.grid, u=p.u))
        um, _ = newton.solve(FrontProfile(c=c - d, grid=p.grid, u=p.u))
        central = (up.u - um.u) / (2 * d)
        assert np.abs(continuation._tangent(p) - central).max() <= 1e-9

    @pytest.mark.parametrize("c", [-1e-4, 0.0, 1e-4])
    def test_tangent_moves_the_closure_by_its_slope(self, c):
        # row 0 of J is the identity, so the tangent's first entry is the
        # closure's slope in c, -1/(4 s^{3/2}), s = -x_min, whatever side of 0
        p = solve_front(c, h=0.04)
        s = -p.grid.x_min
        assert continuation._tangent(p)[0] == pytest.approx(-0.25 / s ** 1.5, rel=1e-9)

    def test_comoving_tangent_matches_central_difference(self):
        # in the frame x + c^2/4 the fronts at c +- d, read through their
        # splines at x + (c^2 - (c +- d)^2)/4, difference to the tangent on
        # the c = 6 nodes whose frame points both lie on the grid
        c, d = 6.0, 1e-2
        p = solve_front(c)
        tangent = continuation._tangent(p)
        x = p.grid.nodes()
        framed, inside = [], np.ones(x.size, dtype=bool)
        for cc in (c + d, c - d):
            q, _ = newton.solve(FrontProfile(c=cc, grid=p.grid, u=p.u))
            xs = x + (c * c - cc * cc) / 4.0
            inside &= (xs >= x[0]) & (xs <= x[-1])
            framed.append(UniformSpline(x[0], p.grid.h, q.u)(np.clip(xs, x[0], x[-1])))
        central = (framed[0] - framed[1]) / (2 * d)
        assert np.abs(tangent - central)[inside].max() <= 1e-4

    def test_prediction_for_negative_c_is_the_plain_tangent(self, hm_profile):
        dc = -0.5
        p = continue_branch(hm_profile, -3.0).points[0][1]
        tangent = continuation._tangent(p)
        guess = continuation.predict(p, tangent, p.c + dc, p.grid)
        assert guess.tobytes() == np.maximum(p.u + dc * tangent, 0.0).tobytes()

    def test_downward_direction(self, hm_profile):
        br = continue_branch(hm_profile, -1.0, dc_init=0.5)
        # a downward sweep still comes back sorted: target first, seed last
        cs = _cs(br)
        assert np.all(np.diff(cs) > 0)
        assert cs[0] == pytest.approx(-1.0)
        assert cs[-1] == hm_profile.c
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
        p, report = newton.solve(FrontProfile(c=0.0, grid=g2, u=q.u), tol=1e-9)
        assert p.converged and report.iterations <= 5

    def test_left_extension_matches_closure(self, hm_profile):
        g2 = make_grid(hm_profile.grid.x_min - 20.0, hm_profile.grid.x_max, 0.01)
        q = reinterpolate(hm_profile, g2)
        x = g2.nodes()
        left = x < hm_profile.grid.x_min - 1e-9
        expected = np.array([left_value(0.0, float(t)) for t in x[left]])
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


def _count_newton_solves(monkeypatch):
    calls = []
    real_solve = newton.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0].c)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(newton, "solve", counting_solve)
    return calls


class TestSolveFront:
    def test_positive_c_direct(self):
        p = solve_front(4.0)
        assert p.converged
        assert diagnostics.admissibility(p) == []

    def test_failed_anchor_solve_is_not_repeated(self, monkeypatch):
        calls = _count_newton_solves(monkeypatch)
        # an unreachable tolerance makes the c = 0 solve fail quickly, and
        # its error is the command's
        monkeypatch.setattr(newton, "MAX_ITERATIONS", 2)
        with pytest.raises(newton.MaxIterationsError):
            solve_front(0.0, tol=1e-16)
        assert calls == [0.0]

    @pytest.mark.parametrize("h, cs", [
        (0.04, np.arange(2.0, 13.0 + 1e-9, 0.25)),
        (0.01, [2.01, 2.1, 2.2, 8.6, 10.23, 12.0, 13.0])])
    def test_one_newton_solve_for_positive_c(self, h, cs, monkeypatch):
        # the c/4 cut-off of the seed reaches the admissible front directly,
        # also just above c = 2 and up to c = 13
        calls = _count_newton_solves(monkeypatch)
        for c in cs:
            del calls[:]
            p = solve_front(float(c), h=h)
            assert calls == [float(c)] and p.grid.h == pytest.approx(h)

    def test_tail_amplitude_matches_continued_front(self, hm_profile):
        # the front continued from c = 0 and re-solved on solve_front's grid
        # is the same solution: log k is its most sensitive scalar
        p = hm_profile
        for c in (3.0, 6.0, 8.6, 10.0, 12.0):
            p = continue_branch(p, c).points[-1][1]
            direct = solve_front(c)
            continued, _ = newton.solve(reinterpolate(p, direct.grid))
            assert (fit_tail_coefficients(direct).log_k
                    == pytest.approx(fit_tail_coefficients(continued).log_k,
                                     rel=0.0, abs=1e-9))

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
