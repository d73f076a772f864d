import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchfront.bvp import FrontProfile
from quenchfront.continuation import solve_front
from quenchfront.diagnostics import (admissibility, crossings, front_position,
                                     line_slope, u_at_zero)
from quenchfront.evolve import PLATEAU_MARGIN, measured_rate, solve_tanh_front
from quenchfront.grid import UniformSpline, make_grid


def synthetic_profile(fn, x_min=-5.0, x_max=8.0, h=0.001, c=0.0):
    g = make_grid(x_min, x_max, h)
    return FrontProfile(c=c, grid=g, u=fn(g.nodes()), converged=True)


class TestFrontPosition:
    def test_analytic_exponential_crossing(self):
        p = synthetic_profile(lambda x: np.exp(-x))
        assert front_position(p, math.exp(-2.0)) == pytest.approx(2.0, abs=1e-6)

    def test_hm_reference_value(self, hm_profile):
        assert front_position(hm_profile, 0.1) == pytest.approx(1.51115, abs=1e-3)

    def test_delta_outside_range(self, hm_profile):
        with pytest.raises(ValueError):
            front_position(hm_profile, 100.0)
        with pytest.raises(ValueError):
            front_position(hm_profile, -0.1)

    def test_error_bound_recorded(self, hm_profile):
        # the interpolated level crossing sits where the cubic spline of u
        # passes delta, up to the linear-interpolation error h^2 |u''| / 8
        g = hm_profile.grid
        x_delta = front_position(hm_profile, 0.1)
        spline = UniformSpline(g.x_min, g.h, hm_profile.u)
        assert float(spline(x_delta)) == pytest.approx(0.1, abs=1e-5)


class TestCrossings:
    def test_hm_unique_crossing(self, hm_profile):
        roots = crossings(hm_profile)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-0.682447, abs=1e-3)

    def test_transversality(self, hm_profile):
        # d/dx (x u + u^3) over the mesh interval holding the crossing
        root = crossings(hm_profile)[0]
        x, u = hm_profile.grid.nodes(), hm_profile.u
        i = int(np.searchsorted(x, root)) - 1
        g = x * u + u ** 3
        assert x[i] <= root <= x[i + 1]
        assert abs((g[i + 1] - g[i]) / hm_profile.grid.h) > 1e-6

    def test_crossing_is_sqrt_intersection(self, hm_profile):
        root = crossings(hm_profile)[0]
        x = hm_profile.grid.nodes()
        i = int(np.argmin(np.abs(x - root)))
        assert hm_profile.u[i] == pytest.approx(math.sqrt(-x[i]), abs=1e-3)

    def test_no_crossing_when_u_stays_below_sqrt_branch(self):
        # u < sqrt(-x) where positive and exactly zero near the origin:
        # x u + u^3 never changes sign
        p = synthetic_profile(lambda x: 0.1 * np.clip(-x - 2.0, 0.0, None),
                              x_min=-8.0)
        assert crossings(p) == []

    @pytest.mark.parametrize("a", [1e-150, 1e-8])
    def test_root_next_to_origin(self, a):
        # u = a e^{-x} crosses sqrt(-x) once, at x0 = W(-2 a^2)/2 = -a^2 to
        # double precision; x u + u^3 underflows there for a = 1e-150, and
        # x0 is far below any absolute bisection tolerance for a = 1e-8
        p = synthetic_profile(lambda x: a * np.exp(-x))
        roots = crossings(p)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-a * a, rel=1e-6)

    def test_root_inside_last_interval_refined(self):
        # x0 = -0.00648 lies in the last interval [-h, 0], where -a^2 alone
        # is 1.3% off the root W(-2 a^2)/2
        from scipy.special import lambertw
        a = 0.08
        p = synthetic_profile(lambda x: a * np.exp(-x), x_min=-2.0, h=0.01)
        roots = crossings(p)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(lambertw(-2 * a * a).real / 2, rel=1e-8)


class TestAdmissibility:
    def test_zero_state_rejected(self):
        g = make_grid(-20.0, 10.0, 0.01)
        p = FrontProfile(c=0.0, grid=g, u=np.zeros(g.n), converged=True)
        problems = admissibility(p)
        assert any(m.startswith("left boundary gap 4.47 ") for m in problems)

    def test_converged_front_admissible(self, hm_profile):
        assert admissibility(hm_profile) == []

    def test_perturbed_profile_rejected_with_location(self, hm_profile):
        u = hm_profile.u.copy()
        i = int(np.argmin(np.abs(hm_profile.grid.nodes() + 3.0)))
        u[i] -= 0.3  # carve a non-monotone notch
        p = FrontProfile(c=0.0, grid=hm_profile.grid, u=u, converged=True)
        assert admissibility(p) == ["increase at x=-3"]

    def test_negative_dip_rejected(self, hm_profile):
        u = hm_profile.u.copy()
        i = int(np.argmin(np.abs(hm_profile.grid.nodes() - 5.0)))
        u[i] = -1e-3
        p = FrontProfile(c=0.0, grid=hm_profile.grid, u=u, converged=True)
        assert "non-positive value at x=5" in admissibility(p)

    @pytest.mark.parametrize("i, value, x", [(300, math.nan, "-18"), (300, math.inf, "-18"),
                                             (0, math.nan, "-30")])
    def test_non_finite_value_is_the_only_problem(self, i, value, x):
        p = solve_front(0.0, h=0.04)
        u = p.u.copy()
        u[i] = value
        assert admissibility(FrontProfile(c=0.0, grid=p.grid, u=u)) == [
            f"non-finite value at x={x}"]

    @pytest.mark.parametrize("eps", [0.001, 0.01])
    def test_tanh_front_admissible(self, eps):
        # u[0] is pinned to the tanh ramp's own limit sqrt(tanh(-eps x_min)),
        # far below the linear ramp's sqrt(-x_min) = 17.3
        assert admissibility(solve_tanh_front(eps, 0.0)) == []


class TestUAtZero:
    def test_node_exact(self, hm_profile):
        x = hm_profile.grid.nodes()
        i = int(np.argmin(np.abs(x)))
        assert u_at_zero(hm_profile) == hm_profile.u[i]

    def test_off_grid_interpolation(self):
        from quenchfront.grid import Grid
        g = Grid(0.05, 1.05, 11)  # zero not a node
        p = FrontProfile(c=0.0, grid=g, u=np.exp(-g.nodes()), converged=True)
        # extrapolated via cubic spline; crude but finite
        assert np.isfinite(u_at_zero(p))


class TestLineSlope:
    """The closed-form slope is the least-squares slope ``np.polyfit`` finds."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 300), slope=st.floats(1e-3, 1e3), sign=st.sampled_from([-1, 1]),
           span=st.floats(1e-2, 1e2), offset=st.floats(-5.0, 5.0),
           intercept=st.floats(-10.0, 10.0), noise=st.floats(0.0, 0.1),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_polyfit_on_noisy_lines(self, n, slope, sign, span, offset,
                                            intercept, noise, seed):
        # nodes jittered by up to 0.4 of their spacing over [offset, offset + 1]
        # spans; intercept and noise in units of |slope| span, so the fitted
        # slope keeps the sign and at least 0.8 of the size of ``slope``
        rng = np.random.default_rng(seed)
        x = span * (offset + (np.arange(n) + rng.uniform(-0.4, 0.4, n)) / (n - 1))
        y = slope * span * (intercept + noise * rng.uniform(-1.0, 1.0, n)) + sign * slope * x
        assert line_slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12, abs=0.0)

    def test_matches_polyfit_on_the_plateau_history(self):
        # the synthetic deviation history of measured_rate's plateau test
        t = np.arange(0.0, 30.0, 0.25)
        d = 1e-3 * np.exp(-t) + 1e-11
        mask = (d > PLATEAU_MARGIN * 1e-11) & (d < 0.5 * d[0]) & (t > 0)
        slope = line_slope(t[mask], np.log(d[mask]))
        assert slope == pytest.approx(np.polyfit(t[mask], np.log(d[mask]), 1)[0],
                                      rel=1e-12, abs=0.0)
        assert measured_rate(list(zip(t, d)), 1e-11) == (slope, 34)


class TestBundle:
    """The front scalars a profile header reports, one function each."""

    def test_compute_diagnostics_fields(self, hm_profile):
        assert admissibility(hm_profile) == []
        assert np.diff(hm_profile.u).max() <= 0.0  # flat only where the tail underflowed
        assert u_at_zero(hm_profile) == pytest.approx(0.5191034, abs=1e-5)
        assert len(crossings(hm_profile)) == 1
