import math

import numpy as np
import pytest

from quenchfront import asymptotics, bvp, continuation
from quenchfront.asymptotics import (erf_front_position, erf_profile,
                                     erf_profile_vec, front_loc_largec,
                                     front_loc_negc, left_tail, right_tail,
                                     right_tail_log_derivative)


class TestErfProfile:
    def test_amplitude_at_origin(self):
        for c in (-5.0, -100.0, -200.0):
            assert erf_profile(0.0, c) == pytest.approx(
                (-c) ** 0.25 / math.pi ** 0.25, rel=1e-14)

    def test_reference_value_c200(self):
        assert erf_profile(0.0, -200.0) == pytest.approx(2.824685045811064,
                                                         rel=1e-12)

    def test_decays_to_zero(self):
        assert erf_profile(60.0, -4.0) < 1e-10

    def test_strictly_decreasing(self):
        xs = np.linspace(-20.0, 25.0, 301)
        vals = [erf_profile(float(x), -30.0) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_amplitude_grows_with_negative_c(self):
        assert erf_profile(0.0, -50.0) > erf_profile(0.0, -10.0)

    def test_recovers_sqrt_branch_on_left(self):
        # for x << -sqrt(-c) the formula follows sqrt(-x) with relative
        # error ~ -c/(4 x^2)
        c = -100.0
        for x in (-40.0, -60.0):
            rel = erf_profile(x, c) / math.sqrt(-x) - 1.0
            assert rel == pytest.approx(-c / (4.0 * x * x), rel=0.2)

    def test_rejects_nonnegative_c(self):
        with pytest.raises(ValueError):
            erf_profile(0.0, 0.0)
        with pytest.raises(ValueError):
            erf_profile(0.0, 2.0)


class TestFrontLocations:
    def test_largec_values(self):
        assert front_loc_largec(10.0) == pytest.approx(-27.239642203, abs=1e-8)
        assert front_loc_largec(2.0) == pytest.approx(-3.2396422032, abs=1e-8)

    def test_largec_shift_is_c_independent(self):
        vals = [front_loc_largec(c) + c * c / 4.0 for c in (2.0, 5.0, 17.0)]
        assert max(vals) - min(vals) <= 1e-12

    def test_negc_values(self):
        assert front_loc_negc(-100.0) == 10.0
        assert front_loc_negc(-200.0) == pytest.approx(14.142135623730951)

    def test_touchdown_scaling(self):
        # departure point from the sqrt branch scales like sqrt(-c): the
        # profile at x = sqrt(-c) holds a c-independent fraction of u(0)
        ratios = [erf_profile(math.sqrt(-c), c) / erf_profile(0.0, c)
                  for c in (-50.0, -100.0, -400.0)]
        assert max(ratios) - min(ratios) <= 1e-3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            front_loc_largec(0.0)
        with pytest.raises(ValueError):
            front_loc_negc(1.0)


class TestRightTail:
    def test_log_derivative_consistency(self):
        c, x, dx = 1.0, 7.0, 1e-3
        ratio = right_tail(x + dx, c, 0.4) / right_tail(x, c, 0.4)
        assert math.log(ratio) / dx == pytest.approx(
            right_tail_log_derivative(x + dx / 2, c), rel=1e-5)

    def test_faster_decay_with_positive_c(self):
        for x in (2.0, 5.0, 8.0):
            assert right_tail(x, 1.0, 0.4) < right_tail(x, 0.0, 0.4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            right_tail(0.5, 0.0, 1.0)


class TestLeftTail:
    def test_c_zero_series_value(self):
        assert left_tail(-10.0, 0.0, 0.0) == pytest.approx(
            math.sqrt(10.0) * (1.0 - 1.0 / 8000.0), rel=1e-14)

    def test_printed_drift_term(self):
        # dominant balance about sqrt(-x): u = sqrt(-x)(1 - c/(4x^2) + ...)
        x, c = -10.0, 2.0
        expected = math.sqrt(10.0) * (1.0 - c / (4.0 * x * x))
        assert left_tail(x, c, 0.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("c", [-3.0, 0.0, 2.0])
    def test_is_the_left_closure(self, c):
        for x_min in (-25.0, -32.25):
            assert bvp.left_value(c, x_min) == left_tail(x_min, c, 0.0)

    def test_c_to_zero_limit(self):
        x = -8.0
        gap = abs(left_tail(x, 1e-9, 0.0) - left_tail(x, 0.0, 0.0))
        assert gap <= 2.0 * math.sqrt(-x) / (8.0 * (-x) ** 3)

    def test_exponential_term_direction(self):
        # positive alpha_- raises the profile by sqrt(-x) alpha_- e^{E}
        x, c = -6.0, 0.0
        base = left_tail(x, c, 0.0)
        up = left_tail(x, c, 1.0)
        expo = asymptotics.left_tail_exponent(x, c)
        assert up - base == pytest.approx(math.sqrt(-x) * math.exp(expo), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            left_tail(-1.0, 0.0, 0.0)


class TestConvergedProfileAgreement:
    def test_left_series_at_minus_ten(self, hm_profile):
        i = int(np.argmin(np.abs(hm_profile.grid.nodes() + 10.0)))
        gap = math.sqrt(10.0) - hm_profile.u[i]
        assert abs(gap) <= 2.0 * math.sqrt(10.0) / 8000.0

    @pytest.mark.parametrize("c", [-5.0, -1.0, 1.0, 3.0])
    def test_solved_front_follows_left_series(self, c):
        # the series' O(c/x^2) term is the one the solved fronts follow:
        # max|u - series| on [-20, -15] is 1.6e-4 to 6.4e-4 at h = 0.04, and
        # 1.0e-2 to 5.1e-2 with the coefficient c/(2 sqrt2) in its place
        p = continuation.solve_front(c, h=0.04)
        x = p.grid.nodes()
        w = (x >= -20.0) & (x <= -15.0)
        series = np.array([left_tail(float(t), c, 0.0) for t in x[w]])
        assert np.abs(p.u[w] - series).max() <= 1e-3

    def test_fitted_log_slope_near_prediction(self, hm_profile):
        x = hm_profile.grid.nodes()
        w = (x >= 6.0) & (x <= 9.0)
        slope = np.polyfit(x[w], np.log(hm_profile.u[w]), 1)[0]
        predicted = np.mean([right_tail_log_derivative(t, 0.0) for t in x[w]])
        assert abs(slope - predicted) / abs(predicted) <= 0.05


class TestErfFrontPosition:
    def test_is_level_crossing(self):
        for c, delta in ((-50.0, 0.1), (-200.0, 0.1), (-10.0, 1e-6)):
            xd = erf_front_position(c, delta)
            assert erf_profile(xd, c) == pytest.approx(delta, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            erf_front_position(1.0)
        with pytest.raises(ValueError):
            erf_front_position(-10.0, delta=100.0)


class TestPredict:
    def test_scalar_kinds(self):
        # amplitude law u(0; c) = (-c)^{1/4} / pi^{1/4}, delay and advance
        assert erf_profile(0.0, -16.0) == pytest.approx(2.0 / math.pi ** 0.25)
        assert front_loc_largec(3.0) < 0.0 and math.isfinite(front_loc_largec(3.0))
        assert front_loc_negc(-9.0) == 3.0

    def test_profile_kind_decreasing(self):
        vals = erf_profile_vec(np.linspace(-5.0, 5.0, 21), -20.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_validation(self):
        for fn in (erf_profile, erf_profile_vec, front_loc_negc):
            with pytest.raises(ValueError):
                fn(0.0, 1.0) if fn is not front_loc_negc else fn(1.0)
        with pytest.raises(ValueError):
            front_loc_largec(-1.0)
        with pytest.raises(ValueError):
            right_tail(0.0, 0.0, 1.0)


class TestErfProfileOracle:
    """scipy.special.erfc is the oracle for the closed-form profile."""

    @staticmethod
    def oracle(x, c):
        from scipy.special import erfc
        return ((-c) ** 0.25 * np.exp(x * x / (2.0 * c))
                / (math.pi ** 0.25 * np.sqrt(erfc(-x / math.sqrt(-c)))))

    @pytest.mark.parametrize("c", [-1.0, -20.0, -200.0])
    def test_vector_and_scalar_match_scipy(self, c):
        # from the left closure past the level where the profile underflows
        x = np.linspace(-25.0, 40.0 * math.sqrt(-c), 4001)
        want = self.oracle(x, c)
        got = erf_profile_vec(x, c)
        assert np.array_equal(got == 0.0, want == 0.0)
        # scipy's erfc is itself off by up to 5.7e-14 near 25 (against
        # 40-digit mpmath; math.erfc by 3.4e-16), which halves in sqrt
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        scalar = np.array([erf_profile(float(t), c) for t in x])
        assert np.all(np.abs(scalar - want) <= 1e-13 * want)

    def test_vector_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
        assert erf_profile_vec(x, -4.0).shape == (2, 3)
        assert erf_profile_vec(0.5, -4.0) == pytest.approx(erf_profile(0.5, -4.0),
                                                          rel=1e-15)
