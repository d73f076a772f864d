import importlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy, airye

from quenchfront import bvp, continuation
from quenchfront.asymptotics import (OMEGA0, erf_front_position, erf_profile,
                                     erf_profile_vec, front_loc_largec,
                                     front_loc_negc, left_tail, log_airy,
                                     right_tail_log_derivative)


@pytest.mark.parametrize("module", ["quenchfront", "quenchfront.asymptotics"])
def test_star_import_resolves_all(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= namespace.keys()


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
        def right_tail(x, c):
            # the Airy tail's leading term e^{-cx/2} z^{-1/4} e^{-(2/3) z^{3/2}}
            z = x + c * c / 4.0
            return math.exp(-0.5 * c * x - (2.0 / 3.0) * z ** 1.5) * z ** -0.25

        c, x, dx = 1.0, 7.0, 1e-3
        ratio = right_tail(x + dx, c) / right_tail(x, c)
        assert math.log(ratio) / dx == pytest.approx(
            right_tail_log_derivative(x + dx / 2, c), rel=1e-5)

    def test_log_airy_matches_scipy(self):
        # airye(z) = Ai(z) e^{zeta}, zeta = (2/3) z^{3/2}, stays finite where
        # Ai(z) underflows (z > 104)
        z = np.linspace(8.0, 200.0, 3841)
        exact = np.log(airye(z)[0]) - (2.0 / 3.0) * z ** 1.5
        assert np.max(np.abs(log_airy(z) - exact)) <= 5e-12
        finite = z < 100.0
        assert np.max(np.abs(log_airy(z[finite]) - np.log(airy(z[finite])[0]))) <= 5e-12


class TestLeftTail:
    def test_c_zero_series_value(self):
        assert left_tail(-10.0, 0.0) == pytest.approx(
            math.sqrt(10.0) * (1.0 - 1.0 / 8000.0), rel=1e-14)

    def test_printed_drift_term(self):
        # balance about sqrt(s), s = -x: u = sqrt(s)(1 - c/(4s^2) - 1/(8s^3) + ...)
        x, c = -10.0, 2.0
        expected = math.sqrt(10.0) * (1.0 - c / (4.0 * x * x) - 1.0 / 8000.0)
        assert left_tail(x, c) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("c", [-3.0, 0.0, 2.0])
    def test_is_the_left_closure(self, c):
        for x_min in (-25.0, -32.25):
            assert bvp.left_value(c, x_min) == left_tail(x_min, c)

    def test_c_to_zero_limit(self):
        x = -8.0
        gap = abs(left_tail(x, 1e-9) - left_tail(x, 0.0))
        assert gap <= 2.0 * math.sqrt(-x) / (8.0 * (-x) ** 3)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            left_tail(-1.0, 0.0)


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
        series = np.array([left_tail(float(t), c) for t in x[w]])
        assert np.abs(p.u[w] - series).max() <= 1e-3

    @pytest.mark.parametrize("c", [-1.0, -0.01, 0.0, 0.01, 1.0])
    def test_series_error_is_its_next_term_for_small_c(self, c):
        # with both corrections kept for every c, what is left at s = 20 is
        # the next term (9/32) c^2/s^4 (relative) plus discretization
        s = 20.0
        p = continuation.solve_front(c)
        i = int(round((-s - p.grid.x_min) / p.grid.h))
        gap = abs(p.u[i] - left_tail(-s, c)) / math.sqrt(s)
        assert gap <= 2.0 * (9.0 / 32.0) * c * c / s ** 4 + 1e-7

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

    @pytest.mark.parametrize("c", [-3.0, -10.0])
    def test_vector_stays_finite_where_erfc_underflows(self, c):
        # e^{x^2/(2c)} / sqrt(erfc(z)) = 1/sqrt(erfcx(z)), z = -x/sqrt(-c),
        # which tends to sqrt(-x); erfc(z) underflows past z = 26.5
        from scipy.special import erfcx
        z = np.linspace(20.0, 200.0, 3001)
        got = erf_profile_vec(-z * math.sqrt(-c), c)
        want = (-c) ** 0.25 / (math.pi ** 0.25 * np.sqrt(erfcx(z)))
        assert np.all(np.abs(got - want) <= 2e-13 * want)

    @pytest.mark.parametrize("z", [25.9, 26.1, 27.0, 27.3, 28.0, 40.0])
    def test_scalar_stays_finite_where_erfc_underflows(self, z):
        # erfc(z) goes subnormal near z = 26.6 and underflows by z = 27.3;
        # the scalar takes the vector's far-field series there
        from scipy.special import erfcx
        c = -4.0
        x = -z * math.sqrt(-c)
        want = (-c) ** 0.25 / (math.pi ** 0.25 * math.sqrt(erfcx(z)))
        assert erf_profile(x, c) == pytest.approx(want, rel=2e-13)
        assert erf_profile(x, c) == pytest.approx(erf_profile_vec(x, c), rel=1e-15)

    def test_vector_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
        assert erf_profile_vec(x, -4.0).shape == (2, 3)
        assert erf_profile_vec(0.5, -4.0) == pytest.approx(erf_profile(0.5, -4.0),
                                                          rel=1e-15)


# The two special functions the package relies on: erf, through the
# closed-form profile (standard library ``math.erfc``), and the first zero
# Omega0 of Ai(-z), the literal ``asymptotics.OMEGA0`` in the front-delay law.

def erf_quadrature(x):
    """Independent oracle: adaptive quadrature of (2/sqrt(pi)) e^{-t^2}."""
    val, err = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
                    0.0, x, epsabs=1e-15, epsrel=1e-13)
    assert err < 1e-12
    return val


def airy_series(z):
    """Independent oracle: Maclaurin series of the Airy function, built from
    math.gamma only."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    f_term, g_term = 1.0, z
    f_sum, g_sum = f_term, g_term
    z3 = z ** 3
    for k in range(1, 80):
        f_term *= z3 / ((3 * k) * (3 * k - 1))
        g_term *= z3 / ((3 * k) * (3 * k + 1))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-18 * abs(f_sum) and abs(g_term) < 1e-18 * abs(g_sum):
            break
    return ai0 * f_sum + aip0 * g_sum


def profile_from_erf(z, erf_z):
    """Closed-form profile at c = -1 (where x = z) built from a given erf(z):
    u = e^{-z^2/2} / (pi^{1/4} (1 + erf z)^{1/2})."""
    return math.exp(-z * z / 2.0) / (math.pi ** 0.25 * math.sqrt(1.0 + erf_z))


class TestErf:
    """The error function enters the package only through the closed-form
    profile's denominator erf(z) + 1 = erfc(-z), which the standard library
    evaluates; it is checked there, at c = -1."""

    def test_origin(self):
        # erf(0) = 0 leaves the amplitude law exactly
        for c in (-1.0, -20.0, -200.0):
            assert erf_profile(0.0, c) == (-c) ** 0.25 / math.pi ** 0.25

    def test_saturation(self):
        assert erf_profile(10.0, -1.0) == pytest.approx(
            profile_from_erf(10.0, 1.0), rel=1e-15)
        # 1 + erf(-10) = erfc(10) = 2.0884875837625447570e-45 (40-digit mpmath)
        assert erf_profile(-10.0, -1.0) == pytest.approx(
            math.exp(-50.0) / (math.pi ** 0.25 * math.sqrt(2.0884875837625447570e-45)),
            rel=1e-14)

    def test_reference_point(self):
        # oracle value 0.8427007929497149 from the defining integral
        assert erf_profile(1.0, -1.0) == pytest.approx(
            profile_from_erf(1.0, erf_quadrature(1.0)), rel=1e-14)
        assert erf_profile(1.0, -1.0) == pytest.approx(
            profile_from_erf(1.0, 0.8427007929497149), rel=1e-14)

    def test_accuracy_against_quadrature(self):
        for z in np.concatenate([np.linspace(0.05, 6.0, 41), [2.999, 3.001]]):
            assert erf_profile(float(z), -1.0) == pytest.approx(
                profile_from_erf(float(z), erf_quadrature(float(z))), rel=1e-14)

    def test_odd_symmetry_exact(self):
        # erf(-z) = -erf(z): (1 + erf z) + (1 + erf(-z)) = 2, read off the
        # profile as 1 + erf(+-z) = e^{-z^2} / (sqrt(pi) u(+-z)^2)
        for z in [0.3, 1.7, 2.9999, 3.0001, 5.5, 7.0]:
            total = math.exp(-z * z) / math.sqrt(math.pi) * (
                erf_profile(z, -1.0) ** -2 + erf_profile(-z, -1.0) ** -2)
            assert total == pytest.approx(2.0, rel=1e-14)

    def test_monotone_and_bounded(self):
        # (1 + erf z)^{-1/2} = pi^{1/4} e^{z^2/2} u(z) strictly decreasing
        # while increments stay above roundoff, and above 2^{-1/2} (erf < 1)
        zs = np.linspace(-5.0, 5.0, 201)
        w = [math.pi ** 0.25 * math.exp(z * z / 2.0) * erf_profile(float(z), -1.0)
             for z in zs]
        assert all(b < a for a, b in zip(w, w[1:]))
        assert all(2.0 ** -0.5 < v < math.inf for v in w)
        # wider: u non-increasing and never below its erf = 1 value
        wide = np.linspace(-7.0, 7.0, 57)
        u = [erf_profile(float(z), -1.0) for z in wide]
        assert all(b <= a for a, b in zip(u, u[1:]))
        assert all(v >= profile_from_erf(float(z), 1.0) for z, v in zip(wide, u))


def airy_zero_by_bisection(lo=2.0, hi=2.5):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if airy_series(-lo) * airy_series(-mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestOmega0:
    """OMEGA0 is a stored literal; independent oracles pin it."""

    def test_value_against_airy_oracle(self):
        assert OMEGA0 == pytest.approx(airy_zero_by_bisection(), abs=1e-10)
        assert OMEGA0 == pytest.approx(2.3381074105, abs=1e-9)

    def test_matches_scipy_to_one_ulp(self):
        from scipy.special import ai_zeros
        assert abs(-ai_zeros(1)[0][0] - OMEGA0) <= math.ulp(OMEGA0)

    def test_residual_and_bracket(self):
        # Ai'(-Omega0) = 0.70, so +-1e-12 moves Ai by ~7e-13, far above the
        # series' roundoff: the root lies in that bracket
        assert airy_series(-(OMEGA0 - 1e-12)) > 0 > airy_series(-(OMEGA0 + 1e-12))
        assert abs(airy_series(-OMEGA0)) < 1e-14

    def test_derived_delay_constant(self):
        assert OMEGA0 * (15.0 / 16.0) ** (2.0 / 3.0) == pytest.approx(
            2.2396422032, abs=1e-8)

    def test_sign_change_bracket_on_2_25(self):
        assert airy_series(-2.0) * airy_series(-2.5) < 0

    def test_smallest_root_no_earlier_sign_change(self):
        zs = np.arange(1e-3, OMEGA0 - 1e-6, 1e-3)
        signs = np.sign([airy_series(-float(z)) for z in zs])
        assert np.all(signs == signs[0])
