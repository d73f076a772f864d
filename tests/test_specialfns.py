"""The two special functions the package relies on: erf, through the
closed-form profile (standard library ``math.erfc``), and the first zero
Omega0 of Ai(-z), the literal ``asymptotics.OMEGA0`` in the front-delay law.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from quenchfront.asymptotics import OMEGA0, erf_profile


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
