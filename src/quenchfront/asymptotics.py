"""Closed-form limit profiles, the Airy right tail and front-position predictions.

These formulas serve double duty: initial guesses for the Newton solver and
independent cross-checks for converged solutions.  All evaluation happens in
the un-scaled (x, u, c) variables; the internal rescalings valid for large
|c| are applied inside each function.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "OMEGA0",
    "erf_profile",
    "erf_profile_vec",
    "front_loc_largec",
    "front_loc_negc",
    "left_tail",
    "log_airy",
    "right_tail_log_derivative",
    "erf_front_position",
]

# Omega0 = a_1 = 2.338107410459767...: the first zero of Ai(-z), equivalently
# the smallest positive root of J_{-1/3}(2z^{3/2}/3) + J_{1/3}(2z^{3/2}/3)
# (DLMF 9.9, Table 9.9.1), correctly rounded to double.
OMEGA0 = 2.338107410459767

_PI_QUARTER = math.pi ** 0.25
_erfc = np.frompyfunc(math.erfc, 1, 1)
_FAR_Z = 26.0   # z past which the profile takes its far-field series
# (-1)^k u_k, k = 12 down to 0, of Ai's series (DLMF 9.7.2, 9.7.5), from their ratios
_AIRY_U = np.cumprod([1.0] + [-(6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
                              for k in range(1, 13)])[::-1]


def erf_profile(x: float, c: float) -> float:
    """Leading-order front profile for c < 0:
    u = (-c)^{1/4} e^{x^2/(2c)} / (pi^{1/4} (erf(x/sqrt(-c)) + 1)^{1/2}).
    Scalar for erf_front_position's bisection: 0.56 us a call, erf_profile_vec's 51."""
    if c >= 0:
        raise ValueError(f"erf profile requires c < 0, got c={c}")
    z = -x / math.sqrt(-c)
    if z > _FAR_Z:
        return float(_far_field(z, c))
    # erf(z) + 1 = erfc(-z), which keeps full relative accuracy for z << 0
    return (-c) ** 0.25 * math.exp(x * x / (2.0 * c)) / (_PI_QUARTER * math.sqrt(math.erfc(z)))


def _far_field(z, c: float):
    """The profile past z = -x/sqrt(-c) = 26, where erfc(z) nears underflow:
    e^{x^2/(2c)}/sqrt(erfc(z)) is 1/sqrt(erfcx(z)), from the series sum_{k<=8}
    (-1)^k (2k-1)!!/(2z^2)^k / (z sqrt(pi)) of erfcx(z) = e^{z^2} erfc(z)
    (error < 1e-20): finite, tending to sqrt(-x)."""
    series = 1.0
    for k in range(15, 0, -2):
        series = 1.0 - k * series / (2.0 * z ** 2)
    return (-c) ** 0.25 / _PI_QUARTER * np.sqrt(z * math.sqrt(math.pi) / series)


def erf_profile_vec(x: np.ndarray, c: float) -> np.ndarray:
    """``erf_profile`` at every entry of x."""
    if c >= 0:
        raise ValueError(f"erf profile requires c < 0, got c={c}")
    x = np.asarray(x, dtype=float)
    z = -x / math.sqrt(-c)
    far, out = z > _FAR_Z, np.empty_like(x)
    denom = np.asarray(_erfc(z[~far]), dtype=float)
    out[~far] = (-c) ** 0.25 * np.exp(x[~far] ** 2 / (2.0 * c)) / (_PI_QUARTER * np.sqrt(denom))
    out[far] = _far_field(z[far], c)
    return out


def front_loc_largec(c: float) -> float:
    """Delayed front position -c^2/4 - Omega0 * (15/16)^{2/3} for c > 0."""
    if c <= 0:
        raise ValueError(f"front delay formula requires c > 0, got c={c}")
    return -c * c / 4.0 - OMEGA0 * (15.0 / 16.0) ** (2.0 / 3.0)


def front_loc_negc(c: float) -> float:
    """Reverse-quench position sqrt(-c) for c < 0."""
    if c >= 0:
        raise ValueError(f"reverse-quench formula requires c < 0, got c={c}")
    return math.sqrt(-c)


def log_airy(z):
    """log Ai(z) = -zeta - log(2 sqrt(pi) z^{1/4}) + log sum_k (-1)^k u_k / zeta^k,
    zeta = (2/3) z^{3/2}: within 4e-12 for z >= 8, finite where Ai underflows.
    The front's right tail is k e^{-cx/2} Ai(x + c^2/4), which solves u'' + c u' = x u."""
    z = np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * z ** 1.5
    series = np.polyval(_AIRY_U, 1.0 / zeta)
    return -zeta - 0.25 * np.log(z) - math.log(2.0 * math.sqrt(math.pi)) + np.log(series)


def right_tail_log_derivative(x, c: float):
    """d/dx log of the leading term e^{-cx/2} z^{-1/4} e^{-(2/3) z^{3/2}} of the
    right tail k e^{-cx/2} Ai(z), z = x + c^2/4: -sqrt(z) - c/2 - 1/(4z)."""
    z = x + c * c / 4.0
    return -np.sqrt(z) - 0.5 * c - 0.25 / z


def left_tail(x: float, c: float) -> float:
    """Left-tail series sqrt(s) (1 - c/(4 s^2) - 1/(8 s^3)), s = -x.

    Substituting u = sqrt(s)(1 + A/s^2 + B/s^3) into u'' + c u' - x u - u^3
    = 0 and balancing the O(s^{-1/2}) and O(s^{-3/2}) terms gives A = -c/4
    and B = -1/8 for every c; at c = 0 this is the Hastings-McLeod series.
    The next term, -(9/32) c^2/s^4, is also the one the closed-form
    large-negative-c profile continues with.  The value is affine in c.
    """
    if not x < -2.0:
        raise ValueError(f"left tail needs x < -2, got x={x}")
    s = -x
    return math.sqrt(s) * (1.0 - c / (4.0 * s * s) - 1.0 / (8.0 * s ** 3))


def erf_front_position(c: float, delta: float = 0.1) -> float:
    """Level-delta crossing of the closed-form profile (c < 0), by bisection.

    The initial bracket comes from the Gaussian shape of the spill-over
    tail, x ~ sqrt(2|c| ln(u(0)/delta)), then widens if needed.
    """
    if c >= 0:
        raise ValueError("erf front position requires c < 0")
    amp = erf_profile(0.0, c)
    if not 0.0 < delta < amp:
        raise ValueError(f"delta={delta} outside the profile's decaying range")
    lo = 0.0
    hi = math.sqrt(2.0 * (-c) * (math.log(amp / delta) + 2.0)) + 5.0
    for _ in range(60):
        if erf_profile(hi, c) < delta:
            break
        hi *= 1.5
    else:
        raise ArithmeticError("could not bracket the level crossing")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if erf_profile(mid, c) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
