"""Closed-form limit profiles and front-position predictions.

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
    "right_tail_log_derivative",
    "erf_front_position",
]

# Omega0 = a_1 = 2.338107410459767...: the first zero of Ai(-z), equivalently
# the smallest positive root of J_{-1/3}(2z^{3/2}/3) + J_{1/3}(2z^{3/2}/3)
# (DLMF 9.9, Table 9.9.1), correctly rounded to double.
OMEGA0 = 2.338107410459767

_PI_QUARTER = math.pi ** 0.25
_erfc = np.frompyfunc(math.erfc, 1, 1)


def erf_profile(x: float, c: float) -> float:
    """Leading-order front profile for c < 0:
    u = (-c)^{1/4} e^{x^2/(2c)} / (pi^{1/4} (erf(x/sqrt(-c)) + 1)^{1/2})."""
    if c >= 0:
        raise ValueError(f"erf profile requires c < 0, got c={c}")
    # erf(z) + 1 = erfc(-z), which keeps full relative accuracy for z << 0
    denom = math.erfc(-x / math.sqrt(-c))
    return (-c) ** 0.25 * math.exp(x * x / (2.0 * c)) / (_PI_QUARTER * math.sqrt(denom))


def erf_profile_vec(x: np.ndarray, c: float) -> np.ndarray:
    """``erf_profile`` at every entry of x."""
    if c >= 0:
        raise ValueError(f"erf profile requires c < 0, got c={c}")
    x = np.asarray(x, dtype=float)
    denom = np.asarray(_erfc(-x / math.sqrt(-c)), dtype=float)
    return (-c) ** 0.25 * np.exp(x * x / (2.0 * c)) / (_PI_QUARTER * np.sqrt(denom))


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


def right_tail_log_derivative(x: float, c: float) -> float:
    """d/dx log of the leading right-tail term
    alpha_+ exp(-(2/3)(x + c^2/4)^{3/2} - c x/2) x^{-1/4}:
    -sqrt(x + c^2/4) - c/2 - 1/(4x)."""
    return -math.sqrt(x + c * c / 4.0) - 0.5 * c - 0.25 / x


def left_tail(x: float, c: float) -> float:
    """Left-tail expansion: sqrt(-x) times its algebraic series.

    The series keeps its first correction.  For c = 0 that is the classical
    -1/(8(-x)^3).  For c != 0 it is -c/(4 x^2), the dominant balance of
    u'' + c u' - x u - u^3 = 0 about u = sqrt(-x) (substitute
    u = sqrt(s)(1 + A/s^2), s = -x: the O(s^{-1/2}) balance forces
    A = -c/4).  The same coefficient follows from the closed-form
    large-negative-c profile, whose expansion continues
    1 - c/(4x^2) - (9/32) c^2/x^4 - ...
    """
    if not x < -2.0:
        raise ValueError(f"left tail needs x < -2, got x={x}")
    s = -x
    if c == 0.0:
        algebraic = 1.0 - 1.0 / (8.0 * s ** 3)
    else:
        algebraic = 1.0 - c / (4.0 * s * s)
    return math.sqrt(s) * algebraic


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
