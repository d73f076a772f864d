"""Self-contained special-function kernels: Bessel J_{+-1/3} and the
smallest positive root of J_{-1/3}(2 z^{3/2}/3) + J_{1/3}(2 z^{3/2}/3).

The Bessel series is summed in stdlib ``decimal`` arithmetic because the
alternating ascending series cancels up to ~11 digits near x = 30, which
double precision alone cannot absorb at the 1e-12 relative-error target.
The error function comes from the standard library (``math.erfc``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

__all__ = [
    "Omega0Result",
    "bessel_j_third",
    "omega0",
]

# pi to 50 digits, used by the Decimal-precision gamma evaluation.
_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")

_BESSEL_PREC = 50        # working digits for the Bessel series
_OMEGA0_SCAN_STEP = 0.05
_OMEGA0_SCAN_MAX = 10.0


@lru_cache(maxsize=None)
def _gamma_decimal(num: int, den: int) -> Decimal:
    """Gamma(num/den) for 0 < num/den <= 2 via Spouge's approximation.

    With a = 49 terms the relative error is below 1e-39, far beyond the
    50-digit working precision actually needed by the Bessel series.
    """
    a = 49
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(num) / Decimal(den) - 1  # Gamma(z + 1)
        s = (2 * _PI_50).sqrt()
        for k in range(1, a):
            c_k = (Decimal(a - k) ** (Decimal(2 * k - 1) / 2)
                   * Decimal(a - k).exp()
                   / Decimal(math.factorial(k - 1)))
            s += (c_k if (k - 1) % 2 == 0 else -c_k) / (z + k)
        base = z + a
        val = base ** (z + Decimal(1) / 2) * (-base).exp() * s
        return +val


def bessel_j_third(sign: int, x: float) -> float:
    """Bessel function J_nu(x) for nu = sign * 1/3, x > 0.

    Ascending power series summed in 50-digit decimal arithmetic; the
    truncation remainder is bounded by the first omitted term (alternating
    series with eventually decreasing terms) and kept far below 1e-14 of
    the partial sum.  Relative error <= 1e-12 for 0 < x <= 30.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"argument must be positive and finite, got {x!r}")
    gamma_nu_plus_1 = _gamma_decimal(4, 3) if sign > 0 else _gamma_decimal(2, 3)
    with localcontext() as ctx:
        ctx.prec = _BESSEL_PREC
        xd = Decimal(x)
        nu = Decimal(sign) / 3
        term = (xd / 2) ** nu / gamma_nu_plus_1
        total = term
        q = (xd / 2) ** 2
        cutoff = Decimal(10) ** (-(_BESSEL_PREC - 8))
        m = 0
        while True:
            m += 1
            term *= -q / (m * (nu + m))
            total += term
            # past the series peak (m(m+nu) > q) the remainder is bounded
            # by the next term
            if m * m > q and abs(term) < cutoff * abs(total):
                break
            if m > 1000:
                raise ArithmeticError("Bessel series failed to converge")
        return float(total)


@dataclass(frozen=True)
class Omega0Result:
    """Smallest positive root of J_{-1/3}(2z^{3/2}/3) + J_{1/3}(2z^{3/2}/3)."""

    value: float
    residual: float
    bracket: tuple[float, float]


def _bessel_combination(z: float) -> float:
    arg = 2.0 * z ** 1.5 / 3.0
    return bessel_j_third(-1, arg) + bessel_j_third(1, arg)


@lru_cache(maxsize=1)
def omega0() -> Omega0Result:
    """Locate the smallest positive root of the Bessel combination.

    The combination tends to +infinity as z -> 0+, so the first sign change
    of a left-to-right scan brackets the smallest root; bisection then
    converges unconditionally.  Raises if no sign change exists on (0, 10],
    which would indicate a broken Bessel evaluation.
    """
    z_prev = _OMEGA0_SCAN_STEP
    f_prev = _bessel_combination(z_prev)
    bracket = None
    z = z_prev
    while z < _OMEGA0_SCAN_MAX:
        z = round(z + _OMEGA0_SCAN_STEP, 12)
        f = _bessel_combination(z)
        if f_prev * f <= 0.0:
            bracket = (z_prev, z)
            break
        z_prev, f_prev = z, f
    if bracket is None:
        raise ArithmeticError(
            "no sign change of the Bessel combination on (0, 10]")

    a, b = bracket
    fa = _bessel_combination(a)
    for _ in range(100):
        if b - a <= 1e-14:
            break
        mid = 0.5 * (a + b)
        fm = _bessel_combination(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    value = 0.5 * (a + b)
    residual = _bessel_combination(value)
    if abs(residual) > 1e-12:
        raise ArithmeticError(f"root refinement stalled, residual {residual:g}")
    return Omega0Result(value=value, residual=residual, bracket=bracket)
