"""Acceptance suite: one test per quantitative criterion, at pinned
tolerances.  Each test prints its PASS/FAIL line with the measured values.

Known state: criteria 2 and 3 fail at their pinned tolerances for
well-understood reasons.  The measured front-delay offset decays like
~4.1 ln(c)/c (1.11/0.94/0.81 at c = 8/10/12, against a 0.5 budget), and
the fixed-level spill-over interface follows the Gaussian tail at
~sqrt(2|c| ln(u(0)/delta)) rather than sqrt(-c).  Both measurements are
corroborated by an independent collocation solver (scipy's solve_bvp in
tests/test_collocation_oracle.py agrees on x_delta at c = 8, 10, 12, -100
and -200 to 1e-4) and by the closed-form profile, so the failures are
reported honestly rather than the tolerances being adjusted.  Criterion 8 passes: the sqrt-branch crossing at
-u(0;c)^2 is located by the sign of 2 ln u - ln(-x), which does not
underflow where x u + u^3 does (c >~ 10.6).
"""

import numpy as np
import pytest

from quenchfront import acceptance


def check(ctx, number):
    result = acceptance.CRITERIA[number](ctx)
    print()
    print(acceptance.format_result(result))
    assert result.passed, acceptance.format_result(result)


def test_criterion_01_amplitude_law(accept_ctx):
    check(accept_ctx, 1)


def test_criterion_02_front_delay_law(accept_ctx):
    check(accept_ctx, 2)


def test_criterion_03_reverse_quench_law(accept_ctx):
    check(accept_ctx, 3)


def test_criterion_04_closed_form_agreement(accept_ctx):
    check(accept_ctx, 4)


def test_criterion_05_spectral_negativity(accept_ctx):
    check(accept_ctx, 5)


def test_criterion_06_dynamical_decay_rate(accept_ctx):
    check(accept_ctx, 6)


def test_criterion_07_monotonicity_and_uniqueness(accept_ctx):
    check(accept_ctx, 7)


def test_criterion_08_crossing_uniqueness(accept_ctx):
    check(accept_ctx, 8)


def test_criterion_09_tail_asymptotics(accept_ctx):
    check(accept_ctx, 9)


def test_criterion_10_inner_outer_match(accept_ctx):
    check(accept_ctx, 10)


def test_criterion_11_numerical_hygiene(accept_ctx):
    check(accept_ctx, 11)


def test_front_delay_coefficient_is_fitted(accept_ctx):
    # decay_k is the least-squares k of gap = k ln(c)/c, and the failure
    # text reads it rather than a fixed number
    result = acceptance.criterion_2(accept_ctx)
    cs = np.array([8.0, 10.0, 12.0])
    gaps = np.array([result.measured[f"gap_c{c:g}"] for c in cs])
    shape = np.log(cs) / cs
    k = result.measured["decay_k"]
    assert np.sum((gaps - k * shape) * shape) == pytest.approx(0.0, abs=1e-12)
    assert f"~{k:.2f} ln(c)/c" in result.details


def test_front_delay_sensitivity_to_root_constant(accept_ctx, monkeypatch):
    """Corrupting the Airy-zero constant OMEGA0 by +0.1 must visibly move
    the front-delay comparison (guards against a silently broken constant)."""
    from quenchfront import asymptotics

    base = acceptance.criterion_2(accept_ctx)
    monkeypatch.setattr(asymptotics, "OMEGA0", asymptotics.OMEGA0 + 0.1)
    shifted = acceptance.criterion_2(accept_ctx)
    expected_shift = 0.1 * (15.0 / 16.0) ** (2.0 / 3.0)
    for c in (8, 10, 12):
        delta = shifted.measured[f"gap_c{c}"] - base.measured[f"gap_c{c}"]
        assert delta == pytest.approx(expected_shift, abs=1e-6)
