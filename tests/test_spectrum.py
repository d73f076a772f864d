import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from quenchfront import bvp, continuation, grid, newton, spectrum
from quenchfront.bvp import FrontProfile
from quenchfront.grid import make_grid
from quenchfront.spectrum import (EigenIterationError, build_potential,
                                  eigenvalues_of_potential, leading_eigenvalues)


class TestOscillatorOracle:
    def test_eigenvalues_match_odd_integers(self):
        g = make_grid(-20.0, 20.0, 0.01)
        rep = eigenvalues_of_potential(g, g.nodes() ** 2, 6)
        vals, vec = rep.eigenvalues, rep.ground_state
        for j in range(6):
            assert vals[j] == pytest.approx(-(2 * j + 1), abs=1e-3)
        assert vec.max() == pytest.approx(1.0)
        assert vec.min() >= -1e-8

    def test_second_order_h_refinement(self):
        errs = []
        for h in (0.04, 0.02):
            g = make_grid(-15.0, 15.0, h)
            vals = eigenvalues_of_potential(g, g.nodes() ** 2, 1).eigenvalues
            errs.append(abs(vals[0] + 1.0))
        order = np.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_potential_names_its_node(self, bad, k):
        g = make_grid(-10.0, 10.0, 0.05)
        V = g.nodes() ** 2
        V[100] = bad
        with pytest.raises(ValueError, match=r"non-finite potential at x=-5 "
                                             rf"\(node 100 of n={g.n}\)"):
            eigenvalues_of_potential(g, V, k)


class TestBuildPotential:
    def test_zero_profile(self):
        g = make_grid(-10.0, 10.0, 0.1)
        p = FrontProfile(c=3.0, grid=g, u=np.zeros(g.n))
        assert np.allclose(build_potential(p), g.nodes() + 2.25)

    def test_tanh_ramp_read_from_profile(self):
        g = make_grid(-10.0, 10.0, 0.1)
        p = FrontProfile(c=3.0, grid=g, u=np.zeros(g.n), eps=0.1)
        assert np.array_equal(build_potential(p), np.tanh(0.1 * g.nodes()) + 2.25)

    def test_asymptotic_slopes(self, hm_profile):
        V = build_potential(hm_profile)
        x = hm_profile.grid.nodes()
        # left: u ~ sqrt(-x) gives V ~ -2x; right: u ~ 0 gives V ~ x
        assert V[0] == pytest.approx(-2.0 * x[0], rel=0.01)
        assert V[-1] == pytest.approx(x[-1], rel=1e-6)

    def test_interior_minimum(self, hm_profile):
        V = build_potential(hm_profile)
        i = int(np.argmin(V))
        assert 0 < i < hm_profile.grid.n - 1


class TestLeadingEigenvalues:
    def test_front_spectrum_negative_and_ordered(self, hm_profile):
        rep = leading_eigenvalues(hm_profile, 4)
        assert rep.eigenvalues[0] == pytest.approx(-1.5185, abs=2e-3)
        assert np.all(np.diff(rep.eigenvalues) < 0)
        assert np.all(rep.eigenvalues < 0.0)

    def test_ground_state_sign_definite(self, hm_profile):
        rep = leading_eigenvalues(hm_profile, 2)
        assert rep.ground_state.max() == pytest.approx(1.0)
        assert rep.ground_state.min() >= -1e-8
        assert rep.ground_state[0] == 0.0 and rep.ground_state[-1] == 0.0

    def test_potential_min_field(self, hm_profile):
        rep = leading_eigenvalues(hm_profile, 1)
        assert rep.potential_min == pytest.approx(
            build_potential(hm_profile).min())

    def test_k_validation(self, hm_profile):
        with pytest.raises(ValueError):
            leading_eigenvalues(hm_profile, 11)
        with pytest.raises(ValueError):
            leading_eigenvalues(hm_profile, 0)

    def test_requires_converged_profile(self, hm_profile):
        raw = FrontProfile(c=0.0, grid=hm_profile.grid, u=hm_profile.u)
        with pytest.raises(ValueError):
            leading_eigenvalues(raw, 1)

    def test_lambda0_continuity_along_branch(self, hm_profile):
        branch = continuation.continue_branch(hm_profile, 1.5, dc_init=0.25)
        lams = [(c, leading_eigenvalues(p, 1).eigenvalues[0])
                for c, p in branch.points]
        for (c1, l1), (c2, l2) in zip(lams, lams[1:]):
            # no spectral jumps; the 0.75 prefactor covers the measured
            # slope d(lambda0)/dc ~ 0.59 near c = 0
            assert abs(l2 - l1) <= 0.75 * abs(c2 - c1) * (abs(c1) + 1.0)


def _operator(g, V):
    """Diagonal and off-diagonal of T = d^2/dx^2 - V (Dirichlet), and ||T||_inf."""
    diag = -2.0 / g.h ** 2 - V[1:-1]
    off = np.full(g.n - 3, 1.0 / g.h ** 2)
    return diag, off, float(np.abs(diag).max() + 2.0 * off[0])


def _solved_front(c, h):
    """A converged front at (c, h): one Newton solve from the seed, not
    checked for admissibility: the spectrum is a well-posed test of the
    linearization about any converged profile."""
    g = bvp.default_grid(c, h)
    front, _ = newton.solve(FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c)))
    return front


def _assert_matches_bisection(g, V):
    diag, off, norm_t = _operator(g, V)
    m = g.n - 2
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(m - 1, m - 1))
    ref = vecs[:, 0] / vecs[np.argmax(np.abs(vecs[:, 0])), 0]
    top = eigenvalues_of_potential(g, V, 1)
    assert abs(top.eigenvalues[0] - vals[0]) <= 1e-15 * norm_t
    assert np.abs(top.ground_state[1:-1] - ref).max() <= 1e-9
    assert top.ground_state[1:-1].min() > 0.0
    assert 1 <= top.iterations <= spectrum.MAX_INVERSE_STEPS
    assert top.residual <= 1e-15 * norm_t
    two = eigenvalues_of_potential(g, V, 2)
    assert two.iterations == 0
    assert abs(two.eigenvalues[0] - top.eigenvalues[0]) <= 1e-15 * norm_t
    assert np.abs(two.ground_state - top.ground_state).max() <= 1e-9


class TestCertifiedInverseIteration:
    """k = 1 takes shifted inverse iteration; k >= 2 bisection (stebz/stein)."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(c=st.floats(-200.0, 12.0), h=st.sampled_from([0.04, 0.02, 0.01]))
    @example(c=-200.0, h=0.04)
    @example(c=12.0, h=0.01)
    def test_top_pair_matches_bisection_on_fronts(self, c, h):
        front = _solved_front(c, h)
        _assert_matches_bisection(front.grid, build_potential(front))

    def test_top_pair_matches_bisection_on_oscillator(self):
        g = make_grid(-20.0, 20.0, 0.01)
        _assert_matches_bisection(g, g.nodes() ** 2)

    def test_no_shift_below_lambda0_is_certified(self, hm_profile):
        g = hm_profile.grid
        diag, off, norm_t = _operator(g, build_potential(hm_profile))
        lam0 = eigenvalues_of_potential(g, build_potential(hm_profile), 1).eigenvalues[0]
        gap = 1e4 * np.finfo(float).eps * norm_t      # far above roundoff
        assert spectrum._certified_factor(diag, off, lam0 - gap) is None
        assert spectrum._certified_factor(diag, off, lam0 + gap) is not None

    def test_iteration_cap_names_grid_and_residual(self, hm_profile, monkeypatch):
        monkeypatch.setattr(spectrum, "MAX_INVERSE_STEPS", 2)
        with pytest.raises(EigenIterationError,
                           match=rf"n={hm_profile.grid.n}, last residual \d"):
            leading_eigenvalues(hm_profile, 1)

    def test_report_carries_iterations_and_residual(self, hm_profile):
        rep = leading_eigenvalues(hm_profile, 1)
        assert 1 <= rep.iterations <= spectrum.MAX_INVERSE_STEPS
        assert 0.0 < rep.residual <= 1e-10
        assert leading_eigenvalues(hm_profile, 3).iterations == 0


class TestLeadingPairs:
    """k >= 2 makes the two LAPACK calls of eigh_tridiagonal(select="i")."""

    @pytest.mark.parametrize("c", [-20.0, 0.0, 5.0])
    def test_k5_bitwise_equal_to_eigh_tridiagonal(self, c):
        front = _solved_front(c, 0.02)
        g, V = front.grid, build_potential(front)
        diag, off, _ = _operator(g, V)
        m = g.n - 2
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(m - 5, m - 1))
        order = np.argsort(vals)[::-1]
        ground = vecs[:, order[0]]
        pairs = eigenvalues_of_potential(g, V, 5)
        assert pairs.eigenvalues.tobytes() == vals[order].tobytes()
        assert (pairs.ground_state[1:-1].tobytes()
                == (ground / ground[np.argmax(np.abs(ground))]).tobytes())

    def test_grid_loads_scipys_own_lapack_module(self):
        # resolved by scipy's package in an interpreter that never loads grid
        probe = "import scipy.linalg._flapack as f; print(f.__file__)"
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True)
        assert grid.flapack.__file__ == out.stdout.strip()

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_names_grid_k_and_info(self, hm_profile, monkeypatch, routine):
        real = getattr(grid.flapack, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 3)

        monkeypatch.setattr(grid.flapack, routine, failing)
        with pytest.raises(EigenIterationError,
                           match=rf"{routine}\) failed: info=3 \(n={hm_profile.grid.n}, k=5\)"):
            leading_eigenvalues(hm_profile, 5)
