import numpy as np
import pytest

from quenchfront import continuation, spectrum
from quenchfront.bvp import FrontProfile
from quenchfront.grid import make_grid
from quenchfront.spectrum import (build_potential, eigenvalues_of_potential,
                                  leading_eigenvalues)


class TestOscillatorOracle:
    def test_eigenvalues_match_odd_integers(self):
        g = make_grid(-20.0, 20.0, 0.01)
        vals, vec = eigenvalues_of_potential(g, g.nodes() ** 2, 6)
        for j in range(6):
            assert vals[j] == pytest.approx(-(2 * j + 1), abs=1e-3)
        assert vec.max() == pytest.approx(1.0)
        assert vec.min() >= -1e-8

    def test_second_order_h_refinement(self):
        errs = []
        for h in (0.04, 0.02):
            g = make_grid(-15.0, 15.0, h)
            vals, _ = eigenvalues_of_potential(g, g.nodes() ** 2, 1)
            errs.append(abs(vals[0] + 1.0))
        order = np.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3


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
