"""An independent oracle for the solved front: scipy's collocation solver.

``scipy.integrate.solve_bvp`` (Kierzenka & Shampine, ACM TOMS 27, 2001)
solves u'' + c u' - x u - u^3 = 0 as a first-order system with its own
adaptive mesh and error control.  It shares with this package only the
problem statement: the domain ``default_domain(c)`` and the left Dirichlet
value ``left_value(c, x_min)``.  On the right it keeps its own closure,
u(x_max) = 0, independent of the package's Robin row: for c < -2 the
domain ends where the closed-form profile is ~1e-3, and the clamp's
boundary layer, 1/|c| wide, does not reach x_delta or x = 0.  Its seed is a closed-form
shape (the erf profile for c <= -3, the smoothed sqrt ramp otherwise, cut
off at slope c/4 for c > 2), never a front this package solved.

Tolerances: ``front_position`` reads x_delta by linear interpolation on the
h = 0.01 nodes, whose bias h^2 |u''| / 8 at the crossing grows with c to
3.5e-5 at c = 12; the measured disagreement peaks at 3.6e-5 (c = 10), so
1e-4 leaves a factor of ~3.  ln u(0) agrees to 3.3e-11 at c <= 0, checked
to 1e-9; at c = 3, u(0) = 1.5e-4 sits in the tail, where the collocation
tolerance 1e-9 on O(1) values is ~1e-7 relative (measured 1.5e-7), checked
to 1e-6.  For c >= 8 u(0) is below 1e-40 and collocation does not resolve
it (it returns values of either sign), so only x_delta is compared there.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.optimize import brentq

from quenchfront import asymptotics, bvp, diagnostics

NODES = 3001
XDELTA_TOL = 1e-4


def collocation_front(c):
    x_min, x_max = bvp.default_domain(c)
    x = np.linspace(x_min, x_max, NODES)
    if c <= -3.0:
        u = asymptotics.erf_profile_vec(x, c)
    elif c > 2.0:
        u = bvp.smooth_sqrt_ramp(x, asymptotics.front_loc_largec(c), c / 4.0)
    else:
        u = bvp.smooth_sqrt_ramp(x)
    left = bvp.left_value(c, x_min)

    def rhs(x, y):
        return np.vstack([y[1], -c * y[1] + x * y[0] + y[0] ** 3])

    def rhs_jac(x, y):
        jac = np.zeros((2, 2, x.size))
        jac[0, 1] = 1.0
        jac[1, 0] = x + 3.0 * y[0] ** 2
        jac[1, 1] = -c
        return jac

    def bc(ya, yb):
        return np.array([ya[0] - left, yb[0]])

    def bc_jac(ya, yb):
        return np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])

    sol = solve_bvp(rhs, bc, x, np.vstack([u, np.gradient(u, x)]), fun_jac=rhs_jac,
                    bc_jac=bc_jac, tol=1e-9, max_nodes=100_000)
    assert sol.success, sol.message
    return sol


@pytest.mark.parametrize("c, log_u0_tol", [
    (-200.0, 1e-9), (-100.0, 1e-9), (0.0, 1e-9), (3.0, 1e-6),
    (8.0, None), (10.0, None), (12.0, None)])
def test_solve_front_matches_collocation(c, log_u0_tol, accept_ctx):
    sol = collocation_front(c)
    front = accept_ctx.profile(c)   # solve_front(c), cached for the session
    i = np.nonzero(sol.y[0] > diagnostics.DEFAULT_DELTA)[0][-1]
    x_delta = brentq(lambda t: sol.sol(t)[0] - diagnostics.DEFAULT_DELTA,
                     sol.x[i], sol.x[i + 1], xtol=1e-14)
    assert diagnostics.front_position(front) == pytest.approx(
        x_delta, rel=0.0, abs=XDELTA_TOL)
    if log_u0_tol is not None:
        assert math.log(diagnostics.u_at_zero(front)) == pytest.approx(
            math.log(float(sol.sol(0.0)[0])), rel=0.0, abs=log_u0_tol)
