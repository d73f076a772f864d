import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import CubicSpline

from quenchfront import bvp, continuation, evolve, grid
from quenchfront.grid import (MAX_NODES, BandedMatrix, Grid,
                              SingularMatrixError, UniformSpline,
                              UnpivotedBandedLU, _stencil,
                              d1_band, d2_band, fd_weights,
                              make_grid, solve_banded)


def banded_to_dense(a: BandedMatrix) -> np.ndarray:
    """Dense copy read straight from the band layout data[p + i - j, j]."""
    dense = np.zeros((a.n, a.n))
    for i in range(a.n):
        for j in range(max(0, i - a.bandwidth), min(a.n, i + a.bandwidth + 1)):
            dense[i, j] = a.data[a.bandwidth + i - j, j]
    return dense


def test_grid_nodes_and_spacing():
    g = Grid(-1.0, 1.0, 21)
    assert g.h == pytest.approx(0.1)
    x = g.nodes()
    assert x[0] == -1.0
    assert x[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(x), g.h)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 20)


@pytest.mark.parametrize("args, named", [
    ((np.nan, 1.0, 0.1), "[nan, 1.0]"), ((-np.inf, 1.0, 0.1), "[-inf, 1.0]"),
    ((0.0, np.inf, 0.1), "[0.0, inf]"), ((0.0, 1.0, 0.0), "h=0.0"),
    ((0.0, 1.0, -0.1), "h=-0.1"), ((0.0, 1.0, np.nan), "h=nan"),
    ((0.0, 1.0, np.inf), "h=inf")])
def test_make_grid_rejects_non_finite_bounds_and_bad_spacing(args, named):
    with pytest.raises(ValueError) as exc:
        make_grid(*args)
    assert named in str(exc.value)


@pytest.mark.parametrize("build, named", [
    (lambda: make_grid(-25.0, 15.0, 1e-8), ["n=4000000001", "h=1e-08", "[-25, 15]"]),
    (lambda: bvp.default_grid(1e4), ["n=2500014501", "h=0.01", "115]"])],
    ids=["make_grid", "default_grid"])
def test_grid_over_node_limit_rejected(build, named):
    with pytest.raises(ValueError) as exc:
        build()
    assert all(s in str(exc.value) for s in named)
    assert Grid(0.0, 1.0, MAX_NODES).n == MAX_NODES


def test_make_grid_snaps_zero_onto_grid():
    g = make_grid(-25.0, 15.3, 0.01)
    assert g.h <= 0.01 + 1e-12
    x = g.nodes()
    assert np.abs(x).min() < 1e-9
    assert g.x_min <= -25.0 + 1e-9 and g.x_max >= 15.3 - 1e-9


def test_fd_weights_reproduce_classic_stencils():
    w = fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])
    w = fd_weights(0.0, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 1)
    assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12])


class TestDerivativeOperators:
    def test_annihilate_constants(self):
        g = make_grid(-2.0, 3.0, 0.05)
        u = np.full(g.n, 2.7)
        assert np.abs(d2_band(g).matvec(u)[1:-1]).max() <= 1e-10
        for s in (-1, 0, 1):
            assert np.abs(d1_band(g, s).matvec(u)[1:-1]).max() <= 1e-10

    def test_d2_exact_on_quadratic(self):
        g = make_grid(-2.0, 2.0, 0.05)
        x = g.nodes()
        out = d2_band(g).matvec(x ** 2)
        assert np.abs(out[1:-1] - 2.0).max() <= 1e-10

    def test_d2_exact_through_degree_five(self):
        g = make_grid(-1.0, 1.0, 0.1)
        x = g.nodes()
        out = d2_band(g).matvec(x ** 5)
        assert np.abs(out[1:-1] - 20.0 * x[1:-1] ** 3).max() <= 1e-9

    def test_d1_exact_on_cubic(self):
        g = make_grid(-1.5, 1.5, 0.05)
        x = g.nodes()
        for s in (-1, 0, 1):
            out = d1_band(g, s).matvec(x ** 3)
            assert np.abs(out[1:-1] - 3.0 * x[1:-1] ** 2).max() <= 1e-10

    def test_d1_exact_through_degree_four(self):
        g = make_grid(-1.0, 1.0, 0.1)
        x = g.nodes()
        for s in (-1, 0, 1):
            out = d1_band(g, s).matvec(x ** 4)
            assert np.abs(out[1:-1] - 4.0 * x[1:-1] ** 3).max() <= 1e-9

    @pytest.mark.parametrize("upwind", [-1, 0, 1])
    def test_fourth_order_convergence_d1(self, upwind):
        errs = []
        for h in (0.05, 0.025):
            g = make_grid(-1.0, 1.0, h)
            x = g.nodes()
            out = d1_band(g, upwind).matvec(np.exp(x))
            errs.append(np.abs(out - np.exp(x))[1:-1].max())
        order = np.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_fourth_order_convergence_d2(self):
        errs = []
        for h in (0.05, 0.025):
            g = make_grid(-1.0, 1.0, h)
            x = g.nodes()
            out = d2_band(g).matvec(np.sin(x))
            errs.append(np.abs(out + np.sin(x))[1:-1].max())
        order = np.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_halving_h_drops_error_16x(self):
        g1 = make_grid(-1.0, 1.0, 0.04)
        g2 = make_grid(-1.0, 1.0, 0.02)
        e = []
        for g in (g1, g2):
            x = g.nodes()
            e.append(np.abs(d2_band(g).matvec(np.sin(x)) + np.sin(x))[1:-1].max())
        assert e[0] / e[1] == pytest.approx(16.0, rel=0.35)

    def test_length_mismatch_raises(self):
        g = make_grid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            d2_band(g).matvec(np.zeros(g.n + 1))
        with pytest.raises(ValueError):
            d1_band(g, 0).matvec(np.zeros(g.n - 1))

    def test_boundary_rows_untouched(self):
        g = make_grid(-1.0, 1.0, 0.1)
        out = d2_band(g).matvec(np.sin(g.nodes()))
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_band_rows_sum_to_zero(self):
        g = make_grid(-1.0, 1.0, 0.1)
        for band in (d2_band(g), d1_band(g, 1), d1_band(g, -1)):
            sums = band.matvec(np.ones(g.n))
            assert np.abs(sums[1:-1]).max() <= 1e-9


class TestBandedMatrix:
    def test_set_get_matvec_vs_dense(self):
        rng = np.random.default_rng(7)
        n, p = 12, 3
        a = BandedMatrix(n, p)
        dense = np.zeros((n, n))
        for _ in range(60):
            i = rng.integers(0, n)
            j = rng.integers(max(0, i - p), min(n, i + p + 1))
            v = rng.normal()
            a.data[p + i - j, j] += v
            dense[i, j] += v
        u = rng.normal(size=n)
        assert np.allclose(a.matvec(u), dense @ u, atol=1e-13)
        assert np.allclose(banded_to_dense(a), dense)
        assert a.data[p, 0] == dense[0, 0]

    def test_bandwidth_bound(self):
        with pytest.raises(ValueError):
            BandedMatrix(10, 5)

    def test_identity_row(self):
        g = make_grid(-1.0, 1.0, 0.1)
        band = d2_band(g).copy()
        band.set_identity_row(0)
        row = banded_to_dense(band)[0]
        expected = np.zeros(g.n)
        expected[0] = 1.0
        assert np.array_equal(row, expected)

    def test_symmetric_storage_pattern(self):
        a = BandedMatrix(8, 2)
        assert a.data.shape == (5, 8)


def _reference_band(n: int, scale: float, windows) -> BandedMatrix:
    """Entry-by-entry assembly: row i gets fd weights on nodes s..s+k-1."""
    band = BandedMatrix(n, 4)
    for i, s, offsets, m in windows:
        w = fd_weights(0.0, np.array(offsets, dtype=float), m)
        for k, wk in enumerate(w):
            band.data[4 + i - (s + k), s + k] += wk * scale
    return band


def _reference_d2(g: Grid) -> BandedMatrix:
    n = g.n
    windows = [(1, 0, (-1, 0, 1, 2, 3, 4), 2)]
    windows += [(i, i - 2, (-2, -1, 0, 1, 2), 2) for i in range(2, n - 2)]
    windows.append((n - 2, n - 6, (-4, -3, -2, -1, 0, 1), 2))
    return _reference_band(n, 1.0 / g.h ** 2, windows)


def _reference_d1(g: Grid, upwind_sign: int) -> BandedMatrix:
    n = g.n
    lo = -2 + upwind_sign
    windows = []
    for i in range(1, n - 1):
        s = min(max(i + lo, 0), n - 5)
        windows.append((i, s, tuple(range(s - i, s - i + 5)), 1))
    return _reference_band(n, 1.0 / g.h, windows)


class TestVectorizedAssembly:
    @pytest.mark.parametrize("n", [9, 10, 11, 12, 57])
    def test_d2_matches_per_row_reference_bitwise(self, n):
        g = Grid(-1.3, 2.1, n)
        ref = _reference_d2(g)
        assert d2_band(g).data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 57])
    @pytest.mark.parametrize("upwind", [-1, 0, 1])
    def test_d1_matches_per_row_reference_bitwise(self, n, upwind):
        g = Grid(-1.3, 2.1, n)
        ref = _reference_d1(g, upwind)
        assert d1_band(g, upwind).data.tobytes() == ref.data.tobytes()


class TestCachedBandsReadOnly:
    def test_writing_to_cached_band_raises(self):
        g = make_grid(-1.0, 1.0, 0.1)
        for band in (d2_band(g), d1_band(g, 1), bvp.equation_band(g, 0.5, None)):
            with pytest.raises(ValueError):
                band.data[4, 3] = 1.0
            with pytest.raises(ValueError):
                band.data[band.bandwidth] += np.ones(g.n)

    def test_copy_is_writeable(self):
        g = make_grid(-1.0, 1.0, 0.1)
        band = d2_band(g).copy()
        band.data[band.bandwidth] += np.ones(g.n)
        assert band.data[4, 3] == d2_band(g).data[4, 3] + 1.0


class TestBoundedBandCaches:
    def test_sweep_builds_each_drift_band_once(self, hm_profile, monkeypatch):
        solved = [(hm_profile.grid, hm_profile.c)]   # the seed's tangent reads its band
        newton_solve = continuation.newton.solve

        def spy(p, tol):
            solved.append((p.grid, p.c))
            return newton_solve(p, tol)

        ramps = []
        ramp = bvp.ramp

        def counted_ramp(g, eps):
            ramps.append(g)
            return ramp(g, eps)

        monkeypatch.setattr(continuation.newton, "solve", spy)
        monkeypatch.setattr(bvp, "ramp", counted_ramp)
        bvp.equation_band.cache_clear()
        branch = continuation.continue_branch(hm_profile, -60.0)
        assert len({p.grid for _, p in branch.points}) >= 4   # the sweep regrids
        info = bvp.equation_band.cache_info()
        assert info.currsize <= 1
        assert info.misses == len(set(solved)) == len(solved)
        # and the ramp is evaluated once per band, not per residual or Jacobian
        assert len(ramps) == info.misses

    def test_bands_rebuilt_on_a_grid_are_bitwise_equal(self):
        g = make_grid(-1.0, 1.0, 0.1)
        assert d2_band(g) is not d2_band(g)   # fresh, not cached
        assert d2_band(g).data.tobytes() == d2_band(g).data.tobytes()
        for s in (-1, 0, 1):
            assert d1_band(g, s).data.tobytes() == d1_band(g, s).data.tobytes()
        first = bvp.equation_band(g, 0.5, None).data.tobytes()
        for h in (0.05, 0.025):   # evict it
            bvp.equation_band(make_grid(-1.0, 1.0, h), 0.5, None)
        misses = bvp.equation_band.cache_info().misses
        assert bvp.equation_band(g, 0.5, None).data.tobytes() == first
        assert bvp.equation_band.cache_info().misses == misses + 1

    @pytest.mark.parametrize("n", [9, 10, 57, 4501])
    @pytest.mark.parametrize("c", [-200.0, -0.5, 0.0, 0.5, 12.0])
    def test_drift_band_is_d2_plus_c_d1_bitwise(self, n, c):
        # interior rows fl(fl(d2 + fl(c d1)) - r), then the identity row 0 and
        # the Robin row u' - L u on the last five nodes
        g = Grid(-25.0, 3.7, n)
        expected = d2_band(g).data + c * d1_band(g, int(np.sign(c))).data
        expected[4] -= g.nodes()
        BandedMatrix(n, 4, expected).set_identity_row(0)
        ell = bvp.right_log_derivative(c, g.x_max)
        weights = fd_weights(0.0, np.arange(-4.0, 1.0), 1) / g.h
        for k in range(5):   # entry (n-1, n-5+k) sits at data[8 - k, n-5+k]
            expected[8 - k, n - 5 + k] = weights[k] - ell * (k == 4)
        assert bvp.equation_band(g, c, None).data.tobytes() == expected.tobytes()

    def test_memoised_stencil_is_read_only(self):
        w = _stencil((-2, -1, 0, 1, 2), 2)
        with pytest.raises(ValueError):
            w[0] = 1.0
        fresh = fd_weights(0.0, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 2)
        assert _stencil((-2, -1, 0, 1, 2), 2).tobytes() == fresh.tobytes()


class TestSolveBanded:
    def test_zero_row_raises_singular(self):
        rng = np.random.default_rng(3)
        n, p = 30, 4
        a = BandedMatrix(n, p)
        a.data[:] = rng.normal(size=a.data.shape)
        a.data[p] += np.full(n, 10.0)
        a.set_identity_row(17)
        a.data[p, 17] = 0.0   # row 17 is now all zero
        with pytest.raises(SingularMatrixError, match=r"n=30: zero pivot in column \d+$"):
            solve_banded(a, np.ones(n))

    def test_solves_each_right_hand_side(self):
        g = make_grid(-1.0, 1.0, 0.1)
        a = d2_band(g).copy()
        a.data[a.bandwidth] += np.full(g.n, -3.0)
        a.set_identity_row(0)
        a.set_identity_row(g.n - 1)
        rng = np.random.default_rng(4)
        for _ in range(3):
            b = rng.normal(size=g.n)
            assert np.allclose(a.matvec(solve_banded(a, b)), b, atol=1e-12)
        with pytest.raises(ValueError, match="does not match"):
            solve_banded(a, b[1:])

    def test_non_finite_matrix_rejected(self):
        a = BandedMatrix(10, 1)
        a.data[a.bandwidth] += np.ones(10)
        a.data[1, 3] = np.nan
        with pytest.raises(ValueError):
            solve_banded(a, np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        a = BandedMatrix(4, 1)
        a.data[a.bandwidth] += np.ones(4)
        with pytest.raises(ValueError):
            solve_banded(a, np.array([1.0, bad, 0.0, 0.0]))

    def test_non_finite_diagonal_rejected(self):
        a = BandedMatrix(4, 1)
        a.data[a.bandwidth] += np.ones(4)
        with pytest.raises(ValueError):
            solve_banded(a, np.ones(4), np.array([0.0, np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("c, eps", [(-200.0, None), (0.0, None), (12.0, None), (0.0, 0.01)],
                             ids=["c-200", "c0", "c12", "tanh-eps0.01"])
    def test_band_and_diagonal_solve_as_the_formed_jacobian_bytewise(self, c, eps):
        # band + (-3u^2) is band - 3u^2 exactly, so dgbsv reads the same
        # entries; on the seed and the front, for Newton's and the tangent's
        # right-hand sides
        if eps is None:
            g = bvp.default_grid(c)
            front = continuation.solve_front(c, g)
        else:
            front = evolve.solve_tanh_front(eps, c)
            g = front.grid
        seed = bvp.FrontProfile(c=c, grid=g, u=bvp.initial_guess(g, c, eps), eps=eps)
        for p in (seed, front):
            jac = bvp.stationary_jacobian(p, p.u)
            for b in (-bvp.stationary_residual(p, p.u), -bvp.stationary_residual_dc(p, p.u)):
                x = solve_banded(bvp.equation_band(g, c, eps), b, bvp.jacobian_diagonal(p, p.u))
                assert x.tobytes() == solve_banded(jac, b).tobytes()

    @pytest.mark.parametrize("spoil, named", [
        (lambda x: x * (1.0 + 1e-6), r"backward error \d\.\d{3}e-\d\d exceeds 1e-9 \* "),
        (lambda x: np.full_like(x, np.nan), r"backward error nan exceeds 1e-9 \* nan"),
    ], ids=["inaccurate", "non-finite"])
    def test_answer_failing_the_backward_error_check_raises(self, monkeypatch, spoil, named):
        # the check reads the answer LAPACK hands back, whatever produced it
        real = grid.flapack.dgbsv

        def spoiled(*args, **kwargs):
            lub, piv, x, info = real(*args, **kwargs)
            return lub, piv, spoil(x), info

        monkeypatch.setattr(grid.flapack, "dgbsv", spoiled)
        a = d2_band(make_grid(-1.0, 1.0, 0.1)).copy()
        a.set_identity_row(0)
        a.set_identity_row(a.n - 1)
        with pytest.raises(SingularMatrixError, match=rf"banded solve, n={a.n}: {named}"):
            solve_banded(a, np.ones(a.n))

    def test_backward_error_check_reads_the_shifted_diagonal(self, monkeypatch):
        # a = 4 I shifted by -3 is I: x = b solves it exactly, and a spoiled x
        # fails against ||I||_1 ||x|| + ||b|| = 12 (a alone would give 30)
        a = BandedMatrix(6, 1)
        a.data[a.bandwidth] = 4.0
        shift, b = np.full(6, -3.0), np.arange(1.0, 7.0)
        assert solve_banded(a, b, shift).tobytes() == b.tobytes()
        real = grid.flapack.dgbsv

        def spoiled(*args, **kwargs):
            lub, piv, x, info = real(*args, **kwargs)
            return lub, piv, x * (1.0 + 1e-6), info

        monkeypatch.setattr(grid.flapack, "dgbsv", spoiled)
        with pytest.raises(SingularMatrixError,
                           match=r"backward error 6\.000e-06 exceeds 1e-9 \* 1\.200e\+01$"):
            solve_banded(a, b, shift)


class TestUnpivotedBandedLU:
    @staticmethod
    def swap_first_two_rows(corner):
        """Tridiagonal 2 on the diagonal, -1 off it, with entry (0, 0) set to
        ``corner`` and (0, 1) = (1, 0) = 1: nonsingular for any corner."""
        a = BandedMatrix(6, 1)
        a.data[:] = [[-1.0], [2.0], [-1.0]]
        a.data[1, 0], a.data[0, 1], a.data[2, 0] = corner, 1.0, 1.0
        return a

    def test_zero_pivot_refused_where_pivoting_succeeds(self):
        a = self.swap_first_two_rows(0.0)
        b = np.arange(1.0, 7.0)
        x = scipy.linalg.solve_banded((1, 1), a.data, b)
        assert np.allclose(a.matvec(x), b, atol=1e-14)
        with pytest.raises(SingularMatrixError, match=r"n=6: pivot 0 in column 0"):
            UnpivotedBandedLU(a)

    def test_growth_fails_the_probe(self):
        # pivot 1e-20 makes the second pivot 1 - 1e20: growth 1e20
        with pytest.raises(SingularMatrixError, match=r"n=6: backward error"):
            UnpivotedBandedLU(self.swap_first_two_rows(1e-20))

    def test_matches_pivoted_solve(self):
        g = make_grid(-1.0, 1.0, 0.1)
        a = d2_band(g).copy()
        a.data[a.bandwidth] += np.full(g.n, -3.0)
        a.set_identity_row(0)
        a.set_identity_row(g.n - 1)
        b = np.random.default_rng(5).normal(size=g.n)
        x = UnpivotedBandedLU(a).solve(b)
        reference = scipy.linalg.solve_banded((a.bandwidth, a.bandwidth), a.data, b)
        assert np.abs(x - reference).max() <= 1e-14 * np.abs(x).max()
        with pytest.raises(ValueError, match="does not match"):
            UnpivotedBandedLU(a).solve(b[1:])

    @pytest.mark.parametrize("c, row_scale", [(-200.0, None), (0.0, None), (12.0, None),
                                              (0.0, (-6.0, 6.0))],
                             ids=["c-200", "c0", "c12", "c0-rows-scaled"])
    def test_matches_solve_banded_on_the_stepper_matrix(self, c, row_scale):
        # I - dt/2 A at dt = 0.01, as evolve factors it; its rows scaled by
        # 1e-6..1e6 put the pivots of the unit-diagonal U far from 1
        g = bvp.default_grid(c, 0.01)
        a = bvp.equation_band(g, c, None).copy()
        p = a.bandwidth
        interior = np.full(g.n, -0.005)
        interior[[0, -1]] = 1.0   # the closure rows stay
        for r in range(2 * p + 1):   # band row r holds entries (j + r - p, j)
            a.data[r] *= interior[np.clip(np.arange(g.n) + r - p, 0, g.n - 1)]
        a.data[p, 1:-1] += 1.0
        if row_scale:
            rows = np.logspace(*row_scale, g.n)
            for r in range(2 * p + 1):   # band row r holds entries (j + r - p, j)
                a.data[r] *= rows[np.clip(np.arange(g.n) + r - p, 0, g.n - 1)]
        b = np.random.default_rng(6).standard_normal(g.n)
        x = UnpivotedBandedLU(a).solve(b)
        reference = scipy.linalg.solve_banded((p, p), a.data, b)
        assert np.abs(x - reference).max() <= 1e-13 * np.abs(reference).max()


class TestUniformSpline:
    """Oracle: scipy's not-a-knot CubicSpline on the same nodes."""

    @pytest.mark.parametrize("n", [5, 8, 12_000])
    @pytest.mark.parametrize("fn", [
        lambda x: np.sqrt(0.5 * (np.hypot(x, 1.0) - x)) * (1.0 - np.tanh(x - 0.3)),
        lambda x: np.sin(3.0 * x) + 0.1 * x ** 3,
    ])
    def test_matches_scipy_not_a_knot(self, n, fn):
        x0, h = -3.7, 0.013 if n < 100 else 8.0 / n
        x = x0 + h * np.arange(n)
        y = fn(x)
        # inside, at the nodes, and half a step past either end
        xs = np.concatenate([np.linspace(x0 - 0.5 * h, x[-1] + 0.5 * h, 2001), x])
        want = CubicSpline(x, y)(xs)
        got = UniformSpline(x0, h, y)(xs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_refused(self, bad):
        v = np.linspace(1.0, 0.0, 20)
        v[7] = bad
        with pytest.raises(ValueError):
            UniformSpline(0.0, 0.1, v)

    def test_reproduces_a_cubic_and_its_nodes(self):
        x = 0.5 + 0.25 * np.arange(9)
        y = 2.0 - x + 0.5 * x ** 2 - 0.125 * x ** 3
        s = UniformSpline(0.5, 0.25, y)
        assert np.allclose(s(x), y, rtol=0.0, atol=1e-14)
        t = np.linspace(0.0, 3.0, 31)
        assert np.allclose(s(t), 2.0 - t + 0.5 * t ** 2 - 0.125 * t ** 3,
                           rtol=0.0, atol=1e-13)

    def test_scalar_in_scalar_out(self):
        s = UniformSpline(0.0, 1.0, [1.0, 2.0, 3.0, 5.0])
        assert np.ndim(s(2.5)) == 0
        assert float(s(2.5)) == pytest.approx(float(CubicSpline([0, 1, 2, 3],
                                                               [1, 2, 3, 5])(2.5)))

    def test_needs_four_nodes(self):
        with pytest.raises(ValueError):
            UniformSpline(0.0, 1.0, [1.0, 2.0, 3.0])
