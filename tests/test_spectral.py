"""Potentials, quadrature grids, Nystrom assembly, and eigenpairs."""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.integrate import quad

import herbst.kernel
from herbst.kernel import BKernelTable, GreenKernelTable, PhysParams, green_function
from herbst.specfun import EvaluationFailure, checked_quad
from herbst.spectral import (BsMatrix, DegenerateEigenvalueError,
                             EigensolverError, QuadGrid, RadialPotential,
                             _reference_rule, _shared_kernel, _symmetric_eigh,
                             b_form,
                             bump_potential, eigen_continuation, green_kernel,
                             leading_eigenpair,
                             s_wave_reduce, solve, square_well_potential,
                             tabulated_potential,
                             truncated_gaussian_potential, two_well_potential)
from herbst.threshold import (energy_of_lambda, expansion_from_state, lambda_of_alpha,
                              synthetic_zero_overlap_state)

from conftest import dense_matrix, from_dense


class TestPotentials:
    def test_bump_is_nonpositive_and_compact(self):
        pot = bump_potential(depth=2.0, radius=1.5)
        r = np.linspace(0.0, 3.0, 50)
        v = pot(r)
        assert np.all(v <= 0.0)
        assert np.all(v[r >= 1.5] == 0.0)
        assert_allclose(pot(0.0), -2.0, rtol=1e-12)

    def test_positive_profile_is_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            RadialPotential(profile=lambda r: np.abs(r), support_radius=1.0)

    def test_profile_leaking_beyond_support_is_rejected(self):
        with pytest.raises(ValueError, match="vanish beyond"):
            RadialPotential(profile=lambda r: -np.ones_like(np.asarray(r)),
                            support_radius=1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_support_radius_is_rejected(self, radius):
        # NaN fails no ordering check, and solve takes its grid from this field
        with pytest.raises(ValueError, match=rf"support radius {radius} must be "
                                             "positive and finite"):
            RadialPotential(profile=lambda r: np.zeros_like(np.asarray(r)),
                            support_radius=radius)
        with pytest.raises(ValueError, match=rf"support radius {radius} "):
            bump_potential(1.0, radius)

    def test_scaled_multiplies_depth(self):
        pot = bump_potential()
        assert_allclose(pot.scaled(3.0)(0.4), 3.0 * pot(0.4), rtol=1e-14)

    def test_square_well_value(self):
        pot = square_well_potential(depth=1.5, radius=1.0)
        assert_allclose(pot(0.5), -1.5, rtol=1e-14)
        assert pot(1.5) == 0.0

    def test_gaussian_truncation_is_smooth(self):
        pot = truncated_gaussian_potential()
        vals = pot(np.linspace(0.95, 1.0, 20))
        assert np.all(np.isfinite(vals))
        assert abs(pot(0.999)) < 1e-3

    def test_two_well_has_two_minima(self):
        pot = two_well_potential(1.0, 2.0)
        r = np.linspace(0.0, 1.0, 400)
        v = pot(r)
        interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
        assert interior.sum() >= 2

    def test_tabulated_round_trip(self, tmp_path):
        r = np.linspace(0.0, 1.0, 60)
        v = -np.exp(-4.0 * r * r) * (1.0 - r) ** 2
        path = tmp_path / "table.txt"
        np.savetxt(path, np.column_stack([r, v]))
        pot = tabulated_potential(str(path))
        assert_allclose(pot(0.37), np.interp(0.37, r, v), atol=2e-4)
        assert pot(2.0) == 0.0

    @pytest.mark.parametrize("bad", [(0.3, math.nan), (math.inf, -0.5)], ids=["nan", "inf"])
    def test_tabulated_rejects_a_non_finite_row(self, tmp_path, bad):
        # NaN passes every ordering check; the error names the file and row
        rows = [(0.0, -1.0), (0.2, -0.8), bad, (0.6, -0.4), (1.0, 0.0)]
        path = tmp_path / "table.txt"
        np.savetxt(path, rows)
        with pytest.raises(ValueError, match=rf"in {re.escape(str(path))}: data row 3 .* is not finite"):
            tabulated_potential(str(path))


class TestQuadGrid:
    def test_second_moment_matches_radius(self):
        g = QuadGrid.gauss_legendre(64, 1.3)
        assert_allclose(np.sum(g.weights * g.nodes**2), 1.3**3 / 3.0,
                        rtol=1e-12)

    def test_nodes_interior_and_sorted(self):
        g = QuadGrid.gauss_legendre(32, 1.0)
        assert g.nodes[0] > 0.0 and g.nodes[-1] < 1.0
        assert np.all(np.diff(g.nodes) > 0.0)

    def test_rejects_inconsistent_weights(self):
        # at any scale: the check is sum (w/R) (x/R)^2 = 1/3, so no R^3
        # under- or overflows at R = 1e-150 or 1e200
        for radius in (1.0, 1e-150, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = QuadGrid.gauss_legendre(16, radius)
                with pytest.raises(ValueError, match="second-moment"):
                    QuadGrid(nodes=g.nodes, weights=2.0 * g.weights, radius=radius)

    @pytest.mark.parametrize("field, values, message", [
        ("nodes", [0.2, math.nan, 0.8], r"grid nodes\[1\] = nan is not finite"),
        ("weights", [0.5, math.nan, 0.1], r"grid weights\[1\] = nan is not finite"),
        ("radius", math.nan, "grid radius nan must be positive and finite"),
    ])
    def test_rejects_a_non_finite_entry(self, field, values, message):
        # every comparison with NaN is False, so the ordering, sign and
        # second-moment checks alone let it through
        fields = {"nodes": [0.2, 0.5, 0.8], "weights": [0.5, 0.2, 0.1], "radius": 1.0}
        fields[field] = values
        with pytest.raises(ValueError, match=message):
            QuadGrid(**fields)

    @pytest.mark.parametrize("n", [75, 800, 1600])
    def test_rule_matches_a_40_digit_newton_reference(self, n):
        # the reference is Newton's method on P_n in 40-digit arithmetic,
        # started at the node under test.  Next to +-1 a node's rounding
        # alone moves 2 / ((1 - x^2) P_n'^2) by up to 4.7e-11 at n = 1600;
        # the rule corrects for it to first order (4e-13 measured), where
        # leggauss is off by 1.4e-9 at n = 800 and 3.7e-8 at n = 1600
        def legendre(x):
            p0, p1 = mpmath.mpf(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            return p1, n * (p0 - x * p1) / (1 - x * x)

        x, w = _reference_rule(n)
        for i in (0, 1, n // 3, n // 2, n - 1):
            with mpmath.workdps(40):
                xr = mpmath.mpf(float(x[i]))
                for _ in range(4):
                    p, dp = legendre(xr)
                    xr -= p / dp
                wr = 2 / ((1 - xr * xr) * legendre(xr)[1] ** 2)
            assert abs(x[i] - float(xr)) <= 2.5e-16
            assert abs(w[i] / float(wr) - 1.0) <= 1e-11
        assert np.abs(x - leggauss(n)[0]).max() <= 2.5e-16
        assert abs(w.sum() - 2.0) <= 4 * np.finfo(float).eps
        g = QuadGrid.gauss_legendre(n, 2.3)
        assert np.array_equal(g.nodes, 0.5 * 2.3 * (x + 1.0))
        assert np.array_equal(g.weights, 0.5 * 2.3 * w)

    def test_rule_builds_no_n_by_n_array(self):
        # leggauss(4000) peaks at 122 MB with its dense Jacobi matrix
        _reference_rule.cache_clear()
        tracemalloc.start()
        try:
            _reference_rule(4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grids_share_no_writable_array(self):
        ref = _reference_rule(40)
        for a in ref:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        g, h = QuadGrid.gauss_legendre(40, 1.0), QuadGrid.gauss_legendre(40, 1.0)
        for a in (g.nodes, g.weights):
            assert a.flags.writeable
            for b in (h.nodes, h.weights, *ref):
                assert not np.shares_memory(a, b)


class TestAssembly:
    def test_matrix_is_symmetric_and_finite(self):
        mat = s_wave_reduce(bump_potential(), PhysParams(),
                            QuadGrid.gauss_legendre(60, 1.0))
        a = dense_matrix(mat)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a - a.T)) < 1e-14

    def test_off_diagonal_entry_matches_quadrature(self):
        pot = bump_potential()
        p = PhysParams(m=1.0, E=-0.01)
        grid = QuadGrid.gauss_legendre(40, 1.0)
        mat = s_wave_reduce(pot, p, grid)
        i, j = 10, 30
        ri, rj = grid.nodes[i], grid.nodes[j]
        ring, _ = quad(lambda t: t * green_function(t, p),
                       abs(ri - rj), ri + rj,
                       epsabs=1e-13, epsrel=1e-11, limit=200)
        expected = (math.sqrt(grid.weights[i] * grid.weights[j])
                    * math.sqrt(pot(ri) * pot(rj))
                    * 2.0 * math.pi * ring)
        assert_allclose(dense_matrix(mat)[i, j], expected, rtol=1e-9)

    def test_shared_table_reproduces_default(self):
        pot = bump_potential()
        p = PhysParams()
        grid = QuadGrid.gauss_legendre(30, 1.0)
        table = GreenKernelTable(p, s_max=2.002)
        a = s_wave_reduce(pot, p, grid).packed
        b = s_wave_reduce(pot, p, grid, table=table).packed
        assert_allclose(a, b, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("E", [0.0, -0.01])
    def test_reused_kernel_matches_fresh_assembly(self, E):
        # the matrix takes over the kernel it scales, so a caller reusing one
        # kernel for three potentials hands each a copy; each matrix is the
        # packed kernel scaled by s s^T, bit for bit, in one block of rows
        # (n = 2) and in several
        for n in (2, 127, 128, 129, 400):
            grid = QuadGrid.gauss_legendre(n, 1.0)
            p = PhysParams(m=1.0, E=E)
            kappa = green_kernel(grid, p)
            for pot in (bump_potential(), square_well_potential(),
                        two_well_potential(8.0, 16.0)):
                s = np.sqrt(grid.weights) * np.sqrt(-pot(grid.nodes))
                packed = BsMatrix.from_kernel(pot, p, grid, kappa.copy()).packed
                assert np.array_equal(packed,
                                      np.multiply.outer(s, s)[np.tril_indices(n)] * kappa)
                assert np.array_equal(packed, s_wave_reduce(pot, p, grid).packed)

    @pytest.mark.parametrize("E", [0.0, -0.01, pytest.param(None, id="B")])
    def test_rows_integrate_one_exactly(self, E):
        # the subtraction rule integrates g = 1 exactly: kappa @ w is the
        # row integral of the ring kernel; E = None takes the B kernel of
        # the coefficient b, densified by the reference rule below
        grid = QuadGrid.gauss_legendre(40, 1.0)
        if E is None:
            table = BKernelTable(1.0, s_max=2.002)
            rows = dense_b_kernel(grid, 1.0) @ grid.weights
        else:
            p = PhysParams(m=1.0, E=E)
            table = GreenKernelTable(p, s_max=2.002)
            rows = unpack(green_kernel(grid, p, table)) @ grid.weights
        for i in (0, 13, 39):
            ri = grid.nodes[i]
            if E is None:
                # B is bounded, so its splined ring kernel is a cubic between
                # the rho where ri + rho or |ri - rho| meets a knot: 4-point
                # Gauss-Legendre between them is exact.  quad stalls near
                # 2e-14 on row 0, which cancels to -0.0055
                s = table._cum.x
                cuts = np.concatenate([s - ri, ri - s, s + ri, [0.0, ri, 1.0]])
                cuts = np.unique(cuts[(cuts >= 0.0) & (cuts <= 1.0)])
                x, w = leggauss(4)
                half, mid = 0.5 * np.diff(cuts), 0.5 * (cuts[1:] + cuts[:-1])
                rho = mid[:, None] + half[:, None] * x
                exact = float((half[:, None] * w * table.ring(ri + rho, np.abs(ri - rho))).sum())
            else:
                # adaptive quadrature split at the log singularity rho = ri
                exact = sum(quad(lambda rho: float(table.ring(ri + rho, abs(ri - rho))),
                                 lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                            for lo, hi in ((0.0, ri), (ri, 1.0)))
            assert_allclose(rows[i], exact, rtol=1e-12)

    @given(n=st.integers(min_value=8, max_value=300),
           radius=st.floats(min_value=0.2, max_value=5.0),
           m=st.floats(min_value=0.1, max_value=10.0),
           energy=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.9)))
    @settings(max_examples=30, deadline=None)
    def test_kernels_are_exactly_symmetric_samples(self, n, radius, m, energy):
        # off the diagonal the assembled kernel is the ring integrals of its
        # table, bit for bit, and mirrors across the diagonal exactly, as it
        # stores each pair once, in one block of rows (n <= 180) or several;
        # the B form is the reference rule's, whose off-diagonal entries are
        # the B table's ring integrals
        grid = QuadGrid.gauss_legendre(n, radius)
        p = PhysParams(m=m, E=-energy * m)
        table = GreenKernelTable(p, s_max=2.0 * radius * 1.001)
        k = green_kernel(grid, p, table)
        assert k.shape == (n * (n + 1) // 2,)
        k = unpack(k)
        assert np.array_equal(k, k.T)
        r = grid.nodes
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        assert np.array_equal(k[i, j], table.ring(r[i] + r[j], np.abs(r[i] - r[j])))

        u = grid.weights * r * np.exp(-(r / radius) ** 2)
        kb = dense_b_kernel(grid, m)
        assert_allclose(b_form(grid, m, u), u @ kb @ u, rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    @pytest.mark.parametrize("m", [0.4, 1.0, 3.0])
    def test_b_form_is_the_quadratic_form_of_the_rule(self, n, m):
        # one tile, one tile exactly full, a partial second tile and several;
        # n = 1 is a one-node rule that passes the grid's moment check
        if n == 1:
            grid = QuadGrid(nodes=np.array([0.5]), weights=np.array([4.0 / 3.0]),
                            radius=1.0)
        else:
            grid = QuadGrid.gauss_legendre(n, 1.0)
        r = grid.nodes
        rng = np.random.default_rng(n)
        u = grid.weights * r * np.exp(-r * r) * rng.uniform(0.5, 1.5, n)
        kb = dense_b_kernel(grid, m)
        assert_allclose(b_form(grid, m, u), u @ kb @ u, rtol=1e-13)

    def test_assembly_allocates_no_full_matrix_temporaries(self):
        # the packed kappa, 8 n(n+1)/2 bytes, and tile-sized temporaries
        # (about 1.1 MB at any n), the table built inside: 2.75 and 1.11
        # times the packed size at n = 400 and 1600
        for n, bound in ((400, 3.1), (1600, 1.16)):
            grid = QuadGrid.gauss_legendre(n, 1.0)
            herbst.kernel._green_table.cache_clear()
            tracemalloc.start()
            try:
                green_kernel(grid, PhysParams())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * n * (n + 1) / 2

    def test_matrix_is_exactly_symmetric_with_one_full_array(self):
        # kappa is scaled into the matrix in place, by blocks of rows: no
        # second array of its size, and symmetric bit for bit since the
        # packed triangle holds each pair once
        n = 800
        grid = QuadGrid.gauss_legendre(n, 1.0)
        kappa = green_kernel(grid, PhysParams())
        tracemalloc.start()
        try:
            mat = BsMatrix.from_kernel(bump_potential(), PhysParams(), grid, kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n
        assert mat.packed is kappa
        assert kappa.shape == (n * (n + 1) // 2,)
        dense = dense_matrix(mat)
        assert np.array_equal(dense, dense.T)

    def test_assembly_holds_one_full_array(self):
        # the whole s_wave_reduce: the packed kernel, which becomes the
        # matrix, plus the table and tile-sized temporaries, 1.44 times the
        # packed size (1.20 times 8 n^2 while both triangles were stored)
        n = 800
        grid = QuadGrid.gauss_legendre(n, 1.0)
        herbst.kernel._green_table.cache_clear()
        tracemalloc.start()
        try:
            s_wave_reduce(bump_potential(), PhysParams(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * (n + 1) / 2

    def test_kernel_rejects_a_table_for_another_energy(self):
        # an E = 0 table under an E = -0.09 matrix would give mu0 = 0.486,
        # not 0.405, while the matrix records E = -0.09
        grid = QuadGrid.gauss_legendre(100, 1.0)
        table = GreenKernelTable(PhysParams(), s_max=2.002)
        with pytest.raises(ValueError, match="does not serve"):
            s_wave_reduce(bump_potential(), PhysParams(E=-0.09), grid, table=table)

    def test_kernel_rejects_a_table_short_of_the_grid(self):
        # a table reaching s = 0.5 on an R = 1 grid would extrapolate
        grid = QuadGrid.gauss_legendre(100, 1.0)
        table = GreenKernelTable(PhysParams(), s_max=0.5)
        with pytest.raises(ValueError, match="does not serve"):
            green_kernel(grid, PhysParams(), table)

    @pytest.mark.parametrize("E", [0.0, -0.01])
    def test_no_bessel_function_on_the_packed_pairs(self, monkeypatch, E):
        # K0 runs on the table's nodes only, not on the n(n-1)/2 = 79800
        # pairs at n = 400: no point at all with the table passed in,
        # and without it a count that does not grow with n
        import scipy.special
        points = []
        for name in ("k0", "k0e", "k1", "k1e"):
            ufunc = getattr(scipy.special, name)
            monkeypatch.setattr(scipy.special, name,
                                lambda x, ufunc=ufunc: points.append(np.size(x)) or ufunc(x))
        p = PhysParams(m=1.0, E=E)

        def count(n, table=None):
            # the shared table and the shared kernel are built here
            herbst.kernel._green_table.cache_clear()
            herbst.spectral._kernels.clear()
            points.clear()
            s_wave_reduce(bump_potential(), p, QuadGrid.gauss_legendre(n, 1.0), table)
            return sum(points)

        table = GreenKernelTable(p, s_max=2.002)
        assert count(400, table) == 0
        assert count(400) == count(100)
        if E == 0.0:
            assert count(400) <= 2000

    @pytest.mark.parametrize("radius", [0.3, 1.0, 5.0])
    def test_green_row_integral_matches_quadrature(self, radius):
        # the table's row integral, the logarithm's share in closed form,
        # against adaptive quadrature of its ring split at the singularity
        # rho = r, at E = 0 and E < 0.  The spline's knots limit quad to
        # about 4e-12 relative on row 0 at R = 5
        grid = QuadGrid.gauss_legendre(40, radius)
        for E in (0.0, -0.3):
            table = GreenKernelTable(PhysParams(E=E), s_max=2.0 * radius * 1.001)
            row = table.row_integral(grid.nodes, radius)
            for i in (0, 7, 20, 39):
                r = grid.nodes[i]
                exact = sum(checked_quad(lambda rho: float(table.ring(r + rho, abs(r - rho))),
                                         lo, hi, abs_tol=1e-14, rel_tol=1e-12)
                            for lo, hi in ((0.0, r), (r, radius)))
                assert_allclose(row[i], exact, rtol=1e-11)

    @pytest.mark.parametrize("first", [0.0, -0.2])
    def test_build_rejects_a_node_at_or_below_zero(self, first):
        # the logarithm needs r_i + r_j > 0 and r ln r needs r > 0, so the
        # grid refuses to be built; the weights pass its second-moment check
        w0 = 0.1 if first == 0.0 else 1.0
        with pytest.raises(ValueError, match="strictly inside"):
            QuadGrid(nodes=np.array([first, 0.5]),
                     weights=np.array([w0, (1.0 / 3.0 - w0 * first**2) / 0.25]),
                     radius=1.0)

    def test_kernel_names_a_non_finite_entry(self):
        # kappa @ w carries a non-finite entry into its row's diagonal, so
        # one O(n) check finds it and names the kernel, E, m and R
        grid = QuadGrid.gauss_legendre(8, 1.0)
        p = PhysParams(m=2.0, E=-0.1)
        table = GreenKernelTable(p, s_max=2.002)
        ring = table.ring
        table.ring = lambda hi, lo: np.where(hi > 1.5, np.inf, ring(hi, lo))
        with pytest.raises(EvaluationFailure,
                           match=r"^Green kernel at E = -0\.1, m = 2\.0, R = 1\.0: "):
            green_kernel(grid, p, table)


class TestSharedTables:
    """green_kernel and b_form build each ring table once per (E, m, R)."""

    @pytest.fixture
    def spline_builds(self, monkeypatch):
        """One entry per ring table built from now on, all caches cleared."""
        builds = []
        not_a_knot = herbst.kernel._not_a_knot
        monkeypatch.setattr(herbst.kernel, "_not_a_knot",
                            lambda x, y: builds.append(1) or not_a_knot(x, y))
        herbst.kernel._green_table.cache_clear()
        herbst.kernel._b_table.cache_clear()
        herbst.spectral._kernels.clear()
        return builds

    @pytest.mark.parametrize("E", [0.0, -0.09])
    @pytest.mark.parametrize("radius", [1.0, 3.0])
    def test_shared_table_gives_the_fresh_tables_kernel(self, spline_builds, E, radius):
        # built on the first call, taken from the cache on the second
        grid = QuadGrid.gauss_legendre(120, radius)
        p = PhysParams(m=1.0, E=E)
        want = green_kernel(grid, p, GreenKernelTable(p, s_max=2.0 * radius * 1.001))
        for _ in range(2):
            assert np.array_equal(green_kernel(grid, p), want)
        assert len(spline_builds) == 2

    def test_one_build_per_key_across_grids_and_potentials(self, spline_builds):
        # the table depends on (E, m, R) only: one for the kernels at
        # n = 200 and 400 and two potentials, one for b_form on both grids
        p = PhysParams(m=1.0, E=-0.04)
        for n in (200, 400):
            grid = QuadGrid.gauss_legendre(n, 1.0)
            for potential in (bump_potential(), square_well_potential()):
                s_wave_reduce(potential, p, grid)
        assert len(spline_builds) == 1
        for n in (200, 400):
            grid = QuadGrid.gauss_legendre(n, 1.0)
            b_form(grid, 1.0, grid.weights * grid.nodes)
        assert len(spline_builds) == 2

    def test_seventeenth_energy_evicts_the_first(self, spline_builds):
        # each cache keeps the last 16 keys
        grid = QuadGrid.gauss_legendre(8, 1.0)
        energies = -0.01 * np.arange(1, 18)
        for E in energies:
            green_kernel(grid, PhysParams(E=E))
        assert len(spline_builds) == 17
        green_kernel(grid, PhysParams(E=energies[-1]))
        assert len(spline_builds) == 17
        green_kernel(grid, PhysParams(E=energies[0]))
        assert len(spline_builds) == 18

    def test_a_table_that_cannot_be_built_fails_on_every_call(self, spline_builds):
        # no failure is cached, and each names the kernel, E, m and R
        grid = QuadGrid.gauss_legendre(8, 1e150)
        for _ in range(2):
            with pytest.raises(EvaluationFailure,
                               match=r"^Green kernel at E = 0\.0, m = 1\.0, R = 1e\+150: "
                                     r"GreenKernelTable\("):
                green_kernel(grid, PhysParams())
        assert herbst.kernel._green_table.cache_info().currsize == 0


class TestKernelCache:
    """s_wave_reduce and tune_zero_overlap take each Green kernel from one
    read-only cache keyed by (p, R, nodes, weights), within 2 MB."""

    @pytest.fixture(autouse=True)
    def empty(self):
        herbst.spectral._kernels.clear()
        yield
        herbst.spectral._kernels.clear()

    @pytest.mark.parametrize("E", [0.0, -0.09])
    def test_a_hit_is_a_cold_build_bit_for_bit(self, E):
        grid = QuadGrid.gauss_legendre(200, 1.0)
        p = PhysParams(E=E)
        first = _shared_kernel(grid, p)
        hit = _shared_kernel(grid, p)
        assert hit is first and np.array_equal(hit, green_kernel(grid, p))
        # the matrix of a hit is the one scaled in place from a fresh kernel
        for potential in (bump_potential(), square_well_potential()):
            want = BsMatrix.from_kernel(potential, p, grid, green_kernel(grid, p))
            assert np.array_equal(s_wave_reduce(potential, p, grid).packed, want.packed)

    @pytest.mark.parametrize("n", [1, 8, 200, 800])
    def test_read_only_kernel_is_scaled_into_a_new_array(self, n):
        # kappa_ij (s_i s_j) bit for bit, with the block masks kept (n <=
        # 706) and made per call (n = 800), and on a one-node grid; kappa
        # itself is left as it was
        grid, p = grid_of(n), PhysParams(E=-0.01)
        kappa = green_kernel(grid, p)
        kappa.flags.writeable = False
        pot = bump_potential()
        mat = BsMatrix.from_kernel(pot, p, grid, kappa)
        assert mat.packed is not kappa and np.array_equal(kappa, green_kernel(grid, p))
        s = np.sqrt(grid.weights) * np.sqrt(-pot(grid.nodes))
        assert np.array_equal(mat.packed, np.multiply.outer(s, s)[np.tril_indices(n)] * kappa)

    def test_kept_kernels_are_read_only_and_matrices_are_not(self):
        grid, p = QuadGrid.gauss_legendre(120, 1.0), PhysParams()
        before = s_wave_reduce(bump_potential(), p, grid).packed.copy()
        kappa = _shared_kernel(grid, p)
        assert not kappa.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kappa[0] = 1.0
        mat = s_wave_reduce(bump_potential(), p, grid)
        assert mat.packed is not kappa and mat.packed.flags.writeable
        mat.packed[:] = 7.0
        assert np.array_equal(s_wave_reduce(bump_potential(), p, grid).packed, before)

    def test_a_grid_changed_in_place_misses(self):
        grid, p = QuadGrid.gauss_legendre(60, 1.0), PhysParams()
        kappa = _shared_kernel(grid, p)
        grid.nodes[:] = 0.999 * grid.nodes
        again = _shared_kernel(grid, p)
        assert again is not kappa and np.array_equal(again, green_kernel(grid, p))
        assert not np.array_equal(again, kappa)

    def test_a_build_that_raises_is_retried(self, monkeypatch):
        builds = []
        build = herbst.spectral.green_kernel
        monkeypatch.setattr(herbst.spectral, "green_kernel",
                            lambda grid, p: builds.append(1) or build(grid, p))
        grid = QuadGrid.gauss_legendre(8, 1e150)
        for _ in range(2):
            with pytest.raises(EvaluationFailure, match=r"^Green kernel at E = 0\.0"):
                s_wave_reduce(bump_potential(1.0, 1e150), PhysParams(), grid)
        assert len(builds) == 2 and not herbst.spectral._kernels

    def test_kept_bytes_stay_within_the_budget(self):
        # n = 200 and 400 kernels are kept, 0.16 and 0.64 MB, the least
        # recently used leaving first; n = 800, 2.56 MB, never is
        budget = herbst.kernel._KERNEL_BYTES
        assert budget == 2_000_000
        kept = herbst.spectral._kernels
        for E in (0.0, -0.01, -0.02):
            for n in (200, 400, 800):
                kappa = _shared_kernel(QuadGrid.gauss_legendre(n, 1.0), PhysParams(E=E))
                assert kappa.flags.writeable == (n == 800)
                assert sum(k.nbytes for k in kept.values()) <= budget
        assert sorted(k.size for k in kept.values()) == [20100, 20100, 80200, 80200]
        # a hit moves its key to the end: the n = 200 kernel at E = -0.01,
        # the oldest, is used again and outlives the n = 400 one after it,
        # which the next kernel evicts
        _shared_kernel(QuadGrid.gauss_legendre(200, 1.0), PhysParams(E=-0.01))
        _shared_kernel(QuadGrid.gauss_legendre(400, 1.0), PhysParams(E=0.0))
        assert [(len(key[2]) // 8, key[0].E) for key in kept] == [
            (200, -0.02), (400, -0.02), (200, -0.01), (400, 0.0)]

    @pytest.mark.parametrize("n", [200, 400])
    def test_a_hit_allocates_one_packed_array(self, n):
        # the matrix, 8 n(n+1)/2 bytes, plus one block's temporaries: its
        # s_i s_j rectangle (at most 64 KB), the products taken from it and
        # the ufunc's buffers, 0.196 MB at either n measured
        grid, p = QuadGrid.gauss_legendre(n, 1.0), PhysParams()
        s_wave_reduce(bump_potential(), p, grid)
        tracemalloc.start()
        try:
            s_wave_reduce(bump_potential(), p, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (n + 1) / 2 + 0.25e6

    def test_an_explicit_table_bypasses_the_cache(self, monkeypatch):
        grid, p = QuadGrid.gauss_legendre(100, 1.0), PhysParams()
        table = GreenKernelTable(p, s_max=2.002)
        monkeypatch.setattr(herbst.spectral, "_shared_kernel", None)
        mat = s_wave_reduce(bump_potential(), p, grid, table)
        assert not herbst.spectral._kernels
        assert np.array_equal(mat.packed, BsMatrix.from_kernel(
            bump_potential(), p, grid, green_kernel(grid, p, table)).packed)


@pytest.mark.parametrize("k", [1, 2, 17, 32])
def test_rayleigh_ritz_solve_is_scipys_eigh_bit_for_bit(k):
    # the direct dsyevr call of _ritz_pairs, on random symmetric k x k
    # matrices as _ritz_pairs forms them
    rng = np.random.default_rng(k)
    for _ in range(10):
        t = rng.standard_normal((k, k))
        a = 0.5 * (t + t.T)
        w, v = _symmetric_eigh(a)
        want_w, want_v = scipy.linalg.eigh(a, check_finite=False)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


def dense_b_kernel(grid, m):
    """The subtraction-rule matrix of the B kernel, formed in full: the B
    table's ring integrals off the diagonal, and the diagonal that makes each
    row integrate 1 exactly, (I_i - sum_(j != i) w_j k_ij) / w_i."""
    table = BKernelTable(m, 2.0 * grid.radius * 1.001)
    r, w = grid.nodes, grid.weights
    k = table.ring(r[:, None] + r, np.abs(r[:, None] - r))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, (table.row_integral(r, grid.radius) - k @ w) / w)
    return k


def unpack(packed):
    """The symmetric n x n matrix whose lower triangle ``packed`` holds by rows."""
    n = (math.isqrt(8 * len(packed) + 1) - 1) // 2
    m = np.zeros((n, n))
    m[np.tril_indices(n)] = packed
    return m + np.tril(m, -1).T


def grid_of(n):
    """A grid of n nodes on (0, 1); one node at 0.5 passes the moment check
    with weight 4/3."""
    if n == 1:
        return QuadGrid(nodes=np.array([0.5]), weights=np.array([4.0 / 3.0]), radius=1.0)
    return QuadGrid.gauss_legendre(n, 1.0)


def bs_matrix(entries):
    """``from_dense`` around ``entries`` on a grid of as many nodes; the
    check reads nothing else."""
    return from_dense(entries, PhysParams(), None, grid_of(len(entries)))


def symmetric(n, scale, seed=0):
    """Symmetric n x n matrix with max|m| = |scale|, attained at (0, 0) only:
    every other entry is at most |scale| / 2."""
    a = np.random.default_rng(seed).uniform(-0.25, 0.25, (n, n))
    a = a + a.T
    a[0, 0] = 1.0
    return scale * a


class TestBsMatrixCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_rejected_by_position(self, bad):
        m = symmetric(40, 1.0)
        m[3, 35] = bad
        with pytest.raises(ValueError, match=r"non-finite .* at \(3, 35\)$"):
            bs_matrix(m)

    @pytest.mark.parametrize("scale", [0.5, 4.0, -4.0])
    def test_asymmetry_bound_is_relative_to_max_entry(self, scale):
        # the bound is 1e-13 max(1, max|m|); (68, 67) sits in the last,
        # partial block of rows
        bound = 1e-13 * max(1.0, abs(scale))
        m = symmetric(70, scale)
        m[68, 67] += 0.9 * bound
        bs_matrix(m)
        m[68, 67] += 0.2 * bound
        with pytest.raises(ValueError, match="lost symmetry"):
            bs_matrix(m)

    @given(n=st.integers(min_value=1, max_value=100),
           scale=st.floats(min_value=1e-3, max_value=1e3),
           sign=st.sampled_from([1.0, -1.0]),
           spot=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
           factor=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_decision_matches_the_full_matrix_rule(self, n, scale, sign, spot,
                                                   factor):
        m = symmetric(n, sign * scale)
        i, j = int(spot[0] * n), int(spot[1] * n)
        m[i, j] += factor * 1e-13 * max(1.0, scale)
        scale_m = max(1.0, np.max(np.abs(m)))
        full_rule = np.max(np.abs(m - m.T)) > 1e-13 * scale_m
        try:
            bs_matrix(m)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == full_rule

    def test_check_allocates_no_full_matrix_temporaries(self):
        # the packed triangle it stores, 8 n(n+1)/2 bytes, and blocks
        n = 800
        m = symmetric(n, 1.0)
        grid = grid_of(n)
        tracemalloc.start()
        try:
            from_dense(m, PhysParams(), None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (n + 1) // 2 + 0.1 * 8 * n * n


class DenseOperator:
    """The solvers' three members, ``apply``, ``scale`` and ``norm_bound``,
    over a dense symmetric matrix by numpy alone, with the grid, potential
    and parameters a SpectralResult reads: no storage of BsMatrix's."""

    __slots__ = ("_m", "scale", "norm_bound", "params", "potential", "grid")

    def __init__(self, dense, params, potential, grid):
        self._m = dense
        self.scale = float(np.abs(dense).max())
        self.norm_bound = float(np.linalg.norm(dense))
        self.params, self.potential, self.grid = params, potential, grid

    def apply(self, x):
        return x @ self._m


class TestOperatorSeam:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 400])
    def test_apply_is_the_dense_product(self, n):
        # one row block of the triangle and several; a vector and a block
        grid = grid_of(n)
        mat = s_wave_reduce(bump_potential(), PhysParams(), grid)
        dense = dense_matrix(mat)
        assert np.array_equal(dense, unpack(mat.packed))
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((3, n))):
            want = x @ dense
            assert np.abs(mat.apply(x) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2, 129, 400])
    @pytest.mark.parametrize("c", [1.0, math.ldexp(1.0, 900), -math.ldexp(1.0, -900)])
    def test_scale_and_norm_bound_are_those_of_the_dense_matrix(self, n, c):
        # max|M| exactly, a negative entry's too, and |M|_F from the packed
        # triangle, where the sum of squares of entries near 2^900 would
        # overflow
        mat = s_wave_reduce(two_well_potential(8.0, 16.0), PhysParams(), grid_of(n))
        mat = BsMatrix(packed=c * mat.packed, params=mat.params, potential=mat.potential,
                       grid=mat.grid)
        dense = dense_matrix(mat)
        assert mat.scale == np.abs(dense).max()
        frobenius = abs(c) * np.linalg.norm(dense / c)
        assert abs(mat.norm_bound - frobenius) <= 1e-15 * frobenius

    @pytest.mark.parametrize("family", ["bump", "well"])
    def test_solvers_need_only_the_three_members(self, family):
        # the eigenpair, a, b (MINRES on the well's second-order sum) and the
        # zero-overlap trial state agree with the packed matrix's
        make, radius = _FAMILIES[family]
        mat = s_wave_reduce(make(1.0, radius), PhysParams(),
                            QuadGrid.gauss_legendre(200, radius))
        op = DenseOperator(dense_matrix(mat), mat.params, mat.potential, mat.grid)
        assert not hasattr(op, "packed")
        for want, got in ((expansion_from_state(leading_eigenpair(mat)),
                           expansion_from_state(leading_eigenpair(op))),
                          (expansion_from_state(synthetic_zero_overlap_state(mat)),
                           expansion_from_state(synthetic_zero_overlap_state(op)))):
            assert_allclose([got.mu0, got.a, got.b], [want.mu0, want.a, want.b],
                            rtol=1e-14)


class TestEigenpairs:
    def test_depth_scaling_is_exact(self, bump, state200, grid200):
        doubled = leading_eigenpair(
            s_wave_reduce(bump.scaled(2.0), PhysParams(), grid200))
        assert_allclose(doubled.lambda0, state200.lambda0 / 2.0, rtol=1e-12)

    def test_grid_convergence(self, bump, state200):
        coarse = leading_eigenpair(
            s_wave_reduce(bump, PhysParams(), QuadGrid.gauss_legendre(100, 1.0)))
        assert abs(coarse.mu0 - state200.mu0) / state200.mu0 < 1e-6

    def test_eigenvector_is_positive_ground_state(self, state200):
        # Perron-Frobenius: the kernel is positivity improving; components
        # may underflow to zero where the mollifier weight is astronomically
        # small near the support edge, but none may go negative
        assert np.all(state200.vector >= 0.0)
        assert np.all(state200.vector[:150] > 0.0)
        assert state200.residual < 1e-12
        assert state200.gap > 0.0

    def test_vector_is_a_unit_eigenvector_of_the_top_eigenvalue(self, state200):
        # the pair is a Ritz pair of a block Krylov space; mu0 is the
        # Rayleigh quotient of its vector, within rounding of eigvalsh's
        top = np.linalg.eigvalsh(dense_matrix(state200.matrix))[-1]
        assert abs(state200.mu0 - top) <= 4.0 * np.finfo(float).eps * state200.mu0
        assert state200.residual < 1e-13
        assert_allclose(np.linalg.norm(state200.vector), 1.0, rtol=1e-15)

    def test_sign_reference_decides_the_sign(self, bump, grid200, state200):
        mat = s_wave_reduce(bump, PhysParams(), grid200)
        flipped = leading_eigenpair(mat, sign_reference=-state200.vector)
        assert np.array_equal(flipped.vector, -state200.vector)
        assert np.array_equal(flipped.phi, -state200.phi)
        assert flipped.matrix is mat
        kept = leading_eigenpair(mat, sign_reference=state200.vector)
        assert np.array_equal(kept.vector, state200.vector)

    def test_double_top_eigenvalue_is_degenerate(self, with_spectrum):
        mat = with_spectrum([0.5, 0.5, 0.3])
        with pytest.raises(DegenerateEigenvalueError):
            leading_eigenpair(mat)
        # the third eigenvalue is simple
        assert_allclose(leading_eigenpair(mat, index=2).mu0, 0.3, rtol=1e-13)

    def test_double_second_eigenvalue_is_degenerate_at_index_1(self, with_spectrum):
        mat = with_spectrum([0.5, 0.3, 0.3])
        with pytest.raises(DegenerateEigenvalueError):
            leading_eigenpair(mat, index=1)
        assert_allclose(leading_eigenpair(mat).mu0, 0.5, rtol=1e-13)

    def test_nearby_simple_spectrum_is_not_degenerate(self, with_spectrum):
        mat = with_spectrum([0.5, 0.5 - 1e-9, 0.3])
        for index, mu in ((0, 0.5), (1, 0.5 - 1e-9)):
            res = leading_eigenpair(mat, index=index)
            assert_allclose(res.mu0, mu, rtol=1e-13)
            assert_allclose(res.gap, 1e-9, rtol=1e-5)
            assert res.residual < 1e-13

    @given(gaps=st.lists(st.floats(min_value=-9.0, max_value=math.log10(0.2)),
                         min_size=4, max_size=4),
           index=st.integers(min_value=0, max_value=2),
           zeros=st.sampled_from([0, 37]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_ritz_pair_matches_the_dense_spectrum(self, with_spectrum, gaps,
                                                  index, zeros, seed):
        # top eigenvalues 1 > ... > 0.2 apart by gaps in [1e-9, 0.2], over a
        # tail below 0.1, with a block of exactly zero rows like the bump's
        top = 1.0 - np.cumsum([0.0, *10.0 ** np.array(gaps)])
        mat = with_spectrum(top, seed=seed, zeros=zeros)
        # the reference is the spectrum the matrix is built from: on these
        # clusters eigvalsh is up to 11 eps off it, the Ritz pair 4.5 eps
        res = leading_eigenpair(mat, index=index)
        assert abs(res.mu0 - top[index]) <= 8.0 * np.finfo(float).eps
        gap = np.min(np.abs(top[[j for j in (index - 1, index + 1) if j >= 0]]
                            - top[index]))
        assert_allclose(res.gap, gap, rtol=1e-5)
        assert res.residual < 1e-13
        assert not res.vector[res.vector.size - zeros:].any()

    @given(index=st.integers(min_value=0, max_value=2),
           below=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_double_eigenvalue_at_or_next_to_index_is_degenerate(
            self, with_spectrum, index, below, seed):
        # the double pair is (index, index + 1) or (index - 1, index)
        first = max(index - 1, 0) if below else index
        top = [0.9, 0.7, 0.5, 0.3]
        top.insert(first, top[first])
        with pytest.raises(DegenerateEigenvalueError):
            leading_eigenpair(with_spectrum(top, seed=seed, zeros=37),
                              index=index)

    def test_rank_one_matrix_restarts_the_krylov_space(self, grid200):
        # a [1, g] spans one direction and the space is invariant at once:
        # the basis restarts, outside the range of the matrix when it must
        s = np.zeros(grid200.size)
        s[:150] = np.random.default_rng(5).uniform(0.5, 1.0, 150)
        s /= np.linalg.norm(s)
        mat = from_dense(0.7 * np.outer(s, s), PhysParams(), bump_potential(), grid200)
        res = leading_eigenpair(mat)
        assert_allclose(res.mu0, 0.7, rtol=1e-15)
        assert_allclose(res.gap, 0.7, rtol=1e-15)
        assert_allclose(res.vector, s, atol=1e-15)
        assert res.residual < 1e-15
        # the next eigenvalue is 0, n - 1 times over
        with pytest.raises(DegenerateEigenvalueError):
            leading_eigenpair(mat, index=1)

    def test_flat_spectrum_is_solved_exactly_at_full_dimension(self, grid200):
        # eigenvalues evenly spread over [0.1, 1]: the worst case for the
        # Krylov space, which grows to n, where Rayleigh-Ritz is exact
        entries = np.diag(np.linspace(1.0, 0.1, grid200.size))
        res = leading_eigenpair(from_dense(entries, PhysParams(),
                                           bump_potential(), grid200))
        # within 4 ulps of 1 on either side
        fin = np.finfo(float)
        assert 1.0 - 4.0 * fin.epsneg <= res.mu0 <= 1.0 + 4.0 * fin.eps
        assert_allclose(res.vector, np.eye(grid200.size)[0], atol=1e-12)
        assert res.residual < 1e-14

    def test_reciprocal_threshold(self, state200):
        assert_allclose(state200.lambda0 * state200.mu0, 1.0, rtol=1e-14)

    def test_index_out_of_range(self, bump, grid200):
        mat = s_wave_reduce(bump, PhysParams(), grid200)
        with pytest.raises(ValueError):
            leading_eigenpair(mat, index=-1)
        with pytest.raises(ValueError):
            leading_eigenpair(mat, index=grid200.size)

    def test_vanishing_potential_gives_zero_mu(self):
        pot = bump_potential(depth=0.0)
        mat = s_wave_reduce(pot, PhysParams(), QuadGrid.gauss_legendre(20, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = leading_eigenpair(mat)
        assert res.mu0 == 0.0
        assert res.lambda0 == math.inf
        assert np.linalg.norm(res.vector) == 1.0
        assert res.residual == 0.0

    @given(family=st.sampled_from(["bump", "gauss", "well", "two-well"]),
           radius=st.floats(min_value=0.3, max_value=3.0),
           m=st.floats(min_value=0.3, max_value=3.0),
           n=st.integers(min_value=40, max_value=120),
           c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_depth_scaling_for_arbitrary_factor(self, family, radius, m, n, c):
        # the physics invariants for every family: the matrix is linear in
        # the potential, so lambda0(c V) = lambda0(V) / c to rounding;
        # a <= 0; E(lambda0) = 0 and E non-increasing in lambda; and the
        # series inverts, E(lambda(alpha)) = -alpha^2, below its turning point
        make = {"bump": bump_potential, "gauss": truncated_gaussian_potential,
                "well": square_well_potential,
                "two-well": lambda depth, r: two_well_potential(depth, 2.0 * depth, r)}
        pot = make[family](1.0, radius)
        grid = QuadGrid.gauss_legendre(n, radius)
        res = leading_eigenpair(s_wave_reduce(pot, PhysParams(m=m), grid))
        scaled = leading_eigenpair(s_wave_reduce(pot.scaled(c), PhysParams(m=m), grid))
        assert_allclose(scaled.lambda0, res.lambda0 / c, rtol=1e-11)

        exp = expansion_from_state(res)
        assert exp.a <= 0.0
        # 1/lambda = mu0 + a alpha + b alpha^2 falls (a < 0) up to its first
        # positive zero or, when it has none (b > 0), its turning point
        disc = exp.a**2 - 4.0 * exp.b * exp.mu0
        top = (2.0 * exp.mu0 / (math.sqrt(disc) - exp.a) if disc >= 0.0
               else -exp.a / (2.0 * exp.b))
        lams = np.linspace(exp.lambda0, lambda_of_alpha(exp, 0.9 * top), 40)
        energies = np.array([energy_of_lambda(exp, float(lam)) for lam in lams])
        assert energies[0] == 0.0
        assert np.all(np.diff(energies) <= 0.0)
        alphas = top * np.linspace(0.1, 0.9, 9)
        assert_allclose([energy_of_lambda(exp, lambda_of_alpha(exp, float(alpha)))
                         for alpha in alphas], -alphas**2, rtol=1e-11)

    def test_continuation_is_monotone_decreasing(self, bump):
        grid = QuadGrid.gauss_legendre(80, 1.0)
        pts = eigen_continuation(bump, grid, [0.0, 0.05, 0.1, 0.15])
        mus = [mu for _, mu in pts]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_continuation_builds_one_kernel_per_alpha_and_matches_fresh_solves(
            self, bump, kernel_builds):
        grid = QuadGrid.gauss_legendre(80, 1.0)
        alphas = [0.0, 0.01, 0.05, 0.1]
        pts = eigen_continuation(bump, grid, alphas)
        assert kernel_builds == [80] * len(alphas)
        fresh = [leading_eigenpair(s_wave_reduce(
            bump, PhysParams.from_alpha(a), grid)).mu0 for a in alphas]
        assert [mu for _, mu in pts] == fresh


_FAMILIES = {"bump": (bump_potential, 1.0),
             "gauss": (truncated_gaussian_potential, 1.0),
             "well": (square_well_potential, 3.0)}
_SIZES = (200, 400, 800)
_REFERENCE = json.loads((Path(__file__).parent / "data" / "reference.json").read_text())["cases"]
_REFERENCE_CASE = {"bump": "bump_R1", "gauss": "gauss_R1", "well": "well_R3"}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [8, 200])
def test_solve_is_the_gauss_legendre_rule_on_the_support(family, n):
    # bit for bit the grid, assembly and eigensolve that ``solve`` stands for
    make, radius = _FAMILIES[family]
    pot, p = make(1.0, radius), PhysParams()
    assert pot.support_radius == radius
    got = solve(pot, p, n)
    want = leading_eigenpair(s_wave_reduce(pot, p, QuadGrid.gauss_legendre(n, radius)))
    assert (got.mu0, got.gap, got.residual) == (want.mu0, want.gap, want.residual)
    assert np.array_equal(got.vector, want.vector)
    assert np.array_equal(got.grid.nodes, want.grid.nodes)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_polished_pair_has_a_residual_at_rounding_level(family):
    # Ritz vectors from a symmetric eigensolver on the projected matrix:
    # 1.8-2.8 eps mu0 on these matrices
    make, radius = _FAMILIES[family]
    res = leading_eigenpair(s_wave_reduce(
        make(1.0, radius), PhysParams(), QuadGrid.gauss_legendre(200, radius)))
    assert res.residual <= 4.0 * np.finfo(float).eps * res.mu0


def test_excited_pair_has_a_residual_at_rounding_level():
    # the second eigenpair of a two-well matrix: 3.3 eps mu, with no step
    # after Rayleigh-Ritz
    res = leading_eigenpair(s_wave_reduce(
        two_well_potential(8.0, 12.0), PhysParams(), QuadGrid.gauss_legendre(200, 1.0)),
        index=1)
    assert res.residual <= 8.0 * np.finfo(float).eps * res.mu0


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_small_grid_pair_has_a_residual_at_rounding_level(family, n):
    # the Krylov basis reaches n here; a new vector nearly in the span of
    # its block's first one must be orthogonalized against the whole basis
    # after that one, or the basis loses up to 1e-6 of orthogonality
    make, radius = _FAMILIES[family]
    res = leading_eigenpair(s_wave_reduce(
        make(1.0, radius), PhysParams(), QuadGrid.gauss_legendre(n, radius)))
    assert res.residual <= 4.0 * np.finfo(float).eps * res.mu0


@pytest.mark.parametrize("power", [-60, 60, 600, 900])
def test_scaling_by_a_power_of_two_is_exact(state200, power):
    # mu(c M) = c mu(M): the solve runs on the matrix scaled to max|M| in
    # [1/2, 1), so a power-of-two scale changes no bit of the pair; the
    # smallest nonzero entry, 2.9e-254, stays a normal float at 2^-60
    c = math.ldexp(1.0, power)
    mat = state200.matrix
    res = leading_eigenpair(BsMatrix(packed=c * mat.packed, params=mat.params,
                                     potential=mat.potential, grid=mat.grid))
    assert res.mu0 == c * state200.mu0
    assert res.gap == c * state200.gap
    assert res.residual == c * state200.residual
    assert np.array_equal(res.vector, state200.vector)


def test_overflowing_eigenvalue_raises():
    # every entry 1.5e308: the top eigenvalue 6e308 is not a float
    with pytest.raises(EigensolverError, match="not finite"):
        leading_eigenpair(bs_matrix(np.full((4, 4), 1.5e308)))


@pytest.fixture(scope="module")
def doubling_sequence():
    """(mu0, a, b) at E = 0 on n = 200, 400, 800 for each family."""
    out = {}
    for name, (make, radius) in _FAMILIES.items():
        pot = make(1.0, radius)
        out[name] = []
        for n in _SIZES:
            res = leading_eigenpair(s_wave_reduce(
                pot, PhysParams(), QuadGrid.gauss_legendre(n, radius)))
            exp = expansion_from_state(res)
            out[name].append(np.array([exp.mu0, exp.a, exp.b]))
    return out


class TestConvergence:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_third_order_in_mu0_a_and_b(self, doubling_sequence, family):
        x200, x400, x800 = doubling_sequence[family]
        order = np.log2(np.abs(x400 - x200) / np.abs(x800 - x400))
        assert np.all(order >= 2.5), order

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_default_grid_within_1e_7_of_the_reference(self, doubling_sequence, family):
        # the error of (mu0, a, b) at n = 200 against the converged values
        # of tests/data/reference.json (order-3 Richardson from n = 1600 and
        # 3200, good to about 1e-11), not against the n = 800 solve
        held = _REFERENCE[_REFERENCE_CASE[family]]
        assert (held["potential"], held["radius"], held["mass"], held["depth"]) == (
            family, _FAMILIES[family][1], 1.0, 1.0)
        ref = np.array([held["values"][q]["richardson"] for q in ("mu0", "a", "b")])
        x200 = doubling_sequence[family][0]
        assert np.all(np.abs(x200 - ref) / np.abs(ref) < 1e-7)
