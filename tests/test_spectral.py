"""Potentials, quadrature grids, Nystrom assembly, and eigenpairs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from herbst.kernel import GreenKernelTable, PhysParams, green_function
from herbst.spectral import (DegenerateEigenvalueError, QuadGrid,
                             RadialPotential, bump_potential,
                             eigen_continuation, leading_eigenpair,
                             s_wave_reduce, square_well_potential,
                             tabulated_potential,
                             truncated_gaussian_potential, two_well_potential)


class TestPotentials:
    def test_bump_is_nonpositive_and_compact(self):
        pot = bump_potential(depth=2.0, radius=1.5)
        r = np.linspace(0.0, 3.0, 50)
        v = pot(r)
        assert np.all(v <= 0.0)
        assert np.all(v[r >= 1.5] == 0.0)
        assert_allclose(pot(0.0), -2.0, rtol=1e-12)

    def test_positive_profile_is_rejected(self):
        with pytest.raises(ValueError):
            RadialPotential(profile=lambda r: np.abs(r), support_radius=1.0,
                            family_id="bad")

    def test_profile_leaking_beyond_support_is_rejected(self):
        with pytest.raises(ValueError):
            RadialPotential(profile=lambda r: -np.ones_like(np.asarray(r)),
                            support_radius=1.0, family_id="bad")

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
        g = QuadGrid.gauss_legendre(16, 1.0)
        with pytest.raises(ValueError):
            QuadGrid(nodes=g.nodes, weights=2.0 * g.weights, _radius_hint=1.0)


class TestAssembly:
    def test_matrix_is_symmetric_and_finite(self):
        mat = s_wave_reduce(bump_potential(), PhysParams(),
                            QuadGrid.gauss_legendre(60, 1.0))
        a = mat.entries
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
        assert_allclose(mat.entries[i, j], expected, rtol=1e-9)

    def test_shared_table_reproduces_default(self):
        pot = bump_potential()
        p = PhysParams()
        grid = QuadGrid.gauss_legendre(30, 1.0)
        table = GreenKernelTable(p, s_max=2.002)
        a = s_wave_reduce(pot, p, grid).entries
        b = s_wave_reduce(pot, p, grid, table=table).entries
        assert_allclose(a, b, rtol=0.0, atol=1e-15)


class TestEigenpairs:
    def test_depth_scaling_is_exact(self, bump, state200, grid200):
        doubled = leading_eigenpair(
            s_wave_reduce(bump.scaled(2.0), PhysParams(), grid200))
        assert_allclose(doubled.lambda0, state200.lambda0 / 2.0, rtol=1e-12)

    def test_grid_convergence(self, bump, state200):
        coarse = leading_eigenpair(
            s_wave_reduce(bump, PhysParams(), QuadGrid.gauss_legendre(100, 1.0)))
        assert abs(coarse.mu0 - state200.mu0) / state200.mu0 < 1e-4

    def test_eigenvector_is_positive_ground_state(self, state200):
        # Perron-Frobenius: the kernel is positivity improving; components
        # may underflow to zero where the mollifier weight is astronomically
        # small near the support edge, but none may go negative
        assert np.all(state200.vector >= 0.0)
        assert np.all(state200.vector[:150] > 0.0)
        assert state200.residual < 1e-12
        assert state200.gap > 0.0

    def test_carries_sorted_decomposition(self, state200):
        assert np.all(np.diff(state200.eigvals) <= 0.0)
        assert state200.eigvals[0] == state200.mu0
        assert np.array_equal(state200.eigvecs[:, 0], state200.vector)

    def test_sign_reference_decides_the_sign(self, bump, grid200, state200):
        mat = s_wave_reduce(bump, PhysParams(), grid200)
        flipped = leading_eigenpair(mat, sign_reference=-state200.vector)
        assert np.array_equal(flipped.vector, -state200.vector)
        assert np.array_equal(flipped.phi, -state200.phi)
        assert np.array_equal(flipped.eigvecs[:, 0], flipped.vector)
        kept = leading_eigenpair(mat, sign_reference=state200.vector)
        assert np.array_equal(kept.vector, state200.vector)

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
        res = leading_eigenpair(
            s_wave_reduce(pot, PhysParams(), QuadGrid.gauss_legendre(20, 1.0)))
        assert res.mu0 == 0.0
        assert res.lambda0 == math.inf

    def test_depth_scaling_for_arbitrary_factor(self, bump, state200, grid200):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(min_value=0.1, max_value=10.0))
        @settings(max_examples=20, deadline=None)
        def check(c):
            # the matrix is linear in the potential, so mu0 scales exactly
            scaled = leading_eigenpair(
                s_wave_reduce(bump.scaled(c), PhysParams(), grid200))
            assert_allclose(scaled.mu0, c * state200.mu0, rtol=1e-11)

        check()

    def test_continuation_is_monotone_decreasing(self, bump):
        grid = QuadGrid.gauss_legendre(80, 1.0)
        pts = eigen_continuation(bump, grid, [0.0, 0.05, 0.1, 0.15])
        mus = [mu for _, mu in pts]
        assert all(a > b for a, b in zip(mus, mus[1:]))
