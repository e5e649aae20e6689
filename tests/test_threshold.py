"""Threshold expansion, inversion branches, and zero-energy diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from herbst.kernel import PhysParams
from herbst.spectral import QuadGrid, leading_eigenpair, s_wave_reduce
from herbst.threshold import (A_ZERO_TOL_REL, BelowThresholdError, BRoutes,
                              DivergentMomentumIntegralError,
                              ThresholdExpansion, _b_direct, coefficient_a,
                              coefficient_b, energy_of_lambda,
                              expansion_from_state, lambda_of_alpha,
                              overlap_integral, small_x_constants,
                              tune_zero_overlap, u_reconstruct,
                              zero_energy_condition)


class TestCoefficients:
    def test_overlap_positive_for_ground_state(self, state200):
        assert overlap_integral(state200) > 0.0

    def test_a_is_minus_overlap_squared(self, state200):
        o = overlap_integral(state200)
        m = state200.params.m
        expected = -(m**1.5 / (math.sqrt(2.0) * math.pi)) * o * o
        assert_allclose(coefficient_a(state200), expected, rtol=1e-14)
        assert coefficient_a(state200) < 0.0

    def test_b_direct_is_negative_here(self, state200):
        assert coefficient_b(state200, "direct") < 0.0

    def test_momentum_route_diverges_off_the_a_zero_branch(self, state200):
        with pytest.raises(DivergentMomentumIntegralError):
            coefficient_b(state200, "momentum")

    def test_both_routes_on_generic_state(self, state200):
        routes = coefficient_b(state200, "both")
        assert isinstance(routes, BRoutes)
        assert routes.momentum is None
        assert_allclose(routes.direct, coefficient_b(state200, "direct"),
                        rtol=1e-12)

    def test_both_routes_agree_on_zero_overlap_state(self, zero_overlap_state):
        routes = coefficient_b(zero_overlap_state, "both")
        assert routes.momentum is not None
        assert abs(routes.direct - routes.momentum) / abs(routes.direct) < 1e-3

    def test_b_direct_matches_reassembled_decomposition(self, state200):
        # the second-order sum over the other eigenpairs, from a fresh
        # assembly and eigensolve instead of the decomposition res carries
        res = state200
        r, w, m = res.grid.nodes, res.grid.weights, res.params.m
        vals, vecs = np.linalg.eigh(
            s_wave_reduce(res.potential, res.params, res.grid).entries)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        overlaps = (np.sqrt(4.0 * math.pi * w) * r
                    * np.sqrt(-res.potential(r))) @ vecs
        c = -m / (2.0 * math.pi)
        pt = np.sum((c * overlaps[1:] * overlaps[0]) ** 2 / (vals[0] - vals[1:]))
        b_quadratic = _b_direct(res, a_zero_tol=np.inf)
        assert_allclose(_b_direct(res), b_quadratic + 2.0 * m * pt, rtol=1e-12)

    def test_unknown_route_rejected(self, state200):
        with pytest.raises(ValueError):
            coefficient_b(state200, "sideways")


class TestExpansion:
    def test_invariants(self, state200):
        exp0 = expansion_from_state(state200)
        assert_allclose(exp0.lambda0 * exp0.mu0, 1.0, rtol=1e-14)
        assert exp0.a <= 0.0
        assert exp0.branch == "a_nonzero"

    def test_zero_overlap_state_lands_on_a_zero_branch(self, zero_overlap_state):
        exp0 = expansion_from_state(zero_overlap_state)
        assert exp0.branch == "a_zero"

    def test_inconsistent_branch_label_rejected(self, state200):
        exp0 = expansion_from_state(state200)
        with pytest.raises(ValueError):
            ThresholdExpansion(mu0=exp0.mu0, lambda0=exp0.lambda0, a=exp0.a,
                               b=exp0.b, branch="a_zero",
                               a_zero_tol=exp0.a_zero_tol)

    def test_positive_a_rejected(self):
        with pytest.raises(ValueError):
            ThresholdExpansion(mu0=1.0, lambda0=1.0, a=0.1, b=-1.0,
                               branch="a_nonzero", a_zero_tol=1e-8)


class TestInversion:
    def test_lambda_of_alpha_at_zero_is_threshold(self, state200):
        exp0 = expansion_from_state(state200)
        assert_allclose(lambda_of_alpha(exp0, 0.0), exp0.lambda0, rtol=1e-14)

    def test_lambda_increases_with_alpha(self, state200):
        exp0 = expansion_from_state(state200)
        lams = [lambda_of_alpha(exp0, a) for a in (0.0, 0.05, 0.1, 0.2)]
        assert all(x < y for x, y in zip(lams, lams[1:]))

    def test_energy_zero_at_threshold(self, state200):
        exp0 = expansion_from_state(state200)
        assert energy_of_lambda(exp0, exp0.lambda0) == 0.0

    def test_energy_negative_and_decreasing_above_threshold(self, state200):
        exp0 = expansion_from_state(state200)
        lams = exp0.lambda0 * (1.0 + np.linspace(0.01, 0.2, 8))
        es = [energy_of_lambda(exp0, float(l)) for l in lams]
        assert all(e < 0.0 for e in es)
        assert all(x > y for x, y in zip(es, es[1:]))

    def test_round_trip_through_the_series(self, state200):
        exp0 = expansion_from_state(state200)
        alpha = 0.05
        lam = lambda_of_alpha(exp0, alpha)
        assert_allclose(energy_of_lambda(exp0, lam), -alpha * alpha,
                        rtol=1e-10)

    def test_below_threshold_raises(self, state200):
        exp0 = expansion_from_state(state200)
        with pytest.raises(BelowThresholdError):
            energy_of_lambda(exp0, 0.9 * exp0.lambda0)

    def test_quadratic_branch_exponent(self, state200):
        exp0 = expansion_from_state(state200)
        deltas = np.geomspace(1e-4, 1e-2, 9)
        es = np.array([-energy_of_lambda(exp0, exp0.lambda0 * (1.0 + d))
                       for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(es), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_linear_branch_exponent(self, zero_overlap_state):
        exp0 = expansion_from_state(zero_overlap_state)
        deltas = np.geomspace(1e-4, 1e-2, 9)
        es = np.array([-energy_of_lambda(exp0, exp0.lambda0 * (1.0 + d))
                       for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(es), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_a_zero_branch_requires_negative_b(self):
        exp0 = ThresholdExpansion(mu0=1.0, lambda0=1.0, a=0.0, b=0.5,
                                  branch="a_zero", a_zero_tol=1e-8)
        with pytest.raises(ValueError):
            energy_of_lambda(exp0, 1.1)


def _expansion(mu0, a, b):
    """A ThresholdExpansion built from its coefficients, branch as assigned
    by expansion_from_state."""
    tol = A_ZERO_TOL_REL * mu0
    branch = "a_zero" if abs(a) < tol else "a_nonzero"
    return ThresholdExpansion(mu0=mu0, lambda0=1.0 / mu0, a=a, b=b,
                              branch=branch, a_zero_tol=tol)


class TestThresholdInvariant:
    # mu0 - 1/(1/mu0) is one ulp above zero for this mu0 (the n=200 bump)
    MU0_ULP_ABOVE = 0.48577704645830966

    @pytest.mark.parametrize("a", [-0.1, 0.0])
    def test_energy_zero_at_and_just_below_threshold(self, a):
        mu0 = self.MU0_ULP_ABOVE
        assert mu0 - 1.0 / (1.0 / mu0) > 0.0
        exp0 = _expansion(mu0, a, -0.05)
        assert exp0.branch == ("a_zero" if a == 0.0 else "a_nonzero")
        assert energy_of_lambda(exp0, exp0.lambda0) == 0.0
        assert energy_of_lambda(exp0, exp0.lambda0 * (1.0 - 1e-15)) == 0.0

    @given(mu0=st.floats(min_value=1e-3, max_value=1e3),
           a=st.floats(min_value=-1e3, max_value=0.0),
           b=st.floats(min_value=-1e3, max_value=-1e-6),
           ts=st.lists(st.floats(min_value=-1e-14, max_value=10.0),
                       min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_energy_vanishes_at_threshold_and_falls_above(self, mu0, a, b, ts):
        exp0 = _expansion(mu0, a, b)
        assert energy_of_lambda(exp0, exp0.lambda0) == 0.0
        lo, hi = sorted(exp0.lambda0 * (1.0 + t) for t in ts)
        e_lo, e_hi = energy_of_lambda(exp0, lo), energy_of_lambda(exp0, hi)
        assert e_lo <= 0.0 and e_hi <= 0.0
        assert e_hi <= e_lo

    def test_energy_monotone_over_one_ulp_steps(self):
        # a rounded inversion can turn back over a one-ulp step in lambda;
        # well above threshold delta_mu then moves by about one ulp too
        rng = np.random.default_rng(7)
        for _ in range(5000):
            exp0 = _expansion(rng.uniform(0.01, 10.0), -rng.uniform(0.01, 10.0),
                              -rng.uniform(1e-6, 10.0))
            lam = exp0.lambda0 * (1.0 + rng.uniform(0.2, 10.0))
            e_lo = energy_of_lambda(exp0, lam)
            assert energy_of_lambda(exp0, np.nextafter(lam, np.inf)) <= e_lo


class TestDecay:
    def test_resonance_decays_like_one_over_r(self, state200):
        rep = u_reconstruct(state200, np.geomspace(5.0, 50.0, 25))
        assert abs(rep.gamma - 1.0) < 0.05
        assert_allclose(rep.prefactor, rep.predicted_prefactor, rtol=1e-2)

    def test_zero_overlap_state_decays_faster(self, zero_overlap_state):
        rep = u_reconstruct(zero_overlap_state, np.geomspace(5.0, 50.0, 25))
        assert rep.gamma > 1.9

    def test_radii_must_be_outside_support(self, state200):
        with pytest.raises(ValueError):
            u_reconstruct(state200, [0.5, 5.0])

    def test_requires_threshold_energy(self, bump):
        grid = QuadGrid.gauss_legendre(60, 1.0)
        res = leading_eigenpair(
            s_wave_reduce(bump, PhysParams(m=1.0, E=-0.01), grid))
        with pytest.raises(ValueError):
            u_reconstruct(res, [5.0, 10.0])


class TestZeroEnergyCondition:
    def test_generic_state_is_resonance(self, state200):
        rep = zero_energy_condition(state200)
        assert not rep.is_eigenvalue
        assert rep.overlap > 0.0

    def test_zero_overlap_state_is_eigenvalue_candidate(self, zero_overlap_state):
        rep = zero_energy_condition(zero_overlap_state, check_decay=True)
        assert rep.is_eigenvalue
        assert rep.decay_gamma is not None and rep.decay_gamma > 1.9

    def test_small_x_constants_finite(self, state200):
        c = small_x_constants(state200)
        assert c.a1_finite and c.a2_finite
        assert c.a1 > 0.0 and c.a2 > 0.0


class TestTunedTwoWell:
    def test_excited_state_overlap_is_driven_to_zero(self):
        grid = QuadGrid.gauss_legendre(150, 1.0)
        pot, res = tune_zero_overlap(grid)
        assert res.index == 1
        assert abs(overlap_integral(res)) < 1e-9
        assert expansion_from_state(res).branch == "a_zero"
        assert pot(0.2) < 0.0 and pot(0.7) < 0.0
        assert pot.family_id == "two_well"
        # the sign chosen along the scan is the sign of the stored column
        assert np.array_equal(res.vector, res.eigvecs[:, res.index])
