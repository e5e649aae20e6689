"""Threshold expansion, inversion branches, and zero-energy diagnostics."""

import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from herbst import cli, spectral, threshold
from herbst.fourierb import b_hat
from herbst.kernel import PhysParams, _tail
from herbst.specfun import EvaluationFailure, QuadratureError, k0_weighted_integral, k1
from herbst.spectral import (QuadGrid, _reference_rule,
                             bump_potential,
                             leading_eigenpair, s_wave_reduce,
                             square_well_potential,
                             truncated_gaussian_potential)
from herbst.threshold import (BelowThresholdError, BRoutes,
                              DivergentMomentumIntegralError,
                              ThresholdExpansion, _b_direct, coefficient_a,
                              coefficient_b, energy_of_lambda,
                              expansion_from_state, lambda_of_alpha,
                              overlap_integral, small_x_constants,
                              synthetic_zero_overlap_state,
                              tune_zero_overlap, u_reconstruct,
                              zero_energy_condition)

from conftest import dense_matrix


@pytest.fixture(scope="module")
def bump_matrix(bump, grid200):
    return s_wave_reduce(bump, PhysParams(m=1.0, E=0.0), grid200)


def _mixed_state(state, mat, eps):
    """``state`` plus eps times the unit overlap direction, renormalized;
    mu0 is the Rayleigh quotient of the mixed trial state."""
    r, w = state.grid.nodes, state.grid.weights
    u = np.sqrt(4.0 * math.pi * w) * r * np.sqrt(-state.potential(r))
    v = state.vector + eps * u / np.linalg.norm(u)
    v /= np.linalg.norm(v)
    return replace(state, mu0=float(v @ mat.apply(v)), vector=v)


_FAMILIES = {"bump": (bump_potential, 1.0),
             "gauss": (truncated_gaussian_potential, 1.0),
             "well": (square_well_potential, 3.0)}


# mu0, a and b of the default CLI configuration (n = 200, depth 1, R = 1,
# m = 1) and of the well at R = 3, m = 2.5: a change that moves them beyond
# rounding changes the numerics, and must restate them and say so
_PINNED = {
    ("bump", 1.0, 1.0): (0.48581358634513183, -0.25050649207829995, -0.1299958683695322),
    ("gauss", 1.0, 1.0): (0.27590055176418304, -0.10549682515664015, -0.07711782261978851),
    ("well", 1.0, 1.0): (0.9137422442361052, -0.6703676008576589, -0.13811356602004207),
    ("well", 3.0, 2.5): (14.955669142462574, -72.50516600494602, 91.64732478676889),
}


@pytest.mark.parametrize("family, radius, m", list(_PINNED))
def test_default_coefficients_are_pinned(family, radius, m):
    make = _FAMILIES[family][0]
    grid = QuadGrid.gauss_legendre(200, radius)
    res = leading_eigenpair(s_wave_reduce(make(1.0, radius), PhysParams(m=m, E=0.0),
                                          grid))
    exp = expansion_from_state(res)
    assert_allclose((exp.mu0, exp.a, exp.b), _PINNED[(family, radius, m)], rtol=1e-12)


def _eigh_second_order_terms(res, entries):
    """The terms 2m (c o_j o_index)^2 / (mu_index - mu_j), j != index, over
    the full eigendecomposition of ``entries``, with o_j the overlaps of the
    eigenvectors: the sum MINRES gives ``_b_direct`` in one solve."""
    r, w, m = res.grid.nodes, res.grid.weights, res.params.m
    vals, vecs = np.linalg.eigh(entries)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    overlaps = (np.sqrt(4.0 * math.pi * w) * r
                * np.sqrt(-res.potential(r))) @ vecs
    others = np.arange(len(vals)) != res.index
    c = -m / (2.0 * math.pi)
    return 2.0 * m * ((c * overlaps[others] * overlaps[res.index]) ** 2
                      / (vals[res.index] - vals[others]))


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
        assert abs(routes.direct - routes.momentum) / abs(routes.direct) < 1e-6

    def test_unconverged_momentum_route_raises(self, zero_overlap_state, monkeypatch):
        # the rule on panels of width 1/R made 0.1 % heavier: the check
        # against the rule on panels of width 1/(2R) must refuse the estimate
        b = coefficient_b(zero_overlap_state, "momentum")
        rule, radius = threshold._panel_rule, zero_overlap_state.grid.radius

        def wide_rule_off(breaks, width):
            k, w = rule(breaks, width)
            return k, w * (1.001 if width == 1.0 / radius else 1.0)

        monkeypatch.setattr(threshold, "_panel_rule", wide_rule_off)
        with pytest.raises(QuadratureError) as exc:
            coefficient_b(zero_overlap_state, "momentum")
        assert exc.value.estimate == b
        assert exc.value.error_bound == pytest.approx(1e-3 * abs(b), rel=1e-9)

    @pytest.mark.parametrize("width", [0.5, 0.25, 1.0 / 3.0])
    def test_panel_rule_integrates_polynomials_to_degree_31(self, width):
        k, w = threshold._panel_rule((0.0, 1.0, 5.0, 60.0), width)
        assert np.all(np.diff(k) > 0.0) and 0.0 < k[0] and k[-1] < 60.0
        assert k.size == 16 * math.ceil(60.0 / width)
        assert_allclose(w @ k**31, 60.0**32 / 32.0, rtol=1e-13)

    def test_momentum_route_matches_adaptive_quadrature(self, zero_overlap_state):
        # the fixed rule against QUADPACK on the integrand it replaced
        res = zero_overlap_state
        r = res.grid.nodes
        wgt = res.grid.weights * r * threshold._weighted_f(res)

        def integrand(k):
            fhat = (2.0 / k) * np.sum(wgt * np.sin(2.0 * math.pi * k * r))
            return k * k * b_hat(k) * fhat * fhat

        total = sum(scipy.integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-10,
                                         limit=400)[0]
                    for lo, hi in ((0.0, 1.0), (1.0, 5.0), (5.0, 60.0)))
        assert_allclose(coefficient_b(res, "momentum"), 2.0 * total, rtol=1e-12)

    def test_b_direct_matches_reassembled_decomposition(self, state200):
        # the oracle sum from a fresh assembly, not the matrix res carries
        res = state200
        fresh = dense_matrix(s_wave_reduce(res.potential, res.params, res.grid))
        # a trial state (index -1) gets the quadratic-kernel average alone
        b_quadratic = _b_direct(replace(res, index=-1))
        assert_allclose(_b_direct(res),
                        b_quadratic + _eigh_second_order_terms(res, fresh).sum(),
                        rtol=1e-12)

    @pytest.mark.parametrize("family, index", [("bump", 0), ("gauss", 0),
                                               ("well", 0), ("bump", 1)])
    def test_bordered_solve_matches_the_full_decomposition(self, family, index):
        # index 1 makes the projected resolvent system indefinite
        make, radius = _FAMILIES[family]
        res = leading_eigenpair(s_wave_reduce(
            make(1.0, radius), PhysParams(), QuadGrid.gauss_legendre(200, radius)),
            index=index)
        assert not threshold._a_vanishes(coefficient_a(res), res.mu0)
        b_quadratic = _b_direct(replace(res, index=-1))
        assert_allclose(_b_direct(res),
                        b_quadratic
                        + _eigh_second_order_terms(res, dense_matrix(res.matrix)).sum(),
                        rtol=1e-12)

    @given(gaps=st.lists(st.floats(min_value=-9.0, max_value=math.log10(0.3)),
                         min_size=3, max_size=3),
           index=st.integers(min_value=0, max_value=1),
           zeros=st.sampled_from([0, 37]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_minres_sum_matches_the_full_decomposition(self, with_spectrum, gaps,
                                                       index, zeros, seed):
        # the pair is eigh's, so that only the resolvent solve is compared.
        # The term of the nearest neighbour, at distance gap, is conditioned
        # like eps / gap in the oracle and in any backward-stable solve: on
        # 300 draws both differed by at most 6 eps / gap of the absolute terms
        top = 1.0 - np.cumsum([0.0, *10.0 ** np.array(gaps)])
        mat = with_spectrum(top, seed=seed, zeros=zeros)
        vals, vecs = np.linalg.eigh(dense_matrix(mat))
        res = replace(leading_eigenpair(mat, index=index),
                      mu0=float(vals[-1 - index]), vector=vecs[:, -1 - index])
        assume(not threshold._a_vanishes(coefficient_a(res), res.mu0))
        gap = min(abs(top[j] - top[index]) for j in (index - 1, index + 1) if j >= 0)
        terms = _eigh_second_order_terms(res, dense_matrix(mat))
        # with the quadratic form 2m (f, B f) set to 0, b is the second-order
        # sum alone: subtracting the two b values instead rounds at eps |b|,
        # up to 9e-12 of the sum (gaps 0.1, seed 1350, 37 zero rows)
        with mock.patch.object(threshold, "b_form", lambda *args: 0.0):
            second = _b_direct(res) - _b_direct(replace(res, index=-1))
        tol = 1e-12 + 32.0 * np.finfo(float).eps / gap
        assert abs(second - terms.sum()) <= tol * np.abs(terms).sum()

    def test_nearly_singular_resolvent_is_solved_to_its_conditioning(self, with_spectrum):
        # a neighbour 1e-8 below mu0, with the Krylov pair: the sum is within
        # a few eps / gap of the eigh oracle, the conditioning of both (4.8
        # eps / gap here; up to 125 over 300 random draws, whose Krylov and
        # eigh vectors differ by O(eps / gap))
        res = leading_eigenpair(with_spectrum([1.0, 1.0 - 1e-8, 0.5]))
        assert not threshold._a_vanishes(coefficient_a(res), res.mu0)
        terms = _eigh_second_order_terms(res, dense_matrix(res.matrix))
        second = _b_direct(res) - _b_direct(replace(res, index=-1))
        tol = 32.0 * np.finfo(float).eps / 1e-8
        assert abs(second - terms.sum()) <= tol * np.abs(terms).sum()

    def test_unconverged_resolvent_solve_raises_with_its_residual(self, state200,
                                                                  monkeypatch):
        # MINRES cut to two steps does not converge: the solve raises and
        # carries the residual it reached
        solve = scipy.sparse.linalg.minres
        monkeypatch.setattr(scipy.sparse.linalg, "minres", lambda op, rhs, **kwargs:
                            solve(op, rhs, **{**kwargs, "maxiter": 2}))
        with pytest.raises(threshold.ResolventSolveError) as exc:
            _b_direct(state200)
        assert exc.value.residual > 1e-6

    def test_b_near_the_float_ceiling_scales_exactly(self):
        # b is homogeneous of degree one in the depth; at depth 1e300 the
        # resolvent solve runs on the matrix and right-hand side scaled by
        # powers of two, with no overflow in MINRES or in |M|_F
        grid = QuadGrid.gauss_legendre(8, 1.0)
        ratios = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for depth in (1.0, 1e150, 1e300):
                res = leading_eigenpair(s_wave_reduce(bump_potential(depth), PhysParams(), grid))
                ratios.append(expansion_from_state(res).b / depth)
        assert_allclose(ratios[1:], ratios[0], rtol=1e-10)

    def test_expansion_allocates_no_matrix_sized_array(self, bump):
        # b's quadratic form is summed tile by tile and MINRES keeps vectors:
        # at n = 800 an array of n^2 elements would be 5.1 MB
        res = leading_eigenpair(s_wave_reduce(bump, PhysParams(),
                                              QuadGrid.gauss_legendre(800, 1.0)))
        tracemalloc.start()
        try:
            expansion_from_state(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_unknown_route_rejected(self, state200):
        with pytest.raises(ValueError):
            coefficient_b(state200, "sideways")


class TestExpansion:
    def test_invariants(self, state200):
        exp0 = expansion_from_state(state200)
        assert_allclose(exp0.lambda0 * exp0.mu0, 1.0, rtol=1e-14)
        assert exp0.a <= 0.0
        assert exp0.branch == "a_nonzero"

    def test_zero_overlap_state_requires_threshold_energy(self, bump, grid200):
        mat = s_wave_reduce(bump, PhysParams(m=1.0, E=-0.01), grid200)
        with pytest.raises(ValueError, match="E = 0"):
            synthetic_zero_overlap_state(mat)

    def test_zero_overlap_state_lands_on_a_zero_branch(self, zero_overlap_state):
        exp0 = expansion_from_state(zero_overlap_state)
        assert exp0.branch == "a_zero"

    def test_positive_a_rejected(self):
        with pytest.raises(ValueError):
            ThresholdExpansion(mu0=1.0, a=0.1, b=-1.0)


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
        exp0 = ThresholdExpansion(mu0=1.0, a=0.0, b=0.5)
        with pytest.raises(ValueError):
            energy_of_lambda(exp0, 1.1)


class TestThresholdInvariant:
    # mu0 - 1/(1/mu0) is one ulp above zero for this mu0 (the n=200 bump)
    MU0_ULP_ABOVE = 0.48577704645830966

    @pytest.mark.parametrize("a", [-0.1, 0.0])
    def test_energy_zero_at_and_just_below_threshold(self, a):
        mu0 = self.MU0_ULP_ABOVE
        assert mu0 - 1.0 / (1.0 / mu0) > 0.0
        exp0 = ThresholdExpansion(mu0=mu0, a=a, b=-0.05)
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
        exp0 = ThresholdExpansion(mu0=mu0, a=a, b=b)
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
            exp0 = ThresholdExpansion(mu0=rng.uniform(0.01, 10.0),
                                      a=-rng.uniform(0.01, 10.0),
                                      b=-rng.uniform(1e-6, 10.0))
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

    def test_bump_report_keeps_its_bits(self, state200):
        # the overlap does not vanish, so every radius stands far above the
        # rounding floor and the fit runs over all 25, as it always did
        r_far = np.geomspace(5.0, 50.0, 25)
        rep = u_reconstruct(state200, r_far)
        assert (rep.gamma, rep.prefactor, rep.predicted_prefactor) == (
            1.0000391377613451, 0.3456209524638129, 0.34561485711200113)
        assert (rep.u_values[0], rep.u_values[12], rep.u_values[-1]) == (
            0.06913811144370355, 0.02185860285205625, 0.006912297142240022)
        assert rep.gamma == -float(np.polyfit(np.log(r_far),
                                              np.log(np.abs(rep.u_values)), 1)[0])

    def test_tuned_gamma_is_a_measurement(self):
        # a fit out to 50 R took in u past r = 25 R, where it is rounding of
        # the vanishing overlap term, and moved by up to 0.8 with the
        # vector's last bits; the fit above the floor moves by 7e-8 here
        _, tuned = tune_zero_overlap(QuadGrid.gauss_legendre(200, 1.0))
        r_far = np.geomspace(5.0, 50.0, 25)
        gamma = u_reconstruct(tuned, r_far).gamma
        assert 1.9 < gamma < 12.0
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = tuned.vector * (1.0 + 1e-15 * rng.standard_normal(tuned.vector.size))
            assert abs(u_reconstruct(replace(tuned, vector=v), r_far).gamma - gamma) <= 1e-6

    def test_noise_alone_is_no_fit(self, zero_overlap_state):
        with pytest.raises(EvaluationFailure,
                           match=r"^decay fit of u at E = 0, m = 1\.0, R = 1\.0: .* at "
                                 r"0 of 10 radii, and the fit needs 3$"):
            u_reconstruct(zero_overlap_state, np.geomspace(20.0, 50.0, 10))

    def test_radii_must_be_outside_support(self, state200):
        with pytest.raises(ValueError):
            u_reconstruct(state200, [0.5, 5.0])

    def test_requires_threshold_energy(self, bump):
        grid = QuadGrid.gauss_legendre(60, 1.0)
        res = leading_eigenpair(
            s_wave_reduce(bump, PhysParams(m=1.0, E=-0.01), grid))
        with pytest.raises(ValueError):
            u_reconstruct(res, [5.0, 10.0])

    @pytest.mark.parametrize("x", [1.0, 4.0, 20.0, 51.0, 100.0, 200.0])
    def test_far_field_tail_end_matches_mpmath(self, x):
        # T(x) = int_x^inf K1(z)/z dz = K1 + C0 - pi/2, with C0 in its
        # Struve form (DLMF 10.43) at 120 digits, far past the cancellation
        with mpmath.workdps(120):
            xm = mpmath.mpf(x)
            k0, k1 = mpmath.besselk(0, xm), mpmath.besselk(1, xm)
            c0 = mpmath.pi * xm / 2 * (k0 * mpmath.struvel(-1, xm)
                                       + k1 * mpmath.struvel(0, xm))
            ref = float(k1 + c0 - mpmath.pi / 2)
        # the spline passes through its end node
        assert_allclose(threshold._tail_k1_over_z(0.5 * x, x)(x), ref, rtol=1e-13)

    @pytest.mark.parametrize("x", [20.0, 30.0, 40.0, 50.0])
    def test_far_field_tail_keeps_its_digits_inside_the_range(self, x):
        # [4, 51] is the span u_reconstruct needs for R = 1 and radii up to
        # 50 R; the spline passes through its nodes, so take the node next
        # to x.  A forward cumulative subtracted from the end value would
        # lose 3e-8 of T at x = 20, 3e-3 at 30 and every digit at 40
        nodes = np.geomspace(4.0, 51.0, 800)
        x = float(nodes[np.argmin(abs(nodes - x))])
        assert_allclose(threshold._tail_k1_over_z(4.0, 51.0)(x),
                        k0_weighted_integral("tail_k1_over_z", x), rtol=1e-12)

    @pytest.mark.parametrize("radius", [1.0, 3.0])
    def test_far_field_tail_is_scipys_spline_bit_for_bit(self, radius):
        # at the pairs u_reconstruct forms for the zero-energy decay check,
        # T(x) is CubicSpline's value on the same nodes, to the last bit
        r = np.geomspace(5.0 * radius, 50.0 * radius, 25)[:, None]
        rho = QuadGrid.gauss_legendre(200, radius).nodes[None, :]
        hi, lo = r + rho, r - rho
        lo_end, hi_end = float(np.min(lo)) * 0.999, float(np.max(hi)) * 1.001
        grid = np.geomspace(lo_end, hi_end, 800)
        spline = CubicSpline(grid, _tail(lambda z: k1(z) / z, grid))
        t = threshold._tail_k1_over_z(lo_end, hi_end)
        for x in (hi, lo, grid, 0.5 * (grid[1:] + grid[:-1])):
            assert np.array_equal(t(x), spline(x))

    # u at the three nearest of the decay check's 25 radii, 5 R to 6.06 R,
    # for the bump at R = 1 and the well at R = 3 (depth 1, m = 1, n = 200),
    # at 40 digits from the float state and grid:
    #     Q = lambda x: x * (besselk(1, x) + pi * x / 2 * (besselk(0, x)
    #         * struvel(-1, x) + besselk(1, x) * struvel(0, x)) - pi / 2) - besselk(0, x)
    #     u(r) = fsum((2 rho + (Q(r + rho) - Q(r - rho)) / pi) * c) / (mu0 r)
    # summed over the nodes rho, with c = w rho |V|^(1/2) phi: Q = x T - K0
    # is the primitive of T, with C0 in its Struve form (DLMF 10.43)
    _U_NEAR = {1.0: ("bump", ("0.069138111443707699904", "0.062806702792261337372",
                              "0.057057705396129430588")),
               3.0: ("well", ("0.015171302367575860208", "0.013783394799368646879",
                              "0.012522456418976037362"))}

    @pytest.mark.parametrize("radius", list(_U_NEAR))
    def test_far_field_matches_mpmath(self, radius):
        # x T(x) - K0(x) over the spline of T on equal steps was 7.8e-11 off
        # at r = 5 R for R = 1; the primitive of the spline on geometric
        # steps is 6e-14 off there
        family, ref = self._U_NEAR[radius]
        grid = QuadGrid.gauss_legendre(200, radius)
        state = leading_eigenpair(s_wave_reduce(_FAMILIES[family][0](1.0, radius),
                                                PhysParams(), grid))
        rep = u_reconstruct(state, np.geomspace(5.0 * radius, 50.0 * radius, 25))
        assert_allclose(rep.u_values[:3], [float(u) for u in ref], rtol=1e-11)


def test_threshold_path_runs_no_adaptive_quadrature(state200, zero_overlap_state,
                                                    monkeypatch, capsys):
    # at E = 0 every integral has a closed form or a fixed rule: the
    # adaptive quadrature is an oracle only
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature on the E = 0 path")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for command in ("spectrum", "threshold"):
        assert cli.main([command]) == 0
    capsys.readouterr()
    for res in (state200, zero_overlap_state):
        expansion_from_state(res)
        u_reconstruct(res, np.geomspace(5.0, 50.0, 25))
        zero_energy_condition(res, check_decay=True)


def test_threshold_path_runs_no_dense_factorization(monkeypatch, capsys):
    # the eigenpair and b's resolvent sum only multiply by the matrix: no
    # O(n^3) eigensolver or LU is left on the main path
    def refuse(*args, **kwargs):
        raise AssertionError("dense factorization on the main path")

    def refuse_large(original):
        # the k x k Rayleigh-Ritz problem (k <= 32) may be factorized; every
        # grid here has n >= 150
        def guarded(*args, **kwargs):
            if any(max(np.shape(x), default=0) >= 100
                   for x in (*args, *kwargs.values())):
                refuse()
            return original(*args, **kwargs)
        return guarded

    # the Gauss-Legendre rule is built under the gate too, not taken from
    # the cache of an earlier test
    _reference_rule.cache_clear()
    for name in ("eigvalsh", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("eigh", "eigvalsh", "solve", "lu_factor", "cho_factor"):
        monkeypatch.setattr(scipy.linalg, name,
                            refuse_large(getattr(scipy.linalg, name)))
    # the Rayleigh-Ritz solve calls LAPACK dsyevr past scipy.linalg.eigh
    monkeypatch.setattr(spectral, "_syevr", refuse_large(spectral._syevr))
    for command in ("spectrum", "threshold"):
        assert cli.main([command]) == 0
    capsys.readouterr()
    well = square_well_potential(1.0, 3.0)
    res = leading_eigenpair(s_wave_reduce(well, PhysParams(),
                                          QuadGrid.gauss_legendre(200, 3.0)))
    exp0 = expansion_from_state(res)
    assert exp0.branch == "a_nonzero" and math.isfinite(exp0.b)
    _, tuned = tune_zero_overlap(QuadGrid.gauss_legendre(150, 1.0))
    assert expansion_from_state(tuned).branch == "a_zero"


class TestZeroEnergyCondition:
    def test_generic_state_is_resonance(self, state200):
        rep = zero_energy_condition(state200)
        assert not rep.is_eigenvalue
        assert rep.overlap > 0.0

    def test_zero_overlap_state_is_eigenvalue_candidate(self, zero_overlap_state):
        rep = zero_energy_condition(zero_overlap_state, check_decay=True)
        assert rep.is_eigenvalue
        assert rep.decay_gamma is not None and rep.decay_gamma > 1.9

    def test_small_overlap_is_eigenvalue_on_the_a_zero_branch(
            self, zero_overlap_state, bump_matrix):
        state = _mixed_state(zero_overlap_state, bump_matrix, 1e-5)
        assert 1e-5 < overlap_integral(state) < 1.2e-5
        assert expansion_from_state(state).branch == "a_zero"
        assert zero_energy_condition(state).is_eigenvalue

    @given(log_eps=st.floats(min_value=-12.0, max_value=-2.0))
    @settings(max_examples=40, deadline=None)
    def test_verdict_follows_the_branch_label(self, zero_overlap_state,
                                              bump_matrix, log_eps):
        state = _mixed_state(zero_overlap_state, bump_matrix, 10.0**log_eps)
        rep = zero_energy_condition(state)
        assert rep.is_eigenvalue == (expansion_from_state(state).branch == "a_zero")
        assert rep.is_eigenvalue == (abs(coefficient_a(state)) < rep.tol)

    def test_small_x_constants_finite(self, state200):
        c = small_x_constants(state200)
        assert c.a1_finite and c.a2_finite
        assert c.a1 > 0.0 and c.a2 > 0.0
        # a2 against the node-by-node quadrature of int_{m r}^inf K1(z)/z dz
        r, w = state200.grid.nodes, state200.grid.weights
        m = state200.params.m
        vu = state200.mu0 * np.sqrt(-state200.potential(r)) * state200.phi
        tail = [k0_weighted_integral("tail_k1_over_z", float(m * ri)) for ri in r]
        oracle = 4.0 * math.pi * float(np.sum(w * r * vu * np.array(tail)))
        assert_allclose(c.a2, oracle, rtol=1e-9)

    @pytest.mark.parametrize("x", [5.0, 10.0, 20.0, 40.0])
    def test_small_x_tail_matches_mpmath_past_the_switch(self, x):
        # K1 + C0 - pi/2 cancels as T falls: it was 2.2e-11 off at x = 5,
        # 9.7e-7 at 10, and 0.0 at 40, where T = 2.05e-20.  From x = 1 up
        # the far-end sum gives T, here across gaps of up to 20
        xs = [5.0, 10.0, 20.0, 40.0]
        t = threshold._k1_over_z_tail(np.array(xs))[xs.index(x)]
        # C0 in its Struve form (DLMF 10.43), whose terms grow like e^x
        with mpmath.workdps(int(x / 2.3) + 30):
            xm = mpmath.mpf(x)
            k0m, k1m = mpmath.besselk(0, xm), mpmath.besselk(1, xm)
            c0 = mpmath.pi * xm / 2 * (k0m * mpmath.struvel(-1, xm)
                                       + k1m * mpmath.struvel(0, xm))
            ref = float(k1m + c0 - mpmath.pi / 2)
        assert_allclose(t, ref, rtol=1e-12)

    def test_small_x_constants_keep_their_digits_at_large_m_r(self, bump):
        # at m = 40 the nodes reach x = m r = 40, and a2 is the oracle's to
        # 1e-12 where the closed form gave T(40) = 0.0
        grid = QuadGrid.gauss_legendre(60, 1.0)
        state = leading_eigenpair(s_wave_reduce(bump, PhysParams(m=40.0, E=0.0), grid))
        c = small_x_constants(state)
        r, w = grid.nodes, grid.weights
        vu = state.mu0 * np.sqrt(-state.potential(r)) * state.phi
        tail = [k0_weighted_integral("tail_k1_over_z", float(40.0 * ri)) for ri in r]
        oracle = 4.0 * math.pi * float(np.sum(w * r * vu * np.array(tail)))
        assert_allclose(c.a2, oracle, rtol=1e-12)


class TestTunedTwoWell:
    def test_excited_state_overlap_is_driven_to_zero(self, kernel_builds,
                                                     monkeypatch):
        ratios = []  # the depth ratio of each two-well potential built
        solved = []  # the depth ratio of each eigensolve
        well = threshold.two_well_potential

        def recording(depth1, depth2, radius):
            ratios.append(depth2 / depth1)
            return well(depth1, depth2, radius=radius)

        states, held = [], []

        def counting(*args, **kwargs):
            solved.append(ratios[-1])
            held.append(sum(ref() is not None for ref in states))
            res = leading_eigenpair(*args, **kwargs)
            states.append(weakref.ref(res))
            return res

        root_search = []
        brentq = scipy.optimize.brentq

        def bracketing(f, lo, hi, **kwargs):
            root_search.append((len(solved), lo, hi))
            root = brentq(f, lo, hi, **kwargs)
            root_search.append(len(solved))
            return root

        monkeypatch.setattr(threshold, "two_well_potential", recording)
        monkeypatch.setattr(threshold, "leading_eigenpair", counting)
        monkeypatch.setattr(scipy.optimize, "brentq", bracketing)
        grid = QuadGrid.gauss_legendre(150, 1.0)
        pot, res = tune_zero_overlap(grid)
        # every solve of the scan and of the root search shares one kernel
        assert kernel_builds == [150]
        # the scan stops at the first sign change, the 15th of 25 ratios,
        # and its last two solves are the bracket
        (scan, lo, hi), after = root_search
        assert scan == 15
        assert solved[scan - 2:scan] == [lo, hi]
        # brentq's new steps, 6 here, move with the rounding of the
        # objective; it opens on the bracket, whose values the scan has
        assert 1 <= after - scan <= 10
        assert lo not in solved[scan:] and hi not in solved[scan:]
        # the state at the root is one brentq solved: no solve after it
        assert len(solved) == after == 21
        # one state is kept while the next is solved, never two
        assert max(held) == 1
        assert res.index == 1
        assert abs(overlap_integral(res)) < 1e-9
        assert expansion_from_state(res).branch == "a_zero"
        assert pot(0.2) < 0.0 and pot(0.7) < 0.0
        # the state is the index-1 eigenpair of the matrix it carries, with
        # the sign chosen along the scan
        again = leading_eigenpair(res.matrix, index=1, sign_reference=res.vector)
        assert np.array_equal(again.vector, res.vector)

    def test_frees_its_arrays_without_a_collection(self, monkeypatch):
        # brentq keeps the objective in a reference cycle, so with the cycle
        # collector off nothing the objective reaches may outlive the call:
        # not the E = 0 kernel, which only the kernel cache may keep, nor
        # the last state's arrays
        shared = []
        kernel = threshold._shared_kernel

        def recording(grid, p):
            kappa = kernel(grid, p)
            shared.append(weakref.ref(kappa))
            return kappa

        monkeypatch.setattr(threshold, "_shared_kernel", recording)
        grid = QuadGrid.gauss_legendre(150, 1.0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            pot, res = tune_zero_overlap(grid)
            refs = [weakref.ref(res.vector), weakref.ref(res.matrix), *shared]
            del pot, res
            assert len(refs) == 3
            assert refs[2]() is not None and any(k is refs[2]() for k in
                                                 spectral._kernels.values())
            spectral._kernels.clear()
            assert [ref() for ref in refs] == [None] * 3
        finally:
            if enabled:
                gc.enable()
