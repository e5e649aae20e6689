"""Special functions: K0/K1 from scratch, weighted integrals, 3F2."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from herbst.specfun import (EvaluationFailure, Tolerance, bessel_k, f1_moment,
                            hyp3f2_neg, k0, k0_moment_full,
                            k0_weighted_integral, k1)


def _k0_integral_repr(x):
    # K0(x) = int_0^inf exp(-x cosh t) dt
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, 40.0,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def _k1_integral_repr(x):
    # K1(x) = int_0^inf exp(-x cosh t) cosh t dt
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                  0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


class TestBesselK:
    def test_k0_against_integral_representation(self):
        xs = np.geomspace(0.01, 40.0, 25)
        ours = bessel_k(0, xs)
        ref = np.array([_k0_integral_repr(float(x)) for x in xs])
        assert_allclose(ours, ref, rtol=1e-12)

    def test_k1_against_integral_representation(self):
        xs = np.geomspace(0.01, 40.0, 25)
        ours = bessel_k(1, xs)
        ref = np.array([_k1_integral_repr(float(x)) for x in xs])
        assert_allclose(ours, ref, rtol=1e-12)

    def test_series_asymptotic_crossover_is_smooth(self):
        # both branches should agree to near machine precision at the switch
        below = bessel_k(0, 2.0 - 1e-9)
        above = bessel_k(0, 2.0 + 1e-9)
        assert abs(below - above) / below < 1e-8

    def test_scalar_and_array_agree(self):
        xs = np.array([0.3, 1.0, 5.0])
        arr = bessel_k(0, xs)
        scalars = [bessel_k(0, float(x)) for x in xs]
        assert_allclose(arr, scalars, rtol=0.0, atol=0.0)
        assert isinstance(bessel_k(0, 1.0), float)

    def test_wronskian_like_recurrence(self):
        # K1'(x) = -K0(x) - K1(x)/x, checked by central differences
        x, h = 1.5, 1e-6
        deriv = (bessel_k(1, x + h) - bessel_k(1, x - h)) / (2.0 * h)
        expected = -bessel_k(0, x) - bessel_k(1, x) / x
        assert_allclose(deriv, expected, rtol=1e-8)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_and_decreasing(self, x):
        v = bessel_k(0, x)
        assert v > 0.0
        assert bessel_k(0, 1.05 * x) < v

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_k1_dominates_k0(self, x):
        assert bessel_k(1, x) > bessel_k(0, x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_k(2, 1.0)
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0, -1.0)


class TestCompiledK:
    """k0/k1, the library's fast path, against the from-scratch oracle."""

    @pytest.mark.parametrize("order, fast", [(0, k0), (1, k1)])
    def test_agrees_with_bessel_k(self, order, fast):
        xs = np.geomspace(1e-3, 700.0, 400)
        assert_allclose(fast(xs), bessel_k(order, xs), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("fast", [k0, k1])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.array([0.5, 0.0]),
                                     np.array([[1.0], [-2.0]])])
    def test_rejects_nonpositive_arguments(self, fast, bad):
        with pytest.raises(ValueError):
            fast(bad)

    @pytest.mark.parametrize("fast", [k0, k1])
    def test_scalar_gives_float_and_array_gives_array(self, fast):
        assert type(fast(1.5)) is float
        assert type(fast(np.float64(1.5))) is float
        arr = fast(np.array([0.5, 1.5]))
        assert isinstance(arr, np.ndarray) and arr.shape == (2,)


class TestMoments:
    def test_k0_total_moment_is_pi_over_2(self):
        assert_allclose(k0_moment_full(0), math.pi / 2.0, rtol=1e-15)

    @pytest.mark.parametrize("beta", [0, 1, 2])
    def test_closed_form_matches_quadrature(self, beta):
        oracle, _ = quad(lambda z: z**beta * bessel_k(0, z), 0.0, np.inf,
                         epsabs=1e-14, epsrel=1e-12, limit=200)
        assert_allclose(k0_moment_full(beta), oracle, rtol=1e-10)

    def test_rejects_unknown_beta(self):
        with pytest.raises(ValueError):
            k0_moment_full(3)

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.75, 0.95])
    def test_f1_moment_matches_quadrature(self, mu):
        oracle, _ = quad(lambda z: math.cosh(mu * z) * bessel_k(0, z),
                         0.0, 650.0, epsabs=1e-14, epsrel=1e-12, limit=400)
        assert_allclose(f1_moment(mu), oracle, rtol=1e-10)

    def test_f1_moment_rejects_divergent_argument(self):
        with pytest.raises(ValueError):
            f1_moment(1.0)


class TestWeightedIntegrals:
    def test_incomplete_plus_tail_is_full_moment(self):
        x = 0.8
        inc = k0_weighted_integral("incomplete_plain", x, beta=1)
        tail = k0_weighted_integral("tail_zk0", x)
        assert_allclose(inc + tail, k0_moment_full(1), rtol=1e-10)

    def test_incomplete_cosh_reduces_to_plain_at_zero_weight(self):
        a = k0_weighted_integral("incomplete_cosh", 1.3, mu_over_m=0.0)
        b = k0_weighted_integral("incomplete_plain", 1.3, beta=0)
        assert_allclose(a, b, rtol=1e-12)

    def test_tail_exp_at_zero_weight_completes_pi_over_2(self):
        x = 0.6
        inc = k0_weighted_integral("incomplete_plain", x, beta=0)
        tail = k0_weighted_integral("tail_exp", x, mu_over_m=0.0)
        assert_allclose(inc + tail, math.pi / 2.0, rtol=1e-10)

    def test_tail_k1_over_z_matches_direct_quadrature(self):
        x = 0.5
        ours = k0_weighted_integral("tail_k1_over_z", x)
        oracle, _ = quad(lambda z: bessel_k(1, z) / z, x, np.inf,
                         epsabs=1e-14, epsrel=1e-12, limit=200)
        assert_allclose(ours, oracle, rtol=1e-10)

    def test_monotone_decreasing_tail(self):
        vals = [k0_weighted_integral("tail_zk0", x) for x in (0.1, 0.5, 2.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            k0_weighted_integral("nope", 1.0)
        with pytest.raises(ValueError):
            k0_weighted_integral("incomplete_plain", -1.0)
        with pytest.raises(ValueError):
            k0_weighted_integral("tail_exp", 1.0, mu_over_m=1.0)
        with pytest.raises(ValueError):
            k0_weighted_integral("tail_k1_over_z", 0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_quadrature_raises_with_estimate_and_bound(self):
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1)
        with pytest.raises(EvaluationFailure, match="estimate .* > bound"):
            k0_weighted_integral("incomplete_plain", 3.0, beta=0, tol=tight)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(max_subdivisions=0)


class TestHyp3f2:
    def test_trivial_unit_argument(self):
        assert hyp3f2_neg(1.0, 1.0, 1.0, 2.0, 2.0, 0.0) == 1.0

    @pytest.mark.parametrize("w", [0.1, 0.5, 0.8, 1.5, 6.0])
    def test_against_mpmath(self, w):
        params = (0.75, 1.25, 1.5, 2.0, 2.5)
        ours = hyp3f2_neg(*params, w)
        with mpmath.workdps(30):
            ref = float(mpmath.hyper(list(params[:3]), list(params[3:]), -w * w))
        assert_allclose(ours, ref, rtol=1e-12)

    def test_series_and_continuation_agree_in_overlap(self):
        # straddle the strategy switch with nearby arguments
        params = (0.5, 1.0, 2.5, 1.5, 3.0)
        w_lo, w_hi = 0.84, 0.86  # w^2 just below / above 0.72
        v_lo = hyp3f2_neg(*params, w_lo)
        v_hi = hyp3f2_neg(*params, w_hi)
        with mpmath.workdps(30):
            r_lo = float(mpmath.hyper([0.5, 1.0, 2.5], [1.5, 3.0], -w_lo**2))
            r_hi = float(mpmath.hyper([0.5, 1.0, 2.5], [1.5, 3.0], -w_hi**2))
        assert_allclose([v_lo, v_hi], [r_lo, r_hi], rtol=1e-11)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hyp3f2_neg(1.0, 1.0, 1.0, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            hyp3f2_neg(1.0, 1.0, 1.0, 2.0, 2.0, -1.0)
