"""Closed-form Bochner transforms and the momentum-space quadratic kernel."""

import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from herbst.fourierb import HankelParams, b_hat, hankel_incomplete, hankel_tail
from herbst.kernel import b_profile_grid
from herbst.quad import RadialFunction, radial_fourier3


class TestHankelParams:
    def test_rejects_out_of_scope_exponents(self):
        with pytest.raises(ValueError):
            HankelParams(alpha_exp=2, beta_exp=0)
        with pytest.raises(ValueError):
            HankelParams(alpha_exp=0, beta_exp=3)


class TestClosedForms:
    @pytest.mark.parametrize("w", [0.1, 0.7, 2.0, 10.0])
    def test_incomplete_alpha1_beta0(self, w):
        # (1/2k^2) (1 + w^2)^(-1/2) with w = 2 pi k
        k = w / (2.0 * math.pi)
        expected = 0.5 / (k * k * math.sqrt(1.0 + w * w))
        assert_allclose(hankel_incomplete(HankelParams(1, 0), k), expected,
                        rtol=1e-10)

    @pytest.mark.parametrize("w", [0.1, 0.7, 2.0, 10.0])
    def test_tail_alpha0_beta1(self, w):
        # (3/4 pi) w^3 k^-3 (1 + w^2)^(-5/2)
        k = w / (2.0 * math.pi)
        expected = (3.0 / (4.0 * math.pi)) * w**3 / (k**3 * (1.0 + w * w)**2.5)
        assert_allclose(hankel_tail(HankelParams(0, 1), k), expected,
                        rtol=1e-10)

    def test_tail_transform_against_quadrature_oracle(self):
        hp = HankelParams(0, 1)
        for k in (0.2, 0.5, 1.5):
            oracle = radial_fourier3(RadialFunction(_tail_profile), k)
            assert_allclose(hankel_tail(hp, k), oracle, rtol=1e-5)

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            hankel_incomplete(HankelParams(1, 0), 0.0)
        with pytest.raises(ValueError):
            hankel_tail(HankelParams(0, 1), -1.0)


def _tail_profile(r):
    # int_|x|^inf z K0(z) dz = |x| K1(|x|)
    return r * scipy.special.k1(r)


class TestBHat:
    def test_matches_radial_transform_of_profile(self):
        sigmas = np.geomspace(0.08, 2.0, 5)
        for s in sigmas:
            oracle = radial_fourier3(RadialFunction(b_profile_grid), float(s))
            assert_allclose(b_hat(float(s)), oracle, rtol=1e-5)

    def test_strictly_negative(self):
        s = np.geomspace(1e-3, 1e3, 1000)
        assert np.all(b_hat(s) < 0.0)

    @pytest.mark.parametrize("sigma", [1e-2, 1e-3])
    def test_small_sigma_asymptote(self, sigma):
        asym = -1.0 / (math.pi * sigma**2) - 1.0 / (2.0 * math.pi**3 * sigma**4)
        assert_allclose(b_hat(sigma), asym, rtol=1e-3)

    def test_large_sigma_decay(self):
        # dominated by the 1/(pi sigma^2 sqrt(1+w^2)) ~ 1/(2 pi^2 sigma^3) term
        s = 1e3
        assert abs(b_hat(s)) < 1e-6

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            b_hat(0.0)
