"""Adaptive quadrature and the oscillatory 3-D radial Fourier transform."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from herbst import quad
from herbst.quad import (QuadratureError, RadialFunction, integrate_adaptive,
                         radial_fourier3)
from herbst.specfun import checked_quad


def _per_panel_transform(f, k):
    """radial_fourier3 with each half period's Gauss-Legendre panel a call
    of f of its own, and the 96-term retry from scratch."""
    h = 1.0 / (2.0 * k)
    for n in (48, 96):
        terms = np.empty(n)
        terms[0] = checked_quad(lambda r: float(f(r)) * r * np.sin(2.0 * np.pi * k * r),
                                0.0, h, abs_tol=1e-14, rel_tol=1e-12)
        for j in range(1, n):
            r = j * h + 0.5 * h * (quad._GLX + 1.0)
            integrand = r * np.asarray(f(r), dtype=float) * np.sin(2.0 * np.pi * k * r)
            terms[j] = 0.5 * h * (quad._GLW * integrand).sum()
        best, spread = quad._euler_abel_sum(terms)
        if spread <= 10.0 * max(1e-12, 1e-10 * abs(best)):
            return (2.0 / k) * best
    raise AssertionError("no convergence")


class TestIntegrateAdaptive:
    def test_gaussian_over_real_line_half(self):
        val = integrate_adaptive(lambda x: np.exp(-x * x), 0.0, np.inf)
        assert_allclose(val, math.sqrt(math.pi) / 2.0, rtol=1e-12)

    def test_finite_interval_polynomial(self):
        val = integrate_adaptive(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert_allclose(val, 8.0, rtol=1e-13)

    def test_integrable_endpoint_singularity(self):
        val = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert_allclose(val, 2.0, rtol=1e-10)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:The integral is probably divergent")
    def test_divergent_integral_raises_with_diagnostics(self):
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(lambda x: 1.0 / (x + 1e-300), 0.0, 1.0)
        assert exc.value.error_bound > 0.0

    def test_additivity_over_subintervals(self):
        f = lambda x: np.sin(x) * np.exp(-x)
        whole = integrate_adaptive(f, 0.0, 5.0)
        parts = integrate_adaptive(f, 0.0, 2.0) + integrate_adaptive(f, 2.0, 5.0)
        assert_allclose(whole, parts, rtol=1e-12)


class TestRadialFunction:
    def test_callable_passthrough(self):
        rf = RadialFunction(eval=lambda r: 2.0 * r)
        assert rf(1.5) == 3.0


class TestRadialFourier3:
    def test_gaussian_transform(self):
        # exp(-pi r^2) is its own 3-D transform: exp(-pi k^2)
        prof = RadialFunction(eval=lambda r: np.exp(-math.pi * r * r))
        for k in (0.3, 1.0, 1.7):
            assert_allclose(radial_fourier3(prof, k), math.exp(-math.pi * k * k),
                            rtol=1e-8)

    def test_yukawa_transform(self):
        # exp(-a r)/r -> 4 pi / (4 pi^2 k^2 + a^2)
        a = 1.3
        prof = RadialFunction(eval=lambda r: np.exp(-a * r) / r)
        for k in (0.2, 0.9, 3.0):
            expected = 4.0 * math.pi / (4.0 * math.pi**2 * k * k + a * a)
            assert_allclose(radial_fourier3(prof, k), expected, rtol=1e-8)

    def test_tempered_power_law_tail(self):
        # exp(-r)*r has transform 8 pi (3 - 4 pi^2 k^2) / (1 + 4 pi^2 k^2)^3
        prof = RadialFunction(eval=lambda r: r * np.exp(-r))
        k = 0.4
        w2 = 4.0 * math.pi**2 * k * k
        expected = 8.0 * math.pi * (3.0 - w2) / (1.0 + w2) ** 3
        assert_allclose(radial_fourier3(prof, k), expected, rtol=1e-8)

    def test_plain_callable_accepted(self):
        val = radial_fourier3(lambda r: np.exp(-math.pi * r * r), 1.0)
        assert_allclose(val, math.exp(-math.pi), rtol=1e-8)

    def test_unconverged_first_half_period_raises(self, unconverged_quad):
        prof = RadialFunction(eval=lambda r: np.exp(-r))
        with pytest.raises(QuadratureError) as exc:
            radial_fourier3(prof, 1.0)
        assert exc.value.estimate == 1.0
        assert exc.value.error_bound == 1e-3

    @pytest.mark.parametrize("profile, k, attempts", [
        (lambda r: np.exp(-math.pi * r * r), 1.0, 1),
        (lambda r: r * np.exp(-r), 0.4, 1),
        # a slowly decaying oscillation: the sum needs the retry at 96 terms
        (lambda r: np.cos(3.0 * r) / (1.0 + r), 1.0, 2),
    ])
    def test_one_call_of_f_per_attempt_and_the_same_bits(self, profile, k, attempts):
        arrays = []

        def counted(r):
            if np.ndim(r):
                arrays.append(np.shape(r))
            return profile(r)

        assert radial_fourier3(counted, k) == _per_panel_transform(profile, k)
        # the nodes of the 47 half periods past the first, then of the 48 more
        assert arrays == [(47 * 32,), (48 * 32,)][:attempts]

    def test_rejects_nonpositive_wavenumber(self):
        prof = RadialFunction(eval=lambda r: np.exp(-r))
        with pytest.raises(ValueError):
            radial_fourier3(prof, 0.0)
