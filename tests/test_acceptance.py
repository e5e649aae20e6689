"""Acceptance gate: the ten headline reproduction criteria.

Each test prints one summary line with the measured figure of merit and the
tolerance it must meet, so a plain ``pytest -v tests/test_acceptance.py``
doubles as the acceptance report.
"""

import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.integrate import quad

from herbst.cli import _green_flipped, _momentum_symbol
from herbst.fourierb import HankelParams, b_hat, hankel_incomplete, hankel_tail
from herbst.kernel import (H3_ROOT_REFERENCE, PhysParams, b_profile_grid,
                           envelope_holds, green_function, h3_root,
                           series_remainder)
from herbst.quad import RadialFunction, radial_fourier3
from herbst.specfun import bessel_k, f1_moment, k0_moment_full
from herbst.spectral import QuadGrid, eigen_continuation, leading_eigenpair, s_wave_reduce
from herbst.threshold import (coefficient_a, coefficient_b, energy_of_lambda,
                              expansion_from_state, u_reconstruct)


def _report(num, name, value, requirement):
    print(f"[PRIMARY {num}] {name}: {value:.3e} (must be {requirement})")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_transcendental_root():
    root = h3_root()
    err = abs(root - 0.7451315)
    _report(1, "transcendental root abs error", err, "< 1e-6")
    assert err < 1e-6


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_moment_identities():
    oracle, _ = quad(lambda z: bessel_k(0, z), 0.0, np.inf,
                     epsabs=1e-14, epsrel=1e-12, limit=200)
    worst = abs(k0_moment_full(0) - oracle) / oracle
    for mu in [0.1 * i for i in range(10)] + [0.95]:
        val, _ = quad(lambda z: math.cosh(mu * z) * bessel_k(0, z),
                      0.0, 650.0, epsabs=1e-14, epsrel=1e-12, limit=400)
        worst = max(worst, abs(f1_moment(mu) - val) / val)
    _report(2, "moment identities worst rel error", worst, "< 1e-8")
    assert worst < 1e-8


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_green_function_vs_transform_oracle():
    radii = np.geomspace(0.05, 6.0, 30)
    worst_plain = worst_flipped = 0.0
    for mu in (0.0, 0.3, 0.8):
        p = PhysParams.from_mu(mu, 1.0)
        symbol = _momentum_symbol(p)
        for r, g in zip(radii, green_function(radii, p)):
            oracle = radial_fourier3(symbol, float(r))
            worst_plain = max(worst_plain, abs(g - oracle) / abs(oracle))
            worst_flipped = max(worst_flipped,
                                abs(_green_flipped(float(r), p, g) - oracle)
                                / abs(oracle))
    _report(3, "kernel vs oracle worst rel error", worst_plain, "< 1e-6")
    print("[PRIMARY 3] winning sign: minus sinh tail "
          f"(flipped-sign deviation {worst_flipped:.3e})")
    assert worst_plain < 1e-6
    # exactly one sign candidate survives
    assert worst_flipped > 1e-3


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_bochner_special_cases():
    def incomplete_over_r(r):
        return scipy.special.iti0k0(r)[1] / r

    def tail_zk0(r):
        # int_r^inf z K0(z) dz = r K1(r)
        return r * scipy.special.k1(r)

    worst = 0.0
    for w in np.geomspace(0.1, 10.0, 8):
        k = w / (2.0 * math.pi)
        v1 = hankel_incomplete(HankelParams(1, 0), k)
        o1 = radial_fourier3(RadialFunction(incomplete_over_r), k)
        v2 = hankel_tail(HankelParams(0, 1), k)
        o2 = radial_fourier3(RadialFunction(tail_zk0), k)
        worst = max(worst, abs(v1 - o1) / abs(o1), abs(v2 - o2) / abs(o2))
        # closed forms: (1/2k^2)(1+w^2)^(-1/2) and (3/4 pi) w^3 k^-3 (1+w^2)^(-5/2)
        assert_allclose(v1, 0.5 / (k * k * math.sqrt(1.0 + w * w)), rtol=1e-10)
        assert_allclose(
            v2, (3.0 / (4.0 * math.pi)) * w**3 / (k**3 * (1.0 + w * w)**2.5),
            rtol=1e-10)
    _report(4, "Bochner special cases worst rel error vs oracle", worst, "< 1e-5")
    assert worst < 1e-5


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_momentum_space_quadratic_kernel():
    prof = RadialFunction(b_profile_grid)
    worst = 0.0
    for s in np.geomspace(0.05, 3.0, 7):
        oracle = radial_fourier3(prof, float(s))
        worst = max(worst, abs(b_hat(float(s)) - oracle) / abs(oracle))
    _report(5, "b_hat vs transform worst rel error", worst, "< 1e-5")
    assert worst < 1e-5

    grid = np.geomspace(1e-3, 1e3, 1000)
    assert np.all(b_hat(grid) < 0.0)
    print("[PRIMARY 5] strictly negative on 1000-point log grid: yes")

    for s, rtol in ((1e-2, 1e-5), (1e-3, 1e-8)):
        asym = -1.0 / (math.pi * s * s) - 1.0 / (2.0 * math.pi**3 * s**4)
        assert_allclose(b_hat(s), asym, rtol=rtol)
    print("[PRIMARY 5] small-sigma asymptote holds at 1e-2, 1e-3")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_series_truncation_order():
    alphas = np.geomspace(0.005, 0.04, 7)
    worst = 0.0
    for r in np.linspace(0.1, 1.6, 10):
        rem = np.array([series_remainder(float(r), float(a)) for a in alphas])
        slope = float(np.polyfit(np.log(alphas), np.log(rem), 1)[0])
        worst = max(worst, abs(slope - 3.0))
    _report(6, "remainder exponent worst |slope - 3|", worst, "< 0.3")
    assert worst < 0.3


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_expansion_vs_brute_force(bump, grid200, state200,
                                              zero_overlap_state):
    a = coefficient_a(state200)
    b = coefficient_b(state200, "direct")
    alphas = [0.0, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.025, 0.03]
    pts = eigen_continuation(bump, grid200, alphas)
    coeffs = np.polyfit(np.asarray(alphas),
                        np.array([mu for _, mu in pts]), 4)
    slope, half_curv = float(coeffs[-2]), float(coeffs[-3])
    rel_a = abs(a - slope) / abs(a)
    rel_b = abs(b - half_curv) / abs(b)
    _report(7, "coefficient a vs d(mu)/d(alpha) rel error", rel_a, "< 1e-6")
    _report(7, "coefficient b vs half curvature rel error", rel_b, "< 1e-4")
    assert rel_a < 1e-6
    assert rel_b < 1e-4

    # dual-route agreement is defined on the a = 0 branch, where the
    # momentum integral converges
    routes = coefficient_b(zero_overlap_state, "both")
    rel = abs(routes.direct - routes.momentum) / abs(routes.direct)
    _report(7, "dual-route b rel disagreement", rel, "< 1e-6")
    assert rel < 1e-6


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_branch_dichotomy(state200, zero_overlap_state):
    deltas = np.geomspace(3e-4, 3e-2, 12)
    slopes = {}
    for label, state in (("a_nonzero", state200),
                         ("a_zero", zero_overlap_state)):
        exp0 = expansion_from_state(state)
        assert energy_of_lambda(exp0, exp0.lambda0) == 0.0
        es = np.array([energy_of_lambda(exp0, exp0.lambda0 * (1.0 + d))
                       for d in deltas])
        assert np.all(es < 0.0)
        slopes[label] = float(np.polyfit(np.log(deltas), np.log(-es), 1)[0])
    _report(8, "generic branch |E| exponent", slopes["a_nonzero"], "2 +- 0.2")
    _report(8, "a = 0 branch |E| exponent", slopes["a_zero"], "1 +- 0.2")
    assert abs(slopes["a_nonzero"] - 2.0) < 0.2
    assert abs(slopes["a_zero"] - 1.0) < 0.2


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_exact_coupling_scaling(bump, grid200, state200):
    worst = 0.0
    for c in (0.5, 2.0):
        scaled = leading_eigenpair(
            s_wave_reduce(bump.scaled(c), PhysParams(), grid200))
        worst = max(worst,
                    abs(scaled.lambda0 - state200.lambda0 / c)
                    / (state200.lambda0 / c))
    _report(9, "lambda0(cV) = lambda0(V)/c worst rel error", worst, "< 1e-10")
    assert worst < 1e-10


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_decay_dichotomy(state200, zero_overlap_state):
    r_far = np.geomspace(5.0, 50.0, 25)
    rep = u_reconstruct(state200, r_far)
    rel = abs(rep.prefactor - rep.predicted_prefactor) / abs(rep.predicted_prefactor)
    _report(10, "resonance decay exponent gamma", rep.gamma, "approx 1")
    _report(10, "1/r prefactor vs (m/2 pi mu0) int |V| u rel error", rel, "< 1e-2")
    assert abs(rep.gamma - 1.0) < 0.1
    assert rel < 1e-2

    rep0 = u_reconstruct(zero_overlap_state, r_far)
    _report(10, "zero-overlap decay exponent gamma", rep0.gamma, ">= 1.9")
    assert rep0.gamma >= 1.9


# -- bound property rides along with the kernel criteria --------------------

def test_envelope_bound_spot_check():
    for mu in (0.2, 0.6):
        p = PhysParams.from_mu(mu, 1.0)
        assert all(envelope_holds(float(r), p)
                   for r in np.geomspace(0.05, 10.0, 20))
    assert h3_root() >= H3_ROOT_REFERENCE - 1e-9
