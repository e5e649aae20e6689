"""Green's function, series kernels, envelope bound, and ring-integral tables."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

import herbst.kernel
from herbst.kernel import (_RING_NODES, H3_ROOT_REFERENCE, BKernelTable,
                           GreenKernelTable, PhysParams, a_profile, b_profile,
                           b_profile_grid, envelope_bound, envelope_holds,
                           f_profile, green_function, h3_root, l0_profile,
                           _cumulative, _graded_grid, series_remainder)
from herbst.quad import RadialFunction, radial_fourier3
from herbst.specfun import EvaluationFailure, k0, k0_weighted_integral, k1


class TestPhysParams:
    def test_algebraic_ties(self):
        p = PhysParams.from_alpha(0.3, 1.0)
        assert_allclose(p.E, -0.09, rtol=1e-15)
        assert_allclose(p.mu, math.sqrt(2.0 * 0.09 - 0.09**2), rtol=1e-15)
        assert_allclose(p.nu, p.mu / p.m, rtol=1e-15)

    def test_from_mu_round_trip(self):
        p = PhysParams.from_mu(0.6, 2.0)
        assert_allclose(p.mu, 0.6, rtol=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            PhysParams(m=1.0, E=0.5)
        with pytest.raises(ValueError):
            PhysParams(m=1.0, E=-2.5)
        with pytest.raises(ValueError):
            PhysParams(m=0.0, E=0.0)
        with pytest.raises(ValueError):
            PhysParams.from_mu(1.0, 1.0)

    @pytest.mark.parametrize("field, value", [("m", math.nan), ("m", math.inf),
                                              ("m", -math.inf), ("E", math.nan),
                                              ("E", -math.inf), ("E", math.inf)])
    def test_rejects_non_finite_inputs(self, field, value):
        # NaN passed every range check (each comparison is False), and the
        # failure came later, at a table build, naming neither m nor E
        with pytest.raises(ValueError, match=rf"\b{field} = {value} is not finite"):
            PhysParams(**{field: value})


def _green_mpmath(r: float, p: PhysParams) -> float:
    """G_E(r) at 30 digits from the float m, E and r.  With K0(z) =
    int_0^inf e^(-z cosh t) dt, the z-integrals of C(x) = int_0^x cosh(nu z) K0
    and T(x) = int_x^inf e^(-nu z) K0 are elementary, and e^(nu x) F(x) is one
    t-integral whose terms are O(1) or fall no faster than the whole."""
    with mpmath.workdps(30):
        m, e, r = mpmath.mpf(p.m), mpmath.mpf(p.E), mpmath.mpf(r)
        mu = mpmath.sqrt(-2 * m * e - e * e)
        nu, x = mu / m, m * r
        sinh_t = -mpmath.expm1(-2 * nu * x) / 2  # e^(nu x) sinh(nu x) e^(-(1+nu) x)

        def scaled_f(t):
            a = mpmath.cosh(t)
            c = -(mpmath.expm1(-(a - nu) * x) / (a - nu)
                  + mpmath.expm1(-(a + nu) * x) / (a + nu)) / 2
            d = mpmath.exp(-(a - 1) * x)
            return (d * a * mpmath.exp(-(1 - nu) * x)
                    + (1 - nu**2) * (c - mpmath.exp(-(1 - nu) * x) * sinh_t * d / (a + nu)))

        # t = 80 leaves less than e^-79 of the t-integral
        knee = mpmath.acosh(1 + 1 / x)
        phi = mpmath.quad(scaled_f, sorted({mpmath.mpf(0), min(knee, 80), 4, 16, 80}))
        return float(m / (4 * mpmath.pi * r) * mpmath.exp(-mu * r)
                     * (mpmath.sqrt(1 - nu**2) + 2 / mpmath.pi * phi))


# x = m r from 1e-6 to 4e4 (at m = 1e-3 only the ends: x < 0.04 throughout;
# at m = 1e3, G has underflowed from r = 16.5 on for all four nu)
_ACCURACY_RADII = {1e-3: np.array([1e-3, 40.0]),
                   1.0: np.array([1e-3, 0.5, 3.0, 16.5, 25.7, 40.0]),
                   1e3: np.array([1e-3, 0.06, 0.5, 3.0, 16.5, 40.0])}


class TestGreenFunction:
    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.8, 0.95])
    @pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
    def test_negative_energy_within_1e_12_of_mpmath(self, nu, m):
        # nu = 0.95 at r = 16.5 and 25.7 was 3.6e-9 off with QUADPACK; at
        # m = 1e3, r = 0.5, T(x) underflows while sinh(nu x) T(x) does not
        p, radii = PhysParams.from_mu(nu * m, m), _ACCURACY_RADII[m]
        got = green_function(radii, p)
        # beyond mu r = 745 G underflows to 0 (and its reference too)
        live = p.mu * radii < 745.0
        assert np.all(got[~live] == 0.0)
        want = [_green_mpmath(float(r), p) for r in radii[live]]
        assert_allclose(got[live], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("E", [-1e-4, -0.04, -0.9, -1.9])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, E):
        p = PhysParams(m=1.0, E=E)
        r = np.concatenate([np.geomspace(1e-9, 1e3, 97), [3.999, 4.0, 4.001]])
        np.random.default_rng(5).shuffle(r)
        scalars = np.array([green_function(float(x), p) for x in r])
        assert np.array_equal(green_function(r, p), scalars)
        assert np.array_equal(green_function(r.reshape(4, 25), p), scalars.reshape(4, 25))
        assert np.array_equal(f_profile(r, p), [f_profile(float(x), p) for x in r])
        assert isinstance(green_function(0.5, p), float)

    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_momentum_space_oracle(self, mu):
        # G must be the radial transform of 1/(sqrt(4 pi^2 q^2 + m^2) - m - E)
        p = PhysParams.from_mu(mu, 1.0)

        def symbol(q):
            q = np.asarray(q, dtype=float)
            return 1.0 / (np.sqrt(4.0 * math.pi**2 * q * q + p.m**2)
                          - p.m - p.E)

        prof = RadialFunction(eval=symbol)
        for r in (0.2, 0.3, 1.0, 2.5, 3.0):
            oracle = radial_fourier3(prof, r)
            assert_allclose(green_function(r, p), oracle, rtol=1e-6)

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_l0_profile_matches_quadrature_oracle(self, m):
        for r in np.geomspace(1e-3, 20.0, 15):
            tail = k0_weighted_integral("tail_k1_over_z", m * r)
            oracle = m / (4.0 * math.pi * r) * (2.0 + (2.0 / math.pi) * tail)
            assert_allclose(l0_profile(float(r), m), oracle, rtol=1e-9)

    def test_positive_and_decreasing(self):
        p = PhysParams.from_alpha(0.2, 1.0)
        rs = np.geomspace(0.05, 4.0, 12)
        vals = [green_function(float(r), p) for r in rs]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_mass_scaling(self):
        # G(r; m, E) = m^2 g(m r; E/m): doubling m at fixed alpha^2/m
        g1 = green_function(0.7, PhysParams(m=1.0, E=-0.04))
        g2 = green_function(0.35, PhysParams(m=2.0, E=-0.08))
        assert_allclose(g2, 4.0 * g1, rtol=1e-10)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            green_function(0.0, PhysParams())
        with pytest.raises(ValueError):
            f_profile(-1.0, PhysParams())


class TestSeriesKernels:
    def test_a_profile_constant(self):
        assert_allclose(a_profile(1.0), -1.0 / (2.0 * math.pi), rtol=1e-15)
        assert_allclose(a_profile(3.0), 3.0 * a_profile(1.0), rtol=1e-15)

    def test_b_profile_matches_grid(self):
        # spans the origin divergence and the decay of the Bessel terms
        rs = np.geomspace(1e-4, 60.0, 40)
        direct = np.array([b_profile(float(r)) for r in rs])
        assert_allclose(b_profile_grid(rs), direct, rtol=1e-7)

    def test_b_profile_large_r_asymptote(self):
        # B(r) -> r - 1/(m^2 r) once the Bessel weights have died out
        r = 40.0
        assert_allclose(b_profile_grid(r), r - 1.0 / r, rtol=1e-12)

    def test_b_profile_small_r_divergence(self):
        # B(r) ~ -1/(2 m^2 r) at the origin
        r = 1e-5
        assert_allclose(b_profile(r), -1.0 / (2.0 * r), rtol=1e-3)

    def test_remainder_is_cubic_in_alpha(self):
        alphas = np.geomspace(0.005, 0.04, 7)
        rem = np.array([series_remainder(0.8, float(a)) for a in alphas])
        slope = np.polyfit(np.log(alphas), np.log(rem), 1)[0]
        assert abs(slope - 3.0) < 0.3

    def test_remainder_uses_the_closed_form_b(self, monkeypatch):
        # b_profile is the scalar-quadrature oracle, not a library path
        def oracle_called(*args, **kwargs):
            raise AssertionError("series_remainder called the b_profile oracle")

        monkeypatch.setattr(herbst.kernel, "b_profile", oracle_called)
        assert series_remainder(0.8, 0.01) > 0.0

    def test_remainder_vanishes_at_zero_alpha(self):
        assert series_remainder(0.8, 0.0) < 1e-12

    def test_quadratic_term_coefficient(self):
        # the alpha^2 coefficient of G - L0 - first order is (m/2 pi) B(r)
        r, m = 0.9, 1.0
        alphas = np.linspace(0.04 / 9.0, 0.04, 9)
        deltas = []
        for a in alphas:
            p = PhysParams.from_alpha(float(a), m)
            first = math.sqrt(2.0 * m) * a * a_profile(m)
            deltas.append(green_function(r, p) - l0_profile(r, m) - first)
        c2 = np.polyfit(alphas, np.asarray(deltas), 4)[-3]
        assert_allclose(c2, (m / (2.0 * math.pi)) * b_profile(r, m), rtol=1e-3)


class TestEnvelope:
    def test_h3_root_value(self):
        assert abs(h3_root() - H3_ROOT_REFERENCE) < 1e-6

    def test_bound_dominates_kernel(self):
        for mu in (0.2, 0.5, 0.9):
            p = PhysParams.from_mu(mu, 1.0)
            for r in np.geomspace(0.05, 8.0, 15):
                assert envelope_holds(float(r), p)

    def test_degenerate_at_zero_mu(self):
        with pytest.raises(ValueError):
            envelope_bound(1.0, PhysParams(m=1.0, E=0.0))

    def test_scalar_calls_at_one_nu_build_the_moment_nodes_once(self, monkeypatch):
        # the nu-fixed part of _k0_moments_at (nodes, C and T on them) is
        # cached per nu: 40 scalar calls run one _cumulative pass, and the
        # cached arrays are read-only
        calls = []
        cumulative = herbst.kernel._cumulative
        monkeypatch.setattr(herbst.kernel, "_cumulative",
                            lambda *args: calls.append(1) or cumulative(*args))
        herbst.kernel._moment_nodes.cache_clear()
        p = PhysParams.from_mu(0.37, 1.0)
        assert all(envelope_holds(float(r), p) for r in np.geomspace(0.05, 8.0, 40))
        assert len(calls) == 1
        nodes = herbst.kernel._moment_nodes(p.nu)
        for a in (nodes.g, nodes.c_nodes, nodes.t_nodes):
            assert not a.flags.writeable


def _ppoly(spline):
    """A table's (x, c) spline as scipy's PPoly, the evaluation its lookup
    is held to."""
    return PPoly(spline.c, spline.x)


class TestRingTables:
    # mu = 0.0035 is where the table's division by mu / m cancels most
    @pytest.mark.parametrize("mu", [0.0, 0.0035, 0.3])
    def test_green_table_matches_direct_quadrature(self, mu):
        p = PhysParams.from_mu(mu, 1.0)
        table = GreenKernelTable(p, s_max=4.0)
        for r, rho in ((0.4, 0.9), (1.2, 0.3), (1.5, 1.4)):
            oracle, _ = quad(lambda t: t * green_function(t, p),
                             abs(r - rho), r + rho,
                             epsabs=1e-13, epsrel=1e-11, limit=200)
            assert_allclose(table.ring(r + rho, abs(r - rho)),
                            2.0 * math.pi * oracle, rtol=1e-9)

    def test_green_table_diagonal_is_rejected(self):
        p = PhysParams(m=1.0, E=0.0)
        table = GreenKernelTable(p, s_max=2.0)
        with pytest.raises(ValueError):
            table.ring(1.0, 0.0)

    @pytest.mark.parametrize("m", [1.0, 2.5])
    @pytest.mark.parametrize("E", [-0.1, -0.3])
    def test_green_table_slope_matches_green_function_far_out(self, m, E):
        # the table's slope plus the split-off logarithm's, 1/(2 pi^2 s), is
        # s G_E(s); the E < 0 tail int_x^inf e^(-nu z) K0 is summed from the
        # far end, or cosh(nu x) times its rounding grows to 1e12 s G_E at
        # m s = 40.  The error is measured on the scale of the log's slope,
        # the part of the cumulative the spline carries out there
        p = PhysParams(m=m, E=E)
        table = GreenKernelTable(p, s_max=40.0 / m)
        s = np.geomspace(0.01, 40.0, 40) / m
        log_slope = 1.0 / (2.0 * math.pi**2 * s)
        slope = _ppoly(table._cum)(s, 1) + log_slope
        exact = np.array([t * green_function(t, p) for t in s])
        assert np.all(np.abs(slope - exact) <= 1e-7 * (np.abs(exact) + log_slope))

    def test_green_table_diagonal_is_rejected_at_any_pair(self):
        table = GreenKernelTable(PhysParams(m=1.0, E=-0.3), s_max=2.0)
        with pytest.raises(ValueError, match="diverges at r = rho"):
            table.ring(np.array([0.5, 1.0]), np.array([0.1, 0.0]))

    def test_b_table_matches_direct_quadrature(self):
        table = BKernelTable(m=1.0, s_max=4.0)
        for r, rho in ((0.4, 0.9), (1.3, 0.6)):
            oracle, _ = quad(lambda t: t * b_profile(t),
                             abs(r - rho), r + rho,
                             epsabs=1e-13, epsrel=1e-11, limit=200)
            assert_allclose(table.ring(r + rho, abs(r - rho)),
                            2.0 * math.pi * oracle, rtol=1e-8)

    @pytest.mark.parametrize("m", [0.3, 1.0, 2.5])
    def test_b_table_nodes_match_quadrature(self, m):
        # the closed-form int_0^s t B(t) dt at the nodes the spline passes
        # through, against adaptive quadrature of t B(t)
        table = BKernelTable(m=m, s_max=4.0)
        s = table._cum.x
        for i in (1, 2, 10, 100, 400, 800):
            oracle, _ = quad(lambda t: t * b_profile_grid(t, m), 0.0, s[i],
                             epsabs=0.0, epsrel=1e-13, limit=200)
            assert_allclose(table._cum(s[i]), oracle, rtol=1e-11)

    @pytest.mark.parametrize("singular", [False, True])
    def test_cumulative_from_a_positive_start_matches_quadrature(self, singular):
        # the far field's smooth K1(z)/z, and a log singularity at x0 for the
        # first interval's u^4 map, which is anchored at x0 = xgrid[0]; on
        # that singularity the map's 16 nodes are good to about 5e-10,
        # whether x0 is 0 or not
        x0 = 0.7
        xgrid = x0 + 4.0 * np.linspace(0.0, 1.0, 41) ** 1.5

        def f(z):
            return k0(z - x0) * np.cosh(0.3 * z) if singular else k1(z) / z

        cum = _cumulative(f, xgrid)
        assert cum[0] == 0.0
        for x, val in zip(xgrid[1:], cum[1:]):
            oracle, _ = quad(f, x0, x, epsabs=0.0, epsrel=1e-13, limit=200)
            assert_allclose(val, oracle, rtol=1e-9 if singular else 1e-13)

    @pytest.mark.parametrize("singular", [False, True])
    def test_cumulative_keeps_the_bits_of_its_interval_loop(self, singular):
        # _cumulative on the shared _gauss_panels against its earlier form,
        # the first interval's u^4 map and the other intervals apart
        x0 = 0.7
        xgrid = x0 + 4.0 * np.linspace(0.0, 1.0, 41) ** 1.5

        def f(z):
            return k0(z - x0) * np.cosh(0.3 * z) if singular else k1(z) / z

        want = np.zeros(len(xgrid))
        x1 = xgrid[1]
        u = 0.5 * (herbst.kernel._GLX16 + 1.0)
        want[1] = (4.0 * (x1 - x0) * 0.5 * herbst.kernel._GLW16 * u**3
                   * f(x0 + (x1 - x0) * u**4)).sum()
        a, b = xgrid[1:-1], xgrid[2:]
        half = 0.5 * (b - a)[:, None]
        z = 0.5 * (a + b)[:, None] + half * herbst.kernel._GLX16[None, :]
        pieces = (half * herbst.kernel._GLW16[None, :] * f(z.ravel()).reshape(z.shape)).sum(axis=1)
        want[2:] = want[1] + np.cumsum(pieces)
        assert np.array_equal(_cumulative(f, xgrid), want)

    @pytest.mark.parametrize("make", [
        lambda: GreenKernelTable(PhysParams(m=1.0, E=0.0), s_max=2.002),
        lambda: GreenKernelTable(PhysParams(m=2.5, E=-0.3), s_max=7.0),
        lambda: BKernelTable(m=1.3, s_max=3.0),
    ], ids=["green_E0", "green_E-0.3", "B"])
    def test_lookup_is_the_spline_bit_for_bit(self, make):
        # the interval from the graded grid's closed form and PPoly's sum:
        # equal to PPoly.__call__, for the spline and its antiderivative, at
        # random points up to 1.2 s_max (extrapolation included), on every
        # node and one ulp either side; the Green ring adds the logarithm
        table = make()
        nodes = table._cum.x
        s = np.concatenate([np.random.default_rng(7).uniform(0.0, 1.2 * table.s_max, 200_000),
                            nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf),
                            [table.s_max, 1.2 * table.s_max]])
        for poly in (table._cum, table._prim):
            assert np.array_equal(table._at(poly, s), _ppoly(poly)(s))
            assert table._at(poly, 0.7) == _ppoly(poly)(0.7)
        hi, lo = s[:1000] + s[1000:2000], np.abs(s[:1000] - s[1000:2000])
        ring = 2.0 * math.pi * (_ppoly(table._cum)(hi) - _ppoly(table._cum)(lo))
        if isinstance(table, GreenKernelTable):
            ring += np.log(hi / lo) / math.pi
        assert np.array_equal(table.ring(hi, lo), ring)

    @pytest.mark.parametrize("s_max", [2.002, 6.006, 40.0])
    @pytest.mark.parametrize("kind, value", [("green", 0.0), ("green", -0.01),
                                             ("green", -0.3), ("B", 0.3),
                                             ("B", 1.0), ("B", 2.5)])
    def test_spline_is_scipys_bit_for_bit(self, kind, value, s_max):
        # the not-a-knot spline and its antiderivative, built with one banded
        # solve and one running sum, have CubicSpline's coefficients exactly
        # (value is E for the Green table at m = 1, the mass for the B table)
        table = (GreenKernelTable(PhysParams(m=1.0, E=value), s_max) if kind == "green"
                 else BKernelTable(m=value, s_max=s_max))
        s = _graded_grid(s_max * 1.0000001, _RING_NODES)
        spline = CubicSpline(s, table._node_values(s))
        assert np.array_equal(table._cum.x, spline.x)
        assert np.array_equal(table._cum.c, spline.c)
        assert np.array_equal(table._prim.c, spline.antiderivative().c)

    @pytest.mark.parametrize("make", [
        lambda: GreenKernelTable(PhysParams(m=1.0, E=0.0), s_max=1e150),
        lambda: GreenKernelTable(PhysParams(m=1.0, E=-0.3), s_max=1e-150),
        lambda: BKernelTable(m=1e200, s_max=2.0),
    ], ids=["green_far", "green_near", "B_heavy"])
    def test_spline_out_of_float_range_raises_naming_the_table(self, make):
        with pytest.raises(EvaluationFailure,
                           match=r"KernelTable\(.*\): its spline leaves the float range"):
            make()

    def test_negative_energy_table_builds_far_out(self):
        # cosh(nu z) K0(z) and cosh(nu x) T(x) overflowed to inf * 0 once
        # nu m s passed about 710.  From x = m s = 200 on, the node value is
        # its limit (m/4 pi) sqrt(1 - nu^2)/mu + (1 - nu^2) arccos(nu) /
        # (2 pi^2 nu sqrt(1 - nu^2)) - ln(x)/(2 pi^2) to within e^-(1-nu) x,
        # about 2e-25
        p = PhysParams(m=1.0, E=-0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = GreenKernelTable(p, s_max=1100.0)
        s = table._cum.x
        got = table._node_values(s)
        assert np.all(np.isfinite(got))
        m, nu = p.m, p.nu
        far = m * s >= 200.0
        limit = ((m / (4.0 * math.pi)) * math.sqrt(1.0 - nu * nu) / p.mu
                 + (1.0 - nu * nu) * math.acos(nu) / (2.0 * math.pi**2 * nu * math.sqrt(1.0 - nu * nu))
                 - np.log(m * s[far]) / (2.0 * math.pi**2))
        assert far.sum() > 500
        assert_allclose(got[far], limit, rtol=0.0, atol=1e-15)

    # node values at nodes 1, 2, 5, 20, 100, 400 and 800 of the table for
    # (m, E, s_max), 30 digits, from this snippet (the z-integrals of C(x) =
    # int_0^x cosh(nu z) K0 and T(x) = int_x^inf e^(-nu z) K0 made elementary
    # by K0(z) = int_0^inf e^(-z cosh t) dt, as in _green_mpmath):
    #
    #   with mpmath.workdps(30):
    #       m, E, s = mpmath.mpf(m), mpmath.mpf(E), mpmath.mpf(s)
    #       mu = mpmath.sqrt(-2 * m * E - E * E)
    #       nu, x = mu / m, m * s
    #       pts = sorted({mpmath.mpf(0), min(mpmath.acosh(1 + 1 / x), 80), 4, 16, 80})
    #       ch = mpmath.cosh
    #       c = mpmath.quad(lambda t: -(mpmath.expm1(-(ch(t) - nu) * x) / (ch(t) - nu)
    #                                   + mpmath.expm1(-(ch(t) + nu) * x) / (ch(t) + nu)) / 2, pts)
    #       tail = mpmath.quad(lambda t: mpmath.exp(-(ch(t) + nu) * x) / (ch(t) + nu), pts)
    #       w = (mpmath.acos(nu) / mpmath.sqrt(1 - nu**2) - mpmath.exp(-nu * x) * c
    #            - mpmath.cosh(nu * x) * tail) / nu
    #       t1 = m / (4 * mpmath.pi) * mpmath.sqrt(1 - nu**2) * -mpmath.expm1(-nu * x) / mu
    #       h = mpmath.besselk(0, x) + mpmath.log(x)
    #       value = float(t1 + (1 - nu**2) / (2 * mpmath.pi**2) * w - h / (2 * mpmath.pi**2))
    _NODE_REFERENCE = {
        (1.0, -1e-4, 2.002): [-0.005866118016538103, -0.005853238738511862,
                              -0.005794338197366097, -0.0052380335491360955,
                              0.0016082456107324198, 0.06565438902050535,
                              0.22687074502760346],
        (1.0, -0.3, 6.006): [-0.005858375429762025, -0.005831353670424198,
                             -0.005708073638973975, -0.00456457286410225,
                             0.007300856447460205, 0.04242000462614846,
                             0.023531352408182812],
        (1.0, -0.01, 40.0): [-0.005733602596589073, -0.005477255524872155,
                             -0.004291452298214293, 0.007530067142293484,
                             0.16526349898385723, 0.7804878506572691,
                             0.8757769737071002],
    }

    @pytest.mark.parametrize("case", list(_NODE_REFERENCE), ids=lambda c: f"E{c[1]}-s{c[2]}")
    def test_negative_energy_node_values_within_1e_14_of_mpmath(self, case):
        # a u^4-mapped first interval on the logarithm of K0 left the
        # earlier cumulative-plus-tail route 8.5e-13, 2.5e-14 and 1.7e-12 off
        m, E, s_max = case
        table = GreenKernelTable(PhysParams(m=m, E=E), s_max)
        got = table._node_values(table._cum.x)[[1, 2, 5, 20, 100, 400, 800]]
        assert_allclose(got, self._NODE_REFERENCE[case], rtol=0.0, atol=1e-14)

    def test_b_table_diagonal_is_finite(self):
        # t B(t) is bounded, so the coincidence limit exists (equals the
        # integral over (0, 2r))
        table = BKernelTable(m=1.0, s_max=4.0)
        val = table.ring(1.4, 0.0)
        assert np.isfinite(val)


class TestSharedTables:
    """``_green_table`` and ``_b_table``: one read-only table per key."""

    @pytest.mark.parametrize("make", [
        lambda: herbst.kernel._green_table(PhysParams(m=1.0, E=-0.09), 2.002),
        lambda: herbst.kernel._b_table(1.0, 2.002),
    ], ids=["green", "B"])
    def test_shared_tables_are_read_only(self, make):
        table = make()
        assert make() is table
        for a in (*table._cum, *table._prim, table._ends):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        # the spline fails once: the call raises the table's own message,
        # and the next call builds again and keeps what it built
        builds = []
        not_a_knot = herbst.kernel._not_a_knot

        def failing_once(x, y):
            builds.append(1)
            if len(builds) == 1:
                raise ValueError("a spline needs ascending nodes and finite values")
            return not_a_knot(x, y)

        monkeypatch.setattr(herbst.kernel, "_not_a_knot", failing_once)
        herbst.kernel._b_table.cache_clear()
        with pytest.raises(EvaluationFailure,
                           match=r"^BKernelTable\(m=1\.0, s_max=2\.002\): its spline"):
            herbst.kernel._b_table(1.0, 2.002)
        table = herbst.kernel._b_table(1.0, 2.002)
        assert herbst.kernel._b_table(1.0, 2.002) is table
        assert len(builds) == 2
        assert np.array_equal(table._prim.c, BKernelTable(1.0, 2.002)._prim.c)
