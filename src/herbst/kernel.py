"""Coordinate-space Green's function of sqrt(-Laplacian + m^2) - E.

Implements the closed convolution form

    G_E(r) = (m / 4 pi r) [ sqrt(1 - mu^2/m^2) e^(-mu r) + (2/pi) F(m r; mu) ]

with

    F(x; nu) = K1(x) + (1 - nu^2) [ e^(-nu x) int_0^x cosh(nu z) K0(z) dz
                                    - sinh(nu x) int_x^inf e^(-nu z) K0(z) dz ],

together with the small-coupling expansion kernels (the V-stripped L0, A, B
profiles), the pointwise envelope bound, and fast cumulative tables used by
the Nystrom discretization.  The Yukawa decay rate is tied to the energy by
mu^2 = m^2 - (m + E)^2, i.e. mu^2 = 2 m alpha^2 - alpha^4 for E = -alpha^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import specfun
from .specfun import DEFAULT_TOL, Tolerance, k0, k1

H3_ROOT_REFERENCE = 0.7451315  # root of int_z^inf K0 = z K0(z)

_GLX16, _GLW16 = leggauss(16)
_GLX24, _GLW24 = leggauss(24)


@dataclass(frozen=True)
class PhysParams:
    """Mass, energy and the derived expansion/Yukawa parameters.

    The algebraic ties are enforced on construction:
    E = -alpha^2 <= 0 and mu = sqrt(-2 m E - E^2) in [0, m).
    """

    m: float = 1.0
    E: float = 0.0

    def __post_init__(self) -> None:
        if self.m <= 0.0:
            raise ValueError("mass must be positive")
        if self.E > 0.0:
            raise ValueError("energy must satisfy E <= 0")
        mu_sq = -2.0 * self.m * self.E - self.E * self.E
        if mu_sq < 0.0 or mu_sq >= self.m * self.m:
            raise ValueError("derived mu must satisfy 0 <= mu < m (need |E| < 2m)")

    @property
    def alpha(self) -> float:
        return math.sqrt(-self.E)

    @property
    def mu(self) -> float:
        return math.sqrt(-2.0 * self.m * self.E - self.E * self.E)

    @property
    def nu(self) -> float:
        """mu / m, the dimensionless decay rate."""
        return self.mu / self.m

    @classmethod
    def from_alpha(cls, alpha: float, m: float = 1.0) -> "PhysParams":
        return cls(m=m, E=-alpha * alpha)

    @classmethod
    def from_mu(cls, mu: float, m: float = 1.0) -> "PhysParams":
        if not 0.0 <= mu < m:
            raise ValueError("mu must lie in [0, m)")
        # E = -alpha^2 with alpha^2 = m - sqrt(m^2 - mu^2)
        return cls(m=m, E=-(m - math.sqrt(m * m - mu * mu)))


def _exp_tail_full(nu: float) -> float:
    """int_0^inf e^(-nu z) K0(z) dz = arccos(nu)/sqrt(1-nu^2) for 0 <= nu < 1."""
    if nu == 0.0:
        return math.pi / 2.0
    return math.acos(nu) / math.sqrt(1.0 - nu * nu)


def f_profile(r: float, p: PhysParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """The convolution profile F(m r; mu); diverges like 1/(m r) at the origin."""
    if r <= 0.0:
        raise ValueError("f_profile requires r > 0")
    x = p.m * r
    nu = p.nu
    val = k1(x)
    if nu == 0.0:
        # sinh(0) kills the tail term
        return val + specfun.k0_weighted_integral("incomplete_plain", x, beta=0, tol=tol)
    inc = specfun.k0_weighted_integral("incomplete_cosh", x, mu_over_m=nu, tol=tol)
    tail = specfun.k0_weighted_integral("tail_exp", x, mu_over_m=nu, tol=tol)
    return val + (1.0 - nu * nu) * (math.exp(-p.mu * r) * inc - math.sinh(p.mu * r) * tail)


def green_function(r: float, p: PhysParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """G_E(r), the radial kernel of (sqrt(-Laplacian + m^2) - E)^(-1)."""
    if r <= 0.0:
        raise ValueError("green_function requires r > 0")
    nu = p.nu
    bracket = math.sqrt(1.0 - nu * nu) * math.exp(-p.mu * r) \
        + (2.0 / math.pi) * f_profile(r, p, tol)
    return p.m / (4.0 * math.pi * r) * bracket


def l0_profile(r: float, m: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """V-stripped zeroth-order kernel (m/4 pi r)[2 + (2/pi) int_{mr}^inf K1(z)/z dz]."""
    if r <= 0.0:
        raise ValueError("l0_profile requires r > 0")
    tail = specfun.k0_weighted_integral("tail_k1_over_z", m * r, tol=tol)
    return m / (4.0 * math.pi * r) * (2.0 + (2.0 / math.pi) * tail)


def a_profile(m: float = 1.0) -> float:
    """The constant first-order kernel, -m / 2 pi."""
    return -m / (2.0 * math.pi)


def b_profile(r: float, m: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """V-stripped second-order kernel; ~ -1/(2 m^2 r) near the origin."""
    if r <= 0.0:
        raise ValueError("b_profile requires r > 0")
    x = m * r
    c0 = specfun.k0_weighted_integral("incomplete_plain", x, beta=0, tol=tol)
    c2 = specfun.k0_weighted_integral("incomplete_plain", x, beta=2, tol=tol)
    tz = specfun.k0_weighted_integral("tail_zk0", x, tol=tol)
    m2 = m * m
    return (
        0.5 * (r * r - 1.0 / m2)
        + (r * r - 2.0 / m2) * c0 / math.pi
        + 2.0 * r * tz / (math.pi * m)
        + c2 / (math.pi * m2)
    ) / r


_B_SPLINE_XMAX = 30.0  # beyond this the profile is r - 1/(m^2 r) to ~1e-13
_b_spline_cache: dict[int, tuple[CubicSpline, CubicSpline, CubicSpline]] = {}


def _b_splines() -> tuple[CubicSpline, CubicSpline, CubicSpline]:
    if 0 not in _b_spline_cache:
        x = _graded_grid(_B_SPLINE_XMAX, 1200)
        c0 = CubicSpline(x, _cumulative(k0, x))
        c1 = CubicSpline(x, _cumulative(lambda z: z * k0(z), x))
        c2 = CubicSpline(x, _cumulative(lambda z: z * z * k0(z), x))
        _b_spline_cache[0] = (c0, c1, c2)
    return _b_spline_cache[0]


def b_profile_grid(r, m: float = 1.0):
    """Vectorized b_profile backed by cumulative splines (rel ~1e-10).

    Matches b_profile to spline accuracy; crosses over to the exact
    large-distance form r - 1/(m^2 r) once the Bessel tails are below
    double precision.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("b_profile_grid requires r > 0")
    c0s, c1s, c2s = _b_splines()
    x = np.minimum(m * r, _B_SPLINE_XMAX)
    c0 = np.where(m * r < _B_SPLINE_XMAX, c0s(x), math.pi / 2.0)
    c2 = np.where(m * r < _B_SPLINE_XMAX, c2s(x), math.pi / 2.0)
    tz = np.where(m * r < _B_SPLINE_XMAX, 1.0 - c1s(x), 0.0)
    m2 = m * m
    val = (
        0.5 * (r * r - 1.0 / m2)
        + (r * r - 2.0 / m2) * c0 / math.pi
        + 2.0 * r * tz / (math.pi * m)
        + c2 / (math.pi * m2)
    ) / r
    return val if np.ndim(r) else float(val)


def series_remainder(r: float, alpha: float, m: float = 1.0,
                     tol: Tolerance = DEFAULT_TOL) -> float:
    """Truncation error of the small-alpha series of the Green's function.

    Returns |G_(E=-alpha^2)(r) - [L0 + sqrt(2m) alpha A + (m/2pi) alpha^2 B]|
    (V-stripped profiles).  The quadratic profile B enters with m/(2 pi) =
    2m/(4 pi): the 1/(4 pi) of the Green's function prefactor stays with
    the alpha^2 term, as the brute-force eigenvalue continuation confirms.
    """
    if r <= 0.0:
        raise ValueError("series_remainder requires r > 0")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    p = PhysParams.from_alpha(alpha, m)
    truncated = (
        l0_profile(r, m, tol)
        + math.sqrt(2.0 * m) * alpha * a_profile(m)
        + (m / (2.0 * math.pi)) * alpha * alpha * b_profile(r, m, tol)
    )
    return abs(green_function(r, p, tol) - truncated)


def envelope_bound(r: float, p: PhysParams, c: float = H3_ROOT_REFERENCE) -> float:
    """Pointwise envelope (m / 4 pi r^2)[1 + 2/mu + c/m]; needs mu > 0."""
    if r <= 0.0:
        raise ValueError("envelope_bound requires r > 0")
    if p.mu == 0.0:
        raise ValueError("envelope bound degenerates at mu = 0")
    if c < H3_ROOT_REFERENCE:
        raise ValueError(f"envelope constant must be >= {H3_ROOT_REFERENCE}")
    return p.m / (4.0 * math.pi * r * r) * (1.0 + 2.0 / p.mu + c / p.m)


def envelope_holds(r: float, p: PhysParams, c: float = H3_ROOT_REFERENCE,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether |G_E(r)| <= envelope_bound(r)."""
    return abs(green_function(r, p, tol)) <= envelope_bound(r, p, c)


def h3_root(tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of the transcendental equation int_z^inf K0(y) dy = z K0(z)."""

    def residual(z: float) -> float:
        lhs = math.pi / 2.0 - specfun.k0_weighted_integral(
            "incomplete_plain", z, beta=0, tol=tol)
        return lhs - z * k0(z)

    return brentq(residual, 0.1, 3.0, xtol=1e-12)


# ---------------------------------------------------------------------------
# Cumulative tables: fast ring integrals for the Nystrom assembly.
# ---------------------------------------------------------------------------

def _graded_grid(x_max: float, n: int) -> np.ndarray:
    # points clustered toward 0, where the integrands have log structure
    return x_max * (np.linspace(0.0, 1.0, n + 1)) ** 1.5


def _cumulative(fvec, xgrid: np.ndarray) -> np.ndarray:
    """Cumulative int_0^x of a vectorized integrand with a possible log
    singularity at 0, tamed on the first interval by the z = x1 u^4 map."""
    vals = np.zeros(len(xgrid))
    x1 = xgrid[1]
    u = 0.5 * (_GLX16 + 1.0)
    z = x1 * u**4
    vals[1] = (4.0 * x1 * 0.5 * _GLW16 * u**3 * fvec(z)).sum()
    a = xgrid[1:-1]
    b = xgrid[2:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    z = mid + half * _GLX16[None, :]
    pieces = (half * _GLW16[None, :] * fvec(z.ravel()).reshape(z.shape)).sum(axis=1)
    vals[2:] = vals[1] + np.cumsum(pieces)
    return vals


@dataclass
class GreenKernelTable:
    """Precomputed smooth part of the cumulative int t G_E(t) dt.

    Supports fast evaluation of the ring integral

        kappa(r, rho) = 2 pi int_|r-rho|^(r+rho) t G_E(t) dt

    with the logarithmically divergent K1 contribution split off in closed
    form (its primitive is -K0), so that only smooth functions are splined.
    """

    params: PhysParams
    s_max: float
    n_intervals: int = 800
    _smooth: CubicSpline = field(init=False, repr=False)
    _c0: CubicSpline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.params
        nu = p.nu
        x = _graded_grid(p.m * self.s_max * 1.0000001, self.n_intervals)
        c0 = _cumulative(k0, x)
        self._c0 = CubicSpline(x, c0)
        if nu == 0.0:
            c0z = _cumulative(lambda z: z * k0(z), x)
            w = x * c0 - c0z  # int_0^x (x - z) K0(z) dz
        else:
            cosh_c = _cumulative(
                lambda z: np.cosh(nu * z) * k0(z), x)
            coshexp_c = _cumulative(
                lambda z: np.exp(-nu * z) * np.cosh(nu * z) * k0(z), x)
            exp_c = _cumulative(
                lambda z: np.exp(-nu * z) * k0(z), x)
            s_full = _exp_tail_full(nu)
            # Fubini-swapped primitives of e^(-nu x) C(x) and sinh(nu x) S(x)
            a_c = (coshexp_c - np.exp(-nu * x) * cosh_c) / nu
            b_c = ((coshexp_c - exp_c) + (np.cosh(nu * x) - 1.0) * (s_full - exp_c)) / nu
            w = a_c - b_c
        m = p.m
        if p.mu == 0.0:
            t1 = (m / (4.0 * math.pi)) * (x / m)
        else:
            t1 = (m / (4.0 * math.pi)) * math.sqrt(1.0 - nu * nu) \
                * (1.0 - np.exp(-nu * x)) / p.mu
        smooth = t1 + (1.0 - nu * nu) / (2.0 * math.pi**2) * w
        self._smooth = CubicSpline(x, smooth)

    def cumulative_t_green(self, a, b):
        """int_a^b t G_E(t) dt for 0 < a <= b <= s_max (vectorized)."""
        m = self.params.m
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        k0_part = (k0(m * a) - k0(m * b)) / (2.0 * math.pi**2)
        return self._smooth(m * b) - self._smooth(m * a) + k0_part

    def cumulative_smooth(self, b):
        """The cumulative with the K0 primitive excluded, valid down to a = 0."""
        return self._smooth(np.asarray(b, dtype=float) * self.params.m)

    def k0_cumulative(self, x):
        """int_0^x K0(z) dz from the precomputed table (x in m-scaled units)."""
        return self._c0(np.asarray(x, dtype=float))

    def ring_integral(self, r, rho):
        """kappa(r, rho) = 2 pi int_|r-rho|^(r+rho) t G_E(t) dt, r != rho."""
        r = np.asarray(r, dtype=float)
        rho = np.asarray(rho, dtype=float)
        return 2.0 * math.pi * self.cumulative_t_green(np.abs(r - rho), r + rho)


@dataclass
class BKernelTable:
    """Cumulative int_0^s t B(t) dt of the (bounded) second-order profile."""

    m: float
    s_max: float
    n_intervals: int = 800
    _cum: CubicSpline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.m
        x = _graded_grid(m * self.s_max * 1.0000001, self.n_intervals)
        c0 = CubicSpline(x, _cumulative(k0, x))
        c1 = CubicSpline(x, _cumulative(lambda z: z * k0(z), x))
        c2 = CubicSpline(x, _cumulative(lambda z: z * z * k0(z), x))

        def t_b(t):
            # t * b_profile(t); bounded at t -> 0 (limit -1/(2 m^2))
            xx = m * t
            tz = 1.0 - c1(xx)  # int_x^inf z K0 dz via the full moment
            return (0.5 * (t * t - 1.0 / m**2)
                    + (t * t - 2.0 / m**2) * c0(xx) / math.pi
                    + 2.0 * t * tz / (math.pi * m)
                    + c2(xx) / (math.pi * m**2))

        s = x / m
        vals = np.zeros(len(s))
        a, b = s[:-1], s[1:]
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        t = mid + half * _GLX16[None, :]
        pieces = (half * _GLW16[None, :] * t_b(t.ravel()).reshape(t.shape)).sum(axis=1)
        vals[1:] = np.cumsum(pieces)
        self._cum = CubicSpline(s, vals)

    def ring_integral(self, r, rho):
        """2 pi int_|r-rho|^(r+rho) t B(t) dt (no singular part)."""
        r = np.asarray(r, dtype=float)
        rho = np.asarray(rho, dtype=float)
        return 2.0 * math.pi * (self._cum(r + rho) - self._cum(np.abs(r - rho)))
