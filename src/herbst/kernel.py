"""Coordinate-space Green's function of sqrt(-Laplacian + m^2) - E.

Implements the closed convolution form

    G_E(r) = (m / 4 pi r) [ sqrt(1 - mu^2/m^2) e^(-mu r) + (2/pi) F(m r; mu) ]

with

    F(x; nu) = K1(x) + (1 - nu^2) [ e^(-nu x) int_0^x cosh(nu z) K0(z) dz
                                    - sinh(nu x) int_x^inf e^(-nu z) K0(z) dz ],

together with the small-coupling expansion kernels (the V-stripped L0, A, B
profiles), the pointwise envelope bound, and the ring-integral tables of G_E
(log singularity in closed form) and B.  The Yukawa decay rate is tied to the
energy by mu^2 = m^2 - (m + E)^2, i.e. mu^2 = 2 m alpha^2 - alpha^4 for E = -alpha^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_laguerre

from . import specfun
from .specfun import EULER_GAMMA, EvaluationFailure, k0, k0_integral, k0e, k1, k1e

H3_ROOT_REFERENCE = 0.7451315  # root of int_z^inf K0 = z K0(z)

_GLX16, _GLW16 = leggauss(16)


@dataclass(frozen=True)
class PhysParams:
    """Mass, energy and the derived expansion/Yukawa parameters.

    The algebraic ties are enforced on construction:
    E = -alpha^2 <= 0 and mu = sqrt(-2 m E - E^2) in [0, m).
    """

    m: float = 1.0
    E: float = 0.0

    def __post_init__(self) -> None:
        # every comparison below is False on NaN: refuse non-finite inputs first
        for name, value in (("mass m", self.m), ("energy E", self.E)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} = {value} is not finite")
        if self.m <= 0.0:
            raise ValueError("mass must be positive")
        if self.E > 0.0:
            raise ValueError("energy must satisfy E <= 0")
        # scale-free, so that no m^2 underflows or overflows: with e = E/m,
        # nu^2 = (mu/m)^2 = -e (2 + e)
        e = self.E / self.m
        nu_sq = -e * (2.0 + e)
        if nu_sq < 0.0 or nu_sq >= 1.0:
            raise ValueError("derived mu must satisfy 0 <= mu < m (need |E| < 2m)")

    @property
    def mu(self) -> float:
        mu_sq = -2.0 * self.m * self.E - self.E * self.E
        if mu_sq < math.inf:
            return math.sqrt(mu_sq)
        # m^2 nu^2 overflows (m E near the float ceiling): scale-free, as in
        # the check above
        e = self.E / self.m
        return self.m * math.sqrt(-e * (2.0 + e))

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


def _radii(r, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError(f"{name} requires r > 0")
    return r


def f_profile(r, p: PhysParams):
    """The convolution profile F(m r; mu) at a scalar or an array of r > 0;
    diverges like 1/(m r) at the origin."""
    r = _radii(r, "f_profile")
    x = p.m * r
    if p.nu == 0.0:
        # sinh(0) kills the tail term
        return k1(x) + k0_integral(x)
    val = np.exp(-p.nu * x) * _f_scaled(x, p.nu)
    return val if np.ndim(r) else float(val)


def _f_scaled(x, nu: float):
    """e^(nu x) F(x; nu) for 0 < nu < 1.  With T(x) = e^(-(1+nu) x) tau(x),

        e^(nu x) F = e^(-(1-nu) x) [k1e(x) - (1 - nu^2) tau(x) (1 - e^(-2 nu x))/2]
                     + (1 - nu^2) C(x),

    whose terms are no larger than the whole: it neither over- nor
    underflows, and F = e^(-nu x) times it underflows only where F does."""
    flat = np.ravel(x)
    c, tau = _k0_moments_at(nu, flat)
    val = np.exp(-(1.0 - nu) * flat)
    val *= k1e(flat) + 0.5 * (1.0 - nu * nu) * np.expm1(-2.0 * nu * flat) * tau
    val += (1.0 - nu * nu) * c
    return val.reshape(np.shape(x))


def green_function(r, p: PhysParams):
    """G_E(r), the radial kernel of (sqrt(-Laplacian + m^2) - E)^(-1), at a
    scalar or an array of r > 0: 0.0 where it underflows, EvaluationFailure
    where it leaves the float range."""
    r = _radii(r, "green_function")
    nu = p.nu
    with np.errstate(over="ignore", invalid="ignore"):
        if nu == 0.0:
            bracket = 1.0 + (2.0 / math.pi) * f_profile(r, p)
        else:
            # e^(-mu r) [sqrt(1 - nu^2) + (2/pi) e^(nu m r) F]
            bracket = np.exp(-p.mu * r) * (math.sqrt(1.0 - nu * nu)
                                           + (2.0 / math.pi) * _f_scaled(p.m * r, nu))
        # an underflowed bracket is G = 0 whatever the prefactor
        g = np.where(bracket == 0.0, 0.0, p.m / (4.0 * math.pi * r) * bracket)
    bad = ~np.isfinite(g)
    if bad.any():
        raise EvaluationFailure(f"Green's function at r = {np.ravel(r)[bad.ravel()][0]}, "
                                f"mass {p.m}: leaves the float range")
    return g if np.ndim(r) else float(g)


def l0_profile(r: float, m: float = 1.0) -> float:
    """V-stripped zeroth-order kernel (m/4 pi r)[2 + (2/pi) int_{mr}^inf K1(z)/z dz]."""
    if r <= 0.0:
        raise ValueError("l0_profile requires r > 0")
    x = m * r
    # int_x^inf K1(z)/z dz = K1(x) + C0(x) - pi/2, as (K1 + C0)' = -K1/x
    tail = k1(x) + k0_integral(x) - math.pi / 2.0
    return m / (4.0 * math.pi * r) * (2.0 + (2.0 / math.pi) * tail)


def a_profile(m: float = 1.0) -> float:
    """The constant first-order kernel, -m / 2 pi."""
    return -m / (2.0 * math.pi)


def b_profile(r: float, m: float = 1.0) -> float:
    """V-stripped second-order kernel; ~ -1/(2 m^2 r) near the origin.

    Scalar quadrature: the oracle that b_profile_grid is tested against.
    """
    if r <= 0.0:
        raise ValueError("b_profile requires r > 0")
    x = m * r
    c0 = specfun.k0_weighted_integral("incomplete_plain", x, beta=0)
    c2 = specfun.k0_weighted_integral("incomplete_plain", x, beta=2)
    tz = specfun.k0_weighted_integral("tail_zk0", x)
    m2 = m * m
    return (
        0.5 * (r * r - 1.0 / m2)
        + (r * r - 2.0 / m2) * c0 / math.pi
        + 2.0 * r * tz / (math.pi * m)
        + c2 / (math.pi * m2)
    ) / r


def b_profile_grid(r, m: float = 1.0):
    """Vectorized b_profile in closed form.

    With x = m r, the moments int_x^inf z K0 = x K1(x) and int_0^x z^2 K0 =
    C0(x) - x^2 K1(x) - x K0(x), where C0(x) = int_0^x K0, reduce b_profile to

        B(r) = (r^2 - 1/m^2) (1/2 + C0(x)/pi) / r + (r K1(x) - K0(x)/m) / pi,

    which tends to r - 1/(m^2 r) as the Bessel terms die out.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("b_profile_grid requires r > 0")
    x = m * r
    val = ((r * r - 1.0 / (m * m)) * (0.5 + k0_integral(x) / math.pi) / r
           + (r * k1(x) - k0(x) / m) / math.pi)
    return val if np.ndim(r) else float(val)


def series_remainder(r: float, alpha: float, m: float = 1.0) -> float:
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
        l0_profile(r, m)
        + math.sqrt(2.0 * m) * alpha * a_profile(m)
        + (m / (2.0 * math.pi)) * alpha * alpha * b_profile_grid(r, m)
    )
    return abs(green_function(r, p) - truncated)


def envelope_bound(r: float, p: PhysParams) -> float:
    """Pointwise envelope (m / 4 pi r^2)[1 + 2/mu + c/m], c = H3_ROOT_REFERENCE.

    Needs mu > 0.
    """
    if r <= 0.0:
        raise ValueError("envelope_bound requires r > 0")
    if p.mu == 0.0:
        raise ValueError("envelope bound degenerates at mu = 0")
    return p.m / (4.0 * math.pi * r * r) * (1.0 + 2.0 / p.mu + H3_ROOT_REFERENCE / p.m)


def envelope_holds(r: float, p: PhysParams) -> bool:
    """Whether |G_E(r)| <= envelope_bound(r)."""
    return abs(green_function(r, p)) <= envelope_bound(r, p)


def h3_root() -> float:
    """Root of the transcendental equation int_z^inf K0(y) dy = z K0(z)."""
    from scipy.optimize import brentq

    return brentq(lambda z: math.pi / 2.0 - k0_integral(z) - z * k0(z),
                  0.1, 3.0, xtol=1e-12)


# ---------------------------------------------------------------------------
# Cumulative tables: fast ring integrals for the Nystrom assembly.
# ---------------------------------------------------------------------------

def _graded_grid(x_max: float, n: int) -> np.ndarray:
    # points clustered toward 0, where the integrands have log structure
    return x_max * (np.linspace(0.0, 1.0, n + 1)) ** 1.5


def _gauss_panels(lo: np.ndarray, hi: np.ndarray, mapped=False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each (len(lo), 16), of the 16-point Gauss-Legendre
    rule on the panels (lo, hi); where ``mapped``, through z = lo + (hi - lo)
    u^4, which tames a logarithm at lo."""
    half = 0.5 * (hi - lo)[:, None]
    z = 0.5 * (lo + hi)[:, None] + half * _GLX16
    w = half * _GLW16
    mapped = np.broadcast_to(mapped, lo.shape)
    if mapped.any():
        u = 0.5 * (_GLX16 + 1.0)
        h = (hi - lo)[mapped, None]
        z[mapped] = lo[mapped, None] + h * u**4
        w[mapped] = 4.0 * h * 0.5 * _GLW16 * u**3
    return z, w


def _panel(fvec, lo: np.ndarray, hi: np.ndarray, mapped=False) -> np.ndarray:
    """int_lo^hi of a vectorized integrand on each panel (see _gauss_panels)."""
    z, w = _gauss_panels(lo, hi, mapped)
    return (w * fvec(z.ravel()).reshape(z.shape)).sum(axis=1)


def _cumulative(fvec, xgrid: np.ndarray) -> np.ndarray:
    """Cumulative int_x0^x, x0 = xgrid[0], of a vectorized integrand on the
    ascending xgrid, 16 Gauss-Legendre nodes per interval; a possible log
    singularity at x0 is tamed on the first interval by z = x0 + (x1 - x0) u^4."""
    pieces = _panel(fvec, xgrid[:-1], xgrid[1:], np.arange(len(xgrid) - 1) == 0)
    vals = np.zeros(len(xgrid))
    vals[1] = pieces[0]
    vals[2:] = vals[1] + np.cumsum(pieces[1:])
    return vals


def _tail(fvec, xgrid: np.ndarray) -> np.ndarray:
    """int_x^inf of a vectorized integrand that decays at least like e^-z,
    at each x of the ascending xgrid, summed from xgrid[-1] + 40 (past which
    lies below e^-40 of the tail at xgrid[-1]) down to xgrid[0]: each value
    keeps its digits, where a forward cumulative subtracted from its end
    would cancel them once the tail is small."""
    down = np.concatenate([np.linspace(xgrid[-1] + 40.0, xgrid[-1], 81), xgrid[-2::-1]])
    return -_cumulative(fvec, down)[:79:-1]


_LAGUERRE_FROM = 4.0  # T(x) from the grid below, from Gauss-Laguerre above
_GLAG_X, _GLAG_W = roots_laguerre(24)
_CACHED = 16  # entries kept by each of the module's caches
# bytes of packed Green kernels that spectral's kernel cache keeps: the
# n = 200 and 400 kernels, 0.16 and 0.64 MB; none above n = 706
_KERNEL_BYTES = 2_000_000


def _moment_grid(nu: float) -> np.ndarray:
    """The fixed nodes of ``_k0_moments_at``: 0, ratios of 4 from 4^-12 to 1
    (the logarithm of K0), 2 and 4, then doubling, each panel at most
    8/(1 - nu) wide, up to where C(x) is within e^-45 (1 - nu) of its limit."""
    eps = 1.0 - nu
    end = (45.0 - math.log(eps)) / eps
    nodes = [0.0, *4.0 ** np.arange(-12.0, 1.0), 2.0, 4.0]
    while nodes[-1] < end:
        nodes.append(nodes[-1] + min(nodes[-1], 8.0 / eps))
    return np.array(nodes)


def _tau_far(nu: float, x: np.ndarray) -> np.ndarray:
    """tau(x) = int_0^inf e^(-(1+nu) t) k0e(x + t) dt at each x >= 4 of a
    1-d array, by the 24-point Gauss-Laguerre rule, one row sum per x."""
    return (_GLAG_W * k0e(x[:, None] + _GLAG_X / (1.0 + nu))).sum(axis=1) / (1.0 + nu)


class _MomentNodes(NamedTuple):
    """The part of ``_k0_moments_at`` fixed by nu: its integrands, the nodes
    g of ``_moment_grid(nu)``, C on them and T on those up to 4."""

    cosh_k0: Callable[[np.ndarray], np.ndarray]
    exp_k0: Callable[[np.ndarray], np.ndarray]
    g: np.ndarray
    c_nodes: np.ndarray
    t_nodes: np.ndarray


@functools.lru_cache(maxsize=_CACHED)
def _moment_nodes(nu: float) -> _MomentNodes:
    """``_MomentNodes`` at nu, read-only and built once per nu: one
    ``_cumulative`` pass for C, and T summed down, panel by panel, from
    T(4) = e^(-4 (1+nu)) tau(4)."""
    # cosh(nu z) K0 as (e^((nu-1) z) + e^(-(nu+1) z)) k0e(z) / 2: no
    # cosh(nu z) to overflow where K0 has underflowed
    def cosh_k0(z):
        return 0.5 * (np.exp((nu - 1.0) * z) + np.exp(-(nu + 1.0) * z)) * k0e(z)

    def exp_k0(z):
        return np.exp(-nu * z) * k0(z)

    g = _moment_grid(nu)
    top = np.searchsorted(g, _LAGUERRE_FROM)
    down = _panel(exp_k0, g[1:top], g[2:top + 1])
    t_nodes = np.empty(top + 1)
    t_nodes[0] = math.acos(nu) / math.sqrt(1.0 - nu * nu)
    t_nodes[top] = (math.exp(-(1.0 + nu) * _LAGUERRE_FROM)
                    * _tau_far(nu, np.array([_LAGUERRE_FROM]))[0])
    t_nodes[1:top] = t_nodes[top] + np.cumsum(down[::-1])[::-1]
    nodes = _MomentNodes(cosh_k0, exp_k0, g, _cumulative(cosh_k0, g), t_nodes)
    for a in nodes[2:]:
        a.flags.writeable = False
    return nodes


def _k0_moments_at(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(x) = int_0^x cosh(nu z) K0 and tau(x) = e^((1+nu) x) T(x),
    T(x) = int_x^inf e^(-nu z) K0, at each x > 0 of a 1-d array, 0 < nu < 1.

    Both come from the nodes of ``_moment_nodes(nu)`` and one 16-point
    panel per x: C(x) = C(g_k) + int_(g_k)^x, g_k <= x < g_(k+1), and
    T(x) = T(g_(k+1)) + int_x^(g_(k+1)) (T(0) - int_0^x below g_1).  From
    x = 4 on, tau(x) is ``_tau_far``'s Gauss-Laguerre rule, which keeps its
    digits where T underflows.  Each value depends on its own x alone: an
    array gives its entries' values one at a time, to the last bit."""
    cosh_k0, exp_k0, g, c_nodes, t_nodes = _moment_nodes(nu)
    k = np.searchsorted(g, x, "right") - 1
    first = k == 0
    c = c_nodes[k] + _panel(cosh_k0, g[k], x, first)

    near = x < _LAGUERRE_FROM
    xn, kn, fn = x[near], k[near] + 1, first[near]
    part = _panel(exp_k0, np.where(fn, 0.0, xn), np.where(fn, xn, g[kn]), fn)
    tau = np.empty_like(x)
    tau[near] = np.exp((1.0 + nu) * xn) * np.where(fn, t_nodes[0] - part, t_nodes[kn] + part)
    tau[~near] = _tau_far(nu, x[~near])
    return c, tau


class _Spline(NamedTuple):
    """A piecewise polynomial stored as ``scipy.interpolate.PPoly`` stores
    one: breakpoints x and coefficients c, c[j, k] the coefficient of
    (s - x_k)^(deg - j) on [x_k, x_(k+1)), the end pieces extended outward."""

    x: np.ndarray
    c: np.ndarray

    def __call__(self, s):
        """The value at s, the interval found by binary search."""
        k = np.clip(np.searchsorted(self.x, s, "right") - 1, 0, len(self.x) - 2)
        return _power_sum(self.c, k, s - self.x[k])


def _power_sum(c: np.ndarray, k, dx):
    """sum_j c[j, k] dx^(deg - j) in ``PPoly.__call__``'s ascending-power
    order, c3 + c2 dx + c1 dx^2 + c0 dx^3 for a cubic, so that the value is
    PPoly's to the last bit.  In place, ((c3 + c2 dx) + c1 dx^2) + ..., one
    term alive at a time."""
    val = c[-2][k]
    val *= dx
    val += c[-1][k]
    z = dx * dx
    for j in range(len(c) - 3, -1, -1):
        t = c[j][k]
        t *= z
        val += t
        del t  # before the next gather
        if j:
            z *= dx
    return val


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> _Spline:
    """The not-a-knot cubic spline through (x, y), at least 4 nodes, as
    ``scipy.interpolate.CubicSpline(x, y)`` builds it, to the last bit: the
    node slopes s solve its tridiagonal system, band, end rows and right-hand
    side alike, and the piece on [x_k, x_(k+1)) is the cubic Hermite
    interpolant of y and s.  Raises ValueError, as CubicSpline does, unless
    x ascends strictly and y is finite."""
    dx = np.diff(x)
    if not (np.all(dx > 0.0) and np.isfinite(y).all()):
        raise ValueError("a spline needs ascending nodes and finite values")
    slope = np.diff(y) / dx
    band = np.zeros((3, len(x)))
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-1]
    band[-1, :-2] = dx[1:]
    rhs = np.empty(len(x))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_(n-2)
    d = x[2] - x[0]
    band[1, 0] = dx[1]
    band[0, 1] = d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    band[1, -1] = dx[-2]
    band[-1, -2] = d
    rhs[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = scipy.linalg.solve_banded((1, 1), band, rhs, overwrite_ab=True,
                                  overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return _Spline(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))


def _antiderivative(spline: _Spline) -> _Spline:
    """int_(x_0)^s of a cubic spline, as ``PPoly.antiderivative`` builds it,
    to the last bit: the coefficients divided by 4, 3, 2, 1, and each
    constant term the primitive's value at its left end, the previous piece
    summed left to right, const + c3 h + c2 h^2 + c1 h^3 + c0 h^4, with the
    powers of the width h by repeated multiplication."""
    x, c = spline
    h = np.diff(x)
    out = np.empty((5, len(h)))
    out[:-1] = c / np.array([4.0, 3.0, 2.0, 1.0])[:, None]
    terms = np.empty((len(h), 4))
    power = h.copy()
    for j in range(4):
        terms[:, j] = out[3 - j] * power
        power *= h
    out[-1, 0] = 0.0
    out[-1, 1:] = np.cumsum(terms.ravel())[3:-1:4]
    return _Spline(x, out)


_RING_NODES = 800  # intervals of the graded grid of a ring table


class _RingTable:
    """A cubic spline in s of the cumulative c(s) = int_0^s t k(t) dt of a
    radial kernel k (of its smooth part, when k has a singular part split off
    in closed form) on 800 graded nodes, and the spline's antiderivative.
    A subclass gives the dataclass fields and ``_node_values(s)``."""

    def __post_init__(self) -> None:
        s = _graded_grid(self.s_max * 1.0000001, _RING_NODES)
        with np.errstate(all="ignore"):
            try:  # the spline refuses non-finite node values
                self._cum = _not_a_knot(s, self._node_values(s))
                self._prim = _antiderivative(self._cum)
            except ValueError:
                self._prim = None
        # the antiderivative's coefficients c_j / (4 - j) carry the spline's
        if self._prim is None or not np.isfinite(self._prim.c).all():
            raise EvaluationFailure(f"{self!r}: its spline leaves the float range")
        # the right end of each interval, the last one open to the right
        self._ends = np.append(s[1:-1], np.inf)

    def _at(self, poly: _Spline, s: np.ndarray) -> np.ndarray:
        """The spline c or its antiderivative P at s >= 0, as ``poly(s)``.

        The interval k with x_k <= s < x_(k+1) (the last one from x_max on)
        needs no search on the graded nodes x_k = x_max (k/800)^1.5: k is
        800 (s/x_max)^(2/3), rounded down from a value biased low by 2^-40
        relative, which is then one too low at most, and one step up where s
        has reached x_(k+1) makes it exact."""
        x = poly.x
        z = s * (1.0 / x[-1])
        z *= z
        z = np.cbrt(z)
        z *= _RING_NODES * (1.0 - 2.0**-40)
        k = np.minimum(z.astype(np.intp), _RING_NODES - 1)
        k += s >= self._ends[k]
        del z
        return _power_sum(poly.c, k, s - x[k])

    def ring(self, hi, lo):
        """2 pi [c(hi) - c(lo)], 0 <= lo <= hi."""
        val = self._at(self._cum, hi)
        val -= self._at(self._cum, lo)
        val *= 2.0 * math.pi
        return val

    def row_integral(self, r, radius: float):
        """int_0^radius ring(r + rho, |r - rho|) drho, 0 < r < radius, exact
        for the spline: 2 pi [P(r + radius) - 2 P(r) - P(radius - r)], P = int c."""
        hi, mid, lo = (self._at(self._prim, s) for s in (r + radius, r, radius - r))
        return 2.0 * math.pi * (hi - 2.0 * mid - lo)


@dataclass
class GreenKernelTable(_RingTable):
    """The ring integral kappa(r, rho) = 2 pi int_|r-rho|^(r+rho) t G_E(t) dt
    and its row integrals.  The singularity G_E(t) ~ 1/(2 pi^2 t^2) gives
    kappa the logarithm ln((r + rho)/|r - rho|)/pi, added in closed form; the
    spline carries the rest of int t G_E(t) dt.  The rest of the K1 term,
    whose primitive is -K0, is regular (K0(x) + ln x is bounded, DLMF
    10.31.2) and is splined with the other smooth parts, so K0 is evaluated
    on the table's nodes only."""

    params: PhysParams
    s_max: float

    def _node_values(self, s: np.ndarray) -> np.ndarray:
        p = self.params
        m, nu = p.m, p.nu
        x = m * s
        xi = x[1:]
        w = np.zeros_like(x)  # both primitives vanish at x = 0
        if nu == 0.0:
            # int_0^x (x - z) K0(z) dz = x C0(x) - (1 - x K1(x))
            w[1:] = xi * k0_integral(xi) - 1.0 + xi * k1(xi)
            t1 = (m / (4.0 * math.pi)) * (x / m)
        else:
            # Fubini-swapped primitive of e^(-nu x) C(x) - sinh(nu x) T(x),
            # C and tau = e^((1+nu) x) T from _k0_moments_at, and cosh(nu x) T
            # written as (e^-x + e^(-(1+2nu) x)) tau / 2: no cosh to overflow
            c, tau = _k0_moments_at(nu, xi)
            w[1:] = (math.acos(nu) / math.sqrt(1.0 - nu * nu) - np.exp(-nu * xi) * c
                     - 0.5 * (np.exp(-xi) + np.exp(-(1.0 + 2.0 * nu) * xi)) * tau) / nu
            t1 = (m / (4.0 * math.pi)) * math.sqrt(1.0 - nu * nu) \
                * (1.0 - np.exp(-nu * x)) / p.mu
        # the regular part H(x) = K0(x) + ln x of the K1 primitive -K0/(2 pi^2)
        h = np.full_like(x, math.log(2.0) - EULER_GAMMA)
        h[1:] = k0(xi) + np.log(xi)
        return t1 + (1.0 - nu * nu) / (2.0 * math.pi**2) * w - h / (2.0 * math.pi**2)

    def ring(self, hi, lo):
        """kappa = 2 pi [c(hi) - c(lo)] + ln(hi/lo)/pi at hi = r + rho > lo = |r - rho|."""
        if np.min(lo) <= 0.0:
            raise ValueError("the ring integral diverges at r = rho")
        val = super().ring(hi, lo)
        log = np.divide(hi, lo, out=np.empty_like(val))
        val += np.divide(np.log(log, out=log), math.pi, out=log)
        return val

    def row_integral(self, r, radius: float):
        """int_0^radius kappa(r, rho) drho, 0 < r < radius, the logarithm's share exact."""
        log = ((r + radius) * np.log(r + radius) - 2.0 * r * np.log(r)
               - (radius - r) * np.log(radius - r)) / math.pi
        return super().row_integral(r, radius) + log


@dataclass
class BKernelTable(_RingTable):
    """Cumulative int_0^s t B(t) dt of the (bounded) second-order profile."""

    m: float
    s_max: float

    def _node_values(self, s: np.ndarray) -> np.ndarray:
        # splined closed form cb(m s) / m^3, cb(x) = x^3/6 - x/2 + [(x^3/3 - x)
        # C0 - x^2 K0/3 + (x^3 - 2x) K1/3 + 2/3] / pi, with cb(0) = 0
        x = self.m * s[1:]
        x2 = x * x
        cb = (x * (x2 / 6.0 - 0.5)
              + ((x2 / 3.0 - 1.0) * x * k0_integral(x) - x2 * k0(x) / 3.0
                 + (x2 - 2.0) * x * k1(x) / 3.0 + 2.0 / 3.0) / math.pi)
        return np.append(0.0, cb) / np.float64(self.m)**3


def _shared(cls):
    """A factory of read-only ``cls`` tables, built once per key: the
    positional fields, (params, s_max) or (m, s_max).  It keeps the last
    ``_CACHED`` keys, about 77 KB a table.  A build that raises is not kept,
    so the next call builds again."""
    @functools.lru_cache(maxsize=_CACHED)
    def table(*key):
        built = cls(*key)
        for a in (*built._cum, *built._prim, built._ends):
            a.flags.writeable = False
        return built
    return table


# the tables of green_kernel and b_form: one per energy, mass and reach
_green_table = _shared(GreenKernelTable)
_b_table = _shared(BKernelTable)
