"""Coupling-constant threshold expansion and its inversion to E(lambda).

Expands the inverse coupling at which a bound state exists,

    lambda(alpha)^(-1) = mu0 + a alpha + b alpha^2 + O(alpha^3),   E = -alpha^2,

around the threshold lambda0 = 1/mu0.  The linear coefficient is minus a
positive multiple of the squared overlap integral of |V|^(1/2) phi, so the
inversion has two regimes: a generic quadratic one (a < 0, E ~ (lambda -
lambda0)^2) and a linear one when the overlap vanishes (a = 0, which is
also the condition for E = 0 to be a genuine eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.optimize import brentq

from scipy.interpolate import CubicSpline

from .fourierb import b_hat
from .kernel import BKernelTable, PhysParams, _GLX16, _GLW16
from .spectral import (QuadGrid, RadialPotential, SpectralResult,
                       leading_eigenpair, s_wave_reduce, two_well_potential)
from .specfun import k0, k0_weighted_integral, k1

A_ZERO_TOL_REL = 1e-8

Branch = Literal["a_nonzero", "a_zero"]


class DivergentMomentumIntegralError(ValueError):
    """The momentum-space route to b needs a vanishing overlap integral;
    otherwise the integrand behaves like -overlap^2 / k^2 near k = 0."""


class BelowThresholdError(ValueError):
    """No bound state exists for couplings below lambda0."""


def overlap_integral(res: SpectralResult) -> float:
    """The 3-D overlap int |V(y)|^(1/2) phi(y) d^3y on the s-wave grid."""
    r = res.grid.nodes
    w = res.grid.weights
    root_v = np.sqrt(-res.potential(r))
    return float(4.0 * math.pi * np.sum(w * r * r * root_v * res.phi))


def coefficient_a(res: SpectralResult) -> float:
    """Linear coefficient a = -(m^(3/2)/(sqrt(2) pi)) * overlap^2 <= 0."""
    m = res.params.m
    o = overlap_integral(res)
    return -(m**1.5 / (math.sqrt(2.0) * math.pi)) * o * o


def _weighted_f(res: SpectralResult) -> np.ndarray:
    """Samples of f = |V|^(1/2) phi on the grid nodes."""
    return np.sqrt(-res.potential(res.grid.nodes)) * res.phi


def _b_direct(res: SpectralResult, a_zero_tol: float | None = None) -> float:
    """The alpha^2 coefficient of the eigenvalue series, position-space route.

    Sum of the quadratic-kernel average 2m (f, B f) and, when the overlap
    integral is nonzero, the second-order contribution of the rank-1 linear
    kernel term through the other eigenpairs.  The latter vanishes
    identically on the a = 0 branch, where 2m (f, B f) is the whole
    coefficient.  The other eigenpairs are the ones ``res`` carries.
    """
    r = res.grid.nodes
    w = res.grid.weights
    m = res.params.m
    table = BKernelTable(m, s_max=2.0 * res.grid.radius * 1.001)
    kappa = table.ring_integral(r[:, None], r[None, :])
    f = _weighted_f(res)
    u = w * r * f
    b = float(2.0 * m * u @ kappa @ u)

    if a_zero_tol is None:
        a_zero_tol = A_ZERO_TOL_REL * res.mu0
    if abs(coefficient_a(res)) < a_zero_tol or res.index < 0:
        return b
    vals, vecs = res.eigvals, res.eigvecs
    uvec = np.sqrt(4.0 * math.pi * w) * r * np.sqrt(-res.potential(r))
    overlaps = uvec @ vecs
    i0 = res.index
    c = -m / (2.0 * math.pi)
    others = np.arange(len(vals)) != i0
    pt = np.sum((c * overlaps[others] * overlaps[i0]) ** 2
                / (vals[i0] - vals[others]))
    return b + float(2.0 * m * pt)


def _b_momentum(res: SpectralResult, a_zero_tol: float, k_max: float = 60.0) -> float:
    """b = 2m int B_hat(k) |f_hat(k)|^2 d^3k, defined only when a = 0."""
    a = coefficient_a(res)
    if abs(a) >= a_zero_tol:
        raise DivergentMomentumIntegralError(
            f"divergent momentum integral: |a| = {abs(a):.3e} >= {a_zero_tol:.3e}; "
            "the k -> 0 behavior -overlap^2/k^2 is non-integrable")
    r = res.grid.nodes
    wgt = res.grid.weights * r * _weighted_f(res)
    m = res.params.m

    def integrand(k):
        fhat = (2.0 / k) * np.sum(wgt * np.sin(2.0 * math.pi * k * r))
        return k * k * b_hat(k / m) / m**4 * fhat * fhat

    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, 5.0), (5.0, k_max)):
        val, _ = _scipy_quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-10,
                             limit=400)
        total += val
    # the quadratic-kernel profile enters the eigenvalue series with a
    # 1/(4 pi) relative to its raw transform, cancelling the angular 4 pi
    return 2.0 * m * total


class BRoutes(NamedTuple):
    direct: float
    momentum: float | None


def coefficient_b(res: SpectralResult, route: str = "direct",
                  a_zero_tol_rel: float = A_ZERO_TOL_REL):
    """Quadratic coefficient b, by position-space and/or momentum-space route.

    route = "direct" or "momentum" returns a float; "both" returns a
    BRoutes pair (momentum entry None when the overlap does not vanish).
    """
    a_zero_tol = a_zero_tol_rel * res.mu0
    if route == "direct":
        return _b_direct(res)
    if route == "momentum":
        return _b_momentum(res, a_zero_tol)
    if route == "both":
        direct = _b_direct(res)
        try:
            momentum = _b_momentum(res, a_zero_tol)
        except DivergentMomentumIntegralError:
            momentum = None
        return BRoutes(direct=direct, momentum=momentum)
    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class ThresholdExpansion:
    """Coefficients of lambda(alpha)^(-1) = mu0 + a alpha + b alpha^2."""

    mu0: float
    lambda0: float
    a: float
    b: float
    branch: Branch
    a_zero_tol: float

    def __post_init__(self) -> None:
        if self.mu0 <= 0.0 or not math.isfinite(self.mu0):
            raise ValueError("mu0 must be positive and finite")
        if abs(self.lambda0 * self.mu0 - 1.0) > 1e-12:
            raise ValueError("lambda0 must equal 1/mu0")
        if self.a > 0.0:
            raise ValueError("a must be <= 0 (minus a multiple of a square)")
        want: Branch = "a_zero" if abs(self.a) < self.a_zero_tol else "a_nonzero"
        if self.branch != want:
            raise ValueError(f"branch label inconsistent with |a| vs tolerance "
                             f"({self.branch!r}, expected {want!r})")


def expansion_from_state(res: SpectralResult,
                         a_zero_tol_rel: float = A_ZERO_TOL_REL) -> ThresholdExpansion:
    """Assemble the threshold expansion for an eigenpair at E = 0."""
    a = coefficient_a(res)
    b = _b_direct(res)
    tol = a_zero_tol_rel * res.mu0
    branch: Branch = "a_zero" if abs(a) < tol else "a_nonzero"
    return ThresholdExpansion(mu0=res.mu0, lambda0=1.0 / res.mu0, a=a, b=b,
                              branch=branch, a_zero_tol=tol)


def lambda_of_alpha(exp: ThresholdExpansion, alpha: float) -> float:
    """lambda(alpha) = 1 / (mu0 + a alpha + b alpha^2) for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    denom = exp.mu0 + exp.a * alpha + exp.b * alpha * alpha
    if denom <= 0.0:
        raise ValueError(f"inverse coupling series non-positive at alpha={alpha}; "
                         "outside the validity range of the expansion")
    return 1.0 / denom


def energy_of_lambda(exp: ThresholdExpansion, lam: float) -> float:
    """E(lambda) <= 0 from inverting the threshold series.

    On the generic branch the small root of b alpha^2 + a alpha = 1/lambda0
    - 1/lambda gives E = -alpha^2 ~ -(lambda - lambda0)^2 / (lambda0^2 a)^2.
    On the a = 0 branch (which requires b < 0) the relation is linear,
    E = -(mu0 - 1/lambda)/(-b).

    E(lambda0) is exactly 0.0, and so is E on the tolerated band
    [lambda0 (1 - 1e-14), lambda0] just below it; couplings further below
    raise BelowThresholdError.
    """
    if lam < exp.lambda0 * (1.0 - 1e-14):
        raise BelowThresholdError(
            f"lambda = {lam} is below threshold lambda0 = {exp.lambda0}")
    # lambda0 is the rounded 1/mu0, so mu0 - 1/lam can be an ulp off either
    # way near threshold: decide lam <= lambda0 on lambda itself, and just
    # above it let a delta_mu that rounds to <= 0 give E = 0
    if lam <= exp.lambda0:
        return 0.0
    delta_mu = exp.mu0 - 1.0 / lam
    if delta_mu <= 0.0:
        return 0.0
    if exp.branch == "a_zero":
        if exp.b >= 0.0:
            raise ValueError("the a = 0 branch requires b < 0")
        return -delta_mu / (-exp.b)
    # small positive root of b alpha^2 + a alpha + delta_mu = 0, written as
    # 2 / (x + sqrt(x^2 - 4 b / delta_mu)) with x = -a / delta_mu: no
    # cancellation (a < 0), and for b < 0 every operation is monotone in
    # delta_mu, so E is non-increasing in lambda to the last ulp
    x = -exp.a / delta_mu
    disc = x * x + 4.0 * (-exp.b) / delta_mu
    if disc < 0.0:
        raise ValueError(f"inversion leaves the real regime at lambda={lam}")
    alpha = 2.0 / (x + math.sqrt(disc))
    return -alpha * alpha


def _kappa_far(r: np.ndarray, rho: np.ndarray, m: float) -> np.ndarray:
    """2 pi int_|r-rho|^(r+rho) t G_0(t) dt for r - rho > 0, closed form.

    At E = 0 the profile t G_0(t) is m/(2 pi) plus (m/(2 pi^2)) T(mt) with
    T(x) = int_x^inf K1(z)/z dz, whose primitive is x T(x) - K0(x).
    """
    hi = m * (r + rho)
    lo = m * (r - rho)
    x_min = float(np.min(lo))
    x_max = float(np.max(hi))
    grid = np.linspace(x_min * 0.999, x_max * 1.001, 800)
    a, b = grid[:-1], grid[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    z = mid + half * _GLX16[None, :]
    fz = k1(z) / z
    cum = np.concatenate([[0.0], np.cumsum((half * _GLW16 * fz).sum(axis=1))])
    t_end = k0_weighted_integral("tail_k1_over_z", grid[-1])
    t_spline = CubicSpline(grid, t_end + (cum[-1] - cum))

    def prim(x):
        return x * t_spline(x) - k0(x)

    return 2.0 * m * rho + (prim(hi) - prim(lo)) / math.pi


@dataclass(frozen=True)
class DecayReport:
    """Power-law fit of the reconstructed resonance function at large radii."""

    gamma: float
    prefactor: float          # limit of r * u(r) along the fit window
    predicted_prefactor: float  # (m / (2 pi mu0)) * int |V| u
    r_values: np.ndarray
    u_values: np.ndarray


def u_reconstruct(res: SpectralResult, r_far: Sequence[float]) -> DecayReport:
    """Reconstruct u = mu0^(-1) G_0 |V|^(1/2) phi at radii beyond the support.

    Fits u ~ r^(-gamma); gamma is 1 with prefactor (m/(2 pi mu0)) int |V| u
    when the overlap integral is nonzero, and the power-law fit steepens
    sharply (exponential decay) when the overlap vanishes.
    """
    if res.params.E != 0.0:
        raise ValueError("reconstruction is defined at threshold (E = 0)")
    r_far = np.asarray(r_far, dtype=float)
    R = res.grid.radius
    if np.any(r_far <= R):
        raise ValueError("all fit radii must lie outside the potential support")
    rho = res.grid.nodes
    w = res.grid.weights
    m = res.params.m
    f = _weighted_f(res)
    kappa = _kappa_far(r_far[:, None], rho[None, :], m)
    u = (kappa @ (w * rho * f)) / (res.mu0 * r_far)

    # At the eigenpair, |V| u = |V|^(1/2) phi, so int |V| u is the overlap.
    int_vu = overlap_integral(res)
    predicted = (m / (2.0 * math.pi * res.mu0)) * int_vu

    logr = np.log(r_far)
    logu = np.log(np.maximum(np.abs(u), 1e-300))
    gamma = -float(np.polyfit(logr, logu, 1)[0])
    prefactor = float(np.mean(r_far * u))
    return DecayReport(gamma=gamma, prefactor=prefactor,
                       predicted_prefactor=predicted,
                       r_values=r_far, u_values=u)


@dataclass(frozen=True)
class ZeroEnergyReport:
    """Whether E = 0 is a genuine eigenvalue rather than a resonance."""

    is_eigenvalue: bool
    overlap: float
    tol: float
    decay_gamma: float | None


def zero_energy_condition(res: SpectralResult, tol: float | None = None,
                          check_decay: bool = False) -> ZeroEnergyReport:
    """E = 0 is an eigenvalue iff the overlap integral vanishes (within tol)."""
    if tol is None:
        tol = A_ZERO_TOL_REL * max(res.mu0, 1.0)
    o = overlap_integral(res)
    gamma = None
    if check_decay:
        R = res.grid.radius
        gamma = u_reconstruct(res, np.geomspace(5.0 * R, 50.0 * R, 25)).gamma
    return ZeroEnergyReport(is_eigenvalue=abs(o) < tol, overlap=o, tol=tol,
                            decay_gamma=gamma)


class SmallXConstants(NamedTuple):
    a1: float
    a2: float
    a1_finite: bool
    a2_finite: bool


def small_x_constants(res: SpectralResult) -> SmallXConstants:
    """Constants of the small-|x| expansion of the reconstructed function.

    A1 = int |y|^(-1) |V| u d^3y and A2 the same integral weighted by
    int_{|y|}^inf K1(z)/z dz, with |V| u = mu0 |V|^(1/2) phi on the grid.
    """
    r = res.grid.nodes
    w = res.grid.weights
    m = res.params.m
    vu = res.mu0 * _weighted_f(res)
    a1 = 4.0 * math.pi * float(np.sum(w * r * vu))
    tail = np.array([k0_weighted_integral("tail_k1_over_z", float(m * ri))
                     for ri in r])
    a2 = 4.0 * math.pi * float(np.sum(w * r * vu * tail))
    return SmallXConstants(a1=a1, a2=a2,
                           a1_finite=bool(np.isfinite(a1)),
                           a2_finite=bool(np.isfinite(a2)))


def synthetic_zero_overlap_state(potential: RadialPotential, grid: QuadGrid,
                                 m: float = 1.0) -> SpectralResult:
    """A sign-balanced trial state with exactly cancelling overlap integral.

    Not an eigenfunction: it projects a smooth trial vector orthogonal to
    the overlap functional, for exercising the a = 0 formulas.  mu0 is the
    Rayleigh quotient of the trial state.
    """
    p = PhysParams(m=m, E=0.0)
    mat = s_wave_reduce(potential, p, grid)
    r = grid.nodes
    w = grid.weights
    u = np.sqrt(4.0 * math.pi * w) * r * np.sqrt(-potential(r))
    g = np.exp(-((2.0 * r / grid.radius) ** 2)) * u
    v = g - (u @ g / (u @ u)) * u
    nrm = np.linalg.norm(v)
    if nrm < 1e-200:
        raise ValueError("potential too degenerate for the sign-balanced state")
    v /= nrm
    mu = float(v @ mat.entries @ v)
    phi = v / (np.sqrt(4.0 * math.pi * w) * r)
    return SpectralResult(mu0=mu, lambda0=1.0 / mu, phi=phi, vector=v,
                          gap=np.inf, residual=np.nan, index=-1,
                          grid=grid, potential=potential, params=p,
                          eigvals=None, eigvecs=None)


def tune_zero_overlap(grid: QuadGrid, m: float = 1.0, depth1: float = 8.0,
                      ratio_bounds: tuple[float, float] = (1.0, 4.0),
                      centers: tuple[float, float] = (0.2, 0.7),
                      widths: tuple[float, float] = (0.15, 0.12),
                      index: int = 1) -> tuple[RadialPotential, SpectralResult]:
    """Two-well potential tuned so an excited eigenstate has zero overlap.

    Scans the depth ratio of the outer well; the overlap integral of the
    index-th eigenstate changes sign along the scan and a root is bracketed
    and solved, yielding a genuine eigenpair on the a = 0 branch.
    """
    p = PhysParams(m=m, E=0.0)
    ref_vec = {}

    def state_at(ratio: float) -> SpectralResult:
        # sign-continuous along the scan: each state follows the previous one
        pot = two_well_potential(depth1, ratio * depth1, radius=grid.radius,
                                 centers=centers, widths=widths)
        res = leading_eigenpair(s_wave_reduce(pot, p, grid), index=index,
                                sign_reference=ref_vec.get("v"))
        ref_vec["v"] = res.vector
        return res

    def objective(ratio: float) -> float:
        return overlap_integral(state_at(ratio))

    ratios = np.geomspace(ratio_bounds[0], ratio_bounds[1], 25)
    vals = [objective(x) for x in ratios]
    bracket = None
    for x0, x1, f0, f1 in zip(ratios[:-1], ratios[1:], vals[:-1], vals[1:]):
        if f0 == 0.0 or f0 * f1 < 0.0:
            bracket = (x0, x1)
            break
    if bracket is None:
        raise ValueError("overlap does not change sign over the scanned ratios")
    root = brentq(objective, *bracket, xtol=1e-13)
    res = state_at(root)
    pot = two_well_potential(depth1, root * depth1, radius=grid.radius,
                             centers=centers, widths=widths)
    return pot, res


def continuation_derivatives(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(d mu/d alpha, 1/2 d^2 mu/d alpha^2) at alpha = 0 from a quadratic fit."""
    alphas = np.array([a for a, _ in points])
    mus = np.array([v for _, v in points])
    coeffs = np.polyfit(alphas, mus, 2)
    return float(coeffs[1]), float(coeffs[0])
