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

from .fourierb import b_hat
from .kernel import (_GLX16, PhysParams, _antiderivative, _gauss_panels,
                     _not_a_knot, _Spline, _tail)
from .spectral import (BsMatrix, QuadGrid, RadialPotential, SpectralResult,
                       _shared_kernel, b_form, leading_eigenpair,
                       two_well_potential, unit_power)
from .specfun import EvaluationFailure, QuadratureError, k0_integral, k1

A_ZERO_TOL_REL = 1e-8

Branch = Literal["a_nonzero", "a_zero"]


class DivergentMomentumIntegralError(ValueError):
    """The momentum-space route to b needs a vanishing overlap integral;
    otherwise the integrand behaves like -overlap^2 / k^2 near k = 0."""


class BelowThresholdError(ValueError):
    """No bound state exists for couplings below lambda0."""


class ResolventSolveError(EvaluationFailure):
    """MINRES did not solve the projected resolvent system of ``_b_direct``.

    Carries the relative residual it reached.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


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


def _a_vanishes(a: float, mu0: float) -> bool:
    """The a = 0 rule: |a| < A_ZERO_TOL_REL mu0.

    The one place the zero-overlap branch is decided; it also decides
    whether E = 0 is an eigenvalue (``zero_energy_condition``).
    """
    return abs(a) < A_ZERO_TOL_REL * mu0


_MINRES_RTOL = 1e-14  # on the backward error |r| / (|op| |x|)


def _projected_resolvent_solve(op: BsMatrix, mu: float, v: np.ndarray,
                               rhs: np.ndarray) -> np.ndarray:
    """x with Q (mu I - M) Q x = rhs, Q = I - v v^T, for rhs in the range of Q.

    scipy's MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12 (1975) 617)
    on the symmetric operator, which may be indefinite, with products by
    M = ``op`` alone (``op.apply``).  It stops at backward error 1e-14,
    |r| <= 1e-14 |op| |x|.  A neighbour of mu at distance gap makes |x| of
    order |rhs| / gap, and a relative residual |r| <= 1e-14 |rhs| then lies
    below rounding.

    The caller needs (rhs, x), whose error is (x, r) to first order, r the
    true residual, since the operator is symmetric.  One more product forms
    r, and ResolventSolveError, carrying |r| / |rhs|, is raised when
    |(x, r)| exceeds 10 rtol |op| |x|^2, with |op| <= |mu| + |M|_F
    (``op.norm_bound``), or when n steps do not converge.  A
    backward-stable solve stays below that bound however small the gap: on
    random spectra with gaps of 1e-9 to 0.3 the ratio was at most 0.006 of
    it, while |r| itself rose to 0.1 |rhs|.

    The solve runs on c M and d rhs, c and d the powers of two of
    ``unit_power`` for ``op.scale`` and max|rhs|, and scales x back exactly,
    so no norm of the iteration overflows near the float ceiling.
    """
    from scipy.sparse.linalg import LinearOperator, minres

    n = len(rhs)
    d = unit_power(float(np.abs(rhs).max()))
    rhs = d * rhs
    size = float(np.linalg.norm(rhs))
    if size == 0.0:
        return np.zeros(n)
    c = unit_power(op.scale)
    cmu = c * mu

    def projected(x):
        x = x - (v @ x) * v
        y = cmu * x - op.apply(c * x)
        return y - (v @ y) * v

    x, info = minres(LinearOperator((n, n), matvec=projected, dtype=float), rhs,
                     rtol=_MINRES_RTOL, maxiter=n)
    r = rhs - projected(x)
    error = abs(float(x @ r))
    op_norm = abs(cmu) + c * op.norm_bound
    if info != 0 or error > 10.0 * _MINRES_RTOL * op_norm * float(x @ x):
        residual = float(np.linalg.norm(r)) / size
        raise ResolventSolveError(
            f"MINRES stopped at relative residual {residual:.3e}, "
            f"error estimate |(x, r)| = {error:.3e}", residual=residual)
    return x * (c / d)


def _b_direct(res: SpectralResult) -> float:
    """The alpha^2 coefficient of the eigenvalue series, position-space route.

    Sum of the quadratic-kernel average 2m (f, B f) and, when the overlap
    integral is nonzero, the second-order contribution of the rank-1 linear
    kernel term through the other eigenpairs.  The latter vanishes
    identically on the a = 0 branch, where 2m (f, B f) is the whole
    coefficient, and is left out for a trial state (index -1), which is not
    an eigenpair.

    With o_j = (u, v_j) for the overlap vector u and the eigenvectors v_j of
    M, the sum over j != index of (c o_j o_index)^2 / (mu - mu_j) is
    (c o_index)^2 (Q u, x) with Q = I - v v^T, v = v_index, and x the
    solution in the range of Q of Q (mu I - M) Q x = Q u.  That operator is
    symmetric, nonsingular on the range of Q for a simple mu and indefinite
    for index > 0, so MINRES solves it with products by M alone; no other
    eigenpair and no factorization is formed.  Its accuracy, like that of
    any backward-stable solve, is about eps |M| / gap relative, gap the
    distance from mu to its nearest neighbour
    (``_projected_resolvent_solve``).
    """
    r = res.grid.nodes
    w = res.grid.weights
    m = res.params.m
    b = 2.0 * m * b_form(res.grid, m, w * r * _weighted_f(res))

    if res.index >= 0 and not _a_vanishes(coefficient_a(res), res.mu0):
        v = res.vector
        uvec = np.sqrt(4.0 * math.pi * w) * r * np.sqrt(-res.potential(r))
        o = float(uvec @ v)
        qu = uvec - o * v
        x = _projected_resolvent_solve(res.matrix, res.mu0, v, qu)
        co = -m / (2.0 * math.pi) * o
        # co * co, not co ** 2, which raises OverflowError on a Python float
        b += float(2.0 * m * (co * co) * (qu @ x))
    if not math.isfinite(b):
        raise EvaluationFailure(f"coefficient b at m = {m}, R = {res.grid.radius}: "
                                f"{b} is not finite")
    return b


_K_BREAKS = (0.0, 1.0, 5.0, 60.0)  # the k-intervals of the momentum route
_K_CHUNK = 128  # panels per block of f_hat: temporaries of 128 x n doubles


def _panel_edges(breaks: Sequence[float], width: float) -> list[np.ndarray]:
    """Edges of equal panels no wider than ``width``, one array for each
    interval between consecutive breaks."""
    return [np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)
            for lo, hi in zip(breaks[:-1], breaks[1:])]


def _panel_rule(breaks: Sequence[float], width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on equal panels
    no wider than ``width`` between consecutive breaks."""
    edges = _panel_edges(breaks, width)
    k, w = _gauss_panels(np.concatenate([e[:-1] for e in edges]),
                         np.concatenate([e[1:] for e in edges]))
    return k.ravel(), w.ravel()


def _sine_sums(edges: np.ndarray, phase: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """sum_i wgt_i sin(k phase_i) at the 16 Gauss-Legendre nodes of each
    equal panel between ``edges``, in ``_panel_rule``'s order.

    A node is k = c + d, c its panel's centre and d one of the 16 offsets
    the panels share, so sin(k phase) = sin(c phase) cos(d phase) +
    cos(c phase) sin(d phase): two products of P x n and 16 x n arrays, for
    P panels and n phases, in place of the 16 P x n sines of the nodes."""
    centres = 0.5 * (edges[:-1] + edges[1:])
    offsets = np.multiply.outer(0.5 * (edges[1] - edges[0]) * _GLX16, phase)
    cos_d, sin_d = np.cos(offsets) * wgt, np.sin(offsets) * wgt
    sums = np.empty((len(centres), len(_GLX16)))
    for i in range(0, len(centres), _K_CHUNK):
        arg = np.multiply.outer(centres[i:i + _K_CHUNK], phase)
        sums[i:i + _K_CHUNK] = np.sin(arg) @ cos_d.T + np.cos(arg) @ sin_d.T
    return sums.ravel()


def _b_momentum(res: SpectralResult) -> float:
    """b = 2m int B_hat(k) |f_hat(k)|^2 d^3k, defined only when a = 0.

    f_hat(k) = (2/k) sum_i w_i r_i f_i sin(2 pi k r_i) oscillates with period
    1/R in k, so the rule is ``_panel_rule`` with panels no wider than 1/(2R)
    on (0, 1), (1, 5) and (5, 60), and the sums come from ``_sine_sums``.
    The same rule on panels twice as wide checks it: QuadratureError,
    carrying the estimate and the difference, when the two differ by more
    than 50 max(1e-13, 1e-10 |b|).
    """
    a = coefficient_a(res)
    if not _a_vanishes(a, res.mu0):
        raise DivergentMomentumIntegralError(
            f"divergent momentum integral: |a| = {abs(a):.3e} >= "
            f"{A_ZERO_TOL_REL * res.mu0:.3e}; "
            "the k -> 0 behavior -overlap^2/k^2 is non-integrable")
    r = res.grid.nodes
    wgt = res.grid.weights * r * _weighted_f(res)
    m = res.params.m
    phase = 2.0 * math.pi * r

    def integral(width: float) -> float:
        k, w = _panel_rule(_K_BREAKS, width)
        fhat = np.concatenate([_sine_sums(e, phase, wgt)
                               for e in _panel_edges(_K_BREAKS, width)])
        fhat *= 2.0 / k
        # the quadratic-kernel profile enters the eigenvalue series with a
        # 1/(4 pi) relative to its raw transform, cancelling the angular 4 pi
        return 2.0 * m * float(w @ (k * k * b_hat(k / m) / m**4 * fhat * fhat))

    radius = res.grid.radius
    b, wide = integral(0.5 / radius), integral(1.0 / radius)
    bound = 50.0 * max(1e-13, 1e-10 * abs(b))
    if abs(b - wide) > bound:
        raise QuadratureError(
            f"momentum route to b did not converge: {b} on panels of width 1/(2R), "
            f"{wide} on panels of width 1/R, difference above {bound}",
            estimate=b, error_bound=abs(b - wide))
    return b


class BRoutes(NamedTuple):
    direct: float
    momentum: float | None


def coefficient_b(res: SpectralResult, route: str = "direct"):
    """Quadratic coefficient b, by position-space and/or momentum-space route.

    route = "direct" or "momentum" returns a float; "both" returns a
    BRoutes pair (momentum entry None when the overlap does not vanish).
    """
    if route == "direct":
        return _b_direct(res)
    if route == "momentum":
        return _b_momentum(res)
    if route == "both":
        direct = _b_direct(res)
        try:
            momentum = _b_momentum(res)
        except DivergentMomentumIntegralError:
            momentum = None
        return BRoutes(direct=direct, momentum=momentum)
    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class ThresholdExpansion:
    """Coefficients of lambda(alpha)^(-1) = mu0 + a alpha + b alpha^2."""

    mu0: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.mu0 <= 0.0 or not math.isfinite(self.mu0):
            raise ValueError("mu0 must be positive and finite")
        if self.a > 0.0:
            raise ValueError("a must be <= 0 (minus a multiple of a square)")

    @property
    def lambda0(self) -> float:
        """The threshold coupling 1/mu0."""
        return 1.0 / self.mu0

    @property
    def branch(self) -> Branch:
        return "a_zero" if _a_vanishes(self.a, self.mu0) else "a_nonzero"


def expansion_from_state(res: SpectralResult) -> ThresholdExpansion:
    """Assemble the threshold expansion for an eigenpair at E = 0."""
    return ThresholdExpansion(mu0=res.mu0, a=coefficient_a(res), b=_b_direct(res))


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


_T_STEP = 8.0  # widest step of the far-end sum of T
_K1_GONE = 750.0  # K1(z)/z underflows to 0 past this z, and T with it
_T_CLOSED_BELOW = 1.0  # small_x_constants' T in closed form below this x


def _k1_over_z_tail(x: np.ndarray) -> np.ndarray:
    """T(x) = int_x^inf K1(z)/z dz at each x > 0 of an ascending 1-d array,
    summed from the far end (``kernel._tail``).  A gap of x that starts
    below z = 750 is cut into equal steps no wider than its left end or
    than 8, so that each 16-point panel of the sum is exact to rounding.
    No value cancels, where K1 + C0 - pi/2 loses the digits of T as T
    falls: 2e-11 of them at x = 5, 1e-6 at 10 and all at 40."""
    lo, gap = x[:-1], np.diff(x)
    steps = np.where(lo < _K1_GONE,
                     np.ceil(np.minimum(gap, _K1_GONE) / np.minimum(lo, _T_STEP)),
                     1.0).astype(int)
    at = np.concatenate([[0], np.cumsum(steps)])  # where each x sits in the grid
    j = np.arange(at[-1]) - np.repeat(at[:-1], steps)  # the step within its gap
    grid = np.append(np.repeat(lo, steps) + j * np.repeat(gap / steps, steps), x[-1])
    return _tail(lambda z: k1(z) / z, grid)[at]


def _tail_k1_over_z(lo: float, hi: float) -> _Spline:
    """T(x) = int_x^inf K1(z)/z dz on [lo, hi], lo > 0, splined on 800
    geometrically spaced nodes whose values are ``_k1_over_z_tail``'s.  T
    falls like e^-x, so the nodes are densest where it is largest: on
    [4, 51], the spline's primitive is within 4e-13 of int_4^6 T and
    int_4.02^5.98 T, where 800 equal steps leave 7e-12 and 6e-11."""
    grid = np.geomspace(lo, hi, 800)
    return _not_a_knot(grid, _k1_over_z_tail(grid))


def _kappa_far(r: np.ndarray, rho: np.ndarray, m: float) -> np.ndarray:
    """2 pi int_|r-rho|^(r+rho) t G_0(t) dt for r - rho > 0.

    At E = 0 the profile t G_0(t) is m/(2 pi) plus (m/(2 pi^2)) T(mt) with
    T(x) = int_x^inf K1(z)/z dz, so the integral is 2 m rho plus 1/pi times
    int_lo^hi T over x = mt.  That comes from the primitive P of T's spline
    (``kernel._antiderivative``), which needs no K0 and does not cancel as
    the closed primitive x T(x) - K0(x) does.
    """
    hi, lo = m * (r + rho), m * (r - rho)
    prim = _antiderivative(_tail_k1_over_z(float(np.min(lo)) * 0.999,
                                           float(np.max(hi)) * 1.001))
    return 2.0 * m * rho + (prim(hi) - prim(lo)) / math.pi


@dataclass(frozen=True)
class DecayReport:
    """Power-law fit of the reconstructed resonance function at large radii."""

    gamma: float
    prefactor: float          # limit of r * u(r) along the fit window
    predicted_prefactor: float  # (m / (2 pi mu0)) * int |V| u
    r_values: np.ndarray
    u_values: np.ndarray


_DECAY_MARGIN = 1e7  # u is fitted where it stands this far above its rounding


def u_reconstruct(res: SpectralResult, r_far: Sequence[float]) -> DecayReport:
    """Reconstruct u = mu0^(-1) G_0 |V|^(1/2) phi at radii beyond the support.

    Fits u ~ r^(-gamma); gamma is 1 with prefactor (m/(2 pi mu0)) int |V| u
    when the overlap integral is nonzero, and the power-law fit steepens
    sharply (exponential decay) when the overlap vanishes.  The far-field
    kernel is 2 m rho + D (``_kappa_far``), so mu0 r u is the overlap term
    sum_j c_j 2 m rho_j plus sum_j c_j D_j, which falls like e^(-m r).
    Where the overlap vanishes, its term is rounding, eps sum_j |c_j 2 m
    rho_j|, and u past the radius where the D part falls to that floor is
    noise: gamma is fitted on the radii where |mu0 r u| is at least 1e7
    times the floor, so that rounding moves no fitted log u by more than
    about 1e-7.  Fewer than 3 such radii raise ``EvaluationFailure``.  The
    prefactor is the mean of r u over all the radii.
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
    c = w * rho * _weighted_f(res)
    kappa = _kappa_far(r_far[:, None], rho[None, :], m)
    total = kappa @ c  # mu0 r u
    u = total / (res.mu0 * r_far)

    # At the eigenpair, |V| u = |V|^(1/2) phi, so int |V| u is the overlap.
    int_vu = overlap_integral(res)
    predicted = (m / (2.0 * math.pi * res.mu0)) * int_vu

    floor = np.finfo(float).eps * 2.0 * m * float(np.abs(c * rho).sum())
    fit = np.abs(total) >= _DECAY_MARGIN * floor
    if np.count_nonzero(fit) < 3:
        raise EvaluationFailure(
            f"decay fit of u at E = 0, m = {m}, R = {R}: |mu0 r u| is at least "
            f"{_DECAY_MARGIN:g} times the overlap term's rounding {floor:.3g} at "
            f"{np.count_nonzero(fit)} of {len(r_far)} radii, and the fit needs 3")
    gamma = -float(np.polyfit(np.log(r_far[fit]), np.log(np.abs(u[fit])), 1)[0])
    prefactor = float(np.mean(r_far * u))
    return DecayReport(gamma=gamma, prefactor=prefactor,
                       predicted_prefactor=predicted,
                       r_values=r_far, u_values=u)


@dataclass(frozen=True)
class ZeroEnergyReport:
    """Whether E = 0 is a genuine eigenvalue rather than a resonance.

    ``tol`` bounds |a| = (m^(3/2)/(sqrt(2) pi)) overlap^2, not the overlap
    itself: E = 0 is an eigenvalue iff |a| < tol, the rule that labels the
    expansion's branch "a_zero".
    """

    is_eigenvalue: bool
    overlap: float
    tol: float
    decay_gamma: float | None


def zero_energy_condition(res: SpectralResult,
                          check_decay: bool = False) -> ZeroEnergyReport:
    """E = 0 is an eigenvalue iff the overlap integral vanishes, i.e. a = 0."""
    gamma = None
    if check_decay:
        R = res.grid.radius
        gamma = u_reconstruct(res, np.geomspace(5.0 * R, 50.0 * R, 25)).gamma
    return ZeroEnergyReport(is_eigenvalue=_a_vanishes(coefficient_a(res), res.mu0),
                            overlap=overlap_integral(res),
                            tol=A_ZERO_TOL_REL * res.mu0, decay_gamma=gamma)


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
    x = m * r
    # T(x) = int_x^inf K1(z)/z dz: in closed form below x = 1, where it
    # keeps its digits, summed from the far end up to where it underflows
    near, far = x < _T_CLOSED_BELOW, (x >= _T_CLOSED_BELOW) & (x < _K1_GONE)
    tail = np.zeros_like(x)
    tail[near] = k1(x[near]) + k0_integral(x[near]) - math.pi / 2.0
    if far.any():
        tail[far] = _k1_over_z_tail(x[far])
    a2 = 4.0 * math.pi * float(np.sum(w * r * vu * tail))
    return SmallXConstants(a1=a1, a2=a2,
                           a1_finite=bool(np.isfinite(a1)),
                           a2_finite=bool(np.isfinite(a2)))


def synthetic_zero_overlap_state(matrix: BsMatrix) -> SpectralResult:
    """A sign-balanced trial state with exactly cancelling overlap integral.

    Not an eigenfunction: it projects a smooth trial vector orthogonal to
    the overlap functional, for exercising the a = 0 formulas.  mu0 is the
    Rayleigh quotient of the trial state in ``matrix``, which must be
    assembled at E = 0.
    """
    if matrix.params.E != 0.0:
        raise ValueError("the zero-overlap state is defined at threshold (E = 0)")
    potential, grid = matrix.potential, matrix.grid
    r, w = grid.nodes, grid.weights
    u = np.sqrt(4.0 * math.pi * w) * r * np.sqrt(-potential(r))
    g = np.exp(-((2.0 * r / grid.radius) ** 2)) * u
    v = g - (u @ g / (u @ u)) * u
    nrm = np.linalg.norm(v)
    if nrm < 1e-200:
        raise ValueError("potential too degenerate for the sign-balanced state")
    v /= nrm
    mu = float(v @ matrix.apply(v))
    return SpectralResult(mu0=mu, vector=v, gap=np.inf, residual=np.nan,
                          index=-1, matrix=matrix)


def tune_zero_overlap(grid: QuadGrid,
                      m: float = 1.0) -> tuple[RadialPotential, SpectralResult]:
    """Two-well potential tuned so its first excited state has zero overlap.

    Scans the depth ratio in [1, 4] of the outer well against an inner well
    of depth 8; the overlap integral of the first excited eigenstate changes
    sign along the scan and a root is bracketed and solved, yielding a
    genuine eigenpair on the a = 0 branch.  Each ratio is solved once, and
    the state at the root is kept from the search: 21 eigensolves on the
    n = 150 and n = 200 grids.
    """
    depth1 = 8.0
    p = PhysParams(m=m, E=0.0)
    # read-only, so that each ratio's matrix is a new array and the kernel
    # serves them all
    kappa = _shared_kernel(grid, p)
    kappa.flags.writeable = False
    overlaps = {}  # the objective at every ratio solved
    recent = {}    # the states of the last two ratios solved, oldest first

    def solve(ratio: float) -> SpectralResult:
        # sign-continuous along the scan: each state follows the last one
        # solved, which is kept; the one before it is released first, so
        # no more than two states are alive
        if len(recent) == 2:
            del recent[next(iter(recent))]
        last = next(reversed(recent.values()), None)
        pot = two_well_potential(depth1, ratio * depth1, radius=grid.radius)
        res = leading_eigenpair(BsMatrix.from_kernel(pot, p, grid, kappa), index=1,
                                sign_reference=None if last is None else last.vector)
        recent[ratio] = res
        return res

    def objective(ratio: float) -> float:
        # brentq opens on the bracket, whose values the scan has: solve
        # each ratio once
        ratio = float(ratio)
        if ratio not in overlaps:
            overlaps[ratio] = overlap_integral(solve(ratio))
        return overlaps[ratio]

    # scan up to the first sign change only
    ratios = np.geomspace(1.0, 4.0, 25)
    bracket = None
    f0 = objective(ratios[0])
    for x0, x1 in zip(ratios[:-1], ratios[1:]):
        f1 = objective(x1)
        if f0 == 0.0 or f0 * f1 < 0.0:
            bracket = (x0, x1)
            break
        f0 = f1
    if bracket is None:
        raise ValueError("overlap does not change sign over the scanned ratios")
    from scipy.optimize import brentq

    root = brentq(objective, *bracket, xtol=1e-13)
    # the root is a ratio brentq evaluated, most often the one before its
    # last step
    res = recent[root] if root in recent else solve(root)
    # brentq's wrapper of ``objective`` is a reference cycle that keeps these
    # closures until a full collection: release the arrays they reach now
    recent.clear()
    del kappa
    return two_well_potential(depth1, root * depth1, radius=grid.radius), res
