"""Modified Bessel functions K0/K1, their weighted integrals, and the 3F2.

Everything here is evaluated in m = 1 internal units; callers rescale their
arguments.  The library evaluates K0/K1 through ``k0``/``k1`` and the K0
integral through ``k0_integral``, and the scaled e^x K0(x) and e^x K1(x)
through ``k0e`` and ``k1e``, thin checked wrappers over the compiled
``scipy.special`` ufuncs.  ``bessel_k`` computes K0/K1 from scratch
(ascending series below the switch point, a generalized Gauss-Laguerre
representation above it); it is the oracle the wrappers are tested against,
and is itself validated against independent integral-representation oracles
in the test suite.  Every adaptive integral of the package runs through
``checked_quad``, which raises ``QuadratureError`` instead of returning an
unconverged value; only the oracles call it (``k0_weighted_integral``,
``kernel.b_profile`` and ``quad``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc
from scipy.special import roots_genlaguerre

EULER_GAMMA = 0.57721566490153286061

# Argument where the K0/K1 evaluation switches from the ascending series to
# the Gauss-Laguerre form of the large-argument integral representation.
_SERIES_SWITCH = 2.0
_SERIES_TERMS = 40

_GL_NODES = {
    0: roots_genlaguerre(80, -0.5),
    1: roots_genlaguerre(80, 0.5),
}


class EvaluationFailure(RuntimeError):
    """A numerical strategy failed to converge; never a silent wrong value."""


class QuadratureError(EvaluationFailure):
    """An adaptive integral missed its tolerance.

    Carries the best available estimate and QUADPACK's error estimate.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def checked_quad(f, a: float, b: float, abs_tol: float = 1e-12,
                 rel_tol: float = 1e-10, limit: int = 200) -> float:
    """Adaptive integral of f over (a, b), b possibly inf.

    Raises QuadratureError when QUADPACK's error estimate exceeds
    50 max(abs_tol, rel_tol |estimate|) (Piessens et al., QUADPACK, 1983).
    """
    from scipy.integrate import quad

    val, err = quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit)
    bound = 50.0 * max(abs_tol, rel_tol * abs(val))
    if err > bound:
        raise QuadratureError(
            f"integral over ({a}, {b}) did not converge: estimate {val}, "
            f"error estimate {err} > bound {bound}",
            estimate=val, error_bound=err)
    return val


def _k0_series(x):
    q = x * x / 4.0
    term = np.ones_like(x)
    s_i0 = np.ones_like(x)
    s_h = np.zeros_like(x)
    harmonic = 0.0
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * k)
        harmonic += 1.0 / k
        s_i0 += term
        s_h += term * harmonic
    return -(np.log(x / 2.0) + EULER_GAMMA) * s_i0 + s_h


def _k1_series(x):
    q = x * x / 4.0
    term = np.ones_like(x)
    s_i1 = np.ones_like(x)
    s_h = (1.0 - 2.0 * EULER_GAMMA) * np.ones_like(x)  # H_0 + H_1 - 2*gamma
    h0, h1 = 0.0, 1.0
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (k + 1))
        h0 += 1.0 / k
        h1 += 1.0 / (k + 1)
        s_i1 += term
        s_h += term * (h0 + h1 - 2.0 * EULER_GAMMA)
    i1 = (x / 2.0) * s_i1
    return 1.0 / x + np.log(x / 2.0) * i1 - (x / 4.0) * s_h


_LARGE_BLOCK = 256  # points per block of the Gauss-Laguerre sums of ``_k_large``


def _k_large(order, x):
    # K_nu(x) = sqrt(pi/2x) e^-x / Gamma(nu+1/2) * int_0^inf e^-t t^(nu-1/2)
    #           (1 + t/2x)^(nu-1/2) dt, done with generalized Gauss-Laguerre
    #           on a 1-d x, by blocks of points: O(len(x)) memory
    t, w = _GL_NODES[order]
    integral = np.empty_like(x)
    for i in range(0, len(x), _LARGE_BLOCK):
        core = (1.0 + t / (2.0 * x[i:i + _LARGE_BLOCK, None])) ** (order - 0.5)
        integral[i:i + _LARGE_BLOCK] = (w * core).sum(axis=-1)
    pref = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) / math.gamma(order + 0.5)
    return pref * integral


def bessel_k(order: int, x):
    """Modified Bessel function K0 or K1 of a positive real argument.

    Accepts a scalar or an ndarray; relative accuracy is ~1e-14 across
    (0, 700).  Raises for non-positive arguments, where both orders diverge.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    small = arr <= _SERIES_SWITCH
    out = np.empty_like(arr)
    if small.any():
        xs = arr[small] if arr.ndim else arr
        val = _k0_series(xs) if order == 0 else _k1_series(xs)
        if arr.ndim:
            out[small] = val
        else:
            out = val
    if (~small).any():
        xl = arr[~small] if arr.ndim else arr
        val = _k_large(order, np.atleast_1d(xl))
        if arr.ndim:
            out[~small] = val
        else:
            out = val[0]
    return out if arr.ndim else float(out)


def _compiled_k(ufunc, x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("K0/K1 require x > 0")
    out = ufunc(arr)
    return out if arr.ndim else float(out)


def k0(x):
    """K0 of a positive scalar or ndarray via scipy.special.k0.

    Same contract as bessel_k(0, x): raises ValueError for any x <= 0 and
    returns a float for a scalar argument.
    """
    return _compiled_k(_sc.k0, x)


def k1(x):
    """K1 of a positive scalar or ndarray via scipy.special.k1 (see k0)."""
    return _compiled_k(_sc.k1, x)


def k0e(x):
    """e^x K0(x) via scipy.special.k0e (see k0): finite where K0 underflows."""
    return _compiled_k(_sc.k0e, x)


def k1e(x):
    """e^x K1(x) via scipy.special.k1e (see k0e)."""
    return _compiled_k(_sc.k1e, x)


def k0_integral(x):
    """C0(x) = int_0^x K0(z) dz of a nonnegative scalar or ndarray.

    Evaluates scipy.special.iti0k0 (Zhang & Jin, Computation of Special
    Functions, 1996; DLMF 10.43).  Same contract as k0 except that x = 0 is
    allowed and gives 0.0: raises ValueError for any x < 0 and returns a
    float for a scalar argument.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("k0_integral requires x >= 0")
    out = _sc.iti0k0(arr)[1]
    return out if arr.ndim else float(out)


def k0_moment_full(beta: int) -> float:
    """Full moment int_0^inf z^beta K0(z) dz = 2^(beta-1) Gamma((beta+1)/2)^2."""
    if beta not in (0, 1, 2):
        raise ValueError("beta must be one of {0, 1, 2}")
    return 2.0 ** (beta - 1) * math.gamma((beta + 1) / 2.0) ** 2


_KINDS = ("incomplete_plain", "incomplete_cosh", "tail_exp", "tail_k1_over_z", "tail_zk0")


def k0_weighted_integral(
    kind: str,
    x: float,
    mu_over_m: float = 0.0,
    beta: int = 0,
) -> float:
    """Incomplete and tail integrals of K0/K1 against simple weights.

    kind selects among
      incomplete_plain   int_0^x z^beta K0(z) dz
      incomplete_cosh    int_0^x cosh(nu z) K0(z) dz
      tail_exp           int_x^inf exp(-nu z) K0(z) dz
      tail_k1_over_z     int_x^inf K1(z)/z dz
      tail_zk0           int_x^inf z K0(z) dz
    with nu = mu_over_m.  The integrands call the compiled K0/K1 directly:
    x >= 0 is checked here and QUADPACK samples only interior nodes.
    Raises QuadratureError when the quadrature's error estimate exceeds
    50 times the tolerance (see checked_quad).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    nu = mu_over_m
    if kind in ("incomplete_cosh", "tail_exp") and not (0.0 <= nu < 1.0):
        raise ValueError("mu_over_m must lie in [0, 1); the integral diverges at 1")

    if kind == "incomplete_plain":
        if beta not in (0, 1, 2):
            raise ValueError("beta must be one of {0, 1, 2}")
        if x == 0.0:
            return 0.0
        return checked_quad(lambda z: z**beta * _sc.k0(z), 0.0, x)
    if kind == "incomplete_cosh":
        if x == 0.0:
            return 0.0
        return checked_quad(lambda z: math.cosh(nu * z) * _sc.k0(z), 0.0, x)
    if kind == "tail_exp":
        return checked_quad(lambda z: math.exp(-nu * z) * _sc.k0(z), x, np.inf)
    if kind == "tail_k1_over_z":
        if x == 0.0:
            raise ValueError("tail_k1_over_z diverges at x = 0 (integrand ~ 1/z^2)")
        # K1(x + t) = e^-x e^-t k1e(x + t): the integral in the exponentially
        # scaled form is O(1), so the tolerance is relative to e^-x
        scaled = checked_quad(lambda t: _sc.k1e(x + t) * math.exp(-t) / (x + t),
                              0.0, np.inf)
        return math.exp(-x) * scaled
    # tail_zk0
    return checked_quad(lambda z: z * _sc.k0(z), x, np.inf)


def f1_moment(mu: float) -> float:
    """int_0^inf cosh(mu z) K0(z) dz = pi / (2 sqrt(1 - mu^2)) for |mu| < 1."""
    if abs(mu) >= 1.0:
        raise ValueError("f1_moment requires |mu| < 1; the integral diverges at 1")
    return math.pi / (2.0 * math.sqrt(1.0 - mu * mu))


def hyp3f2_neg(a1: float, a2: float, a3: float, b1: float, b2: float, w: float) -> float:
    """3F2(a1, a2, a3; b1, b2; -w^2) for real parameters and w >= 0.

    Evaluated by mpmath at 25 digits, which sums the series for small w and
    continues it analytically beyond the unit circle.
    """
    for b in (b1, b2):
        if b <= 0.0 and float(b).is_integer():
            raise ValueError("lower parameters must not be nonpositive integers")
    if w < 0.0:
        raise ValueError("w must be nonnegative")
    import mpmath

    try:
        with mpmath.workdps(25):
            return float(mpmath.hyper([a1, a2, a3], [b1, b2], -w * w))
    except (mpmath.libmp.NoConvergence, ValueError) as exc:  # pragma: no cover
        raise EvaluationFailure(
            f"3F2 continuation failed for parameters {(a1, a2, a3, b1, b2)} at w={w}"
        ) from exc
