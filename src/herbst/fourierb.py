"""Closed-form Hankel/Bochner transforms of Bessel-weighted power profiles.

Transforms of f(x) = |x|^(-a) * (incomplete or tail integral of z^b K0(z))
in three dimensions, expressed through the generalized hypergeometric 3F2,
and the assembled momentum-space second-order kernel b_hat(sigma).
All formulas are in m = 1 units with the dimensionless w = 2 pi k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .specfun import hyp3f2_neg

_ALPHA_ALLOWED = (-1, 0, 1)
_BETA_ALLOWED = (0, 1, 2)


@dataclass(frozen=True)
class HankelParams:
    """Exponents of the profile |x|^(-alpha_exp) int z^beta_exp K0(z) dz."""

    alpha_exp: int
    beta_exp: int

    def __post_init__(self) -> None:
        if self.alpha_exp not in _ALPHA_ALLOWED:
            raise ValueError(f"alpha_exp must be in {_ALPHA_ALLOWED}")
        if self.beta_exp not in _BETA_ALLOWED:
            raise ValueError(f"beta_exp must be in {_BETA_ALLOWED}")


def _w_of(k: float, m: float = 1.0) -> float:
    return 2.0 * math.pi * k / m


def _gamma_term(hp: HankelParams) -> float:
    a, b, n = hp.alpha_exp, hp.beta_exp, 3
    return (
        2.0 ** (b + n / 2.0 - a - 1.0)
        * math.gamma((b + 1.0) / 2.0) ** 2
        * math.gamma((n - a) / 2.0)
        * float(rgamma(a / 2.0))  # rgamma handles the pole at a = 0
    )


def _f32_term(hp: HankelParams, w: float) -> float:
    a, b, n = hp.alpha_exp, hp.beta_exp, 3
    top = (b + n - a + 1.0) / 2.0
    hyp = hyp3f2_neg((n - a) / 2.0, top, top, n / 2.0, 1.0 + (n - a) / 2.0, w)
    return (
        w ** (n - a)
        * 2.0 ** (b + n / 2.0 - a)
        * math.gamma(top) ** 2
        / ((n - a) * math.gamma(n / 2.0))
        * hyp
    )


def hankel_incomplete(hp: HankelParams, k: float) -> float:
    """Transform of |x|^(-a) int_0^|x| z^b K0(z) dz (Gamma term minus 3F2 term)."""
    if k <= 0.0:
        raise ValueError("wavenumber k must be positive")
    a, n = hp.alpha_exp, 3
    w = _w_of(k)
    pref = (2.0 * math.pi) ** (a - n / 2.0) * k ** (a - n)
    return pref * (_gamma_term(hp) - _f32_term(hp, w))


def hankel_tail(hp: HankelParams, k: float) -> float:
    """Transform of |x|^(-a) int_|x|^inf z^b K0(z) dz (the 3F2 term alone)."""
    if k <= 0.0:
        raise ValueError("wavenumber k must be positive")
    a, n = hp.alpha_exp, 3
    w = _w_of(k)
    pref = (2.0 * math.pi) ** (a - n / 2.0) * k ** (a - n)
    return pref * _f32_term(hp, w)


def b_hat(sigma):
    """Momentum-space second-order kernel m^4 B_hat(m sigma) in m = 1 units.

    Strictly negative for all sigma > 0: the single positive term is
    dominated by the neighbouring negative ones.  Behaves like
    -1/(pi sigma^2) - 1/(2 pi^3 sigma^4) as sigma -> 0.
    """
    s = np.asarray(sigma, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("b_hat requires sigma > 0")
    w = 2.0 * math.pi * s
    w2 = w * w
    root = np.sqrt(1.0 + w2)
    pow52 = root**5
    val = (
        -1.0 / (2.0 * math.pi * s**2)
        - 1.0 / (4.0 * math.pi**3 * s**4)
        - (1.0 / math.pi) * (
            (6.0 * w2 * w2 + 5.0 * w2 + 2.0) / (8.0 * math.pi**2 * s**4 * pow52)
            + 1.0 / (s**2 * root)
        )
        + 3.0 * w2 * w / (2.0 * math.pi**2 * s**3 * pow52)
        - (2.0 * w2 - 1.0) / (2.0 * math.pi * s**2 * pow52)
    )
    return val if np.ndim(sigma) else float(val)
