"""Adaptive 1-D quadrature and the radial 3-D Fourier transform oracle.

The transform uses the 2pi-in-the-exponent convention,

    F(k) = (2/k) * int_0^inf r f(r) sin(2 pi k r) dr,

the three-dimensional radial (Bochner) reduction.  The oscillatory integral
is partitioned at the zeros of the sine and the alternating half-period
contributions are summed with iterated averaging, which also Abel-sums the
polynomially growing integrands that arise from tempered radial profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import QuadratureError, checked_quad

_GLX, _GLW = leggauss(32)


@dataclass(frozen=True)
class RadialFunction:
    """A radial profile r -> f(r); r^2 f(r) must be integrable at zero."""

    eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r):
        return self.eval(r)


def integrate_adaptive(f, a: float, b: float) -> float:
    """Adaptive integral of a radial function over (a, b), b possibly inf."""
    return checked_quad(lambda r: float(f(r)), a, b)


def _half_period_terms(f, k: float, start: int, stop: int) -> np.ndarray:
    """Integrals of r f(r) sin(2 pi k r) over the half periods start..stop-1,
    those past the first in one call of f on all their Gauss-Legendre nodes."""
    h = 1.0 / (2.0 * k)
    terms = np.empty(stop - start)
    if start == 0:
        # First interval adaptively: f may carry an integrable singularity at 0.
        terms[0] = checked_quad(
            lambda r: float(f(r)) * r * np.sin(2.0 * np.pi * k * r),
            0.0, h, abs_tol=1e-14, rel_tol=1e-12)
    j = np.arange(max(start, 1), stop)
    r = (j * h)[:, None] + 0.5 * h * (_GLX + 1.0)
    values = np.asarray(f(r.ravel()), dtype=float).reshape(r.shape)
    integrand = r * values * np.sin(2.0 * np.pi * k * r)
    terms[j - start] = 0.5 * h * (_GLW * integrand).sum(axis=1)
    return terms


def _euler_abel_sum(terms: np.ndarray) -> tuple[float, float]:
    """Iterated averaging of the partial sums of an alternating sequence.

    Returns the deepest average together with a stabilization estimate
    (the change over the last averaging levels).  Converges to the Abel
    sum for alternating terms of at most polynomial growth.
    """
    s = np.cumsum(terms)
    prev = s[-1]
    last_levels = []
    while len(s) > 1:
        s = 0.5 * (s[:-1] + s[1:])
        last_levels.append(s[-1])
        prev = s[-1]
    tail = np.array(last_levels[-6:])
    spread = float(np.ptp(tail)) if len(tail) > 1 else np.inf
    return float(prev), spread


def radial_fourier3(f, k: float) -> float:
    """3-D Fourier transform of a radial function at wavenumber k > 0."""
    if k <= 0.0:
        raise ValueError("radial_fourier3 requires k > 0")
    terms = np.empty(0)
    for n in (48, 96):
        # a retry at 96 keeps the first 48 terms
        terms = np.append(terms, _half_period_terms(f, k, terms.size, n))
        best, spread = _euler_abel_sum(terms)
        if spread <= 10.0 * max(1e-12, 1e-10 * abs(best)):
            return (2.0 / k) * best
    raise QuadratureError(
        f"oscillatory sum did not stabilize at k={k} (spread {spread})",
        estimate=(2.0 / k) * best, error_bound=(2.0 / k) * spread,
    )
