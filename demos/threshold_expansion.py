"""Threshold expansion of the default bump well, checked against brute force.

Computes the coupling threshold lambda0 and the coefficients a, b of the
inverse-coupling series 1/lambda(alpha) = mu0 + a alpha + b alpha^2, then
re-derives the same numbers by numerically continuing the Birman-Schwinger
eigenvalue to small negative energies and fitting a polynomial.
"""

import numpy as np

from herbst import (PhysParams, bump_potential, coefficient_a, coefficient_b,
                    eigen_continuation, solve)


def main():
    pot = bump_potential(depth=1.0, radius=1.0)
    res = solve(pot, PhysParams(m=1.0, E=0.0), 200)

    a = coefficient_a(res)
    b = coefficient_b(res, "direct")
    print(f"threshold eigenvalue   mu0     = {res.mu0:.12f}")
    print(f"coupling threshold     lambda0 = {res.lambda0:.12f}")
    print(f"linear coefficient     a       = {a:.12f}")
    print(f"quadratic coefficient  b       = {b:.12f}")

    alphas = [0.0, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.025, 0.03]
    pts = eigen_continuation(pot, res.grid, alphas)
    coeffs = np.polyfit(np.array(alphas), np.array([m for _, m in pts]), 4)
    slope, half_curv = coeffs[-2], coeffs[-3]
    print()
    print("brute-force continuation of mu(alpha), quartic fit:")
    print(f"  d mu/d alpha |0       = {slope:.12f}   "
          f"(rel dev {abs(slope - a) / abs(a):.2e})")
    print(f"  1/2 d^2 mu/d alpha^2  = {half_curv:.12f}   "
          f"(rel dev {abs(half_curv - b) / abs(b):.2e})")


if __name__ == "__main__":
    main()
