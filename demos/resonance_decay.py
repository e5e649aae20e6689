"""Spatial decay of the threshold state outside the potential.

Reconstructs u = mu0^(-1) G_0 |V|^(1/2) phi at radii beyond the support and
fits u ~ r^(-gamma).  A generic threshold state is a resonance with gamma = 1
and prefactor (m / 2 pi mu0) int |V| u; a zero-overlap state decays much
faster, the signature of a genuine zero-energy eigenfunction.
"""

import numpy as np

from herbst import (PhysParams, bump_potential, solve,
                    synthetic_zero_overlap_state, u_reconstruct)


def main():
    ground = solve(bump_potential(), PhysParams(), 200)
    balanced = synthetic_zero_overlap_state(ground.matrix)

    r_far = np.geomspace(5.0, 50.0, 25)
    for label, state in (("generic ground state", ground),
                         ("zero-overlap state", balanced)):
        rep = u_reconstruct(state, r_far)
        print(f"{label}:")
        print(f"  fitted decay exponent gamma = {rep.gamma:.5f}")
        print(f"  mean r*u on the window      = {rep.prefactor:.6e}")
        print(f"  predicted 1/r prefactor     = {rep.predicted_prefactor:.6e}")
        print()


if __name__ == "__main__":
    main()
