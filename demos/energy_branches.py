"""Bound-state energy E(lambda) just above threshold, on both branches.

The generic well opens its bound state quadratically, |E| ~ (lambda -
lambda0)^2, because the first-order overlap integral is nonzero.  A state
with vanishing overlap opens linearly instead.  This script prints both
curves and their fitted opening exponents.
"""

import numpy as np

from herbst import (PhysParams, bump_potential, energy_of_lambda,
                    expansion_from_state, solve, synthetic_zero_overlap_state)


def opening_exponent(exp0, deltas):
    es = np.array([-energy_of_lambda(exp0, exp0.lambda0 * (1.0 + d))
                   for d in deltas])
    return np.polyfit(np.log(deltas), np.log(es), 1)[0], es


def main():
    ground = solve(bump_potential(), PhysParams(), 200)
    balanced = synthetic_zero_overlap_state(ground.matrix)

    deltas = np.geomspace(1e-3, 3e-2, 7)
    for label, state in (("generic (a < 0)", ground),
                         ("zero-overlap (a = 0)", balanced)):
        exp0 = expansion_from_state(state)
        slope, es = opening_exponent(exp0, deltas)
        print(f"{label}: branch = {exp0.branch}, "
              f"fitted |E| ~ (lambda - lambda0)^{slope:.3f}")
        for d, e in zip(deltas, es):
            print(f"  lambda/lambda0 - 1 = {d:9.2e}   E = {-e:.6e}")
        print()


if __name__ == "__main__":
    main()
