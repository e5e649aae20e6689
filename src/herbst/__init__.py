"""Coupling-constant thresholds of the relativistic Herbst operator.

Numerics for the Birman-Schwinger analysis of sqrt(-Laplacian + m^2) - m
+ lambda V: closed-form Green's function and small-alpha series kernels,
threshold coupling lambda0 and the expansion coefficients of the inverse
coupling, inversion to E(lambda) on both branches, and quadrature oracles
for every closed-form identity used along the way.
"""

__version__ = "0.1.0"

from .kernel import (H3_ROOT_REFERENCE, BKernelTable, GreenKernelTable,
                     PhysParams, a_profile, b_profile, b_profile_grid,
                     envelope_bound, envelope_holds, f_profile,
                     green_function, h3_root, l0_profile, series_remainder)
from .fourierb import HankelParams, b_hat, hankel_incomplete, hankel_tail
from .quad import QuadratureError, RadialFunction, integrate_adaptive, radial_fourier3
from .specfun import (EvaluationFailure, bessel_k, f1_moment, hyp3f2_neg,
                      k0_moment_full, k0_weighted_integral)
from .spectral import (BsMatrix, DegenerateEigenvalueError, EigensolverError,
                       QuadGrid, RadialPotential, SpectralResult,
                       bump_potential, eigen_continuation, leading_eigenpair,
                       s_wave_reduce, square_well_potential,
                       tabulated_potential, truncated_gaussian_potential,
                       two_well_potential)
from .threshold import (BelowThresholdError, DivergentMomentumIntegralError,
                        ThresholdExpansion, coefficient_a, coefficient_b,
                        energy_of_lambda, expansion_from_state,
                        lambda_of_alpha, overlap_integral,
                        small_x_constants, synthetic_zero_overlap_state,
                        tune_zero_overlap, u_reconstruct,
                        zero_energy_condition)

__all__ = [name for name in dir() if not name.startswith("_")]
