"""Coupling-constant thresholds of the relativistic Herbst operator.

Numerics for the Birman-Schwinger analysis of sqrt(-Laplacian + m^2) - m
+ lambda V: closed-form Green's function and small-alpha series kernels,
threshold coupling lambda0 and the expansion coefficients of the inverse
coupling, inversion to E(lambda) on both branches, and quadrature oracles
for every closed-form identity used along the way.

The exported names and the submodules load on first access (PEP 562), so
``import herbst.cli`` loads only the modules the command line imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "kernel": ("H3_ROOT_REFERENCE", "BKernelTable", "GreenKernelTable",
               "PhysParams", "a_profile", "b_profile", "b_profile_grid",
               "envelope_bound", "envelope_holds", "f_profile",
               "green_function", "h3_root", "l0_profile", "series_remainder"),
    "fourierb": ("HankelParams", "b_hat", "hankel_incomplete", "hankel_tail"),
    "quad": ("QuadratureError", "RadialFunction", "integrate_adaptive",
             "radial_fourier3"),
    "specfun": ("EvaluationFailure", "bessel_k", "f1_moment", "hyp3f2_neg",
                "k0_moment_full", "k0_weighted_integral"),
    "spectral": ("BsMatrix", "DegenerateEigenvalueError", "EigensolverError",
                 "QuadGrid", "RadialPotential", "SpectralResult",
                 "bump_potential", "eigen_continuation", "leading_eigenpair",
                 "s_wave_reduce", "solve", "square_well_potential",
                 "tabulated_potential", "truncated_gaussian_potential",
                 "two_well_potential"),
    "threshold": ("BelowThresholdError", "DivergentMomentumIntegralError",
                  "ThresholdExpansion", "coefficient_a", "coefficient_b",
                  "energy_of_lambda", "expansion_from_state",
                  "lambda_of_alpha", "overlap_integral", "small_x_constants",
                  "synthetic_zero_overlap_state", "tune_zero_overlap",
                  "u_reconstruct", "zero_energy_condition"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
