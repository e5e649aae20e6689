"""Discretization error against the converged reference in tests/data.

``tools/reference.py`` wrote ``tests/data/reference.json`` from the library
at n = 1600 and 3200; these tests read it and solve only at n = 200 and
n = 400, with the tool's own case definitions.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reference", _ROOT / "tools" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

_CASES = json.loads(reference.OUT.read_text())["cases"]

# relative error bounds at n = 200 and n = 400: twice the errors measured
# against the file (ROADMAP Baseline gives those of the bump, the Gaussian,
# the well at R = 3 and the tuned mu0 and b_direct)
_BOUNDS = {
    "bump_R1": {"mu0": (8.4e-8, 1.1e-8), "a": (3.1e-8, 3.9e-9), "b": (2.9e-8, 3.7e-9)},
    "gauss_R1": {"mu0": (1.6e-7, 2.0e-8), "a": (1.7e-7, 2.1e-8), "b": (1.1e-7, 1.4e-8)},
    "well_R1": {"mu0": (5.5e-8, 6.9e-9), "a": (1.9e-8, 2.5e-9), "b": (2.4e-8, 3.0e-9)},
    "well_R3": {"mu0": (2.5e-8, 3.2e-9), "a": (6.6e-9, 8.7e-10), "b": (4.3e-9, 5.9e-10)},
    "well_R3_m2.5": {"mu0": (1.1e-8, 1.4e-9), "a": (2.5e-9, 3.5e-10), "b": (4.5e-9, 5.1e-10)},
    # the tuned a = 0 state is resolved far worse than the families: at the
    # default grid its mu0 is 2.9e-6 off, 40-70 times their error, and its
    # b 2.8e-7, where the dual-route gap is 4.4e-8
    "tuned_two_well": {"ratio": (2.3e-5, 2.4e-6), "mu0": (6.0e-6, 6.4e-7),
                       "b_direct": (5.6e-7, 1.4e-7), "b_momentum": (4.7e-7, 1.4e-7)},
}


def test_file_holds_the_tools_cases():
    assert list(_CASES) == list(reference.CASES) == list(_BOUNDS)


@pytest.mark.parametrize("case", list(_BOUNDS))
def test_reference_is_resolved_below_the_bounds(case):
    # each entry is what the tool derives from its two columns, and its
    # 1600 -> 3200 change is at most 1/20 of the n = 400 bound
    for q, held in _CASES[case]["values"].items():
        assert held == reference.entry(held["n1600"], held["n3200"])
        assert held["uncertainty"] <= abs(held["richardson"]) * _BOUNDS[case][q][1] / 20.0


@pytest.mark.parametrize("case", list(_BOUNDS))
def test_error_against_reference(case):
    held = _CASES[case]["values"]
    errors = {}
    for i, n in enumerate((200, 400)):
        for q, value in reference.solve(case, n).items():
            ref = held[q]["richardson"]
            errors[q, n] = abs(value - ref) / abs(ref)
            assert errors[q, n] <= _BOUNDS[case][q][i], errors
