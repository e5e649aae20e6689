"""Converged reference values of the threshold coefficients.

Solves each case with the library at n = 1600 and n = 3200 and writes
``tests/data/reference.json``.  For every quantity the file holds the two
values, the order-3 Richardson value ``x_3200 + (x_3200 - x_1600)/7`` (the
rule is third order) and the 1600 -> 3200 change, ``|x_3200 - x_1600|``, as
its uncertainty; and the command, the commit and the library versions that
made it.  The tier-1 tests read the file and never solve at these sizes.

The cases are the bump and the truncated Gaussian at R = 1 and the well at
R = 1 and R = 3 (depth 1, m = 1), the well at R = 3 with m = 2.5, and the
two-well potential that ``tune_zero_overlap`` tunes to a = 0 at R = 1: its
depth ratio, ``mu0`` and ``b`` by both routes.

    python3 tools/reference.py            # solve both sizes (about 15 s), write the file
    python3 tools/reference.py --check    # solve n = 1600 only (about 4 s) and exit 1
                                          # when a value differs from the file's by
                                          # more than 1e-12 relative
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

from herbst import spectral  # noqa: E402
from herbst.kernel import PhysParams  # noqa: E402
from herbst.spectral import (QuadGrid, bump_potential,  # noqa: E402
                             square_well_potential, truncated_gaussian_potential)
from herbst.threshold import (coefficient_b, expansion_from_state,  # noqa: E402
                              tune_zero_overlap)

OUT = ROOT / "tests" / "data" / "reference.json"
SIZES = (1600, 3200)
CHECK_RTOL = 1e-12

FAMILIES = {"bump": bump_potential, "gauss": truncated_gaussian_potential,
            "well": square_well_potential}
# name: (potential, R, m), each at depth 1
CASES = {"bump_R1": ("bump", 1.0, 1.0), "gauss_R1": ("gauss", 1.0, 1.0),
         "well_R1": ("well", 1.0, 1.0), "well_R3": ("well", 3.0, 1.0),
         "well_R3_m2.5": ("well", 3.0, 2.5), "tuned_two_well": ("two_well", 1.0, 1.0)}


def solve(name: str, n: int) -> dict[str, float]:
    """The case's quantities on the n-point grid."""
    potential, radius, m = CASES[name]
    if potential == "two_well":
        pot, res = tune_zero_overlap(QuadGrid.gauss_legendre(n, radius), m)
        routes = coefficient_b(res, "both")
        # at 0.7 R only the outer well is nonzero, at depth 8 ratio times a
        # mollifier of exactly 1: the ratio comes back exactly
        return {"ratio": -float(pot(0.7 * radius)) / 8.0, "mu0": res.mu0,
                "b_direct": routes.direct, "b_momentum": routes.momentum}
    res = spectral.solve(FAMILIES[potential](1.0, radius), PhysParams(m=m, E=0.0), n)
    exp = expansion_from_state(res)
    return {"mu0": exp.mu0, "a": exp.a, "b": exp.b}


def entry(coarse: float, fine: float) -> dict[str, float]:
    return {f"n{SIZES[0]}": coarse, f"n{SIZES[1]}": fine,
            "richardson": fine + (fine - coarse) / 7.0, "uncertainty": abs(fine - coarse)}


def commit() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write() -> None:
    cases = {}
    for name, (potential, radius, m) in CASES.items():
        coarse, fine = (solve(name, n) for n in SIZES)
        cases[name] = {"potential": potential, "radius": radius, "mass": m, "depth": 1.0,
                       "values": {q: entry(coarse[q], fine[q]) for q in coarse}}
        print(name, {q: v["richardson"] for q, v in cases[name]["values"].items()})
    doc = {"command": "python3 tools/reference.py", "commit": commit(),
           "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "mpmath": mpmath.__version__},
           "sizes": list(SIZES),
           "richardson": "x_3200 + (x_3200 - x_1600)/7, the rule being third order",
           "uncertainty": "|x_3200 - x_1600|",
           "cases": cases}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


def check() -> int:
    """Solve the n = 1600 column again; 1 when a value or a derived column
    differs from the file, or the file's cases are not the tool's."""
    doc = json.loads(OUT.read_text())
    bad = []
    if set(doc["cases"]) != set(CASES):
        bad.append(f"cases {sorted(doc['cases'])} are not {sorted(CASES)}")
    coarse_key = f"n{SIZES[0]}"
    for name in [name for name in CASES if name in doc["cases"]]:
        stored = doc["cases"][name]["values"]
        for q, value in solve(name, SIZES[0]).items():
            held = stored[q]
            if held != entry(held[coarse_key], held[f"n{SIZES[1]}"]):
                bad.append(f"{name} {q}: derived columns do not follow from n = {SIZES}")
            rel = abs(value - held[coarse_key]) / abs(held[coarse_key])
            print(f"{name} {q}: {value!r} against {held[coarse_key]!r}, relative {rel:.1e}")
            if not rel <= CHECK_RTOL:
                bad.append(f"{name} {q}: {value!r} differs from {held[coarse_key]!r} "
                           f"by {rel:.1e} relative")
    for line in bad:
        print("MISMATCH", line)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"solve n = {SIZES[0]} only and compare with the file")
    args = parser.parse_args(argv)
    if args.check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
