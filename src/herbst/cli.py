"""Command-line interface: kernel tables, spectra, threshold analyses,
verification suites, and envelope-bound checks, emitted as CSV or JSON.

Each command takes only the flags and ``--config`` keys it reads
(``COMMAND_READS``), and its ``meta.config`` echoes those fields.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .fourierb import HankelParams, hankel_incomplete, hankel_tail
from .kernel import (H3_ROOT_REFERENCE, PhysParams, envelope_bound,
                     green_function, h3_root, series_remainder)
from .quad import RadialFunction, integrate_adaptive, radial_fourier3
from .specfun import (EvaluationFailure, bessel_k, f1_moment, k0_integral,
                      k0_moment_full, k0_weighted_integral, k1)
from .spectral import (EigensolverError, RadialPotential, bump_potential,
                       eigen_continuation, solve, square_well_potential,
                       tabulated_potential, truncated_gaussian_potential)
from .threshold import (coefficient_a, coefficient_b, energy_of_lambda,
                        expansion_from_state, synthetic_zero_overlap_state)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY_FAILED = 3

VERIFY_SUITES = ("specfun", "appendix_a", "appendix_b", "appendix_c",
                 "series", "continuation")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with documented defaults."""

    potential: str = "bump"       # bump | gauss | well | table:PATH
    depth: float = 1.0
    radius: float = 1.0
    mass: float = 1.0
    grid_n: int = 200
    alpha_max: float = 0.2
    fmt: str = "csv"              # csv | json
    out: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.potential, str):
            raise ConfigError("potential must be a string")
        fam = self.potential.split(":", 1)[0]
        if fam not in ("bump", "gauss", "well", "table"):
            raise ConfigError(f"unknown potential family {fam!r}")
        if fam == "table" and ":" not in self.potential:
            raise ConfigError("table potential needs a path: table:PATH")
        for name in ("depth", "radius", "mass", "alpha_max"):
            x = getattr(self, name)
            # an int compares with a float exactly, so one beyond the float
            # range fails here like inf and nan do
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or not abs(x) <= sys.float_info.max):
                raise ConfigError(f"{name.replace('_', '-')} must be a finite number")
        # depth 0 is allowed: spectrum reports mu0 = 0, threshold undefined
        if self.depth < 0.0:
            raise ConfigError("depth must be nonnegative")
        if self.radius <= 0.0:
            raise ConfigError("radius must be positive")
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        if type(self.grid_n) is not int or not 4 <= self.grid_n <= 2000:
            raise ConfigError("grid-n must be an integer in [4, 2000]")
        if self.alpha_max <= 0.0:
            raise ConfigError("alpha-max must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not isinstance(self.out, (str, type(None))):
            raise ConfigError("out must be a path or null")

    def make_potential(self) -> RadialPotential:
        fam, _, rest = self.potential.partition(":")
        if fam == "bump":
            return bump_potential(self.depth, self.radius)
        if fam == "gauss":
            return truncated_gaussian_potential(self.depth, self.radius)
        if fam == "well":
            return square_well_potential(self.depth, self.radius)
        return tabulated_potential(rest)


# the flag of each RunConfig field, with its argparse options
_FLAGS = {"potential": ("--potential", {"help": "bump|gauss|well|table:PATH"}),
          "depth": ("--depth", {"type": float}), "radius": ("--radius", {"type": float}),
          "mass": ("--mass", {"type": float}), "grid_n": ("--grid-n", {"type": int}),
          "alpha_max": ("--alpha-max", {"type": float}),
          "fmt": ("--format", {"choices": ("csv", "json")}),
          "out": ("--out", {"metavar": "PATH"})}
_GREEN_READS = ("radius", "mass", "alpha_max", "fmt", "out")
_SOLVE_READS = ("potential", "depth", "radius", "mass", "grid_n", "fmt", "out")
# the fields each command reads: they give its flags, the --config keys it
# takes and its meta.config echo.  verify's report is always JSON
COMMAND_READS = {"kernel": _GREEN_READS, "bound": _GREEN_READS,
                 "spectrum": _SOLVE_READS, "threshold": _SOLVE_READS,
                 "verify": ("out",)}


def _reads(command: str, potential: object) -> tuple[str, ...]:
    # a table: potential's file fixes depth and radius; the solve runs over its support
    table = "potential" in COMMAND_READS[command] and str(potential).startswith("table:")
    return tuple(f for f in COMMAND_READS[command] if not (table and f in ("depth", "radius")))


def _num(x: float) -> str:
    # fixed 17-significant-digit rendering for byte-identical CSV output
    return f"{float(x):.16e}"


def _emit(headers, rows, meta, cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        lines = [",".join(headers)]
        for row in rows:
            lines.append(",".join(_num(v) if isinstance(v, float) else str(v)
                                  for v in row))
        _write("\n".join(lines) + "\n", cfg)
    else:
        _write({"meta": meta, "data": [dict(zip(headers, row)) for row in rows]},
               cfg)


def _write(payload: str | dict, cfg: RunConfig) -> None:
    """Write CSV text, or a report dict as JSON, to --out or to stdout."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    if cfg.out:
        # write over the old bytes, then cut the tail: truncating on open
        # (mode "w") blocks on ext4 until the old contents are written back.
        # Cut regular files only, as O_TRUNC does (/dev/null refuses it)
        fd = os.open(cfg.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.write(payload)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(payload)


def _meta(cfg: RunConfig, command: str) -> dict:
    return {"command": command, "version": __version__, "config": {
        f: getattr(cfg, f) for f in _reads(command.split()[0], cfg.potential)}}


def _green_rows(cfg: RunConfig, r_max: float) -> list[tuple]:
    """(r, G_E(r), envelope bound) at E = -alpha_max^2 on r in [0.02, r_max] R."""
    if cfg.alpha_max >= math.sqrt(2.0 * cfg.mass):
        raise ConfigError("alpha-max must be in (0, sqrt(2 m))")
    p = PhysParams.from_alpha(cfg.alpha_max, cfg.mass)
    if p.mu == 0.0:
        raise EvaluationFailure(f"alpha-max {cfg.alpha_max} at mass {cfg.mass}: mu^2 = "
                                "2 m alpha^2 - alpha^4 underflows to 0 (envelope bound)")
    radii = np.geomspace(0.02 * cfg.radius, r_max * cfg.radius, 100)
    return [(float(r), float(g), envelope_bound(float(r), p))
            for r, g in zip(radii, green_function(radii, p))]


def cmd_kernel(cfg: RunConfig) -> int:
    """Table of (r, G_E(r), envelope bound) at E = -alpha_max^2."""
    _emit(["r", "green_function", "envelope_bound"], _green_rows(cfg, 5.0),
          _meta(cfg, "kernel"), cfg)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    """Leading eigenpair with a grid-doubling convergence certificate."""
    pot = cfg.make_potential()
    p = PhysParams(m=cfg.mass, E=0.0)
    res = solve(pot, p, cfg.grid_n)
    meta = _meta(cfg, "spectrum")
    if res.mu0 == 0.0:
        meta.update(mu0=0.0, lambda0=None, threshold="undefined (V vanishes)")
        _emit(["r", "phi"], [], meta, cfg)
        return EXIT_OK
    mu0, lambda0, residual = res.mu0, res.lambda0, res.residual
    rows = [(float(r), float(phi)) for r, phi in zip(res.grid.nodes, res.phi)]
    del res  # its packed matrix need not stay alive under the 2n solve
    mu2 = solve(pot, p, 2 * cfg.grid_n).mu0
    meta.update({"mu0": mu0, "lambda0": lambda0,
                 "convergence_delta": abs(mu2 - mu0) / mu0, "residual": residual})
    _emit(["r", "phi"], rows, meta, cfg)
    return EXIT_OK


def cmd_threshold(cfg: RunConfig) -> int:
    """Expansion coefficients and E(lambda) samples on lambda0 * (1, 1.2]."""
    res = solve(cfg.make_potential(), PhysParams(m=cfg.mass, E=0.0), cfg.grid_n)
    if res.mu0 <= 0.0:
        raise ConfigError("threshold undefined: the potential vanishes")
    exp0 = expansion_from_state(res)
    meta = _meta(cfg, "threshold")
    meta.update({"mu0": exp0.mu0, "lambda0": exp0.lambda0, "a": exp0.a,
                 "b": exp0.b, "branch": exp0.branch, "gap": res.gap,
                 "residual": res.residual})
    lams = exp0.lambda0 * (1.0 + np.linspace(0.002, 0.2, 100))
    rows = [(float(l), energy_of_lambda(exp0, float(l))) for l in lams]
    _emit(["lambda", "energy"], rows, meta, cfg)
    return EXIT_OK


def cmd_bound(cfg: RunConfig) -> int:
    """Envelope-bound check table; exits nonzero if any row fails."""
    rows = [(r, g, bound, int(abs(g) <= bound))
            for r, g, bound in _green_rows(cfg, 10.0)]
    _emit(["r", "green_function", "envelope_bound", "holds"], rows,
          _meta(cfg, "bound"), cfg)
    return EXIT_OK if all(row[3] for row in rows) else EXIT_VERIFY_FAILED


def _check(name: str, residual: float, tol: float, extra: dict | None = None) -> dict:
    entry = {"check": name, "residual": float(residual), "tol": float(tol),
             "passed": bool(residual <= tol)}
    if extra:
        entry.update(extra)
    return entry


def _momentum_symbol(p: PhysParams):
    """Momentum-space symbol 1/(sqrt(4 pi^2 k^2 + m^2) - m - E)."""
    m, e = p.m, p.E
    return RadialFunction(
        eval=lambda q: 1.0 / (np.sqrt(4.0 * math.pi**2 * np.asarray(q)**2
                                      + m * m) - m - e))


def _green_flipped(r: float, p: PhysParams, g: float) -> float:
    """Candidate with the opposite sign on the exponential-tail term, from
    g = G_E(r)."""
    nu = p.nu
    if nu == 0.0:
        return g
    x = p.m * r
    tail = k0_weighted_integral("tail_exp", x, mu_over_m=nu)
    extra = (p.m / (4.0 * math.pi * r)) * (2.0 / math.pi) \
        * (1.0 - nu * nu) * 2.0 * math.sinh(nu * x) * tail
    return g + extra


def _suite_specfun() -> list[dict]:
    checks = []
    q = integrate_adaptive(lambda z: np.asarray(bessel_k(0, z)), 0.0, np.inf)
    checks.append(_check("k0_total_moment_pi_over_2",
                         abs(q - math.pi / 2.0) / (math.pi / 2.0), 1e-10))
    checks.append(_check("k0_moment_closed_form",
                         abs(k0_moment_full(0) - math.pi / 2.0), 1e-14))
    worst = 0.0
    for mu in np.arange(0.0, 0.951, 0.05):
        target = f1_moment(float(mu))
        # finite cutoff: tail decays like exp(-(1 - mu) z), below 1e-14
        # relative at z = 650 for mu <= 0.95, and both factors stay finite
        val = integrate_adaptive(
            lambda z, nu=float(mu): np.cosh(nu * z) * np.asarray(bessel_k(0, z)),
            0.0, 650.0)
        worst = max(worst, abs(val - target) / target)
    checks.append(_check("f1_moment_vs_quadrature", worst, 1e-8))
    return checks


def _suite_appendix_a() -> list[dict]:
    checks = []
    worst = {"plain": 0.0, "flipped": 0.0}
    radii = np.geomspace(0.05, 6.0, 30)
    for mu in (0.0, 0.3, 0.8):
        p = PhysParams.from_mu(mu, 1.0)
        symbol = _momentum_symbol(p)
        # one call per nu: each entry has the bits of a scalar call
        for r, g in zip(radii, green_function(radii, p)):
            oracle = radial_fourier3(symbol, float(r))
            worst["plain"] = max(worst["plain"], abs(g - oracle) / abs(oracle))
            gf = _green_flipped(float(r), p, g)
            worst["flipped"] = max(worst["flipped"],
                                   abs(gf - oracle) / abs(oracle))
    checks.append(_check("green_vs_transform_oracle", worst["plain"], 1e-6,
                         {"winning_sign": "minus_sinh_tail",
                          "flipped_sign_deviation": worst["flipped"]}))
    checks.append(_check("flipped_sign_rejected",
                         0.0 if worst["flipped"] > 1e-3 else 1.0, 0.5))
    return checks


def _suite_appendix_b() -> list[dict]:
    checks = []
    ws = np.geomspace(0.1, 10.0, 12)
    # alpha = 1, beta = 0: transform of |x|^(-1) int_0^|x| K0(z) dz
    hp = HankelParams(alpha_exp=1, beta_exp=0)
    worst_closed = worst_oracle = 0.0
    for w in ws:
        k = w / (2.0 * math.pi)
        val = hankel_incomplete(hp, k)
        closed = (1.0 / (2.0 * k * k)) / math.sqrt(1.0 + w * w)
        worst_closed = max(worst_closed, abs(val - closed) / closed)
        oracle = radial_fourier3(
            RadialFunction(lambda r: k0_integral(r) / r), k)
        worst_oracle = max(worst_oracle, abs(val - oracle) / abs(oracle))
    checks.append(_check("hankel_alpha1_beta0_closed", worst_closed, 1e-10))
    checks.append(_check("hankel_alpha1_beta0_oracle", worst_oracle, 1e-5))
    # alpha = 0, beta = 1: transform of int_|x|^inf z K0(z) dz
    hp2 = HankelParams(alpha_exp=0, beta_exp=1)
    worst_closed = worst_oracle = 0.0
    for w in ws:
        k = w / (2.0 * math.pi)
        val = hankel_tail(hp2, k)
        closed = (3.0 / (4.0 * math.pi)) * w**3 / (k**3 * (1.0 + w * w)**2.5)
        worst_closed = max(worst_closed, abs(val - closed) / closed)
        # int_r^inf z K0(z) dz = r K1(r)
        oracle = radial_fourier3(RadialFunction(lambda r: r * k1(r)), k)
        worst_oracle = max(worst_oracle, abs(val - oracle) / abs(oracle))
    checks.append(_check("hankel_alpha0_beta1_closed", worst_closed, 1e-10, {
        "note": "constant 3/(4 pi), fixed by the quadrature oracle"}))
    checks.append(_check("hankel_alpha0_beta1_oracle", worst_oracle, 1e-5))
    return checks


def _suite_appendix_c() -> list[dict]:
    checks = []
    root = h3_root()
    checks.append(_check("transcendental_root", abs(root - H3_ROOT_REFERENCE),
                         1e-6, {"root": root}))
    fails = 0
    radii = np.geomspace(0.05, 20.0, 40)
    for mu in (0.05, 0.3, 0.8):
        p = PhysParams.from_mu(mu, 1.0)
        # envelope_holds radius by radius, with one green_function call per nu
        fails += sum(not abs(g) <= envelope_bound(float(r), p)
                     for r, g in zip(radii, green_function(radii, p)))
    checks.append(_check("envelope_holds_everywhere", float(fails), 0.5))
    return checks


def _suite_series() -> list[dict]:
    alphas = np.geomspace(0.005, 0.04, 7)
    exps = []
    # keep m*r below ~1.7: near r = 1.9 the cubic coefficient of the
    # remainder nearly vanishes and the log-log fit degenerates
    for r in np.linspace(0.1, 1.6, 10):
        rem = np.array([series_remainder(float(r), float(a)) for a in alphas])
        exps.append(float(np.polyfit(np.log(alphas), np.log(rem), 1)[0]))
    worst = max(abs(e - 3.0) for e in exps)
    return [_check("remainder_cubic_exponent", worst, 0.3,
                   {"exponents": exps})]


def _suite_continuation() -> list[dict]:
    pot = bump_potential()
    res = solve(pot, PhysParams(m=1.0, E=0.0), 200)
    a = coefficient_a(res)
    b = coefficient_b(res, "direct")
    alphas = [0.0, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.025, 0.03]
    # the alpha = 0 point is res itself
    pts = [(0.0, res.mu0), *eigen_continuation(pot, res.grid, alphas[1:])]
    mus = np.array([m for _, m in pts])
    coeffs = np.polyfit(np.asarray(alphas), mus, 4)
    da, half_d2 = float(coeffs[-2]), float(coeffs[-3])
    checks = [
        _check("coefficient_a_vs_slope", abs(a - da) / abs(a), 1e-6,
               {"a": a, "slope": da}),
        _check("coefficient_b_vs_curvature", abs(b - half_d2) / abs(b), 1e-4,
               {"b": b, "half_curvature": half_d2}),
    ]
    syn = synthetic_zero_overlap_state(res.matrix)
    routes = coefficient_b(syn, "both")
    checks.append(_check("dual_route_b",
                         abs(routes.direct - routes.momentum) / abs(routes.direct),
                         1e-6, {"direct": routes.direct,
                                "momentum": routes.momentum}))
    return checks


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    runners = {
        "specfun": _suite_specfun,
        "appendix_a": _suite_appendix_a,
        "appendix_b": _suite_appendix_b,
        "appendix_c": _suite_appendix_c,
        "series": _suite_series,
        "continuation": _suite_continuation,
    }
    checks = runners[suite]()
    ok = all(c["passed"] for c in checks)
    _write({"meta": _meta(cfg, f"verify {suite}"), "passed": ok, "data": checks},
           cfg)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line and exit 1, where argparse prints its usage and exits 2;
        # an unrecognized argument is quoted as given, line breaks and all
        raise ConfigError(" ".join(message.splitlines()))


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="herbst",
                 description="Threshold analysis of the relativistic Herbst operator")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, fields in COMMAND_READS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override its values")
        for field in fields:
            flag, options = _FLAGS[field]
            sp.add_argument(flag, dest=field, **options)
        if command == "verify":
            sp.add_argument("suite", choices=VERIFY_SUITES)
    return ap


def _load_config(args: argparse.Namespace) -> RunConfig:
    given: dict = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(given) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given.update((k, v) for k, v in vars(args).items() if k in _FLAGS and v is not None)
    reads = _reads(args.command, given.get("potential"))
    for key, value in given.items():
        if key not in reads:
            why = (args.command if key not in COMMAND_READS[args.command] else
                   "a table potential: its file fixes depth and radius")
            raise ConfigError(f"{_FLAGS[key][0]} {value!r} does not apply to {why}")
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        if args.command == "verify":
            return cmd_verify(args.suite, cfg)
        commands = {"kernel": cmd_kernel, "spectrum": cmd_spectrum,
                    "threshold": cmd_threshold, "bound": cmd_bound}
        return commands[args.command](cfg)
    except (EvaluationFailure, EigensolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        # domain/validation errors from the library surface as ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
