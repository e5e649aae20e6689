"""The two benchmark workloads and the correctness checks behind ``failed``.

Each workload is a closed loop: a single caller issues the next call into
``herbst`` only after the previous one has returned.  ``setup`` draws the
sample points from the seed and builds whatever state a pass needs;
``run_pass`` makes one pass and checks every result.  The seed draws sample
points only (radii, ``mu``, ``alpha`` lists, depth-scale factors, ``lambda``
samples); potential families, grid sizes and call counts are fixed, so every
seed does the same work.  ``reduced=True`` shrinks the counts for the
benchmark's own tests.

Tolerances come from the ``herbst verify`` suites and the acceptance tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.special
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from herbst import cli, fourierb, kernel, quad, specfun, spectral, threshold

from tracing import Pass

# Spans inside which the traced run measures the tracemalloc peak.
MEMORY_SPANS = ("spectral.s_wave_reduce",)

P0 = kernel.PhysParams(m=1.0, E=0.0)


def _strata(rng, lo: float, hi: float, k: int, log: bool = True) -> np.ndarray:
    """k ascending draws, one uniform in each of k equal parts of [lo, hi]."""
    u = (np.arange(k) + rng.random(k)) / k
    if log:
        return np.exp(math.log(lo) + u * math.log(hi / lo))
    return lo + u * (hi - lo)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_rel(ctx: Pass, name: str, got: float, want: float, tol: float) -> float:
    """One operation: |got - want| / |want| <= tol.  Returns the deviation."""
    dev = _rel(got, want)
    ctx.check(name, dev <= tol, f"rel dev {dev:.3e} > {tol:.0e} ({got!r} vs {want!r})")
    return dev


def _reduce(ctx: Pass, potential, p, grid, table=None):
    ctx.count("spectral.s_wave_reduce.n2", grid.size ** 2)
    return ctx.call("spectral.s_wave_reduce", spectral.s_wave_reduce,
                    potential, p, grid, table=table)


def _grid_doubling(potential, n: int, radius: float) -> dict[str, float]:
    """|x(2n) - x(n)| / |x(n)| for mu0 and b, untraced."""
    exps = []
    for size in (n, 2 * n):
        grid = spectral.QuadGrid.gauss_legendre(size, radius)
        res = spectral.leading_eigenpair(spectral.s_wave_reduce(potential, P0, grid))
        exps.append(threshold.expansion_from_state(res))
    return {"mu0_delta_rel": _rel(exps[1].mu0, exps[0].mu0),
            "b_delta_rel": _rel(exps[1].b, exps[0].b)}


# ---------------------------------------------------------------------------
# threshold_pipeline: the full threshold analysis, as `herbst threshold` and
# `herbst spectrum` do it, for three potentials at n and 2n.
# ---------------------------------------------------------------------------

_FAMILIES = {"bump": spectral.bump_potential,
             "gauss": spectral.truncated_gaussian_potential,
             "well": spectral.square_well_potential}


@dataclass
class _Family:
    name: str          # the CLI's --potential value
    radius: float
    potential: spectral.RadialPotential
    lambda_fractions: np.ndarray  # lambda / lambda0, ascending in (1, 1.2]
    r_far: np.ndarray             # fit radii for u_reconstruct, in [5R, 50R]


@dataclass
class ThresholdState:
    base_n: int
    families: list[_Family]
    work_dir: Path
    verify: VerifyState


def setup_threshold(seed: int, reduced: bool, work_dir: Path) -> ThresholdState:
    rng = np.random.default_rng(seed)
    n_lambda = 10 if reduced else 100
    families = []
    for name, radius in (("bump", 1.0), ("gauss", 1.0), ("well", 3.0)):
        fractions = np.sort(1.0 + 0.2 * (1.0 - rng.random(n_lambda)))
        r_far = np.sort(radius * np.exp(rng.uniform(math.log(5.0), math.log(50.0), 25)))
        families.append(_Family(name, radius, _FAMILIES[name](1.0, radius),
                                fractions, r_far))
    return ThresholdState(60 if reduced else 400, families, work_dir,
                          setup_verify(seed, reduced, work_dir))


def _threshold_family(ctx: Pass, fam: _Family, n: int):
    label = f"{fam.name} n={n}"
    R = fam.radius
    grid = ctx.call("spectral.gauss_legendre", spectral.QuadGrid.gauss_legendre, n, R)
    table = ctx.call("kernel.GreenKernelTable", kernel.GreenKernelTable,
                     P0, s_max=2.0 * R * 1.001)
    mat = _reduce(ctx, fam.potential, P0, grid, table)
    res = ctx.call("spectral.leading_eigenpair", spectral.leading_eigenpair, mat)
    exp = ctx.call("threshold.expansion_from_state", threshold.expansion_from_state, res)
    ctx.check(f"a_nonpositive[{label}]", exp.a <= 0.0, f"a = {exp.a!r}")

    # E(lambda0) itself is not evaluated: at this commit it is -4.9e-32, not
    # 0.0, for the bump and the well at n=400 (ROADMAP Open item 0), and the
    # workloads must be ones on which no operation fails.  The benchmark's
    # own tests keep that exact check as a known failure.
    previous = 0.0
    for lam in exp.lambda0 * fam.lambda_fractions:
        energy = ctx.call("threshold.energy_of_lambda", threshold.energy_of_lambda,
                          exp, float(lam))
        ctx.check(f"energy_nonpositive_monotone[{label}]",
                  energy <= 0.0 and energy <= previous,
                  f"E({lam!r}) = {energy!r} after {previous!r}")
        previous = energy

    rep = ctx.call("threshold.u_reconstruct", threshold.u_reconstruct, res, fam.r_far)
    ctx.check(f"decay_gamma_near_one[{label}]", abs(rep.gamma - 1.0) <= 0.1,
              f"gamma = {rep.gamma!r}")
    return exp


def _cli_meta(ctx: Pass, command: str, out: Path, n: int) -> dict:
    code = ctx.call("cli.main", cli.main,
                    [command, "--format", "json", "--out", str(out), "--grid-n", str(n)])
    ctx.check(f"cli_{command}_exit_code", code == 0, f"exit code {code}")
    return json.loads(out.read_text())["meta"]


def run_threshold(state: ThresholdState, ctx: Pass) -> None:
    n = state.base_n
    exps: dict[tuple[str, int], threshold.ThresholdExpansion] = {}
    for fam in state.families:
        for size in (n, 2 * n):
            with ctx.step("threshold_family", f"{fam.name} n={size}"):
                exps[fam.name, size] = _threshold_family(ctx, fam, size)

    mu0_deltas, b_deltas = [], []
    for fam in state.families:
        if (fam.name, n) in exps and (fam.name, 2 * n) in exps:
            lo, hi = exps[fam.name, n], exps[fam.name, 2 * n]
            mu0_deltas.append(_rel(hi.mu0, lo.mu0))
            b_deltas.append(_rel(hi.b, lo.b))
    if len(mu0_deltas) == len(state.families):
        ctx.outputs["mu0_delta_rel"] = max(mu0_deltas)
        ctx.outputs["b_delta_rel"] = max(b_deltas)

    # The CLI on the bump at the same n must print the direct-call numbers.
    with ctx.step("cli_threshold"):
        meta = _cli_meta(ctx, "threshold", state.work_dir / "threshold.json", n)
        want = exps["bump", n]
        for key in ("mu0", "a", "b"):
            ctx.check(f"cli_threshold_{key}_equal", meta[key] == getattr(want, key),
                      f"{meta[key]!r} vs {getattr(want, key)!r}")
    with ctx.step("cli_spectrum"):
        meta = _cli_meta(ctx, "spectrum", state.work_dir / "spectrum.json", n)
        lo, hi = exps["bump", n], exps["bump", 2 * n]
        ctx.check("cli_spectrum_mu0_equal", meta["mu0"] == lo.mu0,
                  f"{meta['mu0']!r} vs {lo.mu0!r}")
        delta = abs(hi.mu0 - lo.mu0) / lo.mu0
        ctx.check("cli_spectrum_delta_equal", meta["convergence_delta"] == delta,
                  f"{meta['convergence_delta']!r} vs {delta!r}")

    run_verify(state.verify, ctx)


# ---------------------------------------------------------------------------
# The `herbst verify` traffic as direct calls, which ends every
# threshold_pipeline pass: scalar quadrature over scalar Bessel evaluations,
# no matrix assembly.
# ---------------------------------------------------------------------------

_ORACLE_XMAX = 30.0  # beyond this the K0 moments used here are complete to ~1e-12


def _k0_moment_spline(beta: int) -> CubicSpline:
    """Cumulative int_0^x z^beta K0(z) dz from scipy's K0, independent of herbst.

    Gauss-Legendre panels in s with z = s^4, which smooths the log
    singularity of K0 at the origin.
    """
    s = np.linspace(0.0, _ORACLE_XMAX ** 0.25, 1201)
    gx, gw = leggauss(16)
    mid = 0.5 * (s[:-1] + s[1:])[:, None]
    half = 0.5 * (s[1:] - s[:-1])[:, None]
    t = mid + half * gx
    z = t ** 4
    pieces = (half * gw * 4.0 * t ** 3 * z ** beta * scipy.special.k0(z)).sum(axis=1)
    return CubicSpline(s ** 4, np.concatenate([[0.0], np.cumsum(pieces)]))


def _momentum_symbol(p: kernel.PhysParams) -> quad.RadialFunction:
    """1/(sqrt(4 pi^2 k^2 + m^2) - m - E), whose 3-D transform is G_E."""
    m, e = p.m, p.E
    return quad.RadialFunction(
        eval=lambda q: 1.0 / (np.sqrt(4.0 * math.pi ** 2 * np.asarray(q) ** 2 + m * m)
                              - m - e))


# The call lists of the `herbst verify` suites, as in src/herbst/cli.py.
VERIFY_STRIDE = 10           # the workload makes one call in ten of each list
REDUCED_STRIDE = 30
_GREEN_POINTS = [(mu, float(r)) for mu in (0.0, 0.3, 0.8)       # appendix_a
                 for r in np.geomspace(0.05, 6.0, 30)]
_HANKEL_WS = np.geomspace(0.1, 10.0, 12).tolist()                # appendix_b
_ENVELOPE_POINTS = [(mu, float(r)) for mu in (0.05, 0.3, 0.8)   # appendix_c
                    for r in np.geomspace(0.05, 20.0, 40)]
_SERIES_RADII = np.linspace(0.1, 1.6, 10).tolist()               # series
_SERIES_ALPHAS = np.geomspace(0.005, 0.04, 7)
_F1_MUS = np.arange(0.0, 0.951, 0.05).tolist()                   # specfun


def every_kth(rng, points: list, stride: int) -> list:
    """One point from each of round(len/stride) consecutive blocks of a list.

    The number of blocks (at least one) fixes the call count; the seed only
    picks which point of each block is called.
    """
    count = max(1, round(len(points) / stride))
    bounds = np.linspace(0, len(points), count + 1).astype(int)
    return [points[rng.integers(lo, hi)] for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass
class VerifyState:
    green_points: list[tuple[float, float]]      # (mu, r)
    series_radius: float
    series_alphas: np.ndarray
    envelope_points: list[tuple[float, float]]   # (mu, r)
    hankel_incomplete_w: float
    hankel_tail_w: float
    k0_split: float                              # x of incomplete + tail = full
    f1_points: list[tuple[float, float]]         # (split x, nu)
    bessel_x: np.ndarray
    state_small: spectral.SpectralResult          # bump eigenpair at n=100
    incomplete_over_r: quad.RadialFunction
    tail_zk0: quad.RadialFunction


def setup_verify(seed: int, reduced: bool, work_dir: Path) -> VerifyState:
    rng = np.random.default_rng(seed)
    stride = REDUCED_STRIDE if reduced else VERIFY_STRIDE
    green_points = every_kth(rng, _GREEN_POINTS, stride)
    (series_radius,) = every_kth(rng, _SERIES_RADII, stride)
    series_alphas = _SERIES_ALPHAS[::3] if reduced else _SERIES_ALPHAS
    envelope_points = every_kth(rng, _ENVELOPE_POINTS, stride)
    (w_incomplete,) = every_kth(rng, _HANKEL_WS, stride)
    (w_tail,) = every_kth(rng, _HANKEL_WS, stride)
    f1_nus = every_kth(rng, _F1_MUS, stride)
    splits = _strata(rng, 0.2, 5.0, 1 + len(f1_nus))
    bessel_x = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(60.0),
                                          100 if reduced else 10_000)))

    n = 20 if reduced else 100
    grid = spectral.QuadGrid.gauss_legendre(n, 1.0)
    state_small = spectral.leading_eigenpair(
        spectral.s_wave_reduce(spectral.bump_potential(), P0, grid))

    c0, c1 = _k0_moment_spline(0), _k0_moment_spline(1)

    def incomplete_over_r(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < _ORACLE_XMAX, c0(np.minimum(r, _ORACLE_XMAX)),
                        math.pi / 2.0) / r

    def tail_zk0(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < _ORACLE_XMAX, 1.0 - c1(np.minimum(r, _ORACLE_XMAX)), 0.0)

    return VerifyState(green_points, series_radius, series_alphas, envelope_points,
                       w_incomplete, w_tail, float(splits[0]),
                       list(zip(splits[1:].tolist(), f1_nus)), bessel_x, state_small,
                       quad.RadialFunction(incomplete_over_r),
                       quad.RadialFunction(tail_zk0))


def _k0(z):
    return np.asarray(specfun.bessel_k(0, z))


def run_verify(state: VerifyState, ctx: Pass) -> None:
    worst_flipped = 0.0
    for mu, r in state.green_points:
        with ctx.step("green_vs_oracle", f"mu={mu} r={r}"):
            p = kernel.PhysParams.from_mu(mu)
            g = ctx.call("kernel.green_function", kernel.green_function, r, p)
            oracle = ctx.call("quad.radial_fourier3", quad.radial_fourier3,
                              _momentum_symbol(p), r)
            dev = check_rel(ctx, f"green_vs_oracle[mu={mu} r={r}]", g, oracle, 1e-6)
            ctx.note_max("kernel.green_function.oracle_dev", dev)
            if p.nu > 0.0:
                # verify's candidate with the opposite sign on the exponential
                # tail term, which the oracle must reject
                x = p.m * r
                tail = ctx.call("specfun.k0_weighted_integral",
                                specfun.k0_weighted_integral, "tail_exp", x,
                                mu_over_m=p.nu)
                flipped = g + (p.m / (4.0 * math.pi * r)) * (2.0 / math.pi) \
                    * (1.0 - p.nu ** 2) * 2.0 * math.sinh(p.nu * x) * tail
                worst_flipped = max(worst_flipped, _rel(flipped, oracle))
    ctx.check("flipped_sign_rejected", worst_flipped > 1e-3,
              f"flipped-sign candidate within {worst_flipped:.3e} of the oracle")

    r = state.series_radius
    with ctx.step("series_remainder", f"r={r}"):
        rems = [ctx.call("kernel.series_remainder", kernel.series_remainder, r, float(a))
                for a in state.series_alphas]
        slope = float(np.polyfit(np.log(state.series_alphas), np.log(rems), 1)[0])
        ctx.check(f"series_remainder_cubic[r={r}]", abs(slope - 3.0) <= 0.3,
                  f"exponent {slope!r}")
    with ctx.step("b_profile_vs_grid", f"r={r}"):
        # verify reaches b_profile only inside series_remainder, at this radius
        want = ctx.call("kernel.b_profile_grid", kernel.b_profile_grid, r)
        got = ctx.call("kernel.b_profile", kernel.b_profile, r)
        check_rel(ctx, f"b_profile_vs_grid[r={r}]", got, want, 1e-7)

    with ctx.step("h3_root"):
        root = ctx.call("kernel.h3_root", kernel.h3_root)
        ctx.check("h3_root", abs(root - kernel.H3_ROOT_REFERENCE) <= 1e-6, f"root {root!r}")

    for mu, r in state.envelope_points:
        with ctx.step("envelope_holds", f"mu={mu} r={r}"):
            holds = ctx.call("kernel.envelope_holds", kernel.envelope_holds,
                             r, kernel.PhysParams.from_mu(mu))
            ctx.check(f"envelope_holds[mu={mu} r={r}]", holds)

    w = state.hankel_incomplete_w
    with ctx.step("hankel_incomplete", f"w={w}"):
        k = w / (2.0 * math.pi)
        got = ctx.call("fourierb.hankel", fourierb.hankel_incomplete,
                       fourierb.HankelParams(1, 0), k)
        check_rel(ctx, f"hankel_incomplete_closed[w={w}]", got,
                  0.5 / (k * k * math.sqrt(1.0 + w * w)), 1e-10)
        oracle = ctx.call("quad.radial_fourier3", quad.radial_fourier3,
                          state.incomplete_over_r, k)
        check_rel(ctx, f"hankel_incomplete_oracle[w={w}]", got, oracle, 1e-5)
    w = state.hankel_tail_w
    with ctx.step("hankel_tail", f"w={w}"):
        k = w / (2.0 * math.pi)
        got = ctx.call("fourierb.hankel", fourierb.hankel_tail,
                       fourierb.HankelParams(0, 1), k)
        check_rel(ctx, f"hankel_tail_closed[w={w}]", got,
                  (3.0 / (4.0 * math.pi)) * w ** 3 / (k ** 3 * (1.0 + w * w) ** 2.5),
                  1e-10)
        oracle = ctx.call("quad.radial_fourier3", quad.radial_fourier3, state.tail_zk0, k)
        check_rel(ctx, f"hankel_tail_oracle[w={w}]", got, oracle, 1e-5)

    x = state.k0_split
    with ctx.step("k0_moment", f"x={x}"):
        inc = ctx.call("specfun.k0_weighted_integral", specfun.k0_weighted_integral,
                       "incomplete_plain", x, beta=0)
        tail = ctx.call("quad.integrate_adaptive", quad.integrate_adaptive, _k0, x, np.inf)
        full = ctx.call("specfun.k0_moment_full", specfun.k0_moment_full, 0)
        check_rel(ctx, f"k0_moment_0[x={x}]", inc + tail, full, 1e-10)
    for x, nu in state.f1_points:
        with ctx.step("f1_moment", f"x={x} nu={nu}"):
            inc = ctx.call("specfun.k0_weighted_integral", specfun.k0_weighted_integral,
                           "incomplete_cosh", x, mu_over_m=nu)
            # the tail decays like exp(-(1 - nu) z): below 1e-14 relative at z = 650
            tail = ctx.call("quad.integrate_adaptive", quad.integrate_adaptive,
                            lambda z: np.cosh(nu * z) * _k0(z), x, 650.0)
            full = ctx.call("specfun.f1_moment", specfun.f1_moment, nu)
            check_rel(ctx, f"f1_moment[x={x} nu={nu}]", inc + tail, full, 1e-8)

    for order, reference in ((0, scipy.special.k0), (1, scipy.special.k1)):
        with ctx.step("bessel_k", f"order={order}"):
            x = state.bessel_x
            ctx.count("specfun.bessel_k.points", x.size)
            vals = ctx.call("specfun.bessel_k", specfun.bessel_k, order, x)
            dev = float(np.max(np.abs(vals / reference(x) - 1.0)))
            ctx.check(f"bessel_k{order}_vs_scipy", dev <= 1e-12, f"max rel dev {dev:.3e}")

    with ctx.step("small_x_constants"):
        c = ctx.call("threshold.small_x_constants", threshold.small_x_constants,
                     state.state_small)
        ctx.check("small_x_constants_finite_positive",
                  c.a1_finite and c.a2_finite and c.a1 > 0.0 and c.a2 > 0.0,
                  f"{c!r}")


# ---------------------------------------------------------------------------
# fixed_grid_scan: many small solves on one n=200 geometry.
# ---------------------------------------------------------------------------

@dataclass
class ScanState:
    grid: spectral.QuadGrid
    bump: spectral.RadialPotential
    alphas: list[float]
    scales: np.ndarray


def setup_scan(seed: int, reduced: bool, work_dir: Path) -> ScanState:
    rng = np.random.default_rng(seed)
    # alpha = 0 plus one draw in each eighth of (0, 0.03], within the half
    # of it nearer the top, as in the `continuation` verify suite
    alphas = [0.0] + (0.03 * (np.arange(1, 9) - 0.5 * rng.random(8)) / 8).tolist()
    scales = _strata(rng, 0.25, 4.0, 2 if reduced else 8)
    n = 60 if reduced else 200
    return ScanState(spectral.QuadGrid.gauss_legendre(n, 1.0), spectral.bump_potential(),
                     alphas, scales)


def run_scan(state: ScanState, ctx: Pass) -> None:
    grid = state.grid

    with ctx.step("continuation"):
        res = ctx.call("spectral.leading_eigenpair", spectral.leading_eigenpair,
                       _reduce(ctx, state.bump, P0, grid))
        a = ctx.call("threshold.coefficient_a", threshold.coefficient_a, res)
        b = ctx.call("threshold.coefficient_b", threshold.coefficient_b, res, "direct")
        points = ctx.call("spectral.eigen_continuation", spectral.eigen_continuation,
                          state.bump, grid, state.alphas)
        coeffs = np.polyfit(np.asarray(state.alphas), np.array([mu for _, mu in points]), 4)
        check_rel(ctx, "coefficient_a_vs_slope", a, float(coeffs[-2]), 1e-3)
        check_rel(ctx, "coefficient_b_vs_curvature", b, float(coeffs[-3]), 1e-2)

    for c in state.scales:
        with ctx.step("depth_scaling", f"c={c}"):
            scaled = ctx.call("spectral.leading_eigenpair", spectral.leading_eigenpair,
                              _reduce(ctx, state.bump.scaled(float(c)), P0, grid))
            check_rel(ctx, f"lambda0_scaling[c={c}]", scaled.lambda0 * float(c),
                      res.lambda0, 1e-10)

    with ctx.step("tune_zero_overlap"):
        _, tuned = ctx.call("threshold.tune_zero_overlap", threshold.tune_zero_overlap, grid)
        routes = ctx.call("threshold.coefficient_b", threshold.coefficient_b, tuned, "both")
        dev = check_rel(ctx, "dual_route_b", routes.momentum, routes.direct, 1e-3)
        ctx.note_max("threshold.coefficient_b.route_dev", dev)
        exp = ctx.call("threshold.expansion_from_state", threshold.expansion_from_state, tuned)
        ctx.check("tuned_branch_a_zero", exp.branch == "a_zero" and exp.a <= 0.0,
                  f"branch {exp.branch}, a = {exp.a!r}")
        report = ctx.call("threshold.zero_energy_condition", threshold.zero_energy_condition,
                          tuned, check_decay=True)
        ctx.check("tuned_zero_energy_eigenvalue",
                  report.is_eigenvalue and report.decay_gamma >= 1.9, f"{report!r}")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool, Path], object]
    run_pass: Callable[[object, Pass], None]
    # (full, reduced) size of the bump grid whose doubling gives mu0_delta_rel
    # and b_delta_rel, for a pass that solves no grid pair of its own.  It is
    # solved apart from set-up and from the timed passes.
    doubling_n: tuple[int, int] | None = None

    def grid_doubling(self, reduced: bool) -> dict[str, float]:
        full, small = self.doubling_n
        return _grid_doubling(spectral.bump_potential(), small if reduced else full, 1.0)


WORKLOADS = {
    "threshold_pipeline": Workload(setup_threshold, run_threshold),
    "fixed_grid_scan": Workload(setup_scan, run_scan, doubling_n=(200, 60)),
}
