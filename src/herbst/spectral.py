"""Nystrom discretization of the Birman-Schwinger operator.

For a radial, non-positive, compactly supported potential the operator
K = |V|^(1/2) (H0 - E)^(-1) |V|^(1/2) restricted to the s-wave sector
reduces to a one-dimensional symmetric kernel

    M_ij = sqrt(w_i w_j) |V_i V_j|^(1/2) * 2 pi int_|ri-rj|^(ri+rj) t G_E(t) dt

on a Gauss-Legendre grid over (0, R).  The logarithmic diagonal singularity
(the K1 part of the Green's function) is handled by cell-averaging its K0
primitive over the quadrature cells of near-diagonal nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PchipInterpolator

from .kernel import GreenKernelTable, PhysParams
from .specfun import k0

POTENTIAL_FAMILIES = ("bump", "truncated_gaussian", "square_well_smoothed",
                      "two_well", "tabulated")


class EigensolverError(RuntimeError):
    pass


class DegenerateEigenvalueError(EigensolverError):
    """The requested eigenvalue is not simple; the threshold expansion
    assumes a simple leading eigenvalue."""


def _mollifier(u):
    """C-infinity bump exp(1 - 1/(1-u^2)) on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    v = np.where(inside, u, 0.0)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - v * v))[inside]
    return out


def _smoothstep(s):
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    def f(t):
        return np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    return f(s) / (f(s) + f(1.0 - s))


@dataclass(frozen=True)
class RadialPotential:
    """Non-positive, compactly supported radial profile V(r)."""

    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    family_id: str

    def __post_init__(self) -> None:
        if self.support_radius <= 0.0:
            raise ValueError("support radius must be positive")
        if self.family_id not in POTENTIAL_FAMILIES:
            raise ValueError(f"unknown potential family {self.family_id!r}")
        probe = np.linspace(0.0, 1.2 * self.support_radius, 257)[1:]
        vals = np.asarray(self.profile(probe), dtype=float)
        if np.any(vals > 1e-12):
            raise ValueError("potential must be non-positive everywhere")
        if np.any(np.abs(vals[probe >= self.support_radius]) > 1e-12):
            raise ValueError("potential must vanish beyond its support radius")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        vals = np.where(r < self.support_radius,
                        np.asarray(self.profile(r), dtype=float), 0.0)
        return np.minimum(vals, 0.0)

    def scaled(self, c: float) -> "RadialPotential":
        """The potential c * V (c > 0)."""
        if c <= 0.0:
            raise ValueError("scaling must be positive")
        base = self.profile
        return RadialPotential(lambda r: c * np.asarray(base(r)),
                               self.support_radius, self.family_id)


def bump_potential(depth: float = 1.0, radius: float = 1.0) -> RadialPotential:
    """The default C0-infinity well -depth * exp(1 - 1/(1 - (r/R)^2))."""
    return RadialPotential(
        lambda r: -depth * _mollifier(np.asarray(r) / radius),
        radius, "bump")


def truncated_gaussian_potential(depth: float = 1.0, radius: float = 1.0,
                                 width: float | None = None) -> RadialPotential:
    width = radius / 3.0 if width is None else width
    def prof(r):
        r = np.asarray(r, dtype=float)
        return -depth * np.exp(-r * r / (2.0 * width * width)) \
            * _smoothstep((radius - r) / (0.15 * radius))
    return RadialPotential(prof, radius, "truncated_gaussian")


def square_well_potential(depth: float = 1.0, radius: float = 1.0,
                          edge: float | None = None) -> RadialPotential:
    """Flat well with a C-infinity shoulder of width ``edge`` at the rim."""
    edge = 0.2 * radius if edge is None else edge
    def prof(r):
        return -depth * _smoothstep((radius - np.asarray(r, dtype=float)) / edge)
    return RadialPotential(prof, radius, "square_well_smoothed")


def two_well_potential(depth1: float, depth2: float, radius: float = 1.0,
                       centers: tuple[float, float] = (0.3, 0.75),
                       widths: tuple[float, float] = (0.3, 0.25)) -> RadialPotential:
    """Two concentric radial bumps; used to tune overlap-free eigenstates."""
    c1, c2 = centers
    h1, h2 = widths
    def prof(r):
        r = np.asarray(r, dtype=float)
        return -(depth1 * _mollifier((r - c1 * radius) / (h1 * radius))
                 + depth2 * _mollifier((r - c2 * radius) / (h2 * radius)))
    return RadialPotential(prof, radius, "two_well")


def tabulated_potential(source) -> RadialPotential:
    """Potential from a two-column (r, V) text file or array, radii ascending."""
    if isinstance(source, (str, Path)):
        data = np.loadtxt(source)
    else:
        data = np.asarray(source, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise ValueError("tabulated potential needs >= 4 rows of (r, V)")
    r, v = data[:, 0], data[:, 1]
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("tabulated radii must be strictly ascending")
    if np.any(v > 0.0):
        raise ValueError("tabulated potential values must be <= 0")
    interp = PchipInterpolator(r, v, extrapolate=False)
    r_max = r[-1]
    def prof(rr):
        rr = np.asarray(rr, dtype=float)
        vals = interp(np.clip(rr, r[0], r_max))
        vals = np.where(rr <= r_max, np.nan_to_num(vals), 0.0)
        return np.minimum(vals, 0.0)
    return RadialPotential(prof, r_max, "tabulated")


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature nodes/weights on (0, R) for the radial discretization."""

    nodes: np.ndarray
    weights: np.ndarray
    _radius_hint: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("grid weights must be positive")
        R = self.radius
        check = float((self.weights * self.nodes**2).sum())
        if abs(check - R**3 / 3.0) > 1e-8 * R**3:
            raise ValueError("grid fails the second-moment sanity check")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def radius(self) -> float:
        # upper end of the interval the rule integrates over
        return float(self._radius_hint)

    @classmethod
    def gauss_legendre(cls, n: int, radius: float) -> "QuadGrid":
        x, w = leggauss(n)
        return cls(nodes=0.5 * radius * (x + 1.0),
                   weights=0.5 * radius * w,
                   _radius_hint=radius)


@dataclass(frozen=True)
class BsMatrix:
    """Symmetric Nystrom matrix of the Birman-Schwinger operator."""

    entries: np.ndarray
    params: PhysParams
    potential: RadialPotential
    grid: QuadGrid

    def __post_init__(self) -> None:
        m = self.entries
        if not np.all(np.isfinite(m)):
            bad = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(f"non-finite matrix entry at {tuple(bad)}")
        if np.max(np.abs(m - m.T)) > 1e-13 * max(1.0, np.max(np.abs(m))):
            raise ValueError("matrix assembly lost symmetry")


def _cell_averaged_k0(d: np.ndarray, h: np.ndarray, c0) -> np.ndarray:
    """(1/2h) int over a cell of half-width h of K0(m|.|) at distance d."""
    near = d <= h
    far_val = (c0(d + h) - c0(np.abs(d - h))) / (2.0 * h)
    split_val = (c0(h - np.minimum(d, h)) + c0(h + d)) / (2.0 * h)
    return np.where(near, split_val, far_val)


def s_wave_reduce(potential: RadialPotential, p: PhysParams, grid: QuadGrid,
                  table: GreenKernelTable | None = None) -> BsMatrix:
    """Assemble the s-wave Nystrom matrix of K at the energy in ``p``."""
    r = grid.nodes
    w = grid.weights
    R = grid.radius
    if r[-1] >= R:
        raise ValueError("grid must lie strictly inside (0, R)")
    if table is None:
        table = GreenKernelTable(p, s_max=2.0 * R * 1.001)
    m = p.m

    rr = r[:, None] + r[None, :]
    dd = np.abs(r[:, None] - r[None, :])

    # smooth part of 2 pi * int t G dt
    kappa = 2.0 * math.pi * (table.cumulative_smooth(rr) - table.cumulative_smooth(dd))

    # singular K1 part, primitive -K0/(2 pi^2): off-diagonal direct,
    # near-diagonal via symmetrized cell averages of the K0 primitive
    c0 = table.k0_cumulative
    k0_dd = np.zeros_like(dd)
    off = dd > 0.0
    k0_dd[off] = k0(m * dd[off])
    h_i = np.broadcast_to(0.5 * w[:, None], dd.shape)
    h_j = np.broadcast_to(0.5 * w[None, :], dd.shape)
    near = dd <= 3.0 * np.maximum(w[:, None], w[None, :])
    if near.any():
        d_n = m * dd[near]
        avg_j = _cell_averaged_k0(d_n, m * h_j[near], c0)
        avg_i = _cell_averaged_k0(d_n, m * h_i[near], c0)
        k0_dd[near] = 0.5 * (avg_i + avg_j)
    kappa += (1.0 / math.pi) * (k0_dd - k0(m * rr))

    root_v = np.sqrt(-potential(r))
    sw = np.sqrt(w)
    entries = (sw * root_v)[:, None] * kappa * (sw * root_v)[None, :]
    entries = 0.5 * (entries + entries.T)
    return BsMatrix(entries=entries, params=p, potential=potential, grid=grid)


@dataclass(frozen=True)
class SpectralResult:
    """Leading (or selected) eigenpair of the discretized operator."""

    mu0: float
    lambda0: float
    phi: np.ndarray       # physical eigenfunction samples, ||phi||_2 = 1
    vector: np.ndarray    # unit eigenvector in the weighted coordinates
    gap: float            # distance to the nearest other eigenvalue
    residual: float
    index: int            # 0 = leading
    grid: QuadGrid
    potential: RadialPotential
    params: PhysParams
    # full decomposition, eigenvalues descending; column ``index`` is
    # ``vector``.  None for a trial state that is not an eigenpair (index -1)
    eigvals: np.ndarray | None
    eigvecs: np.ndarray | None


def leading_eigenpair(mat: BsMatrix, index: int = 0,
                      sign_reference: np.ndarray | None = None) -> SpectralResult:
    """Largest (or index-th from the top) eigenvalue and eigenfunction.

    The eigenfunction is returned as physical samples phi(r_i), normalized
    so that 4 pi sum_i w_i r_i^2 phi_i^2 = 1.  Its sign makes the overlap
    with ``sign_reference`` positive when that is given and nonzero, and
    the largest-magnitude component positive otherwise.
    """
    a = mat.entries
    n = a.shape[0]
    if index < 0 or index >= n:
        raise ValueError("eigenpair index out of range")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError("symmetric eigensolver failed") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    mu = float(vals[index])
    v = vecs[:, index]
    others = np.delete(vals, index)
    gap = float(np.min(np.abs(others - mu))) if len(others) else np.inf
    scale = max(np.max(np.abs(vals)), 1e-300)
    if gap < 1e-12 * scale and scale > 1e-200:
        raise DegenerateEigenvalueError(
            f"eigenvalue {mu} is degenerate within {gap}; "
            "the threshold expansion assumes a simple eigenvalue")
    residual = float(np.linalg.norm(a @ v - mu * v))
    ref = 0.0 if sign_reference is None else float(v @ sign_reference)
    flip = ref < 0.0 if ref != 0.0 else v[np.argmax(np.abs(v))] < 0.0
    if flip:
        v = -v
        vecs[:, index] = v
    r = mat.grid.nodes
    w = mat.grid.weights
    phi = v / (np.sqrt(4.0 * math.pi * w) * r)
    lam0 = 1.0 / mu if mu > 0.0 else math.inf
    return SpectralResult(
        mu0=mu, lambda0=lam0, phi=phi, vector=v, gap=gap, residual=residual,
        index=index, grid=mat.grid, potential=mat.potential, params=mat.params,
        eigvals=vals, eigvecs=vecs)


def eigen_continuation(
    potential: RadialPotential,
    grid: QuadGrid,
    alphas: Sequence[float],
    m: float = 1.0,
    index: int = 0,
) -> list[tuple[float, float]]:
    """Leading eigenvalue of the full kernel K(alpha) along a list of alphas.

    Brute-force oracle for the threshold expansion: mu(0) = mu0 and the
    alpha-derivatives at 0 reproduce the expansion coefficients.
    """
    out = []
    for alpha in alphas:
        p = PhysParams.from_alpha(float(alpha), m)
        mat = s_wave_reduce(potential, p, grid)
        res = leading_eigenpair(mat, index=index)
        out.append((float(alpha), res.mu0))
    return out
