"""Nystrom discretization of the Birman-Schwinger operator.

``solve(potential, p, n)`` is the one entry point of a one-shot solve: it
picks the n-point grid over the potential's own support, the assembly and
the eigensolve described below, so no caller chooses the rule.

For a radial, non-positive, compactly supported potential the operator
K = |V|^(1/2) (H0 - E)^(-1) |V|^(1/2) restricted to the s-wave sector
reduces to a one-dimensional symmetric kernel

    M_ij = sqrt(w_i w_j) |V_i V_j|^(1/2) * 2 pi int_|ri-rj|^(ri+rj) t G_E(t) dt

on a Gauss-Legendre grid over (0, R), whose nodes come from Newton's method
on the Legendre recurrence (``_reference_rule``), with no n x n array.  Its
only singular part is the logarithm ln((r + rho)/|r - rho|) / pi that
G_E(t) ~ 1/(2 pi^2 t^2) puts on the diagonal, added in closed form by
``GreenKernelTable``.  The rule is singularity subtraction (Kress, Linear
Integral Equations, ch. 12): off the diagonal the kernel is sampled, and
k_ii = (I_i - sum_(j != i) w_j k_ij) / w_i with I_i the exact row integral
over (0, R), so each row integrates g = 1 exactly.  The matrix stays
symmetric, and the rule is third order in n.

Assembly is two functions: ``green_kernel(grid, p)`` gives the kernel at one
energy as its packed lower triangle, n(n+1)/2 entries, and
``BsMatrix.from_kernel`` scales it by sqrt(w |V|) for one potential, in
place or, for a read-only kernel, into a new array, so a solve holds one
such array and no n x n one.  Both run by blocks of whole rows of the
triangle (``_row_blocks``).  ``b_form`` is the same rule for the
profile B, reduced to the one quadratic form the coefficient b needs, so its
matrix is never formed; it runs over tiles of at most 128 x 128 pairs
(``_strips``, ``_tiles``).  No temporary is larger than a tile.

The solvers see the matrix through three members of ``BsMatrix``: ``apply``
(BLAS dspmv on the packed triangle), ``scale`` = max|M| and ``norm_bound``
= |M|_F.  The Birman-Schwinger principle needs only the top eigenvalues of
M, the gap and one eigenvector, so ``leading_eigenpair`` takes them from a
block Krylov space (``_ritz_pairs``) that only multiplies by M, by
Rayleigh-Ritz with LAPACK dsyevr, called directly, on the k x k projected
matrix: no n x n factorization.

The ring tables behind the kernels depend on the energy, the mass and the
reach 2R only, not on n or the potential: ``green_kernel`` and ``b_form``
share one read-only table per key (``kernel._green_table``,
``kernel._b_table``), so solves at one energy build it once.

The kernel depends on (E, m, grid) only, since the potential enters K as
the outer factor |V|^(1/2).  So ``s_wave_reduce`` with no table given, and
``threshold.tune_zero_overlap``, take it from a kernel cache
(``_shared_kernel``): read-only packed kernels keyed by p, R and the bytes
of the grid's nodes and weights, so that a grid changed in place misses,
the least recently used evicted first within ``kernel._KERNEL_BYTES`` = 2
MB.  The n = 200 and 400 kernels fit; one above n = 706 (2.56 MB at n =
800) is built as before and not kept, so large solves hold one packed
array, as the memory bounds ask.  Depth scans, the alpha = 0 point of a
continuation and the tuned scan then share one kernel, and repeated
energies one each.  ``s_wave_reduce`` with an explicit table builds its
own kernel and reads no cache.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dspmv
from scipy.linalg.lapack import get_lapack_funcs

from .kernel import (_KERNEL_BYTES, GreenKernelTable, PhysParams, _b_table,
                     _green_table)
from .specfun import EvaluationFailure

# LAPACK's symmetric eigensolver as scipy.linalg.eigh calls it by default
_syevr, _syevr_lwork = get_lapack_funcs(("syevr", "syevr_lwork"), (np.empty((1, 1)),))


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

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ask for the positive finite range
        if not 0.0 < self.support_radius < math.inf:
            raise ValueError(f"support radius {self.support_radius} must be "
                             "positive and finite")
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
                               self.support_radius)


def bump_potential(depth: float = 1.0, radius: float = 1.0) -> RadialPotential:
    """The default C0-infinity well -depth * exp(1 - 1/(1 - (r/R)^2))."""
    return RadialPotential(
        lambda r: -depth * _mollifier(np.asarray(r) / radius), radius)


def truncated_gaussian_potential(depth: float = 1.0,
                                 radius: float = 1.0) -> RadialPotential:
    """Gaussian of width R/3, cut off by a C-infinity shoulder at the rim."""
    width = radius / 3.0
    def prof(r):
        r = np.asarray(r, dtype=float)
        return -depth * np.exp(-r * r / (2.0 * width * width)) \
            * _smoothstep((radius - r) / (0.15 * radius))
    return RadialPotential(prof, radius)


def square_well_potential(depth: float = 1.0, radius: float = 1.0) -> RadialPotential:
    """Flat well with a C-infinity shoulder of width R/5 at the rim."""
    edge = 0.2 * radius
    def prof(r):
        return -depth * _smoothstep((radius - np.asarray(r, dtype=float)) / edge)
    return RadialPotential(prof, radius)


def two_well_potential(depth1: float, depth2: float,
                       radius: float = 1.0) -> RadialPotential:
    """Two concentric radial bumps; used to tune overlap-free eigenstates.

    The bumps sit at 0.2 R and 0.7 R with half-widths 0.15 R and 0.12 R,
    the geometry ``tune_zero_overlap`` scans.
    """
    def prof(r):
        r = np.asarray(r, dtype=float)
        return -(depth1 * _mollifier((r - 0.2 * radius) / (0.15 * radius))
                 + depth2 * _mollifier((r - 0.7 * radius) / (0.12 * radius)))
    return RadialPotential(prof, radius)


def tabulated_potential(source) -> RadialPotential:
    """Potential from a two-column (r, V) text file or array, radii ascending."""
    if isinstance(source, (str, Path)):
        data = np.loadtxt(source)
    else:
        data = np.asarray(source, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise ValueError("tabulated potential needs >= 4 rows of (r, V)")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        where = f" in {source}" if isinstance(source, (str, Path)) else ""
        raise ValueError(f"tabulated potential{where}: data row {bad[0] + 1} "
                         f"{tuple(data[bad[0]].tolist())} is not finite")
    r, v = data[:, 0], data[:, 1]
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("tabulated radii must be strictly ascending")
    if np.any(v > 0.0):
        raise ValueError("tabulated potential values must be <= 0")
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(r, v, extrapolate=False)
    r_max = r[-1]
    def prof(rr):
        rr = np.asarray(rr, dtype=float)
        vals = interp(np.clip(rr, r[0], r_max))
        vals = np.where(rr <= r_max, np.nan_to_num(vals), 0.0)
        return np.minimum(vals, 0.0)
    return RadialPotential(prof, r_max)


@functools.lru_cache(maxsize=8)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on (-1, 1).

    Newton's method on P_n, evaluated by the three-term recurrence, runs on
    the nodes in [0, 1) at once from Tricomi's asymptotic starts, and the
    nodes in (-1, 0) are their mirror images.  The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.  O(n) memory and
    O(n^2) flops, with no n x n Jacobi matrix to factorize (Hale &
    Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
    """
    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # the middle node, where cos(pi/2) rounds to 6e-17
    for _ in range(10):  # quadratic from these starts: 3 or 4 steps
        p, dp = legendre(x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= np.finfo(float).eps:
            break
    p, dp = legendre(x)
    q = (1.0 - x) * (1.0 + x)
    # w is 2 / (q P_n'^2) at the root x - p/dp, not at its rounding x: the
    # first-order term matters where q ~ n^-2 is small, next to +-1
    w = 2.0 / (q * dp * dp) * (1.0 + 2.0 * x * p / (q * dp))
    x, w = np.concatenate([-x[:n // 2], x[::-1]]), np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature nodes/weights strictly inside (0, R) for the Nystrom rule."""

    nodes: np.ndarray
    weights: np.ndarray
    radius: float  # upper end of the interval the rule integrates over

    def __post_init__(self) -> None:
        # every comparison with NaN is False: name non-finite entries first
        for name in ("nodes", "weights"):
            vals = np.asarray(getattr(self, name))
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise ValueError(f"grid {name}[{bad[0]}] = {vals[bad[0]]} is not finite")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"grid radius {self.radius} must be positive and finite")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("grid weights must be positive")
        R = self.radius
        # scale-free, so that no R^3 over- or underflows
        check = float(((self.weights / R) * (self.nodes / R) ** 2).sum())
        if abs(check - 1.0 / 3.0) > 1e-8:
            raise ValueError("grid fails the second-moment sanity check")
        # the assembly's logarithms need r_i + r_j > 0, r ln r and R - r > 0
        if self.nodes[0] <= 0.0 or self.nodes[-1] >= R:
            raise ValueError("grid must lie strictly inside (0, R)")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def gauss_legendre(cls, n: int, radius: float) -> "QuadGrid":
        x, w = _reference_rule(n)
        return cls(nodes=0.5 * radius * (x + 1.0),
                   weights=0.5 * radius * w,
                   radius=radius)


_TILE = 128  # at most this many rows and columns per tile of the pair loops


def _row_blocks(n: int, size: int):
    """Blocks of whole rows of the packed lower triangle of an n x n matrix,
    whose row i lies at the positions i(i+1)/2 to i(i+1)/2 + i, of at most
    ``size`` entries (or one row) and near-equal as ``_strips`` cuts:
    (rows, seg), the slices of the block's rows and of their positions."""
    ends = np.cumsum(np.arange(1, n + 1))  # one past the last position of each row
    total = int(ends[-1])
    size = -(-total // -(-total // size))  # the total over the count of blocks
    start = 0
    while start < n:
        first = int(ends[start]) - start - 1
        stop = max(start + 1, int(np.searchsorted(ends, first + size, "right")))
        yield slice(start, stop), slice(first, int(ends[stop - 1]))
        start = stop


def _row_pairs(x: np.ndarray):
    """The pairs (i, j), j <= i, of x's n x n packed lower triangle, n =
    len(x), by blocks of a whole tile (``_row_blocks``): (seg, x_i, x_j),
    seg the slice of positions and x_i, x_j the values of x at the row and
    the column of each.  The block's arrays are the caller's alone."""
    for rows, seg in _row_blocks(len(x), _TILE * _TILE):
        i = np.arange(rows.start, rows.stop)
        lens = i + 1
        yield (seg, np.repeat(x[rows], lens),
               x[np.arange(seg.start, seg.stop) - np.repeat(i * lens // 2, lens)])


def _row_masks(n: int):
    """``from_kernel``'s blocks, a quarter tile each (``_row_blocks``):
    (rows, seg, mask), mask the len(rows) x rows.stop array that is true at
    j <= i, so that np.multiply.outer(x[rows], x[:rows.stop])[mask] holds
    x_i x_j at the positions seg.  The masks take about n^2/2 bytes in all."""
    for rows, seg in _row_blocks(n, _TILE * _TILE // 4):
        yield rows, seg, np.tri(rows.stop - rows.start, rows.stop, rows.start, dtype=bool)


@functools.lru_cache(maxsize=4)
def _kept_row_masks(n: int) -> tuple:
    """``_row_masks(n)``, read-only and made once per n, for the n whose
    kernels the kernel cache keeps (``_kept``): at most 0.26 MB each."""
    blocks = tuple(_row_masks(n))
    for _, _, mask in blocks:
        mask.flags.writeable = False
    return blocks


def _kept(n: int) -> bool:
    """Whether a packed n-node kernel, 8 n(n+1)/2 bytes, fits the kernel
    cache's budget ``kernel._KERNEL_BYTES``: n <= 706."""
    return 4 * n * (n + 1) <= _KERNEL_BYTES


def _row_starts(n: int) -> np.ndarray:
    """Positions i(i+1)/2 of the first entry of each row of the packed
    lower triangle of an n x n matrix."""
    i = np.arange(n)
    return i * (i + 1) // 2


def _diagonal(n: int) -> np.ndarray:
    """Positions i(i+3)/2 of the diagonal in the packed lower triangle."""
    return _row_starts(n) + np.arange(n)


@dataclass(frozen=True)
class BsMatrix:
    """Symmetric Nystrom matrix of the Birman-Schwinger operator, stored once.

    ``packed`` holds the lower triangle by rows, n(n+1)/2 entries for the
    n nodes of ``grid``: LAPACK's packed storage (Anderson et al., LAPACK
    Users' Guide, 3rd ed., 5.3.2), which BLAS reads as the upper triangle
    ('U') of the transposed, column-major matrix.  The solvers use three
    members only: ``apply``, ``scale`` and ``norm_bound``.
    """

    packed: np.ndarray
    params: PhysParams
    potential: RadialPotential
    grid: QuadGrid
    scale: float = field(init=False)  # max|M|, taken once here

    def __post_init__(self) -> None:
        n = self.grid.size
        ap = self.packed
        if ap.shape != (n * (n + 1) // 2,):
            raise ValueError(f"packed storage of shape {ap.shape} does not hold "
                             f"the lower triangle of a {n} x {n} matrix")
        # max and min propagate NaN, so they decide finiteness and give max|M|
        hi, lo = float(ap.max()), float(ap.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            pos = int(np.flatnonzero(~np.isfinite(ap))[0])
            i = int(np.searchsorted(_diagonal(n), pos))
            raise ValueError(f"non-finite matrix entry at {(i, pos - i * (i + 1) // 2)}")
        # the one derived field, set as the instance is made
        object.__setattr__(self, "scale", max(hi, -lo))

    @classmethod
    def from_kernel(cls, potential: RadialPotential, p: PhysParams, grid: QuadGrid,
                    kappa: np.ndarray) -> "BsMatrix":
        """sqrt(w |V|) kappa sqrt(w |V|) for the packed kappa =
        green_kernel(grid, p).  A writeable kappa is scaled in place and
        becomes the matrix; a read-only one, such as the kernel cache hands
        out (``_shared_kernel``), is left as it is, and the products are
        written straight into a new array."""
        n = grid.size
        s = np.sqrt(grid.weights) * np.sqrt(-potential(grid.nodes))
        packed = kappa if kappa.flags.writeable else np.empty_like(kappa)
        # kappa_ij (s_i s_j) by blocks of rows: no temporary above 0.1 MB
        try:
            with np.errstate(over="raise"):
                for rows, seg, mask in _kept_row_masks(n) if _kept(n) else _row_masks(n):
                    np.multiply(kappa[seg], np.multiply.outer(s[rows], s[:rows.stop])[mask],
                                out=packed[seg])
        except FloatingPointError:
            raise EvaluationFailure(f"Birman-Schwinger matrix at E = {p.E}, m = {p.m}, "
                                    f"R = {grid.radius}: sqrt(w |V|) kappa sqrt(w |V|) "
                                    "leaves the float range") from None
        return cls(packed=packed, params=p, potential=potential, grid=grid)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x M for a vector or a block of row vectors x, that is M x_k for
        each row x_k, M being symmetric: BLAS dspmv on the packed triangle."""
        n = self.grid.size
        if x.ndim == 1:
            return dspmv(n, 1.0, self.packed, x)
        return np.stack([dspmv(n, 1.0, self.packed, row) for row in x])

    @property
    def norm_bound(self) -> float:
        """|M|_F, which bounds the operator norm: |M|_F^2 = 2 |ap|^2 - |d|^2
        for the packed triangle ap and the diagonal d, formed as
        |ap| sqrt(2 - (|d|/|ap|)^2) from BLAS nrm2, which squares no entry in
        floating point."""
        full = float(scipy.linalg.norm(self.packed, check_finite=False))
        if full == 0.0:
            return 0.0
        diag = float(scipy.linalg.norm(self.packed[_diagonal(self.grid.size)],
                                       check_finite=False))
        return full * math.sqrt(2.0 - (diag / full) ** 2)


def _strips(n: int) -> list[slice]:
    """range(n) cut into near-equal consecutive slices of at most ``_TILE``."""
    count = -(-n // _TILE)
    edges = [(k * n) // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _tiles(r: np.ndarray):
    """Square tiles over the upper triangle of the pairs (i, j) of nodes r:
    (rows, cols, hi, lo) with rows and cols slices, hi = r_i + r_j and
    lo = |r_i - r_j|.  On the diagonal pairs lo is set to hi, where a ring
    kernel then reads 0."""
    strips = _strips(len(r))
    for t, rows in enumerate(strips):
        for cols in strips[t:]:
            hi = np.add.outer(r[rows], r[cols])
            lo = np.subtract.outer(r[rows], r[cols])
            np.abs(lo, out=lo)
            if cols == rows:
                np.fill_diagonal(lo, hi.diagonal())
            yield rows, cols, hi, lo


def green_kernel(grid: QuadGrid, p: PhysParams,
                 table: GreenKernelTable | None = None) -> np.ndarray:
    """kappa_ij = 2 pi int_|ri-rj|^(ri+rj) t G_E(t) dt (i != j) at p.E,
    the table's ring integrals, and the diagonal of the subtraction rule:
    kappa @ w is the table's exact row integral.  kappa is symmetric and is
    returned as its packed lower triangle (``BsMatrix``), filled by blocks
    of rows (``_row_pairs``), so no temporary is larger than a tile.  With
    no table given, the one of (p, R) is built once and shared
    (``kernel._green_table``)."""
    where = f"Green kernel at E = {p.E}, m = {p.m}, R = {grid.radius}"
    if table is None:
        try:
            table = _green_table(p, 2.0 * grid.radius * 1.001)
        except EvaluationFailure as exc:
            raise EvaluationFailure(f"{where}: {exc}") from None
    elif table.params != p or table.s_max < 2.0 * grid.radius:
        raise ValueError(f"kernel table for {table.params} up to s = {table.s_max} "
                         f"does not serve {p} up to 2 R = {2.0 * grid.radius}")
    n, r = grid.size, grid.nodes
    kappa = np.empty(n * (n + 1) // 2)
    # blocks of a whole tile: the ring's cost per call is that of about 5000 pairs
    for seg, ri, rj in _row_pairs(r):
        hi = ri + rj
        lo = np.subtract(ri, rj, out=ri)  # >= 0: j <= i and the nodes ascend
        del rj  # before the ring's temporaries
        on = lo == 0.0  # the diagonal: the nodes are distinct
        lo[on] = hi[on]  # where the ring kernel reads 0
        kappa[seg] = table.ring(hi, lo)
    # the diagonal is 0 so far, so kappa @ w sums j != i only
    w = grid.weights
    diag = (table.row_integral(r, grid.radius) - dspmv(n, 1.0, kappa, w)) / w
    if not np.isfinite(diag).all():  # kappa @ w carries a non-finite entry here
        raise EvaluationFailure(f"{where}: an entry leaves the float range")
    kappa[_diagonal(n)] = diag
    return kappa


def b_form(grid: QuadGrid, m: float, u: np.ndarray) -> float:
    """(u, K_B u) for the subtraction-rule matrix K_B of the bounded profile B,
    whose off-diagonal entries are k_ij = 2 pi int_|ri-rj|^(ri+rj) t B(t) dt,
    without forming K_B.

    With v = u / w and I_i the exact row integral of k, the rule's diagonal
    (I_i - sum_(j != i) w_j k_ij) / w_i makes the form exactly

        sum_i u_i v_i I_i - sum_(i < j) k_ij w_i w_j (v_i - v_j)^2,

    summed here tile by tile (``_tiles``): no temporary is larger than a
    tile.  The table of (m, R) is built once and shared (``kernel._b_table``).
    """
    table = _b_table(m, 2.0 * grid.radius * 1.001)
    w = grid.weights
    v = u / w
    pairs = 0.0
    for rows, cols, hi, lo in _tiles(grid.nodes):
        d = np.subtract.outer(v[rows], v[cols])
        d *= d
        d *= table.ring(hi, lo)
        # a diagonal tile holds each of its pairs twice and d = 0 on i = j
        pairs += float(w[rows] @ d @ w[cols]) * (0.5 if rows == cols else 1.0)
    return float((u * v) @ table.row_integral(grid.nodes, grid.radius)) - pairs


# the kernel cache: read-only packed kernels by (p, R, nodes, weights), the
# least recently used first, within kernel._KERNEL_BYTES
_kernels: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _shared_kernel(grid: QuadGrid, p: PhysParams) -> np.ndarray:
    """green_kernel(grid, p), read-only and built once per key.  The key
    holds the bytes of the nodes and weights, so a grid changed in place
    misses.  A kernel above the budget (``_kept``) is built and returned
    as green_kernel gives it, writeable, and not kept; a build that raises
    is not kept either, so the next call builds again."""
    key = (p, grid.radius, grid.nodes.tobytes(), grid.weights.tobytes())
    kappa = _kernels.get(key)
    if kappa is not None:
        _kernels.move_to_end(key)
        return kappa
    kappa = green_kernel(grid, p)
    if _kept(grid.size):
        kappa.flags.writeable = False
        while sum(k.nbytes for k in _kernels.values()) + kappa.nbytes > _KERNEL_BYTES:
            _kernels.popitem(last=False)
        _kernels[key] = kappa
    return kappa


def s_wave_reduce(potential: RadialPotential, p: PhysParams, grid: QuadGrid,
                  table: GreenKernelTable | None = None) -> BsMatrix:
    """Assemble the s-wave Nystrom matrix of K at the energy in ``p``, on the
    cached kernel of (p, grid) (``_shared_kernel``), or on a kernel built
    from ``table`` when one is given."""
    kappa = _shared_kernel(grid, p) if table is None else green_kernel(grid, p, table)
    return BsMatrix.from_kernel(potential, p, grid, kappa)


@dataclass(frozen=True)
class SpectralResult:
    """Leading (or selected) eigenpair of the discretized operator."""

    mu0: float
    vector: np.ndarray    # unit eigenvector in the weighted coordinates
    gap: float            # distance to the nearest other eigenvalue
    residual: float
    index: int            # 0 = leading; -1 = a trial state, not an eigenpair
    matrix: BsMatrix      # the operator the pair belongs to

    @property
    def lambda0(self) -> float:
        """The threshold coupling 1/mu0; infinite when mu0 <= 0."""
        return 1.0 / self.mu0 if self.mu0 > 0.0 else math.inf

    @property
    def phi(self) -> np.ndarray:
        """Physical eigenfunction samples, 4 pi sum_i w_i r_i^2 phi_i^2 = 1."""
        return self.vector / (np.sqrt(4.0 * math.pi * self.grid.weights) * self.grid.nodes)

    @property
    def grid(self) -> QuadGrid:
        return self.matrix.grid

    @property
    def potential(self) -> RadialPotential:
        return self.matrix.potential

    @property
    def params(self) -> PhysParams:
        return self.matrix.params


def unit_power(scale: float) -> float:
    """The power of two c that puts c scale in [1/2, 1), or 1.0 when
    scale <= 1e-200 (counts as zero).  Products by c are exact rescalings."""
    return math.ldexp(1.0, -math.frexp(scale)[1]) if scale > 1e-200 else 1.0


_RITZ_EVERY = 2     # block steps between Rayleigh-Ritz extractions
_BASIS_ROWS = 32    # first allocation of the Krylov basis; it doubles as needed


def _symmetric_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and unit eigenvectors (columns) of the
    symmetric matrix a, from its lower triangle: LAPACK dsyevr with the
    arguments and workspace of ``scipy.linalg.eigh(a, check_finite=False)``,
    whose results these are to the last bit, without its checks."""
    work, iwork, _ = _syevr_lwork(len(a), lower=1)
    w, v, _, _, info = _syevr(a, compute_v=1, lower=1, lwork=int(work), liwork=iwork)
    if info:
        raise EigensolverError(f"LAPACK dsyevr failed with info = {info} "
                               f"on the {len(a)} x {len(a)} Rayleigh-Ritz matrix")
    return w, v


def _ritz_pairs(op: BsMatrix, n: int, c: float,
                want: int) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values of c M, descending, for the symmetric n x n operator
    M = ``op``, and the unit Ritz vectors (rows) of the first ``want`` of
    them.  ``c`` is a power of two that scales the vectors ``op.apply``
    multiplies, so c M is never formed.

    Block Lanczos with block size 2 and full reorthogonalization, done
    twice (Golub & Van Loan, 4th ed., 10.3), started from a [1, g] with g a
    fixed pseudo-random vector.  Starting inside the range of M keeps
    the rows where |V| underflows exactly zero.  Every two block steps the
    Ritz pairs are taken from LAPACK dsyevr on the k x k projected matrix
    (Rayleigh-Ritz, ``_symmetric_eigh``), until the first ``want`` Ritz
    residuals are at most 4 eps scale sqrt(n), scale the largest |Ritz
    value|.  A new vector already in the space to that tolerance is
    dropped.  When the whole space is invariant, the iteration restarts
    from a fresh vector, in the range
    of M unless that adds nothing, so the basis can grow to n, where
    Rayleigh-Ritz is exact.  The basis is stored by rows, k x n for k
    vectors, and never as an n x n array unless k reaches n.
    """
    rng = np.random.default_rng(0)
    tol = 4.0 * np.finfo(float).eps * math.sqrt(n)
    basis = np.empty((min(n, _BASIS_ROWS), n))  # orthonormal rows
    prods = np.empty_like(basis)                # prods[i] = c M basis[i]
    k = steps = 0
    in_range = True
    block = op.apply(c * np.stack([np.ones(n), rng.standard_normal(n)]))
    while True:
        start = k
        sizes = np.linalg.norm(block, axis=1)
        for w, size in zip(block, sizes):
            if k == n:
                break
            # against the whole basis, this block's rows included, twice: a
            # second vector nearly in the span of the first loses the digits
            # of any projection taken before that one
            for _ in range(2):
                w = w - (basis[:k] @ w) @ basis[:k]
            nrm = math.sqrt(w @ w)
            if nrm <= tol * size:
                continue
            if k == len(basis):
                rows = np.empty((min(n, 2 * k) - k, n))
                basis, prods = np.concatenate([basis, rows]), np.concatenate([prods, rows])
            basis[k] = w / nrm
            k += 1
        if k == start:
            g = rng.standard_normal(n)
            block = (op.apply(c * g) if in_range else g)[None]
            in_range = not in_range
            continue
        in_range = True
        prods[start:k] = op.apply(c * basis[start:k])
        block = prods[start:k]
        steps += 1
        if steps % _RITZ_EVERY and k < n:
            continue
        t = basis[:k] @ prods[:k].T
        theta, x = _symmetric_eigh(0.5 * (t + t.T))
        theta, x = theta[::-1], x[:, ::-1][:, :want].T
        vecs = x @ basis[:k]
        resid = np.linalg.norm(x @ prods[:k] - theta[:len(x), None] * vecs, axis=1)
        if k == n or (len(x) == want
                      and resid.max() <= tol * np.max(np.abs(theta))):
            return theta, vecs


def leading_eigenpair(mat: BsMatrix, index: int = 0,
                      sign_reference: np.ndarray | None = None) -> SpectralResult:
    """Largest (or index-th from the top) eigenvalue and eigenfunction.

    The pair is a Ritz pair of a block Krylov space of the matrix
    (``_ritz_pairs``), which only multiplies by the matrix (``apply``): no
    n x n factorization and no other eigenvector is formed.  Its residual is
    a few eps mu here, at index 0 and 1.  The eigenvalues index - 1 to index + 1
    are converged with it, and ``gap`` is the distance to the nearer of them.
    A gap below 1e-12 of the largest |Ritz value| raises
    ``DegenerateEigenvalueError``.  The block of two start vectors finds two
    copies of a repeated eigenvalue, and two are enough to trip that rule.
    A matrix with no entry above 1e-200 counts as the zero matrix: mu = 0
    with the index-th unit vector.

    The problem is homogeneous, mu(c M) = c mu(M), so the solve runs on c M
    with c the power of two that puts max|c M| in [1/2, 1): no norm of the
    iteration overflows near the float ceiling, and mu, gap and residual
    scale back exactly.  A non-finite mu or residual raises
    ``EigensolverError``.

    The eigenvector's sign makes its overlap with ``sign_reference``
    positive when that is given and nonzero, and its largest-magnitude
    component positive otherwise.
    """
    n = mat.grid.size
    if index < 0 or index >= n:
        raise ValueError("eigenpair index out of range")
    scale = mat.scale
    c = unit_power(scale)
    if scale > 1e-200:
        theta, vecs = _ritz_pairs(mat, n, c, min(index + 2, n))
        v = vecs[index] / np.linalg.norm(vecs[index])
        # mu is the Rayleigh quotient taken on c M itself: theta carries the
        # rounding of the projected matrix, up to about 4.5 eps mu at n <= 1000
        av = mat.apply(c * v)
        mu = float(v @ av)
        gap = min((abs(float(theta[j]) - mu) for j in (index - 1, index + 1)
                   if 0 <= j < len(theta)), default=math.inf)
        if gap < 1e-12 * float(np.max(np.abs(theta))):
            raise DegenerateEigenvalueError(
                f"eigenvalue {mu / c} is degenerate within {gap / c}; "
                "the threshold expansion assumes a simple eigenvalue")
    else:
        # the potential vanishes: every unit vector is an eigenvector
        mu, gap = 0.0, (0.0 if n > 1 else math.inf)
        v = np.zeros(n)
        v[index] = 1.0
        av = mat.apply(v)
    residual = float(np.linalg.norm(av - mu * v)) / c
    mu, gap = mu / c, gap / c
    if not (math.isfinite(mu) and math.isfinite(residual)):
        raise EigensolverError(
            f"eigenvalue {mu} with residual {residual} is not finite "
            f"(largest |matrix entry| {scale})")
    ref = 0.0 if sign_reference is None else float(v @ sign_reference)
    flip = ref < 0.0 if ref != 0.0 else v[np.argmax(np.abs(v))] < 0.0
    if flip:
        v = -v
    return SpectralResult(mu0=mu, vector=v, gap=gap, residual=residual,
                          index=index, matrix=mat)


def solve(potential: RadialPotential, p: PhysParams, n: int) -> SpectralResult:
    """The leading eigenpair of K at the energy in ``p`` on the n-point
    Gauss-Legendre grid over the potential's own support, (0,
    potential.support_radius): the one place that picks the grid, the
    assembly (``s_wave_reduce``) and the eigensolve (``leading_eigenpair``)."""
    grid = QuadGrid.gauss_legendre(n, potential.support_radius)
    return leading_eigenpair(s_wave_reduce(potential, p, grid))


def eigen_continuation(
    potential: RadialPotential,
    grid: QuadGrid,
    alphas: Sequence[float],
    m: float = 1.0,
) -> list[tuple[float, float]]:
    """Leading eigenvalue of the full kernel K(alpha) along a list of alphas.

    Brute-force oracle for the threshold expansion: mu(0) = mu0 and the
    alpha-derivatives at 0 reproduce the expansion coefficients.
    """
    return [(float(alpha), leading_eigenpair(s_wave_reduce(
        potential, PhysParams.from_alpha(float(alpha), m), grid)).mu0)
            for alpha in alphas]
