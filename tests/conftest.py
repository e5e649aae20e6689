"""Shared fixtures: the default bump-well eigenpair and derived states; and
the dense view of a ``BsMatrix`` that only tests form, both ways."""

import math

import numpy as np
import pytest
import scipy.integrate

import herbst.spectral
import herbst.threshold
from herbst import (PhysParams, QuadGrid, bump_potential, leading_eigenpair,
                    s_wave_reduce, synthetic_zero_overlap_state)
from herbst.spectral import BsMatrix, _row_starts

_CHECK_ROWS = 32  # rows per block of the symmetry check of ``from_dense``


def from_dense(entries, params, potential, grid):
    """The BsMatrix of a matrix given in full, n x n: every entry finite,
    and the two triangles within 1e-13 max(1, max|m|) of each other, taken
    by blocks of rows with no n x n temporary; the lower triangle is stored."""
    m = entries
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        bad = tuple(np.argwhere(~np.isfinite(m))[0].tolist())
        raise ValueError(f"non-finite matrix entry at {bad}")
    asym = 0.0
    buf = np.empty((min(_CHECK_ROWS, len(m)), len(m)))  # one block, reused
    for i in range(0, len(m), _CHECK_ROWS):
        d = np.subtract(m[i:i + _CHECK_ROWS], m[:, i:i + _CHECK_ROWS].T,
                        out=buf[:len(m) - i])
        asym = max(asym, float(np.abs(d, out=d).max()))
    if asym > 1e-13 * max(1.0, hi, -lo):
        raise ValueError("matrix assembly lost symmetry")
    packed = np.empty(len(m) * (len(m) + 1) // 2)
    for i, first in enumerate(_row_starts(len(m))):
        packed[first:first + i + 1] = m[i, :i + 1]
    return BsMatrix(packed=packed, params=params, potential=potential, grid=grid)


def dense_matrix(mat):
    """The n x n matrix of ``mat``, both triangles; no solver forms it."""
    m = np.empty((mat.grid.size, mat.grid.size))
    for i, first in enumerate(_row_starts(mat.grid.size)):
        m[i, :i + 1] = m[:i + 1, i] = mat.packed[first:first + i + 1]
    return m


@pytest.fixture(scope="session")
def bump():
    return bump_potential()


@pytest.fixture(scope="session")
def grid200():
    return QuadGrid.gauss_legendre(200, 1.0)


@pytest.fixture(scope="session")
def state200(bump, grid200):
    """Leading threshold eigenpair of the default bump well at n=200."""
    p = PhysParams(m=1.0, E=0.0)
    return leading_eigenpair(s_wave_reduce(bump, p, grid200))


@pytest.fixture(scope="session")
def zero_overlap_state(state200):
    """Synthetic sign-balanced state with vanishing first-order overlap."""
    return synthetic_zero_overlap_state(state200.matrix)


@pytest.fixture(scope="session")
def with_spectrum(grid200):
    """Builder of BsMatrix instances on ``grid200`` whose eigenvalues are
    ``top`` followed by a simple tail below them, in a random orthonormal
    basis of the first n - ``zeros`` coordinates.  The last ``zeros`` rows
    are exactly zero, as the bump's are where |V| underflows."""
    def build(top, seed=3, zeros=0):
        n = grid200.size - zeros
        vals = np.concatenate([top, np.geomspace(0.1, 1e-6, n - len(top))])
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        entries = np.zeros((grid200.size, grid200.size))
        entries[:n, :n] = (q * vals) @ q.T
        entries = 0.5 * (entries + entries.T)
        return from_dense(entries, PhysParams(), bump_potential(), grid200)

    return build


@pytest.fixture
def unconverged_quad(monkeypatch):
    """Every adaptive integral reports estimate 1.0 with error estimate 1e-3,
    far above any bound checked_quad accepts; checked_quad imports quad on
    each call, so the patch reaches it."""
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1.0, 1e-3))


@pytest.fixture
def kernel_builds(monkeypatch):
    """Sizes of the grids passed to every ``green_kernel`` call from now on,
    the kernel cache emptied first, so that each kernel a call needs is
    built and counted once."""
    builds = []
    build = herbst.spectral.green_kernel

    def counting(grid, p, table=None):
        builds.append(grid.size)
        return build(grid, p, table)

    herbst.spectral._kernels.clear()
    monkeypatch.setattr(herbst.spectral, "green_kernel", counting)
    return builds
