"""Shared fixtures: the default bump-well eigenpair and derived states."""

import numpy as np
import pytest
import scipy.integrate

import herbst.spectral
import herbst.threshold
from herbst import (PhysParams, QuadGrid, bump_potential, leading_eigenpair,
                    s_wave_reduce, synthetic_zero_overlap_state)
from herbst.spectral import BsMatrix


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
        return BsMatrix.from_dense(entries, PhysParams(), bump_potential(), grid200)

    return build


@pytest.fixture
def unconverged_quad(monkeypatch):
    """Every adaptive integral reports estimate 1.0 with error estimate 1e-3,
    far above any bound checked_quad accepts; checked_quad imports quad on
    each call, so the patch reaches it."""
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1.0, 1e-3))


@pytest.fixture
def kernel_builds(monkeypatch):
    """Sizes of the grids passed to every ``green_kernel`` call."""
    builds = []
    build = herbst.spectral.green_kernel

    def counting(grid, p, table=None):
        builds.append(grid.size)
        return build(grid, p, table)

    for module in (herbst.spectral, herbst.threshold):
        monkeypatch.setattr(module, "green_kernel", counting)
    return builds
