"""Shared fixtures: the default bump-well eigenpair and derived states."""

import pytest

import herbst.specfun
from herbst import (PhysParams, QuadGrid, bump_potential, leading_eigenpair,
                    s_wave_reduce, synthetic_zero_overlap_state)
from herbst.spectral import Discretization


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


@pytest.fixture
def unconverged_quad(monkeypatch):
    """Every adaptive integral reports estimate 1.0 with error estimate 1e-3,
    far above any bound checked_quad accepts."""
    monkeypatch.setattr(herbst.specfun, "quad", lambda *args, **kwargs: (1.0, 1e-3))


@pytest.fixture
def geometry_builds(monkeypatch):
    """Sizes of the grids passed to every ``Discretization.build`` call."""
    builds = []
    build = Discretization.build

    def counting(grid, m):
        builds.append(grid.size)
        return build(grid, m)

    monkeypatch.setattr(Discretization, "build", staticmethod(counting))
    return builds
