"""Shared fixtures: dispersions, grids, collision operators and kernel tables.

Kernel tables are session-scoped because enumeration cost grows like n^3;
everything here is immutable (frozen dataclasses, read-only arrays), so
sharing across tests is safe.  table_rhs is the operator summed entry by
entry over a kernel table, the oracle of the matrix-free operator.
"""

import numpy as np
import pytest

from wavekin.collision_kernel import KernelWeights
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    OmegaGrid,
    SpectrumState,
    _deposits,
    build_kernel_table,
    build_operator,
)


@pytest.fixture(scope="session")
def d_quad() -> DispersionRelation:
    return DispersionRelation.power_law(2.0)


@pytest.fixture(scope="session")
def d_mid() -> DispersionRelation:
    return DispersionRelation.power_law(1.5)


@pytest.fixture(scope="session")
def grid8_quad(d_quad) -> OmegaGrid:
    # h = 1 exactly: omega = 0..7
    return OmegaGrid(d_quad, 8, 7.0)


@pytest.fixture(scope="session")
def grid8_mid(d_mid) -> OmegaGrid:
    return OmegaGrid(d_mid, 8, 7.0)


@pytest.fixture(scope="session")
def table8_quad(grid8_quad):
    return build_kernel_table(KernelWeights(), grid8_quad)


@pytest.fixture(scope="session")
def table8_mid(grid8_mid):
    return build_kernel_table(KernelWeights(), grid8_mid)


@pytest.fixture(scope="session")
def op8_quad(grid8_quad):
    return build_operator(KernelWeights(), grid8_quad)


@pytest.fixture(scope="session")
def op8_mid(grid8_mid):
    return build_operator(KernelWeights(), grid8_mid)


@pytest.fixture(scope="session")
def grid32_quad(d_quad) -> OmegaGrid:
    return OmegaGrid(d_quad, 32, 4.0)


@pytest.fixture(scope="session")
def table32_quad(grid32_quad):
    return build_kernel_table(KernelWeights(), grid32_quad)


@pytest.fixture(scope="session")
def op32_quad(grid32_quad):
    return build_operator(KernelWeights(), grid32_quad)


def table_rhs(table, g: np.ndarray):
    """The operator at g by bincounts over the table's entries, and rho.

    Each entry's deposit is gained at its l and m ends and lost at its i
    and j ends.
    """
    rho = _deposits(table, g)
    n = table.grid.n_nodes
    gain_l, gain_m, loss_i, loss_j = (np.bincount(idx, weights=rho, minlength=n)
                                      for idx in (table.l, table.m, table.i, table.j))
    return gain_l + gain_m - loss_i - loss_j, rho


def deposit_scale(table, rho: np.ndarray) -> np.ndarray:
    """Per node, the sum of |rho| over the entries that touch it."""
    n = table.grid.n_nodes
    return sum(np.bincount(idx, weights=rho, minlength=n)
               for idx in (table.l, table.m, table.i, table.j))


def random_state(grid: OmegaGrid, rng: np.random.Generator) -> SpectrumState:
    """Strictly positive random state away from the origin node."""
    g = rng.uniform(0.1, 2.0, size=grid.n_nodes)
    g[0] = 0.0
    return SpectrumState(g=g, time=0.0, grid=grid)
