"""Shared fixtures: dispersions, grids, collision operators and kernel tables.

Kernel tables are session-scoped because enumeration cost grows like n^3;
everything here is immutable (frozen dataclasses, read-only arrays), so
sharing across tests is safe.  table_rhs is the operator summed entry by
entry over a kernel table, the oracle of the matrix-free operator, and
table_production likewise the oracle of convex production.
"""

import numpy as np
import pytest

from wavekin.collision_kernel import KernelWeights
from wavekin.diagnostics import convex_production, production_weights
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    OmegaGrid,
    SpectrumState,
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
    rho = table.coef * g[table.i]
    rho *= g[table.j]
    rho *= g[table.l]
    n = table.grid.n_nodes
    gain_l, gain_m, loss_i, loss_j = (np.bincount(idx, weights=rho, minlength=n)
                                      for idx in (table.l, table.m, table.i, table.j))
    return gain_l + gain_m - loss_i - loss_j, rho


def table_production(table, g: np.ndarray, phi: np.ndarray):
    """Convex production summed entry by entry, its scale, and its rounding floor.

    Each entry's deposit times h is weighed by its bracket phi_l + phi_m -
    phi_i - phi_j; the scale sums the absolute values, and the floor is
    2^-52 times the same sum taken with |phi| at each of the four nodes,
    the rounding of the brackets themselves.
    """
    rho = table_rhs(table, g)[1] * table.grid.h
    ends = (table.l, table.m, table.i, table.j)
    terms = rho * (phi[table.l] + phi[table.m] - phi[table.i] - phi[table.j])
    floor = 2.0 ** -52 * float(np.sum(rho * sum(np.abs(phi[k]) for k in ends)))
    return float(np.sum(terms)), float(np.sum(np.abs(terms))), floor


def production(op, state: SpectrumState, phi):
    """convex_production's (production, scale) of one test function."""
    return convex_production(op, state, production_weights(op, {"phi": phi}))["phi"]


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
