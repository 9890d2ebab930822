"""Shared fixtures: dispersions, grids, collision operators and kernel tables.

Kernel tables are session-scoped because enumeration cost grows like n^3;
everything here is immutable (frozen dataclasses, read-only arrays), so
sharing across tests is safe.  table_rhs is the operator summed entry by
entry over a kernel table, the oracle of the matrix-free operator, and
table_production likewise the oracle of convex production.  stored_layouts
lays out the operator's and production's ranges as stored arrays, one
entry per range, the oracle of the affine pieces the solver keeps instead.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from wavekin import solver
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


def window_ranges(layout):
    """Per window of a solver layout, its ranges listed from its pieces: the
    rows (start, end, outputs...) of every batch, side by side."""
    out = []
    for window in layout.windows:
        out.append(np.concatenate([solver._generate(pieces, layout.steps)
                                   for pieces in window.batches], axis=1))
    return out


# --- the stored-ends layouts: one array entry per range ----------------------


def _part(plane: int, row, lo, hi) -> tuple:
    """One part of a layout: the node ranges [lo, hi] of rows of a plane.

    Returns the part's size and its nonempty ranges, each with its position
    in the part, all int32.
    """
    row, lo, hi = np.broadcast_arrays(row, lo, hi)
    k = np.flatnonzero(lo <= hi)
    return (plane, lo.size, k.astype(np.int32),
            *(a.take(k).astype(np.int32, copy=False) for a in (row, lo, hi)))


def _windowed(parts, c0: int, n_rows: int):
    """The window layout of the ranges of ``parts``, stored range by range.

    ``parts`` lists _part results, one after another in output order.  Each
    (plane, row) is stored from the first column its ranges reach to the
    last; the rows are sorted by that length, longest first (a stable
    sort), and cut into windows of at most BLOCK_CELLS cells or of one row.
    Returns ``ends``, the (start, end) prefix positions of each nonempty
    range in its window, ``keep``, its output position, and per window its
    shape, its ranges (a slice) and its rows, plane by plane.
    """
    offsets = np.cumsum([0] + [part[1] for part in parts]).tolist()
    runs = []  # per part: each run's key (plane, row), head, size, first and last column
    for plane, _, _, row, lo, hi in parts:
        head = np.flatnonzero(np.diff(row, prepend=-1))
        runs.append((row[head] + plane * n_rows, head, np.diff(head, append=row.size),
                     np.minimum.reduceat(lo, head) - c0, np.maximum.reduceat(hi, head) - c0))
    key, _, size, low, high = (np.concatenate(a) for a in zip(*runs))
    n_keys = n_rows * (1 + max(part[0] for part in parts))
    first = np.full(n_keys, n_rows + 1, np.int32)
    np.minimum.at(first, key, low)
    width = np.full(n_keys, -n_rows, np.int32)
    np.maximum.at(width, key, high)
    width -= first - 1
    held = np.flatnonzero(width > 0)
    held = held[np.argsort(-width[held], kind="stable")]  # longest row first

    windows, window, base = [], np.zeros(n_keys, np.int32), np.zeros(n_keys, np.int32)
    start = 0
    while start < held.size:
        w = int(width[held[start]])
        keys = np.sort(held[start:start + max(1, solver.BLOCK_CELLS // (w + 1))])
        start += keys.size
        window[keys] = len(windows)
        base[keys] = np.arange(keys.size) * (w + 1) - first[keys]
        plane, row = np.divmod(keys, n_rows)
        cuts = np.flatnonzero(np.diff(plane, prepend=-1, append=-1))
        rows = []
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            f, r = first[keys[a:b]].astype(np.intp), row[a:b]
            i = np.flatnonzero((r % 2 == 0) & (r // 2 >= f) & (r // 2 < f + w))
            rows.append((int(plane[a]), slice(a, b), r, f, n_rows - 1 - r + f,
                         (a + i) * (w + 1) + 1 + r[i] // 2 - f[i]))
        windows.append(((keys.size, w + 1), tuple(rows)))

    at = window.take(key)
    order = np.argsort(at, kind="stable")
    to = np.empty(key.size, np.int32)
    to[order] = np.cumsum(size[order]) - size[order]
    stops = np.cumsum(np.bincount(at, size, len(windows))).astype(int).tolist()
    ends = np.empty((2, int(size.sum())), np.int32)
    keep = np.empty(ends.shape[1], np.int32)
    for offset, (_, _, pos, _, lo, hi), (run_key, head, count, _, _) in zip(offsets, parts, runs):
        dest = np.repeat(to[:head.size] - head, count) + np.arange(pos.size, dtype=np.int32)
        to = to[head.size:]
        shift = np.repeat(base.take(run_key) - c0, count)
        ends[0, dest] = lo + shift
        ends[1, dest] = hi + 1 + shift
        keep[dest] = pos + offset
    return SimpleNamespace(ends=ends, keep=keep, bounds=tuple(offsets[1:]), windows=tuple(
        (shape, slice(e0, e1), rows) for (shape, rows), e0, e1 in zip(windows, [0] + stops, stops)))


def _stored_operator(op):
    """The operator's loss and gain layouts stored range by range, and each
    part's pairs (i, j) and cells (l, m)."""
    n, (c0, c1) = op.grid.n_nodes, op.band
    n_rows, nb = op.mho_sl.shape
    s = np.arange(2 * c0, 2 * c0 + n_rows, dtype=np.int32)[:, None]
    x = np.arange(c0, c0 + nb, dtype=np.int32)[None, :]
    row, col = (a.astype(np.int32) for a in np.nonzero((s - x >= x) & (s - x <= c1)))
    pi = col + c0
    pj = row + 2 * c0 - pi
    lo, hi = solver._l_intervals(pi, pj, n, op.band)
    hi += lo - 1
    loss = _windowed([_part(0, row, lo, pi), _part(1, row, pi + 1, np.minimum(pj - 1, hi)),
                      _part(2, row, np.maximum(pj, pi + 1), hi)], c0, n_rows)

    row, col = (a.astype(np.int32) for a in np.nonzero((x >= s - n + 1) & (x <= s - 1)))
    cs, cl = row + 2 * c0, col + c0
    i_min, i_max = np.maximum(c0, cs - c1), cs // 2
    q = -((n - 1 - cl - cs) // 2)
    ranges = [(0, np.maximum(cl, i_min), i_max),
              (1, np.maximum(i_min, q), np.minimum(np.minimum(i_max, cl - 1), cs - cl - 1)),
              (0, np.maximum(np.maximum(i_min, cs - cl), q), np.minimum(i_max, cl - 1))]
    keep = np.any([a <= b for _, a, b in ranges], axis=0)
    row, cs, cl = row[keep], cs[keep], cl[keep]
    gain = _windowed([_part(plane, row, a[keep], b[keep]) for plane, a, b in ranges],
                     c0, n_rows)
    return loss, (pi, pj), gain, (cl, cs - cl)


def _stored_production(op):
    """Convex production's three layouts stored range by range, per block of
    solver.PRODUCTION_ROWS rows, each range's output its place in its block."""
    n, (c0, c1) = op.grid.n_nodes, op.band
    n_rows, nb = op.mho_sl.shape
    T = max(c1 - 1, 0)
    blocks = []
    for r0 in range(0, n_rows, solver.PRODUCTION_ROWS):
        rows = np.arange(r0, min(r0 + solver.PRODUCTION_ROWS, n_rows))
        row, t = (a.astype(np.int32) for a in
                  np.nonzero(2 * np.arange(2, T + 2) <= (rows + 2 * c0)[:, None]))
        row += r0
        t += 1
        x_row, x = np.divmod(np.arange(rows.size * nb, dtype=np.int32), nb)
        x_row += r0
        x += c0
        blocks.append(_stored_block(n, c0, c1, n_rows, row, t, x_row, x))
    return blocks


def _stored_block(n, c0, c1, n_rows, row, t, x_row, x):
    """One block's production layouts from its cells (row, t) and nodes
    (x_row, x), row by row."""
    s, xs = row + 2 * c0, x_row + 2 * c0
    E, xE = n - 1 - s, n - 1 - xs

    def ends(plane, row, lo, hi, pairs):
        s = row + 2 * c0
        lo = np.maximum(np.maximum(lo, c0), s - c1 if pairs else s - n + 1)
        hi = np.minimum(np.minimum(hi, c1), s // 2 if pairs else s - 1)
        return _part(plane, row, lo, hi)

    def index(*parts):
        return _windowed(parts, c0, n_rows)

    pow2 = solver._pow2
    cap = s - t - 1
    last = np.minimum((cap - E) // 2, t)
    sig = np.where(t + E >= 1, pow2(t + E) - E, t)
    top = E + 2 * sig
    iota = -((xE - x) // 2)
    z_hi = np.where(x + xE >= 2, pow2(x + xE - 1) - xE, 0)
    w_lo = np.where((x + xE >= 1) & (2 * x + 2 <= xs), 2 * pow2(x + xE) - xE + 1, n)
    return {"loss": index(ends(0, row, c0, t, False), ends(2, row, s - t, E + 2 * t + 2, False),
                          ends(1, row, t + 1, cap, False), ends(1, row, t + 1, top, False),
                          ends(1, x_row, w_lo, xE + 2 * x, False)),
            "pairs": index(ends(0, row, t + 1, t + n, True),
                           ends(0, x_row, iota, c1 * (2 * x > xs), True),
                           ends(1, row, np.maximum(sig, last) + 1, t, True),
                           ends(1, row, sig + 1, last, True), ends(1, x_row, iota, z_hi, True)),
            "zvw": index(ends(0, row, t + 1, np.minimum(top, cap), False),
                         ends(1, row, np.maximum(s - t, E + 2 * t + 3), s, False),
                         ends(2, row, sig + 1, last, True))}


def stored_layouts(op) -> dict:
    """The operator's ``loss`` and ``gain`` and, per block k of production's
    rows, production's ``loss``, ``pairs`` and ``zvw`` layouts (``production
    loss k`` ...), stored range by range: per window, its shape, its rows
    (plane, slice, row, first, diagonal, half) and the set of its ranges'
    (start, end, outputs...).

    An output is the solver's: a production range's place in its block's
    layout's output; a loss range's codes i + n part (+ 3n where i = j) and
    j; a gain range's l + n part and m + n part.
    """
    n = op.grid.n_nodes
    loss, (pi, pj), gain, (cl, cm) = _stored_operator(op)

    def codes(layout, part_of):
        part = np.searchsorted(layout.bounds, layout.keep, side="right")
        at = layout.keep - np.concatenate(([0], layout.bounds))[part]
        return part_of(part, at)

    layouts = {
        "loss": (loss, codes(loss, lambda part, at: (
            pi[at] + part * n + np.where(pi[at] == pj[at], 3 * n, 0), pj[at]))),
        "gain": (gain, codes(gain, lambda part, at: (cl[at] + part * n, cm[at] + part * n))),
    }
    for k, block in enumerate(_stored_production(op)):
        for name, layout in block.items():
            layouts[f"production {name} {k}"] = (layout, (layout.keep,))
    out = {}
    for name, (layout, outputs) in layouts.items():
        columns = np.vstack((layout.ends, *outputs)).T.tolist()
        out[name] = [(shape, rows, set(map(tuple, columns[ranges])))
                     for shape, ranges, rows in layout.windows]
    return out
