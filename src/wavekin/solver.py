"""Conservative spectral discretization on a uniform frequency grid.

The transformed density g(omega) = mho * f * |k| turns the radial collision
operator into a triple sum with the test-function bracket

    -phi(w) - phi(w1) + phi(w2) + phi(w + w1 - w2).

On a uniform grid w_i = i*h the fourth frequency w_i + w_j - w_l lands exactly
on node m = i + j - l, so each admissible interaction (i, j, l, m) deposits
the conservative four-point stencil (-rho, -rho, +rho, +rho) with

    rho = W_ijl * g_i * g_j * g_l * h^2.

Interactions are truncated by whole interaction classes (see _l_intervals) so
the convexity monotonicity of the continuum operator survives discretization.

The operator (CollisionOperator) never lists the O(n^3) interactions.  For
each pair (s = i + j, i) the admissible l form one interval, and the min in W
splits it into three regions in which rho factors into a pair part times an
l part; so every loss is a sum of three l-range sums per (s, i) and every
gain a sum of three i-range sums per (s, l), O(n^2) work in all.  Each range
sum is a difference of compensated row prefix sums, certified by an a-priori
error bound or else summed directly.  Mass and energy therefore cancel to the
rounding of the totals rather than term by term.

The terms of those sums form planes over (s, l) or (s, i), but no plane is
built whole.  Each row is stored from the first column its ranges reach to
the last, and rows of similar length, of any plane, share a window that is
filled, prefix-summed and read while it is in cache.  A prefix sum then
starts at its row's first reached column, so its prefix total only shrinks.
Nor is any range stored: along a row its ends and its pair or cell are
affine between the few points where the terms that bound them cross, so a
layout keeps O(n) affine pieces, found from those crossings with O(n)
work, and a call lists a batch of ranges at a time and adds their sums
straight into n-long gains and losses.

Convex production reuses the same planes and range sums (_region_masses),
block by block of rows, each block with layouts of its own, so that its
working set is one block too.
The O(n^3) KernelTable (build_kernel_table) lists the interactions one by
one; no run builds it, and the tests keep it as the operator's reference.
Both stay in the package because the benchmark's traced span list
(bench/child.py) binds wavekin.solver.build_kernel_table, and a traced run
exits 3 when a name it lists is missing; ROADMAP item 1 moves them, with
the benchmark's span, into the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from wavekin.dispersion import DispersionRelation, _invert_custom, eval_mho, invert_omega
from wavekin.collision_kernel import KernelWeights
from wavekin import diagnostics as _diag

__all__ = [
    "OmegaGrid",
    "SpectrumState",
    "CollisionOperator",
    "build_operator",
    "KernelTable",
    "build_kernel_table",
    "rhs",
    "step",
    "evolve",
    "transform_f_to_g",
    "transform_g_to_f",
    "gaussian_bump",
    "ring_in_r",
    "state_from_file",
    "StiffnessError",
    "ConservationError",
]

class StiffnessError(RuntimeError):
    """Step-size halving exhausted without restoring nonnegativity."""

    def __init__(self, message: str, state: "SpectrumState"):
        super().__init__(message)
        self.state = state


class ConservationError(RuntimeError):
    """Mass or energy drifted beyond the guaranteed tolerance."""


@dataclass(frozen=True, eq=False)
class OmegaGrid:
    """Uniform frequency grid with precomputed radii and mho weights.

    Nodes are omega_i = i*h for i = 0..n_nodes-1.  Uniform spacing is what
    makes the resonance combination omega_i + omega_j - omega_l land exactly
    on node i + j - l.
    """

    d: DispersionRelation
    n_nodes: int
    h: float
    omega: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    mho: np.ndarray = field(repr=False)

    def __init__(self, d: DispersionRelation, n_nodes: int, omega_max: float):
        if not (isinstance(n_nodes, (int, np.integer)) and n_nodes >= 2):
            raise ValueError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
        if not omega_max > 0.0:
            raise ValueError(f"omega_max must be positive, got {omega_max}")
        n_nodes = int(n_nodes)
        h = float(omega_max) / (n_nodes - 1)
        omega = np.arange(n_nodes, dtype=float) * h
        r = np.zeros(n_nodes)  # omega_0 = 0 is r = 0; a custom law bisects all others at once
        r[1:] = (_invert_custom(d, omega[1:]) if d.kind == "custom"
                 else [invert_omega(d, w) for w in omega[1:]])
        # the origin node carries no measure and no interactions, so its mho
        # entry is never read; store 0 rather than evaluate at r = 0 (which
        # is undefined for iota = 0)
        mho = np.zeros(n_nodes)
        mho[1:] = eval_mho(d, r[1:])
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("grid radii must be strictly increasing")
        for name, value in (
            ("d", d), ("n_nodes", n_nodes), ("h", h),
            ("omega", omega), ("r", r), ("mho", mho),
        ):
            object.__setattr__(self, name, value)
        for arr in (omega, r, mho):
            arr.flags.writeable = False

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])


@dataclass(eq=False)
class SpectrumState:
    """Nonnegative spectral density g per node, tied to its grid."""

    g: np.ndarray
    time: float
    grid: OmegaGrid

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"state has {g.shape} values for a {self.grid.n_nodes}-node grid"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("state values must be finite")
        if np.any(g < 0.0):
            raise ValueError(f"state values must be nonnegative (min {g.min():g})")
        self.g = g
        self.time = float(self.time)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Precomputed interaction entries (i, j, l, m, W) on a grid.

    Entries are deduplicated over the i <-> j symmetry: only i <= j is stored
    and ``mult`` records the multiplicity (2 off the diagonal); ``coef`` is
    mult * W * h^2.  Ordering is lexicographic in (i, j, l), so rebuilds are
    bit-identical.
    """

    grid: OmegaGrid
    kw: KernelWeights
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    l: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    mult: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)

    @property
    def n_entries(self) -> int:
        return int(self.i.size)


def _l_intervals(
    i: int | np.ndarray, j: np.ndarray, n: int, band: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """First admissible l and the number of admissible l for pairs (i, j), i <= j.

    ``band`` = (c0, c1) is the index range of the radius band, c0 >= 1.

    An unordered triple {x >= y >= z} stands for three resonance pairings
    whose fourth indices are x+y-z, x+z-y and y+z-x.  Convexity of test
    functions makes the pairings' brackets cancel only jointly, so a triple
    is either kept with every pairing whose fourth index is a valid node, or
    dropped entirely: the criterion is that the largest fourth index x+y-z
    stays below n.  Keeping a partial class would expose bare negative
    brackets and break the monotonicity of convex functionals.

    With s = i + j and m = s - l >= 1, that criterion is one interval in l:

    - for l <= i the largest fourth index is m, so l >= s - n + 1;
    - for l > i it is l + j - i, so l <= n - 1 - (j - i);
    - each bound also holds on the other side (j <= n - 1 gives
      s - n + 1 <= i and n - 1 - (j - i) >= i), so the union of the two
      sides is [max(1, s-n+1, c0), min(s-1, n-1-(j-i), c1)].
    """
    c0, c1 = band
    s = i + j
    lo = np.maximum(s - n + 1, c0)
    hi = np.minimum(np.minimum(s - 1, n - 1 - (j - i)), c1)
    return lo, np.maximum(hi - lo + 1, 0)


def _band(kw: KernelWeights, grid: OmegaGrid) -> tuple[int, int]:
    """Index range (c0, c1) of the nodes whose radii lie in the band [1/n, n)."""
    r = grid.r
    ncut = kw.cutoff_n
    if math.isfinite(ncut):
        # the grid's radii increase strictly, so the band is an index range
        return (int(np.searchsorted(r, 1.0 / ncut)),
                int(np.searchsorted(r, ncut)) - 1)
    return 1, grid.n_nodes - 1  # the origin node carries no interactions


def build_kernel_table(kw: KernelWeights, grid: OmegaGrid) -> KernelTable:
    """Enumerate admissible interaction triples and their kernel weights.

    W_ijl = c_q * mho(r_m) * min(r_i, r_j, r_l, r_m) / (r_i r_j r_l),
    restricted by the radius band [1/n, n) on the three integration indices
    and by whole-class domain truncation (see _l_intervals).  Entries with a
    zero weight (any index at the origin) are pruned.
    """
    n = grid.n_nodes
    r = grid.r
    mho = grid.mho
    band = _band(kw, grid)

    columns = [np.empty((6, 0))]  # i, j, l, m, w, mult of each row i
    for i in range(band[0], band[1] + 1):
        j = np.arange(i, band[1] + 1, dtype=np.int64)
        lo, cnt = _l_intervals(i, j, n, band)
        k = int(cnt.sum())
        # (j, l) order: each pair's l run from lo up
        j_v = np.repeat(j, cnt)
        l_v = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(k)
        m_v = i + j_v - l_v
        # the kernel's min(..., n) needs no cutoff term here: every kept entry
        # has least <= r_i <= r[band[1]] < cutoff_n
        least = np.minimum(np.minimum(r[l_v], r[m_v]), np.minimum(r[i], r[j_v]))
        w_v = kw.c_q * mho[m_v] * least / (r[i] * r[j_v] * r[l_v])
        columns.append([np.full(k, i), j_v, l_v, m_v, w_v, np.where(j_v == i, 1, 2)])
    ii, jj, ll, mm, ww, mu = np.concatenate(columns, axis=1)
    ii, jj, ll, mm = (a.astype(np.int32) for a in (ii, jj, ll, mm))
    mu = mu.astype(np.int8)

    coef = ww * mu * grid.h ** 2
    table = KernelTable(grid=grid, kw=kw, i=ii, j=jj, l=ll, m=mm,
                        w=ww, mult=mu, coef=coef)
    for arr in (ii, jj, ll, mm, ww, mu, coef):
        arr.flags.writeable = False
    return table


def _check_same_grid(op, state: SpectrumState) -> None:
    """Reject a state whose grid differs from op's in nodes or radii.

    Equal radii on equal nodes mean an equal dispersion on the grid, so an
    equal-valued grid object is accepted.
    """
    g1, g2 = state.grid, op.grid
    if g1 is not g2 and (g1.n_nodes != g2.n_nodes or g1.h != g2.h
                         or not np.array_equal(g1.r, g2.r)):
        raise ValueError(
            f"state and {type(op).__name__} live on different grids "
            f"({g1.n_nodes} nodes, h={g1.h:g}, alpha={g1.d.alpha:g} vs "
            f"{g2.n_nodes}, h={g2.h:g}, alpha={g2.d.alpha:g})"
        )


# --- the matrix-free operator -------------------------------------------------

_U = 2.0 ** -53
#: A range sum whose a-priori error bound exceeds this fraction of its value
#: is summed directly instead.
RANGE_RTOL = 1e-14
#: Cells per row window: a window's terms, prefix sums and error sums stay in
#: a core's cache.
BLOCK_CELLS = 2 ** 14


class _Rows(NamedTuple):
    """The rows of one plane in a window (see _layout)."""

    plane: int
    rows: slice           # where they sit in the window
    row: np.ndarray       # the plane's row (s - 2 c0) of each
    first: np.ndarray     # its first stored column
    diagonal: np.ndarray  # n_rows - 1 - row + first: where it starts by diagonal
    half: np.ndarray      # where each cell i = j (row 2 i, column i) is in the window


class _Pieces(NamedTuple):
    """A batch of a window's ranges as affine pieces (see _lines), listed by
    _generate."""

    count: np.ndarray  # ranges per piece
    lines: np.ndarray  # int32: the step along a piece of each column, then
    #                    each column's value at the batch's range 0 on the
    #                    piece's line
    size: int          # ranges in the batch


class _Window(NamedTuple):
    """One window: its shape (rows held, width + 1), its _Rows and its
    pieces, in batches of about _BATCH ranges."""

    shape: tuple
    rows: tuple
    batches: tuple  # of _Pieces


class _Windows(NamedTuple):
    """One row-window layout of range sums (see _layout)."""

    windows: tuple  # of _Window
    bounds: tuple   # where each part ends in the output of _part_sums


@dataclass(frozen=True, eq=False)
class CollisionOperator:
    """Everything about the collision operator that does not depend on g.

    Notation: i <= j are the pair's nodes, s = i + j, m = s - l, a = g / r
    and K = c_q h^2.  The min in W is r_l in region A (l <= i), r_i in B
    (i < l < j) and r_m in C (l >= j, l > i), so each deposit factors as

        A: K mult a_i a_j * g_l mho_m
        B: K mult g_i a_j * a_l mho_m
        C: K mult a_i a_j * a_l r_m mho_m.

    A plane holds one such factor at each row s = 2 c0 .. 2 c1 and band node
    column (l for the loss terms, i for the gain terms): three loss planes
    (g_l, a_l and a_l r_m, each times mho_m) and two pair planes (mult a_i
    a_j and mult g_i a_j).  The loss at a pair (s, i) takes three l ranges
    of row s, one per loss plane, and the gain at a cell (s, l) three i
    ranges of pair planes.  A value of s - l (or of s - i) is constant along
    a diagonal, so ``mho_d`` and ``rmho_d`` hold one value per diagonal, in
    the order a row meets them, then nb zeros: row r of a plane meets
    mho_d[n_rows - 1 - r:][:nb] (see _plane_shape).

    No plane is stored whole.  A row of a plane is stored from the first
    column any of its ranges reaches to the last, and a window is a set of
    such rows, of any of the planes, behind a zero column: rows of similar
    length share a window of at most BLOCK_CELLS cells (or hold one of
    their own).  ``loss`` and ``gain`` are the window layouts of the A, B
    and C ranges of every pair and of every cell (see _layout).  No range
    is stored either: along a row, a range's ends and its pair or cell step
    by constants except at a few places, so a window keeps affine pieces
    (see _lines), each column of a piece, ends and outputs alike, a value
    and a slope.  An evaluation fills a window, lists its ranges a batch
    at a time (_generate), takes their sums while it is in cache and adds
    them into n-long gains and losses, so its working set is one window,
    of cells and of ranges, and the stored state is O(n).  A range is
    still the difference of two Sum2 prefix sums along one row of
    nonnegative terms, of a row that starts at its own first reached
    column, so its prefix total can only shrink; the row length in the
    a-priori bound of _certified_sums is the window's width, at most the
    band's.  So RANGE_RTOL certifies each range, or sends it to direct
    summation, as before.  A loss range's outputs are the codes i + n part
    (plus 3n where i = j) and j, a gain range's l + n part and m + n part,
    with part 0, 1, 2 for A, B, C: one take by each code finds the range's
    factors (see _rhs_of_g).
    """

    grid: OmegaGrid
    kw: KernelWeights
    band: tuple[int, int]
    #: number of admissible interactions, the entries build_kernel_table lists
    n_entries: int
    mho_d: np.ndarray = field(repr=False)   # mho_{s-l}, 0 where s-l is no node
    rmho_d: np.ndarray = field(repr=False)  # r_{s-l} mho_{s-l}
    loss: _Windows = field(repr=False)
    gain: _Windows = field(repr=False)

    @functools.cached_property
    def production_cells(self) -> SimpleNamespace:
        """Where convex production reads the planes, block by block of rows
        (see _production_cells), so a production call's working set is one
        block; built on first use, as no other evaluation needs it."""
        return _production_cells(self)


def _plane_shape(band: tuple[int, int]) -> tuple[int, int]:
    """(n_rows, nb) of the planes over ``band``: rows s = 2 c0 .. 2 c1 and
    the band's nodes."""
    nb = max(band[1] - band[0] + 1, 0)
    return max(2 * nb - 1, 0), nb


def _check_indices(n: int, count: int) -> None:
    """Reject a grid whose operator indices reach count beyond int32."""
    if count > np.iinfo(np.int32).max:
        raise ValueError(f"{n} nodes overflow the operator's int32 indices")


def _row_views(values: np.ndarray, width: int) -> np.ndarray:
    """The rows values[k:k + width] for every k, a view of contiguous values."""
    return np.ndarray((values.size - width + 1, width), values.dtype, values, 0,
                      values.strides * 2)


#: Ranges per batch of a window: a batch's ranges are listed, summed and
#: added up at once, in a core's cache.
_BATCH = 2 ** 13
def _layout(pieces: list, c0: int, n_rows: int, rows: range, bounds: tuple) -> _Windows:
    """The window layout of CollisionOperator for ``pieces`` (of _lines) of
    the planes' ``rows``.

    Each (plane, row) is stored from the first column its ranges reach to
    the last.  The rows are sorted by that length, longest first (a stable
    sort, so a rerun gives the same layout), and cut into windows of at
    most BLOCK_CELLS cells or of one row; inside a window they go plane by
    plane and row by row, so each plane's rows are filled at once.  A
    piece's lo and hi become (start, end) prefix positions in its window.
    A window keeps its pieces part by part and row by row, so the layout
    does not depend on the blocks the set-up cut, in batches of about
    _BATCH ranges.  ``bounds`` are where each part ends in the output.  The
    layout's arrays are read-only.
    """
    part, plane, row, count, first, slope = (np.concatenate(a, axis=-1) for a in zip(*pieces))
    if not count.size:
        return _Windows((), bounds)
    last = first[:2] + slope[:2] * (count - 1)
    key = plane * len(rows) + row - rows.start
    n_keys = len(rows) * (1 + int(plane.max(initial=0)))
    lead = np.full(n_keys, n_rows + 1)  # each (plane, row)'s first stored column
    np.minimum.at(lead, key, np.minimum(first[0], last[0]) - c0)
    width = np.full(n_keys, -n_rows)
    np.maximum.at(width, key, np.maximum(first[1], last[1]) - c0)
    width -= lead - 1
    held = np.flatnonzero(width > 0)
    held = held[np.argsort(-width[held], kind="stable")]  # longest row first

    # windows: runs of the held rows of at most BLOCK_CELLS cells or one
    # row, each as wide as its first; inside one, plane by plane, row by row
    widths, starts = width[held].tolist(), [0]
    while starts[-1] < held.size:
        starts.append(starts[-1] + max(1, BLOCK_CELLS // (widths[starts[-1]] + 1)))
    starts[-1] = held.size
    shapes = [(b - a, widths[a] + 1) for a, b in zip(starts, starts[1:])]
    at = np.repeat(np.arange(len(shapes)), np.diff(starts))  # each held row's window
    w = width[held[starts[:-1]]][at]
    keys = held[np.lexsort((held, at))]
    place = np.arange(keys.size) - np.asarray(starts[:-1])[at]  # where in its window
    window, base = np.zeros(n_keys, np.intp), np.zeros(n_keys, np.intp)
    window[keys], base[keys] = at, place * (w + 1) - lead[keys]
    on, r = np.divmod(keys, len(rows))
    r += rows.start
    f = lead[keys]
    # where each pair cell i = j (row 2i, column i) sits in its window
    i = np.flatnonzero((r % 2 == 0) & (r // 2 >= f) & (r // 2 < f + w))
    half = place[i] * (w[i] + 1) + 1 + r[i] // 2 - f[i]
    cuts = np.flatnonzero(np.diff(on, prepend=-1) | np.diff(at, prepend=-1)).tolist()
    rows = [[] for _ in shapes]
    for a, b, h in zip(cuts, cuts[1:] + [keys.size], np.split(half, np.searchsorted(i, cuts[1:]))):
        rows[at[a]].append(_Rows(int(on[a]), slice(place[a], place[b - 1] + 1), r[a:b], f[a:b],
                                 n_rows - 1 - r[a:b] + f[a:b], h))

    # each piece's ends as prefix positions in its window, then the pieces
    # window by window, part by part and row by row, in batches
    shift = base.take(key) - c0
    first[0] += shift
    first[1] += shift + 1
    order = np.lexsort((row, part, window.take(key)))
    at, count = window.take(key[order]), count[order]
    first, slope = first[:, order], slope[:, order]
    before = np.cumsum(count) - count
    before -= before[np.searchsorted(at, at)]  # ranges before it in its window
    new = np.flatnonzero((np.diff(at) != 0) | (np.diff(before // _BATCH) != 0)) + 1
    heads = np.concatenate(([0], new))
    before -= np.repeat(before[heads], np.diff(np.append(heads, at.size)))  # and in its batch
    lines = np.concatenate((slope, first - slope * before)).astype(np.int32)
    count.flags.writeable = lines.flags.writeable = False
    batches = [[] for _ in shapes]
    for h, n_k, lines_k in zip(heads.tolist(), np.split(count, new), np.split(lines, new, axis=1)):
        batches[at[h]].append(_Pieces(n_k, lines_k, int(n_k.sum())))
    return _Windows(tuple(_Window(*window) for window in zip(shapes, map(tuple, rows),
                                                             map(tuple, batches))), bounds)


def _lines(part: int, plane: int, row, s, first, last, step: int, lo: list, hi: list,
           outs: list, cuts) -> tuple:
    """The pieces of one part of a layout: its node ranges [max of ``lo``,
    min of ``hi``] at x = first, first + step, ..., last of each row s, with
    ``outs``, in _layout's form, with no per-range array.

    ``lo``, ``hi`` and ``outs`` are functions f(s, x), each affine in x (by
    step) between the points ``cuts`` ((points, rows) values of x).  Where
    none of them bends, a range keeps its bounding functions, and is empty
    or not, until two of them cross.  So the pieces are the stretches
    between those points, joined where one continues another's line.
    """
    def at(s, x, fns):
        return [v if np.ndim(v) else np.full_like(x, v) for v in (f(s, x) for f in fns)]

    def bounds(s, x):
        return [functools.reduce(np.maximum, at(s, x, lo)),
                functools.reduce(np.minimum, at(s, x, hi)), *at(s, x, outs)]

    def stretches(width, points):
        """(owner, start, count) of the stretches of 0 .. width - 1 of each
        owner between ``points`` (points, owners), owner by owner."""
        j, k = np.nonzero((points > 0) & (points < width))  # the points inside
        owner = np.arange(width.size)
        cut = np.concatenate((0 * width, points[j, k], width))
        k = np.concatenate((owner, k, owner))
        order = np.lexsort((cut, k))
        k, cut = k[order], cut[order]
        a = np.flatnonzero((k[1:] == k[:-1]) & (cut[1:] > cut[:-1]))
        return k[a], cut[a], cut[a + 1] - cut[a]

    # the stretches on which every function is affine
    width = np.maximum((last - first) // step + 1, 0)
    k, u, count = stretches(width, -((first - cuts) // step))
    x, s = first[k] + step * u, s[k]
    # where two bounding functions cross on each of them (node indices, so
    # int32)
    values = np.stack(at(s, x, lo + hi), dtype=np.int32)
    steps = np.stack(at(s, x + step, lo + hi), dtype=np.int32) - values
    i, j = np.triu_indices(len(values), 1)
    den = steps[i] - steps[j]
    live = np.flatnonzero(np.any(den != 0, axis=1))  # pairs that can cross
    i, j, den = i[live], j[live], den[live]
    num, den = (values[j] - values[i]) * np.sign(den), np.abs(den)
    one = np.maximum(den, 1)
    cross = np.where(den > 0, [-(-num // one), num // one + 1], 0)
    k2, u, count = stretches(count, cross.reshape(2 * i.size, count.size))
    k, x, s = k[k2], x[k2] + step * u, s[k2]

    first, slope = np.stack(bounds(s, x)), np.stack(bounds(s, x + step))
    slope -= first
    keep = np.flatnonzero(first[0] <= first[1])
    k, count, first, slope = k[keep], count[keep], first[:, keep], slope[:, keep]
    joins = ((k[1:] == k[:-1]) & np.all(slope[:, 1:] == slope[:, :-1], axis=0)
             & np.all(first[:, 1:] == first[:, :-1] + slope[:, :-1] * count[:-1], axis=0))
    heads = np.flatnonzero(np.concatenate(([True], ~joins))[:k.size])
    count = np.add.reduceat(count, heads) if heads.size else count
    return (np.full(heads.size, part), np.full(heads.size, plane), row[k[heads]], count,
            first[:, heads], slope[:, heads])


def build_operator(kw: KernelWeights, grid: OmegaGrid) -> CollisionOperator:
    """Set up the O(n^2) collision operator in O(n) work and stored state:
    the pieces of its pair and cell ranges in the window layout and the
    mho_{s-l} diagonals, all over the radius band."""
    n = grid.n_nodes
    c0, c1 = band = _band(kw, grid)
    n_rows, nb = _plane_shape(band)
    _check_indices(n, 3 * n_rows * (nb + 1))

    # s - x on each diagonal, from the row's first column on, then nb zeros
    m = c0 + n_rows - 1 - np.arange(max(n_rows + nb - 1, 0))
    node = (m >= 1) & (m <= n - 1)
    mho_d, rmho_d = np.zeros((2, m.size + nb))
    mho_d[:m.size] = np.where(node, grid.mho[np.clip(m, 0, n - 1)], 0.0)
    rmho_d[:m.size] = np.where(node, grid.r[np.clip(m, 0, n - 1)], 0.0) * mho_d[:m.size]

    # pairs (s, i), max(c0, s - c1) <= i <= s // 2: the loss at i and j is
    # 2K a_j (a_i A + g_i B + a_i C), halved where i = j, with l-range sums
    # A over [lo, i] (hi >= i for every pair), B over [i+1, min(j-1, hi)]
    # and C over [max(j, i+1), hi], where lo = max(s - n + 1, c0) and hi =
    # min(s - 1, n - 1 - s + 2i, c1) (see _l_intervals); a pair's codes are
    # i + n part (+ 3n where i = j) and j
    row = np.arange(n_rows)
    s = row + 2 * c0
    hi_l = [lambda s, i: s - 1, lambda s, i: n - 1 - s + 2 * i, lambda s, i: c1]
    codes = [lambda s, i, part=part: np.where(2 * i < s, i, i + 3 * n) + part * n
             for part in range(3)]
    loss = [_lines(part, part, row, s, np.maximum(c0, s - c1), s // 2, 1, lo, hi,
                   [codes[part], lambda s, i: s - i], (s // 2)[None])
            for part, lo, hi in (
                (0, [lambda s, i: s - n + 1, lambda s, i: c0], [lambda s, i: i]),
                (1, [lambda s, i: i + 1], [lambda s, i: s - i - 1, *hi_l]),
                (2, [lambda s, i: s - i, lambda s, i: i + 1], hi_l))]

    # cells (s, l), l by 2: the gain at l and m = s - l is K (g_l mho_m A +
    # a_l mho_m B + a_l r_m mho_m C) with i-range sums of mult a_i a_j (A,
    # C) and of mult g_i a_j (B) from max(c0, s - c1) to s // 2; l <=
    # hi(s, i) is i >= q; a cell's codes are l + n part and m + n part
    row, s = np.repeat(row, 2), np.repeat(s, 2)
    first = np.maximum(c0, s - n + 1)
    first += (c0 + np.tile([0, 1], n_rows) - first) % 2  # each parity
    i_min = [lambda s, l: c0, lambda s, l: s - c1]

    def q(s, l):
        return -((n - 1 - l - s) // 2)

    gain = [_lines(part, plane, row, s, first, np.minimum(c1, s - 1), 2, lo, hi,
                   [lambda s, l, part=part: l + part * n,
                    lambda s, l, part=part: s - l + part * n], np.empty((0, s.size), int))
            for part, plane, lo, hi in (
                (0, 0, [lambda s, l: l, *i_min], [lambda s, l: s // 2]),
                (1, 1, [*i_min, q], [lambda s, l: s // 2, lambda s, l: l - 1,
                                     lambda s, l: s - l - 1]),
                (2, 0, [*i_min, lambda s, l: s - l, q], [lambda s, l: s // 2,
                                                         lambda s, l: l - 1]))]

    # a pair's loss ranges cover its admissible l once
    n_entries = sum(int(np.sum(k * (f[1] - f[0] + 1) + (k * (k - 1) // 2) * (d[1] - d[0])))
                    for *_, k, f, d in loss)
    rows = range(n_rows)
    op = CollisionOperator(grid=grid, kw=kw, band=band, n_entries=n_entries,
                           mho_d=mho_d, rmho_d=rmho_d,
                           loss=_layout(loss, c0, n_rows, rows, ()),
                           gain=_layout(gain, c0, n_rows, rows, ()))
    op.mho_d.flags.writeable = op.rmho_d.flags.writeable = False
    return op


def _sum2(terms: np.ndarray, S: np.ndarray, E: np.ndarray) -> None:
    """Sum2 row prefix sums of nonnegative ``terms`` (Ogita, Rump & Oishi
    2005) into S and E: np.cumsum S, and the cumulative sum E of each
    step's exact error.

    S runs left to right, so each step is t = fl(p + x) with p, x >= 0, and
    its error is Fast2Sum's min(p, x) - (t - max(p, x)), exact because the
    larger summand goes first: the same bits as TwoSum, in fewer passes.
    """
    np.cumsum(terms, axis=-1, out=S)
    E[..., 0] = 0.0
    prev, x, err = S[..., :-1], terms[..., 1:], E[..., 1:]
    big = np.maximum(prev, x)
    np.subtract(S[..., 1:], big, out=big)
    np.minimum(prev, x, out=err)
    err -= big
    del big
    np.cumsum(E, axis=-1, out=E)


def _certified_sums(terms: np.ndarray, S: np.ndarray, E: np.ndarray,
                    ends: np.ndarray) -> np.ndarray:
    """Sum of terms.flat[a+1 .. b] for each column (a, b) of ``ends``.

    ``terms`` is nonnegative, with a zero first column, and every range lies
    in one row.  A sum is the difference (S_b - S_a) + (E_b - E_a) of the
    flat Sum2 row prefix sums S and E of ``terms`` (see _sum2).  A range
    whose a-priori bound u|v| + gamma_k^2 S_b (k the row length, S_b the
    prefix total) exceeds RANGE_RTOL of its value v is summed directly from
    its terms instead.
    """
    k = terms.shape[-1] - 1
    start, end = ends
    top = S.take(end)
    v = top - S.take(start)
    e = E.take(end)
    e -= E.take(start)
    v += e  # (S_b - S_a) + (E_b - E_a), one temporary at a time
    del e
    gamma = k * _U / (1.0 - k * _U)
    bad = np.flatnonzero(top * (gamma * gamma / (RANGE_RTOL - _U)) > np.abs(v))
    if bad.size:
        first, lens = start[bad] + np.int64(1), (end[bad] - start[bad]).astype(np.int64)
        heads = np.cumsum(lens) - lens
        pos = np.repeat(first - heads, lens) + np.arange(heads[-1] + lens[-1])
        v[bad] = np.add.reduceat(terms.ravel().take(pos), heads)
    return v


def _generate(pieces: _Pieces) -> list:
    """A batch's ranges from its pieces: their columns (start, end,
    outputs...), each intp, each a piece's line at 0, 1, 2, ... from
    np.repeat in int32."""
    g = pieces.lines.shape[0] // 2
    lines = np.repeat(pieces.lines[:g], pieces.count, axis=1)
    lines *= np.arange(pieces.size, dtype=np.int32)
    lines += np.repeat(pieces.lines[g:], pieces.count, axis=1)
    return [column.astype(np.intp) for column in lines]


def _most_cells(layouts) -> int:
    """The cells of the largest window of ``layouts``."""
    return max((a * b for layout in layouts for (a, b), _, _ in layout.windows), default=0)


def _window_sums(planes, layout: _Windows, space: np.ndarray):
    """Per batch of a layout (see _layout): its ranges' sums and outputs.

    Each of ``planes`` is a function fill(rows, terms) that writes the
    plane's values on the _Rows ``rows`` of the window ``terms``; a window is
    filled behind a zero column and prefix-summed, and its ranges are listed
    from its pieces and summed (_certified_sums) a batch at a time while it
    is in cache.  Each window's terms and prefix sums go to ``space``, a
    (3, _most_cells) buffer that a call allocates once for all its
    layouts, and every temporary of a batch stays small and is dropped,
    here and in _part_sums, before the next batch's ranges are listed, so
    the memory one window or batch frees serves the next.
    """
    for shape, strips, batches in layout.windows:
        terms, S, E = (a[:shape[0] * shape[1]].reshape(shape) for a in space)
        terms[:, 0] = 0.0
        for rows in strips:
            planes[rows.plane](rows, terms)
        _sum2(terms, S, E)
        S, E = S.ravel(), E.ravel()
        for pieces in batches:
            start, end, *outs = _generate(pieces)
            v = _certified_sums(terms, S, E, (start, end))
            del start, end
            yield v, outs
            del v, outs  # before the next batch's are listed


def _part_sums(planes, layout: _Windows, space: np.ndarray, out: np.ndarray) -> list:
    """The range sums of a layout whose one output is each range's place,
    one array per part, written to the start of ``out``; an empty range
    sums to 0."""
    out = out[:layout.bounds[-1]]
    out[:] = 0.0
    for v, (at,) in _window_sums(planes, layout, space):
        out[at] = v
        del v, at  # before the next batch's are listed
    return [out[a:b] for a, b in zip((0,) + layout.bounds[:-1], layout.bounds)]


def _planes(op: CollisionOperator, g: np.ndarray):
    """g and a = g / r over the band, and the loss and pair planes at g as
    fill functions for _window_sums."""
    c0, c1 = op.band
    gb = g[c0:c1 + 1]
    ab = gb / op.grid.r[c0:c1 + 1]
    n_rows, nb = _plane_shape(op.band)
    # g and a, then 2 a_{s-i} by diagonal, each padded with zeros past a row
    # that starts at the band's last node
    g_pad, a_pad, two_a = np.zeros((3, n_rows + 2 * nb))
    g_pad[:nb], a_pad[:nb] = gb, ab
    np.multiply(ab[::-1], 2.0, out=two_a[n_rows - nb:n_rows])

    def plane(x, by, pairs=False):
        def fill(rows, terms):
            w = terms.shape[1] - 1
            np.multiply(_row_views(x, w)[rows.first], _row_views(by, w)[rows.diagonal],
                        out=terms[rows.rows, 1:])
            if pairs:  # a pair i = j, in row 2 i, counts once
                terms.ravel()[rows.half] *= 0.5
        return fill

    return gb, ab, ([plane(g_pad, op.mho_d), plane(a_pad, op.mho_d),
                     plane(a_pad, op.rmho_d)],
                    [plane(a_pad, two_a, True), plane(g_pad, two_a, True)])


def _rhs_of_g(op: CollisionOperator, g: np.ndarray) -> np.ndarray:
    """The operator at density g: gains at l and m minus losses at i and j,
    added up window by window."""
    n = op.grid.n_nodes
    if not op.n_entries:  # a band with no node
        return np.zeros(n)
    c0, c1 = op.band
    _, ab, (loss_planes, pair_planes) = _planes(op, g)
    a = np.zeros(n)
    a[c0:c1 + 1] = ab
    # a pair's factor by its code: a_i, g_i, a_i for A, B, C, halved where i = j
    by_i = np.concatenate((a, g, a))
    by_i = np.concatenate((by_i, 0.5 * by_i))
    at_i, at_j = np.zeros(by_i.size), np.zeros(n)
    space = np.empty((3, _most_cells((op.loss, op.gain))))
    for v, (i, j) in _window_sums(loss_planes, op.loss, space):
        v *= a.take(j)
        v *= by_i.take(i)
        at_i += np.bincount(i, v, by_i.size)
        at_j += np.bincount(j, v, n)
    loss = at_i.reshape(6, n).sum(axis=0) + at_j

    # a cell's factors by its codes: g_l, a_l, a_l and mho_m, mho_m, r_m mho_m
    mho = op.grid.mho
    by_l, by_m = np.concatenate((g, a, a)), np.concatenate((mho, mho, op.grid.r * mho))
    at_lm = np.zeros(3 * n)
    for v, (l, m) in _window_sums(pair_planes, op.gain, space):
        v *= by_l.take(l)
        v *= by_m.take(m)
        at_lm += np.bincount(l, v, 3 * n)
        at_lm += np.bincount(m, v, 3 * n)
    K = op.kw.c_q * op.grid.h ** 2
    return K * at_lm.reshape(3, n).sum(axis=0) - (2.0 * K) * loss


# --- convex production ------------------------------------------------------


def _pow2(x: np.ndarray) -> np.ndarray:
    """The largest power of two not above max(x, 1)."""
    return np.left_shift(1, np.frexp(np.maximum(x, 1).astype(float))[1] - 1)


#: Rows per block of convex production: a block's range sums, products and
#: bracket weights are made, summed and freed before the next block's.
PRODUCTION_ROWS = 64


class _Block(NamedTuple):
    """A block of convex production's rows (s - 2 c0): where its cells sit
    among all production cells, and its layouts (see _production_cells)."""

    rows: range
    cells: slice
    loss: _Windows
    pairs: _Windows
    zvw: _Windows


def _production_cells(op: CollisionOperator) -> SimpleNamespace:
    """The layouts of _region_masses and _bracket_weights' shape, block by
    block of rows.

    A block is a run of PRODUCTION_ROWS rows (fewer at the end).  Its
    layouts hold the ranges over its cells (s, t), 1 <= t <= s/2 - 1, where
    a bracket weight can be nonzero, and over its nodes (s, x) of the band,
    and are built from the pieces of its rows only.  Each range is clipped
    to where its row of the plane can be nonzero, and empty ones are
    dropped; a range's output is its place among its part's cells or nodes
    of the block, row by row.  The bounds bend where a power of two steps
    (t + E, x + xE or x + xE - 1 at one) and where a range's condition
    flips; parts whose ends alternate with the parity of t or x (through
    iota and last) step by 2."""
    n, (c0, c1) = op.grid.n_nodes, op.band
    n_rows, nb = _plane_shape(op.band)
    _check_indices(n, 5 * n_rows * (nb + 1))
    T = max(c1 - 1, 0)  # t = 1 .. T
    in_row = np.clip(np.arange(2 * c0, 2 * c0 + n_rows) // 2 - 1, 0, T)
    cell0 = np.concatenate(([0], np.cumsum(in_row)))  # each row's first cell

    # B covers t while min(l, m) > t, i.e. l <= cap; pairs up to last =
    # min(a, t) have e_i <= cap; sig is B's anchor pair (t where E + t < 1,
    # which empties every B range); iota is the first pair with e_i >= l
    def sig(s, t):
        E = n - 1 - s
        return np.where(t + E >= 1, _pow2(t + E) - E, t)

    def top(s, t):
        return n - 1 - s + 2 * sig(s, t)

    def a(s, t):
        return (2 * s - n - t) // 2

    def iota(s, x):
        return -((n - 1 - s - x) // 2)

    def z_hi(s, x):
        xE = n - 1 - s
        return np.where(x + xE >= 2, _pow2(x + xE - 1) - xE, 0)

    def w_lo(s, x):
        xE = n - 1 - s
        return np.where((x + xE >= 1) & (2 * x + 2 <= s), 2 * _pow2(x + xE) - xE + 1, n)

    # a range is clipped to where its row of a loss plane (or, for pairs,
    # of a pair plane) can be nonzero
    clips = {False: ([lambda s, x: c0, lambda s, x: s - n + 1],
                     [lambda s, x: c1, lambda s, x: s - 1]),
             True: ([lambda s, x: c0, lambda s, x: s - c1],
                    [lambda s, x: c1, lambda s, x: s // 2])}

    def block(rows: range) -> _Block:
        row = np.arange(rows.start, rows.stop)
        s = row + 2 * c0
        C, N = int(cell0[rows.stop] - cell0[rows.start]), len(rows) * nb
        # (first, last) of the cells and of the nodes of each row, each
        # range's place in its part, and where a bound can bend: where t + E
        # or x + xE (E = xE = n - 1 - s) passes a power of two, where
        # x + xE - 1 does, and where 2x + 2 <= s or 2x > s starts to fail or
        # hold
        cells = (np.ones_like(s), np.minimum(T, s // 2 - 1))
        nodes = (np.full_like(s, c0), np.full_like(s, c1))
        none = np.empty((0, s.size), int)
        dyadic = 2 ** np.arange((2 * n).bit_length() + 1)[:, None] - (n - 1 - s)

        def t_at(s, t):
            return cell0[s - 2 * c0] - cell0[rows.start] + t - 1

        def x_at(s, x):
            return (s - 2 * c0 - rows.start) * nb + x - c0

        # per layout and part: plane, cells or nodes, step, pairs (i with j
        # = s - i in the band), the terms of lo and hi, and where they bend:
        # per cell A's l prefix, C's q range, B's b to cap and to top, w per
        # i; SP at t+1 and per l at iota, B's capped and anchored P ranges,
        # z per l; then the ranges of z, v and w (see _region_masses)
        layouts = {
            "loss": [(0, cells, 1, False, [lambda s, t: c0], [lambda s, t: t], none),
                     (2, cells, 1, False, [lambda s, t: s - t],
                      [lambda s, t: n + 1 - s + 2 * t], none),
                     (1, cells, 1, False, [lambda s, t: t + 1], [lambda s, t: s - t - 1], none),
                     (1, cells, 1, False, [lambda s, t: t + 1], [top], dyadic),
                     (1, nodes, 1, False, [w_lo], [lambda s, x: n - 1 - s + 2 * x],
                      np.vstack((dyadic, [s // 2])))],
            "pairs": [(0, cells, 1, True, [lambda s, t: t + 1], [lambda s, t: t + n], none),
                      (0, nodes, 2, True, [iota], [lambda s, x: c1 * (2 * x > s)],
                       [s // 2 + 1]),
                      (1, cells, 2, True, [lambda s, t: sig(s, t) + 1, lambda s, t: a(s, t) + 1],
                       [lambda s, t: t], dyadic),
                      (1, cells, 2, True, [lambda s, t: sig(s, t) + 1], [a, lambda s, t: t],
                       dyadic),
                      (1, nodes, 2, True, [iota], [z_hi], dyadic + 1)],
            "zvw": [(0, cells, 1, False, [lambda s, t: t + 1], [top, lambda s, t: s - t - 1],
                     dyadic),
                    (1, cells, 1, False, [lambda s, t: s - t, lambda s, t: n + 2 + 2 * t - s],
                     [lambda s, t: s], none),
                    (2, cells, 2, True, [lambda s, t: sig(s, t) + 1], [a, lambda s, t: t],
                     dyadic)]}
        out = {}
        for name, parts in layouts.items():
            pieces, bounds = [], np.cumsum([C if where is cells else N for _, where, *_ in parts])
            for part, (plane, where, step, pairs, lo, hi, cuts) in enumerate(parts):
                first, last = where
                cuts = np.asarray(cuts)
                place = t_at if where is cells else x_at
                offset = bounds[part] - (C if where is cells else N)
                at, ss = row, s
                if step == 2:  # each parity of t or x, row by row
                    at, ss, last, cuts = (np.repeat(a, 2, axis=-1) for a in (row, s, last, cuts))
                    first = np.repeat(first, 2) + np.tile([0, 1], len(rows))
                pieces.append(_lines(part, plane, at, ss, first, last, step, lo + clips[pairs][0],
                                     hi + clips[pairs][1],
                                     [lambda s, x, place=place, o=offset: place(s, x) + o], cuts))
            out[name] = _layout(pieces, c0, n_rows, rows, tuple(bounds.tolist()))
        return _Block(rows, slice(int(cell0[rows.start]), int(cell0[rows.stop])), **out)

    return SimpleNamespace(shape=(n_rows, T), blocks=tuple(
        block(range(r, min(r + PRODUCTION_ROWS, n_rows)))
        for r in range(0, n_rows, PRODUCTION_ROWS)))


def _region_masses(op: CollisionOperator, g: np.ndarray):
    """Per block of production rows (see _production_cells): where its cells
    sit among all production cells, and h (Omega^A + Omega^C) and h Omega^B
    at density g at each of them: the masses of deposits that move outward
    from s/2 (A, C: brackets >= 0) and inward (B: brackets <= 0).

    Omega^R_s(t) is the deposit mass of region R's interactions in row s
    whose bracket interval covers t: [l, i-1] in A, [i, min(l, m)-1] in B,
    [m, i-1] in C.  B and C need l <= e_i = E + 2i (E = n-1-s); with
    x = E + i, y = E + l, T = E + t and Y = E + s-t-1 the regions are

        A: y <= T < x,    B: x <= T < y <= min(2x, Y),    C: x > T, Y < y <= 2x.

    Each deposit is a pair weight P_x times an l term (the operator's
    planes).  So A + C is SP, the sum of P over x > T, times the l sums over
    y <= T and Y < y <= 2T+2, plus v = q_y SP(ceil(y/2)) summed over
    y > max(Y, 2T+2).  B splits its pairs at X, the largest power of two not
    above T, so T < 2X: pairs x <= X give z = b_y (their P over
    ceil(y/2) <= x <= X) summed over T < y <= min(2X, Y); pairs x > X reach
    every y in (T, min(2X, Y)], and beyond 2X up to Y where 2x > Y, else up
    to 2x: w = P_x (b over 2X < y <= 2x).  X is the same for every T in
    [X, 2X), so z and w are one array per row.  Every sum is of nonnegative
    terms over a range of a row, and goes through _certified_sums window by
    window, on the operator's planes through windows of its own.  A row's
    sums read only that row, so a block is summed from its own layouts
    into one buffer that the next block's sums overwrite: a call's working
    set is one block.  The masses yielded are views of that buffer, valid
    until the next block.
    """
    nb = _plane_shape(op.band)[1]
    _, _, (loss, pairs) = _planes(op, g)
    kh = op.kw.c_q * op.grid.h ** 3

    def times(fill, out, bounds, part, start):
        """The plane times part ``part`` of ``out`` (parts end at
        ``bounds[1:]``), a value per node (s, x) of a block, and the nb
        values after it: a window row reads past its row's last node only
        in columns after all its ranges' ends, where any finite value
        gives the same sums."""
        factor = out[bounds[part]:bounds[part + 1] + nb]

        def scaled(rows, terms):
            fill(rows, terms)
            factors = _row_views(factor, terms.shape[1] - 1)
            terms[rows.rows, 1:] *= factors[(rows.row - start) * nb + rows.first]
        return scaled

    # one allocation for the call, reused block by block: the windows'
    # terms and prefix sums, then the loss and pair layouts' sums, each
    # followed by nb zeros; zvw's three cell parts take the room of the
    # loss sums' first three, which the products have read by then
    blocks = op.production_cells.blocks
    cells = _most_cells(layout for block in blocks for layout in block[2:])
    sizes = [nb + max((layout.bounds[-1] for layout in kind), default=0)
             for kind in ((block.loss for block in blocks), (block.pairs for block in blocks))]
    buffer = np.empty(3 * cells + sum(sizes))
    space = buffer[:3 * cells].reshape(3, cells)
    loss_out, pairs_out = np.split(buffer[3 * cells:], [sizes[0]])
    for block in blocks:
        pre, q, b_cap, b_top, _ = _part_sums(loss, block.loss, space, loss_out)
        sp, _, p_cap, p_top, _ = _part_sums(pairs, block.pairs, space, pairs_out)
        lb, pb, start = (0,) + block.loss.bounds, (0,) + block.pairs.bounds, block.rows.start
        loss_out[lb[-1]:lb[-1] + nb] = pairs_out[pb[-1]:pb[-1] + nb] = 0.0
        planes = [times(loss[1], pairs_out, pb, 4, start), times(loss[2], pairs_out, pb, 1, start),
                  times(pairs[1], loss_out, lb, 4, start)]  # z, sp_iota and w
        # outward sp (pre + q) and inward p_cap b_cap + p_top b_top, in the
        # pair sums' room, then plus zvw's v and z + w, in place
        sp *= pre + q
        p_cap *= b_cap
        p_top *= b_top
        z, v, w = _part_sums(planes, block.zvw, space, loss_out)
        v += sp
        z += p_cap
        z += p_top
        z += w
        v *= kh
        z *= kh
        yield block.cells, v, z


def _bracket_weights(op: CollisionOperator, D: np.ndarray) -> np.ndarray:
    """Delta_s(t), the sum of D_u over t < u < s - t, at each production cell.

    D holds a convex test function's second differences at nodes 1..n-2,
    which makes an interaction's bracket phi_l + phi_m - phi_i - phi_j the
    sum of Delta over its bracket interval (see _region_masses), with the
    sign of its region: + in A and C, - in B.  Each row is summed outward
    from its last cell, t = T_s = min(T, s/2 - 1), by steps D_{t+1} +
    D_{s-t-1} (D_{t+1} alone where t + 1 = s - t - 1), so Delta is exactly
    0 wherever D is.  Those steps are read along D forward and backward, a
    block of production rows at a time.
    """
    c = op.production_cells
    T, c0 = c.shape[1], op.band[0]
    D = np.concatenate(([0.0], D, np.zeros(op.grid.n_nodes + 1 + T)))  # D_0, D_1, ...
    back = np.concatenate((D[::-1], np.zeros(T + 1)))
    out = np.empty(c.blocks[-1].cells.stop if c.blocks else 0)
    for block in c.blocks:
        s = np.arange(block.rows.start, block.rows.stop) + 2 * c0
        last = np.clip(s // 2 - 1, 0, T)
        K = int(last.max(initial=0))
        if not K:
            continue
        # step k of a row is that of t = T_s - k
        steps = _row_views(back, K)[D.size - 2 - last]  # D_{t+1}
        ends = _row_views(D, K)[s - last - 1]  # D_{s-t-1}
        ends[:, 0] = np.where(2 * last + 2 < s, ends[:, 0], 0.0)
        steps += ends
        np.cumsum(steps, axis=1, out=steps)
        k = np.repeat(np.cumsum(last) - 1, last) - np.arange(block.cells.stop - block.cells.start)
        out[block.cells] = steps.ravel()[np.repeat(np.arange(s.size) * K, last) + k]
    return out


def rhs(op: CollisionOperator, state: SpectrumState) -> np.ndarray:
    """Instantaneous dg/dt per node from the four-point interaction stencil."""
    _check_same_grid(op, state)
    return _rhs_of_g(op, state.g)


def step(
    op: CollisionOperator,
    state: SpectrumState,
    dt: float,
    *,
    k1: Optional[np.ndarray] = None,
) -> SpectrumState:
    """Advance one RK4 step, halving dt (at most 30 times) to keep g >= 0.

    ``k1``, if given, must be ``rhs(op, state)``; it saves that evaluation.
    It does not depend on dt, so every halving reuses it.  Every stage's
    rate conserves mass and energy to rounding, so any accepted step does
    too, regardless of dt.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_same_grid(op, state)

    g0 = state.g
    if k1 is None:
        k1 = _rhs_of_g(op, g0)
    elif np.shape(k1) != g0.shape:
        raise ValueError(f"k1 has shape {np.shape(k1)} for a {g0.size}-node state")
    trial = float(dt)
    for _ in range(31):
        k2 = _rhs_of_g(op, g0 + 0.5 * trial * k1)
        k3 = _rhs_of_g(op, g0 + 0.5 * trial * k2)
        k4 = _rhs_of_g(op, g0 + trial * k3)
        g1 = g0 + (trial / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.all(g1 >= 0.0):
            return SpectrumState(g=g1, time=state.time + trial, grid=state.grid)
        trial *= 0.5
    raise StiffnessError(
        f"could not retain nonnegativity from dt={dt:g} after 30 halvings "
        f"at t={state.time:g}; the system is too stiff for an explicit step",
        state,
    )


def evolve(
    op: CollisionOperator,
    state0: SpectrumState,
    t_end: float,
    output_every: float = 0.0,
    *,
    diagnostics_config: Optional["_diag.DiagnosticsConfig"] = None,
    max_steps: Optional[int] = None,
    max_dt: Optional[float] = None,
):
    """Integrate to t_end with a rate-limited adaptive step.

    The step bound is dt <= 0.2 / max_i(|rhs_i| / max(g_i, floor)) with
    floor = 1e-3 * max(g): nodes carrying appreciable density change by at
    most ~20% per step; the rate limit 0.2 is fixed, and a state whose rhs
    vanishes sets no bound.  ``max_dt`` caps the step on top of that.
    Diagnostics are recorded at t=0, at the first accepted step past each
    multiple of ``output_every`` after t=0 (every accepted step if 0, or if
    below the clock's resolution of 1e-14 * max(1, |end time|)), and at the
    end.  The operator is evaluated once per state: that evaluation sets dt
    and is the step's k1.  The bracket weights of the test functions in
    ``diagnostics_config`` are built (and checked for convexity) once,
    before the first step; each record's convex production then reads the
    operator's planes at its state.  Returns a list of (state, record)
    pairs.  Every
    record's mass and energy are compared with the first record's:
    ConservationError is raised at the first record where either has
    drifted by more than 1e-10 relative, and names the quantity, the drift
    and that record's time.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    if not 0.0 <= output_every < math.inf:
        raise ValueError(f"output_every must be finite and nonnegative, got {output_every}")
    if max_dt is not None and not max_dt > 0.0:
        raise ValueError(f"max_dt must be positive, got {max_dt}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    _check_same_grid(op, state0)
    cfg = diagnostics_config if diagnostics_config is not None else _diag.DiagnosticsConfig()
    weights = _diag.production_weights(op, cfg.test_functions)
    out = []

    def record(s: SpectrumState) -> None:
        """Append the record of s and check its drift from the first record."""
        rec = _diag.make_record(s, cfg, op, weights)
        out.append((s, rec))
        first = out[0][1]
        for name in ("mass", "energy"):
            drift = _diag.relative_drift(getattr(first, name), getattr(rec, name))
            if drift > 1e-10:
                raise ConservationError(
                    f"{name} drifted by {drift:.3e} relative at t={rec.time:g} "
                    f"(tolerance 1e-10)"
                )

    record(state0)
    t0 = state0.time
    target = t0 + t_end
    state = state0
    steps = 0
    tiny = 1e-14 * max(1.0, abs(target))
    periods = 0  # whole output periods from t0 to the last record
    while state.time < target - tiny:
        if max_steps is not None and steps >= max_steps:
            break
        r = _rhs_of_g(op, state.g)
        if np.any(r):
            # every deposit is cubic in g, so r != 0 implies max(g) > 0
            floor = 1e-3 * float(state.g.max())
            dt = 0.2 / float(np.max(np.abs(r) / np.maximum(state.g, floor)))
        else:
            dt = target - state.time
        if max_dt is not None:
            dt = min(dt, max_dt)
        dt = min(dt, target - state.time)
        state = step(op, state, dt, k1=r)
        steps += 1
        # a cadence no coarser than the clock's resolution makes every step
        # a new period
        now = (state.time - t0 + tiny) // output_every if output_every > tiny else steps
        if now > periods:
            periods = now
            record(state)

    if out[-1][0] is not state:
        record(state)
    return out


def transform_f_to_g(grid: OmegaGrid, f_values: Sequence[float]) -> SpectrumState:
    """Map a radial density f sampled at the grid radii to g = mho * f * r.

    The origin node is set to zero: r = 0 carries no measure and no
    interactions, and the convention keeps the inverse transform total.
    """
    f = np.asarray(f_values, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} samples, got {f.shape}")
    if np.any(f < 0.0):
        raise ValueError("f must be nonnegative")
    g = grid.mho * f * grid.r
    g[0] = 0.0
    return SpectrumState(g=g, time=0.0, grid=grid)


def transform_g_to_f(state: SpectrumState) -> np.ndarray:
    """Inverse of transform_f_to_g; the origin node maps back to zero."""
    grid = state.grid
    f = np.zeros_like(state.g)
    nz = grid.r > 0.0
    f[nz] = state.g[nz] / (grid.mho[nz] * grid.r[nz])
    return f


def gaussian_bump(
    grid: OmegaGrid,
    center: float,
    width: float,
    amplitude: float,
) -> SpectrumState:
    """Gaussian profile in frequency: g(w) = A exp(-(w - center)^2 / 2 width^2)."""
    if width <= 0.0 or amplitude < 0.0:
        raise ValueError("width must be positive and amplitude nonnegative")
    g = amplitude * np.exp(-0.5 * ((grid.omega - center) / width) ** 2)
    g[0] = 0.0
    return SpectrumState(g=g, time=0.0, grid=grid)


def ring_in_r(
    grid: OmegaGrid,
    r_center: float,
    width: float,
    amplitude: float,
) -> SpectrumState:
    """Gaussian ring in radius, specified on f and transformed to g."""
    if width <= 0.0 or amplitude < 0.0:
        raise ValueError("width must be positive and amplitude nonnegative")
    f = amplitude * np.exp(-0.5 * ((grid.r - r_center) / width) ** 2)
    return transform_f_to_g(grid, f)


def state_from_file(grid: OmegaGrid, path: str) -> SpectrumState:
    """Load g from a text table: either one g column or (omega, g) pairs."""
    data = np.loadtxt(path, dtype=float)
    if data.ndim == 1:
        g = data
    elif data.ndim == 2 and data.shape[1] == 2:
        w, g = data[:, 0], data[:, 1]
        if w.shape != grid.omega.shape or np.max(np.abs(w - grid.omega)) > 1e-9 * grid.h:
            raise ValueError(f"{path}: frequency column does not match the grid")
    else:
        raise ValueError(f"{path}: expected 1 or 2 columns, got shape {data.shape}")
    if g.shape != (grid.n_nodes,):
        raise ValueError(
            f"{path}: expected {grid.n_nodes} values, got {g.shape[0]}"
        )
    return SpectrumState(g=np.array(g, dtype=float), time=0.0, grid=grid)
