"""Conservative spectral discretization on a uniform frequency grid.

The transformed density g(omega) = mho * f * |k| turns the radial collision
operator into a triple sum with the test-function bracket

    -phi(w) - phi(w1) + phi(w2) + phi(w + w1 - w2).

On a uniform grid w_i = i*h the fourth frequency w_i + w_j - w_l lands exactly
on node m = i + j - l, so each tabulated interaction deposits the conservative
four-point stencil (-rho, -rho, +rho, +rho) at nodes (i, j, l, m) with

    rho = W_ijl * g_i * g_j * g_l * h^2.

Both sum(rhs) and sum(rhs * omega) then cancel identically, term by term:
mass and energy conservation hold to rounding error for any state, with no
quadrature tuning.  Interactions are truncated by whole interaction classes
(see _l_intervals) so the convexity monotonicity of the continuum
operator survives discretization as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from wavekin.dispersion import DispersionRelation, eval_mho, invert_omega
from wavekin.collision_kernel import KernelWeights
from wavekin import diagnostics as _diag

__all__ = [
    "OmegaGrid",
    "SpectrumState",
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
    "MemoryBudgetError",
]

class StiffnessError(RuntimeError):
    """Step-size halving exhausted without restoring nonnegativity."""

    def __init__(self, message: str, state: "SpectrumState"):
        super().__init__(message)
        self.state = state


class ConservationError(RuntimeError):
    """Mass or energy drifted beyond the guaranteed tolerance."""


class MemoryBudgetError(MemoryError):
    """Kernel table would exceed the fixed memory budget, MAX_TABLE_BYTES."""


#: Memory budget of the interaction table's entry arrays.
MAX_TABLE_BYTES = 512 * 2 ** 20


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
        r = np.array([invert_omega(d, w) for w in omega])
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
    and ``mult`` records the multiplicity (2 off the diagonal).  ``coef``
    folds mult * W * h^2 so the right-hand side is a single gather/scatter.
    Ordering is lexicographic in (i, j, l), so rebuilds are bit-identical.
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
    # i at the head of each run of equal consecutive i, and the run lengths;
    # likewise for j.  Derived from i and j, so any entry order is valid; the
    # builder's (i, j, l) order makes the runs long.
    i_heads: np.ndarray = field(init=False, repr=False)
    i_runs: np.ndarray = field(init=False, repr=False)
    j_heads: np.ndarray = field(init=False, repr=False)
    j_runs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for key in ("i", "j"):
            values = np.asarray(getattr(self, key))
            head = np.ones(values.size, dtype=bool)
            np.not_equal(values[1:], values[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            heads, runs = values[starts], np.diff(starts, append=values.size)
            for name, arr in ((key + "_heads", heads), (key + "_runs", runs)):
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def n_entries(self) -> int:
        return int(self.i.size)


def _l_intervals(
    i: int, j: np.ndarray, n: int, band: tuple[int, int],
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


def build_kernel_table(kw: KernelWeights, grid: OmegaGrid) -> KernelTable:
    """Enumerate admissible interaction triples and their kernel weights.

    W_ijl = c_q * mho(r_m) * min(r_i, r_j, r_l, r_m) / (r_i r_j r_l),
    restricted by the radius band [1/n, n) on the three integration indices
    and by whole-class domain truncation (see _l_intervals).  Entries with a
    zero weight (any index at the origin) are pruned.

    Raises MemoryBudgetError, before allocating, if the entry arrays would
    exceed MAX_TABLE_BYTES (512 MiB); counting stops at the first row that
    passes it, so a far oversized grid is rejected after its first rows.
    """
    n = grid.n_nodes
    r = grid.r
    mho = grid.mho
    ncut = kw.cutoff_n
    if math.isfinite(ncut):
        # the grid's radii increase strictly, so the band is an index range
        band = (int(np.searchsorted(r, 1.0 / ncut)),
                int(np.searchsorted(r, ncut)) - 1)
    else:
        band = (1, n - 1)  # the origin node carries no interactions

    # First pass: each row's partners j >= i, their first l and l counts,
    # counted so the budget check precedes allocation.
    rows = []
    count = 0
    for i in range(band[0], band[1] + 1):
        j = np.arange(i, band[1] + 1, dtype=np.int64)
        lo, cnt = _l_intervals(i, j, n, band)
        rows.append((i, j, lo, cnt))
        count += int(cnt.sum())
        bytes_needed = count * (4 * 4 + 8 * 2 + 1 + 8)
        if bytes_needed > MAX_TABLE_BYTES:
            raise MemoryBudgetError(
                f"kernel table needs at least {bytes_needed / 2**20:.0f} MiB for "
                f"the {count} entries counted so far, over the "
                f"{MAX_TABLE_BYTES / 2**20:.0f} MiB budget; reduce n_nodes"
            )

    ii = np.empty(count, dtype=np.int32)
    jj = np.empty(count, dtype=np.int32)
    ll = np.empty(count, dtype=np.int32)
    mm = np.empty(count, dtype=np.int32)
    ww = np.empty(count, dtype=float)
    mu = np.empty(count, dtype=np.int8)

    pos = 0
    for i, j, lo, cnt in rows:
        k = int(cnt.sum())
        # (j, l) order: each pair's l run from lo up
        j_v = np.repeat(j, cnt)
        l_v = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(k)
        m_v = i + j_v - l_v
        # the kernel's min(..., n) needs no cutoff term here: every kept entry
        # has least <= r_i <= r[band[1]] < cutoff_n
        least = np.minimum(np.minimum(r[l_v], r[m_v]), np.minimum(r[i], r[j_v]))
        w_v = kw.c_q * mho[m_v] * least / (r[i] * r[j_v] * r[l_v])
        ii[pos:pos + k] = i
        jj[pos:pos + k] = j_v
        ll[pos:pos + k] = l_v
        mm[pos:pos + k] = m_v
        ww[pos:pos + k] = w_v
        mu[pos:pos + k] = np.where(j_v == i, 1, 2)
        pos += k
    assert pos == count

    coef = ww * mu * grid.h ** 2
    table = KernelTable(grid=grid, kw=kw, i=ii, j=jj, l=ll, m=mm,
                        w=ww, mult=mu, coef=coef)
    for arr in (ii, jj, ll, mm, ww, mu, coef):
        arr.flags.writeable = False
    return table


def _check_same_grid(table: KernelTable, state: SpectrumState) -> None:
    """Reject a state whose grid differs from the table's in nodes or radii.

    Equal radii on equal nodes mean an equal dispersion on the grid, so an
    equal-valued grid object is accepted.
    """
    g1, g2 = state.grid, table.grid
    if g1 is not g2 and (g1.n_nodes != g2.n_nodes or g1.h != g2.h
                         or not np.array_equal(g1.r, g2.r)):
        raise ValueError(
            "state and kernel table live on different grids "
            f"({g1.n_nodes} nodes, h={g1.h:g}, alpha={g1.d.alpha:g} vs "
            f"{g2.n_nodes}, h={g2.h:g}, alpha={g2.d.alpha:g})"
        )


def _deposits(table: KernelTable, g: np.ndarray) -> np.ndarray:
    """rho = coef * g_i * g_j * g_l per table entry, multiplied in that order.

    g_i and g_j are constant along the table's runs of equal i and of equal
    j, so they are gathered once per run and repeated; l varies entry by
    entry.
    """
    rho = table.coef * np.repeat(g[table.i_heads], table.i_runs)
    rho *= np.repeat(g[table.j_heads], table.j_runs)
    rho *= g[table.l]
    return rho


def _rhs_of_g(table: KernelTable, g: np.ndarray, deposits: bool = False):
    """The operator at density g; with ``deposits``, also its rho per entry.

    Each deposit is gained at the l and m ends of its entry and lost at the
    i and j ends.
    """
    rho = _deposits(table, g)
    n = table.grid.n_nodes
    gain_l, gain_m, loss_i, loss_j = (np.bincount(idx, weights=rho, minlength=n)
                                      for idx in (table.l, table.m, table.i, table.j))
    out = gain_l + gain_m - loss_i - loss_j
    return (out, rho) if deposits else out


def rhs(table: KernelTable, state: SpectrumState) -> np.ndarray:
    """Instantaneous dg/dt per node from the four-point interaction stencil."""
    _check_same_grid(table, state)
    return _rhs_of_g(table, state.g)


def step(
    table: KernelTable,
    state: SpectrumState,
    dt: float,
    *,
    k1: Optional[np.ndarray] = None,
) -> SpectrumState:
    """Advance one RK4 step, halving dt (at most 30 times) to keep g >= 0.

    ``k1``, if given, must be ``rhs(table, state)``; it saves that evaluation.
    It does not depend on dt, so every halving reuses it.  The stencil
    conserves mass and energy stage by stage, so any accepted step inherits
    conservation to rounding error regardless of dt.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_same_grid(table, state)

    g0 = state.g
    if k1 is None:
        k1 = _rhs_of_g(table, g0)
    elif np.shape(k1) != g0.shape:
        raise ValueError(f"k1 has shape {np.shape(k1)} for a {g0.size}-node state")
    trial = float(dt)
    for _ in range(31):
        k2 = _rhs_of_g(table, g0 + 0.5 * trial * k1)
        k3 = _rhs_of_g(table, g0 + 0.5 * trial * k2)
        k4 = _rhs_of_g(table, g0 + trial * k3)
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
    table: KernelTable,
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
    end.  The operator is evaluated once per state: that evaluation sets dt,
    is the step's k1 and gives the record its deposits.  Returns a list of (state, record) pairs.  Every record's mass
    and energy are compared with the first record's: ConservationError is
    raised at the first record where either has drifted by more than 1e-10
    relative, and names the quantity, the drift and that record's time.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    if not 0.0 <= output_every < math.inf:
        raise ValueError(f"output_every must be finite and nonnegative, got {output_every}")
    if max_dt is not None and not max_dt > 0.0:
        raise ValueError(f"max_dt must be positive, got {max_dt}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    _check_same_grid(table, state0)
    cfg = diagnostics_config if diagnostics_config is not None else _diag.DiagnosticsConfig()
    brackets = _diag.production_brackets(table, cfg.test_functions)
    out = []

    def record(s: SpectrumState) -> Optional[np.ndarray]:
        """Append the record of s and check its drift from the first record;
        return the operator at s if it was evaluated.

        Convex production needs the operator's deposits at s, so with test
        functions the record evaluates it, and the next step reuses that
        evaluation as its k1.  The deposits are dropped with the record.
        """
        k = rho = None
        if brackets:
            k, rho = _rhs_of_g(table, s.g, deposits=True)
        rec = _diag.make_record(s, cfg, rho, brackets)
        out.append((s, rec))
        first = out[0][1]
        for name, q0, q1 in (("mass", first.mass, rec.mass),
                             ("energy", first.energy, rec.energy)):
            drift = abs(q1 - q0) / max(q0, 1e-300)
            if drift > 1e-10:
                raise ConservationError(
                    f"{name} drifted by {drift:.3e} relative at t={rec.time:g} "
                    f"(tolerance 1e-10)"
                )
        return k

    r = record(state0)
    t0 = state0.time
    target = t0 + t_end
    state = state0
    steps = 0
    tiny = 1e-14 * max(1.0, abs(target))
    periods = 0  # whole output periods from t0 to the last record
    while state.time < target - tiny:
        if max_steps is not None and steps >= max_steps:
            break
        if r is None:
            r = _rhs_of_g(table, state.g)
        if np.any(r):
            # every deposit is cubic in g, so r != 0 implies max(g) > 0
            floor = 1e-3 * float(state.g.max())
            dt = 0.2 / float(np.max(np.abs(r) / np.maximum(state.g, floor)))
        else:
            dt = target - state.time
        if max_dt is not None:
            dt = min(dt, max_dt)
        dt = min(dt, target - state.time)
        state = step(table, state, dt, k1=r)
        steps += 1
        r = None
        # a cadence no coarser than the clock's resolution makes every step
        # a new period
        now = (state.time - t0 + tiny) // output_every if output_every > tiny else steps
        if now > periods:
            periods = now
            r = record(state)

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
