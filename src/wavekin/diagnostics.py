"""Runtime functionals: conserved quantities, convex production, cascade trends.

Everything here is a pure read-only functional of a spectrum state or of a
time series of diagnostic records.  The headline check is
:func:`convex_production`: the discrete interaction stencil evaluated against
a convex test function is nonnegative, mirroring the monotonicity of the
continuum operator.  It is sum Delta * (Omega^A + Omega^C - Omega^B) over the
collision operator's rows, with weights Delta >= 0 from phi's second
differences and region masses Omega >= 0 (solver._region_masses), so its sign
is exact up to rounding of its scale, and a materially negative value always
indicates a solver defect rather than physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from wavekin import solver as _solver

__all__ = [
    "DiagnosticsConfig",
    "DiagnosticsRecord",
    "mass",
    "energy",
    "band_energy",
    "low_mass",
    "relative_drift",
    "convex_production",
    "production_weights",
    "make_record",
    "cascade_report",
    "kinked_low_pass",
    "smoothed_low_pass",
    "kinked_band_cap",
    "quadratic_test",
    "shifted_ramp",
    "test_function_registry",
]


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What to record along an evolution."""

    band_radii: Tuple[float, ...] = ()
    deltas: Tuple[float, ...] = ()
    test_functions: Mapping[str, Callable[[np.ndarray], np.ndarray]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    mass: float
    energy: float
    band_energy: Dict[float, float]
    low_mass: Dict[float, float]
    convex_production: Dict[str, float]


def mass(state) -> float:
    """Total density: rectangle-rule sum h * sum(g)."""
    return float(np.sum(state.g) * state.grid.h)


def energy(state) -> float:
    """Total energy: h * sum(g * omega)."""
    return float(np.sum(state.g * state.grid.omega) * state.grid.h)


def band_energy(state, R: float) -> float:
    """Energy carried by nodes with radius at most R."""
    if not R > 0.0:
        raise ValueError(f"band radius must be positive, got {R}")
    grid = state.grid
    sel = grid.r <= R
    return float(np.sum(state.g[sel] * grid.omega[sel]) * grid.h)


def low_mass(state, delta: float) -> float:
    """Density carried by nodes with frequency at most delta**2."""
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    grid = state.grid
    sel = grid.omega <= delta * delta
    return float(np.sum(state.g[sel]) * grid.h)


def relative_drift(q0: float, q) -> float:
    """The largest |q - q0| / q0 over the values q (one or an array): how far
    a conserved quantity drifted from its first value q0."""
    return float(np.max(np.abs(np.subtract(q, q0))) / max(q0, 1e-300))


def _second_differences(grid, phi: Callable) -> np.ndarray:
    """D: phi's second differences at nodes 1..n-2, or 0 where they are
    within the rounding of phi's values (so a piecewise-linear phi has D
    exactly 0 off its kinks); rejects non-convex phi."""
    phi_vals = np.asarray(phi(grid.omega), dtype=float)
    if phi_vals.shape != grid.omega.shape:
        raise ValueError("phi must map the frequency grid to one value per node")
    if not np.all(np.isfinite(phi_vals)):
        # a NaN second difference would pass the convexity test below
        raise ValueError("test function is not finite on the grid")
    a = np.abs(phi_vals)
    second = phi_vals[:-2] + phi_vals[2:] - 2.0 * phi_vals[1:-1]
    worst = float(np.min(second, initial=0.0)) / max(1.0, float(np.max(a)))
    if worst < -1e-10:
        raise ValueError(
            f"test function is not convex on the grid (second difference "
            f"{worst:.3e} of scale); refusing to report a sign"
        )
    return np.where(second > 2.0 ** -50 * (a[:-2] + a[2:] + 2.0 * a[1:-1]), second, 0.0)


def production_weights(op, test_functions: Mapping[str, Callable]) -> Dict[str, np.ndarray]:
    """The bracket weights Delta of each (convex) test function on op's
    production cells, built once and reused for every state.

    Non-convex phi is rejected, so that a negative production can only ever
    mean a broken operator.
    """
    return {name: _solver._bracket_weights(op, _second_differences(op.grid, phi))
            for name, phi in test_functions.items()}


def convex_production(op, state, weights: Mapping[str, np.ndarray]
                      ) -> Dict[str, Tuple[float, float]]:
    """Production of the functional sum(g * phi(omega)), and its scale, for
    each test function's ``weights`` (from production_weights).

    The production is the sum over interactions of
    mult * W * g_i g_j g_l * h^3 * [phi_l + phi_m - phi_i - phi_j], and the
    scale the same sum with each bracket's magnitude, the tolerance scale
    for its sign; both come from one evaluation of the region masses, added
    up block by block of their rows.  For affine phi every weight, and so
    the production, is exactly 0.
    """
    _solver._check_same_grid(op, state)
    sums = {name: [0.0, 0.0] for name in weights}
    for cells, outward, inward in _solver._region_masses(op, state.g):
        net, total = outward - inward, outward + inward
        for name, d in weights.items():
            sums[name][0] += float(np.sum(d[cells] * net))
            sums[name][1] += float(np.sum(d[cells] * total))
        del net, total  # before the next block's masses
    return {name: (p, scale) for name, (p, scale) in sums.items()}


def make_record(state, cfg: DiagnosticsConfig, op,
                weights: Mapping[str, np.ndarray]) -> DiagnosticsRecord:
    """Diagnostics of one state.

    ``weights`` (from production_weights(op, cfg.test_functions)) give the
    convex production of each test function.
    """
    production = convex_production(op, state, weights) if weights else {}
    return DiagnosticsRecord(
        time=state.time,
        mass=mass(state),
        energy=energy(state),
        band_energy={float(R): band_energy(state, R) for R in cfg.band_radii},
        low_mass={float(dd): low_mass(state, dd) for dd in cfg.deltas},
        convex_production={name: p for name, (p, _) in production.items()},
    )


# --- convex test functions -------------------------------------------------

def kinked_low_pass(c: float) -> Callable:
    """phi(w) = max(c - w, 0): convex with a kink at w = c."""
    def phi(w):
        return np.maximum(c - np.asarray(w, dtype=float), 0.0)
    return phi


def smoothed_low_pass(c: float, eps: float = 0.05) -> Callable:
    """C-infinity softplus version of max(c - w, 0), still convex."""
    if eps <= 0.0:
        raise ValueError("smoothing width must be positive")
    def phi(w):
        z = (c - np.asarray(w, dtype=float)) / eps
        # log1p(exp(z)) without overflow for large z
        return eps * (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    return phi


def kinked_band_cap(theta: float) -> Callable:
    """phi(w) = max(1 - theta * w, 0), the capped low-frequency weight."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    def phi(w):
        return np.maximum(1.0 - theta * np.asarray(w, dtype=float), 0.0)
    return phi


def quadratic_test() -> Callable:
    def phi(w):
        w = np.asarray(w, dtype=float)
        return w * w
    return phi


def shifted_ramp(c: float) -> Callable:
    """phi(w) = max(w - c, 0)."""
    def phi(w):
        return np.maximum(np.asarray(w, dtype=float) - c, 0.0)
    return phi


def test_function_registry(ids: Iterable[str]) -> Dict[str, Callable]:
    """Build test functions from compact ids like 'low_pass:0.5' or 'quadratic'.

    Supported forms: low_pass:C, smooth_low_pass:C[:EPS], band_cap:THETA,
    ramp:C, quadratic.
    """
    builders = {"low_pass": (kinked_low_pass, 1, 1),
                "smooth_low_pass": (smoothed_low_pass, 1, 2),
                "band_cap": (kinked_band_cap, 1, 1), "ramp": (shifted_ramp, 1, 1),
                "quadratic": (quadratic_test, 0, 0)}
    out: Dict[str, Callable] = {}
    for ident in ids:
        name, *args = str(ident).split(":")
        try:
            build, lo, hi = builders[name]
            if not lo <= len(args) <= hi:
                raise ValueError(f"expected {lo}..{hi} arguments")
            params = [float(a) for a in args]
            if not np.all(np.isfinite(params)):
                raise ValueError("arguments must be finite")
            out[ident] = build(*params)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"unrecognized test-function id {ident!r}") from exc
    return out


# --- trend reporting ---------------------------------------------------------

def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of paired samples, from exact integer pair counts.

    Discordant pairs are the strict inversions of y once the pairs are
    ordered by x (ties by y), counted by bottom-up merging in O(n log n) time
    and O(n) memory (Knight, JASA 61, 1966).  The value is the same
    expression as scipy.stats.kendalltau's and equals it bit for bit.  An
    undefined tau (NaN input, or every x or every y tied) is reported as 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2 or np.isnan(x).any() or np.isnan(y).any():
        return 0.0

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    xr = np.cumsum(np.r_[True, xs[1:] != xs[:-1]])
    yr = np.unique(ys, return_inverse=True)[1].astype(np.int64) + 1

    # s holds the y ranks sorted within blocks of `width`; each pass counts,
    # for every element of a right block, the greater elements of its left
    # neighbour, then merges the pair (keys block * (n + 1) + rank keep the
    # blocks apart, and a stable sort of two sorted runs is a merge)
    dis = 0
    s = yr
    pos = np.arange(n)
    width = 1
    while width < n:
        block = pos // (2 * width)
        keys = block * (n + 1) + s
        right = (pos // width) % 2 == 1
        left_keys = keys[~right]
        above = (block[right] + 1) * width - np.searchsorted(
            left_keys, keys[right], side="right")
        dis += int(above.sum())
        s = np.sort(keys, kind="stable") - block * (n + 1)
        width *= 2

    def tied_pairs(counts: np.ndarray) -> int:
        return int((counts * (counts - 1) // 2).sum())

    joint = np.r_[True, (xr[1:] != xr[:-1]) | (ys[1:] != ys[:-1]), True]
    ntie = tied_pairs(np.diff(np.flatnonzero(joint)))
    xtie = tied_pairs(np.bincount(xr))
    ytie = tied_pairs(np.bincount(yr))
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return 0.0
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _trend(times: np.ndarray, values: np.ndarray) -> Dict[str, float]:
    """Kendall tau and relative total change of a scalar time series."""
    # a series flat to within rounding of its own size gets tau = 0, as tau
    # would only rank the rounding noise
    if values.size < 2 or (np.max(np.abs(values - values[0]))
                           <= 1e-12 * np.max(np.abs(values))):
        tau = 0.0
    else:
        tau = _kendall_tau_b(times, values)
    first = float(values[0])
    last = float(values[-1])
    denom = max(abs(first), 1e-300)
    return {
        "first": first,
        "last": last,
        "kendall_tau": tau,
        "relative_change": (last - first) / denom,
    }


def cascade_report(
    series: Sequence[DiagnosticsRecord],
    discard_fraction: float = 0.2,
) -> Dict:
    """Trend summary of a diagnostics series, as a JSON-ready dict.

    The leading ``discard_fraction`` of the records is treated as transient
    and excluded from the trend statistics (the asymptotic statements say
    nothing about early times).  Reported per band radius: Kendall tau and
    total relative change of the band energy.  Reported per delta: the same
    for the low-frequency density, plus the fraction of total density below
    the threshold (the concentration surrogate).
    """
    records = list(series)
    if not records:
        raise ValueError("cascade_report needs a nonempty series")
    if not 0.0 <= discard_fraction < 1.0:
        raise ValueError(f"discard_fraction must be in [0, 1), got {discard_fraction}")

    start = int(len(records) * discard_fraction)
    kept = records[start:]
    times = np.array([rec.time for rec in kept])

    masses = np.array([rec.mass for rec in kept])

    report: Dict = {
        "n_records": len(records),
        "n_used": len(kept),
        "discard_fraction": discard_fraction,
        "t_start": float(records[0].time),
        "t_end": float(records[-1].time),
        "mass_drift_rel": relative_drift(records[0].mass, [rec.mass for rec in records]),
        "energy_drift_rel": relative_drift(records[0].energy, [rec.energy for rec in records]),
        "band_energy": {},
        "low_mass": {},
    }

    for R in kept[0].band_energy:
        vals = np.array([rec.band_energy[R] for rec in kept])
        entry = _trend(times, vals)
        entry["decreasing"] = bool(entry["kendall_tau"] < 0.0
                                   and entry["relative_change"] < 0.0)
        report["band_energy"][f"{R:g}"] = entry

    for dd in kept[0].low_mass:
        vals = np.array([rec.low_mass[dd] for rec in kept])
        entry = _trend(times, vals)
        tolerance = 1e-12 * max(masses.max(), 1e-300)
        entry["nondecreasing"] = bool(np.all(np.diff(vals) >= -tolerance))
        frac = vals / np.maximum(masses, 1e-300)
        entry["mass_fraction_first"] = float(frac[0])
        entry["mass_fraction_last"] = float(frac[-1])
        report["low_mass"][f"{dd:g}"] = entry

    prod_names = kept[0].convex_production.keys()
    if prod_names:
        report["convex_production_min"] = {
            name: float(min(rec.convex_production[name] for rec in kept))
            for name in prod_names
        }
    return report
