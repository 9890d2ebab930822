"""End-to-end acceptance suite.

One test per advertised guarantee.  Each test prints a single PASS/FAIL line
with the measured figures, so a log scan (``pytest -s``) shows the whole
scorecard; the same condition is asserted, so the suite fails loudly too.
Runtime budgets are asserted where they are part of the guarantee.
"""

import math
import time

import numpy as np
import pytest

from wavekin.collision_kernel import (
    KernelWeights,
    four_sine_closed_form,
    min_identity,
    resonant_quadruple,
    sine_integral_oracle,
)
from wavekin.diagnostics import (
    cascade_report,
    convex_production,
    DiagnosticsConfig,
    kinked_low_pass,
    quadratic_test,
    shifted_ramp,
    smoothed_low_pass,
)
from wavekin.dispersion import DispersionRelation, eval_omega
from wavekin.reference import (
    cap_coverage_mc,
    mollified_delta_mc,
    sphere_manifold_oracle,
    vcone_mc,
)
from wavekin.resonance_geometry import (
    cap_coverage_expectation,
    digamma_root,
    expanded_radius,
    least_covering_caps,
    manifold_quadrature,
    ResonanceManifold,
    vcone,
)
from wavekin.solver import (
    build_kernel_table,
    evolve,
    gaussian_bump,
    OmegaGrid,
    rhs,
    SpectrumState,
)
from wavekin.solver import _rhs_of_g


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def tables64():
    """64-node tables for both test dispersions, shared across criteria."""
    out = {}
    for alpha in (1.5, 2.0):
        d = DispersionRelation.power_law(alpha)
        grid = OmegaGrid(d, 64, 4.0)
        out[alpha] = (grid, build_kernel_table(KernelWeights(), grid))
    return out


def _random_state(grid: OmegaGrid, rng: np.random.Generator) -> SpectrumState:
    g = rng.uniform(0.1, 2.0, size=grid.n_nodes)
    g[0] = 0.0
    return SpectrumState(g=g, time=0.0, grid=grid)


def _cone_quadruples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform quadruples restricted to the domain max+min <= mid+mid.

    That inequality on the sorted radii is exactly where the four-sine
    integral collapses to (pi/4)*min; every resonant quadruple satisfies it.
    Rows are randomly permuted so no argument slot is privileged.
    """
    rows = []
    while len(rows) < count:
        batch = rng.uniform(0.1, 5.0, size=(2 * (count - len(rows)) + 16, 4))
        s = np.sort(batch, axis=1)
        keep = batch[s[:, 3] + s[:, 0] <= s[:, 2] + s[:, 1]]
        rows.extend(keep[: count - len(rows)])
    return rng.permuted(np.array(rows), axis=1)


def test_criterion_1_sine_integral_oracle():
    """Four-sine integral: quadrature oracle vs closed forms, under 60 s.

    The eight-term closed form is an identity on all of (0, inf)^4 and is
    checked against the oracle on unrestricted random quadruples.  The
    (pi/4)*min short form holds only where the sorted radii satisfy
    max+min <= mid+mid (every resonant quadruple does), so both oracle and
    closed form are checked against it on that domain.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(314159)

    box = rng.uniform(0.1, 5.0, size=(200, 4))
    err_closed = max(
        abs(sine_integral_oracle(*q) - four_sine_closed_form(*q)) for q in box
    )

    cone = list(_cone_quadruples(rng, 100))
    for alpha in (1.5, 2.0):
        d = DispersionRelation.power_law(alpha)
        cone.extend(resonant_quadruple(d, rng) for _ in range(50))
    err_min = max(abs(sine_integral_oracle(*q) - min_identity(*q)) for q in cone)

    err_exact = max(
        abs(four_sine_closed_form(*q) - min_identity(*q))
        for q in _cone_quadruples(rng, 10_000)
    )

    elapsed = time.monotonic() - t0
    ok = err_closed <= 1e-3 and err_min <= 1e-3 and err_exact <= 1e-12 and elapsed <= 60.0
    _verdict(
        "criterion 1 (sine-integral oracle)",
        ok,
        f"oracle vs eight-term {err_closed:.2e} (tol 1e-3, 200 box quadruples); "
        f"oracle vs (pi/4)min {err_min:.2e} (tol 1e-3, 200 on-domain); "
        f"eight-term vs (pi/4)min {err_exact:.2e} (tol 1e-12, 10^4 on-domain); "
        f"{elapsed:.1f}s of 60s",
    )


def test_criterion_2_exact_conservation(tables64):
    """Mass and energy rates vanish to 1e-12 of the deposit magnitude, under 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(271828)
    worst_mass = worst_energy = 0.0
    for alpha, (grid, table) in tables64.items():
        h = grid.h
        for _ in range(50):
            state = _random_state(grid, rng)
            out, rho = _rhs_of_g(table, state.g, deposits=True)
            scale = sum(np.bincount(idx, weights=rho, minlength=grid.n_nodes)
                        for idx in (table.l, table.m, table.i, table.j))
            mass_scale = h * float(np.sum(scale))
            energy_scale = h * float(np.sum(grid.omega * scale))
            worst_mass = max(worst_mass, abs(h * float(np.sum(out))) / mass_scale)
            worst_energy = max(
                worst_energy, abs(h * float(np.sum(grid.omega * out))) / energy_scale
            )
    elapsed = time.monotonic() - t0
    ok = worst_mass <= 1e-12 and worst_energy <= 1e-12 and elapsed <= 30.0
    _verdict(
        "criterion 2 (exact conservation)",
        ok,
        f"mass rate {worst_mass:.2e}, energy rate {worst_energy:.2e} "
        f"relative to deposits (tol 1e-12, 50 states x 2 dispersions, 64 nodes); "
        f"{elapsed:.1f}s of 30s",
    )


def test_criterion_3_convex_production(tables64):
    """Production of convex test functions is nonnegative to rounding."""
    phis = [kinked_low_pass(c) for c in (0.5, 1.0, 1.8, 2.6, 3.4)]
    phis += [
        smoothed_low_pass(1.0, 0.05),
        smoothed_low_pass(2.0, 0.2),
        quadratic_test(),
        shifted_ramp(1.0),
        shifted_ramp(2.5),
    ]
    rng = np.random.default_rng(161803)
    worst = 0.0
    for alpha, (grid, table) in tables64.items():
        for _ in range(20):
            state = _random_state(grid, rng)
            for phi in phis:
                p, s = convex_production(table, state, phi)
                worst = min(worst, p / max(s, 1e-300))
    ok = worst >= -1e-10
    _verdict(
        "criterion 3 (convex production)",
        ok,
        f"most negative normalized production {worst:.2e} "
        f"(tol -1e-10, 10 test functions x 20 states x 2 dispersions)",
    )


def test_criterion_4_cascade_trend():
    """Gaussian bump cascade at desk scale: 128 nodes, ~10^3 steps, under 5 min.

    Band energy below the 25th-percentile radius of the initial support must
    trend down (Kendall tau < -0.8) by at least 10% after discarding the
    first fifth of the series; mass below the node-4 frequency must never
    decrease; mass and energy must be conserved to 1e-10 throughout.
    """
    t0 = time.monotonic()
    d = DispersionRelation.power_law(2.0)
    grid = OmegaGrid(d, 128, 8.0)
    table = build_kernel_table(KernelWeights(), grid)
    state0 = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0)

    support = np.flatnonzero(state0.g > 1e-3 * state0.g.max())
    R = float(np.percentile(grid.r[support], 25.0))
    delta = float(math.sqrt(grid.omega[4]))
    cfg = DiagnosticsConfig(band_radii=(R,), deltas=(delta,))

    out = evolve(
        table,
        state0,
        t_end=1e9,
        output_every=0.0,
        diagnostics_config=cfg,
        max_steps=1000,
        max_dt=0.02,
    )
    report = cascade_report([rec for _, rec in out], discard_fraction=0.2)
    band = report["band_energy"][f"{R:g}"]
    low = report["low_mass"][f"{delta:g}"]
    elapsed = time.monotonic() - t0

    ok = (
        len(out) >= 1000
        and band["kendall_tau"] < -0.8
        and band["relative_change"] <= -0.10
        and low["nondecreasing"]
        and report["mass_drift_rel"] <= 1e-10
        and report["energy_drift_rel"] <= 1e-10
        and elapsed <= 300.0
    )
    _verdict(
        "criterion 4 (cascade trend)",
        ok,
        f"{len(out)} records to t={out[-1][0].time:.1f}; "
        f"band energy below R={R:.3f}: tau {band['kendall_tau']:+.3f} (< -0.8), "
        f"change {band['relative_change']:+.1%} (<= -10%); "
        f"low mass below {delta:.3f} nondecreasing: {low['nondecreasing']}; "
        f"drift mass {report['mass_drift_rel']:.1e} / "
        f"energy {report['energy_drift_rel']:.1e} (tol 1e-10); "
        f"{elapsed:.0f}s of 300s",
    )


def test_criterion_5_covering_statistics():
    """Cap coverage and cone volume match Monte-Carlo within 3 sigma."""
    worst_z = 0.0
    for q in (0.05, 0.1, 0.2):
        for N in (10, 44, 100):
            mean, se = cap_coverage_mc(q, N, seed=90210)
            # se floors at the estimator granularity: one flipped test point
            # out of 40 experiments x 2000 points moves the mean by 1/80000
            z = abs(mean - cap_coverage_expectation(q, N)) / max(se, 1.0 / 80_000)
            worst_z = max(worst_z, z)

    n44 = least_covering_caps(0.1)
    bounds_ok = n44 == 44 and 0.9**44 < 0.01 <= 0.9**43

    worst_vz = 0.0
    for R, rho in ((1.0, 0.3), (1.0, 0.8), (2.0, 0.5), (0.5, 0.05), (3.0, 2.9)):
        est, se = vcone_mc(R, rho, seed=90210)
        worst_vz = max(worst_vz, abs(est - vcone(R, rho)) / se)

    ok = worst_z <= 3.0 and bounds_ok and worst_vz <= 3.0
    _verdict(
        "criterion 5 (covering statistics)",
        ok,
        f"cap coverage worst {worst_z:.2f} sigma over 9 (q,N) pairs; "
        f"least caps for q=0.1 -> {n44} (expected 44); "
        f"cone volume worst {worst_vz:.2f} sigma over 5 (R,rho) pairs (tol 3)",
    )


def test_criterion_6_expanded_radius():
    """Expanded radius exceeds R for small r/R and matches its closed form."""
    worst_margin = math.inf
    worst_formula = 0.0
    for r in (1e-3, 2e-3, 1e-2, 1e-1):
        value, exceeds = expanded_radius(r, 1.0)
        formula = math.sqrt(1.0 - 45.0 * r * r) + 3.0 * math.sqrt(2.0) * r
        worst_formula = max(worst_formula, abs(value - formula))
        worst_margin = min(worst_margin, value - 1.0)
        if not exceeds:
            worst_margin = min(worst_margin, -math.inf)
    point = expanded_radius(0.1, 1.0).value
    ok = worst_margin > 0.0 and worst_formula <= 1e-12 and abs(point - 1.16588) <= 1e-5
    _verdict(
        "criterion 6 (expanded radius)",
        ok,
        f"min margin over R {worst_margin:.2e} (> 0 for r/R in 1e-3..1e-1); "
        f"closed-form deviation {worst_formula:.2e}; "
        f"value at (0.1, 1) = {point:.7f} (1.16588 +/- 1e-5)",
    )


def test_criterion_7_spreading_root():
    """The spreading root lands in (1,2) with residual <= 1e-10, bracket valid."""
    worst_res = 0.0
    all_in = True
    brackets_ok = True
    for alpha in np.arange(1.1, 1.95, 0.1):
        d = DispersionRelation.power_law(float(alpha))
        for R in (0.5, 1.0, 2.0):
            kappa = R / 2.0
            target = 2.0 * eval_omega(d, R)

            def f(s: float) -> float:
                return eval_omega(d, (1.0 + s) * kappa) + eval_omega(
                    d, (s - 1.0) * kappa
                )

            s0 = digamma_root(d, R)
            all_in = all_in and 1.0 < s0 < 2.0
            worst_res = max(worst_res, abs(f(s0) - target))
            brackets_ok = brackets_ok and f(1.0) < target < f(2.0)
    ok = all_in and worst_res <= 1e-10 and brackets_ok
    _verdict(
        "criterion 7 (spreading root)",
        ok,
        f"all roots in (1,2): {all_in}; worst residual {worst_res:.2e} "
        f"(tol 1e-10, alpha 1.1..1.9 x R in {{0.5,1,2}}); "
        f"brackets straddle target: {brackets_ok}",
    )


def test_criterion_8_manifold_quadrature():
    """Resonance-manifold quadrature vs sphere oracle and mollified-delta MC."""
    rng = np.random.default_rng(602214)
    d2 = DispersionRelation.power_law(2.0)
    worst_rel = 0.0
    for _ in range(10):
        k2 = rng.normal(size=3)
        k3 = rng.normal(size=3)
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        m = ResonanceManifold(k2, k3, d2)
        got = manifold_quadrature(m, lambda u: np.polyval(coeffs[::-1], u))
        want = sphere_manifold_oracle(k2, k3, coeffs)
        worst_rel = max(worst_rel, abs(got - want) / abs(want))

    d15 = DispersionRelation.power_law(1.5)
    worst_mc = 0.0
    pairs = (
        (np.array([0.9, 0.1, -0.2]), np.array([-0.3, 0.8, 0.5])),
        (np.array([1.2, 0.0, 0.0]), np.array([0.2, 0.9, -0.4])),
    )
    for k2, k3 in pairs:
        m = ResonanceManifold(k2, k3, d15)
        quad = manifold_quadrature(m, lambda u: 1.0 + 0.5 * u + u**2)
        mc, se = mollified_delta_mc(
            d15, k2, k3, lambda rx: 1.0 + 0.5 * rx + rx**2,
            n_samples=4_000_000, seed=8086, n_batches=8,
        )
        worst_mc = max(worst_mc, abs(quad - mc) / abs(quad))

    ok = worst_rel <= 1e-6 and worst_mc <= 0.01
    _verdict(
        "criterion 8 (manifold quadrature)",
        ok,
        f"quadratic dispersion vs sphere oracle {worst_rel:.2e} rel "
        f"(tol 1e-6, 10 pairs, quartic integrands); "
        f"alpha=1.5 vs mollified-delta MC {worst_mc:.2%} (tol 1%)",
    )


def test_criterion_9_refinement_consistency():
    """Halving h twice shrinks successive rhs differences by a ratio near 2.

    Grids of n, 2n-1 and 4n-3 nodes at fixed frequency span share every
    coarse node exactly; the mean absolute rhs difference on the shared
    nodes between consecutive refinements must fall by a factor in
    [1.5, 2.5], the signature of first-order convergence on smooth data.
    """
    n, omega_max = 33, 4.0
    ratios = {}
    for alpha in (1.5, 2.0):
        d = DispersionRelation.power_law(alpha)
        kw = KernelWeights()
        rhs_levels = []
        for nn in (n, 2 * n - 1, 4 * n - 3):
            grid = OmegaGrid(d, nn, omega_max)
            table = build_kernel_table(kw, grid)
            g = np.exp(-0.5 * ((grid.omega - 1.6) / 0.6) ** 2)
            g[0] = 0.0
            rhs_levels.append(rhs(table, SpectrumState(g=g, time=0.0, grid=grid)))
        idx = np.arange(n)
        e01 = np.mean(np.abs(rhs_levels[0][idx] - rhs_levels[1][2 * idx]))
        e12 = np.mean(np.abs(rhs_levels[1][2 * idx] - rhs_levels[2][4 * idx]))
        ratios[alpha] = float(e01 / e12)
    ok = all(1.5 <= v <= 2.5 for v in ratios.values())
    _verdict(
        "criterion 9 (refinement consistency)",
        ok,
        f"difference ratios h->h/2->h/4: alpha=1.5 -> {ratios[1.5]:.3f}, "
        f"alpha=2.0 -> {ratios[2.0]:.3f} (required in [1.5, 2.5])",
    )
