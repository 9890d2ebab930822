"""End-to-end acceptance suite.

One test per advertised guarantee.  Each test prints a single PASS/FAIL line
with the measured figures, so a log scan (``pytest -s``) shows the whole
scorecard; the same condition is asserted, so the suite fails loudly too.
Runtime budgets are asserted where they are part of the guarantee.  Criteria
1 and 5-8 run the same check functions as ``wavekin verify-kernel`` and
``wavekin verify-geometry``, on larger samples.
"""

import math
import time

import numpy as np
import pytest

import wavekin.cli as cli
from wavekin import reference
from wavekin import resonance_geometry as geom
from wavekin.cli import (
    check_covering,
    check_expanded_radius,
    check_kernel_forms,
    check_manifold_quadrature,
    check_spreading_root,
    main,
)
from wavekin.collision_kernel import KernelWeights, resonant_quadruple
from wavekin.diagnostics import (
    cascade_report,
    convex_production,
    DiagnosticsConfig,
    production_weights,
    kinked_low_pass,
    quadratic_test,
    shifted_ramp,
    smoothed_low_pass,
)
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    build_kernel_table,
    build_operator,
    evolve,
    gaussian_bump,
    OmegaGrid,
    rhs,
    SpectrumState,
)
from conftest import deposit_scale, random_state, table_rhs


def _verdict(name: str, results) -> None:
    """One PASS/FAIL line for a criterion from its (ok, detail) checks."""
    ok = all(flag for flag, _ in results)
    detail = "; ".join(line.strip() for _, line in results)
    print(f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def tables64():
    """64-node tables and operators for both test dispersions, shared across
    criteria."""
    out = {}
    for alpha in (1.5, 2.0):
        d = DispersionRelation.power_law(alpha)
        grid = OmegaGrid(d, 64, 4.0)
        out[alpha] = (grid, build_kernel_table(KernelWeights(), grid),
                      build_operator(KernelWeights(), grid))
    return out


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


def _criterion_1_checks():
    rng = np.random.default_rng(314159)
    box = rng.uniform(0.1, 5.0, size=(200, 4))
    cone = list(_cone_quadruples(rng, 100))
    for alpha in (1.5, 2.0):
        d = DispersionRelation.power_law(alpha)
        cone.extend(resonant_quadruple(d, rng) for _ in range(50))
    return check_kernel_forms(box, cone, cone + list(_cone_quadruples(rng, 10_000)))


def test_criterion_1_sine_integral_oracle():
    """Four-sine integral: quadrature oracle vs closed forms, under 60 s.

    The eight-term closed form is an identity on all of (0, inf)^4 and is
    checked against the oracle on unrestricted random quadruples.  The
    (pi/4)*min short form holds only where the sorted radii satisfy
    max+min <= mid+mid (every resonant quadruple does), so both oracle and
    closed form are checked against it on that domain.
    """
    t0 = time.monotonic()
    results = _criterion_1_checks()
    elapsed = time.monotonic() - t0
    _verdict("criterion 1 (sine-integral oracle)",
             results + [(elapsed <= 60.0, f"{elapsed:.1f}s of 60s")])


def test_criterion_2_exact_conservation(tables64):
    """Mass and energy rates of the operator vanish to 1e-12 of the deposit
    magnitude, under 30 s; the magnitude is summed over the table's entries."""
    t0 = time.monotonic()
    rng = np.random.default_rng(271828)
    worst_mass = worst_energy = 0.0
    for alpha, (grid, table, op) in tables64.items():
        h = grid.h
        for _ in range(50):
            state = random_state(grid, rng)
            out = rhs(op, state)
            scale = deposit_scale(table, table_rhs(table, state.g)[1])
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
        [(ok, f"mass rate {worst_mass:.2e}, energy rate {worst_energy:.2e} "
              f"relative to deposits (tol 1e-12, 50 states x 2 dispersions, 64 nodes); "
              f"{elapsed:.1f}s of 30s")],
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
        shifted_ramp(0.05),
    ]
    rng = np.random.default_rng(161803)
    worst = 0.0
    for alpha, (grid, _, op) in tables64.items():
        weights = production_weights(op, dict(enumerate(phis)))
        for _ in range(20):
            state = random_state(grid, rng)
            for p, s in convex_production(op, state, weights).values():
                worst = min(worst, p / max(s, 1e-300))
    ok = worst >= -1e-10
    _verdict(
        "criterion 3 (convex production)",
        [(ok, f"most negative normalized production {worst:.2e} "
              f"(tol -1e-10, {len(phis)} test functions x 20 states x 2 dispersions)")],
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
    op = build_operator(KernelWeights(), grid)
    state0 = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0)

    support = np.flatnonzero(state0.g > 1e-3 * state0.g.max())
    R = float(np.percentile(grid.r[support], 25.0))
    delta = float(math.sqrt(grid.omega[4]))
    cfg = DiagnosticsConfig(band_radii=(R,), deltas=(delta,))

    out = evolve(
        op,
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
        [(ok, f"{len(out)} records to t={out[-1][0].time:.1f}; "
              f"band energy below R={R:.3f}: tau {band['kendall_tau']:+.3f} (< -0.8), "
              f"change {band['relative_change']:+.1%} (<= -10%); "
              f"low mass below {delta:.3f} nondecreasing: {low['nondecreasing']}; "
              f"drift mass {report['mass_drift_rel']:.1e} / "
              f"energy {report['energy_drift_rel']:.1e} (tol 1e-10); "
              f"{elapsed:.0f}s of 300s")],
    )


def _criterion_5_checks():
    caps = [(q, N) for q in (0.05, 0.1, 0.2) for N in (10, 44, 100)]
    cones = ((1.0, 0.3), (1.0, 0.8), (2.0, 0.5), (0.5, 0.05), (3.0, 2.9))
    return check_covering(caps, cones, 3.0, (90210, 90210), n_experiments=40)


def test_criterion_5_covering_statistics():
    """Cap coverage and cone volume match Monte-Carlo within 3 sigma."""
    _verdict("criterion 5 (covering statistics)", _criterion_5_checks())


def test_criterion_6_expanded_radius():
    """Expanded radius exceeds R for small r/R and matches its closed form."""
    _verdict("criterion 6 (expanded radius)", check_expanded_radius())


def _criterion_7_checks():
    alphas = [float(a) for a in np.arange(1.1, 1.95, 0.1)]
    return check_spreading_root(alphas, (0.5, 1.0, 2.0))


def test_criterion_7_spreading_root():
    """The spreading root lands in (1,2) with residual <= 1e-10, bracket valid."""
    _verdict("criterion 7 (spreading root)", _criterion_7_checks())


def _criterion_8_checks():
    rng = np.random.default_rng(602214)
    sphere = [(rng.normal(size=3), rng.normal(size=3), rng.uniform(-1.0, 1.0, size=5))
              for _ in range(10)]
    mc = [(np.array([0.9, 0.1, -0.2]), np.array([-0.3, 0.8, 0.5]), (1.0, 0.5, 1.0)),
          (np.array([1.2, 0.0, 0.0]), np.array([0.2, 0.9, -0.4]), (1.0, 0.5, 1.0))]
    return check_manifold_quadrature(sphere, mc, 0.0, 8086, n_batches=8)


def test_criterion_8_manifold_quadrature():
    """Resonance-manifold quadrature vs sphere oracle and mollified-delta MC."""
    _verdict("criterion 8 (manifold quadrature)", _criterion_8_checks())


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
            op = build_operator(kw, grid)
            g = np.exp(-0.5 * ((grid.omega - 1.6) / 0.6) ** 2)
            g[0] = 0.0
            rhs_levels.append(rhs(op, SpectrumState(g=g, time=0.0, grid=grid)))
        idx = np.arange(n)
        e01 = np.mean(np.abs(rhs_levels[0][idx] - rhs_levels[1][2 * idx]))
        e12 = np.mean(np.abs(rhs_levels[1][2 * idx] - rhs_levels[2][4 * idx]))
        ratios[alpha] = float(e01 / e12)
    ok = all(1.5 <= v <= 2.5 for v in ratios.values())
    _verdict(
        "criterion 9 (refinement consistency)",
        [(ok, f"difference ratios h->h/2->h/4: alpha=1.5 -> {ratios[1.5]:.3f}, "
              f"alpha=2.0 -> {ratios[2.0]:.3f} (required in [1.5, 2.5])")],
    )


# Each guarantee's check with the library function it tests broken, in the
# namespace the check reads: (verify command, owner, attribute, mutation,
# prefix of the FAIL lines it must cause, the criterion's checks).
_MUTATIONS = {
    1: ("verify-kernel", cli, "four_sine_closed_form",
        lambda f: lambda *q: f(*q) + 1e-11, "min identity vs closed form",
        _criterion_1_checks),
    5: ("verify-geometry", geom, "cap_coverage_expectation",
        lambda f: lambda q, N: 1.0 - f(q, N), "cap coverage", _criterion_5_checks),
    6: ("verify-geometry", geom, "expanded_radius",
        lambda f: lambda r, R: f(r, R)._replace(value=f(r, R).value + 1e-9),
        "expanded radius", check_expanded_radius),
    7: ("verify-geometry", geom, "digamma_root",
        lambda f: lambda d, R: f(d, R) + 1e-6, "pair-production root",
        _criterion_7_checks),
    8: ("verify-geometry", geom, "manifold_quadrature",
        lambda f: lambda m, g: 1.02 * f(m, g), "manifold quadrature",
        _criterion_8_checks),
}


@pytest.mark.parametrize("criterion", sorted(_MUTATIONS))
def test_a_broken_library_function_fails_the_cli_and_the_criterion(
        criterion, monkeypatch, capsys):
    command, owner, attr, mutate, prefix, criterion_checks = _MUTATIONS[criterion]
    for var in ("WAVEKIN_SEED", "WAVEKIN_OUT"):
        monkeypatch.delenv(var, raising=False)
    # fast fakes for the slow references, from the unbroken functions: the
    # closed form for quadrature, exact values for the Monte-Carlo estimates
    quadrature = geom.manifold_quadrature
    monkeypatch.setattr(cli, "sine_integral_oracle", cli.four_sine_closed_form)
    monkeypatch.setattr(reference, "cap_coverage_mc",
                        lambda q, N, **_: (1.0 - (1.0 - q) ** N, 1e-9))
    monkeypatch.setattr(reference, "vcone_mc", lambda R, rho, **_: [
        (2.0 * math.pi / 3.0 * r * r * (r - p), 1e-9) for r, p in zip(R, rho)])
    monkeypatch.setattr(reference, "mollified_delta_mc", lambda d, k2, k3, f, **_: (
        quadrature(geom.ResonanceManifold(k2, k3, d), f), 1e-9))
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))

    rc = main([command, "--seed", "1"])
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  FAIL  ")]
    assert rc == 1
    assert fails and all(line.startswith("  FAIL  " + prefix) for line in fails), fails
    assert not all(ok for ok, _ in criterion_checks())
