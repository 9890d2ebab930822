"""Conserved functionals, band/low-frequency observables, convex production,
and the cascade trend report.

convex_production is cross-checked against the entry-by-entry sum over the
kernel table (conftest.table_production) and against the chain-rule
identity d/dt sum(phi * g * h) = sum(phi * rhs * h): all three are the same
bilinear form written in different orders, so they must agree to rounding.
"""

import math
import time

import numpy as np
import pytest

from conftest import production, random_state, table_production
from wavekin.diagnostics import (
    DiagnosticsConfig,
    band_energy,
    cascade_report,
    convex_production,
    DiagnosticsRecord,
    energy,
    kinked_band_cap,
    kinked_low_pass,
    low_mass,
    make_record,
    mass,
    production_weights,
    quadratic_test,
    shifted_ramp,
    smoothed_low_pass,
)
from wavekin.diagnostics import _kendall_tau_b
from wavekin.diagnostics import test_function_registry as registry
from wavekin.collision_kernel import KernelWeights
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    OmegaGrid,
    SpectrumState,
    build_kernel_table,
    build_operator,
    gaussian_bump,
    rhs,
)


class TestScalars:
    def test_single_node_mass_and_energy(self, d_quad):
        # h = 0.5, node 5 carries g = 2 at omega = 2.5
        grid = OmegaGrid(d_quad, 11, 5.0)
        g = np.zeros(11)
        g[5] = 2.0
        s = SpectrumState(g=g, time=0.0, grid=grid)
        assert mass(s) == pytest.approx(1.0, rel=1e-15)
        assert energy(s) == pytest.approx(2.5, rel=1e-15)

    def test_band_energy_orders_with_radius(self, grid32_quad):
        s = SpectrumState(
            g=np.exp(-0.5 * ((grid32_quad.r - 1.5) / 0.3) ** 2),
            time=0.0,
            grid=grid32_quad,
        )
        e_small = band_energy(s, 1.0)
        e_big = band_energy(s, 1.9)
        assert 0.0 <= e_small < e_big
        assert band_energy(s, 1e6) == pytest.approx(energy(s), rel=1e-15)

    def test_band_energy_validates_radius(self, grid8_quad):
        s = SpectrumState(g=np.ones(8), time=0.0, grid=grid8_quad)
        with pytest.raises(ValueError):
            band_energy(s, 0.0)

    def test_low_mass_threshold_is_delta_squared(self, d_quad):
        grid = OmegaGrid(d_quad, 5, 4.0)  # omega = 0, 1, 2, 3, 4
        s = SpectrumState(g=np.ones(5), time=0.0, grid=grid)
        # delta = 1.4 -> threshold 1.96: nodes 0 and 1 -> 2 * h
        assert low_mass(s, 1.4) == pytest.approx(2.0, rel=1e-15)
        assert low_mass(s, 2.0) == pytest.approx(5.0, rel=1e-15)
        assert low_mass(s, 0.0) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError):
            low_mass(s, -0.1)


class TestConvexProduction:
    def test_affine_is_exactly_zero(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(31)
        s = random_state(grid8_mid, rng)
        for phi in (lambda w: np.full_like(np.asarray(w, float), 3.0),
                    lambda w: 2.0 * np.asarray(w, float) - 1.0):
            # the second differences vanish node by node on the h = 1 grid
            assert production(op8_mid, s, phi)[0] == 0.0

    @pytest.mark.parametrize("which", ["quad", "mid"])
    def test_nonnegative_for_convex_functions(self, which, request):
        op = request.getfixturevalue(f"op8_{which}")
        rng = np.random.default_rng(43)
        phis = [
            kinked_low_pass(2.5),
            smoothed_low_pass(3.0),
            kinked_band_cap(0.4),
            quadratic_test(),
            shifted_ramp(1.5),
        ]
        # concentrated bumps pin the per-entry formula: h * <phi, rhs> on
        # them dips below -1e-10 of the scale through cancellation
        states = [random_state(op.grid, rng) for _ in range(5)]
        states += [gaussian_bump(op.grid, c, 0.3, 1.0) for c in (1.0, 4.0, 6.0)]
        for s in states:
            for phi in phis:
                prod, scale = production(op, s, phi)
                assert prod >= -1e-10 * max(scale, 1e-300)

    def test_nonnegative_for_a_ramp_kinked_below_node_1(self):
        # criterion 3's grids and states; ramp:0.05 is affine on nodes >= 1,
        # so its per-entry brackets are rounding noise of either sign
        phi = registry(["ramp:0.05"])["ramp:0.05"]
        rng = np.random.default_rng(161803)
        worst = 0.0
        for alpha in (1.5, 2.0):
            grid = OmegaGrid(DispersionRelation.power_law(alpha), 64, 4.0)
            op = build_operator(KernelWeights(), grid)
            for _ in range(20):
                prod, scale = production(op, random_state(grid, rng), phi)
                worst = min(worst, prod / max(scale, 1e-300))
        assert worst >= -1e-10

    @pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_matches_the_table_oracle(self, alpha, cutoff_n):
        # random, bump and bump-over-floor states: agreement to 1e-12 of the
        # scale beyond the oracle's floor, the rounding of phi's values in
        # its per-entry brackets
        grid = OmegaGrid(DispersionRelation.power_law(alpha), 40, 4.0)
        kw = KernelWeights(cutoff_n=cutoff_n)
        op, table = build_operator(kw, grid), build_kernel_table(kw, grid)
        weights = production_weights(op, registry(
            ["low_pass:0.5", "low_pass:1.8", "smooth_low_pass:1.0:0.05", "band_cap:0.4",
             "quadratic", "ramp:1.0", "ramp:0.05", "ramp:2.5"]))
        rng = np.random.default_rng(2)
        states = [random_state(grid, rng).g for _ in range(4)]
        states += [gaussian_bump(grid, c, 0.2, 1.0).g for c in (0.5, 2.0, 3.5)]
        for _ in range(4):
            g = np.full(40, 10.0 ** rng.uniform(-60.0, -5.0))
            g[rng.integers(1, 40, 5)] = 1.0
            states.append(g)
        for g in states:
            g[0] = 0.0
            s = SpectrumState(g=g, time=0.0, grid=grid)
            for name, (prod, scale) in convex_production(op, s, weights).items():
                want, want_scale, floor = table_production(
                    table, g, registry([name])[name](grid.omega))
                assert prod >= 0.0, name
                assert abs(prod - want) <= 1e-12 * want_scale + floor, name
                assert abs(scale - want_scale) <= 1e-12 * want_scale + floor, name

    def test_matches_chain_rule_identity(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(5)
        s = random_state(grid8_mid, rng)
        phi = quadratic_test()
        expected = float(np.sum(phi(grid8_mid.omega) * rhs(op8_mid, s)) * grid8_mid.h)
        got = production(op8_mid, s, phi)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonconvex_function(self, op8_quad, grid8_quad):
        s = SpectrumState(g=np.ones(8), time=0.0, grid=grid8_quad)
        with pytest.raises(ValueError, match="not convex"):
            production(op8_quad, s, lambda w: np.sin(np.asarray(w, float)))
        # NaN second differences would pass the convexity test
        for phi in (kinked_low_pass(np.nan), shifted_ramp(-np.inf)):
            with pytest.raises(ValueError, match="not finite"):
                production(op8_quad, s, phi)

    def test_phi_must_return_grid_shaped_values(self, op8_quad, grid8_quad):
        s = SpectrumState(g=np.ones(8), time=0.0, grid=grid8_quad)
        with pytest.raises(ValueError, match="one value per node"):
            production(op8_quad, s, lambda w: 1.0)


class TestTestFunctions:
    def test_kinked_low_pass_values(self):
        phi = kinked_low_pass(2.0)
        assert np.array_equal(phi(np.array([0.0, 1.0, 2.0, 5.0])), [2.0, 1.0, 0.0, 0.0])

    def test_smoothed_low_pass_approximates_kink(self):
        w = np.linspace(0.0, 4.0, 200)
        hard = kinked_low_pass(2.0)(w)
        soft = smoothed_low_pass(2.0, eps=0.01)(w)
        assert np.max(np.abs(hard - soft)) < 0.01
        assert np.all(np.diff(soft, 2) >= -1e-12)  # still convex

    def test_band_cap_values(self):
        phi = kinked_band_cap(0.5)
        assert np.array_equal(phi(np.array([0.0, 1.0, 2.0, 4.0])), [1.0, 0.5, 0.0, 0.0])

    def test_ramp_and_quadratic(self):
        assert np.array_equal(shifted_ramp(1.0)(np.array([0.5, 2.5])), [0.0, 1.5])
        assert np.array_equal(quadratic_test()(np.array([3.0])), [9.0])

    def test_registry_parses_ids(self):
        reg = registry(
            ["low_pass:2.0", "smooth_low_pass:1.5:0.1", "band_cap:0.7",
             "ramp:1.2", "quadratic"]
        )
        assert set(reg) == {"low_pass:2.0", "smooth_low_pass:1.5:0.1",
                            "band_cap:0.7", "ramp:1.2", "quadratic"}
        assert reg["low_pass:2.0"](np.array([0.5]))[0] == 1.5

    @pytest.mark.parametrize("bad", ["low_pass", "gauss:1.0", "quadratic:2:3:4x",
                                     "band_cap:zero", "low_pass:nan", "band_cap:inf",
                                     "ramp:-inf"])
    def test_registry_rejects_bad_ids(self, bad):
        with pytest.raises(ValueError, match="test-function id"):
            registry([bad])


class TestRecords:
    def test_make_record_fields(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(9)
        s = random_state(grid8_mid, rng)
        cfg = DiagnosticsConfig(
            band_radii=(1.0, 2.0),
            deltas=(0.5,),
            test_functions=registry(["quadratic"]),
        )
        rec = make_record(s, cfg, op8_mid, production_weights(op8_mid, cfg.test_functions))
        assert rec.time == 0.0
        assert set(rec.band_energy) == {1.0, 2.0}
        assert set(rec.low_mass) == {0.5}
        assert rec.convex_production == {
            "quadratic": production(op8_mid, s, quadratic_test())[0]}


def _records(times, masses, energies, band, low):
    out = []
    for k, t in enumerate(times):
        out.append(DiagnosticsRecord(
            time=float(t),
            mass=float(masses[k]),
            energy=float(energies[k]),
            band_energy={1.0: float(band[k])},
            low_mass={0.5: float(low[k])},
            convex_production={"quadratic": 0.01 * k},
        ))
    return out


class TestCascadeReport:
    def test_monotone_series(self):
        t = np.linspace(0.0, 1.0, 21)
        # the trend must not depend on the series' units: at scale 1e-9 the
        # band energy decays from 1e-9 to 5e-10
        for scale in (1.0, 1e-9):
            recs = _records(t, np.ones(21), np.ones(21), band=scale * (1.0 - 0.5 * t),
                            low=scale * (0.1 + 0.2 * t))
            rep = cascade_report(recs)
            assert rep["n_records"] == 21
            assert rep["n_used"] == 17  # 20% transient discarded
            assert rep["mass_drift_rel"] == 0.0
            be = rep["band_energy"]["1"]
            assert be["kendall_tau"] == pytest.approx(-1.0), scale
            assert be["decreasing"] is True
            lm = rep["low_mass"]["0.5"]
            assert lm["kendall_tau"] == pytest.approx(1.0), scale
            assert lm["nondecreasing"] is True
            assert lm["mass_fraction_last"] > lm["mass_fraction_first"]
            assert rep["convex_production_min"]["quadratic"] >= 0.0

    def test_flat_series_has_zero_tau(self):
        t = np.linspace(0.0, 1.0, 10)
        # the second band is flat up to rounding: the noise moves some values
        # by an ulp, which tau must not rank
        for band in (np.ones(10),
                     0.3 * (1.0 + 1e-16 * np.random.default_rng(4).normal(size=10))):
            recs = _records(t, np.ones(10), np.ones(10),
                            band=band, low=np.ones(10))
            rep = cascade_report(recs)
            assert rep["band_energy"]["1"]["kendall_tau"] == 0.0
            assert rep["band_energy"]["1"]["decreasing"] is False

    def test_single_record(self):
        recs = _records([0.0], [1.0], [2.0], [0.5], [0.1])
        rep = cascade_report(recs)
        assert rep["n_used"] == 1
        assert rep["band_energy"]["1"]["kendall_tau"] == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cascade_report([])

    def test_discard_fraction_validated(self):
        recs = _records([0.0], [1.0], [2.0], [0.5], [0.1])
        with pytest.raises(ValueError):
            cascade_report(recs, discard_fraction=1.0)

    def test_drift_measured_over_all_records(self):
        # a mass glitch inside the discarded transient must still be reported
        t = np.linspace(0.0, 1.0, 20)
        masses = np.ones(20)
        masses[1] = 1.5
        recs = _records(t, masses, np.ones(20), band=np.ones(20), low=np.ones(20))
        rep = cascade_report(recs)
        assert rep["mass_drift_rel"] == pytest.approx(0.5)


def _kendall_tau_b_pairwise(x, y) -> float:
    """tau-b from the sign of every pair: the O(n^2) definition.

    Clipped to [-1, 1] like SciPy's, since the two square roots can round
    a perfectly ordered series just past 1.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = x.size
    con = dis = xtie = ytie = 0
    for a in range(n - 1):
        sx = np.sign(x[a + 1:] - x[a])
        sy = np.sign(y[a + 1:] - y[a])
        con += int(np.count_nonzero(sx * sy > 0))
        dis += int(np.count_nonzero(sx * sy < 0))
        xtie += int(np.count_nonzero(sx == 0))
        ytie += int(np.count_nonzero(sy == 0))
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return 0.0
    tau = (con - dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _kendall_cases():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 33, 34, 1001):
        t = np.arange(n, dtype=float)
        yield n, "random", rng.random(n), rng.random(n)
        yield n, "ties_in_x", rng.integers(0, 4, n).astype(float), rng.random(n)
        yield n, "ties_in_y", t, rng.integers(0, 4, n).astype(float)
        yield (n, "ties_in_both", rng.integers(0, 3, n).astype(float),
               rng.integers(0, 3, n).astype(float))
        yield n, "plateaus", t, np.floor(np.linspace(0.0, 4.0, n))
        yield n, "increasing", t, np.exp(t / n)
        yield n, "decreasing", t, -t
        yield n, "x_all_tied", np.ones(n), rng.random(n)
        yield n, "y_all_tied", t, np.full(n, 3.0)


_CASES = list(_kendall_cases())


class TestKendallTau:
    """The NumPy tau-b against SciPy and against the pairwise definition."""

    @pytest.mark.parametrize("n, kind, x, y", _CASES,
                             ids=[f"{kind}-{n}" for n, kind, _, _ in _CASES])
    def test_matches_scipy_and_pairwise(self, n, kind, x, y):
        from scipy import stats

        got = _kendall_tau_b(x, y)
        ref = float(stats.kendalltau(x, y).statistic)
        assert got == (0.0 if math.isnan(ref) else ref)
        assert got == _kendall_tau_b_pairwise(x, y)
        if kind.endswith("all_tied"):
            assert got == 0.0
        if kind in ("increasing", "decreasing"):
            assert got == pytest.approx(1.0 if kind == "increasing" else -1.0, abs=1e-15)

    def test_undefined_inputs_give_zero(self):
        assert _kendall_tau_b([0.0], [1.0]) == 0.0
        assert _kendall_tau_b([0.0, 1.0, 2.0], [1.0, np.nan, 2.0]) == 0.0

    def test_long_series_is_fast(self):
        rng = np.random.default_rng(3)
        n = 100_000
        t = np.arange(n, dtype=float)
        y = np.cumsum(rng.normal(size=n))
        start = time.perf_counter()
        tau = _kendall_tau_b(t, y)
        assert time.perf_counter() - start < 2.0
        assert -1.0 <= tau <= 1.0
