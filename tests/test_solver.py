"""Grid, kernel table, collision operator, and time stepping.

The matrix-free operator is validated against the table's entry-by-entry
sums (conftest.table_rhs) and against an undeduplicated triple-loop oracle
written directly from the four-point stencil; the table weights are
validated entry by entry against the scalar kernel function.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    deposit_scale,
    production,
    random_state,
    stored_layouts,
    table_production,
    table_rhs,
    window_ranges,
)
from wavekin.collision_kernel import DEFAULT_C_Q, KernelWeights, cutoff_kernel
from wavekin import solver
from wavekin.diagnostics import (
    DiagnosticsConfig,
    convex_production,
    kinked_low_pass,
    production_weights,
    quadratic_test,
)
from wavekin.diagnostics import test_function_registry as registry
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    ConservationError,
    KernelTable,
    OmegaGrid,
    SpectrumState,
    StiffnessError,
    build_kernel_table,
    build_operator,
    evolve,
    gaussian_bump,
    rhs,
    ring_in_r,
    state_from_file,
    step,
    transform_f_to_g,
    transform_g_to_f,
)


class TestOmegaGrid:
    def test_uniform_nodes(self, d_quad):
        grid = OmegaGrid(d_quad, 5, 8.0)
        assert grid.h == 2.0
        assert np.array_equal(grid.omega, [0.0, 2.0, 4.0, 6.0, 8.0])
        assert grid.omega_max == 8.0

    def test_radii_strictly_increasing(self, grid8_mid):
        assert grid8_mid.r[0] == 0.0
        assert np.all(np.diff(grid8_mid.r) > 0.0)

    def test_origin_mho_is_zero_even_for_iota_zero(self, d_quad):
        # mho(0) is undefined at iota = 0 but the origin node carries no
        # interactions, so the grid must not evaluate it there
        grid = OmegaGrid(d_quad, 4, 3.0)
        assert grid.mho[0] == 0.0
        assert np.all(grid.mho[1:] == 0.5)

    def test_validation(self, d_quad):
        with pytest.raises(ValueError):
            OmegaGrid(d_quad, 1, 4.0)
        with pytest.raises(ValueError):
            OmegaGrid(d_quad, 8, 0.0)


class TestSpectrumState:
    def test_accepts_lists(self, grid8_quad):
        s = SpectrumState(g=[0.0] * 8, time=0, grid=grid8_quad)
        assert s.g.dtype == float
        assert s.time == 0.0

    def test_shape_mismatch(self, grid8_quad):
        with pytest.raises(ValueError, match="8-node"):
            SpectrumState(g=np.zeros(5), time=0.0, grid=grid8_quad)

    def test_negative_rejected(self, grid8_quad):
        g = np.zeros(8)
        g[3] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            SpectrumState(g=g, time=0.0, grid=grid8_quad)

    def test_nonfinite_rejected(self, grid8_quad):
        g = np.zeros(8)
        g[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SpectrumState(g=g, time=0.0, grid=grid8_quad)


class TestKernelTable:
    def test_weights_match_scalar_kernel(self, table8_mid, d_mid):
        # every table weight must equal c_q times the scalar kernel at the
        # integration frequencies (omega_i, omega_j, omega_l)
        kw = table8_mid.kw
        om = table8_mid.grid.omega
        for k in range(table8_mid.n_entries):
            i, j, l = int(table8_mid.i[k]), int(table8_mid.j[k]), int(table8_mid.l[k])
            expected = kw.c_q * cutoff_kernel(kw, d_mid, om[i], om[j], om[l])
            assert table8_mid.w[k] == pytest.approx(expected, rel=1e-12), (i, j, l)

    def test_entry_index_invariants(self, table8_quad):
        t = table8_quad
        n = t.grid.n_nodes
        assert np.all(t.i <= t.j)
        assert np.all((t.i >= 1) & (t.j <= n - 1))
        assert np.all((t.l >= 1) & (t.l <= n - 1))
        assert np.all(t.m == t.i + t.j - t.l)
        assert np.all((t.m >= 1) & (t.m <= n - 1))
        assert np.all(np.where(t.i == t.j, t.mult == 1, t.mult == 2))
        assert np.all(t.w > 0.0)
        assert np.allclose(t.coef, t.w * t.mult * t.grid.h ** 2, rtol=1e-15)

    def test_whole_classes_retained(self, table8_quad):
        # for each stored triple, the largest partner index of its unordered
        # class must itself be a grid node; partial classes are never stored
        t = table8_quad
        n = t.grid.n_nodes
        for k in range(t.n_entries):
            x, y, z = sorted((int(t.i[k]), int(t.j[k]), int(t.l[k])), reverse=True)
            assert x + y - z <= n - 1

    def test_two_node_grid_single_entry(self, d_quad):
        grid = OmegaGrid(d_quad, 2, 1.0)
        t = build_kernel_table(KernelWeights(), grid)
        assert t.n_entries == 1
        assert (int(t.i[0]), int(t.j[0]), int(t.l[0]), int(t.m[0])) == (1, 1, 1, 1)
        # all radii equal 1: w = c_q * mho(1) * 1 / 1 = c_q / 2
        assert t.w[0] == pytest.approx(DEFAULT_C_Q * 0.5, rel=1e-12)

    def test_band_can_empty_the_table(self, d_quad):
        # radii {sqrt(2), 2} all fall outside [1/1.2, 1.2)
        grid = OmegaGrid(d_quad, 3, 4.0)
        t = build_kernel_table(KernelWeights(cutoff_n=1.2), grid)
        op = build_operator(KernelWeights(cutoff_n=1.2), grid)
        assert t.n_entries == op.n_entries == 0
        s = SpectrumState(g=np.array([0.0, 1.0, 1.0]), time=0.0, grid=grid)
        assert np.array_equal(rhs(op, s), np.zeros(3))

    def test_rebuild_is_deterministic(self, grid8_mid):
        a = build_kernel_table(KernelWeights(), grid8_mid)
        b = build_kernel_table(KernelWeights(), grid8_mid)
        for name in ("i", "j", "l", "m", "w", "mult", "coef"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_each_row_intervals_computed_once(self, monkeypatch):
        d = DispersionRelation.power_law(1.5)
        grid = OmegaGrid(d, 64, 8.0)
        kw = KernelWeights(cutoff_n=3.0)
        want = _table_by_double_loop(kw, grid)
        calls = []

        def counted(*args):
            calls.append(args[0])
            return l_intervals(*args)

        l_intervals = solver._l_intervals
        monkeypatch.setattr(solver, "_l_intervals", counted)
        table = build_kernel_table(kw, grid)
        band_rows = np.flatnonzero((grid.r >= 1.0 / 3.0) & (grid.r < 3.0))
        assert 0 < band_rows.size < 63
        assert calls == list(band_rows)
        for name, expected in want.items():
            assert np.array_equal(getattr(table, name), expected), name


def _table_by_double_loop(kw, grid):
    """Table columns built pair by pair over (i, j), one l vector per pair.

    The builder's original double loop over a boolean radius-band mask and
    the whole-class test, kept as the oracle for the interval-based
    build_kernel_table: same entries, same order, same floating-point
    expressions.
    """
    n = grid.n_nodes
    r, mho = grid.r, grid.mho
    if math.isfinite(kw.cutoff_n):
        chi = (r >= 1.0 / kw.cutoff_n) & (r < kw.cutoff_n)
    else:
        chi = np.ones(n, dtype=bool)
        chi[0] = False
    l_all = np.arange(1, n, dtype=np.int64)
    cols = {name: [] for name in ("i", "j", "l", "m", "w", "mult")}
    for i in range(1, n):
        if not chi[i]:
            continue
        for j in range(i, n):
            if not chi[j]:
                continue
            m_all = i + j - l_all
            largest = np.where(l_all <= i, m_all, l_all + j - i)
            l_v = l_all[(m_all >= 1) & (largest <= n - 1) & chi[1:]]
            m_v = i + j - l_v
            least = np.minimum(np.minimum(r[l_v], r[m_v]), min(r[i], r[j]))
            if math.isfinite(kw.cutoff_n):
                np.minimum(least, kw.cutoff_n, out=least)
            for name, value in (("i", np.full(l_v.size, i)), ("j", np.full(l_v.size, j)),
                                ("l", l_v), ("m", m_v),
                                ("w", kw.c_q * mho[m_v] * least / (r[i] * r[j] * r[l_v])),
                                ("mult", np.full(l_v.size, 1 if i == j else 2))):
                cols[name].append(value)
    out = {name: np.concatenate(parts) if parts else np.empty(0)
           for name, parts in cols.items()}
    out["coef"] = out["w"] * out["mult"].astype(np.int8) * grid.h ** 2
    return out


@pytest.mark.parametrize("n_nodes", [2, 3, 8, 33, 64])
@pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_table_matches_double_loop_oracle(alpha, cutoff_n, n_nodes):
    d = DispersionRelation.power_law(alpha)
    grid = OmegaGrid(d, n_nodes, 8.0)
    kw = KernelWeights(cutoff_n=cutoff_n)
    table = build_kernel_table(kw, grid)
    want = _table_by_double_loop(kw, grid)
    assert table.n_entries == want["i"].size
    # (i, i, i) is admissible for every node in the band, so only a band
    # that holds no node may leave the table empty
    in_band = (grid.r[1:] >= 1.0 / cutoff_n) & (grid.r[1:] < cutoff_n)
    assert (table.n_entries > 0) == bool(in_band.any())
    for name, expected in want.items():
        assert np.array_equal(getattr(table, name), expected), name


def _rhs_brute_force(grid, kw, g):
    """Undeduplicated oracle: loop over every ordered integration triple."""
    n = grid.n_nodes
    r, mho, h = grid.r, grid.mho, grid.h
    out = np.zeros(n)
    for i in range(1, n):
        for j in range(1, n):
            for l in range(1, n):
                m = i + j - l
                if m < 1:
                    continue
                x, y, z = sorted((i, j, l), reverse=True)
                if x + y - z > n - 1:
                    continue
                w = kw.c_q * mho[m] * min(r[i], r[j], r[l], r[m]) / (r[i] * r[j] * r[l])
                rho = w * g[i] * g[j] * g[l] * h * h
                out[i] -= rho
                out[j] -= rho
                out[l] += rho
                out[m] += rho
    return out


def _worst_oracle_gap(op, table, g):
    """Largest |operator - table oracle| over the node's deposit scale; a
    node no deposit touches must get exactly 0."""
    want, rho = table_rhs(table, g)
    scale = deposit_scale(table, rho)
    got = solver._rhs_of_g(op, g)
    assert np.all(got[scale == 0.0] == 0.0)
    touched = scale > 0.0
    return float(np.max(np.abs(got - want)[touched] / scale[touched], initial=0.0))


class TestCollisionOperator:
    """The O(n^2) operator against the entry-by-entry sums over the table."""

    @pytest.mark.parametrize("n_nodes", [24, 64, 128])
    @pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_matches_the_table_oracle(self, alpha, cutoff_n, n_nodes):
        grid = OmegaGrid(DispersionRelation.power_law(alpha), n_nodes, 8.0)
        kw = KernelWeights(cutoff_n=cutoff_n)
        op, table = build_operator(kw, grid), build_kernel_table(kw, grid)
        # both range lists enumerate every table entry once
        assert op.n_entries == table.n_entries > 0
        for layout in (op.loss, op.gain):
            ends = [columns[:2] for columns in window_ranges(layout)]
            assert sum(int(np.sum(end - start)) for start, end in ends) == table.n_entries
        rng = np.random.default_rng(1)
        states = [rng.uniform(0.1, 2.0, n_nodes),
                  np.exp(-0.5 * ((grid.omega - 4.0) / 0.6) ** 2),
                  10.0 ** rng.uniform(-12.0, 0.0, n_nodes)]
        for g in states:
            g[0] = 0.0
            assert _worst_oracle_gap(op, table, g) <= 1e-12

    @pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_matches_the_table_oracle_on_bumps_over_a_floor(self, alpha, cutoff_n):
        # a range inside the floor whose prefix holds the bump loses its
        # value to the compensated difference; the certified fallback must
        # catch every such range
        grid = OmegaGrid(DispersionRelation.power_law(alpha), 96, 8.0)
        kw = KernelWeights(cutoff_n=cutoff_n)
        op, table = build_operator(kw, grid), build_kernel_table(kw, grid)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(150):
            g = np.full(96, 10.0 ** rng.uniform(-60.0, -5.0))
            width = int(rng.integers(1, 20))
            start = int(rng.integers(1, 96 - width))
            g[start:start + width] = rng.uniform(0.5, 1.5, width)
            g[0] = 0.0
            worst = max(worst, _worst_oracle_gap(op, table, g))
        assert worst <= 1e-12

    def test_range_sums_are_certified(self):
        # rows spanning 40 decades, against exactly rounded sums
        rng = np.random.default_rng(11)
        terms = 10.0 ** rng.uniform(-40.0, 0.0, (2, 6, 201))
        terms[..., 0] = 0.0
        lo = rng.integers(0, 200, 3000)
        hi = np.minimum(lo + rng.integers(1, 200, 3000), 200)
        row = rng.integers(0, 12, 3000) * 201
        ends = np.stack([row + lo, row + hi]).astype(np.int32)
        got = solver._range_sums(terms, ends)
        flat = terms.ravel()
        want = np.array([math.fsum(flat[a + 1:b + 1]) for a, b in ends.T])
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("n_nodes", [24, 64, 128])
    @pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_block_size_changes_only_rounding(self, alpha, cutoff_n, n_nodes, monkeypatch):
        # one row per block against every row in one block: each range moves
        # to another window, so only the rounding of its prefix sums changes
        grid = OmegaGrid(DispersionRelation.power_law(alpha), n_nodes, 8.0)
        kw = KernelWeights(cutoff_n=cutoff_n)
        table = build_kernel_table(kw, grid)
        ops = []
        for cells in (1, 2 * n_nodes * n_nodes):
            monkeypatch.setattr(solver, "BLOCK_CELLS", cells)
            ops.append(build_operator(kw, grid))
        assert {shape[0] for shape, _, _ in ops[0].loss.windows} == {1}
        assert len(ops[1].gain.windows) == 1
        phis = registry(["low_pass:2.0", "quadratic", "band_cap:0.4"])
        weights = [production_weights(op, phis) for op in ops]
        rng = np.random.default_rng(1)
        states = [rng.uniform(0.1, 2.0, n_nodes),
                  np.exp(-0.5 * ((grid.omega - 4.0) / 0.6) ** 2),
                  10.0 ** rng.uniform(-12.0, 0.0, n_nodes)]
        for g in states:
            g[0] = 0.0
            scale = deposit_scale(table, table_rhs(table, g)[1])
            one_row, all_rows = (solver._rhs_of_g(op, g) for op in ops)
            assert np.all(np.abs(one_row - all_rows) <= 1e-13 * scale)
            assert max(_worst_oracle_gap(op, table, g) for op in ops) <= 1e-12
            state = SpectrumState(g=g, time=0.0, grid=grid)
            one_row, all_rows = (convex_production(op, state, w) for op, w in zip(ops, weights))
            for name, phi in phis.items():
                (p1, s1), (p2, _) = one_row[name], all_rows[name]
                assert abs(p1 - p2) <= 1e-13 * s1, name
                want, want_scale, floor = table_production(table, g, phi(grid.omega))
                for p in (p1, p2):
                    assert abs(p - want) <= 1e-12 * want_scale + floor, name

    def test_first_production_build_at_512_nodes(self, d_quad):
        # building every part's clipped ranges in int64 before compacting any
        # peaked at 124.6 MiB above the operator; int32 parts, compacted one
        # at a time and placed run by run, peak at 64.2 MiB
        grid = OmegaGrid(d_quad, 512, 8.0)
        op = build_operator(KernelWeights(), grid)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            production_weights(op, registry(["low_pass:2.0"]))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 80.0 * 2 ** 20

    def test_working_set_at_512_nodes(self, d_quad):
        # with whole planes, one call peaked at 62.8 MiB and one production
        # call at 93.6 MiB; a window of rows at a time keeps both far lower
        grid = OmegaGrid(d_quad, 512, 8.0)
        op = build_operator(KernelWeights(), grid)
        state = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0)
        weights = production_weights(op, registry(["quadratic"]))
        for call, limit_mib in ((lambda: solver._rhs_of_g(op, state.g), 31.0),
                                (lambda: convex_production(op, state, weights), 46.8)):
            call()  # the first production call sets up its cells
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit_mib * 2 ** 20

    def test_memory_at_1024_nodes(self, d_quad):
        # with every range's ends and output and the pair and cell lists
        # stored, the set-up peaked at 137.4 MiB and one call at 79.9 MiB
        # above it; affine pieces, listed a batch at a time, need 10.0 and
        # 1.5 MiB
        grid = OmegaGrid(d_quad, 1024, 8.0)
        g = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0).g
        tracemalloc.start()
        try:
            op = build_operator(KernelWeights(), grid)
            build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solver._rhs_of_g(op, g)
            call = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert build <= 16.0 * 2 ** 20
        assert call <= 3.0 * 2 ** 20

    @staticmethod
    def _production_peaks(n_nodes, d_quad):
        """The tracemalloc peaks of the first production_weights (low_pass:2.0)
        and of one convex_production call after it, at alpha = 2."""
        grid = OmegaGrid(d_quad, n_nodes, 8.0)
        op = build_operator(KernelWeights(), grid)
        state = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            weights = production_weights(op, registry(["low_pass:2.0"]))
            set_up = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            convex_production(op, state, weights)
            call = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return set_up / 2 ** 20, call / 2 ** 20

    def test_production_memory_at_1024_nodes(self, d_quad):
        # with all rows at once, the set-up peaked at 85.3 MiB and a call
        # at 175.6 MiB, O(#cells) outputs for each of 13 parts; blocks of
        # PRODUCTION_ROWS rows need 16.2 MiB, 8.4 of them the kept weights,
        # and 6.8 MiB
        set_up, call = self._production_peaks(1024, d_quad)
        assert set_up <= 20.0
        assert call <= 10.0

    def test_production_memory_at_128_nodes(self, d_quad):
        # the cascade grid: all rows at once peaked at 3.3 and 2.7 MiB;
        # blocks need 0.99 and 1.38 MiB
        set_up, call = self._production_peaks(128, d_quad)
        assert set_up <= 1.5
        assert call <= 1.5

    @pytest.mark.parametrize("n_nodes", [24, 64, 128])
    @pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
    def test_production_row_blocks_change_only_rounding(self, cutoff_n, n_nodes,
                                                        monkeypatch):
        # one row per block, the default, and every row in one block: only
        # the order of the sums changes
        grid = OmegaGrid(DispersionRelation.power_law(1.5), n_nodes, 8.0)
        kw = KernelWeights(cutoff_n=cutoff_n)
        table = build_kernel_table(kw, grid)
        phis = registry(["low_pass:2.0", "quadratic", "band_cap:0.4"])
        state = gaussian_bump(grid, center=4.0, width=0.6, amplitude=1.0)
        got = []
        for rows in (1, solver.PRODUCTION_ROWS, 2 * n_nodes):
            monkeypatch.setattr(solver, "PRODUCTION_ROWS", rows)
            op = build_operator(kw, grid)
            got.append(convex_production(op, state, production_weights(op, phis)))
        assert len(op.production_cells.blocks) == 1
        for name, phi in phis.items():
            want, want_scale, floor = table_production(table, state.g, phi(grid.omega))
            (p1, s1), (p2, s2), (p3, s3) = (g[name] for g in got)
            assert max(abs(p1 - p2), abs(p3 - p2)) <= 1e-13 * s2, name
            assert max(abs(s1 - s2), abs(s3 - s2)) <= 1e-13 * s2, name
            assert abs(p2 - want) <= 1e-12 * want_scale + floor, name

    def test_stored_state_grows_like_n(self, d_quad):
        # stored range ends and lists grew 4.0x from 256 to 512 nodes, as
        # n^2; the pieces grow 2.0x
        def stored(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, tuple):
                return sum(stored(v) for v in value)
            if dataclasses.is_dataclass(value):
                return sum(stored(getattr(value, f.name)) for f in dataclasses.fields(value)
                           if f.name != "grid")
            return 0

        small, large = (stored(build_operator(KernelWeights(), OmegaGrid(d_quad, n, 8.0)))
                        for n in (256, 512))
        assert large <= 2.5 * small

    def test_production_cells_check_int32_first(self, op32_quad, monkeypatch):
        # production keeps up to five ranges per cell of the planes, against
        # the operator's three, so it checks its own count before building
        seen = []

        def refuse(n, count):
            seen.append((n, count))
            raise ValueError("refused")

        monkeypatch.setattr(solver, "_check_indices", refuse)
        with pytest.raises(ValueError, match="refused"):
            solver._production_cells(op32_quad)
        n_rows, nb = op32_quad.mho_sl.shape
        assert seen == [(32, 5 * n_rows * (nb + 1))]

    def test_640_nodes_need_no_table_budget(self, d_quad):
        # the table of this grid would need about 2,129 MiB
        grid = OmegaGrid(d_quad, 640, 4.0)
        op = build_operator(KernelWeights(), grid)
        assert op.n_entries > 54_000_000
        g = gaussian_bump(grid, center=2.0, width=0.4, amplitude=1.0).g
        out = solver._rhs_of_g(op, g)
        assert np.all(np.isfinite(out)) and np.any(out)
        total = float(np.sum(np.abs(out)))
        assert abs(float(np.sum(out))) <= 1e-12 * total
        assert abs(float(np.sum(out * grid.omega))) <= 1e-12 * total * grid.omega_max


def _check_layout(layout, plane_row=None):
    """The window invariants of a layout: every (plane, row) in one window,
    every range inside its row's stored extent, every output given once,
    and every window within BLOCK_CELLS cells or of one row.  ``plane_row``,
    where given, maps the ranges' outputs to the (plane, row) each range
    must sit in; else an output is a place below the layout's last bound."""
    seen, outputs = set(), []
    for window, columns in zip(layout.windows, window_ranges(layout)):
        n_held, width = window.shape
        assert n_held * width <= solver.BLOCK_CELLS or n_held == 1
        held = np.full((n_held, 2), -1)
        for rows in window.rows:
            assert np.all(held[rows.rows] == -1)
            held[rows.rows] = np.column_stack([np.full(rows.row.size, rows.plane), rows.row])
        keys = {tuple(key) for key in held.tolist()}
        assert len(keys) == n_held and -1 not in held and not keys & seen
        seen |= keys
        start, end = columns[:2]
        k = start // width  # the window row of each range; its column 0 is the zero
        assert np.all(end > start) and np.all(end <= k * width + width - 1)
        if plane_row is not None:
            assert np.array_equal(held[k], plane_row(*columns[2:]))
        outputs.append(columns[2:])
    outputs = np.concatenate(outputs, axis=1)
    assert np.unique(outputs, axis=1).shape[1] == outputs.shape[1]
    if plane_row is None:
        assert np.all((outputs >= 0) & (outputs < layout.bounds[-1]))


@pytest.mark.parametrize("n_nodes", [24, 64, 128])
@pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_window_layouts(alpha, cutoff_n, n_nodes):
    grid = OmegaGrid(DispersionRelation.power_law(alpha), n_nodes, 8.0)
    op = build_operator(KernelWeights(cutoff_n=cutoff_n), grid)
    c0, n = op.band[0], n_nodes

    # loss: parts A, B, C of each pair (s, i) on loss planes 0, 1, 2 in row
    # s - 2 c0, coded i + n part (+ 3n where i = j) and j
    def pair_row(i, j):
        assert np.array_equal(i // (3 * n) == 1, i % n == j)
        return np.column_stack([i // n % 3, i % n + j - 2 * c0])

    # gain: parts A, B, C of each cell (s, l) on pair planes 0, 1, 0, coded
    # l + n part and m + n part
    def cell_row(l, m):
        assert np.array_equal(l // n, m // n)
        return np.column_stack([np.array([0, 1, 0])[l // n], l % n + m % n - 2 * c0])

    _check_layout(op.loss, pair_row)
    _check_layout(op.gain, cell_row)
    for block in op.production_cells.blocks:
        for layout in (block.loss, block.pairs, block.zvw):
            _check_layout(layout)


@pytest.mark.parametrize("n_nodes", [24, 64, 128])
@pytest.mark.parametrize("cutoff_n", [math.inf, 3.0])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_pieces_list_the_stored_ranges(alpha, cutoff_n, n_nodes):
    # each window's pieces list the ranges that storing them one by one
    # puts there, with the same outputs, in the same windows and rows;
    # production's, block by block of PRODUCTION_ROWS rows
    grid = OmegaGrid(DispersionRelation.power_law(alpha), n_nodes, 8.0)
    op = build_operator(KernelWeights(cutoff_n=cutoff_n), grid)
    cells = op.production_cells
    layouts = {"loss": op.loss, "gain": op.gain}
    for k, block in enumerate(cells.blocks):
        layouts.update({f"production {name} {k}": getattr(block, name)
                        for name in ("loss", "pairs", "zvw")})
    # blocks of PRODUCTION_ROWS rows, each with its rows' cells, t = 1 .. s/2 - 1
    (n_rows, T), step = cells.shape, solver.PRODUCTION_ROWS
    in_row = np.clip(np.arange(2 * op.band[0], 2 * op.band[0] + n_rows) // 2 - 1, 0, T)
    first = np.concatenate(([0], np.cumsum(in_row))).tolist()
    assert [(block.rows, block.cells) for block in cells.blocks] == [
        (range(r, min(r + step, n_rows)), slice(first[r], first[min(r + step, n_rows)]))
        for r in range(0, n_rows, step)]
    want_layouts = stored_layouts(op)
    assert set(want_layouts) == set(layouts)
    for name, want in want_layouts.items():
        layout = layouts[name]
        assert len(layout.windows) == len(want), name
        for window, columns, (shape, rows, ranges) in zip(layout.windows,
                                                          window_ranges(layout), want):
            assert window.shape == shape, name
            assert [(r.plane, r.rows, r.row.tolist(), r.first.tolist(), r.diagonal.tolist(),
                     r.half.tolist()) for r in window.rows] == [
                (plane, at, *(a.tolist() for a in arrays)) for plane, at, *arrays in rows], name
            got = list(map(tuple, columns.T.tolist()))
            assert len(got) == len(ranges) and set(got) == ranges, name


def _twosum_errors(terms):
    """Each step's error of np.cumsum along rows by Knuth's TwoSum, summed
    cumulatively: the classic form of _prefix_sums' E."""
    S = np.cumsum(terms, axis=-1)
    prev, t, x = S[:, :-1], S[:, 1:], terms[:, 1:]
    bb = t - prev
    err = (prev - (t - bb)) + (x - bb)
    return np.cumsum(np.concatenate([np.zeros((len(terms), 1)), err], axis=1), axis=-1)


_TERM = st.one_of(st.just(0.0), st.floats(0.0, 2.0 ** -1022, exclude_max=True),
                  st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda k: st.lists(st.lists(_TERM, min_size=k, max_size=k), min_size=1, max_size=4)))
def test_fast2sum_errors_equal_twosum_errors(rows):
    terms = np.abs(np.array([[0.0] + row for row in rows]))
    S, E = solver._prefix_sums(terms)
    assert np.array_equal(S, np.cumsum(terms, axis=-1))
    assert np.array_equal(E.view(np.int64), _twosum_errors(terms).view(np.int64))


class TestRhs:
    def test_matches_brute_force(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(17)
        for _ in range(3):
            s = random_state(grid8_mid, rng)
            expected = _rhs_brute_force(grid8_mid, op8_mid.kw, s.g)
            got = rhs(op8_mid, s)
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("which", ["quad", "mid"])
    def test_conserves_mass_and_energy(self, which, request):
        op = request.getfixturevalue(f"op8_{which}")
        table = request.getfixturevalue(f"table8_{which}")
        grid = op.grid
        rng = np.random.default_rng(29)
        for _ in range(10):
            s = random_state(grid, rng)
            out = rhs(op, s)
            scale = deposit_scale(table, table_rhs(table, s.g)[1])
            h = grid.h
            mass_rate = abs(float(np.sum(out)) * h)
            energy_rate = abs(float(np.sum(out * grid.omega)) * h)
            mass_scale = float(np.sum(scale)) * h
            energy_scale = float(np.sum(scale * grid.omega)) * h
            assert mass_rate <= 1e-12 * mass_scale
            assert energy_rate <= 1e-12 * energy_scale

    def test_zero_state_is_stationary(self, op8_quad, grid8_quad):
        s = SpectrumState(g=np.zeros(8), time=0.0, grid=grid8_quad)
        assert np.array_equal(rhs(op8_quad, s), np.zeros(8))

    def test_grid_mismatch_rejected(self, op8_quad, d_quad, d_mid):
        # other node count; same nodes and spacing under another dispersion
        for other in (OmegaGrid(d_quad, 12, 7.0), OmegaGrid(d_mid, 8, 7.0)):
            s = SpectrumState(g=np.ones(other.n_nodes), time=0.0, grid=other)
            for use in (lambda: rhs(op8_quad, s),
                        lambda: evolve(op8_quad, s, t_end=1.0),
                        lambda: production(op8_quad, s, quadratic_test())):
                with pytest.raises(ValueError, match="different grids"):
                    use()

    def test_equal_valued_grid_accepted(self, op8_quad, d_quad):
        # a distinct grid object with identical nodes is fine
        clone = OmegaGrid(d_quad, 8, 7.0)
        s = SpectrumState(g=np.ones(8), time=0.0, grid=clone)
        rhs(op8_quad, s)  # must not raise


class TestTransforms:
    def test_point_value(self, d_quad):
        # f = 3 at r = 2: g = mho * f * r = 0.5 * 3 * 2 = 3
        grid = OmegaGrid(d_quad, 3, 8.0)  # omega = 0, 4, 8 -> r = 0, 2, sqrt(8)
        s = transform_f_to_g(grid, [0.0, 3.0, 0.0])
        assert s.g[1] == pytest.approx(3.0, rel=1e-14)

    def test_round_trip(self, grid8_mid):
        f = np.array([0.0, 0.3, 1.1, 0.0, 2.0, 0.5, 0.25, 0.1])
        s = transform_f_to_g(grid8_mid, f)
        back = transform_g_to_f(s)
        assert np.allclose(back, f, rtol=1e-12, atol=0.0)
        assert s.g[0] == 0.0

    def test_mass_equals_radial_integral(self, d_mid):
        # sum(g) * h discretizes integral of f r^2 dr (no angular factor)
        from scipy.integrate import quad

        grid = OmegaGrid(d_mid, 2001, 25.0)
        f_of_r = lambda r: np.exp(-0.5 * ((r - 2.0) / 0.3) ** 2)
        s = transform_f_to_g(grid, f_of_r(grid.r))
        mass = float(np.sum(s.g)) * grid.h
        expected, _ = quad(lambda r: f_of_r(r) * r * r, 0.0, grid.r[-1])
        assert mass == pytest.approx(expected, rel=1e-4)

    def test_validation(self, grid8_mid):
        with pytest.raises(ValueError):
            transform_f_to_g(grid8_mid, [1.0, 2.0])
        with pytest.raises(ValueError):
            transform_f_to_g(grid8_mid, -np.ones(8))


class TestInitialStates:
    def test_gaussian_bump_shape(self, grid32_quad):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.5, amplitude=3.0)
        peak = int(np.argmax(s.g))
        assert abs(grid32_quad.omega[peak] - 2.0) <= grid32_quad.h
        assert s.g.max() <= 3.0 + 1e-12
        assert s.g[0] == 0.0

    def test_ring_in_r(self, grid8_mid):
        s = ring_in_r(grid8_mid, r_center=2.0, width=0.4, amplitude=1.0)
        assert np.all(s.g >= 0.0)
        assert s.g[0] == 0.0

    def test_parameter_validation(self, grid8_quad):
        with pytest.raises(ValueError):
            gaussian_bump(grid8_quad, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_bump(grid8_quad, 1.0, 0.5, -1.0)

    def test_state_from_file(self, tmp_path, grid8_quad):
        one_col = tmp_path / "g.txt"
        np.savetxt(one_col, np.linspace(0.0, 1.0, 8))
        s = state_from_file(grid8_quad, str(one_col))
        assert s.g[-1] == 1.0

        two_col = tmp_path / "wg.txt"
        np.savetxt(two_col, np.column_stack([grid8_quad.omega, np.ones(8)]))
        s2 = state_from_file(grid8_quad, str(two_col))
        assert np.array_equal(s2.g, np.ones(8))

        bad = tmp_path / "bad.txt"
        np.savetxt(bad, np.column_stack([grid8_quad.omega + 0.5, np.ones(8)]))
        with pytest.raises(ValueError, match="frequency column"):
            state_from_file(grid8_quad, str(bad))

        short = tmp_path / "short.txt"
        np.savetxt(short, np.ones(5))
        with pytest.raises(ValueError, match="expected 8"):
            state_from_file(grid8_quad, str(short))


class TestStep:
    def test_step_advances_and_stays_nonnegative(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(101)
        s = random_state(grid8_mid, rng)
        s2 = step(op8_mid, s, 1e-4)
        assert s2.time == pytest.approx(1e-4)
        assert np.all(s2.g >= 0.0)
        assert s2 is not s

    def test_step_conserves(self, op8_quad, grid8_quad):
        rng = np.random.default_rng(7)
        s = random_state(grid8_quad, rng)
        s2 = step(op8_quad, s, 1e-5)
        h = grid8_quad.h
        assert float(np.sum(s2.g)) * h == pytest.approx(float(np.sum(s.g)) * h, rel=1e-13)
        e1 = float(np.sum(s.g * grid8_quad.omega)) * h
        e2 = float(np.sum(s2.g * grid8_quad.omega)) * h
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_halving_keeps_nonnegativity(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(23)
        s = random_state(grid8_mid, rng)
        r = rhs(op8_mid, s)
        sinks = r < 0.0
        assert sinks.any()
        dt_star = float(np.min(s.g[sinks] / -r[sinks]))
        # a step at 3x the first-crossing time must halve at least once
        s2 = step(op8_mid, s, 3.0 * dt_star)
        assert np.all(s2.g >= 0.0)
        assert s2.time - s.time < 3.0 * dt_star
        assert s2.time - s.time >= 3.0 * dt_star / 2.0 ** 31

    def test_stiffness_error_carries_state(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(23)
        s = random_state(grid8_mid, rng)
        with pytest.raises(StiffnessError) as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                step(op8_mid, s, 1e30)
        assert exc.value.state is s

    def test_validation(self, op8_mid, grid8_mid):
        rng = np.random.default_rng(1)
        s = random_state(grid8_mid, rng)
        with pytest.raises(ValueError):
            step(op8_mid, s, 0.0)


class TestEvolve:
    def test_zero_horizon_returns_initial_record(self, op8_quad, grid8_quad):
        rng = np.random.default_rng(2)
        s = random_state(grid8_quad, rng)
        out = evolve(op8_quad, s, t_end=0.0)
        assert len(out) == 1
        assert out[0][0] is s
        assert out[0][1].time == 0.0

    def test_short_run_records_and_conserves(self, op32_quad, grid32_quad):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        out = evolve(op32_quad, s, t_end=0.01)
        times = [rec.time for _, rec in out]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.01, rel=1e-9)
        assert all(b > a for a, b in zip(times, times[1:]))
        m0, mN = out[0][1].mass, out[-1][1].mass
        assert abs(mN - m0) <= 1e-10 * m0
        assert all(np.all(st.g >= 0.0) for st, _ in out)

    def test_output_every_thins_records(self, op32_quad, grid32_quad):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        dense = evolve(op32_quad, s, t_end=0.01, output_every=0.0)
        sparse = evolve(op32_quad, s, t_end=0.01, output_every=1.0)
        assert len(sparse) == 2  # initial + final
        assert len(dense) > len(sparse)

    def test_max_steps_caps_the_run(self, op32_quad, grid32_quad):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        out = evolve(op32_quad, s, t_end=1e9, max_steps=3)
        assert out[-1][0].time < 1e9
        assert len(out) <= 5

    def test_max_dt_bounds_every_step(self, op32_quad, grid32_quad):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        out = evolve(op32_quad, s, t_end=5e-4, max_dt=1e-4)
        times = np.array([st.time for st, _ in out])
        assert np.all(np.diff(times) <= 1e-4 * (1.0 + 1e-9))

    @staticmethod
    def break_energy(table, monkeypatch):
        """Make the operator sum the table with every fourth index shifted.

        Shifting every fourth index down by one keeps each deposit's
        (-rho, -rho, +rho, +rho) stencil, so mass is still conserved, but
        the frequencies no longer balance, so energy is not.
        """
        t = table
        keep = t.m >= 2
        shifted = KernelTable(
            grid=t.grid, kw=t.kw, i=t.i[keep], j=t.j[keep], l=t.l[keep],
            m=t.m[keep] - 1, w=t.w[keep], mult=t.mult[keep], coef=t.coef[keep])
        monkeypatch.setattr(solver, "_rhs_of_g", lambda op, g: table_rhs(shifted, g)[0])

    def test_energy_breach_raises(self, op32_quad, table32_quad, grid32_quad,
                                  monkeypatch):
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        self.break_energy(table32_quad, monkeypatch)
        with pytest.raises(ConservationError, match="energy drifted"):
            evolve(op32_quad, s, t_end=0.01)

    def test_breach_raises_at_the_first_breaching_record(
            self, op32_quad, table32_quad, grid32_quad, monkeypatch):
        # energy drifts by about 1.15 relative per unit time here, so with
        # steps of 2e-11 a few records pass before one breaches 1e-10
        self.break_energy(table32_quad, monkeypatch)
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        make_record = solver._diag.make_record
        seen = []

        def spy(*args, **kwargs):
            seen.append(make_record(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(solver._diag, "make_record", spy)
        with pytest.raises(ConservationError, match="energy drifted") as exc:
            evolve(op32_quad, s, t_end=1e-9, max_dt=2e-11)
        e0 = seen[0].energy
        drifts = [abs(rec.energy - e0) / e0 for rec in seen]
        assert len(seen) > 2 and drifts[-1] > 1e-10
        assert max(drifts[:-1]) <= 1e-10
        assert f"at t={seen[-1].time:g} " in str(exc.value)
        n_breached = len(seen)

        # the same run, with each record's energy pinned to the first's,
        # never breaches and records every step up to t_end
        def pinned(*args, **kwargs):
            seen.append(make_record(*args, **kwargs))
            return dataclasses.replace(seen[-1], energy=seen[0].energy)

        seen.clear()
        monkeypatch.setattr(solver._diag, "make_record", pinned)
        evolve(op32_quad, s, t_end=1e-9, max_dt=2e-11)
        assert n_breached < len(seen)

    def test_validation(self, op8_quad, grid8_quad):
        s = SpectrumState(g=np.ones(8), time=0.0, grid=grid8_quad)
        with pytest.raises(ValueError):
            evolve(op8_quad, s, t_end=-1.0)
        with pytest.raises(ValueError):
            evolve(op8_quad, s, t_end=1.0, max_dt=0.0)
        with pytest.raises(ValueError):
            evolve(op8_quad, s, t_end=1.0, max_steps=0)
        for t_end, output_every in ((math.inf, 0.0), (math.nan, 0.0), (1.0, -1.0),
                                    (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                evolve(op8_quad, s, t_end=t_end, output_every=output_every)


class TestOperatorReuse:
    """evolve evaluates the operator once per state and shares that result."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count operator evaluations and steps; check that no step halves."""
        counts = {"rhs": 0, "step": 0}
        rhs_of_g, step_fn = solver._rhs_of_g, solver.step

        def counting_rhs(*args, **kwargs):
            counts["rhs"] += 1
            return rhs_of_g(*args, **kwargs)

        def counting_step(op, state, dt, *args, **kwargs):
            counts["step"] += 1
            out = step_fn(op, state, dt, *args, **kwargs)
            assert out.time == state.time + dt  # no halving: 4 evaluations
            return out

        monkeypatch.setattr(solver, "_rhs_of_g", counting_rhs)
        monkeypatch.setattr(solver, "step", counting_step)
        return counts

    @pytest.mark.parametrize("output_every, max_steps", [(0.0, None), (0.004, None),
                                                         (0.0, 3), (1.0, 3)])
    @pytest.mark.parametrize("with_tests", [True, False])
    def test_call_counts(self, counted, op32_quad, grid32_quad,
                         output_every, max_steps, with_tests):
        # each step costs 4 evaluations, the first of them shared with the dt
        # choice; records read the operator's planes but never evaluate it
        tests = {"low_pass:2.0": kinked_low_pass(2.0), "quadratic": quadratic_test()}
        cfg = DiagnosticsConfig(test_functions=tests if with_tests else {})
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        out = evolve(op32_quad, s, t_end=0.01, output_every=output_every,
                     max_steps=max_steps, diagnostics_config=cfg)
        assert counted["step"] >= 3
        assert counted["rhs"] == 4 * counted["step"]
        for state, rec in out:
            assert set(rec.convex_production) == (set(tests) if with_tests else set())
            for name, value in rec.convex_production.items():
                assert value == production(op32_quad, state, tests[name])[0]

    @pytest.mark.parametrize("with_tests", [True, False])
    def test_zero_horizon(self, counted, op32_quad, grid32_quad, with_tests):
        cfg = DiagnosticsConfig(test_functions={"quadratic": quadratic_test()}
                                if with_tests else {})
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        evolve(op32_quad, s, t_end=0.0, diagnostics_config=cfg)
        assert counted == {"rhs": 0, "step": 0}

    def test_nonconvex_test_function_rejected_before_any_step(
            self, counted, op32_quad, grid32_quad):
        cfg = DiagnosticsConfig(test_functions={"sine": lambda w: np.sin(w)})
        s = gaussian_bump(grid32_quad, center=2.0, width=0.4, amplitude=1.0)
        with pytest.raises(ValueError, match="not convex"):
            evolve(op32_quad, s, t_end=0.01, diagnostics_config=cfg)
        assert counted == {"rhs": 0, "step": 0}

    def test_given_k1_is_bitwise_neutral(self, op8_mid, grid8_mid):
        # the input of test_halving_keeps_nonnegativity: dt = 3 * dt_star
        # halves at least once, and k1 is reused by every halving
        s = random_state(grid8_mid, np.random.default_rng(23))
        r = rhs(op8_mid, s)
        sinks = r < 0.0
        dt_star = float(np.min(s.g[sinks] / -r[sinks]))
        for dt in (0.1 * dt_star, 3.0 * dt_star, 50.0 * dt_star):
            plain = step(op8_mid, s, dt)
            given = step(op8_mid, s, dt, k1=rhs(op8_mid, s))
            assert np.array_equal(given.g, plain.g)
            assert given.time == plain.time

    def test_k1_shape_checked(self, op8_mid, grid8_mid):
        s = random_state(grid8_mid, np.random.default_rng(1))
        with pytest.raises(ValueError, match="k1"):
            step(op8_mid, s, 0.1, k1=np.zeros(3))
