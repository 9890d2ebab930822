"""Dispersion relations: evaluation, inversion, and assumption checking.

Frozen reference values are computed by oracles that share no code with the
implementation: integer powers with explicit root-bisection for fractional
exponents, and exp/log for the inverse map.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavekin import dispersion
from wavekin.dispersion import (
    BracketError,
    DispersionRelation,
    _bisect,
    eval_mho,
    eval_omega,
    invert_omega,
)
from wavekin.solver import OmegaGrid


def _pow_oracle(base: float, num: int, den: int) -> float:
    """base**(num/den) via integer powers and den-th root bisection."""
    target = 1.0
    for _ in range(num):
        target *= base

    lo, hi = 0.0, max(1.0, target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** den < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEvalOmega:
    def test_quadratic(self, d_quad):
        assert eval_omega(d_quad, 3.0) == 9.0
        assert eval_omega(d_quad, 0.0) == 0.0

    def test_three_halves_exact(self, d_mid):
        # 4**1.5 = 8 exactly in floating point
        assert eval_omega(d_mid, 4.0) == 8.0

    def test_fractional_power_frozen(self):
        d = DispersionRelation.power_law(1.7)
        expected = _pow_oracle(0.3, 17, 10)
        assert expected == pytest.approx(0.12915348607498026, abs=1e-15)
        assert eval_omega(d, 0.3) == pytest.approx(expected, rel=1e-14)

    def test_array_input(self, d_quad):
        out = eval_omega(d_quad, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [1.0, 4.0, 9.0])

    def test_negative_radius_rejected(self, d_quad):
        with pytest.raises(ValueError):
            eval_omega(d_quad, -1.0)


class TestEvalMho:
    def test_quadratic_is_constant_half(self, d_quad):
        # mho = r / omega'(r) = r / (2r) = 1/2 at every radius
        assert eval_mho(d_quad, 5.0) == 0.5
        assert eval_mho(d_quad, 0.037) == 0.5

    def test_three_halves(self, d_mid):
        # (1/alpha) r^(2-alpha) = (2/3) sqrt(4) = 4/3
        assert eval_mho(d_mid, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_origin_value_depends_on_iota(self, d_quad, d_mid):
        # iota > 0: continuous extension by zero; iota = 0: undefined
        assert eval_mho(d_mid, 0.0) == 0.0
        with pytest.raises(ValueError, match="mho\\(0\\) undefined"):
            eval_mho(d_quad, 0.0)

    def test_negative_radius_rejected(self, d_mid):
        with pytest.raises(ValueError):
            eval_mho(d_mid, -0.5)


class TestInvertOmega:
    def test_exact_squares(self, d_quad):
        assert invert_omega(d_quad, 9.0) == pytest.approx(3.0, abs=1e-12)
        assert invert_omega(d_quad, 0.0) == 0.0

    def test_three_halves(self, d_mid):
        assert invert_omega(d_mid, 8.0) == pytest.approx(4.0, abs=1e-12)

    def test_frozen_value_alpha_13(self):
        d = DispersionRelation.power_law(1.3)
        expected = math.exp(math.log(2.6) / 1.3)
        assert expected == pytest.approx(2.0855003528924816, abs=1e-15)
        assert invert_omega(d, 2.6) == pytest.approx(expected, rel=1e-12)

    def test_negative_frequency_rejected(self, d_quad):
        with pytest.raises(ValueError):
            invert_omega(d_quad, -4.0)

    def test_numpy_scalars_accepted(self, d_quad):
        # a finite NumPy scalar is a real number; a value that is not finite,
        # numeric and nonnegative keeps its message
        for w in (np.int64(2), np.float32(2.0)):
            assert invert_omega(d_quad, w) == invert_omega(d_quad, 2.0)
        for bad, message in ((math.nan, "must be finite"), (np.float32("inf"), "must be finite"),
                             ("2", "must be finite"), (np.int64(-2), "must be nonnegative")):
            with pytest.raises(ValueError, match=message):
                invert_omega(d_quad, bad)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=1.0 + 1e-6, max_value=2.0),
    )
    def test_round_trip_property(self, r, alpha):
        d = DispersionRelation.power_law(alpha)
        r_back = invert_omega(d, eval_omega(d, r))
        assert abs(r_back - r) <= 1e-10 * max(1.0, r)

    @staticmethod
    def _bisected_copy(alpha: float) -> DispersionRelation:
        """The power law as a custom law, which invert_omega bisects."""
        return DispersionRelation.custom(
            omega=lambda r: r ** alpha,
            omega_prime=lambda r: alpha * r ** (alpha - 1.0),
            alpha=alpha, alpha_prime=alpha, c_omega_lower=1.0,
            c_omega_upper=1.0, c_mho=1.0 / alpha, iota=2.0 - alpha,
        )

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_closed_form_meets_residual_and_matches_bisection(self, alpha):
        d = DispersionRelation.power_law(alpha)
        bisected = self._bisected_copy(alpha)
        for w in np.logspace(-12.0, 6.0, 721):
            w = float(w)
            r = invert_omega(d, w)
            assert abs(eval_omega(d, r) - w) <= 1e-12 * max(1.0, w)
            # the closed form is off by a couple of ulps plus the rounding of
            # 1/alpha, which w**(1/alpha) amplifies by |ln w|; bisection stops
            # at an absolute bracket width of 1e-22 when r < 1e-6
            bound = 4.5e-16 + 2.0 ** -54 * abs(math.log(w)) + 1e-22 / r
            assert abs(r - invert_omega(bisected, w)) <= bound * r, w


def _custom(omega, omega_prime, alpha, alpha_prime, c_lower, c_upper, c_mho, iota):
    return DispersionRelation.custom(
        omega=omega, omega_prime=omega_prime, alpha=alpha, alpha_prime=alpha_prime,
        c_omega_lower=c_lower, c_omega_upper=c_upper, c_mho=c_mho, iota=iota)


class TestCustomGrid:
    @staticmethod
    def _scalar_inverse(d: DispersionRelation, w: float) -> float:
        """invert_omega's bracket, doubled until it holds w, and _bisect,
        one node at a time."""
        hi = max(1.0, (w / d.c_omega_lower) ** (1.0 / d.alpha))
        while eval_omega(d, hi) < w:
            hi *= 2.0
        return _bisect(lambda x: eval_omega(d, x) - w, 0.0, hi)

    @pytest.mark.parametrize("law", ["power 1.1", "power 1.5", "power 2", "r^1.5",
                                     "r^2 + r^1.5"])
    def test_radii_equal_scalar_bisection(self, law):
        # the grid bisects every node at once; each radius keeps the bits
        # of its own scalar bisection
        d = {"power 1.1": lambda: TestInvertOmega._bisected_copy(1.1),
             "power 1.5": lambda: TestInvertOmega._bisected_copy(1.5),
             "power 2": lambda: TestInvertOmega._bisected_copy(2.0),
             "r^1.5": lambda: _custom(lambda r: r ** 1.5, lambda r: 1.5 * r ** 0.5,
                                      1.5, 1.5, 1.0, 1.0, 2.0 / 3.0, 0.5),
             "r^2 + r^1.5": lambda: _custom(lambda r: r * r + r ** 1.5,
                                            lambda r: 2.0 * r + 1.5 * r ** 0.5,
                                            2.0, 1.5, 1.0, 2.0, 1.0, 0.0)}[law]()
        for n_nodes, omega_max in ((257, 8.0), (96, 1e-3), (64, 1e4)):
            grid = OmegaGrid(d, n_nodes, omega_max)
            want = [0.0] + [self._scalar_inverse(d, w) for w in grid.omega[1:].tolist()]
            assert np.array_equal(grid.r, want), (law, n_nodes)
            assert invert_omega(d, float(grid.omega[7])) == grid.r[7]

    def test_grid_bisects_all_nodes_at_once(self, monkeypatch):
        # one node at a time took 130-160 evaluations per node; all at once,
        # as many as the slowest node needs, each at every unfinished node
        d = TestInvertOmega._bisected_copy(1.5)
        calls = []

        def counted(d, r):
            calls.append(np.size(r))
            return eval_omega(d, r)

        monkeypatch.setattr(dispersion, "eval_omega", counted)
        OmegaGrid(d, 257, 8.0)
        assert len(calls) <= 400 and max(calls) == 256


class TestBisect:
    @pytest.mark.parametrize("root", [1e-5, 1e-3, 0.3, 7.0])
    def test_roots_below_one_keep_relative_precision(self, root):
        # the bracket shrinks to 1e-16 * max(1e-6, |hi|), not to an absolute
        # 1e-16, so a root of 1e-5 is not left 1e-11 off in relative terms
        x = _bisect(lambda t: t - root, 0.0, 1.5 * root)
        assert abs(x - root) <= 1e-15 * root

    def test_exact_top_of_the_bracket_is_returned(self):
        assert _bisect(lambda t: t * t - 4.0, 0.0, 2.0) == 2.0

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(BracketError, match="no sign change"):
            _bisect(lambda t: t + 1.0, 0.0, 1.0)


class TestAssumptions:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_array_evaluation_equals_scalar(self, alpha):
        # check_assumptions and OmegaGrid evaluate whole arrays at once
        r = np.concatenate([np.logspace(-3, 3, 121), np.arange(1e-2, 10.0, 1e-2)])
        for d in (DispersionRelation.power_law(alpha),
                  TestInvertOmega._bisected_copy(alpha)):
            for fn in (eval_omega, eval_mho):
                assert np.array_equal(fn(d, r), [fn(d, float(x)) for x in r])

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(min_value=1.0 + 1e-6, max_value=2.0))
    def test_power_law_family_admissible(self, alpha):
        d = DispersionRelation.power_law(alpha)
        d.check_assumptions()  # must not raise
        assert d.iota == pytest.approx(2.0 - alpha)

    def test_omega_strictly_increasing_and_convex(self, d_mid):
        r = np.linspace(1e-3, 10.0, 400)
        w = eval_omega(d_mid, r)
        assert np.all(np.diff(w) > 0.0)
        assert np.all(np.diff(w, 2) >= -1e-12)

    def test_mho_nondecreasing(self, d_mid):
        r = np.linspace(1e-3, 10.0, 400)
        m = np.array([eval_mho(d_mid, x) for x in r])
        assert np.all(np.diff(m) >= -1e-12)

    def test_alpha_out_of_range_rejected(self):
        for bad in (1.0, 2.5, 0.5, -1.0):
            with pytest.raises(ValueError):
                DispersionRelation.power_law(bad)

    def test_numpy_scalar_alpha_accepted(self):
        for alpha in (np.float32(1.5), np.int64(2)):
            d = DispersionRelation.power_law(alpha)
            assert (d.alpha, d.iota) == (float(alpha), 2.0 - float(alpha))
        for bad, message in ((np.float64("nan"), "finite number"), ("1.5", "finite number"),
                             (np.float32(2.5), "must lie in")):
            with pytest.raises(ValueError, match=message):
                DispersionRelation.power_law(bad)

    def test_sublinear_growth_names_the_bound(self):
        # sqrt growth cannot satisfy any superlinear lower envelope
        with pytest.raises(ValueError, match="lower growth bound"):
            DispersionRelation.custom(
                omega=lambda r: math.sqrt(r),
                omega_prime=lambda r: 0.5 / math.sqrt(r),
                alpha=1.5,
                alpha_prime=1.5,
                c_omega_lower=0.1,
                c_omega_upper=10.0,
                c_mho=10.0,
                iota=0.5,
            )

    def test_concave_segment_rejected(self):
        # convex, then a concave parabolic stretch on [5, 8], then linear:
        # every growth/mho constraint holds but the curvature check must fire
        def omega(r):
            if r <= 5.0:
                return r * r
            if r <= 8.0:
                return 25.0 + 10.0 * (r - 5.0) - 0.1 * (r - 5.0) ** 2
            return 54.1 + 9.4 * (r - 8.0)

        def omega_prime(r):
            if r <= 5.0:
                return 2.0 * r
            if r <= 8.0:
                return 10.0 - 0.2 * (r - 5.0)
            return 9.4

        with pytest.raises(ValueError, match="convexity"):
            DispersionRelation.custom(
                omega=omega,
                omega_prime=omega_prime,
                alpha=2.0,
                alpha_prime=2.0,
                c_omega_lower=1e-6,
                c_omega_upper=1.0,
                c_mho=500.0,
                iota=1.0,
            )

    def test_mho_dip_rejected(self):
        # a localized convexity spike makes omega' outrun r, so mho dips
        shift = 2.0 * math.exp(-50.0)  # pins omega(0) back to exactly 0

        def omega(r):
            return r * r - 2.0 * math.exp(-2.0 * (r - 5.0) ** 2) + shift

        def omega_prime(r):
            return 2.0 * r + 8.0 * (r - 5.0) * math.exp(-2.0 * (r - 5.0) ** 2)

        with pytest.raises(ValueError, match="mho"):
            DispersionRelation.custom(
                omega=omega,
                omega_prime=omega_prime,
                alpha=2.0,
                alpha_prime=2.0,
                c_omega_lower=0.5,
                c_omega_upper=1.5,
                c_mho=2.0,
                iota=0.0,
            )

    def test_custom_matching_power_law_accepted(self):
        d = DispersionRelation.custom(
            omega=lambda r: r ** 1.5,
            omega_prime=lambda r: 1.5 * r ** 0.5,
            alpha=1.5,
            alpha_prime=1.5,
            c_omega_lower=1.0,
            c_omega_upper=1.0,
            c_mho=2.0 / 3.0,
            iota=0.5,
        )
        assert eval_omega(d, 4.0) == pytest.approx(8.0, rel=1e-14)
        assert eval_mho(d, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert invert_omega(d, 8.0) == pytest.approx(4.0, rel=1e-10)
