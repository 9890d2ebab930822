"""Four-sine integral, its min shortcut, the Xi weight, and the cutoff kernel.

The frozen integral values below were cross-checked against adaptive scipy
quadrature before being committed; the in-repo quadrature oracle reproduces
them independently of the closed form.
"""

import math

import numpy as np
import pytest

from wavekin.collision_kernel import (
    KernelWeights,
    cutoff_kernel,
    four_sine_closed_form,
    min_identity,
    resonant_quadruple,
    sine_integral_oracle,
    xi_weight,
)
from wavekin.dispersion import DispersionRelation, eval_omega


class TestClosedForm:
    # (radii, exact value): the last two sit in regimes where the min
    # shortcut is wrong, exercising the other linear pieces.
    FROZEN = [
        ((1.0, 1.0, 1.0, 1.0), math.pi / 4.0),
        ((0.5, 1.5, 0.8, 1.2), math.pi / 8.0),       # boundary: max+min = mid+mid
        ((0.7, 2.1, 1.3, 0.9), math.pi / 10.0),      # middle regime, not (pi/4)*min
        ((5.0, 0.1, 0.1, 0.1), 0.0),                 # one radius dominates the sum
    ]

    @pytest.mark.parametrize("radii,exact", FROZEN)
    def test_frozen_values(self, radii, exact):
        assert four_sine_closed_form(*radii) == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("radii,exact", FROZEN)
    def test_oracle_reproduces_frozen_values(self, radii, exact):
        assert sine_integral_oracle(*radii) == pytest.approx(exact, abs=2e-4)

    def test_permutation_symmetry(self):
        import itertools

        base = (0.4, 1.1, 2.3, 0.9)
        ref = four_sine_closed_form(*base)
        for perm in itertools.permutations(base):
            assert four_sine_closed_form(*perm) == pytest.approx(ref, abs=1e-15)

    def test_zero_radius_kills_the_integral(self):
        assert four_sine_closed_form(0.0, 1.0, 2.0, 3.0) == 0.0
        assert sine_integral_oracle(0.0, 1.0, 2.0, 3.0) == 0.0

    def test_agrees_with_quadrature_on_random_radii(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            radii = rng.uniform(0.1, 5.0, size=4)
            exact = four_sine_closed_form(*radii)
            approx = sine_integral_oracle(*radii)
            assert approx == pytest.approx(exact, abs=1e-4)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            four_sine_closed_form(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sine_integral_oracle(1.0, -1.0, 1.0, 1.0)

    def test_numpy_scalar_radii_accepted(self):
        # radii and frequencies as NumPy scalars give the floats' values
        radii = (np.float32(0.5), np.int64(2), np.float64(1.25), 1.0)
        assert four_sine_closed_form(*radii) == four_sine_closed_form(0.5, 2.0, 1.25, 1.0)
        d = DispersionRelation.power_law(1.5)
        assert xi_weight(d, np.float32(1.0), 1.0, 1.0, 1.0) == xi_weight(d, 1.0, 1.0, 1.0, 1.0)
        for bad in (np.float32("nan"), "1.0", np.int64(-1)):
            with pytest.raises(ValueError, match="radii must be finite and nonnegative"):
                four_sine_closed_form(bad, 1.0, 1.0, 1.0)

    def test_radii_beyond_the_panel_budget_rejected(self):
        with pytest.raises(ValueError, match="panel budget"):
            sine_integral_oracle(400.0, 400.0, 400.0, 400.0)


class TestMinIdentity:
    def test_equal_radii(self):
        assert min_identity(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 4.0)

    def test_boundary_of_validity(self):
        # sorted (1.5, 1.2, 0.8, 0.5): max+min = mid+mid = 2, still exact
        assert min_identity(0.5, 1.5, 0.8, 1.2) == pytest.approx(math.pi / 8.0, abs=1e-14)

    def test_raises_outside_validity_cone(self):
        # sorted (2.1, 1.3, 0.9, 0.7): max+min = 2.8 > 2.2 = mid+mid
        with pytest.raises(ValueError, match=r"max\+min <= mid\+mid"):
            min_identity(0.7, 2.1, 1.3, 0.9)
        with pytest.raises(ValueError, match="2.8"):
            min_identity(0.7, 2.1, 1.3, 0.9)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_exact_on_resonant_quadruples(self, alpha):
        # resonant radii always satisfy the validity cone, so the shortcut
        # must agree with the eight-term form to near machine precision
        d = DispersionRelation.power_law(alpha)
        rng = np.random.default_rng(5)
        for _ in range(200):
            r, r1, r2, r3 = resonant_quadruple(d, rng)
            val = min_identity(r1, r2, r3, r)
            exact = four_sine_closed_form(r1, r2, r3, r)
            assert abs(val - exact) <= 1e-12 * max(1.0, val)

    def test_resonant_sampler_is_resonant(self, d_mid):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, r1, r2, r3 = resonant_quadruple(d_mid, rng)
            lhs = eval_omega(d_mid, r) + eval_omega(d_mid, r1)
            rhs = eval_omega(d_mid, r2) + eval_omega(d_mid, r3)
            assert lhs == pytest.approx(rhs, rel=1e-10)
            assert all(0.1 <= x <= 5.0 for x in (r, r1, r2, r3))


class TestXiWeight:
    def test_quadratic_all_ones(self, d_quad):
        # all radii 1, mho constant 1/2: (1/2)^4 * 1 = 1/16
        assert xi_weight(d_quad, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 16.0)

    def test_three_halves_frozen(self, d_mid):
        # radii (1, 4, 1, 4); mho = (2/3)sqrt(r): (2/3 * 4/3)^2 * 1 = 64/81
        got = xi_weight(d_mid, 1.0, 8.0, 1.0, 8.0)
        assert got == pytest.approx(64.0 / 81.0, rel=1e-12)
        assert got == pytest.approx(0.7901234567901234, rel=1e-12)

    def test_zero_frequency_gives_zero(self, d_mid):
        assert xi_weight(d_mid, 1.0, 2.0, 3.0, 0.0) == 0.0


class TestCutoffKernel:
    def test_no_cutoff_unit_frequencies(self, d_quad):
        # w3 = 1, all radii 1: mho(1) * 1 / 1 = 1/2
        kw = KernelWeights()
        assert cutoff_kernel(kw, d_quad, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_negative_fourth_frequency_gives_zero(self, d_quad):
        kw = KernelWeights()
        assert cutoff_kernel(kw, d_quad, 1.0, 1.0, 3.0) == 0.0

    def test_zero_radius_gives_zero(self, d_quad, d_mid):
        kw = KernelWeights()
        assert cutoff_kernel(kw, d_quad, 0.0, 1.0, 1.0) == 0.0
        # w + w1 = w2 makes the dependent radius zero
        assert cutoff_kernel(kw, d_mid, 1.0, 1.0, 2.0) == 0.0

    def test_radius_band_truncation(self, d_quad):
        kw = KernelWeights(cutoff_n=2.0)
        # w = 9 means r = 3 >= n: outside [1/n, n)
        assert cutoff_kernel(kw, d_quad, 9.0, 1.0, 1.0) == 0.0
        # r = 1/2 is inside [1/2, 2); r = 0.4 is not
        assert cutoff_kernel(kw, d_quad, 0.25, 1.0, 1.0) > 0.0
        assert cutoff_kernel(kw, d_quad, 0.16, 1.0, 1.0) == 0.0

    def test_band_does_not_apply_to_dependent_radius(self, d_quad):
        # radii (1.75, 1.9, 0.75) sit inside [1/2, 2) but the dependent
        # radius sqrt(6.11) ~ 2.47 falls outside; the entry must survive,
        # with the min taken over all four radii
        kw = KernelWeights(cutoff_n=2.0)
        got = cutoff_kernel(kw, d_quad, 3.0625, 3.61, 0.5625)
        expected = 0.5 * 0.75 / (1.75 * 1.9 * 0.75)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_symmetric_in_first_two_frequencies(self, d_mid):
        kw = KernelWeights(cutoff_n=6.0)
        a = cutoff_kernel(kw, d_mid, 1.3, 2.9, 0.7)
        b = cutoff_kernel(kw, d_mid, 2.9, 1.3, 0.7)
        assert a == pytest.approx(b, rel=1e-14)

    def test_matches_xi_decomposition(self, d_mid):
        # K = mho3 * min / (r r1 r2) relates to Xi through the mho product:
        # K = Xi / (mho mho1 mho2 r r1 r2)
        from wavekin.dispersion import eval_mho, invert_omega

        kw = KernelWeights()
        w, w1, w2 = 1.4, 2.2, 0.9
        w3 = w + w1 - w2
        radii = [invert_omega(d_mid, x) for x in (w, w1, w2)]
        mhos = [eval_mho(d_mid, x) for x in radii]
        xi = xi_weight(d_mid, w, w1, w2, w3)
        expected = xi / (mhos[0] * mhos[1] * mhos[2] * radii[0] * radii[1] * radii[2])
        assert cutoff_kernel(kw, d_mid, w, w1, w2) == pytest.approx(expected, rel=1e-11)


class TestKernelWeights:
    def test_defaults(self):
        kw = KernelWeights()
        assert kw.c_q == pytest.approx(8.0 * math.pi ** 2)
        assert math.isinf(kw.cutoff_n)

    def test_invalid_prefactor(self):
        with pytest.raises(ValueError):
            KernelWeights(c_q=0.0)
        with pytest.raises(ValueError):
            KernelWeights(c_q=-1.0)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError, match="cutoff_n"):
            KernelWeights(cutoff_n=1.0)
        with pytest.raises(ValueError, match="cutoff_n"):
            KernelWeights(cutoff_n=0.5)
