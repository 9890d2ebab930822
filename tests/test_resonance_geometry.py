"""Collision-region iteration, covering statistics, the spreading root,
and quadrature over resonance manifolds.

Geometric frozen values: sqrt(0.55) + 0.3*sqrt(2) for the expanded radius,
the (1 - (1-q)^N) covering law, and the alpha = 2 spreading root sqrt(3)
(from (1+s)^2 + (s-1)^2 = 8 <=> s^2 = 3).
"""

import math
import tracemalloc

import numpy as np
import pytest

from wavekin.cli import check_covering, check_spreading_root
from wavekin.dispersion import DispersionRelation, eval_omega
from wavekin.reference import (
    _BLOCK_ROWS,
    _pairwise,
    cap_coverage_mc,
    mollified_delta_mc,
    sphere_manifold_oracle,
    vcone_mc,
)
from wavekin.resonance_geometry import (
    _gauss_kronrod21,
    BracketError,
    PointSet3,
    ResonanceManifold,
    cap_coverage_expectation,
    digamma_root,
    expanded_radius,
    iterate_collision_region,
    least_covering_caps,
    manifold_quadrature,
    vcone,
)


class TestPointSet3:
    def test_needs_points_or_generator(self):
        with pytest.raises(ValueError, match="stored points or a generator"):
            PointSet3()

    def test_origin_is_never_a_member(self):
        ps = PointSet3(points=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        assert ps.n_points == 1  # origin filtered on construction
        assert not ps.contains(np.zeros(3))
        ball = PointSet3(generator=((0.0, 0.0, 0.0), 1.0))
        assert not ball.contains(np.zeros(3))
        assert ball.contains(np.array([0.5, 0.0, 0.0]))

    def test_membership_ball_and_tolerance(self):
        ps = PointSet3(points=[(1.0, 0.0, 0.0)], generator=((3.0, 0.0, 0.0), 0.5))
        assert ps.contains(np.array([3.2, 0.0, 0.0]))          # in the ball
        assert ps.contains(np.array([1.0, ps.tol / 2.0, 0.0]))  # near the point
        assert not ps.contains(np.array([2.0, 0.0, 0.0]))

    def test_max_radius(self):
        ps = PointSet3(points=[(1.0, 0.0, 0.0)], generator=((3.0, 0.0, 0.0), 0.5))
        assert ps.max_radius == pytest.approx(3.5)

    def test_with_points_added(self):
        ps = PointSet3(points=[(1.0, 0.0, 0.0)])
        grown = ps.with_points_added(np.array([[0.0, 2.0, 0.0]]))
        assert grown.n_points == 2
        assert ps.n_points == 1  # original untouched
        assert grown.contains(np.array([0.0, 2.0, 0.0]))

    def test_sample_returns_members(self):
        rng = np.random.default_rng(0)
        ps = PointSet3(points=[(1.0, 0.0, 0.0)], generator=((0.0, 0.0, 3.0), 0.4))
        draws = ps.sample(rng, 100)
        assert draws.shape == (100, 3)
        assert ps.contains(draws).all()


class TestCollisionRegionIteration:
    def test_quadratic_ball_grows_beyond_its_radius(self, d_quad):
        seed = PointSet3(generator=((1.0, 0.0, 0.0), 0.3))
        history = iterate_collision_region(seed, d_quad, steps=3,
                                           samples_per_step=2000, rng_seed=0)
        assert len(history) == 3
        sizes = [h.n_points for h in history]
        assert sizes == sorted(sizes)
        assert history[-1].n_points > 0
        # the seed ball tops out at radius 1.3; resonant partners reach past it
        assert history[-1].max_radius > 1.31

    def test_general_dispersion_growth_factor(self, d_mid):
        # isosceles construction pushes the boundary by about (1 + s0) / 2
        s0 = digamma_root(d_mid, 1.0)
        seed = PointSet3(generator=((0.0, 0.0, 0.0), 1.0))
        history = iterate_collision_region(seed, d_mid, steps=1,
                                           samples_per_step=4000, rng_seed=1)
        grown = history[-1].max_radius
        assert grown > 0.97 * (1.0 + s0) / 2.0
        assert grown <= (1.0 + s0) / 2.0 * 1.0 + 1e-9

    def test_single_point_seed_stagnates_with_warning(self, d_quad, d_mid):
        for d in (d_quad, d_mid):
            seed = PointSet3(points=[(1.0, 0.0, 0.0)])
            with pytest.warns(RuntimeWarning, match="stagnation"):
                history = iterate_collision_region(seed, d, steps=1,
                                                   samples_per_step=200, rng_seed=2)
            assert history[-1].n_points == 1

    def test_validation(self, d_quad):
        seed = PointSet3(points=[(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            iterate_collision_region(seed, d_quad, steps=0)


class TestCoveringStatistics:
    def test_expectation_basics(self):
        assert cap_coverage_expectation(0.1, 1) == pytest.approx(0.1)
        assert cap_coverage_expectation(0.25, 2) == pytest.approx(1.0 - 0.75 ** 2)
        with pytest.raises(ValueError):
            cap_coverage_expectation(0.0, 3)
        with pytest.raises(ValueError):
            cap_coverage_expectation(0.5, 0)

    def test_expectation_matches_monte_carlo(self):
        results = check_covering([(0.1, 44)], [], 4.0, (7, 0), n_experiments=40)
        assert all(ok for ok, _ in results), results

    def test_one_experiment_has_no_standard_error(self):
        with pytest.raises(ValueError, match="n_experiments"):
            cap_coverage_mc(0.1, 44, n_experiments=1)

    def test_least_covering_caps_frozen(self):
        # (1 - 0.1)^N < 0.1 * 0.1 first at N = 44
        assert least_covering_caps(0.1) == 44
        assert 0.9 ** 44 < 0.01 <= 0.9 ** 43
        assert least_covering_caps(0.5) == 5

    def test_least_covering_caps_is_least(self):
        for q in (0.05, 0.1, 0.2, 0.5):
            n = least_covering_caps(q)
            assert (1.0 - q) ** n < 0.1 * q
            if n > 1:
                assert (1.0 - q) ** (n - 1) >= 0.1 * q

    def test_vcone_closed_form(self):
        R = 1.7
        assert vcone(R, 0.0) == pytest.approx(2.0 * math.pi / 3.0 * R ** 3)
        assert vcone(R, R) == 0.0
        assert vcone(2.0, 1.0) == pytest.approx(2.0 * math.pi / 3.0 * 4.0)

    def test_vcone_matches_monte_carlo(self):
        results = check_covering([], [(1.2, 0.5)], 3.5, (0, 3), n_experiments=40)
        assert all(ok for ok, _ in results), results

    def test_vcone_validation(self):
        with pytest.raises(ValueError):
            vcone(0.0, 0.0)
        with pytest.raises(ValueError):
            vcone(1.0, 1.5)
        with pytest.raises(ValueError):
            vcone(1.0, -0.1)


class TestExpandedRadius:
    def test_frozen_value(self):
        out = expanded_radius(0.1, 1.0)
        assert out.value == pytest.approx(math.sqrt(0.55) + 0.3 * math.sqrt(2.0),
                                          abs=1e-15)
        assert out.value == pytest.approx(1.1658839174214948, abs=1e-15)
        assert out.exceeds is True

    def test_zero_step_is_neutral(self):
        out = expanded_radius(0.0, 2.0)
        assert out.value == 2.0
        assert out.exceeds is False

    @pytest.mark.parametrize("frac", [1e-3, 2e-3, 1e-2, 1e-1])
    def test_small_steps_always_expand(self, frac):
        for R in (0.5, 1.0, 7.0):
            assert expanded_radius(frac * R, R).exceeds is True

    def test_scale_covariance(self):
        base = expanded_radius(0.1, 1.0).value
        assert expanded_radius(0.3, 3.0).value == pytest.approx(3.0 * base, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="expanded radius undefined"):
            expanded_radius(0.2, 1.0)  # 45 * 0.04 = 1.8 > 1
        with pytest.raises(ValueError):
            expanded_radius(-0.1, 1.0)
        with pytest.raises(ValueError):
            expanded_radius(0.1, 0.0)


class TestDigammaRoot:
    def test_frozen_root_alpha_three_halves(self, d_mid):
        s0 = digamma_root(d_mid, 1.0)
        assert s0 == pytest.approx(1.8657547793419673, abs=1e-12)
        # endpoint values of the bracket, frozen
        f2 = eval_omega(d_mid, 1.5) + eval_omega(d_mid, 0.5)
        assert f2 == pytest.approx(2.1906706976806576, abs=1e-14)
        assert 1.0 < 2.0 < f2  # the bracket straddles the target 2*omega(1)

    def test_quadratic_root_is_sqrt3(self, d_quad):
        # (1+s)^2 kappa^2 + (s-1)^2 kappa^2 = 2 R^2 with kappa = R/2
        # <=> s^2 + 1 = 4 <=> s = sqrt(3), independent of R
        for R in (0.5, 1.0, 2.0):
            assert digamma_root(d_quad, R) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_residual_bound_across_family(self):
        alphas = (1.1, 1.3, 1.5, 1.7, 1.9, 2.0)
        [(ok, line)] = check_spreading_root(alphas, (0.5, 1.0, 2.0))
        assert ok, line

    def test_scale_free_for_power_laws(self, d_mid):
        assert digamma_root(d_mid, 0.25) == pytest.approx(
            digamma_root(d_mid, 4.0), abs=1e-12
        )

    def test_root_decreases_with_alpha(self):
        roots = [digamma_root(DispersionRelation.power_law(a), 1.0)
                 for a in (1.1, 1.3, 1.5, 1.7, 1.9)]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_bracket_error_on_affine_stretch(self):
        # omega is exactly affine on [R/2, 3R/2] at R = 1, so the Jensen gap
        # at s = 2 is exactly zero and the strict bracket must fail
        def omega(r):
            if r <= 0.5:
                return r * r
            if r <= 1.5:
                return r - 0.25
            return 1.25 + (r - 1.5) + 0.25 * (r - 1.5) ** 2

        def omega_prime(r):
            if r <= 0.5:
                return 2.0 * r
            if r <= 1.5:
                return 1.0
            return 1.0 + 0.5 * (r - 1.5)

        d = DispersionRelation.custom(
            omega=omega,
            omega_prime=omega_prime,
            alpha=2.0,
            alpha_prime=2.0,
            c_omega_lower=0.0625,
            c_omega_upper=1.0,
            c_mho=2.0,
            iota=0.0,
        )
        with pytest.raises(BracketError, match="do not straddle"):
            digamma_root(d, 1.0)

    def test_validation(self, d_mid):
        with pytest.raises(ValueError):
            digamma_root(d_mid, 0.0)


class TestResonanceManifold:
    def test_opposite_pair_rejected(self, d_quad):
        with pytest.raises(ValueError, match="k2 \\+ k3 = 0"):
            ResonanceManifold(k2=np.array([1.0, 0.0, 0.0]),
                              k3=np.array([-1.0, 0.0, 0.0]), d=d_quad)

    def test_quadratic_radius_interval_is_the_sphere_range(self, d_quad):
        rng = np.random.default_rng(4)
        for _ in range(5):
            k2 = rng.uniform(-1.0, 1.0, 3)
            k3 = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(k2 + k3) < 0.3:
                continue
            m = ResonanceManifold(k2=k2, k3=k3, d=d_quad)
            center = float(np.linalg.norm(k2 + k3)) / 2.0
            rho0 = float(np.linalg.norm(k2 - k3)) / 2.0
            assert m.u_min == pytest.approx(abs(center - rho0), abs=1e-9)
            assert m.u_max == pytest.approx(center + rho0, abs=1e-9)

    def test_equal_pair_degenerates(self, d_quad):
        k = np.array([0.7, 0.2, 0.0])
        m = ResonanceManifold(k2=k, k3=k, d=d_quad)
        assert m.is_empty
        assert manifold_quadrature(m, lambda u: 1.0) == 0.0

    def test_partner_radius_closes_the_resonance(self, d_mid):
        m = ResonanceManifold(k2=np.array([0.9, 0.1, 0.0]),
                              k3=np.array([-0.2, 0.8, 0.3]), d=d_mid)
        for u in np.linspace(m.u_min, m.u_max, 7):
            v = m.partner_radius(float(u))
            total = eval_omega(d_mid, float(u)) + eval_omega(d_mid, v)
            assert total == pytest.approx(m.w_total, rel=1e-10)

    def test_quadratic_quadrature_matches_sphere_oracle(self, d_quad):
        rng = np.random.default_rng(12)
        for _ in range(5):
            k2 = rng.uniform(-1.0, 1.0, 3)
            k3 = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(k2 + k3) < 0.3 or np.linalg.norm(k2 - k3) < 0.2:
                continue
            coeffs = rng.uniform(-1.0, 1.0, 3)
            m = ResonanceManifold(k2=k2, k3=k3, d=d_quad)
            got = manifold_quadrature(
                m, lambda u: coeffs[0] + coeffs[1] * u + coeffs[2] * u * u
            )
            expected = sphere_manifold_oracle(k2, k3, coeffs)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_general_quadrature_matches_mollified_mc(self, d_mid):
        k2 = np.array([0.9, 0.1, 0.0])
        k3 = np.array([-0.2, 0.8, 0.3])
        m = ResonanceManifold(k2=k2, k3=k3, d=d_mid)
        exact = manifold_quadrature(m, lambda u: 1.0 + u)
        approx, stderr = mollified_delta_mc(
            d_mid, k2, k3, lambda rr: 1.0 + rr, n_samples=1_000_000, seed=5,
            n_batches=8,
        )
        assert np.isfinite(stderr)
        assert abs(approx - exact) <= max(4.0 * stderr, 0.02 * abs(exact))

    @pytest.mark.parametrize("n_samples, n_batches, match", [
        (10_000, 1, "n_batches"), (10_000, 0, "n_batches"), (3, 4, "n_samples"),
        (10_000, 3, "divide"),
    ])
    def test_mollified_mc_needs_a_standard_error(self, d_mid, n_samples, n_batches,
                                                 match):
        with pytest.raises(ValueError, match=match):
            mollified_delta_mc(d_mid, [0.9, 0.1, 0.0], [-0.2, 0.8, 0.3], lambda rr: rr,
                               n_samples=n_samples, seed=1, n_batches=n_batches)

    def test_gauss_kronrod_rule_is_exact_on_polynomials(self):
        # the 21-point Kronrod rule has degree 31 and its 10-point Gauss rule
        # degree 19, which pins every digit of the literal nodes and weights
        for k in range(32):
            val, gap = _gauss_kronrod21(lambda x: x ** k, 0.0, 1.0)
            assert abs(val - 1.0 / (k + 1)) <= 1e-15, k
            assert (gap <= 1e-15) == (k < 20), k

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
    def test_quadrature_matches_mpmath_oracle(self, alpha):
        # near-singular pairs: for small |k2| the partner radius v(u) nearly
        # vanishes at u_max, where mho(v) = v^(2-alpha)/alpha has a branch point
        mpmath = pytest.importorskip("mpmath")
        d = DispersionRelation.power_law(alpha)
        rng = np.random.default_rng(int(alpha * 10))
        pairs = [((s, 0.0, 0.0), (0.0, 1.0, 1.0)) for s in (0.1, 0.03, 0.01, 0.003, 1e-4)]
        pairs += [(rng.normal(size=3), rng.normal(size=3)) for _ in range(15)]
        for k2, k3 in pairs:
            coeffs = rng.uniform(-1.0, 1.0, 3)
            m = ResonanceManifold(k2=np.asarray(k2), k3=np.asarray(k3), d=d)
            got = manifold_quadrature(
                m, lambda u: coeffs[0] + coeffs[1] * u + coeffs[2] * u * u
            )
            want, abs_want, oracle_err = _mpmath_manifold_integral(
                mpmath, alpha, k2, k3, coeffs, m.u_min, m.u_max
            )
            assert oracle_err <= 1e-15 * abs_want
            assert abs(got - want) <= 1e-9 * abs_want, (k2, k3, coeffs)

    def test_unconverged_quadrature_warns(self, d_mid):
        m = ResonanceManifold(k2=np.array([0.9, 0.1, 0.0]),
                              k3=np.array([-0.2, 0.8, 0.3]), d=d_mid)
        with pytest.warns(RuntimeWarning, match="manifold quadrature error estimate"):
            manifold_quadrature(m, lambda u: math.sin(1e4 * u))


def _mpmath_manifold_integral(mpmath, alpha, k2, k3, coeffs, a, b):
    """(integral, integral of |f|, error estimate) of the power-law manifold
    quadrature of the polynomial ``coeffs`` over [a, b], to 30 digits.

    f(u) = poly(u) * u * mho(v) with v^alpha = W - u^alpha, clamped at 0 so
    the rounded endpoints cannot leave the domain.  [a, b] is cut at the
    polynomial's roots, where |f| has kinks, and geometrically toward each
    end that lies within a panel width of a branch point of f (u = 0, and
    u = W^(1/alpha) where v = 0), so tanh-sinh sees no near singularity.
    """
    with mpmath.workdps(30):
        mpf = mpmath.mpf
        al = mpf(alpha)
        k2 = [mpf(float(x)) for x in k2]
        k3 = [mpf(float(x)) for x in k3]
        W = mpmath.norm(k2) ** al + mpmath.norm(k3) ** al
        gnorm = mpmath.norm([x + y for x, y in zip(k2, k3)])
        c0, c1, c2 = (mpf(float(c)) for c in coeffs)
        power = (2 - al) / al

        def f(u):
            return (c0 + c1 * u + c2 * u * u) * u * max(W - u ** al, 0) ** power / al

        a, b = mpf(a), mpf(b)
        cuts = {a, b}
        for end, gap, sign in ((a, a, 1), (b, W ** (1 / al) - b, -1)):
            width = (b - a) / 8
            while width > gap > 0:
                cuts.add(end + sign * width)
                width /= 8
        disc = c1 * c1 - 4 * c0 * c2
        if disc > 0:
            for root in ((-c1 - mpmath.sqrt(disc)) / (2 * c2),
                         (-c1 + mpmath.sqrt(disc)) / (2 * c2)):
                if a < root < b:
                    cuts.add(root)
        cuts = sorted(cuts)
        pieces = [mpmath.quad(f, [p, q], method="tanh-sinh", error=True)
                  for p, q in zip(cuts, cuts[1:])]
        scale = 2 * mpmath.pi / gnorm
        return (float(scale * mpmath.fsum(v for v, _ in pieces)),
                float(scale * mpmath.fsum(abs(v) for v, _ in pieces)),
                float(scale * mpmath.fsum(e for _, e in pieces)))


class TestMonteCarloStreams:
    """Frozen estimates: block sizes and norm formulas may change, the drawn
    numbers and the arithmetic on each sample may not."""

    def test_mollified_delta_mc_is_frozen(self, d_mid):
        got = mollified_delta_mc(d_mid, [0.9, 0.1, 0.0], [-0.2, 0.8, 0.3],
                                 lambda r: 1 + r, n_samples=1_000_000, seed=5,
                                 n_batches=8)
        assert got == (5.254776773225338, 0.04994481201304277)

    def test_vcone_mc_is_frozen(self):
        assert vcone_mc(2.0, 1.5, seed=2) == (4.220625010342768, 0.017579876715528398)

    def test_cap_coverage_mc_is_frozen(self):
        got = cap_coverage_mc(0.1, 44, n_experiments=60, seed=1)
        assert got == (0.9917166666666668, 0.0012074022323398015)

    def test_mollified_delta_mc_spans_chunks(self, d_mid):
        # 2.5M samples per batch: a 2M chunk and a 0.5M chunk from one stream
        got = mollified_delta_mc(d_mid, [0.9, 0.1, 0.0], [-0.2, 0.8, 0.3],
                                 lambda r: 1 + r, n_samples=5_000_000, seed=3,
                                 n_batches=2)
        assert got == (5.298418664896985, 0.029063431442704953)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 2 ** 14 - 1, 2 ** 14,
                                   2 ** 14 + 1, 125_000, 10 ** 6, 2 * 10 ** 6])
    def test_block_sums_add_up_as_np_sum(self, n):
        # pins NumPy's pairwise order, which keeps the chunk sums frozen
        # without storing the products
        x = 10.0 ** np.random.default_rng(n).uniform(-4.0, 4.0, n)
        blocks = []

        def leaf(lo, m):
            blocks.append(m)
            return np.sum(x[lo:lo + m])

        assert _pairwise(leaf, 0, n) == np.sum(x)
        assert sum(blocks) == n and max(blocks) <= _BLOCK_ROWS

    def test_mollified_delta_mc_working_set(self, d_mid):
        # whole-chunk temporaries peaked at 145 MiB here; now only one chunk's
        # normals are kept at chunk length
        tracemalloc.start()
        try:
            mollified_delta_mc(d_mid, [0.9, 0.1, 0.0], [-0.2, 0.8, 0.3],
                               lambda r: 1 + r, n_samples=2_000_000, seed=5,
                               n_batches=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2 ** 20

    def test_mollified_delta_mc_keeps_only_the_normals(self, d_mid):
        # one batch's normals are 22.9 MiB; keeping its uniforms and products
        # as well peaked at 47.3 MiB
        peak = _traced_peak(lambda: mollified_delta_mc(
            d_mid, [0.9, 0.1, 0.0], [-0.2, 0.8, 0.3], lambda r: 1 + r,
            n_samples=2_000_000, seed=5, n_batches=2))
        assert peak <= 26 * 2 ** 20

    def test_vcone_mc_keeps_only_the_normals(self):
        # the normals are 9.2 MiB; full-length uniforms, radii and points
        # peaked at 30.5 MiB
        assert _traced_peak(lambda: vcone_mc(2.0, 1.5, seed=2)) <= 12 * 2 ** 20


def _traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
