"""Geometric machinery: collision-region growth, cap covering, resonance manifolds.

Three independent constructions live here.

1. Collision-region iteration: grow a set of wavenumbers by repeatedly
   forming k = k1 + k2 - k3 with all of (k1, k2, k3) in the current set and
   (k, k3) frequency-resonant with (k1, k2).  For the quadratic dispersion
   the resonant k fill the sphere with diameter [k1, k2]; for general convex
   power laws the growth direction is the axis of an isosceles pair at
   opening angle 2*pi/3, where the resonance reduces to a 1-D root problem
   (see digamma_root).

2. Sphere-cap covering statistics: the expected covered fraction after
   dropping N independent caps of area fraction q is 1 - (1-q)**N, plus the
   spherical-cone volume that converts cap geometry to the fraction q.

3. Resonance-manifold quadrature: for fixed k2, k3 the set
   G(x) = omega(|gamma - x|) + omega(|x|) - omega(|k2|) - omega(|k3|) = 0,
   gamma = k2 + k3, is a surface of revolution around gamma; the measure
   d(mu)/|grad G| reduces to a 1-D integral in u = |x| with weight
   u * mho(v(u)) * 2*pi/|gamma|, where v(u) is the partner radius forced by
   the resonance.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from wavekin.dispersion import (
    BracketError,
    DispersionRelation,
    _bisect,
    eval_mho,
    eval_omega,
    invert_omega,
)

__all__ = [
    "PointSet3",
    "ResonanceManifold",
    "iterate_collision_region",
    "cap_coverage_expectation",
    "least_covering_caps",
    "vcone",
    "ExpandedRadius",
    "expanded_radius",
    "BracketError",
    "digamma_root",
    "manifold_quadrature",
]

_ORIGIN_EPS = 1e-12
# candidate pairs per chunk of PointSet3.contains' queries, plus one query's
_PAIRS = 2 ** 16


# --- point sets and collision-region iteration -------------------------------


class PointSet3:
    """A finite stand-in for a region of wavenumber space, origin excluded.

    Membership is relaxed for Monte-Carlo use: x belongs to the set when it
    lies inside the optional generator ball or within ``tol`` of a stored
    point.  The origin never belongs, whatever the stored points say.
    """

    def __init__(
        self,
        points: Sequence[Sequence[float]] = (),
        generator: Optional[Tuple[Sequence[float], float]] = None,
        tol: Optional[float] = None,
    ):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if pts.size:
            keep = np.linalg.norm(pts, axis=1) > _ORIGIN_EPS
            pts = pts[keep]
        self.points = pts
        if generator is not None:
            center = np.asarray(generator[0], dtype=float).reshape(3)
            radius = float(generator[1])
            if radius <= 0.0:
                raise ValueError(f"generator radius must be positive, got {radius}")
            self.generator = (center, radius)
        else:
            self.generator = None
        if self.points.shape[0] == 0 and self.generator is None:
            raise ValueError("point set needs stored points or a generator ball")
        scale = self.max_radius
        self.tol = float(tol) if tol is not None else 1e-3 * scale
        if self.tol <= 0.0:
            raise ValueError(f"membership tolerance must be positive, got {self.tol}")
        # the membership index: x, y and z of the stored points, in order of x
        self._by_x = self.points[np.argsort(self.points[:, 0], kind="stable")].T.copy()

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def max_radius(self) -> float:
        best = 0.0
        if self.points.shape[0]:
            best = float(np.max(np.linalg.norm(self.points, axis=1)))
        if self.generator is not None:
            center, radius = self.generator
            best = max(best, float(np.linalg.norm(center)) + radius)
        return best

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (N, 3) array (or a single point)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = x.reshape(-1, 3)
        ok = np.zeros(x.shape[0], dtype=bool)
        if self.generator is not None:
            center, radius = self.generator
            ok |= np.linalg.norm(x - center, axis=1) <= radius
        if self.n_points:
            if not np.isfinite(x).all():
                raise ValueError("query points must be finite")
            # a query's candidates: the stored points with x within tol of its x
            lo = np.searchsorted(self._by_x[0], x[:, 0] - self.tol, "left")
            counts = np.searchsorted(self._by_x[0], x[:, 0] + self.tol, "right") - lo
            begins = np.cumsum(counts) - counts
            start = 0
            while start < x.shape[0]:
                stop = int(np.searchsorted(begins, begins[start] + _PAIRS, "right"))
                rows = np.repeat(np.arange(start, stop), counts[start:stop])
                cand = np.arange(begins[start], begins[start] + rows.size) + (lo - begins)[rows]
                d2 = sum((p[cand] - q[rows]) ** 2 for p, q in zip(self._by_x, x.T))
                ok[rows[d2 <= self.tol ** 2]] = True
                start = stop
        ok &= np.linalg.norm(x, axis=1) > _ORIGIN_EPS
        return bool(ok[0]) if single else ok

    def with_points_added(self, new_points: np.ndarray) -> "PointSet3":
        new_points = np.asarray(new_points, dtype=float).reshape(-1, 3)
        return PointSet3(np.vstack([self.points, new_points]), self.generator, self.tol)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n members: uniformly from the ball, uniformly among points."""
        from_ball = 0
        if self.generator is not None:
            from_ball = n if self.n_points == 0 else n // 2
        out = np.empty((n, 3))
        if from_ball:
            center, radius = self.generator
            u = rng.normal(size=(from_ball, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            rad = radius * rng.uniform(size=(from_ball, 1)) ** (1.0 / 3.0)
            out[:from_ball] = center + rad * u
        rest = n - from_ball
        if rest:
            idx = rng.integers(0, self.n_points, size=rest)
            out[from_ball:] = self.points[idx]
        return out


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _perp_units(rng: np.random.Generator, axes: np.ndarray) -> np.ndarray:
    """Random unit vectors orthogonal to each row of ``axes``."""
    trial = rng.normal(size=axes.shape)
    hats = _unit(axes)
    trial -= np.sum(trial * hats, axis=1, keepdims=True) * hats
    # a vanishing projection is measure-zero; resample those rows is overkill
    return _unit(trial)


def iterate_collision_region(
    seed: PointSet3,
    d: DispersionRelation,
    steps: int,
    samples_per_step: int = 2000,
    rng_seed: int = 0,
) -> List[PointSet3]:
    """Monte-Carlo growth of the collisional closure of ``seed``.

    Per step: draw (k1, k2) from the cumulative set, build a resonant partner
    pair (k, k3) with k + k3 = k1 + k2 and matching total frequency, and keep
    k whenever k3 already belongs to the set.  Returns the cumulative set
    after each step.  A step that adds no new point emits a stagnation
    warning (a single-point seed does this immediately).

    Quadratic dispersion: k is uniform on the sphere with diameter [k1, k2]
    (those are exactly the resonant partners).  Other power laws: k2 is
    re-drawn as a rotation of k1 by 2*pi/3 so the pair is isosceles, and the
    resonant k sits on the pair axis beyond the midpoint, at the parameter
    found by the spreading-root bisection; k2 itself must pass the membership
    test.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = np.random.default_rng(rng_seed)
    quadratic = d.kind == "power_law" and d.alpha == 2.0

    history: List[PointSet3] = []
    current = seed
    for _ in range(steps):
        k1 = current.sample(rng, samples_per_step)
        ok = np.linalg.norm(k1, axis=1) > _ORIGIN_EPS
        k1[~ok] = (1.0, 0.0, 0.0)  # placeholder; these rows stay rejected
        if quadratic:
            k2 = current.sample(rng, samples_per_step)
            in_set2 = np.ones(samples_per_step, dtype=bool)
        else:
            # isosceles pair: rotate k1 by 2*pi/3 around a random orthogonal axis
            hats = _unit(k1)
            perp = _perp_units(rng, k1)
            radii = np.linalg.norm(k1, axis=1, keepdims=True)
            k2 = radii * (math.cos(2.0 * math.pi / 3.0) * hats
                          + math.sin(2.0 * math.pi / 3.0) * perp)
            in_set2 = current.contains(k2)
        total = k1 + k2
        ok &= in_set2 & (np.linalg.norm(total, axis=1) > _ORIGIN_EPS)

        if quadratic:
            center = 0.5 * total
            rad = 0.5 * np.linalg.norm(k1 - k2, axis=1)
            u = rng.normal(size=(samples_per_step, 3))
            u = _unit(u)
            k = center + rad[:, None] * u
        else:
            radii = np.linalg.norm(k1, axis=1)
            axis = np.zeros_like(total)
            axis[ok] = _unit(total[ok])
            s0 = np.empty(samples_per_step)
            if d.kind == "power_law":
                # s0 is scale-free for pure power laws: solve once
                s_common = digamma_root(d, 1.0)
                s0.fill(s_common)
            else:
                for idx in np.flatnonzero(ok):
                    s0[idx] = digamma_root(d, float(radii[idx]))
            kappa = 0.5 * radii
            k = (1.0 + s0)[:, None] * kappa[:, None] * axis

        k3 = total - k
        ok &= np.linalg.norm(k, axis=1) > _ORIGIN_EPS
        ok &= current.contains(k3)
        fresh = ok & ~current.contains(k)
        added = k[fresh]
        if added.shape[0] == 0:
            warnings.warn(
                "collision-region step added no new points (stagnation)",
                RuntimeWarning,
                stacklevel=2,
            )
        current = current.with_points_added(added)
        history.append(current)
    return history


# --- covering statistics ------------------------------------------------------


def cap_coverage_expectation(q: float, N: int) -> float:
    """Expected covered fraction of the sphere after N caps of area fraction q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"cap fraction q must lie in (0, 1), got {q}")
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return 1.0 - (1.0 - q) ** N


def least_covering_caps(q: float) -> int:
    """Smallest N with (1-q)**N < q * 0.1."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"cap fraction q must lie in (0, 1), got {q}")
    target = q * 0.1
    n = max(1, int(math.log(target) / math.log(1.0 - q)))
    while (1.0 - q) ** n >= target:
        n += 1
    while n > 1 and (1.0 - q) ** (n - 1) < target:
        n -= 1
    return n


def vcone(R: float, rho: float) -> float:
    """Volume of the spherical cone {x in B(0,R) : x . sigma >= |x| rho / R}.

    This is the solid sector subtending the cap of height R - rho:
    (2*pi/3) * R^2 * (R - rho).  rho = 0 gives the half ball, rho = R gives 0.
    """
    if not R > 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if not 0.0 <= rho <= R:
        raise ValueError(f"rho must lie in [0, R], got {rho}")
    return (2.0 * math.pi / 3.0) * R * R * (R - rho)


class ExpandedRadius(NamedTuple):
    value: float
    exceeds: bool


def expanded_radius(r: float, R: float) -> ExpandedRadius:
    """The reach sqrt(R^2 - 45 r^2) + 3 sqrt(2) r of one covering-driven step.

    Defined for R^2 >= 45 r^2; the paired flag reports whether the reach
    strictly exceeds R, i.e. whether the step actually grows the region.
    """
    if not R > 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if r < 0.0:
        raise ValueError(f"r must be nonnegative, got {r}")
    disc = R * R - 45.0 * r * r
    if disc < 0.0:
        raise ValueError(
            f"expanded radius undefined: R^2 = {R*R:g} < 45 r^2 = {45*r*r:g}"
        )
    value = math.sqrt(disc) + 3.0 * math.sqrt(2.0) * r
    return ExpandedRadius(value=value, exceeds=value > R)


# --- spreading root -----------------------------------------------------------


def digamma_root(d: DispersionRelation, R: float) -> float:
    """Root s0 in (1, 2) of omega((1+s) R/2) + omega((s-1) R/2) = 2 omega(R).

    This locates the resonant partner along the axis of an isosceles pair of
    radius-R wavenumbers at opening angle 2*pi/3 (half-spacing kappa = R/2).
    The left side is increasing in s, the bracket [1, 2] is verified before
    bisecting, and the returned root satisfies an absolute residual <= 1e-10.
    """
    if not R > 0.0:
        raise ValueError(f"R must be positive, got {R}")
    kappa = 0.5 * R
    target = 2.0 * eval_omega(d, R)

    def f(s: float) -> float:
        return eval_omega(d, (1.0 + s) * kappa) + eval_omega(d, (s - 1.0) * kappa) - target

    f1, f2 = f(1.0), f(2.0)
    if not (f1 < 0.0 < f2):
        raise BracketError(
            f"spreading-root bracket failed on [1, 2] for R={R:g}: "
            f"endpoint values {f1 + target:g} and {f2 + target:g} "
            f"do not straddle the target 2*omega(R) = {target:g}"
        )
    s0 = _bisect(f, 1.0, 2.0)
    resid = abs(f(s0))
    if resid > 1e-10:
        raise ArithmeticError(
            f"spreading-root residual {resid:g} exceeds 1e-10 at s0={s0!r}"
        )
    return s0


# --- resonance manifolds -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResonanceManifold:
    """The resonant partners of a fixed outgoing pair (k2, k3).

    Points x with G(x) = omega(|gamma - x|) + omega(|x|) - W = 0, where
    gamma = k2 + k3 and W = omega(|k2|) + omega(|k3|).  The admissible radius
    interval [A, B] for u = |x| is located by bisection at construction; the
    manifold is a surface of revolution around gamma and may degenerate to a
    point (empty ``u`` interval) when k2 = k3.
    """

    k2: np.ndarray
    k3: np.ndarray
    d: DispersionRelation
    gnorm: float = field(init=False)
    w_total: float = field(init=False)
    u_min: float = field(init=False)
    u_max: float = field(init=False)

    def __post_init__(self):
        k2 = np.asarray(self.k2, dtype=float).reshape(3)
        k3 = np.asarray(self.k3, dtype=float).reshape(3)
        gamma = k2 + k3
        gnorm = float(np.linalg.norm(gamma))
        if gnorm <= _ORIGIN_EPS:
            raise ValueError("k2 + k3 = 0 is excluded: the manifold degenerates")
        w_total = eval_omega(self.d, float(np.linalg.norm(k2))) + eval_omega(
            self.d, float(np.linalg.norm(k3))
        )
        d = self.d

        def q(u: float) -> float:
            return eval_omega(d, abs(gnorm - u)) + eval_omega(d, u) - w_total

        def p(u: float) -> float:
            return eval_omega(d, gnorm + u) + eval_omega(d, u) - w_total

        u_hi = invert_omega(d, w_total)
        mid = 0.5 * gnorm
        # Inner endpoint: either the near-collinear configuration between the
        # origin and gamma (q = 0) or, when even the origin is too close in
        # frequency, the anti-collinear one (p = 0).
        if q(0.0) >= 0.0:
            a = _bisect(lambda u: -q(u), 0.0, mid) if q(mid) <= 0.0 else mid
        else:
            a = _bisect(p, 0.0, u_hi)
        b = _bisect(q, mid, u_hi) if q(mid) <= 0.0 else mid

        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "k3", k3)
        object.__setattr__(self, "gnorm", gnorm)
        object.__setattr__(self, "w_total", w_total)
        object.__setattr__(self, "u_min", float(a))
        object.__setattr__(self, "u_max", float(b))

    @property
    def is_empty(self) -> bool:
        return self.u_max - self.u_min <= 1e-12 * max(1.0, self.u_max)

    def partner_radius(self, u: float) -> float:
        """|gamma - x| forced by the resonance at |x| = u."""
        w_left = self.w_total - eval_omega(self.d, u)
        return invert_omega(self.d, max(w_left, 0.0))


# 21-point Gauss-Kronrod rule on [-1, 1], as in QUADPACK's qk21 (Piessens et
# al. 1983): the Kronrod nodes x > 0 in decreasing order, then x = 0, with their
# weights; the odd-indexed positive nodes are the 10-point Gauss-Legendre nodes,
# with the weights _GAUSS10_W.  Literals, so importing the module computes none.
_KRONROD21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD21_W = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980298000, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS10_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same rules over all 21 nodes, ordered from -1 to 1; the Gauss rule has
# weight 0 at the Kronrod-only nodes
_GK21_NODES = np.array([-x for x in _KRONROD21_X[:-1]] + list(_KRONROD21_X[::-1]))
_GK21_WEIGHTS = np.array(_KRONROD21_W[:-1] + _KRONROD21_W[::-1])
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1:10:2] = _GAUSS10_W
_G10_WEIGHTS[11:] = _G10_WEIGHTS[9::-1]


def _gauss_kronrod21(f: Callable[[float], float], lo: float, hi: float
                     ) -> Tuple[float, float]:
    """(21-point Kronrod estimate of int_lo^hi f, its gap to the 10-point Gauss one).

    The gap bounds the Gauss rule's error, so it overstates the Kronrod
    rule's: a conservative error estimate.
    """
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * _GK21_NODES
    fx = np.array([f(x) for x in nodes.tolist()])
    kronrod = half * float(_GK21_WEIGHTS @ fx)
    return kronrod, abs(kronrod - half * float(_G10_WEIGHTS @ fx))


def _adaptive_gauss_kronrod(f: Callable[[float], float], lo: float, hi: float,
                            epsabs: float, epsrel: float, limit: int
                            ) -> Tuple[float, float]:
    """Globally adaptive Gauss-Kronrod quadrature: (value, error estimate).

    Bisects the panel with the largest error estimate until the summed
    estimate meets max(epsabs, epsrel * |value|), there are ``limit`` panels,
    or that panel is too narrow to bisect in floating point.
    """
    val, err = _gauss_kronrod21(f, lo, hi)
    panels = [(-err, lo, hi, val)]  # a heap: the largest error comes first
    while err > max(epsabs, epsrel * abs(val)) and len(panels) < limit:
        a, b = panels[0][1:3]
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        heapq.heappop(panels)
        for p, q in ((a, mid), (mid, b)):
            v, e = _gauss_kronrod21(f, p, q)
            heapq.heappush(panels, (-e, p, q, v))
        val = math.fsum(panel[3] for panel in panels)
        err = -math.fsum(panel[0] for panel in panels)
    return val, err


def manifold_quadrature(m: ResonanceManifold, integrand: Callable[[float], float]) -> float:
    """Integral of a radial function over the manifold against d(mu)/|grad G|.

    Reduces to (2*pi/|gamma|) * int_A^B integrand(u) * u * mho(v(u)) du with
    v(u) the resonance partner radius; ``integrand`` is called on floats.  An
    empty admissible interval yields exactly 0 (check ``m.is_empty`` to
    distinguish that case).

    The 1-D integral is an adaptive 21-point Gauss-Kronrod rule (NumPy only)
    to epsabs = 1e-12, epsrel = 1e-9, on at most 200 panels.  Its error
    estimate is the gap to the embedded 10-point Gauss rule, which overstates
    the Kronrod rule's error, also where mho(v) has a branch point just
    beyond B (v -> 0 there when |k2| or |k3| is small).  A RuntimeWarning
    reports an error estimate above both 1e-6 of the value and 1e-10.
    """
    if m.is_empty:
        return 0.0
    d = m.d

    def f(u: float) -> float:
        v = m.partner_radius(u)
        return integrand(u) * u * eval_mho(d, v)

    val, abserr = _adaptive_gauss_kronrod(f, m.u_min, m.u_max,
                                          epsabs=1e-12, epsrel=1e-9, limit=200)
    scale = max(abs(val), 1e-30)
    if abserr > 1e-6 * scale and abserr > 1e-10:
        warnings.warn(
            f"manifold quadrature error estimate {abserr:g} is large relative "
            f"to the value {val:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return 2.0 * math.pi / m.gnorm * val
