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
        # SciPy is imported here, not at module level, so that importing the
        # package (and running ``simulate``) never loads it
        from scipy.spatial import cKDTree

        self._tree = cKDTree(self.points) if self.points.shape[0] else None

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
        norms = np.linalg.norm(x, axis=1)
        ok = np.zeros(x.shape[0], dtype=bool)
        if self.generator is not None:
            center, radius = self.generator
            ok |= np.linalg.norm(x - center, axis=1) <= radius
        if self._tree is not None:
            dist, _ = self._tree.query(x)
            ok |= dist <= self.tol
        ok &= norms > _ORIGIN_EPS
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


def manifold_quadrature(m: ResonanceManifold, integrand: Callable[[float], float]) -> float:
    """Integral of a radial function over the manifold against d(mu)/|grad G|.

    Reduces to (2*pi/|gamma|) * int_A^B integrand(u) * u * mho(v(u)) du with
    v(u) the resonance partner radius.  An empty admissible interval yields
    exactly 0 (check ``m.is_empty`` to distinguish that case).
    """
    from scipy import integrate

    if m.is_empty:
        return 0.0
    d = m.d

    def f(u: float) -> float:
        v = m.partner_radius(u)
        return integrand(u) * u * eval_mho(d, v)

    val, abserr = integrate.quad(
        f, m.u_min, m.u_max, limit=200, epsabs=1e-12, epsrel=1e-9
    )
    scale = max(abs(val), 1e-30)
    if abserr > 1e-6 * scale and abserr > 1e-10:
        warnings.warn(
            f"manifold quadrature error estimate {abserr:g} is large relative "
            f"to the value {val:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return 2.0 * math.pi / m.gnorm * val
