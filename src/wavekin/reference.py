"""Independent reference computations for the verification suites.

Everything here deliberately avoids the package's closed forms and quadrature
reductions: sphere areas are counted by Monte-Carlo membership, manifold
integrals are done either with the quadratic-case exact formula or by a
mollified-delta volume integral, and polynomial integrals are evaluated from
antiderivatives.  Agreement between these and the production code is the
evidence the verify commands and the acceptance tests report.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from wavekin.dispersion import DispersionRelation, eval_omega, invert_omega

__all__ = [
    "sphere_manifold_oracle",
    "mollified_delta_mc",
    "cap_coverage_mc",
    "vcone_mc",
]

#: Uniform test points per cap_coverage_mc experiment; one flipped point moves
#: an experiment's covered fraction by 1/CAP_POINTS.
CAP_POINTS = 2000

#: Ball samples per vcone_mc estimate.
VCONE_SAMPLES = 400_000

# Samples per block of mollified_delta_mc's arithmetic: its temporaries stay
# in cache, while the random draws keep their chunk sizes.
_BLOCK_ROWS = 2 ** 14


def _norm3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(x*x + y*y + z*z).

    For the columns of an (N, 3) array, ``_norm3(*a.T)``, this equals
    np.linalg.norm(a, axis=1) bit for bit, since that adds the same three
    squares in the same order, but it builds no (N, 3) array of squares and
    reduces no axis of length 3.
    """
    return np.sqrt(x * x + y * y + z * z)


def sphere_manifold_oracle(
    k2: Sequence[float],
    k3: Sequence[float],
    poly_coeffs: Sequence[float],
) -> float:
    """Exact manifold integral for the quadratic dispersion, polynomial integrand.

    For omega = |k|^2 the resonance set of (k2, k3) is the sphere with
    diameter [k2, k3]; |grad G| = 2 |2x - gamma| is the constant 4 rho0 on it
    (rho0 the sphere radius).  Integrating a radial polynomial against the
    surface measure / |grad G| gives

        (pi / (2 D)) * int_{|D - rho0|}^{D + rho0} u * poly(u) du,

    D = |gamma| / 2, evaluated here from antiderivatives, term by term.
    """
    k2 = np.asarray(k2, dtype=float).reshape(3)
    k3 = np.asarray(k3, dtype=float).reshape(3)
    gamma = k2 + k3
    D = 0.5 * float(np.linalg.norm(gamma))
    if D <= 0.0:
        raise ValueError("k2 + k3 = 0 has no manifold")
    rho0 = 0.5 * float(np.linalg.norm(k2 - k3))
    lo, hi = abs(D - rho0), D + rho0
    total = 0.0
    for k, c in enumerate(poly_coeffs):
        total += c * (hi ** (k + 2) - lo ** (k + 2)) / (k + 2)
    return math.pi / (2.0 * D) * total


def mollified_delta_mc(
    d: DispersionRelation,
    k2: Sequence[float],
    k3: Sequence[float],
    integrand: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    seed: int,
    n_batches: int,
) -> Tuple[float, float]:
    """Monte-Carlo manifold integral via a mollified delta of the defect G.

    Samples uniformly in the origin-centered ball that contains the manifold,
    evaluates a Gaussian delta_eps(G(x)) at two widths (eps = 0.03 times the
    manifold's frequency, and eps/2, on the same samples), and
    Richardson-extrapolates the O(eps^2) mollification bias to zero.  Returns
    (estimate, standard error of the extrapolated value).

    ``n_batches`` splits the samples into independently seeded streams; the
    result is deterministic for a fixed (seed, n_batches) pair and the spread
    across batches provides the error estimate, so ValueError is raised
    unless 2 <= n_batches <= n_samples and n_batches divides n_samples.
    Each stream is drawn in chunks of up to 2M samples, and each chunk is
    evaluated in blocks of _BLOCK_ROWS samples (``integrand`` is called once
    per block, elementwise on an array of radii); every chunk's products are
    summed at once, so the estimate does not depend on the block size.
    """
    if n_batches < 2:
        raise ValueError(f"n_batches must be >= 2 for a standard error, got {n_batches}")
    if n_samples < n_batches:
        raise ValueError(f"n_samples ({n_samples}) must be at least n_batches ({n_batches})")
    if n_samples % n_batches:
        raise ValueError(f"n_batches ({n_batches}) must divide n_samples ({n_samples})")
    k2 = np.asarray(k2, dtype=float).reshape(3)
    k3 = np.asarray(k3, dtype=float).reshape(3)
    gamma = k2 + k3
    if float(np.linalg.norm(gamma)) <= 0.0:
        raise ValueError("k2 + k3 = 0 has no manifold")
    w_total = eval_omega(d, float(np.linalg.norm(k2))) + eval_omega(
        d, float(np.linalg.norm(k3))
    )
    radius = invert_omega(d, w_total) * 1.02
    volume = 4.0 / 3.0 * math.pi * radius ** 3
    eps1 = 0.03 * w_total
    eps2 = 0.5 * eps1

    def chunk_sums(rng: np.random.Generator, take: int) -> Tuple[float, float]:
        """Sums of phi * delta_eps over ``take`` fresh samples, at both widths."""
        normals = rng.normal(size=(take, 3))
        uniforms = rng.uniform(size=(take, 1))
        terms = np.empty((2, take))
        for lo in range(0, take, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            u = normals[rows].T
            rx = radius * uniforms[rows, 0] ** (1.0 / 3.0)
            u_norm = _norm3(*u)
            # the components of gamma - x, x = rx * u / |u|
            a = [gj - rx * (uj / u_norm) for gj, uj in zip(gamma.tolist(), u)]
            g = eval_omega(d, _norm3(*a)) + eval_omega(d, rx) - w_total
            phi = integrand(rx)
            for eps, out in zip((eps1, eps2), terms):
                dens = np.exp(-0.5 * (g / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
                np.multiply(phi, dens, out=out[rows])
        return float(np.sum(terms[0])), float(np.sum(terms[1]))

    per_batch = n_samples // n_batches
    est1 = np.empty(n_batches)
    est2 = np.empty(n_batches)
    chunk = 2_000_000
    for b in range(n_batches):
        rng = np.random.default_rng([seed, b])
        s1 = 0.0
        s2 = 0.0
        left = per_batch
        while left > 0:
            take = min(chunk, left)
            left -= take
            t1, t2 = chunk_sums(rng, take)
            s1 += t1
            s2 += t2
        est1[b] = volume * s1 / per_batch
        est2[b] = volume * s2 / per_batch

    extrap = (4.0 * est2 - est1) / 3.0
    stderr = float(np.std(extrap, ddof=1) / math.sqrt(n_batches))
    return float(np.mean(extrap)), stderr


def cap_coverage_mc(
    q: float,
    N: int,
    n_experiments: int = 40,
    seed: int = 0,
) -> Tuple[float, float]:
    """Measured covered fraction after dropping N random caps of area fraction q.

    Each experiment drops its own caps and measures the covered fraction of
    CAP_POINTS fresh uniform test points; returns (mean fraction, standard
    error of the mean), so ValueError is raised for n_experiments < 2.  A cap
    of area fraction q covers directions within angular cosine 1 - 2q of its
    center.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n_experiments < 2:
        raise ValueError(f"n_experiments must be >= 2 for a standard error, "
                         f"got {n_experiments}")
    cos_thresh = 1.0 - 2.0 * q
    fractions = np.empty(n_experiments)
    for e in range(n_experiments):
        rng = np.random.default_rng([seed, 0, e])
        axes = rng.normal(size=(N, 3))
        axes /= _norm3(*axes.T)[:, None]
        pts = rng.normal(size=(CAP_POINTS, 3))
        pts /= _norm3(*pts.T)[:, None]
        covered = (pts @ axes.T) >= cos_thresh
        fractions[e] = float(np.mean(np.any(covered, axis=1)))
    mean = float(np.mean(fractions))
    stderr = float(np.std(fractions, ddof=1) / math.sqrt(n_experiments))
    return mean, stderr


def vcone_mc(
    R: float,
    rho: float,
    seed: int = 0,
) -> Tuple[float, float]:
    """Monte-Carlo volume of {x in B(0, R) : x . sigma >= |x| rho / R}.

    Counts the VCONE_SAMPLES uniform ball samples satisfying the membership
    inequality with sigma the z axis; returns (volume estimate, standard
    error).
    """
    if not R > 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if not 0.0 <= rho <= R:
        raise ValueError(f"rho must lie in [0, R], got {rho}")
    rng = np.random.default_rng([seed, 0])
    u = rng.normal(size=(VCONE_SAMPLES, 3)).T
    rad = R * rng.uniform(size=(VCONE_SAMPLES, 1))[:, 0] ** (1.0 / 3.0)
    u_norm = _norm3(*u)
    x = [rad * (uj / u_norm) for uj in u]
    hits = int(np.count_nonzero(x[2] >= _norm3(*x) * rho / R))
    p = hits / VCONE_SAMPLES
    ball = 4.0 / 3.0 * math.pi * R ** 3
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / VCONE_SAMPLES) * ball
    return p * ball, stderr
