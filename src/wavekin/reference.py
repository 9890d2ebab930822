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

# Samples per block of the Monte-Carlo oracles' arithmetic: a block's
# uniforms and temporaries stay in cache, and only a chunk's normals are kept
# at chunk length.
_BLOCK_ROWS = 2 ** 14


def _norm3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(x*x + y*y + z*z).

    For the columns of an (N, 3) array, ``_norm3(*a.T)``, this equals
    np.linalg.norm(a, axis=1) bit for bit, since that adds the same three
    squares in the same order, but it builds no (N, 3) array of squares and
    reduces no axis of length 3.
    """
    return np.sqrt(x * x + y * y + z * z)


def _pairwise(leaf: Callable[[int, int], np.ndarray], lo: int, n: int) -> np.ndarray:
    """Add ``leaf(a, m)`` over blocks of rows [lo, lo + n) in np.sum's order.

    np.sum of a contiguous float64 array is NumPy's pairwise tree: a run of
    n > 128 values is split after n//2 rounded down to a multiple of 8, and
    the two halves' sums are added.  The blocks are that tree's nodes of at
    most _BLOCK_ROWS rows, handed to ``leaf`` in row order; when ``leaf``
    returns np.sum of its rows' values (or an array of such sums), the result
    equals np.sum over all n values bit for bit.  Module-level, so no
    recursive closure keeps a caller's arrays alive.
    """
    if n <= _BLOCK_ROWS:
        return leaf(lo, n)
    half = n // 2
    half -= half % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, n - half)


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
    Each stream is drawn in chunks of up to 2M samples: a chunk's normals
    first, into one buffer kept for the call, then its uniforms a block at a
    time.  The blocks are the nodes of at most _BLOCK_ROWS samples of
    np.sum's pairwise tree over the chunk (``integrand`` is called once per
    block, elementwise on an array of radii), and the block sums are added in
    that tree's order, so each chunk sums exactly as np.sum of all its
    products would, without keeping them.
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

    per_batch = n_samples // n_batches
    chunk = 2_000_000
    normals = np.empty((min(chunk, per_batch), 3))

    def chunk_sums(rng: np.random.Generator, take: int) -> np.ndarray:
        """Sums of phi * delta_eps over ``take`` fresh samples, at both widths."""
        rng.standard_normal(out=normals[:take])

        def block_sums(lo: int, m: int) -> np.ndarray:
            u = normals[lo:lo + m].T
            rx = radius * rng.uniform(size=m) ** (1.0 / 3.0)
            u_norm = _norm3(*u)
            # the components of gamma - x, x = rx * u / |u|
            a = [gj - rx * (uj / u_norm) for gj, uj in zip(gamma.tolist(), u)]
            g = eval_omega(d, _norm3(*a)) + eval_omega(d, rx) - w_total
            phi = integrand(rx)
            sums = np.empty(2)
            for i, eps in enumerate((eps1, eps2)):
                dens = np.exp(-0.5 * (g / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
                sums[i] = np.sum(phi * dens)
            return sums

        return _pairwise(block_sums, 0, take)

    est = np.empty((n_batches, 2))
    for b in range(n_batches):
        rng = np.random.default_rng([seed, b])
        sums = np.zeros(2)
        left = per_batch
        while left > 0:
            take = min(chunk, left)
            left -= take
            sums += chunk_sums(rng, take)
        est[b] = volume * sums / per_batch

    extrap = (4.0 * est[:, 1] - est[:, 0]) / 3.0
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


def vcone_mc(R, rho, seed: int = 0):
    """Monte-Carlo volume of {x in B(0, R) : x . sigma >= |x| rho / R}.

    Counts the VCONE_SAMPLES uniform ball samples satisfying the membership
    inequality with sigma the z axis; returns (volume estimate, standard
    error).  Equal-length sequences of R and rho give a list of such pairs,
    one per case, all from the one draw that each case would make alone.
    All the normals are drawn first, one array per block of _BLOCK_ROWS
    samples, then the uniforms and the hits a block at a time.  Block-sized
    arrays, not one 9.6 MB array: once a freed array has raised glibc's mmap
    threshold, a later call's 9.6 MB would come from the heap and stay
    resident after the call.
    """
    single = np.ndim(R) == 0 and np.ndim(rho) == 0
    cases = list(zip(np.atleast_1d(R).tolist(), np.atleast_1d(rho).tolist(), strict=True))
    for r, p in cases:
        if not r > 0.0:
            raise ValueError(f"R must be positive, got {r}")
        if not 0.0 <= p <= r:
            raise ValueError(f"rho must lie in [0, R], got {p}")
    rng = np.random.default_rng([seed, 0])
    blocks = [rng.normal(size=(min(_BLOCK_ROWS, VCONE_SAMPLES - lo), 3))
              for lo in range(0, VCONE_SAMPLES, _BLOCK_ROWS)]
    hits = [0] * len(cases)
    for normals in blocks:
        u = normals.T
        cube = rng.uniform(size=len(normals)) ** (1.0 / 3.0)
        u_norm = _norm3(*u)
        dirs = [uj / u_norm for uj in u]
        for i, (r, p) in enumerate(cases):
            rad = r * cube
            x = [rad * dj for dj in dirs]
            hits[i] += int(np.count_nonzero(x[2] >= _norm3(*x) * p / r))
    out = []
    for (r, _), h in zip(cases, hits):
        frac, ball = h / VCONE_SAMPLES, 4.0 / 3.0 * math.pi * r ** 3
        stderr = math.sqrt(max(frac * (1.0 - frac), 1e-300) / VCONE_SAMPLES) * ball
        out.append((frac * ball, stderr))
    return out[0] if single else out
