"""Closed-form radial collision weights and their numerical oracles.

The angular reduction of the isotropic 4-wave collision operator produces the
oscillatory integral

    I(r1, r2, r3, r) = int_0^inf sin(r1 x) sin(r2 x) sin(r3 x) sin(r x) / x^2 dx.

Expanding the product of sines into cosines and integrating term by term
gives the closed form

    I = (pi/16) * [ -|s| + |s - 2r| + |s - 2r3| + |s - 2r2| + |s - 2r1|
                    - |s - 2r2 - 2r| - |s - 2r3 - 2r| - |s - 2r2 - 2r3| ],
    s = r1 + r2 + r3 + r,

i.e. an eight-term sum of absolute values of the signed combinations
+-r1 +- r2 +- r3 +- r.  Sorting the arguments a >= b >= c >= d, the sum
collapses to a piecewise-linear function whose middle regime is

    I = (pi/4) * d          iff  a + d <= b + c,

and that inequality holds automatically for every quadruple of radii that is
frequency-resonant under a convex increasing dispersion (the extremes of the
quadruple sit on opposite sides of the resonance pairing).  The shortcut
(pi/4)*min is therefore exact everywhere it is ever used by the kernel, and
:func:`min_identity` enforces the admissibility condition loudly instead of
returning a silently wrong value outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wavekin.dispersion import DispersionRelation, eval_mho, eval_omega, invert_omega

__all__ = [
    "KernelWeights",
    "four_sine_closed_form",
    "min_identity",
    "sine_integral_oracle",
    "xi_weight",
    "cutoff_kernel",
    "resonant_quadruple",
]

#: Angular-reduction prefactor of the collision operator before it is
#: absorbed into a universal constant.
DEFAULT_C_Q = 8.0 * math.pi ** 2

#: Upper limit of sine_integral_oracle's quadrature; the discarded tail is at
#: most 1/TAIL_CUT in absolute value.
TAIL_CUT = 1e4


@dataclass(frozen=True)
class KernelWeights:
    """Kernel scaling constants: overall prefactor and radius cutoff."""

    c_q: float = DEFAULT_C_Q
    cutoff_n: float = math.inf

    def __post_init__(self):
        if not (self.c_q > 0.0 and math.isfinite(self.c_q)):
            raise ValueError(f"c_q must be positive and finite, got {self.c_q}")
        if not self.cutoff_n > 1.0:
            raise ValueError(
                f"cutoff_n must exceed 1 (or be inf), got {self.cutoff_n}; "
                "the admissible radius band [1/n, n) is empty otherwise"
            )


def _check_nonneg(*radii: float) -> None:
    for x in radii:
        if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0):
            raise ValueError(f"radii must be finite and nonnegative, got {radii}")


def four_sine_closed_form(r1: float, r2: float, r3: float, r: float) -> float:
    """Exact value of the four-sine product integral for any radii >= 0."""
    _check_nonneg(r1, r2, r3, r)
    a, b, c, d = r1, r2, r3, r
    s = (
        -abs(a + b + c + d)
        + abs(a + b + c - d)
        + abs(a + b - c + d)
        + abs(a - b + c + d)
        + abs(a - b - c - d)
        - abs(a - b + c - d)
        - abs(a + b - c - d)
        - abs(a - b - c + d)
    )
    return (math.pi / 16.0) * s


def min_identity(r1: float, r2: float, r3: float, r: float) -> float:
    """(pi/4) * min of the four radii, cross-checked against the closed form.

    Valid exactly when max + min <= mid + mid among the sorted radii, which
    covers every frequency-resonant quadruple of a convex increasing
    dispersion.  Outside that cone the four-sine integral is strictly smaller
    than (pi/4)*min and this function raises rather than agree to a wrong
    identity.
    """
    _check_nonneg(r1, r2, r3, r)
    val = (math.pi / 4.0) * min(r1, r2, r3, r)
    eight = four_sine_closed_form(r1, r2, r3, r)
    if abs(eight - val) > 1e-12 * max(1.0, val):
        srt = sorted((r1, r2, r3, r), reverse=True)
        raise ValueError(
            f"(pi/4)*min shortcut invalid for radii {srt}: requires "
            f"max+min <= mid+mid ({srt[0] + srt[3]:g} > {srt[1] + srt[2]:g}); "
            f"the integral is {eight:.12g}, not {val:.12g}"
        )
    return val


def sine_integral_oracle(
    r1: float,
    r2: float,
    r3: float,
    r: float,
) -> float:
    """Direct quadrature of the four-sine integral on [0, TAIL_CUT].

    Composite Gauss-Legendre with panels no wider than one period of the
    fastest frequency, evaluated at two resolutions; disagreement beyond the
    panel-convergence tolerance raises, and so do radii that would need more
    than 4,000,000 panels (a radius sum above about 1257).  The discarded
    tail is bounded by int_tail 1/x^2 = 1/TAIL_CUT = 1e-4 in absolute value.
    """
    _check_nonneg(r1, r2, r3, r)
    if min(r1, r2, r3, r) == 0.0:
        return 0.0  # one sine factor is identically zero

    freqs = (r1, r2, r3, r)

    def integral(points_per_period: int) -> float:
        f_max = sum(freqs)
        width = math.pi / f_max
        n_panels = int(math.ceil(TAIL_CUT / width))
        if n_panels > 4_000_000:
            raise ValueError(f"radii {freqs} too large for the oracle's panel budget")
        nodes, weights = np.polynomial.legendre.leggauss(points_per_period)
        total = 0.0
        # chunk the panels so peak memory stays modest
        chunk = max(1, 2_000_000 // points_per_period)
        edges = np.linspace(0.0, n_panels * width, n_panels + 1)
        for start in range(0, n_panels, chunk):
            stop = min(start + chunk, n_panels)
            lo = edges[start:stop]
            hi = edges[start + 1:stop + 1]
            mid = 0.5 * (lo + hi)[:, None]
            half = 0.5 * (hi - lo)[:, None]
            x = mid + half * nodes[None, :]
            vals = (
                np.sin(r1 * x) * np.sin(r2 * x) * np.sin(r3 * x) * np.sin(r * x)
                / (x * x)
            )
            total += float(np.sum(vals * (half * weights[None, :])))
        return total

    coarse = integral(8)
    fine = integral(12)
    if abs(fine - coarse) > 1e-6 * max(1.0, abs(fine)):
        raise ValueError(
            f"sine-integral quadrature did not converge: {coarse:.12g} vs "
            f"{fine:.12g} at refined order for radii {(r1, r2, r3, r)}"
        )
    return fine


def xi_weight(d: DispersionRelation, w: float, w1: float, w2: float, w3: float) -> float:
    """Weight Xi(w, w1, w2, w3) = mho*mho1*mho2*mho3 * min of the radii.

    Frequencies are mapped back to radii through the dispersion inverse; the
    product vanishes whenever any frequency is zero (for iota > 0).
    """
    radii = [invert_omega(d, x) for x in (w, w1, w2, w3)]
    least = min(radii)
    if least == 0.0:
        return 0.0  # the min factor vanishes; mho(0) need not be evaluated
    prod = 1.0
    for r in radii:
        prod *= eval_mho(d, r)
    return prod * least


def cutoff_kernel(
    kw: KernelWeights,
    d: DispersionRelation,
    w: float,
    w1: float,
    w2: float,
) -> float:
    """Truncated radial kernel K_n evaluated at integration frequencies.

    Zero when w + w1 < w2 (the fourth frequency would be negative).  Otherwise
    with w3 = w + w1 - w2 and radii (r, r1, r2, r3):

        K_n = mho(r3) * min(r1, r2, r3, r, n) * chi(r) chi(r1) chi(r2)
              / (r * r1 * r2),

    where chi is the indicator of [1/n, n).  The indicator on the dependent
    radius r3 is deliberately absent.  A quadruple touching radius zero gets
    weight zero: the minimum factor is read as vanishing there, consistent
    with the zero-measure treatment of the origin node on the grid.
    """
    for x in (w, w1, w2):
        if not (math.isfinite(x) and x >= 0.0):
            raise ValueError(f"frequencies must be finite and nonnegative, got {(w, w1, w2)}")
    if w + w1 < w2:
        return 0.0
    w3 = w + w1 - w2
    r = invert_omega(d, w)
    r1 = invert_omega(d, w1)
    r2 = invert_omega(d, w2)
    r3 = invert_omega(d, w3)
    m = min(r1, r2, r3, r)
    if m == 0.0:
        return 0.0
    n = kw.cutoff_n
    if math.isfinite(n):
        inv_n = 1.0 / n
        for x in (r, r1, r2):
            if not (inv_n <= x < n):
                return 0.0
        m = min(m, n)
    return eval_mho(d, r3) * m / (r * r1 * r2)


def resonant_quadruple(
    d: DispersionRelation,
    rng: np.random.Generator,
) -> tuple[float, float, float, float]:
    """Draw radii (r, r1, r2, r3) with omega(r) + omega(r1) = omega(r2) + omega(r3).

    Three radii are uniform on [lo, hi] = [0.1, 5]; the fourth solves the
    frequency resonance and the draw is rejected when it falls outside
    [lo, hi], for at most 10,000 draws.  These are exactly the quadruples on
    which the kernel evaluates the four-sine integral.
    """
    lo, hi = 0.1, 5.0
    for _ in range(10_000):
        r, r1, r2 = rng.uniform(lo, hi, size=3)
        w3 = eval_omega(d, r) + eval_omega(d, r1) - eval_omega(d, r2)
        if w3 <= 0.0:
            continue
        r3 = invert_omega(d, w3)
        if lo <= r3 <= hi:
            return float(r), float(r1), float(r2), float(r3)
    raise RuntimeError("failed to sample a resonant quadruple in range")
