"""Convex radial dispersion relations and the derived weight mho.

A dispersion relation assigns a frequency omega(r) to the radius r = |k| of a
wavenumber.  Everything downstream only uses the radial profile, so the
representation is one callable for omega, one for its derivative, plus the
growth constants that make the structural assumptions checkable:

    omega(0) = 0, omega strictly increasing and convex,
    omega(r) >= c_omega_lower * r**alpha           for all r,
    omega(r) <= c_omega_upper * r**alpha_prime     for r < 1,
    mho(r) = r / omega'(r) <= c_mho * r**iota, nondecreasing.

The power-law family omega(r) = r**alpha with alpha in (1, 2] satisfies all of
these with iota = 2 - alpha and c_mho = 1/alpha; it is the workhorse.  Custom
profiles supply callables and constants, and the constructor spot-checks the
inequalities on sampled grids rather than symbolically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BracketError",
    "DispersionRelation",
    "eval_omega",
    "eval_mho",
    "invert_omega",
]

# Sampling used to validate the structural assumptions at construction time.
_CHECK_GRID = np.concatenate([
    np.logspace(-3, 3, 121),
    np.linspace(1e-3, 10.0, 200),
])
_CHECK_GRID.flags.writeable = False
_CONVEXITY_TOL = 1e-10


@dataclass(frozen=True)
class DispersionRelation:
    """Immutable radial dispersion relation; safe to share across workers.

    Use the factories :meth:`power_law` and :meth:`custom` rather than the
    bare constructor so the assumption checks run.
    """

    kind: str
    alpha: float
    alpha_prime: float
    c_omega_lower: float
    c_omega_upper: float
    c_mho: float
    iota: float
    omega_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    omega_prime_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)

    @classmethod
    def power_law(cls, alpha: float) -> "DispersionRelation":
        """omega(r) = r**alpha with alpha in (1, 2]."""
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
            raise ValueError(f"alpha must be a finite number, got {alpha!r}")
        if not 1.0 < alpha <= 2.0:
            raise ValueError(
                f"power-law exponent must lie in (1, 2], got {alpha}; "
                "steeper or shallower growth is outside the supported class"
            )
        d = cls(
            kind="power_law",
            alpha=float(alpha),
            alpha_prime=float(alpha),
            c_omega_lower=1.0,
            c_omega_upper=1.0,
            c_mho=1.0 / float(alpha),
            iota=2.0 - float(alpha),
        )
        d.check_assumptions()
        return d

    @classmethod
    def custom(
        cls,
        omega: Callable[[float], float],
        omega_prime: Callable[[float], float],
        *,
        alpha: float,
        alpha_prime: float,
        c_omega_lower: float,
        c_omega_upper: float,
        c_mho: float,
        iota: float,
    ) -> "DispersionRelation":
        """Wrap user-supplied omega and omega' with declared constants.

        The constants are not derived from the callables; they are promises,
        verified on a sampled grid by :meth:`check_assumptions`.
        """
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
        if not 1.0 < alpha_prime <= alpha:
            raise ValueError(
                f"alpha_prime must satisfy alpha >= alpha_prime > 1, got {alpha_prime}"
            )
        if c_omega_lower <= 0 or c_omega_upper <= 0:
            raise ValueError("growth constants must be positive")
        if c_mho < 0:
            raise ValueError("c_mho must be nonnegative")
        if not 0.0 <= iota <= 1.0:
            raise ValueError(f"iota must lie in [0, 1], got {iota}")
        d = cls(
            kind="custom",
            alpha=float(alpha),
            alpha_prime=float(alpha_prime),
            c_omega_lower=float(c_omega_lower),
            c_omega_upper=float(c_omega_upper),
            c_mho=float(c_mho),
            iota=float(iota),
            omega_fn=omega,
            omega_prime_fn=omega_prime,
        )
        d.check_assumptions()
        return d

    def check_assumptions(self) -> None:
        """Verify the structural assumptions on a sampled radius grid.

        Raises ValueError naming the first violated inequality.  A passing
        check is evidence, not proof: the grid is finite.
        """
        r = _CHECK_GRID
        w = eval_omega(self, r)

        if eval_omega(self, 0.0) != 0.0:
            raise ValueError("omega(0) must be 0")
        if np.any(w <= 0.0):
            raise ValueError("omega must be positive for r > 0")

        lower = self.c_omega_lower * r ** self.alpha
        if np.any(w < lower * (1.0 - 1e-9)):
            i = int(np.argmax(w < lower * (1.0 - 1e-9)))
            raise ValueError(
                f"lower growth bound violated at r={r[i]:g}: "
                f"omega={w[i]:g} < {lower[i]:g}"
            )
        small = r < 1.0
        upper = self.c_omega_upper * r[small] ** self.alpha_prime
        if np.any(w[small] > upper * (1.0 + 1e-9)):
            i = int(np.argmax(w[small] > upper * (1.0 + 1e-9)))
            raise ValueError(
                f"small-radius upper bound violated at r={r[small][i]:g}"
            )

        mho = eval_mho(self, r)
        cap = self.c_mho * r ** self.iota
        if np.any(mho > cap * (1.0 + 1e-9)):
            i = int(np.argmax(mho > cap * (1.0 + 1e-9)))
            raise ValueError(
                f"mho bound violated at r={r[i]:g}: mho={mho[i]:g} > {cap[i]:g}"
            )
        order = np.argsort(r)
        dm = np.diff(mho[order])
        if np.any(dm < -1e-12 * max(1.0, float(np.max(mho)))):
            raise ValueError("mho must be nondecreasing in r")

        # Convexity surrogate: nonnegative second differences on a uniform grid.
        h = 1e-2
        ru = np.arange(h, 10.0, h)
        wu = eval_omega(self, ru)
        second = wu[:-2] + wu[2:] - 2.0 * wu[1:-1]
        if np.any(second < -_CONVEXITY_TOL):
            raise ValueError("omega fails the convexity check (second differences)")
        if np.any(np.diff(wu) <= 0.0):
            raise ValueError("omega must be strictly increasing")


def _radial(fn: Callable) -> Callable:
    """fn(d, r) at checked radii r >= 0: a float array to fn, a float back for scalar r."""
    @functools.wraps(fn)
    def at(d: DispersionRelation, r):
        r_arr = np.asarray(r, dtype=float)
        if r_arr.ndim == 0:  # the 0-d array, not a float, goes to fn: same bits as arrays
            x = float(r_arr)
            ok = math.isfinite(x) and x >= 0.0
        else:
            ok = not np.any(r_arr < 0.0) and np.all(np.isfinite(r_arr))
        if not ok:
            raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
        out = fn(d, r_arr)
        return float(out) if r_arr.ndim == 0 else out
    return at


@_radial
def eval_omega(d: DispersionRelation, r: np.ndarray) -> float:
    """Frequency at radius r.  Accepts scalars or arrays; r must be >= 0."""
    if d.kind == "power_law":
        return r ** d.alpha
    return np.vectorize(d.omega_fn, otypes=[float])(r)


@_radial
def eval_mho(d: DispersionRelation, r: np.ndarray) -> float:
    """The weight mho(r) = r / omega'(r).

    For the power law this is (1/alpha) * r**(2-alpha).  At r = 0 the value is
    the limit 0 whenever iota > 0; with iota = 0 the limit need not exist and
    r = 0 is rejected.
    """
    # a 0-d radius is checked as a float, and computed on the 0-d array
    zero = float(r) == 0.0 if r.ndim == 0 else bool(np.any(r == 0.0))
    if zero and d.iota <= 0.0:
        raise ValueError("mho(0) undefined when iota = 0")
    if d.kind == "power_law":
        if r.ndim == 0 and not zero:
            return r ** (2.0 - d.alpha) / d.alpha
        return np.where(r == 0.0, 0.0, r ** (2.0 - d.alpha) / d.alpha)

    def one(x: float) -> float:
        if x == 0.0:
            return 0.0
        dp = d.omega_prime_fn(x)
        if dp <= 0.0:
            raise ValueError(f"omega'({x:g}) must be positive")
        return x / dp
    return np.vectorize(one, otypes=[float])(r)


def invert_omega(d: DispersionRelation, w: float) -> float:
    """Radius r with omega(r) = w.

    Power laws use the closed form w**(1/alpha).  Custom laws use bracketed
    bisection (see _invert_custom).  Either way the result satisfies
    |omega(r) - w| <= 1e-12 * max(1, w).
    """
    if not (isinstance(w, (int, float)) and math.isfinite(w)):
        raise ValueError(f"target frequency must be finite, got {w!r}")
    w = float(w)
    if w < 0.0:
        raise ValueError(f"target frequency must be nonnegative, got {w}")
    if w == 0.0:
        return 0.0
    if d.kind == "power_law":
        return w ** (1.0 / d.alpha)
    return float(_invert_custom(d, np.array([w]))[0])


def _invert_custom(d: DispersionRelation, w: np.ndarray) -> np.ndarray:
    """invert_omega of a custom law at every w > 0 of an array, all at once.

    Each w has its own bracket [0, max(1, (w / c_omega_lower)**(1/alpha))],
    valid because of the lower growth bound and doubled defensively in case
    a custom profile only meets its declared constant marginally, and each
    is bisected by _bisect's rule, so every radius has the bits of a bisection
    of its own.  Each step evaluates omega once at every unfinished node.
    """
    hi = np.array([max(1.0, (x / d.c_omega_lower) ** (1.0 / d.alpha)) for x in w.tolist()])
    short = np.arange(w.size)
    for _ in range(200):
        short = short[eval_omega(d, hi[short]) < w[short]]
        if not short.size:
            break
        hi[short] *= 2.0
    else:
        raise ValueError(f"could not bracket omega = {w[short[0]]:g}")

    # _bisect on [0, hi] for every w at once
    flo, fhi = eval_omega(d, 0.0) - w, eval_omega(d, hi) - w
    wrong = np.flatnonzero((flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) | (fhi < 0.0)))
    if wrong.size:
        k = wrong[0]
        raise BracketError(f"no sign change on [0, {hi[k]:g}]: f(lo)={flo[k]:g}, "
                           f"f(hi)={fhi[k]:g}")
    lo = np.zeros(w.size)
    r = np.where(flo == 0.0, 0.0, hi)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(200):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = eval_omega(d, mid) - w[live]
        root, below = fm == 0.0, fm < 0.0
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        a, b = lo[live], hi[live]
        narrow = b - a <= 1e-16 * np.maximum(1e-6, np.abs(b))
        r[live] = np.where(root, mid, 0.5 * (a + b))
        live = live[~root & ~narrow]

    resid = eval_omega(d, r) - w
    bad = np.flatnonzero(np.abs(resid) > 1e-12 * np.maximum(1.0, w))
    if bad.size:
        k = bad[0]
        raise ValueError(f"bisection failed to invert omega at w={w[k]:g} "
                         f"(residual {resid[k]:g})")
    return r


class BracketError(ValueError):
    """A root bracket failed to change sign; endpoints are in the message."""


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of fn in [lo, hi], given fn(lo) <= 0 <= fn(hi).

    The bracket is halved down to machine width, 1e-16 * max(1e-6, |hi|),
    before the midpoint is returned: a stop on the residual alone can leave
    the root off by ~residual/fn'(root), which is too loose where fn is flat.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={flo:g}, f(hi)={fhi:g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1e-6, abs(hi)):
            break
    return 0.5 * (lo + hi)
