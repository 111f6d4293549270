"""Zeros and geometry of the quadratic resonance function.

For a carrier wavenumber ``k0`` the central object is

    r(k, b) = omega(k, b) - omega(k - k0, b) - omega(k0, b)

whose nontrivial zeros mark wavenumbers that exchange energy with the carrier
at leading order.  The module locates those zeros, classifies the zero
structure as the Bond number varies, computes the two critical Bond numbers
of the folds (tangencies of r) at the symmetry points k0/2 and k0, and
issues the stability verdict for the carrier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dispersion import omega, omega_deriv

__all__ = [
    "ResonanceReport",
    "CriticalBonds",
    "StabilityVerdict",
    "Classification",
    "find_zeros",
    "critical_bonds",
    "k1_of_b",
    "stability",
]

#: Brent tolerance for zeros in k.  A zero k1 is known only to within
#: ZERO_XTOL + 4 eps_mach omega(k1) / |omega'(k1) - omega'(k1 - k0)|: r sums
#: three omega terms of size omega(k1) and its slope there is small, so
#: rounding alone flips r's sign across a band around k1.  At k0 = 2 the
#: second term passes ZERO_XTOL below b ~ 0.005 (7.2e-12 at b = 0.002, 2.7e-9
#: at b = 1e-4); sampled around k1, r changes sign 7 times over 1.7e-12 at
#: b = 0.002 and 105 times over 7.4e-10 at b = 1e-4 (k1 = 2145.69)
ZERO_XTOL = 1e-12
#: |r| threshold below which a stationary point counts as a double zero
TANGENCY_TOL = 1e-8
#: nominal scan step of ``find_zeros``, which scans at k0/s, s = round(k0/_SCAN_STEP)
_SCAN_STEP = 0.01
#: |r'(k0)| from which on ``find_zeros`` seeds no Newton search at k0: there
#: |r(k*)| ~ r'(k0)^2 / 2|r''(k0)| at a stationary point k* next to k0, which
#: TANGENCY_TOL bounds by |r'(k0)| <~ 5.7e-5 at k0 = 2 (175 times below this)
_K0_SEED_SLOPE = 1e-2


#: relative tolerance of every root: four float64 ulps, as in scipy's brentq
BRENT_RTOL = 4.0 * np.finfo(float).eps


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float = 2e-12,
            maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A line-by-line port of scipy's ``brentq`` (``scipy/optimize/Zeros/brentq.c``):
    the same steps, stopping rule |bracket|/2 < (xtol + BRENT_RTOL |x|)/2,
    evaluation order and errors, so roots and evaluation counts match it
    exactly.  Written out here so that importing arcwave does not load
    ``scipy.optimize``.
    """
    def fx(x: float) -> float:
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class Classification(str, enum.Enum):
    """Qualitative zero structure of r on [k0/2, k_max]."""

    ONLY_K0 = "only_k0"
    TWO_ZEROS = "two_zeros"
    EXTRA_ZERO_PAIR = "extra_zero_pair"
    TANGENCY = "tangency"


@dataclass(frozen=True)
class ResonanceReport:
    k0: float
    b: float
    zeros: tuple[float, ...]
    double_zeros: tuple[float, ...]
    classification: Classification
    k1: Optional[float] = None

    def __post_init__(self) -> None:
        if list(self.zeros) != sorted(self.zeros):
            raise ValueError("zeros must be sorted ascending")
        if self.k1 is not None and not self.k1 > self.k0:
            raise ValueError(f"k1={self.k1} must exceed k0={self.k0}")


@dataclass(frozen=True)
class CriticalBonds:
    b0: float
    b1: float

    def __post_init__(self) -> None:
        if not (0.0 < self.b0 < self.b1 < 1.0 / 3.0):
            raise ValueError(
                f"critical Bond numbers must satisfy 0 < b0 < b1 < 1/3, got "
                f"b0={self.b0}, b1={self.b1}"
            )


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    ratio: Optional[float]
    characterization_agrees: bool
    reason: str = ""


# --------------------------------------------------------------------------
# the resonance functions
# --------------------------------------------------------------------------


def _r_hat_scalar(b: float, k0: float) -> Callable[[float], float]:
    """r(., b) for a float k, with omega(k0, b) evaluated once.

    The operations are those of r's definition, in its order, so values are
    bitwise those of the vectorized r on a float k; this is the function
    every Brent solve in k iterates.
    """
    w0 = omega(k0, b)

    def r(k: float) -> float:
        return omega(k, b) - omega(k - k0, b) - w0

    return r


def _r_hat_deriv(k: float, b: float, k0: float) -> float:
    """d(r_hat)/dk at a float k, on omega's scalar route."""
    return omega_deriv(k, b, 1) - omega_deriv(k - k0, b, 1)


# --------------------------------------------------------------------------
# zero finding
# --------------------------------------------------------------------------


def _stationary_point(k_seed: float, b: float, k0: float,
                      lo: float, hi: float) -> Optional[float]:
    """Newton iteration for a zero of d(r)/dk started at ``k_seed``.

    The Newton slope is the closed-form d2(r)/dk2.  Returns the converged
    stationary point inside [lo, hi], or None.
    """
    k = k_seed
    for _ in range(60):
        g = _r_hat_deriv(k, b, k0)
        gp = omega_deriv(k, b, 2) - omega_deriv(k - k0, b, 2)
        if gp == 0.0:
            return None
        step = g / gp
        k -= step
        if not (lo - 1e-6 <= k <= hi + 1e-6):
            return None
        if abs(step) < 1e-13 * max(1.0, abs(k)):
            return k
    return None


def find_zeros(k0: float, b: float, k_max: float) -> ResonanceReport:
    """Locate all zeros of r(.,b) on [k0/2, k_max].

    The folds fix the zeros above k0: there is one, k1 = ``k1_of_b(k0, b)``,
    exactly when 0 < b < b0, and none otherwise; the report's k1 is that
    cached root.  So r is scanned only from k0/2 to just past k0, where a
    third fold can hold a pair of zeros (see ``critical_bonds``), on the
    k0-aligned grid k0/2 + i k0/s, s = round(k0/0.01), through the first
    point past k0 and one more.  There k - k0 is the same grid s points
    lower, so one array call of omega gives both of r's terms (302 points at
    k0 = 2).  k0 itself is a zero for every b, so only the cells below the
    last scan point under k0 are bracketed, and sign changes there are
    solved by Brent's method.  Just past b0 the extra zero can sit between
    that point and k0, where r(k0) = 0 hides it; it is bracketed between the
    point and the stationary point of r next to k0.  Double zeros come from
    a Newton iteration on r' = 0 seeded at the scan's minima of |r| below
    1e-4, at k0/2 and, where |r'(k0)| < 1e-2, at k0.

    Needs ``critical_bonds(k0)`` (k0 up to about 3.3).  Raises ValueError for
    k_max <= k0, a negative or non-finite b, and k1 beyond k_max.  A zero k1
    is known only to within ZERO_XTOL + 4 eps_mach omega(k1) /
    |omega'(k1) - omega'(k1 - k0)| (see ``ZERO_XTOL``).
    """
    if not k_max > k0:
        raise ValueError(f"k_max={k_max} must exceed k0={k0}")
    if not (b >= 0.0 and math.isfinite(b)):
        raise ValueError(f"the Bond number must be finite and non-negative, got {b}")
    bonds = critical_bonds(k0)

    lo = k0 / 2.0
    s = max(1, round(k0 / _SCAN_STEP))
    h = k0 / s
    n = (s + 1) // 2 + 2  # scan points: through the first past k0, and one more
    grid = (lo - k0) + h * np.arange(n + s)
    w = omega(grid, b)
    ks = grid[s:]
    rv = w[s:] - w[:n] - omega(k0, b)
    j = (s - 1) // 2  # ks[j] is the last scan point below k0

    rfun = _r_hat_scalar(b, k0)
    fold_at_k0 = abs(_r_hat_deriv(k0, b, k0)) < _K0_SEED_SLOPE
    k_star = _stationary_point(k0, b, k0, lo, k_max) if fold_at_k0 else None

    # --- transversal zeros: bracketed below k0, from the folds above it
    cells = [(ks[i], ks[i + 1]) for i in np.flatnonzero(rv[:j] * rv[1:j + 1] < 0.0)]
    if k_star is not None and ks[j] < k_star < k0:
        r_star = rfun(k_star)
        if abs(r_star) > TANGENCY_TOL and rfun(ks[j]) * r_star < 0.0:
            cells.append((ks[j], k_star))
    zeros = [k0] + [float(_brentq(rfun, a, c, xtol=ZERO_XTOL)) for a, c in cells]
    k1 = k1_of_b(k0, b) if 0.0 < b < bonds.b0 else None
    if k1 is not None:
        if k1 > k_max:
            raise ValueError(f"k_max={k_max} too small: the zero k1={k1:.6g} lies beyond it")
        zeros.append(k1)

    # --- tangential zeros: seeds near k0 only where a double zero can sit there
    double_zeros: list[float] = []
    absr = np.abs(rv)
    near = np.flatnonzero(absr[1:-1] < 1e-4) + 1
    near = near[(absr[near] <= absr[near - 1]) & (absr[near] <= absr[near + 1])]
    if not fold_at_k0:
        near = near[np.abs(ks[near] - k0) > 0.75 * h]
    stationary = [_stationary_point(seed, b, k0, lo, k_max) for seed in ks[near].tolist() + [lo]]
    for ks_star in stationary + [k_star]:
        if ks_star is None:
            continue
        if abs(rfun(ks_star)) > TANGENCY_TOL:
            continue
        if any(abs(ks_star - d) < 1e-6 for d in double_zeros):
            continue
        is_transversal = any(
            abs(ks_star - z) < 1e-6 and abs(_r_hat_deriv(z, b, k0)) > 1e-6
            for z in zeros
        )
        if is_transversal:
            continue
        double_zeros.append(float(ks_star))
        if not any(abs(ks_star - z) < 1e-6 for z in zeros):
            zeros.append(float(ks_star))

    zeros_sorted = tuple(sorted(zeros))
    doubles_sorted = tuple(sorted(double_zeros))

    above = [z for z in zeros_sorted if z > k0 + 1e-7]
    below = [z for z in zeros_sorted if z < k0 - 1e-7]
    if doubles_sorted:
        cls = Classification.TANGENCY
    elif above:
        cls = Classification.TWO_ZEROS
    elif below:
        cls = Classification.EXTRA_ZERO_PAIR
    else:
        cls = Classification.ONLY_K0

    return ResonanceReport(
        k0=k0, b=b, zeros=zeros_sorted, double_zeros=doubles_sorted,
        classification=cls, k1=k1,
    )


# --------------------------------------------------------------------------
# critical Bond numbers
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def critical_bonds(k0: float) -> CriticalBonds:
    """The Bond numbers of the two folds of r's zero set at its symmetry points.

    Both are fold points of the zero set, at k0/2 and at k0:

    * at ``b1`` the mirror pair of extra zeros is born in a tangency at the
      symmetry point k0/2 (dr/dk vanishes there identically, so the fold
      reduces to the scalar condition r(k0/2, b) = 0);
    * at ``b0`` the extra zero crosses the trivial zero at k0, where the fold
      reduces to dr/dk(k0, b) = 0 (r(k0, b) = 0 holds for every b).

    The structure also changes at a third fold, inside (k0/2, k0), for k0
    near 3: a pair of zeros lives there past b1, up to b ~ 0.1689 at k0 = 3
    (b1 = 0.166978) and ~ 0.1531 at k0 = 3.3; k0 = 1 to 2.5 have none.

    Both conditions have closed forms in b.  With t = tanh(k0/2), T = tanh
    k0 and S = sech^2 k0 = 1 - T^2, squaring 2 omega(k0/2) = omega(k0) is linear in b:
    b1 = (2t - T) / (k0^2 (T - t/2)), which T = 2t/(1 + t^2) turns into
    b1 = 4 t^2 / (k0^2 (3 - t^2)), free of cancellation.  With G = (k + b
    k^3) tanh k, omega'(k0) = 1 is G' = 2 sqrt(G); squared, it is quadratic
    in x = b k0^2,

        a^2 x^2 + (2 P a - 4 k0 T) x + (P^2 - 4 k0 T) = 0,

    P = T + k0 S, a = 3T + k0 S, and b0 is its root with G' = P + a x > 0,
    the positive one: the constant term is 4 k0 T (omega'(k0, 0)^2 - 1) < 0.
    That term, of order k0^4 for small k0, is summed as (T - k0)^2 - k0 T^2
    (k0 (2 - T^2) + 2T), and the root is taken by the stable quadratic
    formula, so b0 and b1 land within 4 ulps of 40-digit arithmetic for k0
    from 0.5 to 3.3 and within 8 at k0 = 0.1 and 0.3.  Past k0 ~ 3.3 the two
    folds cross and the pair is refused (``CriticalBonds``).
    """
    if not k0 > 0:
        raise ValueError(f"k0 must be positive, got {k0}")
    t = math.tanh(k0 / 2.0)
    b1 = 4.0 * t * t / (k0 * k0 * (3.0 - t * t))

    T = math.tanh(k0)
    S = 1.0 - T * T
    P, a = T + k0 * S, 3.0 * T + k0 * S
    lin = 2.0 * P * a - 4.0 * k0 * T
    const = (T - k0) ** 2 - k0 * T * T * (k0 * (2.0 - T * T) + 2.0 * T)
    root = math.sqrt(lin * lin - 4.0 * a * a * const)
    x = -2.0 * const / (lin + root) if lin >= 0.0 else (root - lin) / (2.0 * a * a)
    return CriticalBonds(b0=x / (k0 * k0), b1=b1)


@lru_cache(maxsize=256)
def k1_of_b(k0: float, b: float) -> float:
    """The resonant partner wavenumber: largest zero of r on (k0, inf).

    Exists exactly for 0 < b < b0(k0); decreasing in b and diverging like
    1/b as b -> 0.  Cached on (k0, b), so ``stability``, ``default_params``,
    ``find_zeros`` and their caller share one solve per Bond number, and
    ``find_zeros`` reports this root as its k1.  The root is known only to
    within ZERO_XTOL + 4 eps_mach omega(k1) / |omega'(k1) - omega'(k1 - k0)|
    (see ``ZERO_XTOL``).  The bracket starts at k0 (1 + 1e-9) unless r
    there is not below -4 eps_mach omega(k0), its rounding, as happens
    within about 1e-7 relative below b0.  Then it starts halfway to the
    fold's estimate k0 + d, d = -2 r'(k0) / r''(k0), where r is lowest.
    Where r is rounding noise even there, or d has lost its sign to it (b
    within rounding of b0), the root is k0 + d, and no less than k0 (1 +
    1e-9): k1 is then known only to more than its distance from k0.
    """
    bonds = critical_bonds(k0)
    if not (0.0 < b < bonds.b0):
        raise ValueError(
            f"k1 exists only for Bond numbers in (0, b0={bonds.b0:.6g}); got {b}"
        )

    rfun = _r_hat_scalar(b, k0)
    lo = k0 * (1.0 + 1e-9)
    if not rfun(lo) < -4.0 * np.finfo(float).eps * omega(k0, b):
        gap = -2.0 * _r_hat_deriv(k0, b, k0) / omega_deriv(k0, b, 2)
        if not (gap > 0.0 and rfun(k0 + gap / 2.0) < 0.0):
            return max(k0 + gap, lo)
        lo = k0 + gap / 2.0
    hi = k0 + 1.0
    while rfun(hi) < 0.0:
        hi = k0 + 2.0 * (hi - k0)
        if hi > 1e9:
            raise ValueError(f"no sign change located below k={hi:.3g}")
    return float(_brentq(rfun, lo, hi, xtol=ZERO_XTOL, maxiter=200))


# --------------------------------------------------------------------------
# stability
# --------------------------------------------------------------------------


def stability(k0: float, b: float) -> StabilityVerdict:
    """Three-wave stability verdict for the carrier wavenumber.

    For b in (0, b0) the carrier resonates with the pair (k1, k0-k1) and the
    verdict is the sign of the interaction-coefficient ratio at that triad
    (negative ratio = stable).  Both coefficients are the closed-form
    first-block symbol of the u_{-1} equation evaluated at the exact k1:
    the numerator at inserts (k0, k1-k0), the denominator at (k0, -k1).
    Kernel extraction from the equations reproduces them and serves as the
    test oracle.  The equivalent closed characterization — k0 is stable iff
    it is not the largest wavenumber of its triad — is evaluated alongside
    and reported as ``characterization_agrees``.

    Outside (0, b0) there is no resonant partner above k0 and the carrier is
    reported stable by absence of extra resonances.
    """
    bonds = critical_bonds(k0)
    if not (0.0 < b < bonds.b0):
        return StabilityVerdict(
            stable=True, ratio=None, characterization_agrees=True,
            reason="no resonant partner above k0 for this Bond number",
        )

    from .kernels import first_block_symbol  # deferred: kernels imports this module

    k1 = k1_of_b(k0, b)
    c1 = first_block_symbol(-1, -1, k0, k1 - k0, b)
    c2 = first_block_symbol(-1, -1, k0, -k1, b)
    if c2 == 0.0:
        raise ValueError(f"the triad denominator vanishes at k1={k1}")
    ratio = float((c1 / c2).real)
    stable = ratio < 0.0
    max_criterion_stable = k0 < max(k1, abs(k0 - k1))
    return StabilityVerdict(
        stable=stable,
        ratio=ratio,
        characterization_agrees=(stable == max_criterion_stable),
        reason=f"triad ({k0}, {k1}, {k1 - k0})",
    )
