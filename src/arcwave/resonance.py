"""Zeros and geometry of the quadratic resonance function.

For a carrier wavenumber ``k0`` the central object is

    r(k, b) = omega(k, b) - omega(k - k0, b) - omega(k0, b)

whose nontrivial zeros mark wavenumbers that exchange energy with the carrier
at leading order.  r vanishes at k0 for every b, and for large k it is a
difference of numbers of size omega(k), so every zero is sought on the
divided difference q(k) = r(k)/(k - k0), evaluated without cancellation,
with q(k0) = omega'(k0) - 1.  The module locates the zeros, classifies the
zero structure as the Bond number varies, computes the two critical Bond
numbers of the folds (tangencies of r) at the symmetry points k0/2 and k0,
and issues the stability verdict for the carrier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dispersion import omega_deriv

__all__ = [
    "ResonanceReport",
    "CriticalBonds",
    "StabilityVerdict",
    "Classification",
    "q_hat",
    "find_zeros",
    "critical_bonds",
    "k1_of_b",
    "has_partner",
    "stability",
]

#: |q| at or below which q vanishes to rounding: q's terms are slopes of
#: order one, and at the folds' double zeros |q| is at most 5.6e-16 for k0
#: from 0.1 to 3.3.  A stationary point of r where |q| is this small is a
#: double zero, and b with |q(k0)| this small lies within rounding of b0
TANGENCY_TOL = 1e-14
#: nominal step of the scan of ``find_zeros``, which splits [k0/2, k0] into
#: round(k0/(2 _SCAN_STEP)) equal cells
_SCAN_STEP = 0.01


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


def _slope(k, c: float, sinhc, b: float, xp):
    """Divided difference of omega = sqrt(G), G = (k + b k^3) tanh k, between
    k and c > 0, given sinhc = sinh(k - c)/(k - c); k is a float with ``xp``
    = math or an array with ``xp`` = numpy, c a float either way.

    It is [(1 + b(k^2 + kc + c^2)) tanh k + (c + b c^3) sinhc/(cosh k cosh
    c)] / (omega(k) + omega(c)), the cosh product written with exp(-k) and
    exp(-c) so that it cannot overflow, and omega(k) taken from the same
    tanh k.
    """
    tk, ek, ec = xp.tanh(k), xp.exp(-k), math.exp(-c)
    num = ((1.0 + b * (k * (k + c) + c * c)) * tk
           + (c + b * c**3) * sinhc * 4.0 * ek * ec / ((1.0 + ek * ek) * (1.0 + ec * ec)))
    return num / (xp.sqrt((k + b * k**3) * tk) + math.sqrt((c + b * c**3) * math.tanh(c)))


def _q_scalar(k: float, b: float, k0: float) -> float:
    """q at a float k > 0, on ``math``.  For |m| < k0, m = k - k0, it is the
    divided difference between k and k0 minus omega(m)/m = sqrt((1 + b m^2)
    tanh(m)/m), where sinh(m)/m and tanh(m)/m are 1 at m = 0; for |m| >= k0,
    it is (k0 times the divided difference between k and m, minus
    omega(k0))/m."""
    m = k - k0
    if abs(m) < k0:
        return (_slope(k, k0, math.sinh(m) / m if m else 1.0, b, math)
                - math.sqrt((1.0 + b * m * m) * (math.tanh(m) / m if m else 1.0)))
    return (k0 * _slope(k, m, math.sinh(k0) / k0, b, math)
            - math.sqrt((k0 + b * k0**3) * math.tanh(k0))) / m


def _q_array(k: np.ndarray, b: float, k0: float) -> np.ndarray:
    """q on points k within k0 of k0: ``_q_scalar``'s near form, operation
    for operation, on numpy."""
    m = k - k0
    if not np.all(np.abs(m) < k0):
        raise ValueError(f"the array route of q takes only points within k0={k0} of k0")
    with np.errstate(invalid="ignore"):
        sinhc = np.where(m == 0.0, 1.0, np.sinh(m) / m)
        tanhc = np.where(m == 0.0, 1.0, np.tanh(m) / m)
    return _slope(k, k0, sinhc, b, np) - np.sqrt((1.0 + b * m * m) * tanhc)


def q_hat(k, b: float, k0: float):
    """q(k) = r(k)/(k - k0), with q(k0) = omega'(k0) - 1, for k > 0.

    Both closed forms (``_q_scalar``) are free of cancellation: r's terms of
    size omega(k) never meet, and the trivial zero at k0 is divided out.  A
    Python float or int takes the ``math`` route and returns a float;
    anything else is evaluated as a float64 array by the near form alone
    (``_q_array``), so its points must lie within k0 of k0.
    """
    if isinstance(k, (float, int)):
        return _q_scalar(float(k), b, k0)
    return _q_array(np.asarray(k, dtype=np.float64), b, k0)


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

    k0 is a zero for every b, by definition.  The folds fix the zeros above
    k0: there is one, k1 = ``k1_of_b(k0, b)``, exactly when 0 < b < b0
    outside the rounding of b0, and none otherwise; the report's k1 is that
    cached root.  Below k0 a third fold can hold a pair of zeros (see
    ``critical_bonds``), so q is scanned once on [k0/2, k0], on
    round(k0/0.02) equal cells with k0 the last grid point (101 points at
    k0 = 2), and every sign change that q's scalar route confirms at the
    cell's ends is solved by Brent's method.  A double zero of r is one
    where q vanishes to rounding (``TANGENCY_TOL``): at k0, where q(k0) =
    omega'(k0) - 1 crosses 0 at the fold b0, at k0/2, which r' = 0 makes a
    stationary point of r for every b, or at a stationary point of r found
    by Newton's method from a scan minimum of |q| below 1e-4.  It replaces
    the zeros within 1e-6 of it.

    Needs ``critical_bonds(k0)`` (k0 up to about 3.3).  Raises ValueError for
    k_max <= k0, a negative or non-finite b, and k1 beyond k_max.
    """
    if not k_max > k0:
        raise ValueError(f"k_max={k_max} must exceed k0={k0}")
    if not (b >= 0.0 and math.isfinite(b)):
        raise ValueError(f"the Bond number must be finite and non-negative, got {b}")
    critical_bonds(k0)  # refuses a k0 past the crossing of the folds

    ks = np.linspace(k0 / 2.0, k0, max(1, round(k0 / (2.0 * _SCAN_STEP))) + 1)
    qv = q_hat(ks, b, k0)

    def q(k: float) -> float:
        return q_hat(k, b, k0)

    # a cell's end where q is at rounding level can round to either sign on
    # the two routes, so Brent gets only the cells whose ends differ on its own
    cells = [(ks[i], ks[i + 1]) for i in np.flatnonzero(qv[:-1] * qv[1:] < 0.0).tolist()]
    zeros = [k0] + [_brentq(q, lo, hi, xtol=BRENT_RTOL * k0)
                    for lo, hi in cells if q(lo) * q(hi) < 0.0]
    k1 = k1_of_b(k0, b) if has_partner(k0, b) else None
    if k1 is not None:
        if k1 > k_max:
            raise ValueError(f"k_max={k_max} too small: the zero k1={k1:.6g} lies beyond it")
        zeros.append(k1)

    absq = np.abs(qv)
    seeds = ks[1:-1][(absq[1:-1] <= absq[:-2]) & (absq[1:-1] <= absq[2:]) & (absq[1:-1] < 1e-4)]
    double_zeros: list[float] = []
    for z in [k0, k0 / 2.0] + [_stationary_point(s, b, k0, k0 / 2.0, k0) for s in seeds]:
        if z is not None and abs(q(z)) <= TANGENCY_TOL and all(
                abs(z - d) >= 1e-6 for d in double_zeros):
            double_zeros.append(float(z))
    zeros_sorted = tuple(sorted({*double_zeros, *(
        float(z) for z in zeros if all(abs(z - d) >= 1e-6 for d in double_zeros))}))
    doubles_sorted = tuple(sorted(double_zeros))

    if doubles_sorted:
        cls = Classification.TANGENCY
    elif k1 is not None:
        cls = Classification.TWO_ZEROS
    elif zeros_sorted[0] < k0:
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


def has_partner(k0: float, b: float) -> bool:
    """True when r has its zero k1 above k0: for 0 < b < b0 with q(k0) =
    omega'(k0) - 1 below -``TANGENCY_TOL``.  Within rounding of b0 below it
    q(k0) rounds to as much as +2.2e-16 (k0 = 0.5 and 2, one ulp below b0),
    and k1 cannot be told from k0: there, as at b0, r has a double zero at
    k0 and no partner.  The one test of the band for every caller."""
    return 0.0 < b < critical_bonds(k0).b0 and q_hat(k0, b, k0) < -TANGENCY_TOL


@lru_cache(maxsize=256)
def k1_of_b(k0: float, b: float) -> float:
    """The resonant partner wavenumber: largest zero of r on (k0, inf).

    Exists exactly for 0 < b < b0(k0), outside the rounding of b0 (see
    ``has_partner``); decreasing in b and diverging like 1/b as b -> 0.
    Cached on (k0, b), so ``stability``, ``default_params``, ``find_zeros``
    and their caller share one solve per Bond number, and ``find_zeros``
    reports this root as its k1.  It is one Brent solve of q from k0, where
    q < 0, to relative tolerance ``BRENT_RTOL``.
    """
    if not has_partner(k0, b):
        raise ValueError(
            f"k1 exists only for Bond numbers in (0, b0={critical_bonds(k0).b0!r}) "
            f"outside the rounding of b0; got {b!r}"
        )

    def q(k: float) -> float:
        return q_hat(k, b, k0)

    hi = k0 + 1.0
    while q(hi) < 0.0:
        hi = k0 + 2.0 * (hi - k0)
        if hi > 1e9:
            raise ValueError(f"no sign change located below k={hi:.3g}")
    return float(_brentq(q, k0, hi, xtol=BRENT_RTOL * k0))


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

    Outside (0, b0), and within rounding of b0 below it (``has_partner``),
    there is no resonant partner above k0 and the carrier is reported stable
    by absence of extra resonances.
    """
    if not has_partner(k0, b):
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
