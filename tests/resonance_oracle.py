"""The tests' resonance references: the first ``find_zeros`` scan and the
paper's hypotheses on omega.

:func:`arcwave.resonance.find_zeros` scans q = r/(k - k0) only on [k0/2,
k0] and takes the zero above k0 from the folds (``k1_of_b`` when 0 < b <
b0, none otherwise).  ``find_zeros_linspace`` is its first form and now the
only scan of the whole window, on r itself: r_hat on a ``linspace`` of step
at most 0.01 from k0/2 to k_max, omega evaluated separately at k and at k -
k0, the |r| minima found by comparing every interior point with its
neighbours, and a refusal when the tail of the window has not settled.  Its
naive r (``twi_oracle.r_hat``), tolerances, bracketing, Brent solves,
Newton refinement and classification are those ``find_zeros`` had then, so
it certifies that the folds leave no zero above k0 unaccounted for.  It
inherits that method's limits: a zero within one step of k0 shows no sign
change, a root near k1 is known only to ZERO_XTOL plus the band over which
rounding flips r's sign (4 eps omega(k1)/|r'(k1)|), and TANGENCY_TOL is
absolute on r.  ``record_q_arrays`` records the array calls of q that a
module makes, so tests can pin how many points the scan and ``delta0_for``
cost.

Two of the paper's hypotheses on omega are checked here as stated, since no
production route needs them: ``inflection_points`` locates where omega
changes concavity, which places the resonances, and ``nonresonance_check``
measures the margins of the scalar nonresonance conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from arcwave.dispersion import omega, omega_deriv
from arcwave.resonance import (
    Classification,
    ResonanceReport,
    _brentq,
    _r_hat_deriv,
    _stationary_point,
)
from twi_oracle import r_hat

#: the linspace scan's Brent tolerance in k, and the |r| below which its
#: stationary points count as double zeros
ZERO_XTOL = 1e-12
TANGENCY_TOL = 1e-8

#: the ``bond-sweep`` benchmark's Bond numbers before their +-1 % jitter:
#: two above b1, two in (b0, b1) and fifteen in (0, b0) down to 0.002
BOND_SWEEP_ANCHORS = (0.30, 0.26, 0.236, 0.228, 0.2, 0.144, 0.104, 0.075, 0.056,
                      0.039, 0.028, 0.020, 0.0138, 0.0104, 0.0075, 0.0054, 0.0039,
                      0.0029, 0.0020)


def record_q_arrays(monkeypatch, module) -> list[np.ndarray]:
    """Patch ``module.q_hat`` to copy each array argument into the list it
    returns; float arguments (the scalar route) pass unrecorded."""
    calls: list[np.ndarray] = []
    real = module.q_hat

    def recorded(k, b, k0):
        if not isinstance(k, (float, int)):
            calls.append(np.array(k))
        return real(k, b, k0)

    monkeypatch.setattr(module, "q_hat", recorded)
    return calls


def find_zeros_linspace(k0: float, b: float, k_max: float) -> ResonanceReport:
    """``find_zeros`` on its first scan: a linspace and two omega calls."""
    if not k_max > k0:
        raise ValueError(f"k_max={k_max} must exceed k0={k0}")

    lo = k0 / 2.0
    n_samples = min(int(np.ceil((k_max - lo) / 0.01)) + 1, 500_000)
    ks = np.linspace(lo, k_max, n_samples)
    rv = r_hat(ks, b, k0)

    tail = rv[-max(10, n_samples // 50):]
    diffs = np.diff(tail)
    if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
        raise ValueError(
            f"k_max={k_max} too small: r is not yet monotone near the window end"
        )
    if (np.all(diffs >= 0) and rv[-1] < -TANGENCY_TOL) or (
        np.all(diffs <= 0) and rv[-1] > TANGENCY_TOL
    ):
        raise ValueError(
            f"k_max={k_max} too small: r is monotone but has not crossed its "
            f"limit sign yet (r(k_max)={rv[-1]:.3e}); a zero may lie beyond"
        )

    def rfun(k: float) -> float:
        return r_hat(k, b, k0)

    zeros: list[float] = [k0]
    for i in np.where(rv[:-1] * rv[1:] < 0.0)[0]:
        z = _brentq(rfun, ks[i], ks[i + 1], xtol=ZERO_XTOL)
        if abs(z - k0) > 1e-7:
            zeros.append(float(z))

    double_zeros: list[float] = []
    absr = np.abs(rv)
    interior = (absr[1:-1] <= absr[:-2]) & (absr[1:-1] <= absr[2:]) & (absr[1:-1] < 1e-4)
    candidates = [float(ks[i + 1]) for i in np.where(interior)[0]]
    candidates.extend([k0 / 2.0, k0])
    for seed in candidates:
        ks_star = _stationary_point(seed, b, k0, lo, k_max)
        if ks_star is None:
            continue
        if abs(rfun(ks_star)) > TANGENCY_TOL:
            continue
        if any(abs(ks_star - d) < 1e-6 for d in double_zeros):
            continue
        if any(abs(ks_star - z) < 1e-6 and abs(_r_hat_deriv(z, b, k0)) > 1e-6
               for z in zeros):
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
    return ResonanceReport(k0=k0, b=b, zeros=zeros_sorted, double_zeros=doubles_sorted,
                           classification=cls, k1=max(above) if above else None)


@dataclass(frozen=True)
class InflectionPoints:
    k3: float
    k4: float


@dataclass(frozen=True)
class NonresonanceResult:
    ok: bool
    failures: tuple[str, ...]
    margins: dict[str, float]


def inflection_points(b: float) -> InflectionPoints:
    """Concavity landmarks of the dispersion curve: k3 (omega''=0), k4 (omega'''=0).

    Defined for 0 < b < 1/3; as b -> 1/3 the inflection k3 slides to 0 and
    the curve becomes globally convex, so larger b is rejected.
    """
    if not (0.0 < b < 1.0 / 3.0):
        raise ValueError(f"inflection points require 0 < b < 1/3, got b={b}")

    def d2(k: float) -> float:
        return omega_deriv(k, b, 2)

    def d3(k: float) -> float:
        return omega_deriv(k, b, 3)

    lo = 1e-4
    hi = 1.0
    while d2(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"failed to bracket k3 for b={b}")
    k3 = _brentq(d2, lo, hi, xtol=1e-12)

    hi4 = max(2.0 * k3, 1.0)
    while d3(hi4) > 0.0:
        hi4 *= 2.0
        if hi4 > 1e6:
            raise ValueError(f"failed to bracket k4 for b={b}")
    k4 = _brentq(d3, k3, hi4, xtol=1e-12)
    return InflectionPoints(k3=float(k3), k4=float(k4))


def nonresonance_check(k0: float, b: float) -> NonresonanceResult:
    """Margins of the three scalar nonresonance conditions.

    Checks, each with margin >= 1e-9:

    * ``nrb1``: group velocity at k0 differs from the long-wave speed 1;
    * ``nrb3``: the dispersion curve is genuinely curved at k0;
    * ``nrb4``: no harmonic collision +/- omega(m k0) = m omega(k0) for
      integer m in [2, 6).
    """
    w0 = float(omega(k0, b))
    m4 = np.inf
    for m in range(2, 6):
        wm = float(omega(m * k0, b))
        m4 = min(m4, abs(wm - m * w0), abs(wm + m * w0))
    margins = {"nrb1": abs(float(omega_deriv(k0, b, 1)) - 1.0),
               "nrb3": abs(float(omega_deriv(k0, b, 2))),
               "nrb4": float(m4)}
    failures = tuple(name for name, margin in margins.items() if margin < 1e-9)
    return NonresonanceResult(ok=not failures, failures=failures, margins=margins)
