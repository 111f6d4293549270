"""Resonant-triad amplitude dynamics.

Three complex amplitudes riding the carriers of a resonant triad
(k_0', k_1', k_2') with k_0' + k_1' + k_2' = 0 and matching frequency sum
exchange energy through a closed ODE system

    A0' = c0 * conj(A1 * A2),   A1' = c1 * conj(A0 * A2),
    A2' = c2 * conj(A0 * A1).

The coefficients are the closed-form first-block symbol of the
first-component evolution equation at the exact triad points (kernel
extraction from the equations is their test oracle); the single-mode
subspaces are fixed points, and the ratio c1/c2 decides whether the
(A0, 0, 0) subspace is stable (ratio < 0) or sheds energy into the partner
modes (ratio > 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import first_block_symbol
from .resonance import r_hat

__all__ = [
    "TWIState",
    "TWICoeffs",
    "Trajectory",
    "twi_coeffs",
    "conserved_E",
    "default_dt",
    "integrate",
    "m0_growth_factor",
]

BLOWUP_THRESHOLD = 1e6
RESONANCE_WARN_TOL = 1e-6


@dataclass(frozen=True)
class TWIState:
    """Three triad amplitudes at slow time ``tau``."""

    A0: complex
    A1: complex
    A2: complex
    tau: float = 0.0

    def __post_init__(self) -> None:
        for name in ("A0", "A1", "A2"):
            v = getattr(self, name)
            if not np.isfinite(v.real) or not np.isfinite(v.imag):
                raise ValueError(f"amplitude {name} must be finite, got {v}")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.A0, self.A1, self.A2], dtype=complex)


@dataclass(frozen=True)
class TWICoeffs:
    """Triad interaction coefficients.

    ``triad`` stores the carrier wavenumbers (they sum to zero exactly);
    ``resonance_defect`` is |r| at the requested partner wavenumber,
    recorded so a sloppy triad is visible downstream.
    """

    c0: complex
    c1: complex
    c2: complex
    triad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    resonance_defect: float = 0.0

    def ratio(self) -> float:
        """Stability discriminant c1/c2 (real up to rounding)."""
        if self.c2 == 0:
            raise ZeroDivisionError("c2 vanishes; the triad ratio is undefined")
        return (self.c1 / self.c2).real


def twi_coeffs(k0: float, k1: float, b: float, ell: int = 1) -> TWICoeffs:
    """Triad coefficients for the partner pair (k0, k1).

    The triad carriers are (-ell*k0, ell*k1, -ell*(k1-k0)); each coefficient
    is the closed-form first-block symbol of the u_{-1} equation at the exact
    wavenumbers.  A partner that is not actually resonant (|r| at k1 above
    tolerance) produces a warning, not an error — the ODE system is well
    defined regardless.
    """
    if ell not in (-1, 1):
        raise ValueError(f"ell must be +/-1, got {ell}")
    if k1 == 0.0 or k1 == k0:
        raise ValueError(f"k1={k1} is a trivial resonance of k0={k0}")
    defect = float(abs(r_hat(k1, b, k0)))
    if defect > RESONANCE_WARN_TOL:
        warnings.warn(
            f"(k0={k0}, k1={k1}) is not resonant at b={b}: |r|={defect:.3e}",
            stacklevel=2,
        )
    # coefficient of conj(A1 A2) at carrier -ell*k0, and cyclic
    c0 = first_block_symbol(-1, -1, -ell * k1, ell * (k1 - k0), b)
    c1 = first_block_symbol(-1, -1, ell * k0, ell * (k1 - k0), b)
    c2 = first_block_symbol(-1, -1, ell * k0, -ell * k1, b)
    triad = (-ell * k0, ell * k1, -ell * (k1 - k0))
    return TWICoeffs(c0=c0, c1=c1, c2=c2, triad=triad, resonance_defect=defect)


def conserved_E(state: TWIState, coeffs: TWICoeffs) -> float:
    """|A1|^2 - (c1/c2)|A2|^2; conserved along trajectories, nonnegative in
    the stable regime."""
    return abs(state.A1) ** 2 - coeffs.ratio() * abs(state.A2) ** 2


def default_dt(state: TWIState, coeffs: TWICoeffs) -> float:
    """CFL-like step for the bilinear ODE: 1e-3 over the interaction scale."""
    cmax = max(abs(coeffs.c0), abs(coeffs.c1), abs(coeffs.c2))
    amax = float(np.max(np.abs(state.amplitudes())))
    scale = cmax * max(amax, 1e-12)
    return 1e-3 / scale if scale > 0 else 1e-3


@dataclass(frozen=True)
class Trajectory:
    """Sampled triad evolution; ``blew_up`` marks early truncation."""

    tau: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    E: np.ndarray
    blew_up: bool = False

    def final_state(self) -> TWIState:
        return TWIState(A0=complex(self.A0[-1]), A1=complex(self.A1[-1]),
                        A2=complex(self.A2[-1]), tau=float(self.tau[-1]))


def _rhs(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.array([
        c[0] * np.conj(a[1] * a[2]),
        c[1] * np.conj(a[0] * a[2]),
        c[2] * np.conj(a[0] * a[1]),
    ])


def integrate(state: TWIState, coeffs: TWICoeffs, dt: float,
              t_end: float, sample_every: int = 1) -> Trajectory:
    """Classical fourth-order Runge-Kutta march from state.tau to t_end.

    ``dt`` may be negative (backwards run).  Amplitudes above 1e6 stop the
    march; whatever was collected so far is returned with ``blew_up`` set.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n_steps = int(round((t_end - state.tau) / dt))
    if n_steps < 0:
        raise ValueError(f"dt={dt} never reaches t_end={t_end} from tau={state.tau}")
    c = np.array([coeffs.c0, coeffs.c1, coeffs.c2], dtype=complex)
    a = state.amplitudes()
    taus = [state.tau]
    samples = [a.copy()]
    blew_up = False
    for step in range(1, n_steps + 1):
        k1 = _rhs(a, c)
        k2 = _rhs(a + 0.5 * dt * k1, c)
        k3 = _rhs(a + 0.5 * dt * k2, c)
        k4 = _rhs(a + dt * k3, c)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.max(np.abs(a)) > BLOWUP_THRESHOLD or not np.all(np.isfinite(a)):
            blew_up = True
            break
        if step % sample_every == 0 or step == n_steps:
            taus.append(state.tau + step * dt)
            samples.append(a.copy())
    arr = np.array(samples)
    ratio = coeffs.ratio()
    E = np.abs(arr[:, 1]) ** 2 - ratio * np.abs(arr[:, 2]) ** 2
    return Trajectory(tau=np.array(taus), A0=arr[:, 0], A1=arr[:, 1],
                      A2=arr[:, 2], E=E, blew_up=blew_up)


def m0_growth_factor(coeffs: TWICoeffs, delta: float = 1e-4,
                     a0: complex = 1.0 + 0.0j, efolds: float = 3.5) -> float:
    """max |A1| / delta over a few predicted e-folds.

    In the stable regime the conserved quadratic pins |A1| to a handful of
    delta, so anything >= 10 is an unambiguous instability signature.  The
    window falls back to the interaction time scale when the linearization
    predicts no growth.
    """
    mu = (coeffs.c1 * np.conj(coeffs.c2) * abs(a0) ** 2).real
    predicted = np.sqrt(mu) if mu > 0 else 0.0
    window = efolds / predicted if predicted > 0 else 10.0 / max(abs(coeffs.c1), 1e-12)
    state = TWIState(A0=a0, A1=delta + 0j, A2=delta + 0j)
    dt = min(default_dt(state, coeffs), window / 400.0)
    traj = integrate(state, coeffs, dt, window)
    return float(np.max(np.abs(traj.A1)) / delta)
