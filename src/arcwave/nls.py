"""Cubic Schrödinger envelope dynamics for a slowly modulated carrier.

``nls_coefficients`` eliminates the second-harmonic and mean-flow amplitudes
from the quadratic-truncated system's second-order balance and returns the
resulting real cubic coefficient together with the usual dispersive one,
``half_omega2 = omega''(k0)/2``.  The elimination owns two denominators —
the second-harmonic frequency mismatch and the group-velocity/long-wave
mismatch — and refuses, naming the offending condition, when either
degenerates.

The solver is a plain Strang split: exact linear half-steps in Fourier
space around an exact pointwise cubic phase rotation.  Both sub-steps are
isometries, so mass is conserved to round-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .dispersion import omega, omega_deriv
from .kernels import first_block_symbol
from .spectral import Grid1D

__all__ = [
    "Provenance",
    "NLSCoeffs",
    "EnvelopeField",
    "NLSTrajectory",
    "nls_coefficients",
    "second_order_coefficients",
    "solve",
    "soliton",
    "mass",
]

_DENOM_TOL = 1e-8
_FD_STEP = 1e-6


class Provenance(str, enum.Enum):
    USER_SUPPLIED = "user_supplied"
    QUADRATIC_TRUNCATED = "quadratic_truncated_derivation"


@dataclass(frozen=True)
class NLSCoeffs:
    """Envelope equation data: dA/dtau = i*half_omega2*A'' + i*nu*|A|^2*A."""

    half_omega2: float
    nu: float
    provenance: Provenance = Provenance.USER_SUPPLIED

    def __post_init__(self) -> None:
        if not (np.isfinite(self.half_omega2) and np.isfinite(self.nu)):
            raise ValueError("NLS coefficients must be finite")


@dataclass(frozen=True)
class EnvelopeField:
    """Complex envelope samples on a periodic grid at slow time ``tau``.

    ``values`` is a read-only copy of the samples given.
    """

    grid: Grid1D
    values: np.ndarray
    tau: float = 0.0

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"envelope needs {self.grid.n_points} samples, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("envelope samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def mass(field: EnvelopeField) -> float:
    """Discrete ∫|A|² dξ."""
    return float(field.grid.spacing * np.sum(np.abs(field.values) ** 2))


@lru_cache(maxsize=64)
def second_order_coefficients(k0: float, b: float) -> Mapping[str, float]:
    """Second-harmonic and mean-flow response coefficients per component.

    Keys ``c_m2``/``c_p2`` scale A² on the double carrier in the -1/+1
    components; ``c_m0``/``c_p0`` scale |A|² on the mean flow.  All four are
    real.  Raises when an elimination denominator degenerates: "2om" for the
    second-harmonic mismatch, "cg" for the group-velocity one.

    Cached on (k0, b), since every packet build asks for them; the result
    is a read-only mapping because every caller shares it.
    """
    w0 = omega(k0, b)
    w2 = omega(2 * k0, b)
    cg = omega_deriv(k0, b, order=1)

    out: dict[str, float] = {}
    for m, tag in ((-1, "m"), (1, "p")):
        sgn = -1.0 if m < 0 else 1.0
        den2 = -2.0 * w0 - sgn * w2
        if abs(den2) < _DENOM_TOL:
            raise ValueError(
                f"second-harmonic denominator (2om) vanishes: "
                f"-2*omega(k0) - ({sgn:+.0f})*omega(2*k0) = {den2:.3e} "
                f"at k0={k0}, b={b}"
            )
        gamma2 = first_block_symbol(m, -1, k0, k0, b) / 2.0
        c2 = gamma2 / (1j * den2)

        den0 = -cg - sgn * 1.0
        if abs(den0) < _DENOM_TOL:
            raise ValueError(
                f"group-velocity denominator (cg) vanishes: "
                f"-omega'(k0) - ({sgn:+.0f}) = {den0:.3e} at k0={k0}, b={b}"
            )
        # the kernel vanishes at the mean-flow point itself; its slope there
        # is what feeds the elimination (central difference, O(h^2))
        gamma0 = (first_block_symbol(m, -1, k0, -k0 + _FD_STEP, b)
                  - first_block_symbol(m, -1, k0, -k0 - _FD_STEP, b)) / (2j * _FD_STEP)
        c0 = gamma0 / den0

        for tag2, val in ((f"c_{tag}2", c2), (f"c_{tag}0", c0)):
            if abs(np.imag(val)) > 1e-6 * max(1.0, abs(val)):
                raise AssertionError(
                    f"{tag2} should be real, got {val}")  # pragma: no cover
            out[tag2] = float(np.real(val))
    return MappingProxyType(out)


def nls_coefficients(k0: float, b: float) -> NLSCoeffs:
    """Cubic coefficient of the quadratic-truncated system's envelope limit.

    The quadratic interactions feed the cubic balance twice: once through
    the second harmonic and once through the mean flow.  Summing both back
    into the carrier equation yields i*nu; the result is real to round-off
    and is returned with provenance marked accordingly.
    """
    c = second_order_coefficients(k0, b)
    inu = 0.0 + 0.0j
    for m, tag in ((-1, "m"), (1, "p")):
        inu += first_block_symbol(-1, m, k0, 0.0, b) * c[f"c_{tag}0"]
        inu += first_block_symbol(-1, m, -k0, 2 * k0, b) * c[f"c_{tag}2"]
    nu = float(np.imag(inu))
    if abs(np.real(inu)) > 1e-9 * max(1.0, abs(nu)):
        raise AssertionError(f"nu came out non-real: {inu}")  # pragma: no cover
    return NLSCoeffs(
        half_omega2=0.5 * omega_deriv(k0, b, order=2),
        nu=nu,
        provenance=Provenance.QUADRATIC_TRUNCATED,
    )


# ---------------------------------------------------------------------------
# split-step solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NLSTrajectory:
    grid: Grid1D
    tau: np.ndarray
    samples: np.ndarray  # (n_samples, n_points)

    def final(self) -> EnvelopeField:
        return EnvelopeField(self.grid, self.samples[-1], tau=float(self.tau[-1]))


def _linear_phase(grid: Grid1D, coeffs: NLSCoeffs, h: float) -> np.ndarray:
    # dA/dtau = i p A'' -> multiplier exp(-i p k^2 h)
    return np.exp(-1j * coeffs.half_omega2 * grid.wavenumbers**2 * h)


def solve(A0: EnvelopeField, coeffs: NLSCoeffs, dtau: float, tau_end: float,
          sample_every: int = 1) -> NLSTrajectory:
    """Strang-split march: linear half-step, cubic phase rotation, linear
    half-step.  Raises on the first non-finite sample, naming the step."""
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n_steps = int(round((tau_end - A0.tau) / dtau))
    if n_steps < 0:
        raise ValueError("tau_end precedes the initial time")
    grid = A0.grid
    half = _linear_phase(grid, coeffs, 0.5 * dtau)
    a = np.fft.fft(A0.values) / grid.n_points
    taus = [A0.tau]
    samples = [A0.values.copy()]
    for step in range(1, n_steps + 1):
        a = half * a
        phys = np.fft.ifft(a) * grid.n_points
        phys *= np.exp(1j * coeffs.nu * np.abs(phys) ** 2 * dtau)
        a = half * (np.fft.fft(phys) / grid.n_points)
        if not np.all(np.isfinite(a)):
            raise RuntimeError(f"non-finite envelope at step {step} "
                               f"(tau={A0.tau + step * dtau:.6g})")
        if step % sample_every == 0 or step == n_steps:
            taus.append(A0.tau + step * dtau)
            samples.append(np.fft.ifft(a) * grid.n_points)
    return NLSTrajectory(grid=grid, tau=np.array(taus), samples=np.array(samples))


def soliton(grid: Grid1D, coeffs: NLSCoeffs, eta: float = 1.0,
            tau: float = 0.0, xi0: float = 0.0) -> EnvelopeField:
    """sech soliton of the focusing cubic equation.

    A = eta*sqrt(2p/q) sech(eta*(xi-xi0)) e^{i p eta^2 tau} solves
    dA/dtau = i p A'' + i q |A|^2 A whenever p and q share a sign.  The
    domain must comfortably contain the sech tails for the periodic wrap
    to be negligible.
    """
    p, q = coeffs.half_omega2, coeffs.nu
    if p * q <= 0:
        raise ValueError(
            f"soliton needs focusing coefficients (p*q > 0), got p={p}, q={q}")
    xi = grid.alpha - 0.5 * grid.length  # center the profile
    amp = eta * np.sqrt(2.0 * p / q)
    values = amp / np.cosh(eta * (xi - xi0)) * np.exp(1j * p * eta**2 * tau)
    return EnvelopeField(grid, values, tau=tau)
