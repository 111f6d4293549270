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

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dispersion import omega, omega_deriv
from .kernels import first_block_symbol
from .spectral import Grid1D

__all__ = [
    "NLSCoeffs",
    "SecondOrderCoeffs",
    "EnvelopeField",
    "NLSTrajectory",
    "nls_coefficients",
    "second_order_coefficients",
    "solve",
    "mass",
]

_DENOM_TOL = 1e-8
_FD_STEP = 1e-6


@dataclass(frozen=True)
class NLSCoeffs:
    """Envelope equation data: dA/dtau = i*half_omega2*A'' + i*nu*|A|^2*A."""

    half_omega2: float
    nu: float

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


class SecondOrderCoeffs(NamedTuple):
    """Second-order response coefficients, in the order of the correction
    profiles: mean flow and second harmonic of u_{-1}, then of u_{+1}."""

    c_m0: float
    c_m2: float
    c_p0: float
    c_p2: float


@lru_cache(maxsize=64)
def second_order_coefficients(k0: float, b: float) -> SecondOrderCoeffs:
    """Second-harmonic and mean-flow response coefficients per component.

    ``c_m2``/``c_p2`` scale A² on the double carrier in the -1/+1
    components; ``c_m0``/``c_p0`` scale |A|² on the mean flow.  All four are
    real.  Raises when an elimination denominator degenerates: "2om" for the
    second-harmonic mismatch, "cg" for the group-velocity one.

    Cached on (k0, b), since every packet build asks for them; every caller
    shares the result, an immutable tuple.
    """
    w0 = omega(k0, b)
    w2 = omega(2 * k0, b)
    cg = omega_deriv(k0, b, order=1)

    out = []
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

        for harmonic, val in ((0, c0), (2, c2)):
            if abs(np.imag(val)) > 1e-6 * max(1.0, abs(val)):
                raise AssertionError(
                    f"c_{tag}{harmonic} should be real, got {val}")  # pragma: no cover
            out.append(float(np.real(val)))
    return SecondOrderCoeffs(*out)


def nls_coefficients(k0: float, b: float) -> NLSCoeffs:
    """Cubic coefficient of the quadratic-truncated system's envelope limit.

    The quadratic interactions feed the cubic balance twice: once through
    the second harmonic and once through the mean flow.  Summing both back
    into the carrier equation yields i*nu; the result is real to round-off.
    """
    c = second_order_coefficients(k0, b)
    inu = 0.0 + 0.0j
    for m, c0, c2 in ((-1, c.c_m0, c.c_m2), (1, c.c_p0, c.c_p2)):
        inu += first_block_symbol(-1, m, k0, 0.0, b) * c0
        inu += first_block_symbol(-1, m, -k0, 2 * k0, b) * c2
    nu = float(np.imag(inu))
    if abs(np.real(inu)) > 1e-9 * max(1.0, abs(nu)):
        raise AssertionError(f"nu came out non-real: {inu}")  # pragma: no cover
    return NLSCoeffs(half_omega2=0.5 * omega_deriv(k0, b, order=2), nu=nu)


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


@lru_cache(maxsize=16)
def _linear_phase(grid: Grid1D, coeffs: NLSCoeffs, h: float) -> np.ndarray:
    """Read-only multiplier of a linear step of length h, per (grid, coeffs, h)."""
    # dA/dtau = i p A'' -> multiplier exp(-i p k^2 h)
    phase = np.exp(-1j * coeffs.half_omega2 * grid.wavenumbers**2 * h)
    phase.setflags(write=False)
    return phase


def solve(A0: EnvelopeField, coeffs: NLSCoeffs, dtau: float, tau_end: float,
          sample_every: int = 1) -> NLSTrajectory:
    """Strang-split march: linear half-step, cubic phase rotation, linear
    half-step.  Raises on the first non-finite sample, naming the step.

    The march takes (tau_end - A0.tau)/dtau steps, which must be a whole
    number to within 1e-9 relative; any other ratio is refused rather than
    rounded to a horizon that was not asked for.

    The coefficients a = fft(A)/n are advanced in place, with transforms
    that do not rescale (``norm="forward"``): on a power-of-two grid that
    is bitwise the rescaled fft(A)/n and ifft(a)*n.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    ratio = (tau_end - A0.tau) / dtau
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(
            f"(tau_end - tau)/dtau = {ratio!r} is not a whole number of steps "
            f"(tau={A0.tau}, tau_end={tau_end}, dtau={dtau})")
    if n_steps < 0:
        raise ValueError("tau_end precedes the initial time")
    half = _linear_phase(A0.grid, coeffs, 0.5 * dtau)
    inu = 1j * coeffs.nu  # the cubic rotation is exp(inu |A|^2 dtau)
    fft, ifft = np.fft.fft, np.fft.ifft
    mul = np.multiply
    a = fft(A0.values, norm="forward")
    phys = np.empty_like(a)
    rot = np.empty_like(a)
    mod2 = np.empty(a.shape)
    finite = np.empty(a.shape, dtype=bool)
    taus = [A0.tau]
    samples = [A0.values.copy()]
    for step in range(1, n_steps + 1):
        mul(half, a, out=a)
        ifft(a, norm="forward", out=phys)
        np.abs(phys, out=mod2)
        mul(mod2, mod2, out=mod2)
        mul(inu, mod2, out=rot)
        mul(rot, dtau, out=rot)
        np.exp(rot, out=rot)
        mul(phys, rot, out=phys)
        fft(phys, norm="forward", out=a)
        mul(half, a, out=a)
        if not np.isfinite(a, out=finite).all():
            raise RuntimeError(f"non-finite envelope at step {step} "
                               f"(tau={A0.tau + step * dtau:.6g})")
        if step % sample_every == 0 or step == n_steps:
            taus.append(A0.tau + step * dtau)
            samples.append(ifft(a, norm="forward"))
    return NLSTrajectory(grid=A0.grid, tau=np.array(taus), samples=np.array(samples))
