"""Modulated wave-packet construction.

Assembles the four-component approximation from an envelope A riding the
carrier e^{i(k0*alpha - omega0*t)}: the order-eps leading band in the first
negative component, order-eps^2 mean-flow and second-harmonic corrections
in both first-block components, and the second block slaved through the
constraint map so the initial data sits on the consistency manifold of the
truncated system.

The two-scale composition A(eps*(alpha - cg*t)) is evaluated spectrally:
the envelope grid is required to nest exactly (L_envelope = eps * L_carrier),
which turns slow-variable sampling into an index shift plus a phase — no
interpolation error at any eps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dispersion import ModelParams, k0_symbol, sigma_inv
from .nls import EnvelopeField, second_order_coefficients
from .spectral import Grid1D, SpectralField, derivative, full_spectrum, half_spectrum

__all__ = [
    "WavePacket",
    "SecondOrderAmplitudes",
    "second_order_corrections",
    "wave_packet",
    "fourier_truncate",
    "band_mask",
    "build",
    "build_time_derivative",
    "carrier_halves",
    "envelope_rhs",
]

NESTING_RTOL = 1e-9


@dataclass(frozen=True)
class SecondOrderAmplitudes:
    """Envelope-scale correction profiles keyed by first-block component."""

    A_m0: dict[int, np.ndarray]   # mean flow, m in {-1, +1}
    A_m2: dict[int, np.ndarray]   # second harmonic


def second_order_corrections(A: EnvelopeField, params: ModelParams) -> SecondOrderAmplitudes:
    """Quadratic response profiles c_{m0}|A|^2 and c_{m2}A^2.

    The response coefficients come from the same elimination as the cubic
    envelope coefficient; degenerate denominators raise there, naming the
    violated condition.
    """
    c = second_order_coefficients(params.k0, params.b)
    a = A.values
    return SecondOrderAmplitudes(
        A_m0={-1: c["c_m0"] * np.abs(a) ** 2, 1: c["c_p0"] * np.abs(a) ** 2},
        A_m2={-1: c["c_m2"] * a**2, 1: c["c_p2"] * a**2},
    )


@dataclass(frozen=True)
class WavePacket:
    """Envelope plus correction profiles and the truncation flag."""

    eps: float
    params: ModelParams
    A: EnvelopeField
    corrections: Optional[SecondOrderAmplitudes]
    truncated: bool = False
    delta0: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if self.truncated and not (self.delta0 and 0 < self.delta0 < self.params.k0 / 20):
            raise ValueError(
                f"truncation needs 0 < delta0 < k0/20, got {self.delta0}")

    @property
    def corrections_enabled(self) -> bool:
        return self.corrections is not None


def wave_packet(A: EnvelopeField, eps: float, params: ModelParams,
                corrections: bool = True) -> WavePacket:
    """Package an envelope for realization, precomputing the corrections."""
    sec = second_order_corrections(A, params) if corrections else None
    return WavePacket(eps=eps, params=params, A=A, corrections=sec)


def fourier_truncate(packet: WavePacket, delta0: float) -> WavePacket:
    """Flag the packet so realizations keep only |k - l*k0| <= delta0 bands."""
    return replace(packet, truncated=True, delta0=delta0)


def band_mask(grid: Grid1D, k0: float, delta0: float,
              harmonics: range = range(-2, 3)) -> np.ndarray:
    """Boolean keep-mask: union of delta0-bands around the harmonics l*k0."""
    k = grid.wavenumbers
    keep = np.zeros(grid.n_points, dtype=bool)
    for ell in harmonics:
        keep |= np.abs(k - ell * k0) <= delta0
    return keep


def _check_nesting(packet: WavePacket, grid: Grid1D) -> int:
    env = packet.A.grid
    if abs(env.length - packet.eps * grid.length) > NESTING_RTOL * env.length:
        raise ValueError(
            f"envelope grid does not nest: L_envelope={env.length} but "
            f"eps*L_carrier={packet.eps * grid.length}")
    j0 = packet.params.k0 / grid.fundamental
    if abs(j0 - round(j0)) > 1e-9:
        raise ValueError(
            f"carrier k0={packet.params.k0} is not a mode of the grid "
            f"(fundamental {grid.fundamental})")
    j0 = int(round(j0))
    max_env = env.n_points // 2
    if 2 * j0 + max_env >= grid.n_points // 2:
        raise ValueError("carrier grid too small for the shifted envelope bands")
    return j0


def _band_coefficients(grid: Grid1D, env: Grid1D, profile: np.ndarray,
                       ell: int, j0: int, cg: float, eps: float,
                       t: float) -> np.ndarray:
    """Carrier-grid coefficients of profile(eps*(alpha - cg t)) * E^ell.

    The nested envelope mode j lands on carrier mode ell*j0 + j with the
    slow transport phase; the carrier's own -ell*omega0*t phase is applied
    by the caller.
    """
    g = np.fft.fft(profile) / env.n_points
    out = np.zeros(grid.n_points, dtype=complex)
    kappa_eps = env.mode_numbers * grid.fundamental  # = eps * kappa exactly
    phases = np.exp(-1j * kappa_eps * cg * t)
    idx = (ell * j0 + env.mode_numbers) % grid.n_points
    # real and imaginary parts formed apart round like numpy's complex
    # scalar product (its vectorized product may fuse multiply-adds), so the
    # result does not depend on the machine's SIMD support
    out.real[idx] = g.real * phases.real - g.imag * phases.imag
    out.imag[idx] = g.real * phases.imag + g.imag * phases.real
    return out


def _hermitian_part(grid: Grid1D, c: np.ndarray) -> np.ndarray:
    """Project carrier coefficients onto the real-field (Hermitian) subspace.

    Needed for the mean-flow band: a real profile on an even envelope grid
    carries an unpaired Nyquist mode, and its canonical real interpolation
    onto the finer carrier grid splits that mode cosine-wise.
    """
    return 0.5 * (c + np.conj(c[grid._conjugate_index]))


def _first_block(packet: WavePacket, grid: Grid1D, t: float,
                 profiles: dict) -> tuple[SpectralField, SpectralField]:
    p = packet.params
    j0 = _check_nesting(packet, grid)
    env = packet.A.grid
    eps = packet.eps
    w0 = p.omega0
    rows = {}
    for m in (-1, 1):
        c = np.zeros(grid.n_points, dtype=complex)
        if m == -1:
            lead = _band_coefficients(grid, env, profiles["lead"], 1, j0,
                                      p.cg, eps, t) * np.exp(-1j * w0 * t)
            c += eps * (lead + np.conj(lead[grid._conjugate_index]))
        if packet.corrections is not None:
            mean = _hermitian_part(grid, _band_coefficients(
                grid, env, profiles["m0"][m], 0, j0, p.cg, eps, t))
            harm = _band_coefficients(grid, env, profiles["m2"][m], 2, j0,
                                      p.cg, eps, t) * np.exp(-2j * w0 * t)
            c += eps**2 * (mean + harm + np.conj(harm[grid._conjugate_index]))
        rows[m] = c
    if packet.truncated:
        keep = band_mask(grid, p.k0, packet.delta0)
        for m in (-1, 1):
            rows[m] = np.where(keep, rows[m], 0.0)
    u_m1 = SpectralField.from_coefficients(grid, rows[-1], is_real=True)
    u_p1 = SpectralField.from_coefficients(grid, rows[1], is_real=True)
    return u_m1, u_p1


def _constraint_product(f: SpectralField, g: SpectralField, b: float) -> SpectralField:
    """Dealiased product K0 f * siginv g of two real fields.

    Formed with real transforms on the half spectrum, so the result is
    exactly Hermitian.
    """
    grid = f.grid
    n = grid.n_points
    k = grid.wavenumbers
    pf, pg = np.fft.irfft(half_spectrum(np.array(
        [k0_symbol(k) * f.coefficients, sigma_inv(k, b) * g.coefficients])), n, norm="forward")
    prod = full_spectrum(np.fft.rfft(pf * pg, norm="forward"), n)
    return SpectralField.from_coefficients(
        grid, np.where(grid.dealias_keep, prod, 0.0), is_real=True)


def _slave_second_block(u_m1: SpectralField, u_p1: SpectralField,
                        b: float) -> tuple[SpectralField, SpectralField]:
    """Constraint map: d2 = s1'', s2 = s1'' - (K0 s1 * siginv d2)'."""
    s1 = u_m1 + u_p1
    d2 = derivative(u_m1 - u_p1, 2)
    s2 = derivative(s1, 2) - derivative(_constraint_product(s1, d2, b))
    return 0.5 * (s2 + d2), 0.5 * (s2 - d2)


def build(packet: WavePacket, grid: Grid1D, t: float = 0.0
          ) -> tuple[SpectralField, SpectralField, SpectralField, SpectralField]:
    """Realize the packet on the carrier grid at time t.

    Returns the four components (negative/positive first block, then the
    slaved second block) as real spectral fields.
    """
    profiles = {
        "lead": packet.A.values,
        "m0": packet.corrections.A_m0 if packet.corrections else None,
        "m2": packet.corrections.A_m2 if packet.corrections else None,
    }
    u_m1, u_p1 = _first_block(packet, grid, t, profiles)
    u_m2, u_p2 = _slave_second_block(u_m1, u_p1, packet.params.b)
    return u_m1, u_p1, u_m2, u_p2


def carrier_halves(packet: WavePacket, grid: Grid1D, t: float
                   ) -> tuple[SpectralField, SpectralField]:
    """The O(1) halves of the leading carrier band.

    Returns (psi_plus, psi_minus): the envelope riding e^{i(k0 alpha - w0 t)}
    and its complex conjugate, so that the order-eps part of the first
    negative component is eps * (psi_plus + psi_minus).  Used by the energy
    diagnostic, whose quadratic correction pairs the error against exactly
    this carrier profile.
    """
    p = packet.params
    j0 = _check_nesting(packet, grid)
    lead = _band_coefficients(grid, packet.A.grid, packet.A.values, 1, j0,
                              p.cg, packet.eps, t) * np.exp(-1j * p.omega0 * t)
    if packet.truncated:
        keep = band_mask(grid, p.k0, packet.delta0)
        lead = np.where(keep, lead, 0.0)
    plus = SpectralField.from_coefficients(grid, lead, is_real=False)
    minus = SpectralField.from_coefficients(
        grid, np.conj(lead[grid._conjugate_index]), is_real=False)
    return plus, minus


def envelope_rhs(A: EnvelopeField, half_omega2: float, nu: float) -> np.ndarray:
    """Cubic-Schrödinger right-hand side on the envelope grid."""
    k = A.grid.wavenumbers
    a_hat = np.fft.fft(A.values) / A.grid.n_points
    lap = np.fft.ifft(-(k**2) * a_hat) * A.grid.n_points
    return 1j * half_omega2 * lap + 1j * nu * np.abs(A.values) ** 2 * A.values


def build_time_derivative(packet: WavePacket, grid: Grid1D, t: float,
                          half_omega2: float, nu: float
                          ) -> tuple[SpectralField, SpectralField,
                                     SpectralField, SpectralField]:
    """Exact d/dt of the realized packet via the two-scale chain rule.

    Each slow profile G contributes eps^2 * dG/dtau - eps*cg * dG/dxi
    - i*l*omega0*G on its harmonic; the envelope's tau-derivative follows
    the modulation equation, the corrections' by differentiating their
    algebraic definitions.  The second block is the linearized constraint
    map applied to the first-block derivative.
    """
    p = packet.params
    env = packet.A.grid
    eps = packet.eps
    a = packet.A.values
    a_tau = envelope_rhs(packet.A, half_omega2, nu)

    def slow_dt(profile: np.ndarray, profile_tau: np.ndarray) -> np.ndarray:
        kappa = env.wavenumbers
        dxi = np.fft.ifft(1j * kappa * np.fft.fft(profile))
        return eps**2 * profile_tau - eps * p.cg * dxi

    profiles = {"lead": a, "m0": None, "m2": None}
    dt_profiles = {"lead": slow_dt(a, a_tau), "m0": None, "m2": None}
    if packet.corrections is not None:
        c = second_order_coefficients(p.k0, p.b)
        mod2 = 2.0 * np.real(np.conj(a) * a_tau)          # d/dtau |A|^2
        profiles["m0"] = packet.corrections.A_m0
        profiles["m2"] = packet.corrections.A_m2
        dt_profiles["m0"] = {m: slow_dt(packet.corrections.A_m0[m],
                                        c["c_m0" if m < 0 else "c_p0"] * mod2)
                             for m in (-1, 1)}
        dt_profiles["m2"] = {m: slow_dt(packet.corrections.A_m2[m],
                                        c["c_m2" if m < 0 else "c_p2"] * 2 * a * a_tau)
                             for m in (-1, 1)}

    j0 = _check_nesting(packet, grid)
    w0 = p.omega0
    rows = {}
    for m in (-1, 1):
        cdt = np.zeros(grid.n_points, dtype=complex)
        if m == -1:
            lead = _band_coefficients(grid, env, dt_profiles["lead"], 1, j0,
                                      p.cg, eps, t)
            lead += -1j * w0 * _band_coefficients(grid, env, profiles["lead"],
                                                  1, j0, p.cg, eps, t)
            lead *= np.exp(-1j * w0 * t)
            cdt += eps * (lead + np.conj(lead[grid._conjugate_index]))
        if packet.corrections is not None:
            mean = _hermitian_part(grid, _band_coefficients(
                grid, env, dt_profiles["m0"][m], 0, j0, p.cg, eps, t))
            harm = _band_coefficients(grid, env, dt_profiles["m2"][m], 2, j0,
                                      p.cg, eps, t)
            harm += -2j * w0 * _band_coefficients(grid, env, profiles["m2"][m],
                                                  2, j0, p.cg, eps, t)
            harm *= np.exp(-2j * w0 * t)
            cdt += eps**2 * (mean + harm + np.conj(harm[grid._conjugate_index]))
        rows[m] = cdt
    if packet.truncated:
        keep = band_mask(grid, p.k0, packet.delta0)
        for m in (-1, 1):
            rows[m] = np.where(keep, rows[m], 0.0)
    du_m1 = SpectralField.from_coefficients(grid, rows[-1], is_real=True)
    du_p1 = SpectralField.from_coefficients(grid, rows[1], is_real=True)

    # linearized slaving: d2' = ds1'', s2' = ds1'' - (K0 ds1 * si d2)' - (K0 s1 * si dd2)'
    u_m1, u_p1 = _first_block(packet, grid, t, profiles)
    s1, d1 = u_m1 + u_p1, u_m1 - u_p1
    ds1, dd1 = du_m1 + du_p1, du_m1 - du_p1
    d2 = derivative(d1, 2)
    dd2 = derivative(dd1, 2)
    ds2 = derivative(ds1, 2) - derivative(
        _constraint_product(ds1, d2, p.b) + _constraint_product(s1, dd2, p.b))
    du_m2 = 0.5 * (ds2 + dd2)
    du_p2 = 0.5 * (ds2 - dd2)
    return du_m1, du_p1, du_m2, du_p2
