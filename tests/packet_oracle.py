"""The packet's exact time derivative and its residual: the tests' oracle.

The paper's approximation rests on a residual estimate: the realized wave
packet satisfies the truncated system up to a defect that falls with eps.
``build_time_derivative`` differentiates a realized packet exactly, by the
two-scale chain rule with the envelope moving under its modulation
equation, and ``residual`` measures the defect of the four evolution
equations at t = 0 against it.  ``residual_orders`` fits the decay of that
defect in eps for sech packets, with and without the quadratic corrections.
``carrier_halves`` reads the O(1) halves of the leading carrier band off the
packet's band assembly.  ``full_layout_first_block`` and
``full_layout_build`` compose the realization in the full layout, every
column including those at -k, the reference for the half spectra of
``first_block`` and ``build``.  No production route needs these; the tests
hold them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from arcwave.equations import default_system, slave_second_block
from arcwave.nls import EnvelopeField, nls_coefficients, second_order_coefficients
from arcwave.sim import SimConfig, _sech_envelope, scan_grid_length
from arcwave.spectral import Grid1D, full_spectrum, half_spectrum
from arcwave.wavepacket import (_HARMONICS, WavePacket, _band_coefficients, _check_nesting,
                                 build, first_block, wave_packet)
from kernel_oracle import full_rhs


def envelope_rhs(A: EnvelopeField, half_omega2: float, nu: float) -> np.ndarray:
    """Cubic-Schrödinger right-hand side on the envelope grid."""
    k = A.grid.wavenumbers
    a_hat = np.fft.fft(A.values) / A.grid.n_points
    lap = np.fft.ifft(-(k**2) * a_hat) * A.grid.n_points
    return 1j * half_omega2 * lap + 1j * nu * np.abs(A.values) ** 2 * A.values


def build_time_derivative(packet: WavePacket, grid: Grid1D, t: float) -> np.ndarray:
    """Exact d/dt of the realized packet via the two-scale chain rule, (4, n).

    Each slow profile G on harmonic l has time derivative
    eps^2 * dG/dtau - eps*cg * dG/dxi - i*l*omega0*G; the envelope's
    tau-derivative follows the modulation equation, whose coefficients
    ``nls_coefficients`` derives for the packet's (k0, b); the corrections'
    follow by differentiating their algebraic definitions.  The first block
    is the full-layout band assembly of these derivative profiles.  The
    second block is the derivative of the constraint map along the first
    block's; the map is quadratic, so that derivative is the polarization
    (S(u + du) - S(u - du))/2.
    """
    p = packet.params
    env = packet.A.grid
    eps = packet.eps
    a = packet.A.values
    coeffs = nls_coefficients(p.k0, p.b)
    a_tau = envelope_rhs(packet.A, coeffs.half_omega2, coeffs.nu)

    def d_dt(profile: np.ndarray, profile_tau: np.ndarray, ell: int) -> np.ndarray:
        dxi = np.fft.ifft(1j * env.wavenumbers * np.fft.fft(profile))
        return eps**2 * profile_tau - eps * p.cg * dxi - 1j * ell * p.omega0 * profile

    profiles = packet.profiles
    profiles_tau = [a_tau]
    if len(packet.profiles) > 1:
        c = second_order_coefficients(p.k0, p.b)
        mod2 = 2.0 * np.real(np.conj(a) * a_tau)          # d/dtau |A|^2
        profiles_tau += [c.c_m0 * mod2, c.c_m2 * 2 * a * a_tau,
                         c.c_p0 * mod2, c.c_p2 * 2 * a * a_tau]
    d_profiles = np.array([d_dt(g, g_tau, ell) for g, g_tau, ell
                           in zip(profiles, profiles_tau, _HARMONICS)])
    u, du = full_layout_first_block(packet, grid, t, np.array([profiles, d_profiles]))
    plus, minus = slave_second_block(grid, half_spectrum(np.array([u + du, u - du])), p.b)
    return np.concatenate([du, full_spectrum(0.5 * (plus - minus), grid.n_points)])


def full_layout_first_block(packet: WavePacket, grid: Grid1D, t: float,
                            profiles: np.ndarray) -> np.ndarray:
    """(..., 2, n) coefficients of u_{-/+1} carried by a profile stack: the
    band assembly of ``first_block`` formed on every column of the full layout.

    Column k pairs the bands at k with the conjugates of those at -k by the
    operations ``first_block`` applies, so ``first_block`` must give its
    columns 0..n/2 bit for bit.  Its columns at -k are the conjugates of
    those at k only to round-off: the sums there associate in another order.
    """
    p = packet.params
    j0 = _check_nesting(packet, grid)
    eps, w0 = packet.eps, p.omega0
    conj = grid._conjugate_index
    bands = _band_coefficients(grid, packet.A.grid, profiles, j0, p.cg, t)

    rows = np.zeros(profiles.shape[:-2] + (2, grid.n_points), dtype=complex)
    carrier = bands[..., 0, :] * np.exp(-1j * w0 * t)
    rows[..., 0, :] += eps * (carrier + np.conj(carrier.take(conj, axis=-1)))
    if profiles.shape[-2] > 1:
        mean = bands[..., 1::2, :]
        harm = bands[..., 2::2, :] * np.exp(-2j * w0 * t)
        rows += eps**2 * (0.5 * (mean + np.conj(mean.take(conj, axis=-1)))
                          + harm + np.conj(harm.take(conj, axis=-1)))
    return rows


def full_layout_build(packet: WavePacket, grid: Grid1D, t: float) -> np.ndarray:
    """The packet realized in the full (4, n) layout: ``full_layout_first_block``,
    then the constraint map written out on full-layout arrays.

    It uses the tables and operations of ``build``, column by column, so
    ``build`` must give its columns 0..n/2 bit for bit.  Its columns at -k
    are the conjugates of those at k only to round-off.
    """
    system = default_system(grid, packet.params.b)
    n = grid.n_points
    ik = 1j * grid.wavenumbers  # the system's half-spectrum ik, on every column
    ik2 = ik**2
    first = full_layout_first_block(packet, grid, t, packet.profiles)
    s1 = first[0] + first[1]
    d2 = (first[0] - first[1]) * ik2
    pf, pg = np.fft.irfft(np.array([system._K0 * half_spectrum(s1),
                                    system._sig_inv * half_spectrum(d2)]),
                          n, norm="forward")
    prod = full_spectrum(np.fft.rfft(pf * pg, norm="forward"), n)
    prod = np.where(full_spectrum(system.keep_mask, n) != 0.0, prod, 0.0)
    s2 = s1 * ik2 - prod * ik
    return np.concatenate([first, [0.5 * (s2 + d2), 0.5 * (s2 - d2)]])


def carrier_halves(packet: WavePacket, grid: Grid1D, t: float) -> np.ndarray:
    """The O(1) halves of the leading carrier band, as (2, n) coefficients.

    Row 0 is psi_plus, the envelope riding e^{i(k0 alpha - w0 t)}, and row 1
    psi_minus, its complex conjugate, so that the order-eps part of the first
    negative component is eps * (psi_plus + psi_minus).  The band is the one
    ``build`` assembles for the same (packet, grid, t), and the one the
    energy diagnostic pairs the error against.
    """
    _, lead = first_block(packet, grid, t, packet.profiles)
    return np.array([lead, np.conj(lead.take(grid._conjugate_index))])


@dataclass(frozen=True)
class ResidualNorms:
    """Per-component L2 norms of rhs(realized packet) - d/dt(realized packet)."""

    res_m1: float
    res_p1: float
    res_m2: float
    res_p2: float

    def total(self) -> float:
        return math.sqrt(self.res_m1**2 + self.res_p1**2
                         + self.res_m2**2 + self.res_p2**2)


def residual(packet: WavePacket, config: SimConfig) -> ResidualNorms:
    """Defect of the realized packet at t = 0 in the four evolution equations.

    The time derivative is exact: carrier phases and transport are
    differentiated analytically and the envelope moves with its modulation
    equation, with the coefficients ``nls_coefficients`` derives from the
    same truncated system.
    """
    grid = config.grid
    U = full_spectrum(build(packet, grid, 0.0), grid.n_points)
    tendency = full_rhs(config.system, U)
    defect = tendency - build_time_derivative(packet, grid, 0.0)
    norms = np.sqrt(grid.length * np.sum(np.abs(defect) ** 2, axis=1))
    return ResidualNorms(*(float(v) for v in norms))


def residual_orders() -> dict:
    """Log-log fitted decay order of the packet residual in eps.

    The packets are sech envelopes on 256 points riding k0 = 2 at b = 0,
    realized at t = 0 on 4096-point grids of length ``scan_grid_length(eps)``
    for eps 0.2, 0.1 and 0.05.  Returns the fitted order for the
    leading-order packet (no quadratic corrections) and for the second-order
    packet, together with the raw residual tables.
    """
    eps_list = (0.2, 0.1, 0.05)
    table: dict[bool, list[float]] = {True: [], False: []}
    for eps in eps_list:
        L = scan_grid_length(eps)
        config = SimConfig(eps=eps, k0=2.0, b=0.0, n=4096, length=L, dt=1.0,
                           t_end=0.0)
        A = _sech_envelope(Grid1D(256, eps * L))
        for corrections in (False, True):
            packet = wave_packet(A, eps, config.model, corrections=corrections)
            table[corrections].append(residual(packet, config).total())
    log_eps = np.log(np.asarray(eps_list))
    order_leading = float(np.polyfit(log_eps, np.log(table[False]), 1)[0])
    order_second = float(np.polyfit(log_eps, np.log(table[True]), 1)[0])
    return {
        "eps": eps_list,
        "leading": tuple(table[False]),
        "second": tuple(table[True]),
        "order_leading": order_leading,
        "order_second": order_second,
    }
