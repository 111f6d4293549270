"""Modulated wave-packet construction.

Assembles the four-component approximation from an envelope A riding the
carrier e^{i(k0*alpha - omega0*t)}: the order-eps leading band in the first
negative component, order-eps^2 mean-flow and second-harmonic corrections
in both first-block components, and the second block slaved through the
constraint map so the initial data sits on the consistency manifold of the
truncated system.

The four components are real fields, so ``first_block`` and ``build``
assemble only their ``rfft`` half spectra, columns 0..n/2, the layout of
the time loop and of the constraint map; the lead band ``first_block`` also
returns is a complex field and keeps the full (n,) layout, which the energy
diagnostic's carrier pairing reads.

The two-scale composition A(eps*(alpha - cg*t)) is evaluated spectrally:
the envelope grid is required to nest exactly (L_envelope = eps * L_carrier),
which turns slow-variable sampling into an index shift plus a phase — no
interpolation error at any eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import ModelParams
from .equations import slave_second_block
from .nls import EnvelopeField, second_order_coefficients
from .spectral import Grid1D

__all__ = [
    "WavePacket",
    "second_order_corrections",
    "wave_packet",
    "band_mask",
    "build",
    "first_block",
]

NESTING_RTOL = 1e-9


#: harmonic l of each row of a profile stack: the lead on l = 1, then the
#: mean flow (l = 0) and second harmonic (l = 2) of u_{-1}, then of u_{+1}
_HARMONICS = (1, 0, 2, 0, 2)


def second_order_corrections(A: EnvelopeField, params: ModelParams) -> np.ndarray:
    """Quadratic response profiles c_{m0}|A|^2 and c_{m2}A^2, as the (4, n_env)
    rows ``_HARMONICS[1:]``: mean flow and second harmonic of u_{-1}, then of
    u_{+1}.

    The response coefficients come from the same elimination as the cubic
    envelope coefficient; degenerate denominators raise there, naming the
    violated condition.
    """
    c = second_order_coefficients(params.k0, params.b)
    a = A.values
    mod2, a2 = np.abs(a) ** 2, a**2
    return np.array([c.c_m0 * mod2, c.c_m2 * a2, c.c_p0 * mod2, c.c_p2 * a2])


@dataclass(frozen=True, eq=False)
class WavePacket:
    """Envelope and its slow profiles.

    ``profiles`` holds the slow profiles in ``_HARMONICS`` order: the
    envelope alone, (1, n_env), or with its corrections, (5, n_env).  It is
    a read-only complex copy, so a packet cannot change once built, and a
    packet hashes and compares by identity (``sim.energy_diagnostic``
    relies on both).
    """

    eps: float
    params: ModelParams
    A: EnvelopeField
    profiles: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        profiles = np.array(self.profiles, dtype=complex)
        if profiles.shape not in ((1, self.A.grid.n_points), (5, self.A.grid.n_points)):
            raise ValueError(f"profiles must be (1 or 5, {self.A.grid.n_points}), "
                             f"got {profiles.shape}")
        profiles.setflags(write=False)
        object.__setattr__(self, "profiles", profiles)


def wave_packet(A: EnvelopeField, eps: float, params: ModelParams,
                corrections: bool = True) -> WavePacket:
    """Package an envelope for realization, precomputing the corrections."""
    profiles = A.values[None]
    if corrections:
        profiles = np.concatenate([profiles, second_order_corrections(A, params)])
    return WavePacket(eps=eps, params=params, A=A, profiles=profiles)


def band_mask(grid: Grid1D, k0: float, delta0: float) -> np.ndarray:
    """Boolean keep-mask: union of delta0-bands around the harmonics l*k0, |l| <= 2.

    A run keeps only these bands through ``sim.SimConfig.band_halfwidth``,
    which enters its ``TruncatedSystem.keep_mask``; ``build`` masks nothing.
    """
    k = grid.wavenumbers
    keep = np.zeros(grid.n_points, dtype=bool)
    for ell in range(-2, 3):
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


def _band_coefficients(grid: Grid1D, env: Grid1D, profiles: np.ndarray,
                       j0: int, cg: float, t: float) -> np.ndarray:
    """Carrier-grid coefficients of profile(eps*(alpha - cg t)) * E^l per row.

    ``profiles`` is a stack (..., p, n_env) whose rows ride the harmonics
    ``_HARMONICS[:p]``.  The nested envelope mode j of a row on harmonic l
    lands on carrier mode l*j0 + j with the slow transport phase; the
    carrier's own -l*omega0*t phase is applied by the caller.  One
    transform, one phase vector and one scatter serve the whole stack.
    """
    g = np.fft.fft(profiles, norm="forward")
    kappa_eps = env.mode_numbers * grid.fundamental  # = eps * kappa exactly
    phases = np.exp(-1j * kappa_eps * cg * t)
    ells = np.array(_HARMONICS[: profiles.shape[-2]])
    idx = (ells[:, None] * j0 + env.mode_numbers) % grid.n_points
    rows = np.arange(len(ells))[:, None]
    out = np.zeros(profiles.shape[:-1] + (grid.n_points,), dtype=complex)
    # real and imaginary parts formed apart round like numpy's complex
    # scalar product (its vectorized product may fuse multiply-adds), so the
    # result does not depend on the machine's SIMD support
    out.real[..., rows, idx] = g.real * phases.real - g.imag * phases.imag
    out.imag[..., rows, idx] = g.real * phases.imag + g.imag * phases.real
    return out


def first_block(packet: WavePacket, grid: Grid1D, t: float,
                profiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rfft`` half spectra (..., 2, n//2 + 1) of u_{-/+1} carried by a
    profile stack, linear in it, and the stack's lead band, (..., n).

    Each profile G rides its harmonic l (see ``_HARMONICS``) as
    G(eps*(alpha - cg*t)) * e^{il(k0*alpha - omega0*t)} plus the complex
    conjugate: the lead on l = 1 in u_{-1} at order eps, the corrections'
    mean flow (l = 0) and second harmonic (l = 2) in both components at
    order eps^2.  The mean-flow band is projected onto the real-field
    (Hermitian) subspace: a real profile on an even envelope grid carries an
    unpaired Nyquist mode, and its canonical real interpolation onto the
    finer carrier grid splits that mode cosine-wise.  The lead band is the
    lead profile riding e^{i(k0 alpha - omega0 t)}: psi_plus, the O(1) half
    of the carrier band, so the order-eps part of u_{-1} is
    eps * (psi_plus + conj(psi_plus(-k))).

    Column k of the result pairs the bands at k with the conjugates of
    those at -k, one sum per column, so it is column k of the assembly on
    every column of the full layout; the columns at -k, conjugates of these
    for real fields, are not formed.

    With ``packet.profiles`` this is the packet's realization: ``build``
    slaves the second block to the first block, and
    ``sim.energy_diagnostic`` does the same and also pairs the error with
    the lead band, from this one band assembly.
    """
    p = packet.params
    j0 = _check_nesting(packet, grid)
    eps, w0 = packet.eps, p.omega0
    h = grid.n_points // 2 + 1
    conj = grid._conjugate_index[:h]
    bands = _band_coefficients(grid, packet.A.grid, profiles, j0, p.cg, t)

    rows = np.zeros(profiles.shape[:-2] + (2, h), dtype=complex)
    carrier = bands[..., 0, :] * np.exp(-1j * w0 * t)
    rows[..., 0, :] += eps * (carrier[..., :h] + np.conj(carrier.take(conj, axis=-1)))
    if profiles.shape[-2] > 1:
        mean = bands[..., 1::2, :]
        harm = bands[..., 2::2, :] * np.exp(-2j * w0 * t)
        rows += eps**2 * (0.5 * (mean[..., :h] + np.conj(mean.take(conj, axis=-1)))
                          + harm[..., :h] + np.conj(harm.take(conj, axis=-1)))
    return rows, carrier


def build(packet: WavePacket, grid: Grid1D, t: float = 0.0) -> np.ndarray:
    """Realize the packet on the carrier grid at time t.

    Returns the ``rfft`` half spectra, (4, n//2 + 1), of the four real
    components in the order u_{-1}, u_{+1}, u_{-2}, u_{+2}: the first block
    from the profiles (:func:`first_block`), and the second block slaved to
    it by :func:`arcwave.equations.slave_second_block`.  That is the layout
    a ``sim.SimState`` stores and the time loop marches.  The result is a
    fresh array.
    """
    first, _ = first_block(packet, grid, t, packet.profiles)
    return np.concatenate([first, slave_second_block(grid, first, packet.params.b)])
