"""Fourier helpers on plain coefficient arrays, shared by the test oracles.

An array holds the full-layout coefficients of one field on a
:class:`arcwave.spectral.Grid1D`: f(alpha) = sum_k c(k) e^{i k alpha}, so
``c = fft(samples)/n`` in numpy's transform ordering.  ``state_from_matrix``
hands four such real fields to a run state, which stores their half spectra.
"""

from __future__ import annotations

import numpy as np

from arcwave.sim import SimState
from arcwave.spectral import Grid1D, half_spectrum


def mode_index(grid: Grid1D, k: float) -> int:
    """FFT-array index of the grid wavenumber closest to ``k``.

    Rejects k that is not a grid wavenumber (within 1e-9) or that lies
    at/beyond the Nyquist mode.
    """
    j = int(round(k / grid.fundamental))
    if abs(j * grid.fundamental - k) > 1e-9:
        raise ValueError(
            f"wavenumber {k} is not on the grid (nearest mode {j * grid.fundamental})"
        )
    if abs(j) >= grid.n_points // 2:
        raise ValueError(f"wavenumber {k} at or beyond Nyquist for n={grid.n_points}")
    return j % grid.n_points


def mode(grid: Grid1D, k: float, amplitude: complex = 1.0) -> np.ndarray:
    """Coefficients of the pure grid mode ``amplitude * e^{i k alpha}``."""
    c = np.zeros(grid.n_points, dtype=np.complex128)
    c[mode_index(grid, k)] = amplitude
    return c


def ik_power(grid: Grid1D, p: int) -> np.ndarray:
    """The multiplier (ik)^p; for p < 0 it is 0 at k = 0 by convention."""
    k = grid.wavenumbers
    if p >= 0:
        return (1j * k) ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k != 0.0, (1j * k) ** p, 0.0j)


def product(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise product formed in physical space, dealiased by the 2/3 rule."""
    n = grid.n_points
    c = np.fft.fft((np.fft.ifft(f) * n) * (np.fft.ifft(g) * n)) / n
    return np.where(grid.dealias_keep, c, 0.0)


def commutator(grid: Grid1D, symbol: np.ndarray, g: np.ndarray,
               f: np.ndarray) -> np.ndarray:
    """[M, g] f = M(g f) - g (M f) for the multiplier M with values ``symbol``."""
    return symbol * product(grid, g, f) - product(grid, g, symbol * f)


def hermitian_part(grid: Grid1D, c: np.ndarray) -> np.ndarray:
    """Coefficients of the real part of the field, 0.5 (c(k) + conj(c(-k))),
    with the Nyquist entry made real."""
    out = 0.5 * (c + np.conj(c[grid._conjugate_index]))
    nyq = grid.n_points // 2
    out[nyq] = out[nyq].real
    return out


def state_from_matrix(grid: Grid1D, matrix: np.ndarray, t: float = 0.0) -> SimState:
    """The run state of full-layout (4, n) coefficients of four real fields.

    It keeps columns 0..n/2.  The columns at -k must be the conjugates of
    those at k to round-off, four ulps of the largest coefficient (a packet
    composed in the full layout on a scan grid is off by far less than one);
    a matrix off by more is refused, naming its defect, since those columns
    would otherwise be dropped unread.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    n = grid.n_points
    if mat.shape != (4, n):
        raise ValueError(f"state matrix has shape {mat.shape}, expected (4, {n})")
    mirror = np.conj(mat[:, n // 2 - 1: 0: -1])
    defect = np.max(np.abs(mat[:, n // 2 + 1:] - mirror), initial=0.0)
    bound = 4.0 * np.finfo(np.float64).eps * np.max(np.abs(mat), initial=0.0)
    if not defect <= bound:
        raise ValueError(
            f"state matrix is not real: its columns at -k differ from the "
            f"conjugates of those at k by up to {defect:.6g}, above the "
            f"round-off bound {bound:.6g}")
    return SimState(grid, half_spectrum(mat), t)
