"""Fourier helpers on plain coefficient arrays, shared by the test oracles.

An array holds the full-layout coefficients of one field on a
:class:`arcwave.spectral.Grid1D`: f(alpha) = sum_k c(k) e^{i k alpha}, so
``c = fft(samples)/n`` in numpy's transform ordering.
"""

from __future__ import annotations

import numpy as np

from arcwave.spectral import Grid1D


def mode(grid: Grid1D, k: float, amplitude: complex = 1.0) -> np.ndarray:
    """Coefficients of the pure grid mode ``amplitude * e^{i k alpha}``."""
    c = np.zeros(grid.n_points, dtype=np.complex128)
    c[grid.mode_index(k)] = amplitude
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
