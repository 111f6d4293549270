"""The periodic grid and the layouts of Fourier coefficients on it.

Fields are represented by their Fourier coefficients with the convention

    f(alpha) = sum_k c(k) e^{i k alpha},      k = 2*pi*j/L,  j in [-n/2, n/2),

so ``c = fft(samples)/n`` in numpy's transform ordering: the full layout,
one column per grid mode.  Real fields are Hermitian, c(-k) = conj(c(k)),
so their columns 0..n/2 (the ``rfft`` layout, ``half_spectrum``) determine
the rest (``full_spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid1D", "half_spectrum", "full_spectrum"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, L) with a power-of-two point count.

    Wavenumbers follow numpy's FFT layout: ``2*pi*j/L`` for
    ``j = 0, 1, ..., n/2-1, -n/2, ..., -1`` (the Nyquist mode is stored as
    the negative frequency, so the set is symmetric about 0 except for it).
    """

    n_points: int
    length: float

    def __post_init__(self) -> None:
        n = self.n_points
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a positive power of two, got {n}")
        if not (self.length > 0.0):
            raise ValueError(f"length must be positive, got {self.length}")

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.arange(self.n_points) * (self.length / self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=1.0 / self.n_points) / self.length

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices j with k = 2*pi*j/L, FFT order."""
        return np.fft.fftfreq(self.n_points, d=1.0 / self.n_points).astype(np.int64)

    @cached_property
    def _conjugate_index(self) -> np.ndarray:
        """Index permutation sending mode j to mode -j (mod n)."""
        return (-np.arange(self.n_points)) % self.n_points

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule (|j| <= n//3)."""
        return np.abs(self.mode_numbers) <= self.n_points // 3

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def fundamental(self) -> float:
        """Smallest positive wavenumber 2*pi/L."""
        return 2.0 * np.pi / self.length


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """Columns 0..n/2 of full-layout coefficients (..., n): the ``rfft`` layout.

    For real fields these columns determine the rest.  Returns a view.
    """
    return c[..., : c.shape[-1] // 2 + 1]


def full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Full-layout coefficients (..., n) of real fields from their half spectra.

    An exact copy with conjugation, no transform: c(-k) = conj(c(k)) for
    0 < k < k_Nyquist, and columns 0 and n/2 are copied as they are.
    """
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : n // 2 + 1] = half
    out[..., n // 2 + 1:] = np.conj(half[..., n // 2 - 1: 0: -1])
    return out
