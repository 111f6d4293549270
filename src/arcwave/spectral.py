"""Periodic-grid Fourier infrastructure.

Fields are represented by their Fourier coefficients with the convention

    f(alpha) = sum_k c(k) e^{i k alpha},      k = 2*pi*j/L,  j in [-n/2, n/2),

so ``c = fft(samples)/n`` in numpy's transform ordering.  Everything downstream
(multiplier operators, derivatives, commutators, the evolution right-hand
sides) is built on the four operations in this module.

Products of fields are formed in physical space and dealiased by the 2/3 rule;
all other operations act coefficient-wise and are exact on grid modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal, Union

import numpy as np

__all__ = [
    "Grid1D",
    "SpectralField",
    "GridMismatchError",
    "apply_multiplier",
    "derivative",
    "antiderivative",
    "project",
    "commutator_apply",
    "multiply",
    "hermitian_symmetrize",
    "half_spectrum",
    "full_spectrum",
    "norm_l2",
    "norm_sobolev",
]

SymbolLike = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]


class GridMismatchError(ValueError):
    """Raised when an operation combines fields living on different grids."""


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

    def mode_index(self, k: float, tol: float = 1e-9) -> int:
        """FFT-array index of the grid wavenumber closest to ``k``.

        Rejects k that is not a grid wavenumber (within ``tol``) or that lies
        at/beyond the Nyquist mode.
        """
        j = int(round(k / self.fundamental))
        if abs(j * self.fundamental - k) > tol:
            raise ValueError(
                f"wavenumber {k} is not on the grid (nearest mode {j * self.fundamental})"
            )
        if abs(j) >= self.n_points // 2:
            raise ValueError(f"wavenumber {k} at or beyond Nyquist for n={self.n_points}")
        return j % self.n_points


@dataclass(frozen=True)
class SpectralField:
    """Immutable complex Fourier-coefficient field on a :class:`Grid1D`.

    ``is_real`` marks fields whose physical samples are real; such coefficient
    vectors are Hermitian, c(-k) = conj(c(k)), and the Nyquist entry is real.
    """

    grid: Grid1D
    coefficients: np.ndarray
    is_real: bool = field(default=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != (self.grid.n_points,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({self.grid.n_points},)"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_physical(cls, grid: Grid1D, values: np.ndarray, is_real: bool | None = None) -> "SpectralField":
        values = np.asarray(values)
        if is_real is None:
            if np.isrealobj(values):
                is_real = True
            else:
                scale = float(np.max(np.abs(values))) or 1.0
                is_real = float(np.max(np.abs(values.imag))) <= 1e-13 * scale
        coeff = np.fft.fft(values) / grid.n_points
        return cls(grid, coeff, is_real)

    @classmethod
    def from_coefficients(cls, grid: Grid1D, coeff: np.ndarray, is_real: bool | None = None) -> "SpectralField":
        coeff = np.asarray(coeff, dtype=np.complex128)
        if is_real is None:
            flipped = np.conj(coeff[grid._conjugate_index])
            scale = float(np.max(np.abs(coeff))) or 1.0
            is_real = float(np.max(np.abs(coeff - flipped))) <= 1e-13 * scale
        return cls(grid, coeff, is_real)

    @classmethod
    def zero(cls, grid: Grid1D, is_real: bool = True) -> "SpectralField":
        return cls(grid, np.zeros(grid.n_points, dtype=np.complex128), is_real)

    @classmethod
    def from_mode(cls, grid: Grid1D, k: float, amplitude: complex = 1.0) -> "SpectralField":
        """Pure grid mode ``amplitude * e^{i k alpha}`` (complex in general)."""
        coeff = np.zeros(grid.n_points, dtype=np.complex128)
        idx = grid.mode_index(k)
        coeff[idx] = amplitude
        is_real = idx == 0 and abs(complex(amplitude).imag) == 0.0
        return cls(grid, coeff, is_real)

    # -- basic queries -----------------------------------------------------

    def values(self) -> np.ndarray:
        """Physical-space samples (complex array; real part is the field if is_real)."""
        return np.fft.ifft(self.coefficients) * self.grid.n_points

    def values_real(self) -> np.ndarray:
        v = self.values()
        return v.real

    def coefficient_at(self, k: float) -> complex:
        return complex(self.coefficients[self.grid.mode_index(k)])

    def hermitian_defect(self) -> float:
        """max |c(-k) - conj(c(k))| over the grid (0 for a clean real field)."""
        flipped = np.conj(self.coefficients[self.grid._conjugate_index])
        return float(np.max(np.abs(self.coefficients - flipped)))

    # -- arithmetic (same-grid, coefficient-wise) ---------------------------

    def _check_grid(self, other: "SpectralField") -> None:
        if other.grid is not self.grid and (
            other.grid.n_points != self.grid.n_points or other.grid.length != self.grid.length
        ):
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coefficients + other.coefficients,
                             self.is_real and other.is_real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coefficients - other.coefficients,
                             self.is_real and other.is_real)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coefficients, self.is_real)

    def __mul__(self, scalar: complex) -> "SpectralField":
        s = complex(scalar)
        return SpectralField(self.grid, self.coefficients * s,
                             self.is_real and s.imag == 0.0)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _symbol_values(symbol: SymbolLike, grid: Grid1D) -> np.ndarray:
    """Evaluate a multiplier symbol on the grid wavenumbers.

    Accepts either a vectorized/scalar callable of k or a precomputed array.
    """
    if isinstance(symbol, np.ndarray):
        vals = np.asarray(symbol, dtype=np.complex128)
        if vals.shape != (grid.n_points,):
            raise ValueError("precomputed symbol array has wrong shape")
        return vals
    k = grid.wavenumbers
    try:
        vals = np.asarray(symbol(k), dtype=np.complex128)
        if vals.shape != k.shape:
            raise TypeError
    except Exception:
        vals = np.array([symbol(float(kk)) for kk in k], dtype=np.complex128)
    return vals


def apply_multiplier(symbol: SymbolLike, f: SpectralField) -> SpectralField:
    """Apply the Fourier multiplier ``symbol(k)`` to ``f``.

    The output coefficient at k is symbol(k)*c(k).  Reality is preserved
    exactly when the symbol satisfies symbol(-k) = conj(symbol(k)) on the
    grid, which is checked numerically.  A non-finite symbol value at any
    grid wavenumber is rejected.
    """
    vals = _symbol_values(symbol, f.grid)
    if not np.all(np.isfinite(vals.view(np.float64))):
        bad = f.grid.wavenumbers[~np.isfinite(vals)]
        raise ValueError(f"multiplier symbol is not finite at wavenumbers {bad[:5]}")
    out = f.coefficients * vals
    preserves = False
    if f.is_real:
        # Hermitian symbol <=> real output.  The Nyquist mode is its own
        # conjugate partner, so an odd symbol like ik can only break reality
        # there; ignore it when the field carries no Nyquist content (always
        # true for dealiased fields).
        flipped = np.conj(vals[f.grid._conjugate_index])
        defect = np.abs(vals - flipped)
        scale = float(np.max(np.abs(vals))) or 1.0
        nyq = f.grid.n_points // 2
        c_scale = float(np.max(np.abs(f.coefficients))) or 1.0
        if abs(f.coefficients[nyq]) <= 1e-13 * c_scale:
            defect[nyq] = 0.0
        preserves = float(np.max(defect)) <= 1e-13 * scale
    return SpectralField(f.grid, out, f.is_real and preserves)


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    """d^order/d_alpha^order, i.e. the multiplier (ik)^order."""
    k = f.grid.wavenumbers
    return apply_multiplier((1j * k) ** order, f)


def antiderivative(f: SpectralField, order: int = 1) -> SpectralField:
    """Inverse derivative: coefficient at k != 0 divided by (ik)^order.

    The zero mode of the output is set to 0 by convention (the operator is
    only ever applied to zero-mean quadratic expressions, where the ambiguity
    is removable).
    """
    k = f.grid.wavenumbers
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = np.where(k != 0.0, (1j * k) ** (-order), 0.0 + 0.0j)
    return apply_multiplier(sym, f)


def project(f: SpectralField, alpha_cut: float, band: Literal["low", "high"]) -> SpectralField:
    """Sharp Fourier projection: ``low`` keeps |k| <= alpha_cut, ``high`` the rest.

    The two projections sum to the identity.
    """
    if not (alpha_cut > 0.0):
        raise ValueError(f"alpha_cut must be positive, got {alpha_cut}")
    if band not in ("low", "high"):
        raise ValueError(f"band must be 'low' or 'high', got {band!r}")
    mask = np.abs(f.grid.wavenumbers) <= alpha_cut
    if band == "high":
        mask = ~mask
    return SpectralField(f.grid, np.where(mask, f.coefficients, 0.0), f.is_real)


def multiply(f: SpectralField, g: SpectralField, dealias: bool = True) -> SpectralField:
    """Pointwise product formed in physical space, dealiased by the 2/3 rule."""
    f._check_grid(g)
    prod = f.values() * g.values()
    coeff = np.fft.fft(prod) / f.grid.n_points
    if dealias:
        coeff = np.where(f.grid.dealias_keep, coeff, 0.0)
    return SpectralField(f.grid, coeff, f.is_real and g.is_real)


def commutator_apply(symbol: SymbolLike, g: SpectralField, f: SpectralField) -> SpectralField:
    """Commutator [M, g] f = M(g f) - g (M f) for the multiplier M = symbol(k).

    Bilinear in (g, f); identically zero for constant g or constant symbol.
    Products are formed in physical space with dealiasing.
    """
    g._check_grid(f)
    return apply_multiplier(symbol, multiply(g, f)) - multiply(g, apply_multiplier(symbol, f))


def hermitian_symmetrize(f: SpectralField) -> SpectralField:
    """Project onto the Hermitian subspace c(-k) = conj(c(k)) (real fields).

    Used after long nonlinear evaluations to suppress round-off drift of the
    reality constraint; the Nyquist coefficient is forced real.
    """
    c = f.coefficients
    sym = 0.5 * (c + np.conj(c[f.grid._conjugate_index]))
    nyq = f.grid.n_points // 2
    sym[nyq] = sym[nyq].real
    return SpectralField(f.grid, sym, True)


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


def norm_l2(f: SpectralField) -> float:
    """Physical L^2 norm on [0, L): by Parseval, sqrt(L * sum |c|^2)."""
    return float(np.sqrt(f.grid.length * np.sum(np.abs(f.coefficients) ** 2)))


def norm_sobolev(f: SpectralField, s: float) -> float:
    """Spectral H^s norm: sqrt(L * sum (1+k^2)^s |c|^2)."""
    w = (1.0 + f.grid.wavenumbers**2) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coefficients) ** 2)))
