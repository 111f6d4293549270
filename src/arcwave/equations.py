"""Right-hand side of the quadratic-truncated diagonalized evolution system.

The state has four components, stored as a (4, n) array of Fourier
coefficients in the order

    index 0: u_{-1}    index 1: u_{+1}    index 2: u_{-2}    index 3: u_{+2}

The first block evolves under -/+ i*omega plus quadratic terms built from
s1 = u_{-1}+u_{+1} and d1 = u_{-1}-u_{+1}; the second block sees additional
quadratic interactions through s2, d2 and the antiderivative weights.  Every
quadratic term is an exact alpha-derivative, so the zero mode of the
nonlinearity vanishes identically (the final multiplication by ik enforces
this at machine level: ik = 0 at k = 0).

This module is deliberately free of any closed-form interaction symbols: the
kernel-extraction machinery treats the functions here as a black box and
compares against analytic symbols derived elsewhere, which keeps the two
routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dispersion import omega, sigma
from .spectral import Grid1D

__all__ = ["TruncatedSystem", "components_from_fields", "COMPONENT_INDEX"]

#: component label -> row index in the (4, n) state array
COMPONENT_INDEX = {-1: 0, 1: 1, -2: 2, 2: 3}


def components_from_fields(u_m1, u_p1, u_m2, u_p2) -> np.ndarray:
    """Stack four coefficient vectors into the (4, n) state layout."""
    return np.array([u_m1, u_p1, u_m2, u_p2], dtype=np.complex128)


@dataclass(frozen=True)
class TruncatedSystem:
    """Precomputed multiplier tables and the nonlinearity for one (grid, b).

    Every quadratic product is dealiased by the grid's 2/3-rule mask.
    ``extra_keep`` intersects a caller-supplied mode mask (e.g. a union of
    wave-packet bands) with that rule.  Long-horizon runs need it: the
    quadratic symbols grow superlinearly in k, so once the coupling through
    a carrier of size eps exceeds the dispersive detuning (which saturates
    near omega(k0)), retained modes above a threshold ~ (1/eps)^{2/3} are
    violently amplified; fixing the retained band keeps them out instead of
    letting the band grow with n.
    """

    grid: Grid1D
    b: float
    extra_keep: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.b < 0.0:
            raise ValueError(f"Bond number must be nonnegative, got {self.b}")
        if self.extra_keep is not None and self.extra_keep.shape != (self.grid.n_points,):
            raise ValueError("extra_keep must be one boolean per grid mode")

    # ---------------------------------------------------------------- tables

    @cached_property
    def _k(self) -> np.ndarray:
        return self.grid.wavenumbers

    @cached_property
    def _ik(self) -> np.ndarray:
        return 1j * self._k

    @cached_property
    def _inv_ik(self) -> np.ndarray:
        k = self._k
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(k != 0.0, 1.0 / (1j * k), 0.0 + 0.0j)
        return v

    @cached_property
    def _inv_ik2(self) -> np.ndarray:
        return self._inv_ik**2

    @cached_property
    def _K0(self) -> np.ndarray:
        return -1j * np.tanh(self._k)

    @cached_property
    def _sig(self) -> np.ndarray:
        return sigma(self._k, self.b).astype(np.complex128)

    @cached_property
    def _sig_inv(self) -> np.ndarray:
        return 1.0 / self._sig

    @cached_property
    def _one_plus_K0sq(self) -> np.ndarray:
        return 1.0 + self._K0**2

    @cached_property
    def _keep(self) -> np.ndarray:
        keep = self.grid.dealias_keep
        if self.extra_keep is not None:
            keep = keep & self.extra_keep.astype(bool)
        return keep

    @property
    def keep_mask(self) -> np.ndarray:
        """Boolean mask of the modes the quadratic terms are allowed to feed."""
        return self._keep

    @cached_property
    def omega_values(self) -> np.ndarray:
        return omega(self._k, self.b)

    @cached_property
    def linear_symbols(self) -> np.ndarray:
        """(4, n) array: the linear part of d/dt is linear_symbols * state."""
        iw = 1j * self.omega_values
        return np.array([-iw, iw, -iw, iw])

    # ------------------------------------------------------------- plumbing

    def _phys(self, c: np.ndarray) -> np.ndarray:
        return np.fft.ifft(c) * self.grid.n_points

    def _coeff(self, p: np.ndarray) -> np.ndarray:
        out = np.fft.fft(p) / self.grid.n_points
        out[~self._keep] = 0.0
        return out

    # ------------------------------------------------------------ evaluation

    def nonlinear(self, state: np.ndarray) -> np.ndarray:
        """Quadratic part of d(state)/dt; input and output are (4, n) coefficients.

        The linear part (see ``linear_symbols``) is handled separately so the
        integrating-factor stepper can advance it exactly.
        """
        u_m1, u_p1, u_m2, u_p2 = state
        ik = self._ik
        K0 = self._K0
        sig = self._sig
        sig_inv = self._sig_inv
        opk = self._one_plus_K0sq

        s1 = u_m1 + u_p1
        d1 = u_m1 - u_p1
        s2 = u_m2 + u_p2
        d2 = u_m2 - u_p2

        # physical-space precursors
        P_s1 = self._phys(s1)
        P_K0s1 = self._phys(K0 * s1)
        P_sid1 = self._phys(sig_inv * d1)
        P_um2 = self._phys(u_m2)
        P_up2 = self._phys(u_p2)
        P_d2 = self._phys(d2)
        P_sid2 = self._phys(sig_inv * d2)
        P_ia2s2 = self._phys(self._inv_ik2 * s2)
        P_ia1s2 = self._phys(self._inv_ik * s2)
        P_K0ia1s2 = self._phys(K0 * self._inv_ik * s2)
        P_K0iasid2 = self._phys(K0 * self._inv_ik * sig_inv * d2)
        P_iasid2 = self._phys(self._inv_ik * sig_inv * d2)
        P_K0sid2a = self._phys(K0 * sig_inv * ik * d2)

        # ---- first block --------------------------------------------------
        sq_s1 = self._coeff(P_s1 * P_s1)
        sq_K0s1 = self._coeff(P_K0s1 * P_K0s1)
        pr_sid1_s1 = self._coeff(P_sid1 * P_s1)
        pr_sid1_K0s1 = self._coeff(P_sid1 * P_K0s1)

        even1 = -0.25 * ik * sq_s1 + 0.25 * ik * sq_K0s1
        comm1 = 0.5 * ik * sig * K0 * (K0 * pr_sid1_s1 - pr_sid1_K0s1)
        flat1 = 0.5 * ik * sig * opk * pr_sid1_s1

        n_m1 = even1 + comm1 - flat1
        n_p1 = even1 - comm1 + flat1

        # ---- second block -------------------------------------------------
        pr_ia2_um2 = self._coeff(P_ia2s2 * P_um2)
        pr_ia2_up2 = self._coeff(P_ia2s2 * P_up2)
        pr_ia2_sid2 = self._coeff(P_ia2s2 * P_sid2)
        pr_ia2_d2 = self._coeff(P_ia2s2 * P_d2)
        pr_K0iasid2_sid2 = self._coeff(P_K0iasid2 * P_sid2)
        pr_sid2_K0sid2a = self._coeff(P_sid2 * P_K0sid2a)
        sq_ia1s2 = self._coeff(P_ia1s2 * P_ia1s2)
        sq_K0ia1s2 = self._coeff(P_K0ia1s2 * P_K0ia1s2)
        pr_sid1_ia1s2 = self._coeff(P_sid1 * P_ia1s2)
        pr_sid1_K0ia1s2 = self._coeff(P_sid1 * P_K0ia1s2)
        pr_iasid2_ia1s2 = self._coeff(P_iasid2 * P_ia1s2)
        pr_iasid2_K0ia1s2 = self._coeff(P_iasid2 * P_K0ia1s2)

        # [sigma, f] g = sigma(f g) - f * (sigma g) with f = dalpha^{-2} s2,
        # g = sigma^{-1} d2 (so sigma g = d2)
        comm_sig = sig * pr_ia2_sid2 - pr_ia2_d2

        shared2 = (
            0.5 * ik * pr_K0iasid2_sid2
            - 0.5 * self.b * ik * pr_sid2_K0sid2a
            - 0.5 * ik * sq_ia1s2
            + 0.5 * ik * sq_K0ia1s2
        )
        comm2 = 0.5 * ik * ik * sig * K0 * (K0 * pr_sid1_ia1s2 - pr_sid1_K0ia1s2)
        flat2 = 0.5 * ik * ik * sig * opk * pr_sid1_ia1s2
        comm3 = 0.5 * ik * sig * K0 * (K0 * pr_iasid2_ia1s2 - pr_iasid2_K0ia1s2)
        flat3 = 0.5 * ik * sig * opk * pr_iasid2_ia1s2

        n_m2 = (
            -ik * pr_ia2_um2
            - 0.5 * ik * comm_sig
            + shared2
            + comm2
            - flat2
            + comm3
            - flat3
        )
        n_p2 = (
            -ik * pr_ia2_up2
            + 0.5 * ik * comm_sig
            + shared2
            - comm2
            + flat2
            - comm3
            + flat3
        )

        return np.array([n_m1, n_p1, n_m2, n_p2])

    def full_rhs(self, state: np.ndarray) -> np.ndarray:
        """Linear plus nonlinear tendency."""
        return self.linear_symbols * state + self.nonlinear(state)

    # ------------------------------------------------- consistency relations

    def consistency_defect(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the two constraints tying the second block to the first.

        Returns coefficient arrays of

            dalpha^{-1} sigma^{-1} d2 - sigma^{-1} dalpha d1
            dalpha^{-2} s2 - s1 + dalpha^{-1}(K0 s1 * sigma^{-1} d2)

        which vanish (up to the dropped cubic remainders) on solutions whose
        second block is slaved to the first.  The zero mode of each relation
        is excluded by construction (antiderivative convention).
        """
        u_m1, u_p1, u_m2, u_p2 = state
        s1 = u_m1 + u_p1
        d1 = u_m1 - u_p1
        s2 = u_m2 + u_p2
        d2 = u_m2 - u_p2

        first = self._inv_ik * self._sig_inv * d2 - self._sig_inv * self._ik * d1

        prod = self._coeff(self._phys(self._K0 * s1) * self._phys(self._sig_inv * d2))
        second = self._inv_ik2 * s2 - s1 + self._inv_ik * prod
        # the relation is only meaningful mode-by-mode away from k=0, where
        # the antiderivatives are defined
        first[0] = 0.0
        second[0] = 0.0
        return first, second
