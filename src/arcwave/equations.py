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
            return np.where(k != 0.0, 1.0 / (1j * k), 0.0 + 0.0j)

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
    def _post(self) -> np.ndarray:
        """Multipliers of the product sums in ``nonlinear``: E1, X1 (2), E2, X2 (4)."""
        h = 0.5 * self._ik
        hs = h * self._sig
        hsK = hs * self._K0
        return np.array([0.5 * h, hs, hsK, h, hs, self._ik * hs, hsK, self._ik * hsK])

    @cached_property
    def keep_mask(self) -> np.ndarray:
        """Boolean mask of the modes the quadratic terms are allowed to feed."""
        keep = self.grid.dealias_keep
        if self.extra_keep is not None:
            keep = keep & self.extra_keep.astype(bool)
        return keep

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
        return np.fft.ifft(c, norm="forward")

    def _coeff(self, p: np.ndarray) -> np.ndarray:
        out = np.fft.fft(p, norm="forward")
        out[..., ~self.keep_mask] = 0.0
        return out

    # ------------------------------------------------------------ evaluation

    def nonlinear(self, state: np.ndarray) -> np.ndarray:
        """Quadratic part of d(state)/dt; input and output are (4, n) coefficients.

        The linear part (see ``linear_symbols``) is handled separately so the
        integrating-factor stepper can advance it exactly.

        Each block is a common part plus or minus a difference part,
        n_{-/+1} = E1 -/+ X1 and n_{-/+2} = E2 -/+ X2, by two identities:

        * commutator minus flat piece, K0 (K0 pr(g, f) - pr(g, K0 f))
          - (1 + K0^2) pr(g, f) = -(pr(g, f) + K0 pr(g, K0 f)), g = sigma^{-1} d;
        * -ik pr(da^{-2} s2, u_{-/+2}) -/+ (ik/2)[sigma, da^{-2} s2] sigma^{-1} d2
          = -(ik/2) pr(da^{-2} s2, s2) -/+ (ik/2) sigma pr(da^{-2} s2, sigma^{-1} d2),
          since u_{-/+2} - (-/+ d2)/2 = s2/2.

        So each distinct product is formed once, and products sharing a
        coefficient-space multiplier are summed before the forward transform:
        one inverse FFT of 11 precursors, one forward FFT of 8 product sums.
        """
        ik = self._ik
        K0 = self._K0
        sig_inv = self._sig_inv
        K0_inv_ik = K0 * self._inv_ik

        s1, s2 = state[0::2] + state[1::2]
        d1, d2 = state[0::2] - state[1::2]
        sid1 = sig_inv * d1
        sid2 = sig_inv * d2
        ia1s2 = self._inv_ik * s2

        # physical-space precursors
        (P_s1, P_K0s1, P_sid1, P_s2, P_sid2, P_ia2s2, P_ia1s2, P_K0ia1s2,
         P_iasid2, P_K0iasid2, P_K0sid2a) = self._phys(np.array([
            s1, K0 * s1, sid1, s2, sid2, self._inv_ik2 * s2, ia1s2,
            K0_inv_ik * s2, self._inv_ik * sid2, K0_inv_ik * sid2,
            K0 * ik * sid2]))

        # product sums, one per coefficient-space multiplier (see _post)
        G = self._post * self._coeff(np.array([
            P_K0s1 * P_K0s1 - P_s1 * P_s1,
            P_sid1 * P_s1,
            P_sid1 * P_K0s1,
            P_K0iasid2 * P_sid2 - P_ia2s2 * P_s2 - P_ia1s2 * P_ia1s2
            + P_K0ia1s2 * P_K0ia1s2 - self.b * P_sid2 * P_K0sid2a,
            P_ia2s2 * P_sid2 + P_iasid2 * P_ia1s2,
            P_sid1 * P_ia1s2,
            P_iasid2 * P_K0ia1s2,
            P_sid1 * P_K0ia1s2,
        ]))
        E1, X1, E2, X2 = G[0], G[1] + G[2], G[3], G[4] + G[5] + G[6] + G[7]
        return np.array([E1 - X1, E1 + X1, E2 - X2, E2 + X2])

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
