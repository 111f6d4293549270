"""Right-hand side of the quadratic-truncated diagonalized evolution system.

The state has four components, stored as a (4, n) array of Fourier
coefficients in the order

    index 0: u_{-1}    index 1: u_{+1}    index 2: u_{-2}    index 3: u_{+2}

The four fields are real, so the time loop carries only their ``rfft`` half
spectra, (4, n//2 + 1), and ``TruncatedSystem.nonlinear`` works in that
layout; complex full-layout inputs (kernel extraction) reach the same
product list by polarization in ``full_nonlinear``.  The first block alone,
(2, n//2 + 1), is accepted too: it is autonomous, and its products are the
prefix of the list.

The first block evolves under -/+ i*omega plus quadratic terms built from
s1 = u_{-1}+u_{+1} and d1 = u_{-1}-u_{+1}; the second block sees additional
quadratic interactions through s2, d2 and the antiderivative weights.  Every
quadratic term is an exact alpha-derivative, so the zero mode of the
nonlinearity vanishes identically (the final multiplication by ik enforces
this at machine level: ik = 0 at k = 0).

The constraint relations that tie the second block to the first live here
too, once: ``slave_second_block`` maps a first block to its slaved second
block, and ``TruncatedSystem.consistency_defect`` measures how far a state
is from that map, with the same product.

This module is deliberately free of any closed-form interaction symbols: the
kernel-extraction machinery treats the functions here as a black box and
compares against analytic symbols derived elsewhere, which keeps the two
routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .dispersion import k0_symbol, omega, sigma, sigma_inv
from .spectral import Grid1D, full_spectrum, half_spectrum

__all__ = ["TruncatedSystem", "slave_second_block", "COMPONENT_INDEX"]

#: component label -> row index in the (4, n) state array
COMPONENT_INDEX = {-1: 0, 1: 1, -2: 2, 2: 3}


@lru_cache(maxsize=16)
def _constraint_tables(grid: Grid1D, b: float) -> SimpleNamespace:
    """Read-only multipliers of the constraint map for one (grid, b).

    ``K0`` and ``sig_inv`` are K0 and sigma^{-1} on the half spectrum
    (columns 0..n/2), ``ik`` and ``ik2`` are ik and (ik)^2 and ``keep`` the
    2/3-rule mask, full layout.  Every constraint product on the grid reads
    them, so they are evaluated once.
    """
    k = grid.wavenumbers
    half = half_spectrum(k)
    ik = 1j * k
    tables = SimpleNamespace(K0=k0_symbol(half), sig_inv=sigma_inv(half, b),
                             ik=ik, ik2=ik**2, keep=grid.dealias_keep.copy())
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _constraint_product(grid: Grid1D, f: np.ndarray, g: np.ndarray,
                        b: float) -> np.ndarray:
    """Product K0 f * sigma^{-1} g of real fields, full-layout (..., n), not dealiased.

    Formed with real transforms on the half spectrum, so the result is
    exactly Hermitian.
    """
    n = grid.n_points
    tables = _constraint_tables(grid, b)
    pf, pg = np.fft.irfft(np.array([tables.K0 * half_spectrum(f),
                                    tables.sig_inv * half_spectrum(g)]),
                          n, norm="forward")
    return full_spectrum(np.fft.rfft(pf * pg, norm="forward"), n)


def slave_second_block(grid: Grid1D, first: np.ndarray, b: float) -> np.ndarray:
    """Constraint map: the second block u_{-/+2} slaved to the first block u_{-/+1}.

    ``first`` holds the full-layout coefficients of u_{-1} and u_{+1} of real
    fields, shape (..., 2, n); the result has the same shape.  With
    s = u_{-} + u_{+} and d = u_{-} - u_{+} per block, the map is

        d2 = d1'',    s2 = s1'' - (K0 s1 * sigma^{-1} d2)',

    the product dealiased by the grid's 2/3 rule.  These are the relations
    ``TruncatedSystem.consistency_defect`` measures.
    """
    tables = _constraint_tables(grid, b)
    s1 = first[..., 0, :] + first[..., 1, :]
    d2 = (first[..., 0, :] - first[..., 1, :]) * tables.ik2
    prod = np.where(tables.keep, _constraint_product(grid, s1, d2, b), 0.0)
    s2 = s1 * tables.ik2 - prod * tables.ik
    return np.stack([0.5 * (s2 + d2), 0.5 * (s2 - d2)], axis=-2)


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
        if self.extra_keep is not None:
            if self.extra_keep.shape != (self.grid.n_points,):
                raise ValueError("extra_keep must be one boolean per grid mode")
            # the half-spectrum multipliers stand for modes k and -k at once
            keep = self.extra_keep.astype(bool)
            if not np.array_equal(keep, keep[self.grid._conjugate_index]):
                raise ValueError("extra_keep must be symmetric under k -> -k")

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
    def _pre(self) -> np.ndarray:
        """Multipliers of the 11 precursors in ``nonlinear``, on 0 <= k < k_Nyquist;
        the first three are the first block's."""
        m = self.grid.n_points // 2
        ik, K0, sig_inv, inv_ik = (self._ik[:m], self._K0[:m], self._sig_inv[:m],
                                   self._inv_ik[:m])
        one = np.ones(m, dtype=np.complex128)
        return np.array([one, K0, sig_inv, one, sig_inv, inv_ik**2, inv_ik,
                         K0 * inv_ik, inv_ik * sig_inv, K0 * inv_ik * sig_inv,
                         K0 * ik * sig_inv])

    #: row of (s1, d1, s2, d2) each precursor multiplier acts on; the first
    #: block's three precursors come first and read only s1 and d1
    _PRE_SOURCE = np.array([0, 0, 1, 2, 3, 2, 2, 2, 3, 3, 3])

    @cached_property
    def _post(self) -> np.ndarray:
        """Multipliers of the product sums in ``nonlinear`` on the half spectrum,
        zero outside ``keep_mask``: E1, X1 (2), E2, X2 (4)."""
        h = 0.5 * self._ik
        hs = h * self._sig
        hsK = hs * self._K0
        post = np.array([0.5 * h, hs, hsK, h, hs, self._ik * hs, hsK, self._ik * hsK])
        return (post * self.keep_mask)[:, : self.grid.n_points // 2 + 1]

    @cached_property
    def _stages(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per input row count of ``nonlinear``: the precursor multipliers, the
        row of (s1, d1, s2, d2) each acts on, and the product-sum
        multipliers, with a batch axis.  The first block alone (2 rows)
        takes the prefix of each."""
        return {rows: (self._pre[:n_pre, None, :], self._PRE_SOURCE[:n_pre],
                       self._post[:n_post, None, :])
                for rows, n_pre, n_post in ((2, 3, 3), (4, 11, 8))}

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

    @cached_property
    def half_linear_symbols(self) -> np.ndarray:
        """``linear_symbols`` on the half spectrum, (4, n//2 + 1).

        The Nyquist column is 0: omega is odd, and an odd symbol maps the
        Nyquist mode of a real field, cos(k_N alpha), to a multiple of
        sin(k_N alpha), which vanishes at every grid point.  So that mode
        keeps its value; ``nonlinear`` neither reads nor writes it either.
        """
        lam = half_spectrum(self.linear_symbols).copy()
        lam[:, self.grid.n_points // 2] = 0.0
        return lam

    # ------------------------------------------------------------ evaluation

    def nonlinear(self, state: np.ndarray) -> np.ndarray:
        """Quadratic part of d(state)/dt for four, or the first two, real fields.

        Input and output are ``rfft`` half spectra, shape (..., r, n//2 + 1)
        with r = 4 (u_{-/+1}, u_{-/+2}) or r = 2 (the first block u_{-/+1}
        alone); see :func:`arcwave.spectral.half_spectrum`.  Leading batch
        axes are evaluated together.  The linear part (see
        ``linear_symbols``) is handled separately so the integrating-factor
        stepper can advance it exactly.  Complex full-layout states go
        through ``full_nonlinear``.

        The first block is autonomous: its products read only s1 and d1, so
        the r = 2 call is the prefix of the r = 4 call's product list (3 of
        the 11 precursors, 3 of the 8 product sums) and returns rows 0-1 of
        the r = 4 output bit for bit.

        Nyquist column (index n//2): it lies outside every keep mask.  The
        input's Nyquist column is ignored, as if it were 0 (the precursors
        are formed from the columns below it), and the output's is 0.

        Each block is a common part plus or minus a difference part,
        n_{-/+1} = E1 -/+ X1 and n_{-/+2} = E2 -/+ X2, by two identities:

        * commutator minus flat piece, K0 (K0 pr(g, f) - pr(g, K0 f))
          - (1 + K0^2) pr(g, f) = -(pr(g, f) + K0 pr(g, K0 f)), g = sigma^{-1} d;
        * -ik pr(da^{-2} s2, u_{-/+2}) -/+ (ik/2)[sigma, da^{-2} s2] sigma^{-1} d2
          = -(ik/2) pr(da^{-2} s2, s2) -/+ (ik/2) sigma pr(da^{-2} s2, sigma^{-1} d2),
          since u_{-/+2} - (-/+ d2)/2 = s2/2.

        So each distinct product is formed once, and products sharing a
        coefficient-space multiplier are summed before the forward transform:
        one ``irfft`` of 11 (3) precursors, one ``rfft`` of 8 (3) product sums.
        """
        rows = state.shape[-2]
        if rows not in self._stages:
            raise ValueError(
                f"nonlinear takes 4 components or the first block's 2, got {rows}")
        pre, source, post = self._stages[rows]
        n = self.grid.n_points
        m = n // 2
        batch = state.shape[:-2]
        # component axis first, the batch axes flattened into one behind it
        u = state[..., :m].reshape(-1, rows, m).swapaxes(0, 1)
        sd = [u[0] + u[1], u[0] - u[1]]
        if rows == 4:
            sd += [u[2] + u[3], u[2] - u[3]]

        # physical-space precursors
        P = np.fft.irfft(pre * np.array(sd)[source], n, norm="forward")
        if rows == 2:
            P_s1, P_K0s1, P_sid1 = P
        else:
            (P_s1, P_K0s1, P_sid1, P_s2, P_sid2, P_ia2s2, P_ia1s2, P_K0ia1s2,
             P_iasid2, P_K0iasid2, P_K0sid2a) = P
        products = [
            P_K0s1 * P_K0s1 - P_s1 * P_s1,
            P_sid1 * P_s1,
            P_sid1 * P_K0s1,
        ]
        if rows == 4:
            products += [
                P_K0iasid2 * P_sid2 - P_ia2s2 * P_s2 - P_ia1s2 * P_ia1s2
                + P_K0ia1s2 * P_K0ia1s2 - self.b * P_sid2 * P_K0sid2a,
                P_ia2s2 * P_sid2 + P_iasid2 * P_ia1s2,
                P_sid1 * P_ia1s2,
                P_iasid2 * P_K0ia1s2,
                P_sid1 * P_K0ia1s2,
            ]

        # product sums, one per coefficient-space multiplier (see _post)
        G = post * np.fft.rfft(np.array(products), norm="forward")
        E1, X1 = G[0], G[1] + G[2]
        out = [E1 - X1, E1 + X1]
        if rows == 4:
            E2, X2 = G[3], G[4] + G[5] + G[6] + G[7]
            out += [E2 - X2, E2 + X2]
        return np.array(out).swapaxes(0, 1).reshape(batch + (rows, m + 1))

    def full_nonlinear(self, state: np.ndarray) -> np.ndarray:
        """``nonlinear`` on full-layout (..., 4, n) coefficients, complex allowed.

        Writes U = A + iB with A, B the coefficients of real fields and uses
        that the nonlinearity N is a quadratic form:
        N(U) = N(A) - N(B) + i [N(A + B) - N(A) - N(B)], with the three
        evaluations in one batched ``nonlinear`` call.  The Nyquist column
        follows ``nonlinear``'s convention.
        """
        n = self.grid.n_points
        U = half_spectrum(state)
        flipped = np.conj(state[..., half_spectrum(self.grid._conjugate_index)])
        A = 0.5 * (U + flipped)
        B = -0.5j * (U - flipped)
        NA, NB, NAB = full_spectrum(self.nonlinear(np.stack([A, B, A + B])), n)
        return NA - NB + 1j * (NAB - NA - NB)

    def full_rhs(self, state: np.ndarray) -> np.ndarray:
        """Linear plus nonlinear tendency on full-layout coefficients."""
        return self.linear_symbols * state + self.full_nonlinear(state)

    # ------------------------------------------------- consistency relations

    def consistency_defect(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the two constraints tying the second block to the first.

        Returns coefficient arrays of

            dalpha^{-1} sigma^{-1} d2 - sigma^{-1} dalpha d1
            dalpha^{-2} s2 - s1 + dalpha^{-1}(K0 s1 * sigma^{-1} d2)

        which vanish (up to the dropped cubic remainders) on solutions whose
        second block is slaved to the first (:func:`slave_second_block`).
        The four fields must be real: the product is formed with real
        transforms.

        The truncated flow is tangent to the zero set of both relations to
        quadratic order: from a slaved zero-mean first block of amplitude a
        the defect grows at a rate ~ a^2 relative to u_{-1}, so a freely
        marched second block drifts off the constraint by the truncation's
        cubic remainder (``tests/test_sim.py``,
        ``test_truncated_flow_is_tangent_to_the_constraint_manifold_to_quadratic_order``).
        The zero mode of each relation is dropped by construction
        (antiderivative convention).  A first block with a nonzero mean
        therefore leaves the constraint at a rate ~ a instead.
        """
        u_m1, u_p1, u_m2, u_p2 = state
        s1 = u_m1 + u_p1
        d1 = u_m1 - u_p1
        s2 = u_m2 + u_p2
        d2 = u_m2 - u_p2

        first = self._inv_ik * self._sig_inv * d2 - self._sig_inv * self._ik * d1

        prod = _constraint_product(self.grid, s1, d2, self.b) * self.keep_mask
        second = self._inv_ik2 * s2 - s1 + self._inv_ik * prod
        # the relation is only meaningful mode-by-mode away from k=0, where
        # the antiderivatives are defined
        first[0] = 0.0
        second[0] = 0.0
        return first, second
