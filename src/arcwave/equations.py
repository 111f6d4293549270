"""Right-hand side of the quadratic-truncated diagonalized evolution system.

The state has four components, the Fourier coefficients of four real
fields in the order

    index 0: u_{-1}    index 1: u_{+1}    index 2: u_{-2}    index 3: u_{+2}

The four fields are real, so the time loop carries only their ``rfft`` half
spectra, (4, n//2 + 1).  The nonlinearity has one entry point,
``TruncatedSystem.evaluator(rows)``, which binds the product list to its own
buffers for the band of such states, their columns 0..J; the time loop binds
one per march, and the tests' kernel extraction reaches the same product
list with complex full-layout inputs by polarization (``full_nonlinear`` of
the test suite's ``kernel_oracle`` module).  The first block alone, 2 rows,
is accepted too: it is autonomous, and its products are the prefix of the list.

The first block evolves under -/+ i*omega plus quadratic terms built from
s1 = u_{-1}+u_{+1} and d1 = u_{-1}-u_{+1}; the second block sees additional
quadratic interactions through s2, d2 and the antiderivative weights.  Every
quadratic term is an exact alpha-derivative, so the zero mode of the
nonlinearity vanishes identically (the final multiplication by ik enforces
this at machine level: ik = 0 at k = 0).

The constraint relations that tie the second block to the first live here
too, once: ``slave_second_block`` maps a first block to its slaved second
block, and ``TruncatedSystem.consistency_defect`` measures how far a state
is from that map, with the same product.  Both take and return ``rfft``
half spectra, the layout the time loop carries, and form their product with
real transforms.  Both read the multiplier tables of a ``TruncatedSystem``;
the map reads those of ``default_system(grid, b)``, the one cached
2/3-rule system per (grid, b).

This module is deliberately free of any closed-form interaction symbols: the
kernel-extraction machinery treats the functions here as a black box and
compares against analytic symbols derived elsewhere, which keeps the two
routes independent.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dispersion import omega, sigma
from .spectral import Grid1D, half_spectrum

__all__ = ["TruncatedSystem", "default_system", "slave_second_block"]


def slave_second_block(grid: Grid1D, first: np.ndarray, b: float) -> np.ndarray:
    """Constraint map: the second block u_{-/+2} slaved to the first block u_{-/+1}.

    ``first`` holds the ``rfft`` half spectra of u_{-1} and u_{+1}, real
    fields, shape (..., 2, n//2 + 1); the result has the same shape, and
    every column is the one the full-layout map gives at that k.  With
    s = u_{-} + u_{+} and d = u_{-} - u_{+} per block, the map is

        d2 = d1'',    s2 = s1'' - (K0 s1 * sigma^{-1} d2)',

    the product dealiased by the grid's 2/3 rule.  These are the relations
    ``TruncatedSystem.consistency_defect`` measures; the multipliers are
    those of ``default_system(grid, b)``.
    """
    system = default_system(grid, b)
    s1 = first[..., 0, :] + first[..., 1, :]
    d2 = (first[..., 0, :] - first[..., 1, :]) * system._ik2
    # np.where, not consistency_defect's * keep_mask: they differ in signed zeros
    prod = np.where(system.keep_mask, system._constraint_product(s1, d2), 0.0)
    s2 = s1 * system._ik2 - prod * system._ik
    return np.stack([0.5 * (s2 + d2), 0.5 * (s2 - d2)], axis=-2)


@dataclass(frozen=True)
class TruncatedSystem:
    """Precomputed multiplier tables and the nonlinearity for one (grid, b).

    Every table, ``keep_mask`` and ``linear_symbols`` are on the ``rfft``
    half spectrum: columns 0..n/2 of ``grid.wavenumbers``, -k_N at Nyquist.

    The nonlinearity is the Galerkin truncation onto the kept modes P
    (``keep_mask``): ``evaluator`` computes P N(P U), the quadratic terms
    of the state's kept modes, projected back onto them.  P is the grid's
    2/3 rule, or its intersection with ``extra_keep``, a caller-supplied
    mask of half-spectrum columns (e.g. ``wavepacket.band_mask``).
    Long-horizon runs need the latter: the quadratic symbols grow
    superlinearly in k, so once the coupling through a carrier of size eps
    exceeds the dispersive detuning (which saturates near omega(k0)),
    retained modes above a threshold ~ (1/eps)^{2/3} are violently
    amplified; fixing the retained band keeps them out instead of letting
    the band grow with n.

    The kept modes lie in the half-spectrum columns 0..J, J + 1 =
    ``band_columns``, so their products are exact on any grid of n_p >= 3J + 1
    points (Orszag's 3/2 rule): ``transform_length`` is the smallest even
    2^a 3^b 5^c >= 3J + 1, capped at n.  Under the 2/3 rule alone n_p = n
    for every power-of-two n; a band mask shrinks it (300 for n = 512 and
    bands |k -/+ l k0| <= 0.9 around k0 = 2 on L = 40 pi).  The modes above
    J feel no quadratic term, so ``sim._march`` advances them by their
    linear phase alone.

    Round-off grows with the band as well: the coefficient-space
    multipliers reach |ik * ik * sigma| ~ 5e10 at k ~ 1365 (n = 4096,
    L = 2 pi, b = 0.3), so on a decaying spectrum over the full 2/3-rule
    band the result is off by about 6e-10 of its maximum, against a
    long-double evaluation of the same tables (7e-13 on a flat spectrum).
    Runs that keep the full band at n >= 4096 should keep ``extra_keep``
    or check this.
    """

    grid: Grid1D
    b: float
    extra_keep: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.b < 0.0:
            raise ValueError(f"Bond number must be nonnegative, got {self.b}")
        expected = (self.grid.n_points // 2 + 1,)
        if self.extra_keep is not None and self.extra_keep.shape != expected:
            raise ValueError(f"extra_keep must have one entry per half-spectrum "
                             f"column, {expected}, got {self.extra_keep.shape}")

    # ---------------------------------------------------------------- tables

    @cached_property
    def _k(self) -> np.ndarray:
        return half_spectrum(self.grid.wavenumbers)

    @cached_property
    def _ik(self) -> np.ndarray:
        return 1j * self._k

    @cached_property
    def _ik2(self) -> np.ndarray:
        return self._ik**2

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
        """Multipliers of the 11 precursors of ``evaluator``, zero outside
        ``keep_mask`` (the input projection P); the first three are the
        first block's."""
        ik, K0, sig_inv, inv_ik = self._ik, self._K0, self._sig_inv, self._inv_ik
        one = np.ones_like(ik)
        pre = np.array([one, K0, sig_inv, one, sig_inv, inv_ik**2, inv_ik,
                        K0 * inv_ik, inv_ik * sig_inv, K0 * inv_ik * sig_inv,
                        K0 * ik * sig_inv])
        return pre * self.keep_mask

    #: row of (s1, d1, s2, d2) each precursor multiplier acts on; the first
    #: block's three precursors come first and read only s1 and d1
    _PRE_SOURCE = np.array([0, 0, 1, 2, 3, 2, 2, 2, 3, 3, 3])

    #: per input row count: the precursors multiplied pairwise (left, right)
    #: and the left operand scaled by b first, if any.  Row i < 8 (3 for the
    #: first block) is the first product of product sum i; the rest are the
    #: further products of sums 0, 3 and 4, in the order ``evaluator`` adds them:
    #:   Q0 = K0s1 K0s1 - s1 s1,   Q1 = sid1 s1,   Q2 = sid1 K0s1,
    #:   Q3 = K0iasid2 sid2 - ia2s2 s2 - ia1s2 ia1s2 + K0ia1s2 K0ia1s2
    #:        - (b sid2) K0sid2a,
    #:   Q4 = ia2s2 sid2 + iasid2 ia1s2,   Q5 = sid1 ia1s2,
    #:   Q6 = iasid2 K0ia1s2,   Q7 = sid1 K0ia1s2,
    #: with precursors numbered s1 0, K0s1 1, sid1 2, s2 3, sid2 4, ia2s2 5,
    #: ia1s2 6, K0ia1s2 7, iasid2 8, K0iasid2 9, K0sid2a 10
    _PRODUCTS = {
        2: (np.array([1, 2, 2, 0]), np.array([1, 0, 1, 0]), None),
        4: (np.array([1, 2, 2, 9, 5, 2, 8, 2, 0, 5, 6, 7, 4, 8]),
            np.array([1, 0, 1, 4, 4, 6, 7, 7, 0, 3, 6, 7, 10, 6]), 12),
    }

    @cached_property
    def _post(self) -> np.ndarray:
        """Multipliers of the product sums of ``evaluator``, zero outside
        ``keep_mask``: E1, X1 (2), E2, X2 (4)."""
        h = 0.5 * self._ik
        hs = h * self._sig
        hsK = hs * self._K0
        post = np.array([0.5 * h, hs, hsK, h, hs, self._ik * hs, hsK, self._ik * hsK])
        return post * self.keep_mask

    @cached_property
    def keep_mask(self) -> np.ndarray:
        """Boolean mask of the kept modes, P, one per half-spectrum column: the
        only modes the quadratic terms read (``_pre``) and feed (``_post``)."""
        keep = half_spectrum(self.grid.dealias_keep)
        if self.extra_keep is not None:
            keep = keep & self.extra_keep.astype(bool)
        return keep

    @cached_property
    def band_columns(self) -> int:
        """J + 1: the half-spectrum columns 0..J hold every kept mode.

        The Nyquist column is never kept (the 2/3 rule drops it), so
        J < n/2; J = 0 when no mode but the mean is kept.
        """
        kept = np.flatnonzero(self.keep_mask)
        return int(kept[-1]) + 1 if kept.size else 1

    @cached_property
    def transform_length(self) -> int:
        """n_p: the smallest even 2^a 3^b 5^c >= 3J + 1, capped at n.

        A product of two fields with modes |j| <= J has modes |j| <= 2J; on
        n_p points the mode j aliases onto j -/+ n_p, which stays above J
        whenever n_p >= 3J + 1, so the columns 0..J of the product are
        exact.  2^a 3^b 5^c are the lengths pocketfft transforms fastest;
        n_p is even, as n is.
        """
        n = self.grid.n_points
        n_p = 3 * (self.band_columns - 1) + 1
        n_p += n_p % 2
        while n_p < n and not _is_five_smooth(n_p):
            n_p += 2
        return min(n_p, n)

    @cached_property
    def linear_symbols(self) -> np.ndarray:
        """(4, n//2 + 1) array: the linear part of d/dt is linear_symbols * state,
        -/+ i omega(k) on the half spectra of u_{-/+1} and u_{-/+2}.

        The Nyquist column is 0: omega is odd, and an odd symbol maps the
        Nyquist mode of a real field, cos(k_N alpha), to a multiple of
        sin(k_N alpha), which vanishes at every grid point.  So that mode
        keeps its value; ``evaluator`` neither reads nor writes it either.
        """
        iw = 1j * omega(self._k, self.b)
        lam = np.array([-iw, iw, -iw, iw])
        lam[:, -1] = 0.0
        return lam

    # ------------------------------------------------------------ evaluation

    def evaluator(self, rows: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The quadratic part of d(state)/dt, bound to its own buffers.

        Returns f(U, out), which writes P N(P U), the nonlinearity of the
        kept modes of the ``rfft`` half spectra U, into ``out`` and returns
        ``out``; see :func:`arcwave.spectral.half_spectrum`.  rows is 4
        (u_{-/+1}, u_{-/+2}) or 2 (the first block u_{-/+1} alone).  U and
        ``out`` are exactly the band, (rows, J + 1), J + 1 = ``band_columns``:
        the kept modes lie in the columns 0..J, ``_pre``, zero outside
        ``keep_mask``, projects them, and the nonlinearity is 0 above J.
        The linear part (see ``linear_symbols``) is handled separately so
        the integrating-factor stepper can advance it exactly.  The tests'
        kernel oracle takes complex full-layout states through it by
        polarization.

        The transforms have ``transform_length`` n_p points, the smallest
        5-smooth even length that dealiases the kept band: n_p = n under
        the 2/3 rule, where the evaluation is the full-grid one bit for bit
        on states inside the band.

        The first block is autonomous: its products read only s1 and d1, so
        the 2-row product list is the prefix of the 4-row one (3 of the 11
        precursors, 3 of the 8 product sums) and gives rows 0-1 of the 4-row
        result bit for bit.

        Each block is a common part plus or minus a difference part,
        n_{-/+1} = E1 -/+ X1 and n_{-/+2} = E2 -/+ X2, by two identities:

        * commutator minus flat piece, K0 (K0 pr(g, f) - pr(g, K0 f))
          - (1 + K0^2) pr(g, f) = -(pr(g, f) + K0 pr(g, K0 f)), g = sigma^{-1} d;
        * -ik pr(da^{-2} s2, u_{-/+2}) -/+ (ik/2)[sigma, da^{-2} s2] sigma^{-1} d2
          = -(ik/2) pr(da^{-2} s2, s2) -/+ (ik/2) sigma pr(da^{-2} s2, sigma^{-1} d2),
          since u_{-/+2} - (-/+ d2)/2 = s2/2.

        So each distinct product is formed once, and products sharing a
        coefficient-space multiplier are summed before the forward transform:
        one ``irfft`` of 11 (3) precursors, one ``rfft`` of 8 (3) product sums,
        each of length n_p.

        The precursor, physical, product and spectrum buffers, and their row
        views, are allocated here, once; every evaluation overwrites them
        with ufunc ``out=``.  The sums and differences (s, d) are one strided
        add and one strided subtract, the 14 (4) product operands are
        gathered with one ``take`` into one multiply (``_PRODUCTS``), and the
        outputs E -/+ X are one call each.  So an evaluation does not depend
        on the ones before it: every sum and product is formed with the
        operands and in the order of the product list.

        The buffers belong to f alone: nothing is stored on the system,
        which stays immutable, picklable and shareable across threads.  One
        f must not be called from two threads at once; bind one per thread
        (per march).
        """
        if rows not in self._PRODUCTS:
            raise ValueError(
                f"the nonlinearity takes 4 components or the first block's 2, got {rows}")
        n_pre, n_post = (3, 3) if rows == 2 else (11, 8)
        c, n_p = self.band_columns, self.transform_length
        pre = np.ascontiguousarray(self._pre[:n_pre, :c])
        post = np.ascontiguousarray(self._post[:n_post, :c])
        source = self._PRE_SOURCE[:n_pre]
        left, right, scaled = self._PRODUCTS[rows]
        sd = np.empty((rows, c), dtype=np.complex128)  # s1, d1 (, s2, d2)
        spec_in = np.empty((n_pre, c), dtype=np.complex128)
        phys = np.empty((n_pre, n_p))
        operands = np.concatenate([left, right])
        LR = np.empty((len(operands), n_p))  # the left, then the right operands
        L, R = LR[: len(left)], LR[len(left):]
        Q = np.empty((len(left), n_p))  # the products; the first rows sum them
        spec = np.empty((n_post, n_p // 2 + 1), dtype=np.complex128)
        band = spec[:, :c]  # the product sums' columns 0..J

        s_rows, d_rows = sd[0::2], sd[1::2]
        Q_rows, G = list(Q), list(band)
        scaled_row = L[scaled] if scaled is not None else None
        # X of each block first sums G[1] + G[2] (and G[4] + G[5]) in one call;
        # then E = G[0] (G[3]) and X = G[1] (G[4]) give the outputs
        x_first, x_second = band[1: rows + 1: 3], band[2: rows + 2: 3]
        E_rows = band[0: rows + rows // 2: 3]
        X_rows = band[1: rows + rows // 2 + 1: 3]
        rfft_in = Q[:n_post]
        b = self.b
        mul, add, sub = np.multiply, np.add, np.subtract

        def f(U: np.ndarray, out: np.ndarray) -> np.ndarray:
            if U.shape != (rows, c) or out.shape != (rows, c):
                raise ValueError(
                    f"evaluator bound to the band {(rows, c)}, got U {U.shape}, "
                    f"out {out.shape}")
            # (s1, d1, s2, d2), then the precursors of P U in coefficient space
            minus, plus = U[0::2], U[1::2]
            add(minus, plus, out=s_rows)
            sub(minus, plus, out=d_rows)
            sd.take(source, axis=0, out=spec_in, mode="clip")
            mul(pre, spec_in, out=spec_in)

            # physical-space precursors and their products, all in one multiply
            np.fft.irfft(spec_in, n_p, norm="forward", out=phys)
            phys.take(operands, axis=0, out=LR, mode="clip")
            if scaled_row is not None:
                mul(b, scaled_row, out=scaled_row)
            mul(L, R, out=Q)
            # the product sums of _post, in the operand order of _PRODUCTS
            if rows == 2:
                sub(Q_rows[0], Q_rows[3], out=Q_rows[0])
            else:
                sub(Q_rows[0], Q_rows[8], out=Q_rows[0])
                sub(Q_rows[3], Q_rows[9], out=Q_rows[3])
                sub(Q_rows[3], Q_rows[10], out=Q_rows[3])
                add(Q_rows[3], Q_rows[11], out=Q_rows[3])
                sub(Q_rows[3], Q_rows[12], out=Q_rows[3])
                add(Q_rows[4], Q_rows[13], out=Q_rows[4])

            # product sums, one per coefficient-space multiplier (see _post),
            # projected by P on their columns 0..J
            np.fft.rfft(rfft_in, norm="forward", out=spec)
            mul(post, band, out=band)
            # n_{-/+1} = E1 -/+ X1 with E1 = G[0], X1 = G[1] + G[2], and
            # n_{-/+2} = E2 -/+ X2 with E2 = G[3], X2 = G[4] + ... + G[7]
            add(x_first, x_second, out=x_first)
            if rows == 4:
                add(G[4], G[6], out=G[4])
                add(G[4], G[7], out=G[4])
            sub(E_rows, X_rows, out=out[0::2])
            add(E_rows, X_rows, out=out[1::2])
            return out

        return f

    # ------------------------------------------------- consistency relations

    def _constraint_product(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Product K0 f * sigma^{-1} g of real fields, not dealiased.

        f, g and the result are ``rfft`` half spectra (..., n//2 + 1); the
        product is formed with real transforms.
        """
        pf, pg = np.fft.irfft(np.array([self._K0 * f, self._sig_inv * g]),
                              self.grid.n_points, norm="forward")
        return np.fft.rfft(pf * pg, norm="forward")

    def consistency_defect(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the two constraints tying the second block to the first.

        ``state`` holds the ``rfft`` half spectra of the four real fields,
        (4, n//2 + 1).  Returns the half spectra of

            dalpha^{-1} sigma^{-1} d2 - sigma^{-1} dalpha d1
            dalpha^{-2} s2 - s1 + dalpha^{-1}(K0 s1 * sigma^{-1} d2)

        which vanish (up to the dropped cubic remainders) on solutions whose
        second block is slaved to the first (:func:`slave_second_block`).

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
        ik, inv_ik, sig_inv = self._ik, self._inv_ik, self._sig_inv

        first = inv_ik * sig_inv * d2 - sig_inv * ik * d1

        prod = self._constraint_product(s1, d2) * self.keep_mask
        second = self._inv_ik2 * s2 - s1 + inv_ik * prod
        # the relation is only meaningful mode-by-mode away from k=0, where
        # the antiderivatives are defined
        first[0] = 0.0
        second[0] = 0.0
        return first, second


def _is_five_smooth(n: int) -> bool:
    """Whether n has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@lru_cache(maxsize=16)
def default_system(grid: Grid1D, b: float) -> TruncatedSystem:
    """The truncated system of (grid, b) with the default 2/3-rule keep mask.

    One cached object per (grid, b): the constraint map and
    ``sim.consistency_residual`` read its tables, so they are built once.
    """
    return TruncatedSystem(grid, b)
