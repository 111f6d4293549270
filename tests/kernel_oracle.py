"""Kernel extraction from the evolution equations: the tests' oracle.

The closed-form symbols in :mod:`arcwave.kernels` are the production route.
This module is the independent one they are checked against: it feeds
single Fourier modes (or a spectral comb) through the quadratic part of
:class:`arcwave.equations.TruncatedSystem`, treated as a black box, and
reads off the output coefficients.  ``q_term_operator`` realizes each
closed-form principal symbol from multiplier/product/commutator primitives,
and ``q13_closed`` is the analytic first-block commutator remainder.
``delta0_per_combo`` is the sign-combination-by-combination scan that
:func:`arcwave.kernels.delta0_for` does on one stacked evaluation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from arcwave.dispersion import k0_symbol, omega_deriv, sigma, sigma_inv
from arcwave.equations import COMPONENT_INDEX, TruncatedSystem
from arcwave.kernels import _check_pair
from arcwave.resonance import r_general, r_hat
from arcwave.spectral import Grid1D
from fourier import commutator, ik_power, mode, product

#: a bilinear map op(grid, f, g) of full-layout coefficient arrays on ``grid``
BilinearOperator = Callable[[Grid1D, np.ndarray, np.ndarray], np.ndarray]
SlotSpec = Union[int, Sequence[tuple[int, int]]]

#: coarse standard grid: integer wavenumbers up to |k| = 1365 survive dealiasing
DEFAULT_EXTRACTION_GRID = Grid1D(n_points=4096, length=2.0 * np.pi)


# ---------------------------------------------------------------------------
# analytic first-block remainder
# ---------------------------------------------------------------------------


def q13_closed(j1: int, j2: int, k, m, b: float):
    """Analytic form of the first-block commutator remainder (fast path).

    Equal, to rounding, to the operational extracted-minus-closed residual;
    the equality is asserted in the test suite rather than assumed here.
    """
    _check_pair(j1, j2)
    if abs(j1) != 1:
        raise ValueError("the analytic remainder is a first-block object")
    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    l = k - m
    s1 = -float(np.sign(j1))
    ik2 = 0.5j * k
    K0 = k0_symbol
    first = (
        sigma(k, b) * K0(k) * (K0(k) - K0(m)) - sigma(k, b) * (1.0 + K0(k) ** 2)
    ) * sigma_inv(l, b)
    second = (sigma(k, b) - sigma(m, b)) * sigma_inv(m, b) + (
        K0(k) * sigma(k, b) - K0(m) * sigma(m, b)
    ) * K0(l) * sigma_inv(m, b)
    val = np.asarray(s1 * (ik2 * first + j2 * ik2 * second))
    return val if val.ndim else complex(val)


# ---------------------------------------------------------------------------
# numerical extraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _system_for(grid: Grid1D, b: float) -> TruncatedSystem:
    """Shared lazy cache of equation tables; idempotent under races."""
    return TruncatedSystem(grid, b)


def _normalize_slot(slot: SlotSpec) -> tuple[tuple[int, int], ...]:
    if isinstance(slot, (int, np.integer)):
        return ((int(slot), 0),)
    return tuple((int(c), int(o)) for c, o in slot)


def _insert(grid: Grid1D, slot: tuple[tuple[int, int], ...], f: np.ndarray) -> np.ndarray:
    state = np.zeros((4, grid.n_points), dtype=np.complex128)
    for comp, order in slot:
        state[COMPONENT_INDEX[comp]] += ik_power(grid, order) * f
    return state


#: the second-block carrier occupies u_{-1} directly and u_{-2} through
#: two alpha-derivatives (the slaved leading-order relation)
SECOND_BLOCK_CARRIER: tuple[tuple[int, int], ...] = ((-1, 0), (-2, 2))


def equation_cross_operator(b: float, j1: int, slot_a: SlotSpec = -1,
                            slot_b: SlotSpec = -1) -> BilinearOperator:
    """Bilinear cross part of the u_{j1}-equation nonlinearity.

    ``slot_a``/``slot_b`` say where the two arguments are inserted: either a
    single component label, or a sequence of (component, derivative-order)
    pairs for composite inserts.  The returned operator, op(grid, f, g) on
    coefficient arrays, works on any grid (equation tables are cached per
    grid) and is exactly bilinear, since the nonlinearity is homogeneous
    quadratic.
    """
    row = COMPONENT_INDEX[j1]
    sa = _normalize_slot(slot_a)
    sb = _normalize_slot(slot_b)

    def op(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        a_state = _insert(grid, sa, f)
        b_state = _insert(grid, sb, g)
        both, a_only, b_only = _system_for(grid, b).full_nonlinear(
            np.stack([a_state + b_state, a_state, b_state]))
        return (both - a_only - b_only)[row]

    return op


def extract_kernel(bilinear_operator: BilinearOperator, l: float, m: float,
                   grid: Optional[Grid1D] = None, check: bool = False) -> complex:
    """Kernel value of a bilinear operator at the mode pair (l, m).

    Feeds e^{il.alpha} and e^{im.alpha} through the operator and returns the
    output coefficient at l+m.  Inputs are snapped to the nearest grid
    modes; pairs whose input or output modes fall outside the dealiased
    band are rejected, since the evaluation would be silently zeroed or
    aliased.  With ``check=True`` the extraction is repeated on a grid with
    doubled resolution and a mismatch raises.
    """
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID
    fund = grid.fundamental
    jl = int(round(l / fund))
    jm = int(round(m / fund))
    band = grid.n_points // 3
    if abs(jl) > band or abs(jm) > band:
        raise ValueError(
            f"input modes ({jl}, {jm}) fall outside the dealiased band "
            f"|j| <= {band} of the extraction grid"
        )
    if abs(jl + jm) > band:
        raise ValueError(
            f"output mode {jl + jm} would be aliased/dealiased away on this grid"
        )
    ls, ms = jl * fund, jm * fund

    def value_on(g: Grid1D) -> complex:
        out = bilinear_operator(g, mode(g, ls), mode(g, ms))
        return complex(out[g.mode_index(ls + ms)])

    value = value_on(grid)
    if check:
        value2 = value_on(Grid1D(n_points=2 * grid.n_points, length=grid.length))
        scale = max(abs(value), abs(value2), 1e-30)
        if abs(value - value2) > 1e-9 * scale + 1e-12:
            raise ValueError(
                f"extraction at (l={ls}, m={ms}) is grid-dependent: "
                f"{value} vs {value2} on doubled resolution"
            )
    return value


# ---------------------------------------------------------------------------
# per-term physical realizations (independent route for the closed forms)
# ---------------------------------------------------------------------------


def q_term_operator(b: float, j1: int, j2: int, mu: int) -> BilinearOperator:
    """Physical-space realization of one closed-form symbol as an operator.

    Built from multiplier/product/commutator primitives, *not* from the
    analytic product formula, so extracting its kernel and comparing with
    :func:`q_symbol` is a genuine two-route test.  Argument order:
    (carrier-slot field, insert-slot field).
    """
    _check_pair(j1, j2)
    if not 1 <= mu <= 2 * abs(j1):
        raise ValueError(f"mu={mu} out of closed-form range for |j1|={abs(j1)}")

    def zero(grid: Grid1D) -> np.ndarray:
        return np.zeros(grid.n_points, dtype=np.complex128)

    def sig(grid: Grid1D) -> np.ndarray:
        return sigma(grid.wavenumbers, b).astype(np.complex128)

    def sig_inv(grid: Grid1D) -> np.ndarray:
        return sigma_inv(grid.wavenumbers, b).astype(np.complex128)

    def K0(grid: Grid1D) -> np.ndarray:
        return k0_symbol(grid.wavenumbers)

    def d(grid: Grid1D, f: np.ndarray) -> np.ndarray:
        return ik_power(grid, 1) * f

    sj1 = 1.0 if j1 > 0 else -1.0
    sj2 = 1.0 if j2 > 0 else -1.0
    if mu == 1:  # both blocks
        def op(g: Grid1D, psi: np.ndarray, r: np.ndarray) -> np.ndarray:
            if j2 != j1:
                return zero(g)
            return -d(g, product(g, psi, r))
    elif abs(j1) == 1:  # mu == 2 of the first block
        def op(g: Grid1D, psi: np.ndarray, r: np.ndarray) -> np.ndarray:
            if j2 != -j1:
                return zero(g)
            return d(g, product(g, K0(g) * psi, K0(g) * r))
    elif mu == 2:
        def op(g: Grid1D, psi: np.ndarray, r: np.ndarray) -> np.ndarray:
            lhs = K0(g) * sig_inv(g) * (1j * g.wavenumbers) * psi
            rhs = sig_inv(g) * r
            return (-sj2) * 0.5 * d(g, product(g, lhs, rhs))
    elif mu == 3:
        def op(g: Grid1D, psi: np.ndarray, r: np.ndarray) -> np.ndarray:
            lhs = sig_inv(g) * (1j * g.wavenumbers) ** 2 * psi
            rhs = K0(g) * sig_inv(g) * (1j * g.wavenumbers) * r
            return (-sj2) * (-0.5 * b) * d(g, product(g, lhs, rhs))
    else:  # mu == 4
        def op(g: Grid1D, psi: np.ndarray, r: np.ndarray) -> np.ndarray:
            inner = commutator(g, sig(g), ik_power(g, -2) * r,
                               sig_inv(g) * (1j * g.wavenumbers) ** 2 * psi)
            return sj1 * 0.5 * d(g, inner)
    return op


# ---------------------------------------------------------------------------
# whole-curve extraction (comb trick)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _curve_cached(b: float, j1: int, j2: int, jl: int, grid: Grid1D,
                  composite_carrier: bool) -> np.ndarray:
    fund = grid.fundamental
    l = jl * fund
    carrier: SlotSpec = SECOND_BLOCK_CARRIER if composite_carrier else -1
    op = equation_cross_operator(b, j1, carrier, j2)
    # the comb: unit coefficient on every dealiased mode, a linear-response probe
    comb = np.where(grid.dealias_keep, 1.0 + 0.0j, 0.0j)
    out = op(grid, mode(grid, l), comb).copy()
    # out[p] = kernel(p; l, p-l): valid only when both p and p-l are in band
    jp = grid.mode_numbers
    band = grid.n_points // 3
    valid = (np.abs(jp) <= band) & (np.abs(jp - jl) <= band)
    out[~valid] = np.nan
    out.setflags(write=False)
    return out


def equation_kernel_curve(b: float, j1: int, j2: int, l: float,
                          grid: Optional[Grid1D] = None,
                          composite_carrier: bool = False) -> np.ndarray:
    """Extracted kernel values q(k, l, k-l) for every grid wavenumber k.

    One bilinear cross evaluation against a spectral comb recovers the whole
    curve at once (the carrier is a single mode, so each output wavenumber
    receives exactly one bilinear contribution).  Entries whose input or
    output mode leaves the dealiased band are NaN.
    """
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID
    jl = int(round(l / grid.fundamental))
    return _curve_cached(b, j1, j2, jl, grid, composite_carrier)


# ---------------------------------------------------------------------------
# the delta0 scan, one sign combination at a time
# ---------------------------------------------------------------------------


def delta0_per_combo(k0: float, b: float, margin: float = 0.1) -> float:
    """``delta0_for`` as first written: per candidate, r_hat on its four
    windows, then ``r_general`` window by window for each sign combination
    (j1, j2, ell) whose k = 0 limit does not vanish, each call evaluating
    omega afresh.  The checks, candidates and errors are the production
    function's, which must return the same float."""
    slope = abs(float(omega_deriv(k0, b, 1)) - 1.0)
    if slope < 1e-12:
        raise ValueError(
            f"group-velocity degeneracy at (k0={k0}, b={b}): no linear margin exists"
        )

    combos = [(j1, j2, ell) for j1 in (-1, 1) for j2 in (-1, 1) for ell in (-1, 1)]
    limits = {}
    for j1, j2, ell in combos:
        r0 = abs(r_general(j1, j2, 0.0, ell * k0, -ell * k0, b))
        if r0 > 1e-9:
            limits[(j1, j2, ell)] = r0

    delta = k0 / 20.0 * 0.999
    while delta > 1e-6 * k0:
        kk = np.linspace(1e-9, delta, 400)
        windows = r_hat(np.array([kk, -kk, k0 + kk, k0 - kk]), b, k0)
        ok = np.all(np.abs(windows) >= margin * slope * kk)
        if ok:
            window = np.linspace(-delta, delta, 401)
            for (j1, j2, ell), r0 in limits.items():
                vals = np.abs(r_general(j1, j2, window, ell * k0, window - ell * k0, b))
                if np.min(vals) < margin * r0:
                    ok = False
                    break
        if ok:
            return float(delta)
        delta *= 0.9
    raise ValueError(f"no admissible delta0 found for (k0={k0}, b={b})")
