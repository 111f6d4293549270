"""Cut-off weights, closed-form quadratic symbols, and kernel extraction.

Two independent routes to the same bilinear interaction coefficients live
here:

* closed-form symbols (``q_symbol``, ``first_block_symbol``) evaluated
  directly from analytic formulas in the wavenumbers;
* numerical extraction (``extract_kernel``) that feeds single Fourier modes
  through a black-box bilinear operator — typically the quadratic part of
  the evolution equations — and reads off the output coefficient.

The closed forms are the production route: the triad coefficients of
:func:`arcwave.resonance.stability` and :func:`arcwave.twi.twi_coeffs`, the
first-block normal-form kernels and the first-block reweighting all
evaluate ``first_block_symbol`` at the exact wavenumbers.  Extraction is the
test oracle the closed forms are checked against, and it still serves the
one quantity without a closed form: the second-block residual curves
(``_curve_cached``) and the operational residual ``q_residual``.  Nothing in
this module reaches into :mod:`arcwave.equations` internals beyond calling
its ``full_nonlinear`` evaluation.

Residual symbols (the first-block commutator remainder and the second-block
leftover) are *defined* operationally as extracted-total minus closed forms;
an analytic expression for the first-block remainder is kept as a fast path
and is itself validated against the operational definition in the tests.

Wavenumbers handed to extraction-backed routines are snapped to the nearest
grid mode; analytic routines evaluate at the exact argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dispersion import k0_symbol, omega, omega_deriv, sigma, sigma_inv
from .equations import COMPONENT_INDEX, TruncatedSystem
from .resonance import critical_bonds, k1_of_b, r_general, r_hat
from .spectral import Grid1D, SpectralField

__all__ = [
    "KernelParams",
    "theta_hat",
    "theta_inv_hat",
    "xi_hat",
    "zeta_hat",
    "q_symbol",
    "first_block_symbol",
    "q13_closed",
    "q_residual",
    "extract_kernel",
    "equation_cross_operator",
    "q_term_operator",
    "equation_kernel_curve",
    "second_block_residual_curve",
    "second_block_total_curve",
    "rho_hat",
    "rho_extremes",
    "n_hat",
    "delta0_for",
    "delta1_for",
    "default_params",
    "DEFAULT_EXTRACTION_GRID",
]

BilinearOperator = Callable[[SpectralField, SpectralField], SpectralField]
SlotSpec = Union[int, Sequence[tuple[int, int]]]

#: coarse standard grid: integer wavenumbers up to |k| = 1365 survive dealiasing
DEFAULT_EXTRACTION_GRID = Grid1D(n_points=4096, length=2.0 * np.pi)

#: |r| below this counts as a removable zero of a kernel denominator
_RESONANT_EPS = 1e-9
#: wavenumber nudge used to step off removable singular points
_NUDGE = 1e-6


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelParams:
    """Weight/cut-off parameters for one (k0, b) configuration.

    ``k1`` is the resonant partner wavenumber and is only meaningful (and
    only required) in the Bond range where it exists.
    """

    eps: float
    delta0: float
    delta1: float
    b: float
    k0: float
    k1: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if not (self.k0 > 0.0):
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.b < 0.0:
            raise ValueError(f"Bond number must be nonnegative, got {self.b}")
        if not (0.0 < self.delta0 < self.k0 / 20.0):
            raise ValueError(
                f"delta0 must lie in (0, k0/20) = (0, {self.k0 / 20.0:.6g}), "
                f"got {self.delta0}"
            )
        if not (0.0 < self.delta1 < 1.0):
            raise ValueError(f"delta1 must lie in (0,1), got {self.delta1}")
        if self.k1 is not None:
            if not (self.k1 > self.k0):
                raise ValueError(f"k1={self.k1} must exceed k0={self.k0}")
            bound = 1.0 - self.k0 / (20.0 * (self.k1 - self.k0))
            if self.in_resonant_band and not (self.delta1 < bound):
                raise ValueError(
                    f"delta1={self.delta1} violates the admissibility bound "
                    f"{bound:.6g} for k1={self.k1}"
                )

    @property
    def in_resonant_band(self) -> bool:
        """True when the Bond number admits the resonant partner k1."""
        return 0.0 < self.b < critical_bonds(self.k0).b0

    def require_k1(self) -> float:
        if self.k1 is None:
            raise ValueError(
                "this evaluation needs the resonant partner k1, which was "
                "not supplied in KernelParams"
            )
        return self.k1


# ---------------------------------------------------------------------------
# scalar weight functions
# ---------------------------------------------------------------------------


def theta_hat(k, eps: float, delta0: float):
    """Low-mode weight: eps + (1-eps)|k|/delta0 inside |k| <= delta0, else 1."""
    k = np.asarray(k, dtype=float)
    inside = eps + (1.0 - eps) * np.abs(k) / delta0
    out = np.where(np.abs(k) > delta0, 1.0, inside)
    return out if out.ndim else float(out)


def theta_inv_hat(k, eps: float, delta0: float):
    return 1.0 / theta_hat(k, eps, delta0)


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x<=0, 1 for x>=1, strictly monotone between.

    Built from the standard exp(-1/t) corner-flattening function, the same
    family as the exp(-1/(1-x^2)) bump.
    """
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        fa = np.where(x > 0.0, np.exp(-1.0 / np.where(x > 0.0, x, 1.0)), 0.0)
        xb = 1.0 - x
        fb = np.where(xb > 0.0, np.exp(-1.0 / np.where(xb > 0.0, xb, 1.0)), 0.0)
    return fa / (fa + fb)


def xi_hat(i: int, k, delta: float):
    """Smooth even cutoff: 1 on |k| <= delta/2, 0 on |k| >= delta.

    The index ``i`` only labels which of the two cutoff scales is in play;
    the profile is shared.
    """
    if i not in (0, 1):
        raise ValueError(f"cutoff index must be 0 or 1, got {i}")
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    k = np.asarray(k, dtype=float)
    out = 1.0 - _smooth_step((np.abs(k) - delta / 2.0) / (delta / 2.0))
    return out if out.ndim else float(out)


def zeta_hat(j1: int, j2: int, ell: int, k, params: KernelParams):
    """Resonance-window complement for the doubly-negative component pair.

    Identically 1 unless both component signs are negative and the Bond
    number sits in the band where the resonant pair (k1, k0-k1) exists; in
    that case two windows around ell*k1 and -ell*(k1-k0) are carved out.
    """
    k = np.asarray(k, dtype=float)
    ones = np.ones_like(k)
    if j1 > 0 or j2 > 0 or not params.in_resonant_band:
        return ones if ones.ndim else 1.0
    k1 = params.require_k1()
    gap = k1 - params.k0
    out = (
        ones
        - xi_hat(1, (k - ell * k1) / gap, params.delta1)
        - xi_hat(1, (k + ell * gap) / gap, params.delta1)
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# closed-form symbols
# ---------------------------------------------------------------------------


def _check_pair(j1: int, j2: int) -> None:
    if abs(j1) not in (1, 2):
        raise ValueError(f"|j1| must be 1 or 2, got j1={j1}")
    if j2 not in (j1, -j1):
        raise ValueError(f"j2 must be +/-j1, got j1={j1}, j2={j2}")


def q_symbol(j1: int, j2: int, mu: int, k, m, params: KernelParams):
    """Closed-form quadratic interaction symbol at output k, insert m.

    The remaining wavenumber slot is l = k - m.  Only the closed-form range
    mu <= 2|j1| is served here; the residual symbols are extraction-based
    (see :func:`q_residual`).
    """
    _check_pair(j1, j2)
    if not (isinstance(mu, (int, np.integer)) and 1 <= mu <= 2 * abs(j1)):
        raise ValueError(
            f"mu={mu} has no closed form for |j1|={abs(j1)} "
            f"(valid range 1..{2 * abs(j1)})"
        )
    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    l = k - m
    b = params.b
    ik = 1j * k

    if abs(j1) == 1:
        if mu == 1:
            val = -ik if j2 == j1 else np.zeros_like(ik)
        else:  # mu == 2
            val = ik * k0_symbol(l) * k0_symbol(m) if j2 == -j1 else np.zeros_like(ik)
        val = np.asarray(val)
        return val if val.ndim else complex(val)

    sj1 = 1.0 if j1 > 0 else -1.0
    sj2 = 1.0 if j2 > 0 else -1.0
    if mu == 1:
        val = -ik if j2 == j1 else np.zeros_like(ik)
    elif mu == 2:
        val = -0.5 * sj2 * ik * k0_symbol(l) * sigma_inv(l, b) * (1j * l) * sigma_inv(m, b)
    elif mu == 3:
        val = -0.5 * b * sj2 * ik * sigma_inv(l, b) * l**2 * k0_symbol(m) * sigma_inv(m, b) * (1j * m)
    else:  # mu == 4, carries the 1/m^2 weight
        if np.any(m == 0.0):
            raise ValueError("mu=4 symbol is singular at m=0")
        val = 0.5 * sj1 * ik * (sigma(k, b) - sigma(l, b)) * sigma_inv(l, b) * l**2 / m**2
    val = np.asarray(val)
    return val if val.ndim else complex(val)


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


def first_block_symbol(j1: int, j2: int, l, m, b: float):
    """Full analytic first-block cross kernel at inserts (l, m), output l+m.

    This is the coefficient of the product of a mode at l placed in the
    u_{-1} component and a mode at m placed in component j2, read from the
    u_{j1} equation — with both slot pairings included, so it matches
    numerical extraction directly.
    """
    _check_pair(j1, j2)
    if abs(j1) != 1:
        raise ValueError("first_block_symbol serves the |j1|=1 block")
    l = np.asarray(l, dtype=float)
    m = np.asarray(m, dtype=float)
    k = l + m
    s1 = -float(np.sign(j1))
    K0 = k0_symbol
    ik2 = 0.5j * k
    a = -ik2
    bb = ik2 * K0(l) * K0(m)
    c1 = s1 * ik2 * sigma(k, b) * K0(k) * (K0(k) - K0(m)) * sigma_inv(l, b)
    d1 = -s1 * ik2 * sigma(k, b) * (1.0 + K0(k) ** 2) * sigma_inv(l, b)
    c2 = s1 * (-j2) * ik2 * sigma(k, b) * K0(k) * (K0(k) - K0(l)) * sigma_inv(m, b)
    d2 = -s1 * (-j2) * ik2 * sigma(k, b) * (1.0 + K0(k) ** 2) * sigma_inv(m, b)
    val = np.asarray(a + bb + c1 + d1 + c2 + d2)
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


def _insert(grid: Grid1D, slot: tuple[tuple[int, int], ...], f: SpectralField) -> np.ndarray:
    state = np.zeros((4, grid.n_points), dtype=np.complex128)
    ik = 1j * grid.wavenumbers
    for comp, order in slot:
        state[COMPONENT_INDEX[comp]] += (ik**order if order else 1.0) * f.coefficients
    return state


#: the second-block carrier occupies u_{-1} directly and u_{-2} through
#: two alpha-derivatives (the slaved leading-order relation)
SECOND_BLOCK_CARRIER: tuple[tuple[int, int], ...] = ((-1, 0), (-2, 2))


def equation_cross_operator(b: float, j1: int, slot_a: SlotSpec = -1,
                            slot_b: SlotSpec = -1) -> BilinearOperator:
    """Bilinear cross part of the u_{j1}-equation nonlinearity.

    ``slot_a``/``slot_b`` say where the two arguments are inserted: either a
    single component label, or a sequence of (component, derivative-order)
    pairs for composite inserts.  The returned operator works on any grid
    (equation tables are cached per grid) and is exactly bilinear, since the
    nonlinearity is homogeneous quadratic.
    """
    row = COMPONENT_INDEX[j1]
    sa = _normalize_slot(slot_a)
    sb = _normalize_slot(slot_b)

    def op(f: SpectralField, g: SpectralField) -> SpectralField:
        f._check_grid(g)
        system = _system_for(f.grid, b)
        a_state = _insert(f.grid, sa, f)
        b_state = _insert(f.grid, sb, g)
        both, a_only, b_only = system.full_nonlinear(
            np.stack([a_state + b_state, a_state, b_state]))
        cross = both - a_only - b_only
        return SpectralField.from_coefficients(f.grid, cross[row])

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
    f = SpectralField.from_mode(grid, ls)
    g = SpectralField.from_mode(grid, ms)
    out = bilinear_operator(f, g)
    value = out.coefficient_at(ls + ms)
    if check:
        fine = Grid1D(n_points=2 * grid.n_points, length=grid.length)
        f2 = SpectralField.from_mode(fine, ls)
        g2 = SpectralField.from_mode(fine, ms)
        value2 = bilinear_operator(f2, g2).coefficient_at(ls + ms)
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
    from .spectral import antiderivative, apply_multiplier, commutator_apply, derivative, multiply

    _check_pair(j1, j2)
    if not 1 <= mu <= 2 * abs(j1):
        raise ValueError(f"mu={mu} out of closed-form range for |j1|={abs(j1)}")

    def sig_arr(grid: Grid1D) -> np.ndarray:
        return sigma(grid.wavenumbers, b).astype(np.complex128)

    def sig_inv_arr(grid: Grid1D) -> np.ndarray:
        return sigma_inv(grid.wavenumbers, b).astype(np.complex128)

    def K0_arr(grid: Grid1D) -> np.ndarray:
        return k0_symbol(grid.wavenumbers)

    if abs(j1) == 1:
        if mu == 1:
            def op(psi: SpectralField, r: SpectralField) -> SpectralField:
                if j2 != j1:
                    return SpectralField.zero(psi.grid, is_real=False)
                return -derivative(multiply(psi, r))
        else:
            def op(psi: SpectralField, r: SpectralField) -> SpectralField:
                if j2 != -j1:
                    return SpectralField.zero(psi.grid, is_real=False)
                K0 = K0_arr(psi.grid)
                return derivative(multiply(apply_multiplier(K0, psi),
                                           apply_multiplier(K0, r)))
        return op

    sj1 = 1.0 if j1 > 0 else -1.0
    sj2 = 1.0 if j2 > 0 else -1.0
    if mu == 1:
        def op(psi: SpectralField, r: SpectralField) -> SpectralField:
            if j2 != j1:
                return SpectralField.zero(psi.grid, is_real=False)
            return -derivative(multiply(psi, r))
    elif mu == 2:
        def op(psi: SpectralField, r: SpectralField) -> SpectralField:
            g = psi.grid
            lhs = apply_multiplier(K0_arr(g) * sig_inv_arr(g) * (1j * g.wavenumbers), psi)
            rhs = apply_multiplier(sig_inv_arr(g), r)
            return (-sj2) * 0.5 * derivative(multiply(lhs, rhs))
    elif mu == 3:
        def op(psi: SpectralField, r: SpectralField) -> SpectralField:
            g = psi.grid
            lhs = apply_multiplier(sig_inv_arr(g) * (1j * g.wavenumbers) ** 2, psi)
            rhs = apply_multiplier(K0_arr(g) * sig_inv_arr(g) * (1j * g.wavenumbers), r)
            return (-sj2) * (-0.5 * b) * derivative(multiply(lhs, rhs))
    else:  # mu == 4
        def op(psi: SpectralField, r: SpectralField) -> SpectralField:
            g = psi.grid
            inner = commutator_apply(
                sig_arr(g),
                antiderivative(r, 2),
                apply_multiplier(sig_inv_arr(g) * (1j * g.wavenumbers) ** 2, psi),
            )
            return sj1 * 0.5 * derivative(inner)
    return op


# ---------------------------------------------------------------------------
# whole-curve extraction (comb trick) and residual symbols
# ---------------------------------------------------------------------------


def _comb_field(grid: Grid1D, skip_index: Optional[int] = None) -> SpectralField:
    """Unit coefficient on every dealiased mode; a linear-response probe."""
    c = np.where(grid.dealias_keep, 1.0 + 0.0j, 0.0j)
    if skip_index is not None:
        c[skip_index] = 0.0
    return SpectralField.from_coefficients(grid, c, is_real=False)


@lru_cache(maxsize=128)
def _curve_cached(b: float, j1: int, j2: int, jl: int, grid: Grid1D,
                  composite_carrier: bool) -> np.ndarray:
    fund = grid.fundamental
    l = jl * fund
    carrier: SlotSpec = SECOND_BLOCK_CARRIER if composite_carrier else -1
    op = equation_cross_operator(b, j1, carrier, j2)
    a = SpectralField.from_mode(grid, l)
    g = _comb_field(grid)
    out = op(a, g).coefficients.copy()
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


def _closed_second_block_on_grid(j1: int, j2: int, l: float, grid: Grid1D,
                                 params: KernelParams,
                                 mus: tuple[int, ...]) -> np.ndarray:
    """Sum of chosen closed second-block symbols along the curve m = k - l."""
    k = grid.wavenumbers
    m = k - l
    total = np.zeros(grid.n_points, dtype=np.complex128)
    safe_m = np.where(m == 0.0, 1.0, m)
    for mu in mus:
        if mu == 4:
            # the only genuinely singular closed form at m=0
            vals = np.where(m == 0.0, np.nan,
                            q_symbol(j1, j2, 4, k, safe_m, params))
        else:
            vals = np.asarray(q_symbol(j1, j2, mu, k, m, params))
        total = total + vals
    return total


@lru_cache(maxsize=128)
def _second_block_total_cached(params: KernelParams, j1: int, j2: int,
                               jl: int, grid: Grid1D) -> np.ndarray:
    l = jl * grid.fundamental
    extracted = equation_kernel_curve(params.b, j1, j2, l, grid,
                                      composite_carrier=True)
    closed = _closed_second_block_on_grid(j1, j2, l, grid, params, (1, 2, 3, 4))
    residual = extracted - closed
    # the m=0 grid point hits the 1/m^2 weight head-on, so it is replaced by
    # the mean of its two neighbours.  The residual is *not* continuous
    # there: it keeps a 1/m^2 piece, m^2 * residual -> about -i k l^2, from
    # -ik pr(dalpha^{-2} s2, u_{-2}), which the mu = 4 closed form lacks.
    # The patched value is a convention, not a limit, and n_hat reads it at
    # round(k) for the carrier-band wavenumbers.
    m_zero = np.nonzero(grid.mode_numbers == jl)[0]
    if m_zero.size:
        i = int(m_zero[0])
        left = residual[grid.mode_index(l - grid.fundamental)]
        right = residual[grid.mode_index(l + grid.fundamental)]
        residual = residual.copy()
        residual[i] = 0.5 * (left + right)
    residual.setflags(write=False)
    return residual


def second_block_residual_curve(params: KernelParams, j1: int, j2: int,
                                l: float, grid: Optional[Grid1D] = None
                                ) -> np.ndarray:
    """Operational second-block residual along m = k - l (m=0 patched)."""
    if abs(j1) != 2 or j2 not in (j1, -j1):
        raise ValueError(f"second block needs |j1|=2 and j2=+/-j1, got ({j1},{j2})")
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID
    jl = int(round(l / grid.fundamental))
    return _second_block_total_cached(params, j1, j2, jl, grid)


def second_block_total_curve(params: KernelParams, j1: int, j2: int, l: float,
                             grid: Optional[Grid1D] = None,
                             include_mu4: bool = True) -> np.ndarray:
    """Second-block kernel along m = k - l: closed forms plus the residual.

    ``include_mu4=False`` drops the 1/m^2-weighted closed symbol, which is
    what the normal-form kernels need (that term is fed the antiderivative
    argument instead).
    """
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID
    residual = second_block_residual_curve(params, j1, j2, l, grid)
    mus = (1, 2, 3, 4) if include_mu4 else (1, 2, 3)
    closed = _closed_second_block_on_grid(
        j1, j2, round(l / grid.fundamental) * grid.fundamental, grid, params, mus
    )
    return closed + residual


def q_residual(j1: int, j2: int, k: float, m: float, params: KernelParams,
               grid: Optional[Grid1D] = None) -> complex:
    """Operational residual symbol: extracted total minus closed forms.

    For the first block this is the commutator remainder; for the second
    block the leftover beyond the four closed forms.  Arguments follow the
    q_symbol convention (output k, insert m, carrier l = k - m).
    """
    _check_pair(j1, j2)
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID
    l = k - m
    if abs(j1) == 1:
        op = equation_cross_operator(params.b, j1, -1, j2)
        total = extract_kernel(op, l, m, grid=grid)
        fund = grid.fundamental
        ks = (round(l / fund) + round(m / fund)) * fund
        ms = round(m / fund) * fund
        closed = sum(
            np.asarray(q_symbol(j1, j2, mu, ks, ms, params)).item()
            for mu in (1, 2)
        )
        return total - closed
    op = equation_cross_operator(params.b, j1, SECOND_BLOCK_CARRIER, j2)
    total = extract_kernel(op, l, m, grid=grid)
    fund = grid.fundamental
    ks = (round(l / fund) + round(m / fund)) * fund
    ms = round(m / fund) * fund
    if ms == 0.0:
        raise ValueError("second-block residual undefined at the m=0 grid point")
    closed = sum(
        np.asarray(q_symbol(j1, j2, mu, ks, ms, params)).item()
        for mu in (1, 2, 3, 4)
    )
    return total - closed


# ---------------------------------------------------------------------------
# weights built on kernel ratios
# ---------------------------------------------------------------------------


def _curve_lookup(curve: np.ndarray, grid: Grid1D, k: np.ndarray) -> np.ndarray:
    idx = np.round(k / grid.fundamental).astype(int) % grid.n_points
    return curve[idx]


def rho_hat(j1: int, l: int, k, params: KernelParams,
            grid: Optional[Grid1D] = None):
    """Energy reweighting symbol for derivative order ``l``.

    Away from the two resonance windows (and always for positive component
    sign or Bond numbers without a resonant pair) the value is exactly 1;
    inside a window it carries the kernel ratio between a mode and its
    resonant partner, scaled by the partner/mode wavenumber ratio to the
    power 2l.
    """
    if not (isinstance(l, (int, np.integer)) and l >= 0):
        raise ValueError(f"derivative order l must be a nonnegative integer, got {l}")
    scalar = np.ndim(k) == 0
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if j1 > 0 or not params.in_resonant_band:
        return 1.0 if scalar else np.ones_like(k_arr)
    k1 = params.require_k1()
    k0 = params.k0
    gap = k1 - k0
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID

    def q_total(kv: np.ndarray, lv: float, mv: np.ndarray) -> np.ndarray:
        if abs(j1) == 1:
            return np.asarray(first_block_symbol(j1, j1, lv, mv, params.b))
        curve = second_block_total_curve(params, j1, j1, lv, grid)
        return _curve_lookup(curve, grid, kv)

    out = np.ones_like(k_arr)
    for ell in (-1, 1):
        window = np.atleast_1d(
            np.asarray(xi_hat(1, (k_arr + ell * gap) / gap, params.delta1))
        )
        active = window > 0.0
        if not np.any(active):
            continue
        ka = k_arr[active]
        num = q_total(-ka + ell * k0, ell * k0, -ka)
        den = q_total(ka, ell * k0, ka - ell * k0)
        ratio = (-num / den).real * ((-ka + ell * k0) / ka) ** (2 * l)
        out[active] += (ratio - 1.0) * window[active]
    return float(out[0]) if scalar else out


def rho_extremes(j1: int, l: int, params: KernelParams,
                 grid: Optional[Grid1D] = None,
                 n_samples: int = 4001) -> tuple[float, float]:
    """Measured (min, max) of rho_hat over the windows where it varies."""
    k1 = params.require_k1()
    gap = k1 - params.k0
    pieces = []
    for ell in (-1, 1):
        center = -ell * gap
        ks = np.linspace(center - gap, center + gap, n_samples)
        pieces.append(np.asarray(rho_hat(j1, l, ks, params, grid)))
    allv = np.concatenate(pieces)
    allv = allv[np.isfinite(allv)]
    return float(np.min(allv)), float(np.max(allv))


# ---------------------------------------------------------------------------
# normal-form kernels
# ---------------------------------------------------------------------------


def _r_denominator(j1: int, j2: int, k: np.ndarray, l: float, b: float) -> np.ndarray:
    s1 = 1.0 if j1 > 0 else -1.0
    s2 = 1.0 if j2 > 0 else -1.0
    return 1j * (s1 * omega(k, b) + omega(np.full_like(k, l), b) - s2 * omega(k - l, b))


def n_hat(j1: int, j2: int, ell: int, j: int, k, params: KernelParams,
          grid: Optional[Grid1D] = None):
    """Normal-form kernel: windowed interaction symbol over the resonance
    denominator, evaluated at (k, ell*k0, k - ell*k0).

    ``j`` selects which bilinear slot the kernel feeds: 1 for the plain
    argument, 2 for the antiderivative argument (second block only, where
    the 1/m^2-weighted symbol is rewritten onto the antiderivative).

    Removable 0/0 points (k = 0 and k = ell*k0) are evaluated a nudge away;
    any surviving large value signals a genuinely resonant parameter set and
    raises.
    """
    _check_pair(j1, j2)
    if ell not in (-1, 1):
        raise ValueError(f"ell must be +/-1, got {ell}")
    if j not in (1, 2):
        raise ValueError(f"slot index j must be 1 or 2, got {j}")
    if j == 2 and abs(j1) != 2:
        raise ValueError("the antiderivative-slot kernel exists only for the second block")
    if grid is None:
        grid = DEFAULT_EXTRACTION_GRID

    scalar = np.ndim(k) == 0
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    b, k0, eps, d0 = params.b, params.k0, params.eps, params.delta0
    l = ell * k0

    r0 = _r_denominator(j1, j2, k_arr, l, b)
    # nudge direction follows the carrier sign so that the exact conjugation
    # symmetry between (k, ell) and (-k, -ell) survives the regularization
    kn = np.where(np.abs(r0) < _RESONANT_EPS, k_arr + ell * _NUDGE, k_arr)
    r = _r_denominator(j1, j2, kn, l, b)

    bracket = (
        np.asarray(zeta_hat(j1, j2, ell, kn, params))
        * (theta_hat(kn - l, eps, d0) - eps * np.asarray(xi_hat(0, kn - l, d0)))
        / theta_hat(kn, eps, d0)
    )

    if abs(j1) == 1:
        qv = np.asarray(first_block_symbol(j1, j2, l, kn - l, b))
    elif j == 1:
        m = kn - l
        closed = (
            np.asarray(q_symbol(j1, j2, 1, kn, m, params))
            + np.asarray(q_symbol(j1, j2, 2, kn, m, params))
            + np.asarray(q_symbol(j1, j2, 3, kn, m, params))
        )
        residual = second_block_residual_curve(params, j1, j2, l, grid)
        qv = closed + _curve_lookup(residual, grid, k_arr)
    else:
        m = kn - l
        safe_m = np.where(m == 0.0, 1.0, m)
        qv = 1j * m * np.asarray(q_symbol(j1, j2, 4, kn, safe_m, params))

    out = qv / r * bracket
    bad = ~np.isfinite(out) | (np.abs(out) > 1e10 / params.eps)
    if np.any(bad):
        where = k_arr[bad][:5]
        raise ValueError(
            f"non-removable resonance in the kernel denominator near k={where}; "
            f"the (k0={k0}, b={b}) pair lies outside the admissible region"
        )
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# constructive parameter choices
# ---------------------------------------------------------------------------


def delta0_for(k0: float, b: float, margin: float = 0.1) -> float:
    """Largest delta0 <= k0/20 with verified linear lower bounds on r.

    Three windows are scanned: around the removable zeros of the diagonal
    resonance function at 0 and k0 (where |r| must stay above ``margin``
    times the limiting slope |omega'(k0)-1| times the distance), and around
    k = 0 for the sign combinations whose denominators do not vanish (where
    |r| must stay above ``margin`` times its k=0 limit).
    """
    slope = abs(float(omega_deriv(k0, b, 1)) - 1.0)
    if slope < 1e-12:
        raise ValueError(
            f"group-velocity degeneracy at (k0={k0}, b={b}): no linear margin exists"
        )

    combos = [(j1, j2, ell) for j1 in (-1, 1) for j2 in (-1, 1) for ell in (-1, 1)]
    limits = {}
    for j1, j2, ell in combos:
        r0 = abs(complex(_r_denominator(j1, j2, np.array([0.0]), ell * k0, b)[0]))
        if r0 > 1e-9:
            limits[(j1, j2, ell)] = r0

    delta = k0 / 20.0 * 0.999
    while delta > 1e-6 * k0:
        kk = np.linspace(1e-9, delta, 400)
        ok = np.all(np.abs(r_hat(kk, b, k0)) >= margin * slope * kk)
        ok &= np.all(np.abs(r_hat(-kk, b, k0)) >= margin * slope * kk)
        ok &= np.all(np.abs(r_hat(k0 + kk, b, k0)) >= margin * slope * kk)
        ok &= np.all(np.abs(r_hat(k0 - kk, b, k0)) >= margin * slope * kk)
        if ok:
            window = np.linspace(-delta, delta, 401)
            for (j1, j2, ell), r0 in limits.items():
                vals = np.abs(_r_denominator(j1, j2, window, ell * k0, b))
                if np.min(vals) < margin * r0:
                    ok = False
                    break
        if ok:
            return float(delta)
        delta *= 0.9
    raise ValueError(f"no admissible delta0 found for (k0={k0}, b={b})")


def delta1_for(k0: float, k1: float) -> float:
    """Admissible window half-width parameter for the resonant-pair cutoffs."""
    bound = 1.0 - k0 / (20.0 * (k1 - k0))
    if bound <= 0.055:
        raise ValueError(
            f"k1={k1} sits too close to k0={k0}: admissibility bound {bound:.4g}"
        )
    return max(min(0.9 * bound, 0.9), 0.05)


def default_params(k0: float, b: float, eps: float = 0.1) -> KernelParams:
    """Constructive parameter set for one (k0, b): scans delta0, fills k1/delta1."""
    bonds = critical_bonds(k0)
    k1 = k1_of_b(k0, b) if 0.0 < b < bonds.b0 else None
    delta1 = delta1_for(k0, k1) if k1 is not None else 0.5
    return KernelParams(eps=eps, delta0=delta0_for(k0, b), delta1=delta1,
                        b=b, k0=k0, k1=k1)
