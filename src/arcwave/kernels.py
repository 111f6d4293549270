"""Cut-off weights, closed-form quadratic symbols and the normal-form kernels.

Every bilinear interaction coefficient used in production is a closed-form
symbol evaluated from analytic formulas in the wavenumbers:

* ``q_symbol``: the principal parts of each block;
* ``first_block_symbol``: the full first-block cross kernel;
* ``second_block_symbol``: the full second-block cross kernel, composite
  carrier included.

The triad coefficients of :func:`arcwave.resonance.stability`, the
normal-form kernels ``n_hat`` and the reweighting ``rho_hat`` all evaluate
these symbols.  The tests check them
against an independent route: extraction from
:class:`arcwave.equations.TruncatedSystem` on a grid, kept in the test
suite's ``kernel_oracle`` module, and mpmath values from
``scripts/derive_kernel_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dispersion import k0_symbol, omega, omega_deriv, sigma, sigma_inv
from .resonance import critical_bonds, k1_of_b

__all__ = [
    "KernelParams",
    "theta_hat",
    "theta_inv_hat",
    "xi_hat",
    "zeta_hat",
    "q_symbol",
    "first_block_symbol",
    "second_block_symbol",
    "rho_hat",
    "n_hat",
    "n_hat_table",
    "delta0_for",
    "delta1_for",
    "default_params",
]

#: |r| below this counts as a removable zero of a kernel denominator
_RESONANT_EPS = 1e-9
#: wavenumber nudge used to step off removable singular points
_NUDGE = 1e-6


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelParams:
    """Weight/cut-off parameters for one (k0, b, eps) configuration.

    Built from (k0, b, eps) alone; the rest is derived here, by the
    constructive choices below: delta0 by ``delta0_for``, and, when b lies
    in the resonant band (0, b0) where it exists, the resonant partner
    wavenumber k1 by ``k1_of_b`` and delta1 by ``delta1_for``.  Outside the
    band k1 is None and delta1 is 0.5.  Equality and hashing read (k0, b,
    eps), which fix the rest.
    """

    k0: float
    b: float
    eps: float
    delta0: float = field(init=False, compare=False)
    delta1: float = field(init=False, compare=False)
    k1: Optional[float] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if not (self.k0 > 0.0):
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.b < 0.0:
            raise ValueError(f"Bond number must be nonnegative, got {self.b}")
        k1 = k1_of_b(self.k0, self.b) if 0.0 < self.b < critical_bonds(self.k0).b0 else None
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "delta1", delta1_for(self.k0, k1) if k1 is not None else 0.5)
        object.__setattr__(self, "delta0", delta0_for(self.k0, self.b))

    @property
    def in_resonant_band(self) -> bool:
        """True when the Bond number admits the resonant partner k1."""
        return self.k1 is not None


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


def xi_hat(k, delta: float):
    """Smooth even cutoff: 1 on |k| <= delta/2, 0 on |k| >= delta.

    The paper's two cutoffs share this profile; only the scale ``delta``
    (delta0 or delta1) tells them apart.
    """
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
    ``ell`` is one carrier sign, or an array of them, one per k.
    """
    k = np.asarray(k, dtype=float)
    ones = np.ones_like(k)
    if j1 > 0 or j2 > 0 or not params.in_resonant_band:
        return ones if ones.ndim else 1.0
    k1 = params.k1
    gap = k1 - params.k0
    out = (
        ones
        - xi_hat((k - ell * k1) / gap, params.delta1)
        - xi_hat((k + ell * gap) / gap, params.delta1)
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

    The remaining wavenumber slot is l = k - m.  The principal parts are
    mu <= 2|j1|; what the full kernels add beyond them is the difference
    between :func:`first_block_symbol` or :func:`second_block_symbol` and
    their sum.
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


def first_block_symbol(j1: int, j2: int, l, m, b: float):
    """Full analytic first-block cross kernel at inserts (l, m), output l+m.

    This is the coefficient of the product of a mode at l placed in the
    u_{-1} component and a mode at m placed in component j2, read from the
    u_{j1} equation — with both slot pairings included, so it matches
    numerical extraction directly.

    Two scalar inserts (Python or numpy floats, or ints) stay floats, so the
    symbols take the ``math`` route of :mod:`arcwave.dispersion` and the
    result is a complex; anything else is evaluated on arrays.
    """
    _check_pair(j1, j2)
    if abs(j1) != 1:
        raise ValueError("first_block_symbol serves the |j1|=1 block")
    if isinstance(l, (float, int)) and isinstance(m, (float, int)):
        l, m = float(l), float(m)
    else:
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
    val = a + bb + c1 + d1 + c2 + d2
    return complex(val) if np.ndim(val) == 0 else val


def second_block_symbol(j1: int, j2: int, l, m, b: float):
    """Full analytic second-block cross kernel at inserts (l, m), output l+m.

    This is the coefficient of the product of a composite carrier mode at l
    and a mode at m placed in component j2, read from the u_{j1} equation,
    with both slot pairings included.  The carrier occupies u_{-1} directly
    and u_{-2} through two alpha-derivatives (the slaved leading-order
    relation u_{-2} = dalpha^2 u_{-1}).

    Every second-block term of the equations is a product pr(f, g) of two
    multiplied fields under an output multiplier; the u_{-/+2} equation is
    E2 -/+ X2 with

        E2 = (ik/2) [pr(K0 da^-1 sigma^-1 d2, sigma^-1 d2) - pr(da^-2 s2, s2)
                     - pr(da^-1 s2, da^-1 s2) + pr(K0 da^-1 s2, K0 da^-1 s2)
                     - b pr(sigma^-1 d2, K0 da sigma^-1 d2)]
        X2 = (ik/2) sigma [pr(da^-2 s2, sigma^-1 d2) + pr(da^-1 sigma^-1 d2, da^-1 s2)
                           + ik pr(sigma^-1 d1, da^-1 s2)
                           + K0 pr(da^-1 sigma^-1 d2, K0 da^-1 s2)
                           + ik K0 pr(sigma^-1 d1, K0 da^-1 s2)],

    s = u_- + u_+ and d = u_- - u_+ per block, da = dalpha.  The symbol of
    pr(f, g) is f(l) g(m) + f(m) g(l).  Antiderivatives follow the
    equations' zero-mode convention, 1/(im) := 0 at m = 0, so the value
    there is what the equations compute, not a limit.
    """
    _check_pair(j1, j2)
    if abs(j1) != 2:
        raise ValueError("second_block_symbol serves the |j1|=2 block")
    e2, x2 = _second_block_parts(j2, l, m, b)
    val = np.asarray(e2 + (1.0 if j1 > 0 else -1.0) * x2)
    return val if val.ndim else complex(val)


def _second_block_parts(j2: int, l, m, b: float):
    """E2 and X2 of ``second_block_symbol``, which is E2 + sign(j1) X2."""
    l = np.asarray(l, dtype=float)
    m = np.asarray(m, dtype=float)
    k = l + m
    ik = 1j * k
    tau = 1.0 if j2 < 0 else -1.0          # d2 of the insert
    Kl, Km = k0_symbol(l), k0_symbol(m)
    sl, sm = sigma_inv(l, b), sigma_inv(m, b)
    il = 1j * l
    inv_im = np.where(m == 0.0, 0.0, 1.0 / (1j * np.where(m == 0.0, 1.0, m)))

    # each field as (value on the carrier at l, value on the insert at m);
    # the carrier has s1 = d1 = 1 and s2 = d2 = -l^2, the insert s2 = 1, d2 = tau
    s2 = (-l**2, 1.0)
    sid1 = (sl, 0.0)
    sid2 = (-l**2 * sl, tau * sm)
    ia2s2 = (np.where(l == 0.0, 0.0, 1.0), inv_im**2)
    ia1s2 = (il, inv_im)
    K0ia1s2 = (Kl * il, Km * inv_im)
    iasid2 = (il * sl, tau * inv_im * sm)
    K0iasid2 = (Kl * il * sl, tau * Km * inv_im * sm)
    K0sid2a = (-l**2 * Kl * il * sl, tau * Km * 1j * m * sm)

    def pr(f, g):
        return f[0] * g[1] + f[1] * g[0]

    e2 = 0.5 * ik * (pr(K0iasid2, sid2) - pr(ia2s2, s2) - pr(ia1s2, ia1s2)
                     + pr(K0ia1s2, K0ia1s2) - b * pr(sid2, K0sid2a))
    x2 = 0.5 * ik * sigma(k, b) * (
        pr(ia2s2, sid2) + pr(iasid2, ia1s2) + ik * pr(sid1, ia1s2)
        + k0_symbol(k) * (pr(iasid2, K0ia1s2) + ik * pr(sid1, K0ia1s2)))
    return e2, x2


# ---------------------------------------------------------------------------
# weights built on kernel ratios
# ---------------------------------------------------------------------------


def _lattice(k):
    """Round wavenumbers to the integer lattice.

    The second-block weights read ``second_block_symbol`` at integer k and
    l only: the spacing of the 2*pi-periodic extraction grid those weights
    were first read from.  Evaluating at the exact k is a correctness
    change, not a refactor: next to the carrier the second-block kernels
    then grow like 1/|k - l| or faster (see the FOUND line on exact-k
    weights in CHANGES.md).
    """
    return np.round(np.asarray(k, dtype=float))


def _on_lattice(k, f):
    """f at the lattice-rounded k, evaluated once per distinct lattice point.

    f must act elementwise along its last axis, so this is bitwise
    f(_lattice(k)); a grid of spacing below 1 maps to far fewer lattice
    points than it has.
    """
    kr, where = np.unique(_lattice(k), return_inverse=True)
    return f(kr)[..., where.reshape(-1)]


def _second_block_residuals(j1s: tuple[int, ...], j2: int, k: np.ndarray, l: float,
                            params: KernelParams) -> np.ndarray:
    """``second_block_symbol`` minus the four closed forms, on the lattice,
    one row per j1 of ``j1s``.

    The rows share what does not depend on the sign of j1: E2 and X2 of the
    symbol and the mu = 2, 3 closed forms.  At m = 0 the value is the mean
    of the m = +-1 neighbours.  That is a convention, not a limit: the
    residual keeps a 1/m^2 piece, m^2 * residual -> about -i k l^2 for
    j1 = -2, which the mu = 4 closed form lacks (see the FOUND line on the
    second-block m = 0 patch in CHANGES.md).
    """
    lr = float(_lattice(l))

    def residuals(kr: np.ndarray) -> np.ndarray:
        m = kr - lr
        safe_m = np.where(m == 0.0, 1.0, m)
        e2, x2 = _second_block_parts(j2, lr, m, params.b)
        q2, q3 = (np.asarray(q_symbol(j2, j2, mu, kr, safe_m, params)) for mu in (2, 3))
        rows = []
        for j1 in j1s:
            closed = sum([np.asarray(q_symbol(j1, j2, 1, kr, safe_m, params)), q2, q3,
                          np.asarray(q_symbol(j1, j2, 4, kr, safe_m, params))])
            rows.append(np.asarray(e2 + (1.0 if j1 > 0 else -1.0) * x2) - closed)
        return np.array(rows)

    def patched(kr: np.ndarray) -> np.ndarray:
        res = residuals(np.append(kr, [lr - 1.0, lr + 1.0]))
        # the m = 0 patch: the mean of the residual at m = -1 and m = +1
        return np.where(kr == lr, 0.5 * (res[:, -2:-1] + res[:, -1:]), res[:, :-2])

    return _on_lattice(k, patched)


def rho_hat(j1: int, l: int, k, params: KernelParams):
    """Energy reweighting symbol for derivative order ``l``.

    Away from the two resonance windows (and always for positive component
    sign or Bond numbers without a resonant pair) the value is exactly 1;
    inside a window it carries the kernel ratio between a mode and its
    resonant partner, scaled by the partner/mode wavenumber ratio to the
    power 2l.  A value that is not finite raises, naming b, (j1, l) and the
    |k| range where it occurs, rather than being returned.
    """
    if not (isinstance(l, (int, np.integer)) and l >= 0):
        raise ValueError(f"derivative order l must be a nonnegative integer, got {l}")
    scalar = np.ndim(k) == 0
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if j1 > 0 or not params.in_resonant_band:
        return 1.0 if scalar else np.ones_like(k_arr)
    k0 = params.k0
    gap = params.k1 - k0

    def q_total(kv: np.ndarray, lv: float, mv: np.ndarray) -> np.ndarray:
        if abs(j1) == 1:
            return np.asarray(first_block_symbol(j1, j1, lv, mv, params.b))
        lr = _lattice(lv)
        return _on_lattice(kv, lambda kr: np.asarray(
            second_block_symbol(j1, j1, lr, kr - lr, params.b)))

    out = np.ones_like(k_arr)
    for ell in (-1, 1):
        window = np.atleast_1d(
            np.asarray(xi_hat((k_arr + ell * gap) / gap, params.delta1))
        )
        active = window > 0.0
        if not np.any(active):
            continue
        ka = k_arr[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            # the kernel at the partner and at the mode, in one evaluation
            num, den = np.split(q_total(np.concatenate([-ka + ell * k0, ka]), ell * k0,
                                        np.concatenate([-ka, ka - ell * k0])), 2)
            ratio = (-num / den).real * ((-ka + ell * k0) / ka) ** (2 * l)
        out[active] += (ratio - 1.0) * window[active]
    bad = np.abs(k_arr[~np.isfinite(out)])
    if bad.size:
        raise ValueError(
            f"rho_hat at b={params.b}, (j1, l)=({j1}, {l}) is not finite for "
            f"{bad.min():.6g} <= |k| <= {bad.max():.6g}: the lattice-rounded "
            f"second-block kernel divides 0/0 there (ROADMAP item 4, exact-k "
            f"weights)")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# normal-form kernels
# ---------------------------------------------------------------------------


def n_hat(j1: int, j2: int, ell: int, j: int, k, params: KernelParams):
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

    scalar = np.ndim(k) == 0
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    out = _n_hat_slots((j1,), (j2,), (ell,), (j,), k_arr, params)[0, 0, 0, 0]
    return complex(out[0]) if scalar else out


def n_hat_table(k, params: KernelParams) -> np.ndarray:
    """The second-block kernels ``n_hat`` on one 1-D array of wavenumbers.

    Returns n_hat(j1, j2, ell, j, k, params) as a (2, 2, 2, 2, len(k))
    array indexed j1, j2 in (-2, 2), ell in (-1, 1), j in (1, 2), bytewise
    the 16 separate calls, from shared evaluations (``_n_hat_slots``).
    """
    return _n_hat_slots((-2, 2), (-2, 2), (-1, 1), (1, 2), np.asarray(k, dtype=float),
                        params)


def _n_hat_slots(j1s: tuple[int, ...], j2s: tuple[int, ...], ells: tuple[int, ...],
                 slots: tuple[int, ...], k: np.ndarray, params: KernelParams) -> np.ndarray:
    """``n_hat`` at every (j1, j2, ell, j) of ``j1s`` x ``j2s`` x ``ells`` x
    ``slots`` on the 1-D array k, as a (len(j1s), len(j2s), len(ells),
    len(slots), len(k)) array; all j1 and j2 share one |j1|.

    omega is evaluated on the grid once, and the ells at once, on k repeated
    once per ell with the carrier wavenumber l = ell*k0 per point.  Per
    (j1, j2) the slots share the denominator r, the nudged wavenumbers and
    the window bracket, and per j2 the j1 share the lattice residual
    (``_second_block_residuals``).  r = i(s1 omega(k) + omega(l) - s2 omega(m)),
    s1 and s2 the signs of j1 and j2, is formed from the shared omega
    values, with omega evaluated afresh only where k is nudged.  Every step
    acts elementwise (omega(l) and the lattice residual take l as a scalar,
    one ell at a time), so each value is bitwise that of evaluating one
    (j1, j2, ell, slot) alone.
    """
    b, k0, eps, d0 = params.b, params.k0, params.eps, params.delta0
    n = k.size
    ell = np.repeat(ells, n)
    l = ell * k0
    kk = np.tile(k, len(ells))
    w_k = np.tile(omega(k, b), len(ells))
    w_m = omega(kk - l, b)
    w_l = np.repeat([omega(e * k0, b) for e in ells], n)

    table = np.empty((len(j1s), len(j2s), len(ells), len(slots), n), dtype=complex)
    for c, j2 in enumerate(j2s):
        s2 = 1.0 if j2 > 0 else -1.0
        if abs(j2) == 2 and 1 in slots:
            residual = np.concatenate([_second_block_residuals(j1s, j2, k, e * k0, params)
                                       for e in ells], axis=1)
        for a, j1 in enumerate(j1s):
            s1 = 1.0 if j1 > 0 else -1.0
            r0 = 1j * (s1 * w_k + w_l - s2 * w_m)
            # nudge direction follows the carrier sign so that the exact conjugation
            # symmetry between (k, ell) and (-k, -ell) survives the regularization
            nudged = np.abs(r0) < _RESONANT_EPS
            kn = np.where(nudged, kk + ell * _NUDGE, kk)
            w_kn, w_mn = w_k, w_m
            if nudged.any():
                w_kn, w_mn = w_k.copy(), w_m.copy()
                w_kn[nudged] = omega(kn[nudged], b)
                w_mn[nudged] = omega(kn[nudged] - l[nudged], b)
            r = 1j * (s1 * w_kn + w_l - s2 * w_mn)
            m = kn - l

            bracket = (
                np.asarray(zeta_hat(j1, j2, ell, kn, params))
                * (theta_hat(m, eps, d0) - eps * np.asarray(xi_hat(m, d0)))
                / theta_hat(kn, eps, d0)
            )

            for s, j in enumerate(slots):
                if abs(j1) == 1:
                    qv = np.concatenate([np.asarray(first_block_symbol(j1, j2, e * k0, m_e, b))
                                         for e, m_e in zip(ells, np.split(m, len(ells)))])
                elif j == 1:
                    closed = (
                        np.asarray(q_symbol(j1, j2, 1, kn, m, params))
                        + np.asarray(q_symbol(j1, j2, 2, kn, m, params))
                        + np.asarray(q_symbol(j1, j2, 3, kn, m, params))
                    )
                    qv = closed + residual[a]
                else:
                    safe_m = np.where(m == 0.0, 1.0, m)
                    qv = 1j * m * np.asarray(q_symbol(j1, j2, 4, kn, safe_m, params))

                value = qv / r * bracket
                bad = ~np.isfinite(value) | (np.abs(value) > 1e10 / params.eps)
                if np.any(bad):
                    where = kk[bad][:5]
                    raise ValueError(
                        f"non-removable resonance in the kernel denominator near k={where}; "
                        f"the (k0={k0}, b={b}) pair lies outside the admissible region"
                    )
                table[a, c, :, s] = value.reshape(len(ells), n)
    return table


# ---------------------------------------------------------------------------
# constructive parameter choices
# ---------------------------------------------------------------------------


def delta0_for(k0: float, b: float) -> float:
    """Largest candidate delta0 = k0/20 * 0.999 * 0.9^i, i = 0, 1, ..., around
    whose removable zeros at 0 and k0 the diagonal resonance function r_hat
    stays above a tenth of its limiting slope |omega'(k0) - 1| times the
    distance, on 400 points to each side.

    omega is odd bit for bit, so r_hat on the four windows kk, -kk, k0 + kk
    and k0 - kk needs omega on kk, k0 + kk and k0 - kk only: each candidate
    evaluates omega once, on those 1200 points stacked, and the windows at
    kk and k0 - kk (likewise -kk and k0 + kk) share their r_hat values.
    Raises ValueError at a group-velocity degeneracy omega'(k0) = 1, where
    no linear margin exists, and when no candidate above 1e-6 k0 passes.
    """
    slope = abs(float(omega_deriv(k0, b, 1)) - 1.0)
    if slope < 1e-12:
        raise ValueError(
            f"group-velocity degeneracy at (k0={k0}, b={b}): no linear margin exists"
        )

    w0 = omega(k0, b)
    delta = k0 / 20.0 * 0.999
    while delta > 1e-6 * k0:
        kk = np.linspace(1e-9, delta, 400)
        w_kk, w_plus, w_minus = omega(np.concatenate([kk, k0 + kk, k0 - kk]), b).reshape(3, -1)
        # r_hat at kk and at k0 - kk, then at -kk and at k0 + kk
        r = np.array([w_kk + w_minus, w_plus - w_kk]) - w0
        if np.all(np.abs(r) >= 0.1 * slope * kk):
            return float(delta)
        delta *= 0.9
    raise ValueError(f"no admissible delta0 found for (k0={k0}, b={b})")


def delta1_for(k0: float, k1: float) -> float:
    """Admissible window half-width parameter for the resonant-pair cutoffs.

    Raises when the admissibility bound 1 - k0/(20(k1 - k0)) is 0.055 or
    less, i.e. k1 - k0 <= k0/18.9: at k0 = 2 that is every b in
    (0.21990, b0 = 0.22408), so ``KernelParams`` refuses there although k1
    exists.
    """
    bound = 1.0 - k0 / (20.0 * (k1 - k0))
    if bound <= 0.055:
        raise ValueError(
            f"k1={k1} sits too close to k0={k0}: admissibility bound {bound:.4g}"
        )
    return max(min(0.9 * bound, 0.9), 0.05)


def default_params(k0: float, b: float, eps: float = 0.1) -> KernelParams:
    """Constructive parameter set for one (k0, b): ``KernelParams(k0, b, eps)``."""
    return KernelParams(k0, b, eps)
