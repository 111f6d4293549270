"""Kernel symbols, grid extraction, weights, and the normal-form multipliers.

The closed-form symbols are checked against two independent routes:
extraction from the evolution equations on a grid (``kernel_oracle``, most
tests here, at randomly drawn integer mode pairs) and frozen mpmath values
from ``scripts/derive_kernel_oracles.py``.
"""

import concurrent.futures
import random

import numpy as np
import pytest

from arcwave import sim
from arcwave.dispersion import k0_symbol, omega, omega_deriv, sigma_inv
from arcwave.equations import TruncatedSystem
from arcwave.kernels import (
    KernelParams,
    default_params,
    delta0_for,
    delta1_for,
    first_block_symbol,
    n_hat,
    q_symbol,
    rho_hat,
    second_block_symbol,
    theta_hat,
    theta_inv_hat,
    xi_hat,
    zeta_hat,
)
from arcwave.resonance import critical_bonds, find_zeros, k1_of_b, stability
from arcwave.spectral import Grid1D
from fourier import mode_index
from kernel_oracle import (
    DEFAULT_EXTRACTION_GRID,
    SECOND_BLOCK_CARRIER,
    delta0_per_combo,
    equation_cross_operator,
    equation_kernel_curve,
    extract_kernel,
    q13_closed,
    q_term_operator,
    rho_extremes,
)
from resonance_oracle import BOND_SWEEP_ANCHORS, record_q_arrays

K0 = 2.0
PARAMS_BAND = default_params(K0, 0.1)       # k1 ~ 4.3, resonant band active
PARAMS_QUIET = default_params(K0, 0.3)      # no resonant partner
PARAMS_ZERO_B = default_params(K0, 0.0)

PAIRS = [(-1, -1), (-1, 1), (1, -1), (1, 1), (-2, -2), (-2, 2), (2, -2), (2, 2)]


def close_mixed(a, b, rel=1e-8, abs_=1e-12):
    """Mixed tolerance: kernels decay exponentially off-diagonal, so tiny
    values are compared absolutely."""
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


def test_theta_hat_profile():
    eps, d0 = 0.1, 0.09
    assert theta_hat(0.0, eps, d0) == pytest.approx(eps)
    assert theta_hat(d0 / 2, eps, d0) == pytest.approx(eps + (1 - eps) / 2)
    assert theta_hat(5.0, eps, d0) == 1.0
    assert theta_hat(-5.0, eps, d0) == 1.0
    k = np.linspace(-1, 1, 501)
    prod = theta_hat(k, eps, d0) * theta_inv_hat(k, eps, d0)
    assert np.max(np.abs(prod - 1.0)) < 1e-14


def test_theta_inv_peak_is_one_over_eps():
    eps = 0.05
    k = np.linspace(-0.2, 0.2, 2001)
    vals = theta_inv_hat(k, eps, 0.09)
    assert np.max(vals) == pytest.approx(1 / eps)


@pytest.mark.parametrize("i", [0, 1])
def test_xi_hat_plateau_and_support(i):
    # the paper's two cutoffs: i = 0 at scale delta0, i = 1 at scale delta1
    delta = (PARAMS_BAND.delta0, PARAMS_BAND.delta1)[i]
    k = np.linspace(-1, 1, 2001)
    v = xi_hat(k, delta)
    assert np.all(v[np.abs(k) <= delta / 2] == 1.0)
    assert np.all(v[np.abs(k) >= delta] == 0.0)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.array_equal(v, xi_hat(-k, delta))  # even


def test_xi_hat_is_smooth_at_the_plateau_edge():
    # exp-bump construction: all one-sided differences decay smoothly
    delta = 0.4
    h = np.linspace(delta / 2, delta, 4001)
    v = xi_hat(h, delta)
    assert np.all(np.diff(v) <= 1e-15)  # monotone down
    # no jump at either end of the transition
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    assert v[-1] == pytest.approx(0.0, abs=1e-12)


def test_xi_hat_rejects_bad_arguments():
    with pytest.raises(ValueError):
        xi_hat(0.1, 0.0)


def test_zeta_hat_trivial_unless_both_negative_in_band():
    k = np.linspace(-10, 10, 101)
    for (j1, j2) in PAIRS:
        if j1 < 0 and j2 < 0:
            continue
        assert np.all(zeta_hat(j1, j2, 1, k, PARAMS_BAND) == 1.0)
    # outside the resonant band even the (-,-) pair is untouched
    assert np.all(zeta_hat(-1, -1, 1, k, PARAMS_QUIET) == 1.0)


def test_zeta_hat_excises_resonant_neighborhoods():
    p = PARAMS_BAND
    k1 = p.k1
    gap = k1 - p.k0
    z = zeta_hat(-1, -1, 1, np.array([k1, -gap, 0.0]), p)
    assert z[0] == pytest.approx(0.0, abs=1e-12)
    assert z[1] == pytest.approx(0.0, abs=1e-12)
    assert z[2] == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# closed-form symbols
# --------------------------------------------------------------------------


def test_q_symbol_transport_term():
    # diagonal transport: plain -ik for matching signs, zero otherwise
    assert q_symbol(-1, -1, 1, 3.0, 1.0, PARAMS_BAND) == pytest.approx(-3j)
    assert q_symbol(-1, 1, 1, 3.0, 1.0, PARAMS_BAND) == 0.0
    assert q_symbol(2, 2, 1, -4.0, 1.5, PARAMS_BAND) == pytest.approx(4j)


def test_q_symbol_capillary_term_formula():
    j1, j2, k, m, b = -2, 2, 2.7, 0.8, 0.1
    p = default_params(K0, b)
    lk = k - m
    expected = (-(b / 2) * np.sign(j2) * 1j * k * sigma_inv(lk, b) * lk**2
                * k0_symbol(m) * sigma_inv(m, b) * 1j * m)
    assert q_symbol(j1, j2, 3, k, m, p) == pytest.approx(expected, rel=1e-13)


def test_q_symbol_odd_in_all_wavenumbers():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k, m = rng.uniform(-8, 8, size=2)
        for (j1, j2) in [(-2, -2), (-2, 2), (2, -2), (2, 2)]:
            for mu in (1, 2, 3, 4):
                if mu == 4 and m == 0:
                    continue
                a = q_symbol(j1, j2, mu, k, m, PARAMS_BAND)
                c = q_symbol(j1, j2, mu, -k, -m, PARAMS_BAND)
                assert abs(a + c) < 1e-12 * max(1.0, abs(a))


def test_q_symbol_odd_under_sign_swap():
    for mu in (1, 2, 3, 4):
        a = q_symbol(-2, 2, mu, 3.3, 1.1, PARAMS_BAND)
        c = q_symbol(2, -2, mu, 3.3, 1.1, PARAMS_BAND)
        assert abs(a + c) < 1e-12 * max(1.0, abs(a))


def test_q_symbol_purely_imaginary():
    vals = [q_symbol(-2, -2, mu, 2.4, -1.7, PARAMS_BAND) for mu in (1, 2, 3, 4)]
    for v in vals:
        assert abs(np.real(v)) < 1e-14 * max(1.0, abs(v))


def test_q_symbol_error_branches():
    with pytest.raises(ValueError):
        q_symbol(-1, -1, 3, 2.0, 1.0, PARAMS_BAND)   # block |1| has mu <= 2
    with pytest.raises(ValueError):
        q_symbol(-2, -2, 5, 2.0, 1.0, PARAMS_BAND)
    with pytest.raises(ValueError):
        q_symbol(-2, -2, 4, 2.0, 0.0, PARAMS_BAND)   # antiderivative slot at m=0
    with pytest.raises(ValueError):
        q_symbol(-3, -3, 1, 2.0, 1.0, PARAMS_BAND)


# --------------------------------------------------------------------------
# extraction vs closed forms
# --------------------------------------------------------------------------


def test_first_block_extraction_matches_analytic_symbol():
    rng = np.random.default_rng(19)
    b = 0.1
    for (j1, j2) in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
        op = equation_cross_operator(b, j1, slot_a=-1, slot_b=j2)
        for _ in range(8):
            l, m = rng.integers(-40, 40, size=2)
            if l == 0 or m == 0 or l + m == 0:
                continue
            got = extract_kernel(op, float(l), float(m))
            want = first_block_symbol(j1, j2, float(l), float(m), b)
            assert close_mixed(got, want)


def test_first_block_residual_equals_analytic_remainder():
    # operational residual (extracted minus transport minus smoothing term)
    # must agree with the independently derived closed form
    rng = np.random.default_rng(4)
    p = PARAMS_BAND
    for _ in range(12):
        l, m = rng.integers(-30, 30, size=2)
        if l == 0 or m == 0 or l + m == 0:
            continue
        k = float(l + m)
        for (j1, j2) in [(-1, -1), (1, -1)]:
            op = equation_cross_operator(p.b, j1, slot_a=-1, slot_b=j2)
            got = extract_kernel(op, float(l), float(m)) - sum(
                q_symbol(j1, j2, mu, k, float(m), p) for mu in (1, 2))
            want = q13_closed(j1, j2, k, float(m), p.b)
            assert close_mixed(got, want)


@pytest.mark.parametrize("j1,j2", [(-2, -2), (-2, 2), (2, -2), (2, 2)])
def test_second_block_per_term_realizations(j1, j2):
    rng = np.random.default_rng(abs(j1) * 10 + abs(j2))
    b = 0.13
    p = default_params(K0, b)
    for mu in (1, 2, 3, 4):
        op = q_term_operator(b, j1, j2, mu)
        for _ in range(4):
            l, m = rng.integers(-25, 25, size=2)
            if l == 0 or m == 0 or l + m == 0:
                continue
            got = extract_kernel(op, float(l), float(m))
            want = q_symbol(j1, j2, mu, float(l + m), float(m), p)
            assert close_mixed(got, want)


def test_first_block_per_term_realizations():
    b = 0.21
    p = default_params(K0, b)
    for (j1, j2) in [(-1, -1), (1, 1)]:
        got = extract_kernel(q_term_operator(b, j1, j2, 1), 5.0, 2.0)
        assert close_mixed(got, q_symbol(j1, j2, 1, 7.0, 2.0, p))
    for (j1, j2) in [(-1, 1), (1, -1)]:
        got = extract_kernel(q_term_operator(b, j1, j2, 2), 5.0, 2.0)
        assert close_mixed(got, q_symbol(j1, j2, 2, 7.0, 2.0, p))


def test_comb_curve_agrees_with_single_probe_extraction():
    # whole-curve extraction against a spectral comb must reproduce the
    # one-probe-at-a-time route mode for mode
    p = default_params(K0, 0.1)
    grid = DEFAULT_EXTRACTION_GRID
    l = 3.0
    total = equation_kernel_curve(p.b, -2, -2, l, grid=grid, composite_carrier=True)
    op = equation_cross_operator(p.b, -2, slot_a=SECOND_BLOCK_CARRIER, slot_b=-2)
    for m in (-9.0, -2.0, 1.0, 4.0, 27.0):
        direct = extract_kernel(op, l, m, grid=grid)
        assert close_mixed(total[mode_index(grid, l + m)], direct)


def test_total_second_block_kernel_is_odd():
    p = default_params(K0, 0.1)
    k = np.array([4.0, 7.0, 11.0])
    grid = DEFAULT_EXTRACTION_GRID
    a = equation_kernel_curve(p.b, -2, -2, 3.0, grid=grid, composite_carrier=True)
    c = equation_kernel_curve(p.b, -2, -2, -3.0, grid=grid, composite_carrier=True)
    for kk in k:
        ia = mode_index(grid, kk)
        ic = mode_index(grid, -kk)
        assert abs(a[ia] + c[ic]) < 1e-10 * max(1.0, abs(a[ia]))
    sym = second_block_symbol(-2, -2, 3.0, k - 3.0, p.b)
    assert np.max(np.abs(sym + second_block_symbol(-2, -2, -3.0, 3.0 - k, p.b))) == 0.0


@pytest.mark.parametrize("b", [0.0, 0.05, 0.13, 0.3])
@pytest.mark.parametrize("j1,j2", [(-2, -2), (-2, 2), (2, -2), (2, 2)])
def test_second_block_symbol_matches_extraction(j1, j2, b):
    # the closed form against the comb extraction of the composite-carrier
    # cross kernel; m = 0 is where the zero-mode convention 1/(im) := 0 acts
    grid = DEFAULT_EXTRACTION_GRID
    k = grid.wavenumbers[np.abs(grid.wavenumbers) <= 50.0]
    for l in (2.0, -2.0, 3.0, -5.0, 17.0):
        curve = equation_kernel_curve(b, j1, j2, l, composite_carrier=True)
        want = curve[mode_index(grid, 0.0) + np.round(k).astype(int)]
        got = second_block_symbol(j1, j2, l, k - l, b)
        for g, w, m in zip(got, want, k - l):
            if m == 0.0:
                assert abs(g - w) <= 1e-13 * abs(w)
            else:
                assert close_mixed(g, w, rel=1e-9)


#: (j1, j2, l, m, b) -> raw_cross2 of scripts/derive_kernel_oracles.py (30 digits)
SECOND_BLOCK_MPMATH = [
    ((-2, -2, 2.0, 1.0, 0.0), -25.264954226886759338j),
    ((2, -2, 2.0, 3.0, 0.05), -0.39924113540212531843j),
    ((-2, 2, -2.0, 0.0, 0.1), 0.87959305905850304442j),
    ((2, 2, 3.0, -5.0, 0.13), 2.2394875876340584751j),
    ((-2, -2, 17.0, -15.0, 0.3), -0.0109164947693302113j),
]


@pytest.mark.parametrize("args,want", SECOND_BLOCK_MPMATH)
def test_second_block_symbol_matches_mpmath(args, want):
    assert abs(second_block_symbol(*args) - want) <= 1e-12


def test_second_block_symbol_rejects_first_block():
    with pytest.raises(ValueError):
        second_block_symbol(-1, -1, 2.0, 1.0, 0.1)


def test_production_weights_never_call_the_equations(monkeypatch):
    # n_hat, rho_hat and the energy tables evaluate closed forms only; the
    # equations serve as the tests' extraction oracle.  Every evaluation of
    # the nonlinearity binds ``evaluator``
    def refuse(self, *args):
        raise AssertionError("production weights evaluated the equations")

    monkeypatch.setattr(TruncatedSystem, "evaluator", refuse)
    p = default_params(K0, 0.07)
    k = np.linspace(-6.0, 6.0, 97)
    for (j1, j2) in [(-2, -2), (-2, 2), (2, -2), (2, 2)]:
        for ell in (-1, 1):
            for j in (1, 2):
                assert np.all(np.isfinite(n_hat(j1, j2, ell, j, k, p)))
    # on this grid rho_hat is 0/0 at |k| = 0.5 (ROADMAP item 4), and refuses
    with pytest.raises(ValueError, match=r"b=0.07, \(j1, l\)=\(-2, 1\) is not finite "
                                         r"for 0.5 <= \|k\| <= 0.5"):
        rho_hat(-2, 1, k, p)
    nh = sim._n_hat_table(Grid1D(256, 2.0 * np.pi * 7.0), p)
    assert np.all(np.isfinite(nh))


# --------------------------------------------------------------------------
# extract_kernel mechanics
# --------------------------------------------------------------------------


def test_extract_kernel_snaps_to_grid_modes():
    op = equation_cross_operator(0.1, -1)
    exact = extract_kernel(op, 2.0, 3.0)
    snapped = extract_kernel(op, 2.0000004, 2.9999997)
    assert snapped == exact


def test_extract_kernel_rejects_aliasing_modes():
    op = equation_cross_operator(0.1, -1)
    n = DEFAULT_EXTRACTION_GRID.n_points
    with pytest.raises(ValueError):
        extract_kernel(op, float(n // 3 + 5), 1.0)
    # inputs fine but the sum leaves the dealias band
    with pytest.raises(ValueError):
        extract_kernel(op, float(n // 3 - 1), float(n // 3 - 1))


def test_extract_kernel_doubling_check_accepts_clean_values():
    op = equation_cross_operator(0.05, -1)
    a = extract_kernel(op, 4.0, -9.0, check=True)
    b = extract_kernel(op, 4.0, -9.0, check=False)
    assert a == b


# --------------------------------------------------------------------------
# normal-form multipliers
# --------------------------------------------------------------------------


def test_n_hat_finite_at_the_removable_points():
    p = PARAMS_BAND
    for (j1, j2) in PAIRS:
        for ell in (-1, 1):
            v = n_hat(j1, j2, ell, 1, np.array([0.0, ell * p.k0, -ell * p.k0]), p)
            assert np.all(np.isfinite(v))


def test_n_hat_conjugation_symmetry():
    p = PARAMS_BAND
    k = np.linspace(-6.0, 6.0, 41)
    for (j1, j2) in [(-1, -1), (-2, 2)]:
        a = n_hat(j1, j2, 1, 1, k, p)
        c = n_hat(j1, j2, -1, 1, -k, p)
        assert np.max(np.abs(a - np.conj(c))) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_n_hat_low_mode_projection_bound():
    # near k=0 the multiplier may grow, but only like 1/eps
    p = PARAMS_BAND
    k = np.linspace(-p.delta0, p.delta0, 201)
    v = n_hat(-1, -1, 1, 1, k, p)
    assert np.max(np.abs(v)) <= 100.0 / p.eps


def test_n_hat_transport_scale_growth_is_linear():
    # |n/k| stays bounded out to large wavenumbers (sup |n/k| = 0.2005 here)
    p = PARAMS_BAND
    k = np.linspace(50.0, 1000.0, 96)
    v = n_hat(-1, -1, 1, 1, k, p)
    assert np.max(np.abs(v / k)) < 0.25


def test_n_hat_rejects_bad_block_requests():
    p = PARAMS_BAND
    with pytest.raises(ValueError):
        n_hat(-1, -1, 1, 2, 1.0, p)      # second multiplier needs |j1| = 2
    with pytest.raises(ValueError):
        n_hat(-1, -1, 2, 1, 1.0, p)      # carrier index is +-1
    with pytest.raises(ValueError):
        n_hat(-1, 2, 1, 1, 1.0, p)


def test_n_hat_second_multiplier_exists_only_for_second_block():
    p = PARAMS_BAND
    v = n_hat(-2, -2, 1, 2, np.array([1.3, 2.9]), p)
    assert np.all(np.isfinite(v))


def test_n_hat_scalar_in_scalar_out():
    v = n_hat(-1, -1, 1, 1, 0.37, PARAMS_BAND)
    assert isinstance(v, complex)


# --------------------------------------------------------------------------
# renormalization weight
# --------------------------------------------------------------------------


def test_rho_hat_trivial_for_positive_component_or_quiet_bond():
    k = np.linspace(-8, 8, 33)
    assert np.all(rho_hat(2, 1, k, PARAMS_BAND) == 1.0)
    assert np.all(rho_hat(-2, 1, k, PARAMS_QUIET) == 1.0)
    assert np.all(rho_hat(-2, 1, k, PARAMS_ZERO_B) == 1.0)


def test_rho_hat_is_one_outside_its_windows():
    p = PARAMS_BAND
    gap = p.k1 - p.k0
    # windows sit around +-gap with half-width delta1*gap < gap; stay clear
    far = np.array([0.0, 5.0, -5.0, 3 * p.k1, -3 * p.k1])
    assert np.all(rho_hat(-2, 1, far, p) == 1.0)
    # ... and deviates inside the window centered at -gap
    assert rho_hat(-2, 1, np.array([-gap]), p)[0] != 1.0


def test_rho_extremes_sandwich():
    p = default_params(2.0, 1.0 / 200.0)
    lo, hi = rho_extremes(-2, 1, p)
    assert 0.0 < lo <= 1.0
    assert np.isfinite(hi) and hi >= 1.0


def test_rho_extremes_refuses_a_weight_that_is_not_finite():
    """At b = 0.1 the second-block weight is NaN on 0.346 <= |k| <= 0.499
    of its windows (the lattice rounds k to 0 where the denominator kernel
    vanishes); the extremes refuse rather than leave those points out."""
    with pytest.raises(ValueError, match=r"b=0.1, \(j1, l\)=\(-2, 2\) is not finite "
                                         r"for 0.346166 <= \|k\| <= 0.499123"):
        rho_extremes(-2, 2, default_params(2.0, 0.1))


def test_rho_hat_refuses_its_own_non_finite_values():
    with pytest.raises(ValueError, match=r"b=0.1, \(j1, l\)=\(-2, 0\) is not finite "
                                         r"for 0.4 <= \|k\| <= 0.4.*ROADMAP item 4"):
        rho_hat(-2, 0, np.array([-0.4, 0.0, 0.4]), default_params(2.0, 0.1))


@pytest.mark.parametrize("b", [0.0, 0.3])
def test_rho_extremes_outside_the_band_are_one(b):
    assert rho_extremes(-2, 2, default_params(2.0, b)) == (1.0, 1.0)


def test_rho_hat_scalar_input():
    v = rho_hat(-2, 1, 0.0, PARAMS_BAND)
    assert v == 1.0


@pytest.mark.parametrize("l", [0, 2])
def test_first_block_rho_hat_is_its_kernel_ratio(l):
    """At b = 0.05, rho_hat(-1, l) point by point from ``first_block_symbol``
    on scalars: 1 plus, in each window around -ell*gap, the weight times
    (the kernel at the partner -k + ell*k0 over the kernel at k, times
    ((ell*k0 - k)/k)^(2l), minus 1)."""
    p = default_params(2.0, 0.05)
    gap = p.k1 - p.k0
    ks = np.linspace(-9.0, 9.0, 46)  # no point at k = 0
    expected = []
    for k in ks:
        value = 1.0
        for ell in (-1, 1):
            weight = xi_hat((k + ell * gap) / gap, p.delta1)
            if weight > 0.0:
                num = first_block_symbol(-1, -1, ell * p.k0, -k, p.b)
                den = first_block_symbol(-1, -1, ell * p.k0, k - ell * p.k0, p.b)
                ratio = (-num / den).real * ((ell * p.k0 - k) / k) ** (2 * l)
                value += (ratio - 1.0) * weight
        expected.append(value)
    got = rho_hat(-1, l, ks, p)
    assert np.count_nonzero(got != 1.0) >= 30
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_first_block_rho_extremes_fall_to_one_as_b_vanishes():
    """ROADMAP item 11's j1 = -1 columns: the weight's minimum is 1 and both
    maxima fall monotonically toward 1 as b -> 0, (l = 0, l = 2) = (3.14,
    50.6) at b = 0.05 down to (1.05, 1.13) at b = 0.001."""
    frozen = {0.05: (3.139441182566855, 50.64319155265893),
              0.02: (1.836703528702124, 6.887565775556377),
              0.01: (1.4294639956132693, 2.9235999809163937),
              0.001: (1.0483686489550714, 1.1343916467873862)}
    for b, maxima in frozen.items():
        p = default_params(2.0, b)
        for l, hi in zip((0, 2), maxima):
            assert rho_extremes(-1, l, p) == pytest.approx((1.0, hi), rel=1e-12), (b, l)
    for i in (0, 1):
        column = [maxima[i] for maxima in frozen.values()]
        assert all(a > c > 1.0 for a, c in zip(column, column[1:]))


# --------------------------------------------------------------------------
# parameter selection
# --------------------------------------------------------------------------


def test_kernel_params_validation():
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="eps must lie in"):
            KernelParams(2.0, 0.1, eps)
    with pytest.raises(ValueError, match="k0 must be positive"):
        KernelParams(0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="Bond number must be nonnegative"):
        KernelParams(2.0, -0.01, 0.1)
    # the derived fields are those of the constructive choices, and only
    # (k0, b, eps) are given
    p = KernelParams(2.0, 0.1, 0.1)
    assert (p.delta0, p.delta1, p.k1) == (delta0_for(2.0, 0.1),
                                          delta1_for(2.0, k1_of_b(2.0, 0.1)),
                                          k1_of_b(2.0, 0.1))
    assert p.in_resonant_band and p == default_params(2.0, 0.1)
    with pytest.raises(TypeError):
        KernelParams(2.0, 0.1, 0.1, delta0=0.05)


def test_kernel_params_hold_k1_exactly_in_the_resonant_band():
    for b in (0.0, 0.236, 0.3):
        p = KernelParams(K0, b, 0.1)
        assert p.k1 is None and p.delta1 == 0.5
    for b in (0.002, 0.1, 0.2):
        assert KernelParams(K0, b, 0.1).k1 == k1_of_b(K0, b)


def test_kernel_params_window_constraint_near_k1():
    # delta1 too close to 1 would let the excision window swallow k = 0; the
    # derived delta1 keeps under the admissibility bound 1 - k0/(20 (k1 - k0))
    # up to b = 0.215, where k1 = 2.215 comes within 0.22 of k0
    for b in (0.05, 0.2, 0.215):
        p = KernelParams(K0, b, 0.1)
        assert p.k1 > K0
        assert 0.0 < p.delta1 < 1.0 - K0 / (20.0 * (p.k1 - K0))
        assert 0.0 < p.delta0 < K0 / 20.0


def test_delta0_scan_returns_admissible_width():
    for b in (0.0, 0.05, 0.1, 0.2, 0.3):
        d0 = delta0_for(K0, b)
        assert 0.0 < d0 < K0 / 20
    assert delta0_for(K0, 0.1) == pytest.approx(0.0999, abs=0.01)


#: the bond-sweep benchmark's Bond numbers: each anchor times
#: 1 + 0.01 (2 u - 1), u drawn in turn from random.Random(seed)
def _bond_sweep_bonds(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [a * (1.0 + 0.01 * (2.0 * rng.random() - 1.0)) for a in BOND_SWEEP_ANCHORS]


def _delta0_or_refusal(fn, b: float, k0: float = K0):
    try:
        return fn(k0, b)
    except ValueError as exc:
        return str(exc)


def _gap_to_the_zero_next_to_k0(k0: float, b: float) -> float:
    """Distance from k0 to the nearest other zero of r (k1 below b0, the
    extra zero above it)."""
    return min(abs(z - k0) for z in find_zeros(k0, b, 100.0).zeros if z != k0)


def test_delta0_is_bitwise_the_per_combo_scan():
    """The stacked scan returns the per-combination scan's float exactly, on
    the benchmark's Bond numbers for seeds 1-5, b = 0, b = 0.2269, a grid on
    [0.001, 0.33] and both sides of b0, where the candidates shrink up to
    40 times or none passes."""
    b0 = critical_bonds(K0).b0
    near_b0 = np.geomspace(1e-9, 1e-2, 20)
    bonds = [b for seed in range(1, 6) for b in _bond_sweep_bonds(seed)]
    bonds += [0.0, 0.2269]
    bonds += [float(b) for b in np.concatenate([np.linspace(0.001, 0.33, 200),
                                                b0 - near_b0, b0 + near_b0])]
    assert len(bonds) >= 300
    got = [_delta0_or_refusal(delta0_for, b) for b in bonds]
    assert got == [_delta0_or_refusal(delta0_per_combo, b) for b in bonds]
    values = {v for v in got if isinstance(v, float)}
    assert len(values) >= 12  # shrink counts 0 to 40 are exercised
    assert any(isinstance(v, str) and "no admissible delta0" in v for v in got)


@pytest.mark.parametrize("k0", [0.5, 1.0, 3.0])
def test_delta0_next_to_b0_is_the_per_combo_scan_outside_r_hat_rounding(k0):
    """On both sides of b0 on three more carriers the two scans return the
    same float or refusal wherever r_hat's margin at the first window point,
    0.1 |omega'(k0) - 1| 1e-9, exceeds its rounding eps omega(k0).  Inside
    that band r_hat there is rounding noise: where the scans differ, the
    r_hat scan refuses every candidate, and production's delta0 stays short
    of r's zero next to k0."""
    b0 = critical_bonds(k0).b0
    near_b0 = np.geomspace(1e-9, 1e-2, 20)
    for b in np.concatenate([b0 - near_b0, b0 + near_b0]).tolist():
        got = _delta0_or_refusal(delta0_for, b, k0)
        want = _delta0_or_refusal(delta0_per_combo, b, k0)
        if got == want:
            continue
        margin = 0.1 * abs(omega_deriv(k0, b, 1) - 1.0) * 1e-9
        assert margin < np.finfo(float).eps * omega(k0, b), b
        assert isinstance(want, str) and "no admissible delta0" in want, b
        assert isinstance(got, float) and got < _gap_to_the_zero_next_to_k0(k0, b), b


@pytest.mark.parametrize("x", [1e-7, 1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_delta0_windows_hold_no_zero_next_to_b0(side, x):
    """At b = b0 (1 -+ x) r has a zero about 6x k0/2 from k0, k1 below b0
    and the extra zero above it, that the 400-point windows can step over
    with |q| above the margin on every point.  q must keep the sign of
    q(k0) on both windows, so delta0 stays short of the zero, and at x =
    1e-7, where it lies within 1e-6 k0 of k0, no candidate passes."""
    b = critical_bonds(K0).b0 * (1.0 + side * x)
    gap = _gap_to_the_zero_next_to_k0(K0, b)
    if gap < 1e-6 * K0:
        with pytest.raises(ValueError, match="no admissible delta0"):
            delta0_for(K0, b)
    else:
        assert 0.0 < delta0_for(K0, b) < gap


def test_delta0_is_the_largest_passing_candidate():
    # candidates k0/20 * 0.999 * 0.9^i, formed by repeated multiplication
    candidates = [K0 / 20.0 * 0.999]
    for _ in range(4):
        candidates.append(candidates[-1] * 0.9)
    assert delta0_for(K0, 0.0) == candidates[0]
    # at b = 0.2269, next to b0, the first four candidates fail
    assert delta0_for(K0, 0.2269) == candidates[4]
    assert candidates[4] == pytest.approx(0.06554, abs=1e-5)


@pytest.mark.parametrize("b,candidates", [(0.0, 1), (0.2269, 5)])
def test_delta0_evaluates_omega_once_per_candidate(monkeypatch, b, candidates):
    """Each candidate is one array call of q, which forms omega on its
    points itself, on 800 points: k0 + kk and k0 - kk, 400 each."""
    from arcwave import kernels

    calls = record_q_arrays(monkeypatch, kernels)
    delta0_for(K0, b)
    assert [a.size for a in calls] == [800] * candidates


def test_delta0_refuses_degenerate_slope():
    cb_b0 = 0.2240838468714964
    with pytest.raises(ValueError):
        delta0_for(K0, cb_b0)


def test_delta1_for_known_cases():
    assert delta1_for(2.0, 4.3001037060984473) == pytest.approx(0.860871329513806, rel=1e-9)
    # tight gap: formula floor kicks in rather than going nonpositive
    assert delta1_for(2.0, 2.12) >= 0.05


def test_kernel_params_refuse_the_band_just_below_b0():
    """At k0 = 2, k1 - k0 falls to 0.1058 at b = 0.21990, where delta1_for's
    admissibility bound reaches 0.055: every b from there up to b0 = 0.22408
    is refused, although k1 exists."""
    KernelParams(K0, 0.21989, 0.1)
    for b in (0.21991, 0.224):
        assert 0.0 < b < critical_bonds(K0).b0
        with pytest.raises(ValueError, match="sits too close to k0"):
            KernelParams(K0, b, 0.1)


def test_default_params_fills_the_band_fields():
    p = default_params(K0, 0.1)
    assert p.k1 == pytest.approx(4.3001037060984473, rel=1e-8)
    assert p.in_resonant_band
    q = default_params(K0, 0.3)
    assert q.k1 is None and not q.in_resonant_band


# --------------------------------------------------------------------------
# stability coefficients and caching
# --------------------------------------------------------------------------


def test_stability_ratio_near_frozen_value():
    # closed-form ratio at the exact k1 against the 30-digit mpmath value
    verdict = stability(K0, 0.2)
    assert verdict.ratio == pytest.approx(-11.272797299870098, rel=1e-12)
    assert verdict.stable and verdict.characterization_agrees


def test_curve_cache_is_idempotent_under_concurrency():
    b = 0.1

    def work(_):
        c = equation_kernel_curve(b, -2, -2, 2.0, composite_carrier=True)
        return c[mode_index(DEFAULT_EXTRACTION_GRID, 5.0)]

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        vals = list(ex.map(work, range(16)))
    assert len(set(vals)) == 1

    cached = equation_kernel_curve(b, -2, -2, 2.0, composite_carrier=True)
    with pytest.raises((ValueError, RuntimeError)):
        cached[0] = 0.0  # write-protected
