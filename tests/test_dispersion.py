"""Dispersion relation, slope function, and parameter container checks.

Reference values were computed once with mpmath at 30 digits from the closed
forms and are asserted here to near machine precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcwave.dispersion import (
    ModelParams,
    k0_symbol,
    omega,
    omega_deriv,
    sigma,
    sigma_inv,
)

# 30-digit mpmath evaluations of the closed forms
OMEGA_2_0 = 1.3885442593420037
OMEGA_4_01 = 3.2238214462476512
SIGMA_3_02 = 2.9054683814894612
DOMEGA_2_0 = 0.39801728405327662
D2OMEGA_2_0 = -0.16130967340229862
D3OMEGA_2_0 = 0.17351852246242379

bond = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
wavenumber = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


def test_frozen_point_values():
    assert omega(2.0, 0.0) == pytest.approx(OMEGA_2_0, abs=1e-13)
    assert omega(4.0, 0.1) == pytest.approx(OMEGA_4_01, abs=1e-13)
    assert sigma(3.0, 0.2) == pytest.approx(SIGMA_3_02, abs=1e-13)
    assert omega_deriv(2.0, 0.0, order=1) == pytest.approx(DOMEGA_2_0, abs=1e-12)
    assert omega_deriv(2.0, 0.0, order=2) == pytest.approx(D2OMEGA_2_0, abs=1e-12)
    assert omega_deriv(2.0, 0.0, order=3) == pytest.approx(D3OMEGA_2_0, abs=1e-11)


def test_omega_vectorized():
    k = np.array([-2.0, 0.0, 2.0, 4.0])
    w = omega(k, 0.0)
    assert w.shape == k.shape
    assert w[1] == 0.0
    assert w[2] == pytest.approx(OMEGA_2_0)
    assert w[0] == pytest.approx(-OMEGA_2_0)


@given(k=wavenumber, b=bond)
@settings(max_examples=60, deadline=None)
def test_omega_is_odd_sigma_is_even(k, b):
    assert omega(-k, b) == pytest.approx(-omega(k, b), abs=1e-14)
    assert sigma(-k, b) == pytest.approx(sigma(k, b), rel=1e-14)


@given(k=wavenumber, b=bond)
@settings(max_examples=60, deadline=None)
def test_sigma_lower_bound(k, b):
    """The smoothing-weight symbol never dips below its k=0 value of one."""
    s = sigma(k, b)
    assert s >= 1.0 - 1e-12
    assert sigma_inv(k, b) == pytest.approx(1.0 / s, rel=1e-14)


def test_sigma_at_zero_is_one():
    assert sigma(0.0, 0.3) == 1.0
    assert sigma_inv(0.0, 0.3) == 1.0


def test_series_matches_closed_form_across_seam():
    # the small-|k| branch must join the closed form smoothly
    for b in (0.0, 0.21, 1.0 / 3.0):
        for k in (0.049999, 0.050001, 0.03, 0.01):
            below = omega(k * 0.9999, b)
            above = omega(k * 1.0001, b)
            assert abs(below - above) < 5e-5
            fd = (omega(k + 5e-7, b) - omega(k - 5e-7, b)) / 1e-6
            assert omega_deriv(k, b, order=1) == pytest.approx(fd, abs=1e-7)


@given(k=st.floats(min_value=0.2, max_value=40.0), b=bond)
@settings(max_examples=40, deadline=None)
def test_derivatives_against_finite_differences(k, b):
    h = 1e-5 * max(1.0, abs(k))
    fd1 = (omega(k + h, b) - omega(k - h, b)) / (2 * h)
    fd2 = (omega(k + h, b) - 2 * omega(k, b) + omega(k - h, b)) / h**2
    assert omega_deriv(k, b, 1) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
    assert omega_deriv(k, b, 2) == pytest.approx(fd2, rel=1e-3, abs=1e-4)


def test_omega_deriv_parity_and_validation():
    # omega odd => omega' even, omega'' odd, omega''' even
    assert omega_deriv(-2.0, 0.1, 1) == pytest.approx(omega_deriv(2.0, 0.1, 1))
    assert omega_deriv(-2.0, 0.1, 2) == pytest.approx(-omega_deriv(2.0, 0.1, 2))
    assert omega_deriv(-2.0, 0.1, 3) == pytest.approx(omega_deriv(2.0, 0.1, 3))
    with pytest.raises(ValueError):
        omega_deriv(2.0, 0.1, order=4)
    with pytest.raises(ValueError):
        omega_deriv(2.0, 0.1, order=0)


def test_long_wave_slope_is_unity():
    """Group and phase speed both tend to 1 at the zero-wavenumber limit."""
    assert omega_deriv(0.0, 0.2, 1) == pytest.approx(1.0)
    assert omega(1e-8, 0.2) == pytest.approx(1e-8, rel=1e-8)


def test_k0_symbol_values():
    assert k0_symbol(0.0) == 0.0
    assert k0_symbol(2.0) == pytest.approx(-1j * math.tanh(2.0))
    k = np.array([-1.0, 0.0, 1.0])
    vals = k0_symbol(k)
    np.testing.assert_allclose(vals, -1j * np.tanh(k))


def test_model_params_cached_quantities():
    p = ModelParams(k0=2.0, b=0.0)
    assert p.omega0 == pytest.approx(OMEGA_2_0, abs=1e-13)
    assert p.cg == pytest.approx(DOMEGA_2_0, abs=1e-12)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(k0=0.0, b=0.1)
    with pytest.raises(ValueError):
        ModelParams(k0=2.0, b=-0.01)


@given(b=st.floats(min_value=0.0, max_value=0.33))
@settings(max_examples=30, deadline=None)
def test_omega_monotone_in_k(b):
    ks = np.linspace(0.0, 30.0, 400)
    w = omega(ks, b)
    assert np.all(np.diff(w) > 0)


def _mp_omega_deriv(k: float, b: float, order: int):
    """omega^(order)(k, b) by 40-digit mpmath differentiation of the closed form."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def w(x):
            return mp.sign(x) * mp.sqrt((x + b * x**3) * mp.tanh(x))
        return mp.diff(w, mp.mpf(k), order)


def _mp_sigma(k: float, b: float):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.mpf(k)
        return mp.sqrt((x + b * x**3) / mp.tanh(x))


#: wavenumbers on both sides of the series cuts 0.05 and 0.1 (and of
#: 0.0158 and 0.0316, the cuts at b = 10)
SERIES_KS = (1e-3, 0.01, 0.0157, 0.0159, 0.03, 0.0315, 0.0317, 0.0499, 0.05,
             0.0501, 0.07, 0.0999, 0.1, 0.1001)


@pytest.mark.parametrize("b", (0.0, 0.2, 1.0 / 3.0, 3.0, 10.0))
def test_small_k_branch_matches_mpmath(b):
    """omega, its three derivatives and sigma agree with 40-digit mpmath to
    3e-13 (relative to max(1, |value|)) up to k = 0.1, on both routes,
    across the series cuts."""
    for k in SERIES_KS:
        cases = [(lambda x: omega(x, b), _mp_omega_deriv(k, b, 0)),
                 (lambda x: sigma(x, b), _mp_sigma(k, b))]
        cases += [(lambda x, n=n: omega_deriv(x, b, n), _mp_omega_deriv(k, b, n))
                  for n in (1, 2, 3)]
        for i, (f, want) in enumerate(cases):
            for got in (f(k), f(np.array([k]))[0]):
                err = abs(got - float(want)) / max(1.0, abs(float(want)))
                assert err <= 3e-13, (i, k, b, got, float(want))


# the scalar (math) route against the masked numpy route
ROUTE_KS = [0.0] + [s * v for v in (1e-3, 0.0499, 0.05, 0.0501, 0.0999, 0.1, 0.1001,
                                    2.0, 60.0, 720.0, 1e4)
                    for s in (1.0, -1.0)]
ROUTE_BONDS = (0.0, 0.05, 0.2, 1.0 / 3.0, 1.0)
ROUTE_SYMBOLS = {
    "omega": (omega, 0),
    "omega_deriv_1": (lambda k, b: omega_deriv(k, b, 1), 1),
    "omega_deriv_2": (lambda k, b: omega_deriv(k, b, 2), 2),
    "omega_deriv_3": (lambda k, b: omega_deriv(k, b, 3), 3),
    "sigma": (sigma, 0),
    "sigma_inv": (sigma_inv, 0),
}


def _largest_term(k: float, b: float, order: int) -> float:
    """Size of the largest term the closed form of omega^(order) sums.

    omega'' = G''/(2 omega) - omega'^2/omega and omega''' ends in
    3 omega'^3/omega^2; next to their zeros and at the series seam these
    terms cancel to a small difference, so an ulp of each (math and numpy
    round tanh, cosh and powers differently) is many ulps of the result.
    The series side (|k| < 0.1 for these orders) sums no such terms.
    """
    if order < 2 or abs(k) < 0.1:
        return 0.0
    w, w1 = abs(omega(k, b)), abs(omega_deriv(k, b, 1))
    return w1**2 / w if order == 2 else 3.0 * w1**3 / w**2


@pytest.mark.parametrize("b", ROUTE_BONDS)
@pytest.mark.parametrize("name", sorted(ROUTE_SYMBOLS))
def test_scalar_route_matches_array_route(name, b):
    """float, int, np.float64 and 0-d inputs return floats within 2 ulps."""
    f, order = ROUTE_SYMBOLS[name]
    reference = f(np.array(ROUTE_KS), b)
    for k, expected in zip(ROUTE_KS, reference):
        inputs = [k, np.float64(k), np.array(k)] + ([int(k)] if k == int(k) else [])
        for arg in inputs:
            got = f(arg, b)  # |k| >= 710 must not overflow math.cosh
            assert type(got) is float, (name, type(arg), type(got))
            tol = 2.0 * np.spacing(max(abs(expected), _largest_term(k, b, order)))
            assert abs(got - expected) <= tol, (name, k, b, type(arg), got, expected)


# the array route's one path against each point on its own, point by point
LARGE_KS = np.concatenate([np.linspace(0.11, 40.0, 257), -np.geomspace(0.11, 800.0, 64)])
SMALL_KS = np.linspace(-0.03, 0.03, 121)  # below every cut for b <= 2
MIXED_KS = np.concatenate([SMALL_KS[::7], LARGE_KS[::9], [0.0, 0.0499, 0.05, 0.0999, 0.1]])
#: the last float below, the cut itself and the first float above, on both
#: sides, for the cuts 0.05 and 0.1 and (b = 2) those over sqrt(2)
CUT_KS = np.array([s * np.nextafter(c, c + d) for c in (0.05, 0.1, 0.05 / math.sqrt(2.0),
                                                         0.1 / math.sqrt(2.0))
                   for d in (-1.0, 0.0, 1.0) for s in (-1.0, 1.0)])
_KK = np.linspace(1e-9, 0.0999, 400)
_NEAR = np.array([_KK, -_KK, 2.0 + _KK, 2.0 - _KK])
#: the zero-crossing scans' long arrays, each checked at a stride: omega's
#: (k - k0) grid in find_zeros at k0 = 2 (14 100 points), and delta0_for's
#: first-candidate points near 0 and k0 with their shifts by -k0
LONG_KS = ((np.linspace(1.0, 142.0, 14100) - 2.0, 47),
           (np.concatenate([_NEAR, _NEAR - 2.0]), 7))


def _split_point_by_point(f, ks: np.ndarray, b: float) -> np.ndarray:
    """f at each point of ks on its own, as the first entry of [k, 0, 1]:
    0 is below every series cut and 1 above it, so each point is served as
    in an array with points on both sides."""
    return np.array([f(np.array([k, 0.0, 1.0]), b)[0] for k in ks.ravel()]).reshape(ks.shape)


@pytest.mark.parametrize("b", (0.0, 0.05, 1.0 / 3.0, 2.0))
@pytest.mark.parametrize("name", sorted(ROUTE_SYMBOLS))
def test_unsplit_array_paths_equal_the_masked_split(name, b):
    """The one array path (the closed form on every point, the series over
    the points below the cut) gives all-large, all-small, mixed, cut-
    straddling and 2-d arrays, and the zero-crossing scans' long arrays at a
    stride, bitwise the points evaluated one at a time, without a
    RuntimeWarning; a 0-d array still returns a float with the same value."""
    f, _ = ROUTE_SYMBOLS[name]
    for ks, stride in [(ks, 1) for ks in (LARGE_KS, SMALL_KS, MIXED_KS, CUT_KS,
                                          MIXED_KS[:54].reshape(6, 9))] + list(LONG_KS):
        got = f(ks, b)
        assert type(got) is np.ndarray and got.shape == ks.shape
        want = _split_point_by_point(f, ks[..., ::stride], b)
        assert np.array_equal(got[..., ::stride], want), (name, b, ks.shape)
    for k in (0.01, -0.07, 2.0, -30.0):
        got = f(np.array(k), b)
        assert type(got) is float
        assert got == _split_point_by_point(f, np.array([k]), b)[0]
