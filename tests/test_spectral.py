"""The grid, and the plain-array Fourier helpers the test oracles share."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcwave.spectral import Grid1D
from fourier import commutator, hermitian_part, ik_power, mode, product

TWO_PI = 2 * np.pi


def small_grid(n=64, length=TWO_PI):
    return Grid1D(n_points=n, length=length)


# ---------------------------------------------------------------- grids


def test_grid_wavenumbers_are_integer_multiples_of_fundamental():
    g = Grid1D(n_points=128, length=4 * np.pi)
    assert g.fundamental == pytest.approx(0.5)
    np.testing.assert_allclose(g.wavenumbers, g.mode_numbers * g.fundamental)
    # fftfreq layout: 0, 1, ..., n/2-1, -n/2, ..., -1 (times fundamental)
    assert g.mode_numbers[0] == 0
    assert g.mode_numbers[1] == 1
    assert g.mode_numbers[-1] == -1
    assert g.mode_numbers[g.n_points // 2] == -g.n_points // 2


def test_grid_rejects_bad_construction():
    with pytest.raises(ValueError):
        Grid1D(n_points=96, length=TWO_PI)
    with pytest.raises(ValueError):
        Grid1D(n_points=64, length=-1.0)


def test_mode_index_round_trip():
    g = small_grid(n=256, length=8 * np.pi)
    for j in (0, 1, -1, 17, -100):
        idx = g.mode_index(j * g.fundamental)
        assert g.mode_numbers[idx] == j
    with pytest.raises(ValueError):
        g.mode_index(0.5 * g.fundamental)  # off-grid
    with pytest.raises(ValueError):
        g.mode_index(g.fundamental * (g.n_points // 2))  # Nyquist excluded


def test_grid_spacing_and_alpha():
    g = small_grid(n=16, length=TWO_PI)
    assert g.spacing == pytest.approx(TWO_PI / 16)
    np.testing.assert_allclose(np.diff(g.alpha), g.spacing)
    assert g.alpha[0] == 0.0


# ------------------------------------------------- coefficient arrays


def coefficients(g, values):
    return np.fft.fft(values) / g.n_points


def physical(g, c):
    return (np.fft.ifft(c) * g.n_points).real


def hermitian_defect(g, c):
    return np.max(np.abs(c - np.conj(c[g._conjugate_index])))


def test_field_coefficient_access():
    g = small_grid()
    c = coefficients(g, np.cos(3 * g.alpha))
    assert c[g.mode_index(3.0)] == pytest.approx(0.5)
    assert c[g.mode_index(-3.0)] == pytest.approx(0.5)
    assert abs(c[g.mode_index(2.0)]) < 1e-15


def test_from_mode_places_single_coefficient():
    g = small_grid(n=128)
    c = mode(g, 5.0, 2.0 + 1.0j)
    idx = g.mode_index(5.0)
    assert c[idx] == 2.0 + 1.0j
    assert np.count_nonzero(c) == 1
    assert hermitian_defect(g, c) > 0.0


# ------------------------------------------------------- multiplier ops


def test_derivative_of_sine():
    g = small_grid(n=128, length=TWO_PI)
    c = coefficients(g, np.sin(2 * g.alpha))
    np.testing.assert_allclose(physical(g, ik_power(g, 1) * c), 2 * np.cos(2 * g.alpha),
                               atol=1e-12)
    np.testing.assert_allclose(physical(g, ik_power(g, 3) * c), -8 * np.cos(2 * g.alpha),
                               atol=1e-10)


def test_antiderivative_inverts_derivative_on_mean_free_fields():
    g = small_grid(n=256, length=4 * np.pi)
    rng = np.random.default_rng(7)
    c = np.zeros(g.n_points, dtype=complex)
    # random band-limited mean-free real field
    for j in range(1, 20):
        c[j] = rng.normal() + 1j * rng.normal()
        c[-j] = np.conj(c[j])
    assert hermitian_defect(g, c) == 0.0
    v = ik_power(g, -1) * (ik_power(g, 1) * c)
    np.testing.assert_allclose(v, c, atol=1e-13)
    # constants are annihilated rather than blowing up
    w = ik_power(g, -1) * coefficients(g, np.ones(g.n_points))
    assert np.max(np.abs(w)) < 1e-15


def test_antiderivative_of_sine():
    g = small_grid(n=64)
    w = ik_power(g, -1) * coefficients(g, np.sin(g.alpha))
    np.testing.assert_allclose(physical(g, w), -np.cos(g.alpha), atol=1e-13)


def test_second_antiderivative_symbol():
    g = small_grid(n=64)
    w = ik_power(g, -2) * mode(g, 3.0, 1.0)
    assert w[g.mode_index(3.0)] == pytest.approx(-1.0 / 9.0)


def test_multiply_matches_trig_identity():
    g = small_grid(n=128)
    w = product(g, coefficients(g, np.cos(3 * g.alpha)), coefficients(g, np.cos(4 * g.alpha)))
    expect = 0.5 * (np.cos(7 * g.alpha) + np.cos(g.alpha))
    np.testing.assert_allclose(physical(g, w), expect, atol=1e-13)


def test_multiply_dealiases_high_modes():
    g = small_grid(n=64)
    cut = g.n_points // 3
    u = mode(g, float(cut - 1), 1.0)
    # 2*(cut-1) aliases on the raw grid; the dealiased product must drop it
    assert np.max(np.abs(product(g, u, u))) < 1e-15


def test_commutator_single_modes():
    """[M, g] f for single exponentials: (M(p+q) - M(q)) on the product mode."""
    g = small_grid(n=64)
    sym = lambda k: -1j * np.tanh(k)
    w = commutator(g, sym(g.wavenumbers), mode(g, 1.0, 1.0), mode(g, 2.0, 1.0))
    expect = sym(3.0) - sym(2.0)
    assert w[g.mode_index(3.0)] == pytest.approx(expect)
    assert np.count_nonzero(np.abs(w) > 1e-14) == 1


def test_commutator_vanishes_for_constant_g():
    g = small_grid()
    rng = np.random.default_rng(11)
    f = coefficients(g, rng.standard_normal(g.n_points))
    const = coefficients(g, np.full(g.n_points, 2.5))
    w = commutator(g, 1j * g.wavenumbers, const, f)
    assert np.sqrt(g.length * np.sum(np.abs(w) ** 2)) < 1e-12


def test_hermitian_part_repairs_drift():
    g = small_grid(n=64)
    u = coefficients(g, np.cos(2 * g.alpha))
    c = u.copy()
    c[g.mode_index(2.0)] += 1e-9 * 1j  # inject asymmetric round-off
    fixed = hermitian_part(g, c)
    assert hermitian_defect(g, fixed) < 1e-16
    np.testing.assert_allclose(fixed, u, atol=1e-9)


# ----------------------------------------------------- property checks

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_derivative_annihilates_mean_and_parseval_holds(seed):
    g = small_grid(n=64)
    rng = np.random.default_rng(seed)
    u = coefficients(g, rng.standard_normal(g.n_points))
    assert abs((ik_power(g, 1) * u)[0]) == 0.0
    # Parseval: physical-space quadrature agrees with the coefficient norm
    quad = np.sqrt(g.spacing * np.sum(physical(g, u) ** 2))
    assert quad == pytest.approx(np.sqrt(g.length * np.sum(np.abs(u) ** 2)), rel=1e-12)


@given(seed=seeds, shift=st.integers(min_value=-8, max_value=8))
@settings(max_examples=25, deadline=None)
def test_multiply_is_bilinear_and_commutative(seed, shift):
    g = small_grid(n=64)
    rng = np.random.default_rng(seed)
    u = coefficients(g, rng.standard_normal(g.n_points))
    v = hermitian_part(g, mode(g, float(shift), 0.5) + mode(g, float(-shift), 0.5))
    uv = product(g, u, v)
    np.testing.assert_allclose(uv, product(g, v, u), atol=1e-14)
    np.testing.assert_allclose(product(g, u + u, v), 2 * uv, atol=1e-13)
