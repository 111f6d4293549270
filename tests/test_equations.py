"""Tests for the truncated evolution system right-hand side."""

import numpy as np
import pytest

from arcwave.dispersion import k0_symbol, omega, sigma, sigma_inv
from arcwave.equations import (COMPONENT_INDEX, TruncatedSystem,
                               slave_second_block)
from arcwave.spectral import Grid1D, full_spectrum, half_spectrum
from fourier import hermitian_part, ik_power, product

GRID = Grid1D(n_points=256, length=2 * np.pi)
BOND = 0.13

# independently derived with 30-digit arithmetic: cross-interaction
# coefficients of the u_{j1} equation at mode inserts (l, m), both slot
# pairings included
CROSS_M1_M1_L2_M3_B01 = -5.0866291174875326445j
CROSS_P1_M1_L2_M3_B01 = -4.7096720137102512849j
CROSS_M1_P1_LM5_M2_B01 = 1.7248339597231108836j
CROSS_M1_M1_L2_MM7_B025 = 3.1602384556601169628j


def random_real_state(rng, grid=GRID, scale=1e-2):
    rows = []
    for _ in range(4):
        c = (rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)) * scale
        c[~grid.dealias_keep] = 0.0
        rows.append(hermitian_part(grid, c))
    return np.array(rows)


def cross_value(system, j1, j2, l, m):
    """Extract the (l, m) interaction coefficient from the u_{j1} equation."""
    grid = system.grid
    a = np.zeros((4, grid.n_points), dtype=complex)
    b = np.zeros((4, grid.n_points), dtype=complex)
    a[COMPONENT_INDEX[-1], grid.mode_index(l)] = 1.0
    b[COMPONENT_INDEX[j2], grid.mode_index(m)] = 1.0
    cross = (system.full_nonlinear(a + b) - system.full_nonlinear(a)
             - system.full_nonlinear(b))
    return cross[COMPONENT_INDEX[j1], grid.mode_index(l + m)]


def test_component_layout():
    assert COMPONENT_INDEX == {-1: 0, 1: 1, -2: 2, 2: 3}
    st = np.array([np.full(4, i) for i in range(4)], dtype=complex)
    assert st.shape == (4, 4)
    assert st[2, 0] == 2.0 + 0j


def test_nonlinearity_zero_mode_vanishes_exactly():
    # every quadratic term is a full derivative, so k=0 output is identically 0
    rng = np.random.default_rng(11)
    system = TruncatedSystem(GRID, BOND)
    for _ in range(5):
        state = random_real_state(rng)
        n = system.nonlinear(half_spectrum(state))
        assert np.max(np.abs(n[:, 0])) == 0.0
        assert np.max(np.abs(system.full_nonlinear(state)[:, 0])) == 0.0


def test_nonlinearity_preserves_reality():
    rng = np.random.default_rng(3)
    system = TruncatedSystem(GRID, BOND)
    state = random_real_state(rng, scale=0.05)
    n = system.full_nonlinear(state)
    for row in n:
        flipped = np.conj(row[GRID._conjugate_index])
        assert np.max(np.abs(row - flipped)) < 1e-13 * max(1.0, np.max(np.abs(row)))


def test_nonlinearity_is_homogeneous_quadratic():
    rng = np.random.default_rng(5)
    system = TruncatedSystem(GRID, BOND)
    state = half_spectrum(random_real_state(rng))
    n1 = system.nonlinear(state)
    n3 = system.nonlinear(3.0 * state)
    assert np.allclose(n3, 9.0 * n1, rtol=1e-12, atol=1e-18)


def test_cross_part_is_symmetric_bilinear():
    rng = np.random.default_rng(8)
    system = TruncatedSystem(GRID, BOND)
    a = half_spectrum(random_real_state(rng))
    b = half_spectrum(random_real_state(rng))

    def cross(x, y):
        return system.nonlinear(x + y) - system.nonlinear(x) - system.nonlinear(y)

    ab = cross(a, b)
    ba = cross(b, a)
    assert np.max(np.abs(ab - ba)) < 1e-14
    # bilinearity in the first argument
    lhs = cross(2.5 * a, b)
    assert np.max(np.abs(lhs - 2.5 * ab)) < 1e-11


def test_linear_symbols_signs():
    system = TruncatedSystem(GRID, 0.07)
    w = omega(GRID.wavenumbers, 0.07)
    expected = np.array([-1j * w, 1j * w, -1j * w, 1j * w])
    assert np.array_equal(system.linear_symbols, expected)


def test_full_rhs_splits_into_linear_plus_nonlinear():
    rng = np.random.default_rng(2)
    system = TruncatedSystem(GRID, BOND)
    state = random_real_state(rng)
    total = system.full_rhs(state)
    assert np.allclose(total, system.linear_symbols * state + system.full_nonlinear(state),
                       rtol=0, atol=0)


@pytest.mark.parametrize(
    "j1,j2,l,m,b,expected",
    [
        (-1, -1, 2.0, 3.0, 0.1, CROSS_M1_M1_L2_M3_B01),
        (1, -1, 2.0, 3.0, 0.1, CROSS_P1_M1_L2_M3_B01),
        (-1, 1, -5.0, 2.0, 0.1, CROSS_M1_P1_LM5_M2_B01),
        (-1, -1, 2.0, -7.0, 0.25, CROSS_M1_M1_L2_MM7_B025),
    ],
)
def test_first_block_cross_against_frozen_oracle(j1, j2, l, m, b, expected):
    system = TruncatedSystem(GRID, b)
    val = cross_value(system, j1, j2, l, m)
    assert val == pytest.approx(expected, abs=1e-12)


def test_cross_values_purely_imaginary():
    system = TruncatedSystem(GRID, 0.18)
    for (j1, j2, l, m) in [(-1, -1, 4.0, 9.0), (1, 1, -3.0, 11.0), (-2, 2, 6.0, -2.0)]:
        v = cross_value(system, j1, j2, l, m)
        assert abs(v.real) < 1e-13 * max(abs(v), 1.0)


def slaved_state(rng, grid, b, scale=1e-2):
    """First-block pair plus the second block built from the constraint map."""
    siginv = sigma_inv(grid.wavenumbers, b).astype(complex)
    K0 = k0_symbol(grid.wavenumbers)
    fields = []
    for _ in range(2):
        c = (rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)) * scale
        c[~grid.dealias_keep] = 0.0
        fields.append(hermitian_part(grid, c))
    u_m1, u_p1 = fields
    s1, d1 = u_m1 + u_p1, u_m1 - u_p1
    d2 = ik_power(grid, 2) * d1
    prod = product(grid, K0 * s1, siginv * d2)
    s2 = ik_power(grid, 2) * s1 - ik_power(grid, 1) * prod
    return np.array([u_m1, u_p1, 0.5 * (s2 + d2), 0.5 * (s2 - d2)])


def test_consistency_defect_vanishes_on_slaved_states():
    rng = np.random.default_rng(21)
    system = TruncatedSystem(GRID, BOND)
    state = slaved_state(rng, GRID, BOND)
    first, second = system.consistency_defect(state)
    assert np.max(np.abs(first)) < 1e-15
    assert np.max(np.abs(second)) < 1e-15


def test_slave_second_block_matches_the_field_route_and_batches():
    # the production map against the complex-transform route of
    # ``slaved_state``, and a stack of first blocks mapped row by row
    rng = np.random.default_rng(23)
    state = slaved_state(rng, GRID, BOND)
    got = slave_second_block(GRID, state[:2], BOND)
    assert got.shape == (2, GRID.n_points)
    assert np.max(np.abs(got - state[2:])) < 1e-14 * np.max(np.abs(state[2:]))
    other = random_real_state(rng)[:2]
    stacked = slave_second_block(GRID, np.array([state[:2], other]), BOND)
    assert stacked[0].tobytes() == got.tobytes()
    assert stacked[1].tobytes() == slave_second_block(GRID, other, BOND).tobytes()


def test_consistency_defect_detects_unslaved_state():
    rng = np.random.default_rng(22)
    system = TruncatedSystem(GRID, BOND)
    state = random_real_state(rng, scale=0.1)
    first, second = system.consistency_defect(state)
    assert np.max(np.abs(first)) > 1e-4


def test_bond_number_validation():
    with pytest.raises(ValueError):
        TruncatedSystem(GRID, -0.01)


def test_asymmetric_extra_keep_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedSystem(GRID, BOND, extra_keep=GRID.wavenumbers > 0)


# ---------------------------------------------------------------------------
# equivalence with the term-by-term evaluation
# ---------------------------------------------------------------------------


def reference_nonlinear(grid, b, keep, state, dtype=np.complex128):
    """Frozen term-by-term nonlinearity: one transform per precursor and per
    product, with the commutator and flat pieces formed separately.

    ``dtype=np.clongdouble`` evaluates the same tables and products in
    extended precision (numpy >= 2 transforms long doubles natively).
    """
    real = np.finfo(dtype).dtype
    n = grid.n_points
    k = grid.wavenumbers.astype(real)
    ik = 1j * k
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_ik = np.where(k != 0.0, 1.0 / (1j * k), 0.0 + 0.0j)
    inv_ik2 = inv_ik**2
    K0 = -1j * np.tanh(k)
    sig = sigma(grid.wavenumbers, b).astype(dtype)
    sig_inv = 1.0 / sig
    opk = 1.0 + K0**2

    def phys(c):
        return np.fft.ifft(c) * n

    def coeff(p):
        out = np.fft.fft(p) / n
        out[~keep] = 0.0
        return out

    u_m1, u_p1, u_m2, u_p2 = np.asarray(state, dtype=dtype)
    s1, d1 = u_m1 + u_p1, u_m1 - u_p1
    s2, d2 = u_m2 + u_p2, u_m2 - u_p2

    P_s1 = phys(s1)
    P_K0s1 = phys(K0 * s1)
    P_sid1 = phys(sig_inv * d1)
    P_um2 = phys(u_m2)
    P_up2 = phys(u_p2)
    P_d2 = phys(d2)
    P_sid2 = phys(sig_inv * d2)
    P_ia2s2 = phys(inv_ik2 * s2)
    P_ia1s2 = phys(inv_ik * s2)
    P_K0ia1s2 = phys(K0 * inv_ik * s2)
    P_K0iasid2 = phys(K0 * inv_ik * sig_inv * d2)
    P_iasid2 = phys(inv_ik * sig_inv * d2)
    P_K0sid2a = phys(K0 * sig_inv * ik * d2)

    pr_sid1_s1 = coeff(P_sid1 * P_s1)
    even1 = -0.25 * ik * coeff(P_s1 * P_s1) + 0.25 * ik * coeff(P_K0s1 * P_K0s1)
    comm1 = 0.5 * ik * sig * K0 * (K0 * pr_sid1_s1 - coeff(P_sid1 * P_K0s1))
    flat1 = 0.5 * ik * sig * opk * pr_sid1_s1

    pr_sid1_ia1s2 = coeff(P_sid1 * P_ia1s2)
    pr_iasid2_ia1s2 = coeff(P_iasid2 * P_ia1s2)
    comm_sig = sig * coeff(P_ia2s2 * P_sid2) - coeff(P_ia2s2 * P_d2)
    shared2 = (0.5 * ik * coeff(P_K0iasid2 * P_sid2)
               - 0.5 * b * ik * coeff(P_sid2 * P_K0sid2a)
               - 0.5 * ik * coeff(P_ia1s2 * P_ia1s2)
               + 0.5 * ik * coeff(P_K0ia1s2 * P_K0ia1s2))
    comm2 = 0.5 * ik * ik * sig * K0 * (K0 * pr_sid1_ia1s2
                                        - coeff(P_sid1 * P_K0ia1s2))
    flat2 = 0.5 * ik * ik * sig * opk * pr_sid1_ia1s2
    comm3 = 0.5 * ik * sig * K0 * (K0 * pr_iasid2_ia1s2
                                   - coeff(P_iasid2 * P_K0ia1s2))
    flat3 = 0.5 * ik * sig * opk * pr_iasid2_ia1s2

    n_m2 = (-ik * coeff(P_ia2s2 * P_um2) - 0.5 * ik * comm_sig + shared2
            + comm2 - flat2 + comm3 - flat3)
    n_p2 = (-ik * coeff(P_ia2s2 * P_up2) + 0.5 * ik * comm_sig + shared2
            - comm2 + flat2 - comm3 + flat3)
    return np.array([even1 + comm1 - flat1, even1 - comm1 + flat1, n_m2, n_p2])


#: the extended-precision reference needs a long double wider than float64
#: and transforms that keep it (numpy >= 2)
LONG_DOUBLE_FFT = (
    np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    and np.fft.fft(np.zeros(4, dtype=np.clongdouble)).dtype == np.clongdouble)


def reference_rtol(n, b, kind):
    """Bound on max|out - reference| / max|reference| for one case.

    1e-13 against the float64 reference, except where no float64 evaluation
    with its own rounding meets it.  At n = 4096 with b > 0 the product sums
    are ~25x the output and cancel (the K0^2 -> -1 identity) under
    multipliers up to |k^2 sigma| ~ 1e7: the float64 reference is itself up
    to 8.1e-13 of the maximum away from its long-double evaluation, and the
    half layout up to 8.7e-13.  At n = 1024, b = 0.3 the polarization adds
    the errors of three calls: 1.2e-13 from the long-double value.  There the
    fixed bounds below hold against the long-double reference.
    """
    if n == 4096 and b > 0.0:
        return 2e-12
    if (n, b, kind) == (1024, 0.3, "complex"):
        return 3e-13
    return 1e-13


def assert_matches_reference(out, grid, b, keep, state, rtol=1e-13):
    """``out`` is within ``rtol`` of the maximum of the term-by-term
    reference, and its zero mode is exactly 0.  Bounds above 1e-13 compare
    with the reference in long double, or in float64 without long-double
    transforms."""
    dtype = np.clongdouble if rtol > 1e-13 and LONG_DOUBLE_FFT else np.complex128
    ref = reference_nonlinear(grid, b, keep, state, dtype)
    assert np.max(np.abs(out - ref)) <= rtol * np.max(np.abs(ref))
    assert np.all(out[:, 0] == 0.0)


def random_complex_state(rng, grid, scale=1e-2):
    n = grid.n_points
    state = (rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))) * scale
    state[:, ~grid.dealias_keep] = 0.0
    return state


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("b", [0.0, 0.05, 0.13, 0.3])
def test_nonlinear_matches_term_by_term_reference(n, b):
    # Hermitian states through the half layout, complex ones through the
    # polarization adapter
    grid = Grid1D(n_points=n, length=2 * np.pi)
    system = TruncatedSystem(grid, b)
    rng = np.random.default_rng(n + int(100 * b))
    hermitian = random_real_state(rng, grid)
    complex_state = random_complex_state(rng, grid)
    out = full_spectrum(system.nonlinear(half_spectrum(hermitian)), n)
    assert_matches_reference(out, grid, b, system.keep_mask, hermitian,
                             reference_rtol(n, b, "hermitian"))
    out = system.full_nonlinear(complex_state)
    assert_matches_reference(out, grid, b, system.keep_mask, complex_state,
                             reference_rtol(n, b, "complex"))


def test_nonlinear_matches_reference_on_band_restricted_mask():
    grid = Grid1D(n_points=1024, length=16 * np.pi)
    k = grid.wavenumbers
    band = np.abs(np.abs(k) - 2.0) <= 0.9
    system = TruncatedSystem(grid, 0.05, extra_keep=band)
    state = random_real_state(np.random.default_rng(4), grid)
    out = full_spectrum(system.nonlinear(half_spectrum(state)), grid.n_points)
    assert_matches_reference(out, grid, 0.05, system.keep_mask, state)


def test_nonlinear_batch_matches_single_calls():
    rng = np.random.default_rng(12)
    system = TruncatedSystem(GRID, BOND)
    batch = np.stack([half_spectrum(random_real_state(rng)) for _ in range(3)])
    out = system.nonlinear(batch)
    assert out.shape == batch.shape
    for state, row in zip(batch, out):
        assert np.array_equal(row, system.nonlinear(state))


def test_full_nonlinear_of_hermitian_state_is_nonlinear_exactly():
    # B = 0 exactly for a Hermitian input, so the polarization is exact
    system = TruncatedSystem(GRID, BOND)
    state = random_real_state(np.random.default_rng(13))
    half = system.nonlinear(half_spectrum(state))
    assert np.array_equal(system.full_nonlinear(state),
                          full_spectrum(half, GRID.n_points))


def test_nyquist_column_is_ignored_and_returned_zero():
    n = GRID.n_points
    rng = np.random.default_rng(14)
    system = TruncatedSystem(GRID, BOND)
    state = random_real_state(rng)
    with_nyquist = state.copy()
    with_nyquist[:, n // 2] = rng.normal(size=4)
    half = half_spectrum(with_nyquist)
    out = system.nonlinear(half)
    assert np.array_equal(out, system.nonlinear(half_spectrum(state)))
    assert np.all(out[:, n // 2] == 0.0)
    # the full-layout adapter follows the same convention, complex or not
    cplx = random_complex_state(rng, GRID)
    cplx_nyquist = cplx.copy()
    cplx_nyquist[:, n // 2] = rng.normal(size=4) + 1j * rng.normal(size=4)
    full = system.full_nonlinear(cplx_nyquist)
    assert np.array_equal(full, system.full_nonlinear(cplx))
    assert np.all(full[:, n // 2] == 0.0)


def test_nonlinear_is_one_batched_transform_each_way(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    system = TruncatedSystem(GRID, BOND)
    state = half_spectrum(random_real_state(np.random.default_rng(9)))
    system.nonlinear(state)  # build the cached tables outside the count
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    system.nonlinear(state)
    n = GRID.n_points
    # an unbatched state is one batch of one: 11 rows in, 8 rows out
    assert calls == [("irfft", (11, 1, n // 2)), ("rfft", (8, 1, n))]
    # the first block alone: 3 rows in, 3 rows out
    calls.clear()
    system.nonlinear(state[:2])
    assert calls == [("irfft", (3, 1, n // 2)), ("rfft", (3, 1, n))]


# ---------------------------------------------------------------------------
# the first block alone
# ---------------------------------------------------------------------------


def parent_nonlinear(system, state):
    """The four-component ``nonlinear`` as it was before the first block became
    a prefix of its product list: (s1, s2, d1, d2) order, 11 precursors
    unpacked by name, 8 product sums."""
    n = system.grid.n_points
    m = n // 2
    batch = state.shape[:-2]
    u = state[..., :m].reshape(-1, 4, m).swapaxes(0, 1)
    sd = np.array([u[0] + u[1], u[2] + u[3], u[0] - u[1], u[2] - u[3]])
    source = np.array([0, 0, 2, 1, 3, 1, 1, 1, 3, 3, 3])
    (P_s1, P_K0s1, P_sid1, P_s2, P_sid2, P_ia2s2, P_ia1s2, P_K0ia1s2,
     P_iasid2, P_K0iasid2, P_K0sid2a) = np.fft.irfft(
         system._pre[:, None, :] * sd[source], n, norm="forward")
    G = system._post[:, None, :] * np.fft.rfft(np.array([
        P_K0s1 * P_K0s1 - P_s1 * P_s1,
        P_sid1 * P_s1,
        P_sid1 * P_K0s1,
        P_K0iasid2 * P_sid2 - P_ia2s2 * P_s2 - P_ia1s2 * P_ia1s2
        + P_K0ia1s2 * P_K0ia1s2 - system.b * P_sid2 * P_K0sid2a,
        P_ia2s2 * P_sid2 + P_iasid2 * P_ia1s2,
        P_sid1 * P_ia1s2,
        P_iasid2 * P_K0ia1s2,
        P_sid1 * P_K0ia1s2,
    ]), norm="forward")
    E1, X1, E2, X2 = G[0], G[1] + G[2], G[3], G[4] + G[5] + G[6] + G[7]
    out = np.array([E1 - X1, E1 + X1, E2 - X2, E2 + X2])
    return out.swapaxes(0, 1).reshape(batch + (4, m + 1))


def first_block_systems():
    grid = Grid1D(n_points=1024, length=16 * np.pi)
    band = np.abs(np.abs(grid.wavenumbers) - 2.0) <= 0.9
    for b in (0.0, 0.05):
        for extra in (None, band):
            yield TruncatedSystem(grid, b, extra_keep=extra)


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_first_block_nonlinear_is_rows_0_1_of_the_four_row_call(batch):
    # the first block's products read only s1 and d1 and are the prefix of
    # the product list, so the 2-row call is the 4-row call's rows 0-1 bit
    # for bit, whatever the second block holds
    rng = np.random.default_rng(17)
    for system in first_block_systems():
        grid = system.grid
        state = np.array([half_spectrum(random_real_state(rng, grid, scale=0.1))
                          for _ in range(int(np.prod(batch)))]).reshape(
                              batch + (4, grid.n_points // 2 + 1))
        full = system.nonlinear(state)
        first = system.nonlinear(state[..., :2, :])
        assert first.shape == batch + (2, grid.n_points // 2 + 1)
        assert np.array_equal(first, full[..., :2, :])
        assert np.any(first != 0.0)


def test_four_row_nonlinear_is_bitwise_the_parent_product_list():
    rng = np.random.default_rng(18)
    for system in first_block_systems():
        grid = system.grid
        for batch in ((), (3,)):
            state = np.array([half_spectrum(random_real_state(rng, grid, scale=0.1))
                              for _ in range(int(np.prod(batch)))]).reshape(
                                  batch + (4, grid.n_points // 2 + 1))
            assert np.array_equal(system.nonlinear(state), parent_nonlinear(system, state))


@pytest.mark.parametrize("rows", [1, 3, 5, 8])
def test_nonlinear_refuses_other_row_counts(rows):
    system = TruncatedSystem(GRID, BOND)
    state = np.zeros((rows, GRID.n_points // 2 + 1), dtype=complex)
    with pytest.raises(ValueError, match=f"got {rows}"):
        system.nonlinear(state)


# ---------------------------------------------------------------------------
# the bound evaluator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("rows", [2, 4])
def test_bound_evaluator_is_bitwise_nonlinear_call_after_call(rows, batch):
    # one evaluator reused on different states gives each state's fresh
    # nonlinear(state) bit for bit, writes into out and leaves U alone
    rng = np.random.default_rng(21)
    for system in first_block_systems():
        grid = system.grid
        states = [np.array([half_spectrum(random_real_state(rng, grid, scale=0.1))[:rows]
                            for _ in range(int(np.prod(batch)))]).reshape(
                                batch + (rows, grid.n_points // 2 + 1))
                  for _ in range(2)]
        f = system.evaluator(rows, batch)
        out = np.empty_like(states[0])
        for state in (states[0], states[1], states[0]):
            before = state.copy()
            assert f(state, out) is out
            assert np.array_equal(out, system.nonlinear(state))
            assert np.array_equal(state, before)


def test_bound_evaluator_refuses_other_shapes():
    system = TruncatedSystem(GRID, BOND)
    m = GRID.n_points // 2
    f = system.evaluator(2)
    with pytest.raises(ValueError, match="bound to"):
        f(np.zeros((4, m + 1), dtype=complex), np.empty((2, m + 1), dtype=complex))
    with pytest.raises(ValueError, match="bound to"):
        f(np.zeros((3, 2, m + 1), dtype=complex), np.empty((3, 2, m + 1), dtype=complex))
    with pytest.raises(ValueError, match="bound to"):
        f(np.zeros((2, m + 1), dtype=complex), np.empty((2, m), dtype=complex))
    with pytest.raises(ValueError, match="got 3"):
        system.evaluator(3)


def test_nonlinear_results_never_share_memory():
    # each call binds its own buffers, so no result is a view of another's
    rng = np.random.default_rng(22)
    system = TruncatedSystem(GRID, BOND)
    state = half_spectrum(random_real_state(rng))
    batch = np.stack([state, half_spectrum(random_real_state(rng))])
    results = [system.nonlinear(state), system.nonlinear(state),
               system.nonlinear(state[:2]), system.nonlinear(batch)]
    for i, a in enumerate(results):
        assert not np.shares_memory(a, state) and not np.shares_memory(a, batch)
        for b in results[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(results[0], results[1])
