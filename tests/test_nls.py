"""Envelope coefficients and the split-step cubic Schrödinger solver."""

import numpy as np
import pytest

from arcwave.dispersion import omega_deriv
from arcwave.nls import (
    EnvelopeField,
    NLSCoeffs,
    Provenance,
    mass,
    nls_coefficients,
    second_order_coefficients,
    solve,
    soliton,
)
from arcwave.spectral import Grid1D

K0 = 2.0

# frozen from a 30-digit run of the same elimination with exact slope limits
NU_TABLE = {
    0.0: 0.12691483129976,
    0.01: -0.20089718631321,
    0.05: -2.6040667605493,
    0.1: -31.046919163015,
}
SECOND_ORDER_B001 = {
    "c_m2": 3.00082419927,
    "c_m0": -1.26328210748,
    "c_p2": 0.365447398006,
    "c_p0": -0.450387538674,
}
SECOND_ORDER_B005 = {
    "c_m2": 5.70909347269,
    "c_m0": -1.53030306575,
    "c_p2": 0.315267466213,
    "c_p0": -0.38294720038,
}
B_SECOND_HARMONIC = 0.11220496039122606

GRID = Grid1D(n_points=512, length=40.0)
SYNTH = NLSCoeffs(half_omega2=0.5, nu=1.0)


def l2(grid, values):
    return float(np.sqrt(grid.spacing * np.sum(np.abs(values) ** 2)))


@pytest.mark.parametrize("b,expected", sorted(NU_TABLE.items()))
def test_cubic_coefficient_frozen_table(b, expected):
    co = nls_coefficients(K0, b)
    assert co.nu == pytest.approx(expected, rel=1e-8)
    assert co.provenance is Provenance.QUADRATIC_TRUNCATED


def test_half_omega2_matches_finite_differences():
    co = nls_coefficients(K0, 0.0)
    h = 1e-5
    fd = (omega_deriv(K0 + h, 0.0, order=1) - omega_deriv(K0 - h, 0.0, order=1)) / (2 * h)
    assert co.half_omega2 == pytest.approx(fd / 2, abs=1e-6)


def test_sign_flip_between_zero_and_small_bond():
    # pure gravity: defocusing; a little capillarity flips the cubic sign
    assert nls_coefficients(K0, 0.0).nu > 0
    assert nls_coefficients(K0, 0.01).nu < 0


@pytest.mark.parametrize("b,table", [(0.01, SECOND_ORDER_B001), (0.05, SECOND_ORDER_B005)])
def test_second_order_responses_frozen(b, table):
    c = second_order_coefficients(K0, b)
    for key, val in table.items():
        assert c[key] == pytest.approx(val, rel=1e-7)


def test_second_order_coefficients_are_cached_and_read_only(monkeypatch):
    import arcwave.nls

    first = second_order_coefficients(K0, 0.07)

    def refuse(*args):
        raise AssertionError("a repeat call recomputed the coefficients")

    monkeypatch.setattr(arcwave.nls, "first_block_symbol", refuse)
    again = second_order_coefficients(K0, 0.07)
    assert again is first
    with pytest.raises(TypeError):
        again["c_m2"] = 0.0


def test_second_harmonic_resonance_refuses_with_condition_name():
    with pytest.raises(ValueError, match="2om"):
        nls_coefficients(K0, B_SECOND_HARMONIC)


def test_coeffs_validation():
    with pytest.raises(ValueError):
        NLSCoeffs(half_omega2=float("nan"), nu=1.0)
    user = NLSCoeffs(half_omega2=-0.1, nu=2.0)
    assert user.provenance is Provenance.USER_SUPPLIED


def test_envelope_field_validation():
    with pytest.raises(ValueError):
        EnvelopeField(GRID, np.zeros(17))
    bad = np.zeros(GRID.n_points, dtype=complex)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        EnvelopeField(GRID, bad)


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------


def test_linear_plane_wave_is_exact():
    K = 2 * np.pi / GRID.length * 8
    a0 = EnvelopeField(GRID, np.exp(1j * K * GRID.alpha))
    co = NLSCoeffs(half_omega2=0.5, nu=0.0)
    out = solve(a0, co, 1e-3, 1.0).final()
    exact = np.exp(1j * K * GRID.alpha) * np.exp(-1j * 0.5 * K**2)
    assert np.max(np.abs(out.values - exact)) <= 1e-10


def test_constant_envelope_is_pure_phase_rotation():
    a0 = EnvelopeField(GRID, np.full(GRID.n_points, 0.7 + 0j))
    out = solve(a0, SYNTH, 1e-3, 1.0).final()
    exact = 0.7 * np.exp(1j * SYNTH.nu * 0.49)
    assert np.max(np.abs(out.values - exact)) <= 1e-10


def test_soliton_round_trip():
    s0 = soliton(GRID, SYNTH, eta=1.0)
    out = solve(s0, SYNTH, 2.5e-4, 1.0).final()
    target = soliton(GRID, SYNTH, eta=1.0, tau=1.0)
    assert l2(GRID, out.values - target.values) <= 1e-6


def test_soliton_actually_solves_the_equation():
    # residual check by finite differences in tau and spectral in xi
    h = 1e-5
    sm = soliton(GRID, SYNTH, tau=-h).values
    s0 = soliton(GRID, SYNTH, tau=0.0).values
    sp = soliton(GRID, SYNTH, tau=+h).values
    dtau = (sp - sm) / (2 * h)
    k = GRID.wavenumbers
    d2 = np.fft.ifft(-(k**2) * np.fft.fft(s0))
    rhs = 1j * SYNTH.half_omega2 * d2 + 1j * SYNTH.nu * np.abs(s0) ** 2 * s0
    # the sech tail wraps at the domain edge; judge the equation inside
    assert np.max(np.abs((dtau - rhs)[50:-50])) < 1e-9


def test_soliton_needs_focusing_signs():
    with pytest.raises(ValueError):
        soliton(GRID, NLSCoeffs(half_omega2=0.5, nu=-1.0))


def test_mass_conserved():
    s0 = soliton(GRID, SYNTH)
    traj = solve(s0, SYNTH, 1e-3, 1.0, sample_every=200)
    masses = [GRID.spacing * np.sum(np.abs(s) ** 2) for s in traj.samples]
    assert np.max(np.abs(np.array(masses) - masses[0])) <= 1e-10


def test_strang_second_order():
    s0 = soliton(GRID, SYNTH)
    # keep only the final state of the 50 000-step reference
    ref = solve(s0, SYNTH, 1e-5, 0.5, sample_every=50_000).final().values
    errs = [l2(GRID, solve(s0, SYNTH, dt, 0.5).final().values - ref)
            for dt in (2e-3, 1e-3)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_phase_covariance():
    s0 = soliton(GRID, SYNTH)
    rotated = EnvelopeField(GRID, s0.values * np.exp(0.7j))
    a = solve(s0, SYNTH, 1e-3, 0.3).final().values
    b = solve(rotated, SYNTH, 1e-3, 0.3).final().values
    assert np.max(np.abs(b - a * np.exp(0.7j))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_names_the_step():
    # a huge cubic coefficient with a big amplitude overflows the phase
    wild = NLSCoeffs(half_omega2=0.5, nu=1e308)
    a0 = EnvelopeField(GRID, np.full(GRID.n_points, 1e80 + 0j))
    with pytest.raises((RuntimeError, ValueError), match="step|finite"):
        solve(a0, wild, 1e-3, 1.0)


def test_dtau_validation():
    s0 = soliton(GRID, SYNTH)
    with pytest.raises(ValueError):
        solve(s0, SYNTH, -1e-3, 1.0)


@pytest.mark.parametrize("every", [0, -2])
def test_sample_every_below_one_is_refused(every):
    # 0 used to divide by zero, and a negative interval ran as its absolute value
    with pytest.raises(ValueError, match="sample_every"):
        solve(soliton(GRID, SYNTH), SYNTH, 1e-3, 0.01, sample_every=every)
