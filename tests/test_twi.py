"""Triad amplitude system: closed-form coefficients, conservation, stability."""

import numpy as np
import pytest

from arcwave.twi import (
    TWICoeffs,
    TWIState,
    Trajectory,
    conserved_E,
    default_dt,
    integrate,
    m0_growth_factor,
    twi_coeffs,
)

K0 = 2.0
# frozen from the 30-digit mpmath cross kernel at the exact partner
# wavenumbers (scripts/derive_kernel_oracles.py); the closed-form symbol is
# evaluated at the same wavenumbers, so only rounding separates the two
RATIO_TABLE = {
    0.2: (2.49556787092591, -11.272797299870098),
    0.1: (4.3001037060984473, -3.4550553851902946),
    0.05: (6.723919885904251, -2.10793795661674),
    0.01: (24.414522841227662, -1.2219624208807104),
}
UNSTABLE_B = 1 / 4.25
UNSTABLE_K1 = 1.5763166784932528     # partner below k0: the mirror-pair zero
UNSTABLE_RATIO = 5.8412452797413008

SYNTH_STABLE = TWICoeffs(c0=1.0j, c1=-0.8j, c2=0.5j)    # ratio -1.6
SYNTH_UNSTABLE = TWICoeffs(c0=1.0j, c1=0.8j, c2=0.5j)   # ratio +1.6


@pytest.fixture(scope="module")
def coeffs_b02():
    return twi_coeffs(K0, RATIO_TABLE[0.2][0], 0.2)


@pytest.mark.parametrize("b", sorted(RATIO_TABLE))
def test_extracted_ratio_against_frozen_table(b):
    k1, expected = RATIO_TABLE[b]
    co = twi_coeffs(K0, k1, b)
    assert co.ratio() == pytest.approx(expected, rel=1e-12)


def test_unstable_partner_below_k0():
    co = twi_coeffs(K0, UNSTABLE_K1, UNSTABLE_B)
    assert co.ratio() == pytest.approx(UNSTABLE_RATIO, rel=1e-12)
    assert co.ratio() > 0


def test_triad_sums_to_zero_exactly(coeffs_b02):
    assert sum(coeffs_b02.triad) == 0.0
    assert coeffs_b02.resonance_defect < 1e-9


def test_coefficients_essentially_imaginary(coeffs_b02):
    for c in (coeffs_b02.c0, coeffs_b02.c1, coeffs_b02.c2):
        assert abs(c.real) < 1e-12 * abs(c)


def test_flipping_ell_conjugates_everything():
    k1 = RATIO_TABLE[0.2][0]
    plus = twi_coeffs(K0, k1, 0.2, ell=1)
    minus = twi_coeffs(K0, k1, 0.2, ell=-1)
    assert minus.c0 == pytest.approx(np.conj(plus.c0), abs=1e-14)
    assert minus.c1 == pytest.approx(np.conj(plus.c1), abs=1e-14)
    assert minus.c2 == pytest.approx(np.conj(plus.c2), abs=1e-14)
    assert minus.triad == tuple(-t for t in plus.triad)


def test_nonresonant_partner_warns():
    with pytest.warns(UserWarning, match="not resonant"):
        twi_coeffs(K0, 3.0, 0.2)


def test_trivial_partner_rejected():
    with pytest.raises(ValueError):
        twi_coeffs(K0, K0, 0.2)
    with pytest.raises(ValueError):
        twi_coeffs(K0, 0.0, 0.2)


def test_state_validation():
    with pytest.raises(ValueError):
        TWIState(A0=complex("nan"), A1=0j, A2=0j)


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------


def test_energy_conserved_along_trajectory(coeffs_b02):
    st = TWIState(A0=0.9 + 0.1j, A1=0.3 - 0.2j, A2=0.1 + 0.4j)
    traj = integrate(st, coeffs_b02, 1e-3, 50.0, sample_every=100)
    drift = np.max(np.abs(traj.E - traj.E[0])) / abs(traj.E[0])
    assert drift <= 1e-8
    assert traj.E[0] == pytest.approx(conserved_E(st, coeffs_b02))
    assert not traj.blew_up


def test_energy_nonnegative_in_stable_regime(coeffs_b02):
    assert coeffs_b02.ratio() < 0
    st = TWIState(A0=0.2j, A1=0.5 + 0j, A2=-0.3 + 0.1j)
    traj = integrate(st, coeffs_b02, 1e-3, 20.0, sample_every=50)
    assert np.all(traj.E >= 0)


def test_single_mode_subspaces_are_fixed_points(coeffs_b02):
    for st in (TWIState(A0=1.0 + 0j, A1=0j, A2=0j),
               TWIState(A0=0j, A1=0.7j, A2=0j),
               TWIState(A0=0j, A1=0j, A2=-0.4 + 0j)):
        traj = integrate(st, coeffs_b02, 1e-3, 5.0, sample_every=1000)
        final = traj.final_state()
        assert final.A0 == st.A0 and final.A1 == st.A1 and final.A2 == st.A2


def test_rk4_fourth_order_convergence():
    st = TWIState(A0=1.0 + 0j, A1=0.4 - 0.1j, A2=0.2 + 0.3j)
    ref = integrate(st, SYNTH_STABLE, 1e-4, 2.0).final_state()
    err = []
    for dt in (0.02, 0.01):
        fin = integrate(st, SYNTH_STABLE, dt, 2.0).final_state()
        err.append(abs(fin.A1 - ref.A1) + abs(fin.A2 - ref.A2))
    assert err[0] / err[1] == pytest.approx(16.0, rel=0.3)


def test_time_reversal(coeffs_b02):
    st = TWIState(A0=0.9 + 0.1j, A1=0.3 - 0.2j, A2=0.1 + 0.4j)
    fwd = integrate(st, coeffs_b02, 1e-3, 3.0)
    back = integrate(fwd.final_state(), coeffs_b02, -1e-3, 0.0)
    fin = back.final_state()
    assert abs(fin.A0 - st.A0) < 1e-8
    assert abs(fin.A1 - st.A1) < 1e-8
    assert abs(fin.A2 - st.A2) < 1e-8


def test_blowup_flagged():
    hot = TWICoeffs(c0=50.0 + 0j, c1=50.0 + 0j, c2=50.0 + 0j)  # ratio +1
    st = TWIState(A0=10.0 + 0j, A1=10.0 + 0j, A2=10.0 + 0j)
    traj = integrate(st, hot, 1e-2, 50.0)
    assert traj.blew_up
    assert traj.tau[-1] < 50.0


def test_default_dt_scales_inversely_with_amplitude():
    co = SYNTH_STABLE
    small = default_dt(TWIState(A0=0.1 + 0j, A1=0j, A2=0j), co)
    large = default_dt(TWIState(A0=10.0 + 0j, A1=0j, A2=0j), co)
    assert small == pytest.approx(100.0 * large)


def test_zero_dt_rejected(coeffs_b02):
    with pytest.raises(ValueError):
        integrate(TWIState(A0=1 + 0j, A1=0j, A2=0j), coeffs_b02, 0.0, 1.0)


@pytest.mark.parametrize("every", [0, -2])
def test_sample_every_below_one_is_refused(coeffs_b02, every):
    with pytest.raises(ValueError, match="sample_every"):
        integrate(TWIState(A0=1 + 0j, A1=0j, A2=0j), coeffs_b02, 1e-3, 0.01,
                  sample_every=every)


# --------------------------------------------------------------------------
# stability experiments
# --------------------------------------------------------------------------


def test_growth_iff_positive_ratio_synthetic():
    assert m0_growth_factor(SYNTH_UNSTABLE) >= 10.0
    assert m0_growth_factor(SYNTH_STABLE) < 10.0


def test_growth_iff_positive_ratio_extracted(coeffs_b02):
    # stable closed-form coefficients: perturbation stays pinned near delta
    assert m0_growth_factor(coeffs_b02) < 10.0
    unstable = twi_coeffs(K0, UNSTABLE_K1, UNSTABLE_B)
    assert m0_growth_factor(unstable) >= 10.0


def test_stable_perturbation_bounded_by_energy(coeffs_b02):
    # |A1|^2 <= E = delta^2 (1 - ratio) whenever ratio < 0
    delta = 1e-4
    bound = delta * np.sqrt(1.0 - coeffs_b02.ratio())
    factor = m0_growth_factor(coeffs_b02, delta=delta)
    assert factor * delta <= bound * (1.0 + 1e-6)
