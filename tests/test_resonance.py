"""Resonance geometry: critical Bond numbers, zero structure, stability."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from arcwave import resonance
from arcwave.dispersion import omega, omega_deriv
from arcwave.resonance import (
    Classification,
    CriticalBonds,
    ResonanceReport,
    critical_bonds,
    find_zeros,
    k1_of_b,
    q_hat,
    stability,
)
import resonance_oracle
from kernel_oracle import r_general
from resonance_oracle import (BOND_SWEEP_ANCHORS, find_zeros_linspace, inflection_points,
                              nonresonance_check, record_q_arrays)
from twi_oracle import r_hat

K0 = 2.0
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _import_script(name):
    """A module of ``scripts/``, imported with mpmath's global precision kept
    (each script sets its own on import)."""
    mp = pytest.importorskip("mpmath")
    dps = mp.mp.dps
    sys.path.insert(0, str(SCRIPTS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(SCRIPTS))
        mp.mp.dps = dps

# frozen against a 30-digit independent root-finder
B0_K0_2 = 0.2240838468714964
B1_K0_2 = 0.2396825653941108
K1_TABLE = {
    0.2: 2.49556787092591,
    0.1: 4.3001037060984473,
    0.05: 6.723919885904251,
    0.01: 24.414522841227662,
    0.005: 46.008408153368201,
    1e-4: 2145.6901942405879,
}
BONDS = critical_bonds(K0)
MIRROR_ZP = 1.5763166784932528   # b = 1/4.25
MIRROR_ZM = 0.42368332150674721
MIDBAND_ZP = 1.743326535374129   # b = (b0+b1)/2
INFLECTION_TABLE = {
    0.05: (2.35530786916, 4.74695259005),
    0.1: (1.84431146252, 3.79226457642),
    0.2: (1.26870904176, 3.12474171746),
    0.3: (0.647237363408, 2.76695969464),
}
B_CURVATURE_FLAT = 0.080808958177103266   # omega''(2, b) = 0
B_SECOND_HARMONIC = 0.11220496039122606   # omega(4, b) = 2*omega(2, b)

# frozen against 40-digit mpmath by scripts/derive_reference_values.py: (b0, b1)
# per carrier, the roots of omega'(k0, b) = 1 and 2 omega(k0/2, b) = omega(k0, b)
BONDS_TABLE = {
    0.1: (0.3329631283476913, 0.3330556482416613),
    0.3: (0.33001388190787956, 0.33084090045244385),
    0.5: (0.32418802425989396, 0.32644815365051927),
    1.0: (0.2984797821313382, 0.3065584392738852),
    1.25: (0.2811600572854652, 0.2924533432287147),
    2.0: (0.2240838468714964, 0.23968256539411076),
    2.5: (0.18990302137366058, 0.2019520625279437),
    3.0: (0.16184895826930168, 0.16697816029043128),
    3.3: (0.1478762904840614, 0.1482792786757008),
}
# k1 against 50-digit mpmath, frozen by scripts/derive_reference_values.py
# (``k1_table``): just below b0, keyed (k0, x) for b = b0 (1 - 10^-x) with
# b0 the correctly rounded root, as (b, k1); and at small b, keyed (k0, b)
# for b = 0.1 b0 and 1e-2 to 1e-5.  Each b is a float64's exact value
K1_BELOW_B0 = {
    (0.5, 5): (0.32418478237965137, 0.5001796146948179),
    (0.5, 6): (0.3241877000718697, 0.5000179672244269),
    (0.5, 7): (0.32418799184109154, 0.5000017967800332),
    (0.5, 8): (0.3241880210180137, 0.5000001796785809),
    (0.5, 9): (0.32418802393570595, 0.5000000179678633),
    (0.5, 10): (0.32418802422747517, 0.5000000017967862),
    (1.0, 5): (0.2984767973335169, 1.000092323712679),
    (1.0, 6): (0.2984794836515561, 1.000009233132755),
    (1.0, 7): (0.29847975228336, 1.0000009233208922),
    (1.0, 8): (0.29847977914654034, 1.0000000923321672),
    (1.0, 9): (0.2984797818328584, 1.0000000092332186),
    (1.0, 10): (0.29847978210149023, 1.0000000009233219),
    (1.25, 5): (0.28115724568489237, 1.2500768714019412),
    (1.25, 6): (0.28115977612540793, 1.250007687574997),
    (1.25, 7): (0.28116002916945954, 1.2500007687618473),
    (1.25, 8): (0.28116005447386466, 1.2500000768762283),
    (1.25, 9): (0.2811600570043052, 1.250000007687623),
    (1.25, 10): (0.2811600572573492, 1.2500000007687626),
    (2.0, 5): (0.2240816060330277, 2.000060815341033),
    (2.0, 6): (0.22408362278764954, 2.0000060817649357),
    (2.0, 7): (0.22408382446311173, 2.000000608178802),
    (2.0, 8): (0.22408384463065792, 2.000000060817904),
    (2.0, 9): (0.22408384664741257, 2.00000000608179),
    (2.0, 10): (0.22408384684908803, 2.000000000608179),
    (3.0, 5): (0.161847339779719, 3.0000647703889225),
    (3.0, 6): (0.16184879642034342, 3.000006477404738),
    (3.0, 7): (0.16184894208440587, 3.000000647744132),
    (3.0, 8): (0.1618489566508121, 3.0000000647744502),
    (3.0, 9): (0.16184895810745273, 3.000000006477445),
    (3.0, 10): (0.1618489582531168, 3.000000000647744),
}
K1_SMALL_B = {
    (0.5, 0.0324188024259894): 13.641449151547748,
    (0.5, 0.01): 42.16802011114932,
    (0.5, 0.001): 411.9268757337996,
    (0.5, 0.0001): 4108.871420209865,
    (0.5, 1e-05): 41078.244738519505,
    (1.0, 0.02984797821313382): 12.867328093696559,
    (1.0, 0.01): 35.54347924484521,
    (1.0, 0.001): 340.29459400748186,
    (1.0, 0.0001): 3386.6846562019655,
    (1.0, 1e-05): 33850.45226388924,
    (1.25, 0.028116005728546525): 12.55542574435713,
    (1.25, 0.01): 32.18629970309533,
    (1.25, 0.001): 303.79206455702837,
    (1.25, 0.0001): 3018.318868960906,
    (1.25, 1e-05): 30163.397310246073,
    (2.0, 0.022408384687149643): 12.286180643563497,
    (2.0, 0.01): 24.41452284122766,
    (2.0, 0.001): 217.58189579063972,
    (2.0, 0.0001): 2145.690194240588,
    (2.0, 1e-05): 21426.247375187468,
    (3.0, 0.016184895826930168): 12.978154369092412,
    (3.0, 0.01): 18.861047282614187,
    (3.0, 0.001): 152.32952817208903,
    (3.0, 0.0001): 1479.224069108254,
    (3.0, 1e-05): 14746.637905350633,
}
# the extra zero at b = b0 (1 + 1e-3), inside the last scan cell below k0
ZERO_PAST_B0 = {1.0: 0.9906805292311575, 2.0: 1.9938923394084769}
# (k0, b) with a zero within one of the linspace scan's 0.01 steps of k0,
# which that scan cannot see: the 40-digit mpmath zero, and find_zeros'
# classification.  At (0.3, 0.33) the zero is k1, 1.25e-3 above k0
NEXT_TO_K0 = {
    (0.3, 0.33): (0.30125483825365684, Classification.TWO_ZEROS),
    (2.2, 0.21): (2.1922999592032046, Classification.EXTRA_ZERO_PAIR),
}


def assert_matches_linspace(got, ref, k0: float, b: float) -> None:
    """The linspace scan's classification, zero and double-zero counts, and
    its zeros up to k0 and double zeros within 1e-12.  Its k1 carries r's
    rounding band and is not compared; the frozen tables check k1_of_b's
    against mpmath.  At b1 the scan lists a Brent root beside its double
    zero k0/2 (1.2e-7 from it at k0 = 1), so there the zeros are not
    compared: ``test_the_double_zero_at_b1_is_half_k0`` checks them."""
    assert got.classification is ref.classification, (k0, b)
    assert len(got.zeros) == len(ref.zeros), (k0, b)
    assert len(got.double_zeros) == len(ref.double_zeros), (k0, b)
    if b == critical_bonds(k0).b1:
        return
    below = [z for z in got.zeros if z <= k0], [z for z in ref.zeros if z <= k0]
    assert np.max(np.abs(np.subtract(below[0] + list(got.double_zeros),
                                     below[1] + list(ref.double_zeros))),
                  initial=0.0) <= 1e-12, (k0, b)


def test_r_hat_vanishes_at_k0_and_is_vectorized():
    ks = np.array([K0, 3.0, 0.7])
    vals = r_hat(ks, 0.17, K0)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)


def test_r_hat_zero_pairs_mirror_about_half_k0():
    # if z solves omega(z)+omega(k0-z)=omega(k0) then so does k0-z
    b = 1 / 4.25
    assert r_hat(MIRROR_ZP, b, K0) == pytest.approx(0.0, abs=1e-12)
    assert r_hat(K0 - MIRROR_ZP, b, K0) == pytest.approx(0.0, abs=1e-12)
    assert MIRROR_ZP + MIRROR_ZM == pytest.approx(K0, abs=1e-13)


def test_r_general_sign_conventions():
    b, k, l, m = 0.09, 3.1, 1.2, 1.9
    v = r_general(-1, -1, k, l, m, b)
    assert v.real == 0.0
    assert v.imag == pytest.approx(-omega(k, b) + omega(l, b) + omega(m, b), rel=1e-14)
    assert r_general(1, 1, k, l, m, b) == pytest.approx(
        1j * (omega(k, b) + omega(l, b) - omega(m, b)), rel=1e-14)


class TestCriticalBonds:
    def test_frozen_values(self):
        cb = critical_bonds(K0)
        assert cb.b0 == pytest.approx(B0_K0_2, abs=1e-12)
        assert cb.b1 == pytest.approx(B1_K0_2, abs=1e-12)

    def test_b0_is_group_velocity_matching(self):
        cb = critical_bonds(K0)
        assert omega_deriv(K0, cb.b0, order=1) - 1.0 == pytest.approx(0.0, abs=1e-10)

    def test_b1_is_half_k0_tangency(self):
        cb = critical_bonds(K0)
        assert 2 * omega(K0 / 2, cb.b1) - omega(K0, cb.b1) == pytest.approx(0.0, abs=1e-10)

    def test_ordering_invariant(self):
        cb = critical_bonds(3.0)
        assert 0.0 < cb.b0 < cb.b1 < 1 / 3

    def test_ordering_breaks_down_at_large_k0(self):
        # the two critical curves cross near k0 ~ 3.2; past that the b0<b1
        # ordering encoded in the dataclass no longer holds and construction
        # must refuse rather than hand back a misordered pair
        with pytest.raises(ValueError):
            critical_bonds(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalBonds(b0=0.25, b1=0.23)

    @pytest.mark.parametrize("k0", sorted(BONDS_TABLE))
    def test_closed_forms_match_mpmath(self, k0):
        """Within 4 ulps from k0 = 0.5 to 3.3 and 8 below, where the constant
        term of b0's quadratic is of order k0^4: summed as P^2 - 4 k0 T it
        would put b0 160 ulps off at k0 = 0.1."""
        got = critical_bonds(k0)
        for value, want in zip((got.b0, got.b1), BONDS_TABLE[k0]):
            assert abs(value - want) <= (4 if k0 >= 0.5 else 8) * np.spacing(want), (value, want)

    def test_no_root_finder(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("critical_bonds ran a root finder")

        monkeypatch.setattr(resonance, "_brentq", refuse)
        critical_bonds.cache_clear()
        try:
            assert critical_bonds(1.7).b0 < critical_bonds(1.7).b1
        finally:
            critical_bonds.cache_clear()


class TestK1:
    @pytest.mark.parametrize("b,expected", sorted(K1_TABLE.items()))
    def test_frozen_table(self, b, expected):
        assert k1_of_b(K0, b) == pytest.approx(expected, rel=1e-8)

    def test_small_bond_asymptote(self):
        # k1 ~ (2*omega(k0)/ (3*k0))^2 / b... checked through the frozen ratio
        b = 1e-4
        k1 = k1_of_b(K0, b)
        ratio = b * k1 * 9 * K0 / (4 * np.tanh(K0))
        assert ratio == pytest.approx(1.001590211, abs=1e-6)

    def test_repeat_call_returns_the_cached_root(self):
        k1_of_b.cache_clear()
        first = k1_of_b(K0, 0.03)
        hits = k1_of_b.cache_info().hits
        assert k1_of_b(K0, 0.03) == first
        assert k1_of_b.cache_info().hits == hits + 1

    @pytest.mark.parametrize("b", [0.0, 0.23, 0.5, -0.01])
    def test_domain_errors(self, b):
        # the cache keeps no failure: every call raises
        for _ in range(2):
            with pytest.raises(ValueError):
                k1_of_b(K0, b)

    def test_k1_actually_solves(self):
        k1 = k1_of_b(K0, 0.07)
        assert r_hat(k1, 0.07, K0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k0,x", sorted(K1_BELOW_B0))
    def test_just_below_b0(self, k0, x):
        """Within 1e-5 to 1e-10 relative below b0, k1 - k0 is 1.8e-4 down
        to 6e-10.  One Brent solve of q from k0, where q(k0) = omega'(k0)
        - 1 < 0, finds it within 1e-13 relative of mpmath (within 8e-14 at
        k0 = 0.5, where omega'' is small at b0)."""
        b, want = K1_BELOW_B0[k0, x]
        k1 = k1_of_b(k0, b)
        assert k1 > k0
        assert k1 == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_script_solver_just_below_b0_at_30_digits(self):
        """The scripts' one k1 solver, ``derive_reference_values.partner``,
        behind ``derive_kernel_oracles.nontrivial_zero`` and so behind the
        benchmark's reference k1, brackets q from a lower end that 30 digits
        tell apart from k0: it finds every k1 of the table within 1e-13."""
        mp = pytest.importorskip("mpmath")
        oracles = _import_script("derive_kernel_oracles")
        with mp.workdps(30):
            for (k0, x), (b, want) in sorted(K1_BELOW_B0.items()):
                for solve in (oracles.nontrivial_zero, oracles.partner):
                    k1 = float(solve(mp.mpf(k0), mp.mpf(b)))
                    assert k1 == pytest.approx(want, rel=0.0, abs=1e-13), (k0, x)

    @pytest.mark.parametrize("k0,b", sorted(K1_SMALL_B))
    def test_small_bond_table(self, k0, b):
        """Down to b = 1e-5 (k1 up to 4.1e4), where r's three omega terms
        are near omega(k1) and its slope near 0: q keeps k1 within 1e-13
        relative of mpmath."""
        assert k1_of_b(k0, b) == pytest.approx(K1_SMALL_B[k0, b], rel=1e-13, abs=0.0)

    def test_within_rounding_of_b0(self):
        """One ulp below b0 at k0 = 2 (the correctly rounded b0, 1 ulp below
        ``critical_bonds``'), q(k0) rounds to +2.2e-16, so k1 cannot be told
        from k0.  The rule is that of b0 itself: k1_of_b refuses and names
        the rounding, find_zeros reads the double zero at k0 and no k1, and
        stability finds no partner."""
        b0 = critical_bonds(K0).b0
        assert q_hat(K0, np.nextafter(b0, 0.0), K0) >= 0.0
        for b in (np.nextafter(b0, 0.0), b0):
            with pytest.raises(ValueError, match="outside the rounding of b0"):
                k1_of_b(K0, b)
            rep = find_zeros(K0, b, 60.0)
            assert (rep.zeros, rep.double_zeros, rep.k1) == ((K0,), (K0,), None)
            assert rep.classification is Classification.TANGENCY
            v = stability(K0, b)
            assert v.stable and v.ratio is None and "no resonant partner" in v.reason


class TestQ:
    def test_matches_mpmath_on_both_routes(self):
        """q = r/(k - k0) on both closed forms (|k - k0| below and above k0),
        at k0 its limit omega'(k0) - 1, and out to k = 1e5: within 1e-15 of
        50-digit mpmath relative to max(1, |q|), on the scalar route, and on
        the array route at the points within k0 of k0, the only ones it
        takes."""
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(50):
            for k0 in (0.3, 1.0, 2.0, 3.0):
                near = np.concatenate([np.linspace(k0 / 2, 1.9 * k0, 7), [k0]])
                far = [2 * k0, 50.0, 1e5]
                for b in (0.0, 1e-5, 0.05, 0.3):
                    def w(x):
                        x = mp.mpf(x)
                        return mp.sign(x) * mp.sqrt((abs(x) + b * abs(x) ** 3) * mp.tanh(abs(x)))

                    values = q_hat(near, b, k0).tolist() + [None] * len(far)
                    for k, value in zip(near.tolist() + far, values):
                        want = float(mp.diff(w, k0) - 1 if k == k0 else
                                     (w(k) - w(mp.mpf(k) - k0) - w(k0)) / (mp.mpf(k) - k0))
                        for got in (value, q_hat(k, b, k0)):
                            if got is not None:
                                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst <= 1e-15

    def test_array_route_refuses_points_k0_from_k0(self):
        with pytest.raises(ValueError, match="within k0"):
            q_hat(np.array([1.5, 4.0]), 0.1, 2.0)
        with pytest.raises(ValueError, match="within k0"):
            q_hat(np.array([[2.0], [50.0]]), 0.1, 2.0)


class TestInflectionPoints:
    @pytest.mark.parametrize("b,expected", sorted(INFLECTION_TABLE.items()))
    def test_frozen_landmarks(self, b, expected):
        pts = inflection_points(b)
        assert pts.k3 == pytest.approx(expected[0], rel=1e-9)
        assert pts.k4 == pytest.approx(expected[1], rel=1e-9)
        assert omega_deriv(pts.k3, b, order=2) == pytest.approx(0.0, abs=1e-9)
        assert omega_deriv(pts.k4, b, order=3) == pytest.approx(0.0, abs=1e-9)

    def test_domain(self):
        for b in (0.0, 1 / 3, 0.4):
            with pytest.raises(ValueError):
                inflection_points(b)


class TestFindZeros:
    def test_subcritical_bond_two_zeros(self):
        rep = find_zeros(K0, 0.2, 60.0)
        assert rep.classification is Classification.TWO_ZEROS
        assert rep.k1 == pytest.approx(K1_TABLE[0.2], rel=1e-9)
        assert K0 in rep.zeros

    def test_tangency_at_k0(self):
        rep = find_zeros(K0, B0_K0_2, 60.0)
        assert rep.classification is Classification.TANGENCY
        assert any(abs(d - K0) < 1e-5 for d in rep.double_zeros)

    def test_tangency_at_half_k0(self):
        rep = find_zeros(K0, B1_K0_2, 60.0)
        assert rep.classification is Classification.TANGENCY
        assert any(abs(d - K0 / 2) < 1e-5 for d in rep.double_zeros)

    def test_extra_pair_in_critical_band(self):
        rep = find_zeros(K0, (B0_K0_2 + B1_K0_2) / 2, 60.0)
        assert rep.classification is Classification.EXTRA_ZERO_PAIR
        assert any(abs(z - MIDBAND_ZP) < 1e-8 for z in rep.zeros)

    def test_extra_pair_at_quarter_bond(self):
        rep = find_zeros(K0, 1 / 4.25, 60.0)
        assert rep.classification is Classification.EXTRA_ZERO_PAIR
        assert any(abs(z - MIRROR_ZP) < 1e-8 for z in rep.zeros)

    @pytest.mark.parametrize("b", [0.28, 0.33])
    def test_supercritical_only_trivial(self, b):
        rep = find_zeros(K0, b, 60.0)
        assert rep.classification is Classification.ONLY_K0
        assert rep.zeros == (K0,)
        assert rep.k1 is None

    def test_zero_lists_sorted_and_validated(self):
        rep = find_zeros(K0, 0.05, 60.0)
        assert list(rep.zeros) == sorted(rep.zeros)
        with pytest.raises(ValueError):
            ResonanceReport(k0=K0, b=0.05, zeros=(3.0, 2.0), double_zeros=(),
                            classification=Classification.TWO_ZEROS)
        with pytest.raises(ValueError):
            ResonanceReport(k0=K0, b=0.05, zeros=(K0,), double_zeros=(),
                            classification=Classification.TWO_ZEROS, k1=1.0)

    def test_unsettled_tail_raises(self):
        # at b=1e-4 the first nontrivial zero sits near k=2146; a window that
        # stops at 100 must refuse rather than report "no zeros"
        with pytest.raises(ValueError, match="lies beyond it"):
            find_zeros(K0, 1e-4, 100.0)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            find_zeros(K0, 0.2, 1.5)

    @pytest.mark.parametrize("k0,b,match", [
        (K0, -0.1, "finite and non-negative"),
        (K0, float("nan"), "finite and non-negative"),
        # the folds b0 < b1 exist only up to k0 ~ 3.3 (critical_bonds)
        (3.5, 0.1, "0 < b0 < b1 < 1/3"),
    ])
    def test_refusals(self, k0, b, match):
        with pytest.raises(ValueError, match=match):
            find_zeros(k0, b, 60.0)

    @pytest.mark.parametrize("b", BOND_SWEEP_ANCHORS + (
        BONDS.b0, BONDS.b1, (BONDS.b0 + BONDS.b1) / 2, 1 / 4.25))
    def test_aligned_scan_matches_the_linspace_reference(self, b):
        """The benchmark's anchors, both folds, mid-band and 1/4.25, with the
        benchmark's window: the linspace scan's structure and zeros up to k0
        (``assert_matches_linspace``)."""
        k_max = 1.25 * k1_of_b(K0, b) + 5.0 if 0.0 < b < BONDS.b0 else 60.0
        assert_matches_linspace(find_zeros(K0, b, k_max), find_zeros_linspace(K0, b, k_max), K0, b)

    def test_the_folds_fix_the_zeros_above_k0(self):
        """``find_zeros`` scans only [k0/2, k0] and takes the zero above k0
        from the folds: k1 when 0 < b < b0, none otherwise.  Against the
        linspace scan of the whole window, at k0 = 1, 2 and 3 on Bond
        numbers from 1e-3 to 0.35, at 0, through both folds, mid-band and (at
        k0 = 3) the third fold's pair: its structure and zeros up to k0
        (``assert_matches_linspace``), and k1 that of ``k1_of_b``."""
        for k0 in (1.0, 2.0, 3.0):
            bonds = critical_bonds(k0)
            bs = np.geomspace(1e-3, 0.35, 100).tolist() + [
                0.0, bonds.b0, bonds.b1, (bonds.b0 + bonds.b1) / 2, 0.1675, 0.1685]
            for b in bs:
                in_band = 0.0 < b < bonds.b0
                k_max = 1.25 * k1_of_b(k0, b) + 5.0 if in_band else 30.0 * k0
                got = find_zeros(k0, b, k_max)
                assert_matches_linspace(got, find_zeros_linspace(k0, b, k_max), k0, b)
                assert got.k1 == (k1_of_b(k0, b) if in_band else None), (k0, b)

    @pytest.mark.parametrize("k0", [0.5, 1.0, 2.0, 2.5, 3.0])
    def test_the_double_zero_at_b1_is_half_k0(self, k0):
        """At b1 r(k0/2) = 0, and r'(k0/2) = 0 for every b, so k0/2 is a
        double zero: it is reported as itself in both tuples, with no Brent
        root beside it (the scan of r listed 0.5000001171879608 at k0 = 1).
        At k0 = 3 a zero of the third fold's pair sits at 2.72 besides."""
        rep = find_zeros(k0, critical_bonds(k0).b1, 30.0 * k0)
        assert rep.classification is Classification.TANGENCY
        (double,) = rep.double_zeros
        assert abs(double - k0 / 2) <= 1e-12
        assert [z for z in rep.zeros if abs(z - k0 / 2) < 1e-6] == [double]

    def test_third_fold_pair_inside_the_scan(self):
        """At k0 = 3 a third fold, inside (k0/2, k0), keeps two zeros there
        up to b ~ 0.1689, past b1 = 0.166978; the folds at k0/2 and k0 alone
        would miss them.  Both against 40-digit mpmath roots of r."""
        mp = pytest.importorskip("mpmath")
        k0, b = 3.0, 0.1675
        rep = find_zeros(k0, b, 90.0)
        assert critical_bonds(k0).b1 < b
        assert rep.classification is Classification.EXTRA_ZERO_PAIR
        assert rep.k1 is None and rep.double_zeros == ()
        with mp.workdps(40):
            def w(x):
                return mp.sign(x) * mp.sqrt((x + b * x**3) * mp.tanh(x))

            def r(k):
                return w(k) - w(k - k0) - w(mp.mpf(k0))

            want = [float(mp.findroot(r, mp.mpf(z))) for z in (1.82085, 2.67226)]
        assert rep.zeros[2] == k0
        assert np.max(np.abs(np.subtract(rep.zeros[:2], want))) <= 1e-9

    @pytest.mark.parametrize("b,k_max", [(0.2, 60.0), (0.002, 143.0), (0.28, 300.0),
                                         (1e-4, 6000.0)])
    def test_one_q_array_call_of_101_points(self, monkeypatch, b, k_max):
        """Whatever k_max, the scan is one array call of q on the 101 points
        from k0/2 to k0 with k0 the last; every other evaluation is scalar."""
        calls = record_q_arrays(monkeypatch, resonance)
        find_zeros(K0, b, k_max)
        (grid,) = calls
        assert grid.size == 101
        assert (grid[0], grid[-1]) == (K0 / 2, K0)
        assert np.max(np.abs(np.diff(grid) - 0.01)) < 1e-12

    def test_far_k1_is_k1_of_b_within_its_rounding_band(self):
        """k1 ≈ 2146 at b = 1e-4: r's three omega terms are near 1e3 and its
        slope is 3.2e-4, so rounding alone flips r's sign about a hundred
        times over 7e-10 around k1.  q divides out k - k0 and sums no terms
        of size omega(k1), so its rounding band is a few ulps: the report
        takes ``k1_of_b``'s root as it is, within 1e-13 relative of mpmath."""
        b = 1e-4
        got = find_zeros(K0, b, 6000.0)
        assert got.classification is Classification.TWO_ZEROS
        assert got.zeros == (K0, got.k1)
        assert got.k1 == k1_of_b(K0, b)
        assert got.k1 == pytest.approx(K1_SMALL_B[K0, b], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k0", [0.5, 2.0])
    def test_no_false_tangency_next_to_b0(self, k0):
        """From 1e-5 down to 1e-13 relative of b0, r has two transversal
        zeros next to k0: k1 above it below b0, the extra zero below it
        above b0.  The scan of r counted the stationary point between them
        as a double zero, since |r| there fell under its absolute 1e-8;
        on q there is none until |q(k0)| is rounding, 1e-14 from b0."""
        b0 = critical_bonds(k0).b0
        for x in range(5, 14):
            for sign, cls in ((-1.0, Classification.TWO_ZEROS),
                              (1.0, Classification.EXTRA_ZERO_PAIR)):
                rep = find_zeros(k0, b0 * (1.0 + sign * 10.0**-x), 30.0 * k0)
                assert rep.classification is cls and rep.double_zeros == (), (x, sign)
                assert len(rep.zeros) == 2 and k0 in rep.zeros, (x, sign)

    @pytest.mark.parametrize("k0", [0.5, 1.0, 2.0, 2.3, 2.8, 3.1, 3.1999999999999997])
    def test_no_bracket_refused_within_ulps_of_the_folds(self, k0):
        """Within 8 ulps of b0 and of b1, q is at rounding level at the
        scan's last point k0 or its first k0/2, where numpy and ``math`` can
        round it to opposite signs: at k0 = 2.3, 2.8, 3.1 and 3.2 the array
        scan showed a sign change in an end cell whose ends the scalar route
        gives one sign, and Brent refused the bracket.  Brent gets only the
        cells that change sign on its own route, and the fold is reported as
        the double zero at k0 or at k0/2."""
        bonds = critical_bonds(k0)
        for fold, double in ((bonds.b0, k0), (bonds.b1, k0 / 2.0)):
            b = fold
            for _ in range(8):
                b = math.nextafter(b, 0.0)
            for _ in range(17):
                rep = find_zeros(k0, b, 100.0)
                assert rep.classification is Classification.TANGENCY, (fold, b)
                assert double in rep.double_zeros and rep.k1 is None, (fold, b)
                b = math.nextafter(b, 1.0)

    @pytest.mark.parametrize("k0", sorted(ZERO_PAST_B0))
    def test_zero_in_the_last_cell_below_k0(self, k0):
        """At b = b0 (1 + 1e-3) the extra zero sits 0.0061 (k0 = 2) and
        0.0093 (k0 = 1) below k0, inside the scan's last cell, where q(k0) =
        omega'(k0) - 1 > 0 brackets it.  It is found against 40-digit
        mpmath; the linspace scan of r misses it, so it is no reference
        here."""
        b = critical_bonds(k0).b0 * (1.0 + 1e-3)
        got = find_zeros(k0, b, 30.0 * k0)
        assert got.classification is Classification.EXTRA_ZERO_PAIR
        assert got.zeros[1] == k0 and got.k1 is None
        assert abs(got.zeros[0] - ZERO_PAST_B0[k0]) <= 1e-9

    @pytest.mark.parametrize("k0,b", sorted(NEXT_TO_K0))
    def test_zeros_next_to_k0_match_mpmath(self, k0, b):
        """A zero within 0.01 of k0: at (0.3, 0.33), 4e-5 below b0, it is
        k1, and r dips to -5.6e-10 between k0 and k1, where q is -2e-6, no
        double zero; at (2.2, 0.21), 1.3e-3 above b0, it is the extra zero
        below k0.  Against 40-digit mpmath, within 1e-12 relative: q's slope
        at the zero is only 1.4e-3 at (0.3, 0.33), so each ulp of q's
        rounding moves the zero by 5e-13 relative there."""
        zero, cls = NEXT_TO_K0[k0, b]
        in_band = 0.0 < b < critical_bonds(k0).b0
        got = find_zeros(k0, b, 1.25 * k1_of_b(k0, b) + 5.0 if in_band else 30.0 * k0)
        assert got.classification is cls and got.double_zeros == ()
        assert got.zeros == tuple(sorted((k0, got.zeros[got.zeros.index(k0) ^ 1])))
        other = got.zeros[got.zeros.index(k0) ^ 1]
        assert other == pytest.approx(zero, rel=1e-12, abs=0.0)
        assert got.k1 == (other if in_band else None)

    @pytest.mark.parametrize("k0", [0.3, 0.7, 1.1, 2.2, 2.7, 3.1])
    def test_other_carriers_match_the_linspace_reference(self, k0):
        """Carriers off the round ones above, on 36 Bond numbers from 0 to
        0.35: no Brent sign error, and the linspace scan's structure and
        zeros up to k0 (``assert_matches_linspace``), but at the two points
        of ``NEXT_TO_K0``, where the scan cannot see a zero within its step
        of k0 and ``test_zeros_next_to_k0_match_mpmath`` checks it."""
        bonds = critical_bonds(k0)
        for b in np.linspace(0.0, 0.35, 36).tolist():
            if (k0, b) in NEXT_TO_K0:
                continue
            in_band = 0.0 < b < bonds.b0
            k_max = 1.25 * k1_of_b(k0, b) + 5.0 if in_band else 30.0 * k0
            got = find_zeros(k0, b, k_max)
            assert_matches_linspace(got, find_zeros_linspace(k0, b, k_max), k0, b)
            assert got.k1 == (k1_of_b(k0, b) if in_band else None), (k0, b)


class TestStability:
    def test_subcritical_triad_is_stable(self):
        v = stability(K0, 0.2)
        assert v.stable
        assert v.ratio == pytest.approx(-11.272797299870098, rel=1e-12)
        assert v.characterization_agrees
        assert "triad" in v.reason

    def test_no_partner_branch(self):
        v = stability(K0, 0.3)
        assert v.stable
        assert v.ratio is None
        assert "no resonant partner" in v.reason

    def test_between_critical_bonds_uses_contract_branch(self):
        v = stability(K0, (B0_K0_2 + B1_K0_2) / 2)
        assert v.stable and v.ratio is None


class TestNonresonance:
    def test_clean_case(self):
        res = nonresonance_check(K0, 0.2)
        assert res.ok
        assert res.failures == ()
        assert set(res.margins) == {"nrb1", "nrb3", "nrb4"}
        assert all(m > 1e-9 for m in res.margins.values())

    def test_group_velocity_margin_closes_at_b0(self):
        res = nonresonance_check(K0, B0_K0_2)
        assert not res.ok
        assert "nrb1" in res.failures
        assert res.margins["nrb1"] < 1e-9

    def test_flat_curvature_bond(self):
        res = nonresonance_check(K0, B_CURVATURE_FLAT)
        assert not res.ok
        assert res.failures == ("nrb3",)

    def test_second_harmonic_resonance(self):
        res = nonresonance_check(K0, B_SECOND_HARMONIC)
        assert not res.ok
        assert "nrb4" in res.failures
        # the violating harmonic is m=2: omega(2*k0) = 2*omega(k0)
        assert abs(omega(2 * K0, B_SECOND_HARMONIC) - 2 * omega(K0, B_SECOND_HARMONIC)) < 1e-12

    def test_margin_values(self):
        res = nonresonance_check(K0, 0.2)
        assert res.margins["nrb1"] == pytest.approx(
            abs(omega_deriv(K0, 0.2, order=1) - 1.0), rel=1e-14)
        assert res.margins["nrb3"] == pytest.approx(
            abs(omega_deriv(K0, 0.2, order=2)), rel=1e-14)


class TestBrentPort:
    """The private Brent solver against ``scipy.optimize.brentq``."""

    @staticmethod
    def counted(f, calls):
        def g(x):
            calls.append(x)
            return f(x)
        return g

    def test_roots_and_evaluations_match_scipy_on_every_root_finder(self, monkeypatch):
        brentq = pytest.importorskip("scipy.optimize").brentq
        from arcwave import resonance

        port = resonance._brentq
        seen = []

        def both(f, a, b, **kw):
            ours, theirs = [], []
            root = port(self.counted(f, ours), a, b, **kw)
            ref = brentq(self.counted(f, theirs), a, b, **kw)
            assert root == ref
            assert ours == theirs  # same evaluation points, in the same order
            seen.append(len(ours))
            return root

        monkeypatch.setattr(resonance, "_brentq", both)
        monkeypatch.setattr(resonance_oracle, "_brentq", both)  # inflection_points
        # a warm cache would let these solves skip the comparison
        resonance.k1_of_b.cache_clear()
        try:
            for b in (0.002, 0.01, 0.05, 0.1, 0.15, 0.2, 0.23, 0.25, 0.3):
                inflection_points(b)
                find_zeros(K0, b, 60.0 if b >= 0.01 else 300.0)
                if b < B0_K0_2:
                    k1_of_b(K0, b)
            # both folds' brackets next to k0, and the third fold's pair
            for k0 in (1.0, 2.0):
                b0 = critical_bonds(k0).b0
                k1_of_b(k0, b0 * (1.0 - 1e-7))
                find_zeros(k0, b0 * (1.0 + 1e-3), 30.0 * k0)
            find_zeros(3.0, 0.1675, 90.0)
        finally:
            resonance.k1_of_b.cache_clear()
        assert len(seen) >= 30 and sum(seen) > 300

    def test_errors_match_scipy(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        from arcwave.resonance import _brentq

        cases = [
            (lambda x: x * x + 1.0, -1.0, 1.0, {}),            # no sign change
            (lambda x: np.cos(x) - x, 0.0, 1.0, {"maxiter": 2}),  # too few steps
            (lambda x: np.nan if x > 0.5 else -1.0, 0.0, 1.0, {}),
        ]
        def raised(solver, f, a, b, kw):
            try:
                solver(f, a, b, **kw)
            except (ValueError, RuntimeError) as err:
                return type(err), str(err)
            return None

        for f, a, b, kw in cases:
            expected = raised(brentq, f, a, b, kw)
            assert expected is not None
            assert raised(_brentq, f, a, b, kw) == expected
        # exact zeros at an end point return at once, as in scipy
        assert _brentq(lambda x: x, 0.0, 1.0) == brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
