"""Resonance geometry: critical Bond numbers, zero structure, stability."""

import numpy as np
import pytest

from arcwave import resonance
from arcwave.dispersion import omega, omega_deriv
from arcwave.resonance import (
    ZERO_XTOL,
    Classification,
    CriticalBonds,
    ResonanceReport,
    critical_bonds,
    find_zeros,
    k1_of_b,
    r_hat,
    stability,
)
import resonance_oracle
from kernel_oracle import r_general
from resonance_oracle import (BOND_SWEEP_ANCHORS, find_zeros_linspace, inflection_points,
                              nonresonance_check, record_omega_arrays)

K0 = 2.0

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


def k1_band(k0: float, b: float, k1: float) -> float:
    """Width over which rounding flips r's sign around k1: four ulps of
    omega(k1) over r's slope there (see ``ZERO_XTOL``)."""
    slope = abs(omega_deriv(k1, b, 1) - omega_deriv(k1 - k0, b, 1))
    return 4 * np.finfo(float).eps * omega(k1, b) / slope


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
        benchmark's window: the same classification, zero and double-zero
        counts as the linspace scan, every zero within ZERO_XTOL."""
        k_max = 1.25 * k1_of_b(K0, b) + 5.0 if 0.0 < b < BONDS.b0 else 60.0
        got, ref = find_zeros(K0, b, k_max), find_zeros_linspace(K0, b, k_max)
        assert got.classification is ref.classification
        assert len(got.zeros) == len(ref.zeros)
        assert len(got.double_zeros) == len(ref.double_zeros)
        assert np.max(np.abs(np.subtract(got.zeros + got.double_zeros,
                                         ref.zeros + ref.double_zeros))) <= ZERO_XTOL

    def test_the_folds_fix_the_zeros_above_k0(self):
        """``find_zeros`` scans only [k0/2, k0] and takes the zero above k0
        from the folds: k1 when 0 < b < b0, none otherwise.  Against the
        linspace scan of the whole window, at k0 = 1, 2 and 3 on Bond
        numbers from 1e-3 to 0.35, at 0, through both folds, mid-band and (at
        k0 = 3) the third fold's pair: the same classification, zero and
        double-zero counts, every zero within ZERO_XTOL, k1 within
        ZERO_XTOL plus its rounding band."""
        for k0 in (1.0, 2.0, 3.0):
            bonds = critical_bonds(k0)
            bs = np.geomspace(1e-3, 0.35, 100).tolist() + [
                0.0, bonds.b0, bonds.b1, (bonds.b0 + bonds.b1) / 2, 0.1675, 0.1685]
            for b in bs:
                in_band = 0.0 < b < bonds.b0
                k_max = 1.25 * k1_of_b(k0, b) + 5.0 if in_band else 30.0 * k0
                got, ref = find_zeros(k0, b, k_max), find_zeros_linspace(k0, b, k_max)
                assert got.classification is ref.classification, (k0, b)
                assert len(got.zeros) == len(ref.zeros), (k0, b)
                assert len(got.double_zeros) == len(ref.double_zeros), (k0, b)
                assert (got.k1 is None) == (not in_band), (k0, b)
                tol = np.full(len(got.zeros), ZERO_XTOL)
                if in_band:
                    tol[-1] += k1_band(k0, b, got.k1)
                assert np.all(np.abs(np.subtract(got.zeros, ref.zeros)) <= tol), (k0, b)
                assert np.max(np.abs(np.subtract(got.double_zeros, ref.double_zeros)),
                              initial=0.0) <= ZERO_XTOL, (k0, b)

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
    def test_one_omega_call_of_302_points(self, monkeypatch, b, k_max):
        """Whatever k_max, the scan is one array call of omega on the 102
        aligned points from k0/2 to k0 + 0.01 and the s = 200 points below
        them; every other evaluation is scalar."""
        calls = record_omega_arrays(monkeypatch, resonance)
        find_zeros(K0, b, k_max)
        (grid,) = calls
        s = 200
        assert grid.size == 302
        assert grid[s] == pytest.approx(K0 / 2, abs=1e-12)
        assert grid[-1] == pytest.approx(K0 + 0.01, abs=1e-12)
        assert np.max(np.abs(grid[s:] - grid[:-s] - K0)) < 1e-9

    def test_far_k1_is_k1_of_b_within_its_rounding_band(self):
        """k1 ≈ 2146 at b = 1e-4 is defined only to about 7e-10: r's three
        omega terms are near 1e3 and its slope is 3.2e-4, so r changes sign
        about a hundred times across that width from rounding alone.  The
        zero solved on its aligned cell is ``k1_of_b``'s root to within four
        ulps of omega(k1) over the slope, not ZERO_XTOL."""
        b = 1e-4
        k1 = k1_of_b(K0, b)
        got = find_zeros(K0, b, 6000.0)
        assert got.classification is Classification.TWO_ZEROS
        assert got.zeros == (K0, got.k1)
        assert abs(got.k1 - k1) <= ZERO_XTOL + k1_band(K0, b, k1)
        assert k1_band(K0, b, k1) > 100 * ZERO_XTOL


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
        resonance.critical_bonds.cache_clear()
        resonance.k1_of_b.cache_clear()
        try:
            for k0 in (1.0, 2.0, 3.0):
                resonance.critical_bonds(k0)
            for b in (0.002, 0.01, 0.05, 0.1, 0.15, 0.2, 0.23, 0.25, 0.3):
                inflection_points(b)
                find_zeros(K0, b, 60.0 if b >= 0.01 else 300.0)
                if b < B0_K0_2:
                    k1_of_b(K0, b)
        finally:
            resonance.critical_bonds.cache_clear()
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
