"""Resonance geometry: critical Bond numbers, zero structure, stability."""

import math

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
        with pytest.raises(ValueError):
            find_zeros(K0, 1e-4, 100.0)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            find_zeros(K0, 0.2, 1.5)
        # past 500 000 points even a step of k0 is too many
        with pytest.raises(ValueError, match="scan points"):
            find_zeros(K0, 0.2, 2e6)

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

    def test_one_omega_call_on_the_aligned_grid(self, monkeypatch):
        """At b = 0.002 (k1 = 110) the scan is one array call of omega on the
        n aligned points below k_max, the s = 200 points below them and the
        pair (k_max - k0, k_max); every other evaluation is scalar."""
        b = 0.002
        k_max = 1.25 * k1_of_b(K0, b) + 5.0
        calls = record_omega_arrays(monkeypatch, resonance)
        find_zeros(K0, b, k_max)
        n = math.ceil((k_max - K0 / 2) / 0.01)
        assert [a.size for a in calls] == [n + 200 + 2]

    def test_point_cap_keeps_the_grid_aligned(self, monkeypatch):
        """b = 1e-4 with k_max = 6000 needs 600 000 points at step 0.01, so
        the cap coarsens the step to k0/s with a smaller whole s.  The grid
        still starts at k0/2, pairs each k with k - k0 exactly s points
        lower and ends at k_max.

        k1 ≈ 2146 is defined only to about 7e-10 here: r's three omega terms
        are near 1e3 and its slope is 3.2e-4, so r changes sign about a
        hundred times across that width from rounding alone.  The tolerance
        on k1 is four ulps of omega(k1) over the slope, not ZERO_XTOL."""
        b, k_max = 1e-4, 6000.0
        k1 = k1_of_b(K0, b)
        calls = record_omega_arrays(monkeypatch, resonance)
        got = find_zeros(K0, b, k_max)
        (x,) = calls
        assert x[-2:].tolist() == [k_max - K0, k_max]
        grid = x[:-2]
        h = grid[1] - grid[0]
        s = round(K0 / h)
        n = grid.size - s
        assert s < 200 and s * h == pytest.approx(K0, rel=1e-15)
        assert n + 1 <= 500_000
        assert np.max(np.abs(grid[s:] - grid[:n] - K0)) < 1e-9
        assert grid[s] == pytest.approx(K0 / 2, abs=1e-12)
        assert grid[-1] < k_max <= grid[-1] + h
        slope = abs(omega_deriv(k1, b, 1) - omega_deriv(k1 - K0, b, 1))
        assert abs(got.k1 - k1) <= ZERO_XTOL + 4 * np.finfo(float).eps * omega(k1, b) / slope
        assert got.classification is find_zeros_linspace(K0, b, k_max).classification


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
