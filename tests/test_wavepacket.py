"""Wave-packet realization: band placement, slaving, band masking, exact d/dt.

Most checks are structural identities that must hold to roundoff: reality of
the realized fields, the constraint relation between the blocks, covariance
under envelope phase rotation, exact support of a band-masked realization,
and — the sharpest one — agreement between the spectral index-shift
composition and a direct pointwise evaluation of the slow/fast product.
The time-derivative builder is cross-checked against a central finite
difference of the full construction, envelope evolution included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwave.dispersion import ModelParams
from arcwave.equations import TruncatedSystem, slave_second_block
from arcwave.nls import EnvelopeField, nls_coefficients, second_order_coefficients
from arcwave.spectral import Grid1D, full_spectrum, half_spectrum
from arcwave.wavepacket import (
    _HARMONICS,
    _band_coefficients,
    band_mask,
    build,
    first_block,
    second_order_corrections,
    wave_packet,
)
from fourier import mode_index
from packet_oracle import (build_time_derivative, carrier_halves, envelope_rhs,
                           full_layout_build, full_layout_first_block)

EPS = 0.1
PARAMS = ModelParams(k0=2.0, b=0.05)
CARRIER = Grid1D(2048, 2 * np.pi * 56)
ENVELOPE = Grid1D(256, EPS * CARRIER.length)
DELTA0 = 0.0999


def sech_envelope(chirp: float = 0.3) -> EnvelopeField:
    xi = ENVELOPE.alpha - ENVELOPE.length / 2
    return EnvelopeField(ENVELOPE, np.exp(1j * chirp * xi) / np.cosh(xi))


def random_envelope(grid: Grid1D, seed: int) -> EnvelopeField:
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    return EnvelopeField(grid, vals)


def per_mode_band(grid, env, profile, ell, j0, cg, t):
    """Carrier coefficients of one profile on harmonic ell, one complex
    scalar product per envelope mode."""
    g = np.fft.fft(profile) / env.n_points
    phases = np.exp(-1j * env.mode_numbers * grid.fundamental * cg * t)
    out = np.zeros(grid.n_points, dtype=complex)
    for idx, j in enumerate(env.mode_numbers):
        out[(ell * j0 + j) % grid.n_points] = g[idx] * phases[idx]
    return out


def band_by_band_first_block(packet, grid, t, lead, corrections):
    """The first block assembled one band at a time from per-mode loops;
    ``corrections`` is None or the (4, n_env) mean-flow and second-harmonic
    rows of u_{-1}, then of u_{+1}."""
    p = packet.params
    j0 = round(p.k0 / grid.fundamental)
    conj = grid._conjugate_index

    def band(profile, ell):
        return per_mode_band(grid, packet.A.grid, profile, ell, j0, p.cg, t)

    rows = np.zeros((2, grid.n_points), dtype=complex)
    carrier = band(lead, 1) * np.exp(-1j * p.omega0 * t)
    rows[0] += packet.eps * (carrier + np.conj(carrier[conj]))
    if corrections is not None:
        for row, (mean_profile, harm_profile) in zip(rows, corrections.reshape(2, 2, -1)):
            c = band(mean_profile, 0)
            mean = 0.5 * (c + np.conj(c[conj]))
            harm = band(harm_profile, 2) * np.exp(-2j * p.omega0 * t)
            row += packet.eps**2 * (mean + harm + np.conj(harm[conj]))
    return rows


def band_masked(packet, grid, t=0.0):
    """The half spectra of the packet's first block at t with the modes
    outside the DELTA0 bands zeroed, and the second block slaved to it."""
    first = build(packet, grid, t)[:2]
    first[:, ~band_mask(grid, packet.params.k0, DELTA0)] = 0.0
    return np.concatenate([first, slave_second_block(grid, first, packet.params.b)])


def assert_rows_real(rows, grid, rtol):
    """Each row's Hermitian defect max |c(-k) - conj(c(k))| is at most
    rtol * max(1, max |c|)."""
    for row in rows:
        scale = max(1.0, float(np.max(np.abs(row))))
        assert np.max(np.abs(row - np.conj(row[grid._conjugate_index]))) <= rtol * scale


class TestRealization:
    def test_zero_envelope_realizes_to_zero(self):
        packet = wave_packet(EnvelopeField(ENVELOPE, np.zeros(256, complex)),
                             EPS, PARAMS)
        assert np.all(build(packet, CARRIER, 0.0) == 0.0)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_band_scatter_is_bitwise_the_per_mode_loop(self, ell):
        """Each row on harmonic ell of a stacked assembly (one transform, one
        phase vector, one scatter) is bitwise the per-mode loop; stacks of
        one row, of five and of two times five are assembled alike."""
        rng = np.random.default_rng(ell)
        j0, cg, t = 112, 0.37, 2.9
        for shape in ((1,), (5,), (2, 5)):
            profiles = (rng.normal(size=shape + (256,))
                        + 1j * rng.normal(size=shape + (256,)))
            got = _band_coefficients(CARRIER, ENVELOPE, profiles, j0, cg, t)
            assert got.shape == shape + (CARRIER.n_points,)
            for index in np.ndindex(shape):
                if _HARMONICS[index[-1]] != ell:
                    continue
                want = per_mode_band(CARRIER, ENVELOPE, profiles[index], ell, j0, cg, t)
                assert got[index].tobytes() == want.tobytes()

    @pytest.mark.parametrize("corrections", [False, True])
    def test_realizations_are_bitwise_the_band_by_band_assembly(self, corrections):
        coeffs = nls_coefficients(PARAMS.k0, PARAMS.b)
        packet = wave_packet(sech_envelope(), EPS, PARAMS, corrections=corrections)
        a = packet.A.values
        sec = packet.profiles[1:] if corrections else None
        for t in (0.0, 1.3):
            first = band_by_band_first_block(packet, CARRIER, t, a, sec)
            first_half = half_spectrum(first)
            want = np.concatenate(
                [first_half, slave_second_block(CARRIER, first_half, PARAMS.b)])
            assert build(packet, CARRIER, t).tobytes() == want.tobytes()

            lead = per_mode_band(CARRIER, ENVELOPE, a, 1, 112, PARAMS.cg, t)
            lead = lead * np.exp(-1j * PARAMS.omega0 * t)
            want = np.array([lead, np.conj(lead[CARRIER._conjugate_index])])
            assert carrier_halves(packet, CARRIER, t).tobytes() == want.tobytes()

            # the chain rule of build_time_derivative, one band at a time
            a_tau = envelope_rhs(packet.A, coeffs.half_omega2, coeffs.nu)

            def d_dt(profile, profile_tau, ell):
                dxi = np.fft.ifft(1j * ENVELOPE.wavenumbers * np.fft.fft(profile))
                return (EPS**2 * profile_tau - EPS * PARAMS.cg * dxi
                        - 1j * ell * PARAMS.omega0 * profile)

            d_sec = None
            if corrections:
                c = second_order_coefficients(PARAMS.k0, PARAMS.b)
                mod2 = 2.0 * np.real(np.conj(a) * a_tau)
                sec_tau = [c.c_m0 * mod2, c.c_m2 * 2 * a * a_tau,
                           c.c_p0 * mod2, c.c_p2 * 2 * a * a_tau]
                d_sec = np.array([d_dt(g, g_tau, ell) for g, g_tau, ell
                                  in zip(sec, sec_tau, (0, 2, 0, 2))])
            du = band_by_band_first_block(packet, CARRIER, t, d_dt(a, a_tau, 1), d_sec)
            plus, minus = slave_second_block(
                CARRIER, half_spectrum(np.array([first + du, first - du])), PARAMS.b)
            want = np.concatenate([du, full_spectrum(0.5 * (plus - minus), CARRIER.n_points)])
            got = build_time_derivative(packet, CARRIER, t)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [0.0, 0.05])
    @pytest.mark.parametrize("corrections", [False, True])
    def test_half_spectra_are_bitwise_the_full_layout_columns(self, b, corrections):
        """``build`` returns the (4, n//2 + 1) half spectra: bitwise columns
        0..n/2 of ``first_block`` followed by the constraint map written out
        on the full layout."""
        params = ModelParams(k0=PARAMS.k0, b=b)
        packet = wave_packet(sech_envelope(), EPS, params, corrections=corrections)
        for t in (0.0, 1.3):
            got = build(packet, CARRIER, t)
            assert got.shape == (4, CARRIER.n_points // 2 + 1)
            want = half_spectrum(full_layout_build(packet, CARRIER, t))
            assert got.tobytes() == want.tobytes()

    def test_first_block_is_bitwise_the_full_layout_columns(self):
        """``first_block`` forms columns 0..n/2 only, bitwise those of the
        assembly on the full layout, for stacks of one, of five and of two
        times five profiles, and its lead band keeps the full layout."""
        packet = wave_packet(sech_envelope(), EPS, PARAMS)
        rng = np.random.default_rng(3)
        for shape in ((1,), (5,), (2, 5)):
            profiles = (rng.normal(size=shape + (256,))
                        + 1j * rng.normal(size=shape + (256,)))
            for t in (0.0, 1.3):
                rows, lead = first_block(packet, CARRIER, t, profiles)
                assert rows.shape == shape[:-1] + (2, CARRIER.n_points // 2 + 1)
                assert lead.shape == shape[:-1] + (CARRIER.n_points,)
                want = full_layout_first_block(packet, CARRIER, t, profiles)
                assert rows.tobytes() == half_spectrum(want).tobytes()

    def test_packet_profiles_are_read_only(self):
        packet = wave_packet(sech_envelope(), EPS, PARAMS)
        with pytest.raises(ValueError, match="read-only"):
            packet.A.values[0] = 1.0
        assert packet.profiles.shape == (5, ENVELOPE.n_points)
        assert np.array_equal(packet.profiles[0], packet.A.values)
        for row in range(5):
            with pytest.raises(ValueError, match="read-only"):
                packet.profiles[row, 3] = 0.0
        with pytest.raises(AttributeError):
            packet.profiles = np.zeros((5, ENVELOPE.n_points))

    def test_envelope_values_are_a_copy(self):
        values = sech_envelope().values.copy()
        field = EnvelopeField(ENVELOPE, values)
        values[0] = 7.0
        assert field.values[0] != 7.0
        assert values.flags.writeable

    def test_realized_fields_are_real(self):
        packet = wave_packet(sech_envelope(), EPS, PARAMS)
        u = build(packet, CARRIER, 0.6)
        assert u.shape == (4, CARRIER.n_points // 2 + 1)
        # build keeps columns 0..n/2 of this composition, which is lossless
        # only because its columns at -k are the conjugates of those at k
        assert_rows_real(full_layout_build(packet, CARRIER, 0.6), CARRIER, 1e-14)
        # of the half spectra only columns 0 and n/2 can be off
        assert_rows_real(full_spectrum(u, CARRIER.n_points), CARRIER, 1e-14)

    def test_carrier_halves_are_the_leading_band(self):
        """Row 1 is the conjugate flip of row 0, and eps times their sum is
        bitwise u_{-1} of a packet without corrections."""
        packet = wave_packet(sech_envelope(), EPS, PARAMS, corrections=False)
        halves = carrier_halves(packet, CARRIER, 0.6)
        assert halves.shape == (2, CARRIER.n_points)
        assert np.array_equal(halves[1], np.conj(halves[0][CARRIER._conjugate_index]))
        u_m1 = build(packet, CARRIER, 0.6)[0]
        assert half_spectrum(EPS * (halves[0] + halves[1])).tobytes() == u_m1.tobytes()

    def test_positive_component_needs_corrections(self):
        """Without the quadratic response there is nothing of order eps in u_{+1}."""
        bare = wave_packet(sech_envelope(), EPS, PARAMS, corrections=False)
        assert np.all(build(bare, CARRIER, 0.0)[1] == 0.0)

    def test_flat_envelope_places_carrier_modes_exactly(self):
        """A constant envelope excites only the five harmonic modes, with
        amplitudes readable straight off the quadratic-response coefficients."""
        c0 = 0.8 - 0.3j
        t = 0.7
        packet = wave_packet(EnvelopeField(ENVELOPE, np.full(256, c0)), EPS, PARAMS)
        u_m1, u_p1 = full_spectrum(build(packet, CARRIER, t)[:2], CARRIER.n_points)
        k0, w0 = PARAMS.k0, PARAMS.omega0
        c = second_order_coefficients(k0, PARAMS.b)
        def at(k):
            return mode_index(CARRIER, k)

        lead = EPS * c0 * np.exp(-1j * w0 * t)
        assert abs(u_m1[at(k0)] - lead) < 1e-15
        assert abs(u_m1[at(-k0)] - np.conj(lead)) < 1e-15
        assert abs(u_m1[at(0.0)] - EPS**2 * c.c_m0 * abs(c0) ** 2) < 1e-15
        harm = EPS**2 * c.c_m2 * c0**2 * np.exp(-2j * w0 * t)
        assert abs(u_m1[at(2 * k0)] - harm) < 1e-15
        assert abs(u_p1[at(0.0)] - EPS**2 * c.c_p0 * abs(c0) ** 2) < 1e-15
        harm_p = EPS**2 * c.c_p2 * c0**2 * np.exp(-2j * w0 * t)
        assert abs(u_p1[at(-2 * k0)] - np.conj(harm_p)) < 1e-15

        assert np.count_nonzero(u_m1) == 5
        assert np.count_nonzero(u_p1) == 3

    def test_two_scale_sampling_matches_direct_evaluation(self):
        """The index-shift/phase composition equals literally evaluating
        eps * A(eps*(alpha - cg t)) e^{i(k0 alpha - omega0 t)} + c.c."""
        t = 2.1
        A = random_envelope(ENVELOPE, 11)
        packet = wave_packet(A, EPS, PARAMS, corrections=False)
        u_m1 = full_spectrum(build(packet, CARRIER, t)[0], CARRIER.n_points)

        g = np.fft.fft(A.values) / ENVELOPE.n_points
        kappa = ENVELOPE.mode_numbers * CARRIER.fundamental
        slow = np.exp(1j * np.outer(CARRIER.alpha - PARAMS.cg * t, kappa)) @ g
        direct = EPS * slow * np.exp(1j * (PARAMS.k0 * CARRIER.alpha - PARAMS.omega0 * t))
        expected = 2.0 * direct.real
        values = (np.fft.ifft(u_m1) * CARRIER.n_points).real
        assert np.max(np.abs(values - expected)) < 1e-11


class TestSlaving:
    def test_realized_state_sits_on_constraint_manifold(self):
        system = TruncatedSystem(CARRIER, PARAMS.b)
        packet = wave_packet(sech_envelope(), EPS, PARAMS)
        for state in (build(packet, CARRIER, 0.3), band_masked(packet, CARRIER, 0.3)):
            d1_defect, d2_defect = system.consistency_defect(state)
            assert np.max(np.abs(d1_defect)) < 1e-15
            assert np.max(np.abs(d2_defect)) < 1e-15

    def test_block_difference_relation(self):
        packet = wave_packet(sech_envelope(), EPS, PARAMS, corrections=False)
        u_m1, u_p1, u_m2, u_p2 = build(packet, CARRIER, 0.0)
        rhs = (1j * half_spectrum(CARRIER.wavenumbers)) ** 2 * (u_m1 - u_p1)
        assert np.max(np.abs((u_m2 - u_p2) - rhs)) < 1e-16


class TestCorrections:
    def test_profiles_scale_quadratically(self):
        A = sech_envelope()
        doubled = EnvelopeField(ENVELOPE, 2.0 * A.values)
        small = second_order_corrections(A, PARAMS)
        big = second_order_corrections(doubled, PARAMS)
        assert small.shape == (4, ENVELOPE.n_points)
        assert np.array_equal(big, 4.0 * small)

    def test_gauge_covariance(self):
        """Rotating the envelope phase rotates each harmonic with its own
        multiplicity and leaves the mean flow untouched.  A band-limited
        envelope keeps the harmonic bands disjoint so the comparison is
        clean mode by mode."""
        phi = 0.7
        rng = np.random.default_rng(5)
        g = np.zeros(ENVELOPE.n_points, dtype=complex)
        narrow = np.abs(ENVELOPE.mode_numbers) <= 20
        g[narrow] = np.exp(2j * np.pi * rng.random(int(narrow.sum())))
        g[narrow] /= 1.0 + np.abs(ENVELOPE.mode_numbers[narrow]) ** 2
        A = EnvelopeField(ENVELOPE, np.fft.ifft(g) * ENVELOPE.n_points)
        rotated = EnvelopeField(ENVELOPE, A.values * np.exp(1j * phi))
        base = build(wave_packet(A, EPS, PARAMS), CARRIER, 0.0)
        rot = build(wave_packet(rotated, EPS, PARAMS), CARRIER, 0.0)
        k = half_spectrum(CARRIER.wavenumbers)
        lead = np.abs(k - PARAMS.k0) <= 0.5
        harm = np.abs(k - 2 * PARAMS.k0) <= 0.5
        mean = np.abs(k) <= 0.5
        for got, ref in zip(rot[:2], base[:2]):
            assert np.max(np.abs(got[lead] - np.exp(1j * phi) * ref[lead])) < 1e-13
            assert np.max(np.abs(got[harm] - np.exp(2j * phi) * ref[harm])) < 1e-13
            assert np.max(np.abs(got[mean] - ref[mean])) < 1e-13

    def test_corrections_flag(self):
        A = sech_envelope()
        assert wave_packet(A, EPS, PARAMS).profiles.shape == (5, ENVELOPE.n_points)
        assert wave_packet(A, EPS, PARAMS, corrections=False).profiles.shape == (
            1, ENVELOPE.n_points)


class TestTruncation:
    def test_support_is_exactly_the_band_union(self):
        u = band_masked(wave_packet(sech_envelope(), EPS, PARAMS), CARRIER)
        # The slaved block contains first-block products, so its support sits in
        # the doubled bands around harmonics up to |l| = 4 (up to the roundoff
        # scatter of the physical-space product).
        k = half_spectrum(CARRIER.wavenumbers)
        wide = np.zeros(k.size, dtype=bool)
        for ell in range(-4, 5):
            wide |= np.abs(k - ell * PARAMS.k0) <= 2 * DELTA0 + 1e-12
        for row in u[2:]:
            assert np.max(np.abs(row[~wide])) < 1e-17

    def test_truncation_tail_matches_spectral_prediction(self):
        """With corrections off, what the band mask removes is exactly the
        out-of-band leading modes; halving eps doubles the kept envelope band,
        so a |j|^{-5} envelope spectrum shrinks the discarded tail by ~2^{4.5}."""
        L_env = 2 * np.pi * 8
        env = Grid1D(256, L_env)
        rng = np.random.default_rng(3)
        g = (1.0 + np.abs(env.mode_numbers)) ** -5.0 * np.exp(
            2j * np.pi * rng.random(env.n_points))
        A = EnvelopeField(env, np.fft.ifft(g) * env.n_points)

        rel = {}
        for eps, n_carrier in ((0.1, 1024), (0.05, 2048)):
            carrier = Grid1D(n_carrier, L_env / eps)
            packet = wave_packet(A, eps, PARAMS, corrections=False)
            full = full_spectrum(build(packet, carrier, 0.0), n_carrier)
            cut = full_spectrum(band_masked(packet, carrier), n_carrier)

            diff = np.sqrt(sum(
                np.sum(np.abs(a - b) ** 2)
                for a, b in zip(full[:2], cut[:2])))
            dropped = np.abs(env.mode_numbers) * carrier.fundamental > DELTA0
            predicted = eps * np.sqrt(2.0 * np.sum(np.abs(g[dropped]) ** 2))
            assert abs(diff - predicted) < 1e-12 * predicted

            norm = np.sqrt(sum(np.sum(np.abs(row) ** 2) for row in full[:2]))
            rel[eps] = diff / norm

        ratio = rel[0.1] / rel[0.05]
        assert 2**4 < ratio < 2**5.5


class TestNesting:
    def test_envelope_length_must_nest(self):
        bad = EnvelopeField(Grid1D(256, 0.9 * EPS * CARRIER.length),
                            np.ones(256, complex))
        with pytest.raises(ValueError, match="nest"):
            build(wave_packet(bad, EPS, PARAMS), CARRIER, 0.0)

    def test_carrier_must_hold_k0(self):
        params = ModelParams(k0=2.3, b=0.05)
        with pytest.raises(ValueError, match="not a mode"):
            build(wave_packet(sech_envelope(), EPS, params), CARRIER, 0.0)

    def test_carrier_must_hold_shifted_bands(self):
        small = Grid1D(512, 2 * np.pi * 56)
        env = Grid1D(256, EPS * small.length)
        packet = wave_packet(EnvelopeField(env, np.ones(256, complex)), EPS, PARAMS)
        with pytest.raises(ValueError, match="too small"):
            build(packet, small, 0.0)

    def test_eps_range(self):
        with pytest.raises(ValueError, match="eps"):
            wave_packet(sech_envelope(), 0.0, PARAMS)
        with pytest.raises(ValueError, match="eps"):
            wave_packet(sech_envelope(), 1.0, PARAMS)


class TestTimeDerivative:
    def test_matches_central_difference(self):
        """d/dt of the realization = chain rule through carrier phase,
        transport, and the modulation equation; checked against a finite
        difference in which the envelope itself is advanced."""
        coeffs = nls_coefficients(PARAMS.k0, PARAMS.b)
        A = sech_envelope()
        h, t = 1e-4, 0.37

        def packet_at(dt):
            advanced = A.values + (EPS**2 * dt) * envelope_rhs(
                A, coeffs.half_omega2, coeffs.nu)
            return wave_packet(EnvelopeField(ENVELOPE, advanced), EPS, PARAMS)

        plus = build(packet_at(+h), CARRIER, t + h)
        minus = build(packet_at(-h), CARRIER, t - h)
        exact = half_spectrum(build_time_derivative(packet_at(0.0), CARRIER, t))
        for i in range(4):
            fd = (plus[i] - minus[i]) * (1.0 / (2.0 * h))
            assert np.max(np.abs(fd - exact[i])) < 1e-7

    def test_derivative_fields_are_real(self):
        packet = wave_packet(sech_envelope(), EPS, PARAMS)
        assert_rows_real(build_time_derivative(packet, CARRIER, 0.9), CARRIER, 1e-14)


class TestEnvelopeRHS:
    def test_plane_wave_formula(self):
        grid = Grid1D(128, 16.0)
        k = 3 * grid.fundamental
        A = EnvelopeField(grid, 0.7 * np.exp(1j * k * grid.alpha))
        got = envelope_rhs(A, half_omega2=0.4, nu=1.3)
        expected = (1j * 0.4 * -(k**2) + 1j * 1.3 * 0.7**2) * A.values
        # spectral leakage of the sampled exponential is amplified by k_max^2
        assert np.max(np.abs(got - expected)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.02, 0.4),
       with_corrections=st.booleans())
def test_random_packets_are_real_and_slaved(seed, eps, with_corrections):
    carrier = Grid1D(512, 2 * np.pi * 8)
    env = Grid1D(32, eps * carrier.length)
    packet = wave_packet(random_envelope(env, seed), eps, PARAMS,
                         corrections=with_corrections)
    u = build(packet, carrier, 0.25)
    system = TruncatedSystem(carrier, PARAMS.b)
    assert u.shape == (4, carrier.n_points // 2 + 1)
    assert_rows_real(full_layout_build(packet, carrier, 0.25), carrier, 1e-13)
    assert_rows_real(full_spectrum(u, carrier.n_points), carrier, 1e-13)
    d1_defect, d2_defect = system.consistency_defect(u)
    assert np.max(np.abs(d1_defect)) < 1e-12
    assert np.max(np.abs(d2_defect)) < 1e-12
