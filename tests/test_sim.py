"""Tests for the time stepper and the modulation validation harness.

Monitored-run bounds (consistency drift, modified-energy plateau) were
measured once on the frozen protocol below and asserted with explicit
margins; the protocol is deterministic, so reruns reproduce the numbers.
"""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from arcwave.dispersion import omega_deriv, sigma, sigma_inv
from arcwave.equations import TruncatedSystem, default_system, slave_second_block
from arcwave.kernels import (default_params, first_block_symbol, n_hat, n_hat_table,
                             rho_hat, theta_inv_hat)
from arcwave.nls import EnvelopeField, nls_coefficients, solve as nls_solve
from arcwave import sim
from arcwave.sim import (
    ScanRow,
    ScanTemplate,
    SimConfig,
    SimState,
    consistency_residual,
    energy_diagnostic,
    error_scan,
    packet_initial_state,
    run,
    scan_grid_length,
)
from arcwave.spectral import Grid1D, full_spectrum, half_spectrum
from arcwave.wavepacket import build, wave_packet
from fourier import hermitian_part, ik_power, mode_index, state_from_matrix
from kernel_oracle import full_rhs, rho_extremes
from packet_oracle import full_layout_build, residual, residual_orders

K0 = 2.0
EPS = 0.1
BOND = 0.05
#: the error-scan template of the fast tests: horizon tau0/eps on n = 512
FAST_TEMPLATE = ScanTemplate(b=0.0, n=512, n_env=128, horizon="tau0_over_eps")


def random_state(grid, scale, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(4):
        c = (rng.normal(size=grid.n_points)
             + 1j * rng.normal(size=grid.n_points)) * scale
        c[~grid.dealias_keep] = 0.0
        rows.append(hermitian_part(grid, c))
    return state_from_matrix(grid, np.array(rows), t=0.0)


def sech_envelope_on(n, length):
    grid = Grid1D(n, length)
    xi = grid.alpha - length / 2.0
    return EnvelopeField(grid, (1.0 / np.cosh(xi)).astype(complex))


@pytest.fixture(scope="module")
def nls_coeffs():
    return nls_coefficients(K0, BOND)


@pytest.fixture(scope="module")
def monitored_run(nls_coeffs):
    """Packet run to t = 1/eps on the band-restricted system, with the
    envelope co-advanced; shared by the consistency and energy tests."""
    L = scan_grid_length(EPS, 12.0)
    config = SimConfig(eps=EPS, k0=K0, b=BOND, n=512, length=L, dt=0.04,
                       t_end=10.0, band_halfwidth=0.9)
    A = sech_envelope_on(128, EPS * L)
    packet = wave_packet(A, EPS, config.model, corrections=True)
    initial = packet_initial_state(packet, config)
    out = run(config, initial, sample_every=25)  # one sample per time unit
    envelopes = []
    A_now, prev_t = A, 0.0
    for s in out.samples:
        if s.t > prev_t:
            steps = round((s.t - prev_t) / config.dt)
            A_now = nls_solve(A_now, nls_coeffs, dtau=EPS**2 * config.dt,
                              tau_end=A_now.tau + EPS**2 * (s.t - prev_t),
                              sample_every=steps).final()
            prev_t = s.t
        envelopes.append(EnvelopeField(A.grid, A_now.values))
    return {"config": config, "packet": packet, "run": out,
            "envelopes": envelopes}


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def good_config(**overrides):
    kw = dict(eps=0.1, k0=2.0, b=0.05, n=128, length=8 * np.pi, dt=0.05,
              t_end=1.0)
    kw.update(overrides)
    return SimConfig(**kw)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(dt=0.0), "dt"),
        (dict(dt=-0.1), "dt"),
        (dict(t_end=-1.0), "t_end"),
        (dict(n=8), "grid too small"),
        (dict(length=-2.0), "length"),
        (dict(k0=1.7), "not a grid mode"),
        (dict(dt=float("nan")), "dt"),
        (dict(eps=0.0), "eps"),
        (dict(eps=1.5), "eps"),
        (dict(band_halfwidth=0.0), "band_halfwidth"),
        (dict(dt=float("inf")), "dt"),
        (dict(t_end=float("nan")), "t_end"),
        (dict(t_end=float("inf")), "t_end"),
    ],
)
def test_config_validation(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        good_config(**overrides)


def test_config_derived_objects():
    config = good_config(t_end=2.0, dt=0.05)
    assert config.n_steps == 40
    assert config.grid.n_points == 128
    assert config.system.b == 0.05
    # the band mask restricts the retained modes to the packet bands
    masked = good_config(band_halfwidth=0.5)
    k = masked.grid.wavenumbers
    keep = masked.system.keep_mask
    in_band = np.zeros_like(keep)
    for ell in range(-2, 3):
        in_band |= np.abs(k - ell * 2.0) <= 0.5
    assert not np.any(keep & ~in_band)
    assert np.all(keep[np.abs(k) <= 0.5])  # the mean band survives dealiasing


@pytest.mark.parametrize("shape", [(3, 64), (4, 32), (64,)])
def test_state_rejects_wrong_shape_matrix(shape):
    grid = Grid1D(64, 8 * np.pi)
    with pytest.raises(ValueError, match="shape"):
        state_from_matrix(grid, np.zeros(shape))
    with pytest.raises(ValueError, match="shape"):  # a half spectrum is (4, 33)
        SimState(grid, np.zeros(shape))


def test_state_matrix_is_a_read_only_copy():
    mat = np.zeros((4, 64), dtype=complex)
    state = state_from_matrix(Grid1D(64, 8 * np.pi), mat)
    mat[0, 1] = 1.0
    assert state.matrix[0, 1] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        state.matrix[0, 1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.half[0, 1] = 1.0


def test_state_refuses_a_matrix_that_is_not_real():
    # a state keeps columns 0..n/2 only, so columns at -k that are not the
    # conjugates of those at k would be dropped unread; round-off is let
    # through (the scan's packet composed in the full layout is off by 4e-19)
    grid = Grid1D(64, 8 * np.pi)
    real = random_state(grid, 1.0, seed=5).matrix
    for scale in (1.0, 1e-9):
        bad = scale * real
        bad[1, 60] += 0.25 * scale
        with pytest.raises(ValueError, match=rf"not real: .* by up to {0.25 * scale:.6g},"):
            state_from_matrix(grid, bad)
        off = scale * real
        off[1, 60] *= 1.0 + np.finfo(float).eps
        assert np.array_equal(state_from_matrix(grid, off).half, half_spectrum(off))
    config, packet, U0 = sim._scan_problem(0.2, ScanTemplate())
    full = full_layout_build(packet, config.grid, 0.0)
    full[:, ~config.system.keep_mask] = 0.0
    mirror = np.conj(full.take(config.grid._conjugate_index, axis=-1))
    assert 0.0 < np.max(np.abs(full - mirror)) < 1e-18
    assert np.array_equal(state_from_matrix(config.grid, full).half, U0)


def test_reality_defect_is_the_full_layout_formula():
    # columns 0 and n/2 are their own mirrors, so a half spectrum can still
    # carry imaginary parts there; the defect is the one measured on the
    # full layout, max over the half columns of |c(k) - conj(c(-k))|
    grid = Grid1D(64, 8 * np.pi)
    rng = np.random.default_rng(7)
    half = rng.normal(size=(4, 33)) + 1j * rng.normal(size=(4, 33))
    state = SimState(grid, half)
    mat = state.matrix
    flipped = np.conj(mat.take(half_spectrum(grid._conjugate_index), axis=-1))
    parent = float(np.max(np.abs(half_spectrum(mat) - flipped)))
    assert parent > 0.0
    assert state.reality_defect() == parent
    assert random_state(grid, 1.0, seed=5).reality_defect() == 0.0


def test_matrix_reads_are_fresh_read_only_expansions():
    state = random_state(Grid1D(64, 8 * np.pi), 1.0, seed=9)
    first, second = state.matrix, state.matrix
    assert first is not second and not np.shares_memory(first, second)
    for mat in (first, second):
        assert not mat.flags.writeable
        assert np.array_equal(mat, full_spectrum(state.half, 64))


def test_run_states_hold_only_their_half_spectrum():
    # the expansion is never cached on a state: after every sample's matrix
    # has been read, each state still holds its half spectrum alone, an
    # array that owns its memory
    config = good_config(n=128, dt=0.05, t_end=2.0)
    out = run(config, random_state(config.grid, 0.02, seed=31), sample_every=7)
    assert len(out.samples) == 7
    assert all(s.matrix.shape == (4, 128) for s in out.samples)
    for s in out.samples:
        arrays = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is s.half
        assert s.half.base is None and s.half.nbytes == 4 * (128 // 2 + 1) * 16


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def test_rhs_zero_state_is_zero():
    config = good_config()
    state = state_from_matrix(config.grid, np.zeros((4, config.n)))
    assert np.all(full_rhs(config.system, state.matrix) == 0.0)


@pytest.mark.parametrize("b", [0.0, 0.13])
def test_rhs_single_carrier_mode_matches_closed_form(b):
    # u_{-1} = cos(k0 alpha) alone: the quadratic output lives at 0 and
    # +-2k0 only, the mode-0 coefficient vanishes identically, and the
    # +-2k0 values equal the closed-form interaction symbol / 8 (two 1/2
    # mode amplitudes, symmetrized over the two slots).
    grid = Grid1D(256, 8 * np.pi)
    config = SimConfig(eps=0.1, k0=K0, b=b, n=256, length=8 * np.pi, dt=0.1,
                       t_end=0.0)
    U = np.zeros((4, 256), dtype=complex)
    U[0, mode_index(grid, K0)] = 0.5
    U[0, mode_index(grid, -K0)] = 0.5
    state = state_from_matrix(grid, U, 0.0)
    quad = full_rhs(config.system, state.matrix)
    quad -= config.system.linear_symbols * U  # strip the linear part

    assert np.max(np.abs(quad[:, 0])) == 0.0
    assert np.max(np.abs(quad[2:])) == 0.0  # second block untouched
    expected_m1 = first_block_symbol(-1, -1, K0, K0, b) / 8.0
    expected_p1 = first_block_symbol(1, -1, K0, K0, b) / 8.0
    assert quad[0, mode_index(grid, 2 * K0)] == pytest.approx(expected_m1, abs=1e-14)
    assert quad[1, mode_index(grid, 2 * K0)] == pytest.approx(expected_p1, abs=1e-14)
    off = np.ones(256, dtype=bool)
    for kk in (0.0, 2 * K0, -2 * K0):
        off[mode_index(grid, kk)] = False
    assert np.max(np.abs(quad[:2][:, off])) < 1e-13


def test_rhs_quadratic_part_scales_quadratically():
    config = good_config()
    state = random_state(config.grid, 1e-2, seed=17)
    lam = config.system.linear_symbols

    def quad(mat):
        return full_rhs(config.system, mat) - lam * mat

    q1 = quad(state.matrix)
    q3 = quad(3.0 * state.matrix)
    assert np.allclose(q3, 9.0 * q1, rtol=1e-12, atol=1e-18)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_linear_evolution_is_exact(monkeypatch):
    # with the quadratic terms switched off, each Lawson step is the exact
    # linear propagator; the march evaluates them through the evaluator it
    # binds, so that is where they are switched off
    def zero_evaluator(self, rows):
        def f(U, out):
            out[...] = 0.0
            return out
        return f

    monkeypatch.setattr(TruncatedSystem, "evaluator", zero_evaluator)
    config = good_config(n=256, dt=0.05, t_end=10.0, b=0.13)
    state = random_state(config.grid, 0.5, seed=3)
    out = run(config, state)
    exact = np.exp(config.system.linear_symbols * 10.0) * state.matrix
    assert np.max(np.abs(out.final.matrix - exact)) < 1e-10


def test_dt_self_convergence_is_fourth_order():
    grid = Grid1D(128, 8 * np.pi)
    state = random_state(grid, 0.05, seed=13)
    finals = {}
    for dt in (0.05, 0.025, 0.0125):
        config = good_config(dt=dt, t_end=1.0, b=0.13)
        finals[dt] = run(config, state).final.matrix
    e1 = np.max(np.abs(finals[0.05] - finals[0.025]))
    e2 = np.max(np.abs(finals[0.025] - finals[0.0125]))
    order = np.log2(e1 / e2)
    assert 3.7 <= order <= 4.3


def test_mode_zero_is_conserved_exactly():
    # omega(0) = 0 and the quadratic terms are exact derivatives, so the
    # mean of every component survives the step bit-for-bit.
    config = good_config(n=128, dt=0.05, t_end=2.0)
    state = random_state(config.grid, 0.02, seed=29)
    mat = state.matrix.copy()
    mat[:, 0] = np.array([0.125, -0.5, 0.25, 1.0])
    state = state_from_matrix(config.grid, mat, 0.0)
    out = run(config, state)
    assert np.array_equal(out.final.matrix[:, 0], mat[:, 0])


def test_run_samples_are_exactly_real_with_the_zero_mode_bitwise(monitored_run):
    # the loop carries half spectra and expands each sample by conjugation,
    # so samples are exactly Hermitian; the mean survives bit for bit, and
    # the inert Nyquist column keeps its value
    config = good_config(n=128, dt=0.05, t_end=2.0)
    mat = random_state(config.grid, 0.02, seed=31).matrix.copy()
    mat[:, 0] = np.array([0.125, -0.5, 0.25, 1.0])
    mat[:, 64] = np.array([0.5, -0.25, 0.125, 2.0])
    out = run(config, state_from_matrix(config.grid, mat, 0.0), sample_every=7)
    packet_run = monitored_run["run"]
    U0 = packet_run.samples[0].matrix
    for s in out.samples[1:]:
        assert s.reality_defect() == 0.0
        assert np.array_equal(s.matrix[:, [0, 64]], mat[:, [0, 64]])
    for s in packet_run.samples[1:]:
        assert s.reality_defect() == 0.0
        assert np.array_equal(s.matrix[:, 0], U0[:, 0])


def test_packet_initial_state_is_exactly_real(monitored_run):
    # the slaved second block is formed with real transforms
    state = packet_initial_state(monitored_run["packet"], monitored_run["config"])
    assert state.reality_defect() == 0.0


def test_packet_initial_state_holds_the_full_layout_columns(monitored_run):
    # the state wraps build's half spectra: bitwise columns 0..n/2 of the
    # packet composed in the full layout
    config = monitored_run["config"]
    state = packet_initial_state(monitored_run["packet"], config)
    want = half_spectrum(full_layout_build(monitored_run["packet"], config.grid, 0.0))
    assert state.half.tobytes() == want.tobytes()


def test_reality_preserved_over_many_steps():
    config = good_config(n=128, dt=0.01, t_end=5.0, b=0.13)
    state = random_state(config.grid, 1e-3, seed=7)
    out = run(config, state)
    assert out.final.reality_defect() < 1e-12


def test_run_sampling_semantics():
    config = good_config(n=64, dt=0.1, t_end=1.0)
    state = random_state(config.grid, 1e-3, seed=1)
    out = run(config, state, sample_every=3)
    assert config.n_steps == 10
    assert [round(s.t, 10) for s in out.samples] == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert np.array_equal(out.samples[-1].matrix, out.final.matrix)
    bare = run(config, state)
    assert len(bare.samples) == 2


@pytest.mark.parametrize("every", [-1, -3])
def test_negative_sample_every_is_refused(every):
    # a negative interval used to run as its absolute value
    config = good_config(n=64, dt=0.1, t_end=1.0)
    state = random_state(config.grid, 1e-3, seed=1)
    with pytest.raises(ValueError, match="sample_every"):
        run(config, state, sample_every=every)
    with pytest.raises(ValueError, match="sample_every"):
        next(sim._march(config.system, half_spectrum(state.matrix), 0.0,
                        config.dt, config.n_steps, every))


@pytest.mark.parametrize("b", [0.0, BOND])
def test_first_block_march_is_bitwise_rows_0_1_of_the_four_component_run(b):
    # the first block is autonomous, so marching it alone reproduces the
    # four-component run's rows 0-1 bit for bit at every sample, both from
    # a packet (second block slaved) and from a random state (not slaved)
    packet_config, _, U0 = sim._scan_problem(0.2, replace(FAST_TEMPLATE, b=b))
    random_config = good_config(b=b, t_end=2.0)
    cases = ((packet_config, SimState(packet_config.grid, U0, 0.0), 7),
             (random_config, random_state(random_config.grid, 0.02, seed=37), 3))
    for config, state, every in cases:
        out = run(config, state, sample_every=every)
        marched = list(sim._march(config.system, half_spectrum(state.matrix[:2]),
                                  state.t, config.dt, config.n_steps, every))
        assert len(marched) == len(out.samples) - 1
        for (t, V), sample in zip(marched, out.samples[1:]):
            assert t == sample.t
            assert np.array_equal(full_spectrum(V, config.n), sample.matrix[:2])


def test_interleaved_marches_on_one_system_are_bitwise_lone_marches():
    # each march binds its own buffers: two marches on one system, a
    # four-row and a first-block one, advanced alternately, give bitwise the
    # states of each march alone; the caller's arrays are not written, and
    # no yielded state is a view of another
    config = good_config(b=BOND, t_end=1.5)
    system = config.system
    starts = [half_spectrum(random_state(config.grid, 0.02, seed=seed).matrix)[:rows]
              for seed, rows in ((41, 4), (43, 2))]
    copies = [U.copy() for U in starts]

    def march(U):
        return sim._march(system, U, 0.0, config.dt, config.n_steps, 4)

    lone = [list(march(U)) for U in starts]
    interleaved = list(zip(*(march(U) for U in starts)))
    assert len(interleaved) == len(lone[0]) == len(lone[1]) == 8
    for j, alone in enumerate(lone):
        together = [pair[j] for pair in interleaved]
        for (t_a, U_a), (t_b, U_b) in zip(alone, together):
            assert t_a == t_b
            assert np.array_equal(U_a, U_b)
        states = [U for _, U in together]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(states) for b in states[i + 1:])
        assert np.array_equal(starts[j], copies[j])


def test_threads_running_one_config_give_the_sequential_finals():
    # a system holds no buffers, so two threads can run one config at once
    seeds = (51, 53)
    states = [random_state(good_config(n=512).grid, 0.01, seed=seed) for seed in seeds]
    sequential = [run(good_config(n=512, t_end=4.0), state).final.matrix
                  for state in states]
    config = good_config(n=512, t_end=4.0)  # shared, its system not yet built
    finals = [None, None]
    barrier = threading.Barrier(2)

    def work(i):
        barrier.wait()
        try:
            finals[i] = run(config, states[i]).final.matrix
        except Exception as exc:  # reported by the assertion below
            finals[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for final, expected in zip(finals, sequential):
        assert np.array_equal(final, expected)


def test_run_rejects_mismatched_grid():
    config = good_config(n=128)
    state = random_state(Grid1D(64, 8 * np.pi), 1e-3, seed=2)
    with pytest.raises(ValueError, match="different grid"):
        run(config, state)


def test_run_aborts_with_step_index_on_blowup():
    config = good_config(n=64, dt=0.5, t_end=50.0)
    state = random_state(config.grid, 1e6, seed=5)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="step"):
            run(config, state)


# ---------------------------------------------------------------------------
# packet residual
# ---------------------------------------------------------------------------


def test_residual_zero_envelope_vanishes():
    L = scan_grid_length(EPS, 12.0)
    config = SimConfig(eps=EPS, k0=K0, b=BOND, n=512, length=L, dt=0.04,
                       t_end=0.0)
    env = Grid1D(128, EPS * L)
    A = EnvelopeField(env, np.zeros(128, dtype=complex))
    packet = wave_packet(A, EPS, config.model, corrections=True)
    norms = residual(packet, config)
    assert norms.total() == 0.0


def test_residual_finite_on_sech_packet():
    L = scan_grid_length(EPS, 12.0)
    config = SimConfig(eps=EPS, k0=K0, b=BOND, n=512, length=L, dt=0.04,
                       t_end=0.0)
    A = sech_envelope_on(128, EPS * L)
    packet = wave_packet(A, EPS, config.model, corrections=True)
    norms = residual(packet, config)
    assert 0.0 < norms.total() < 10.0
    for v in (norms.res_m1, norms.res_p1, norms.res_m2, norms.res_p2):
        assert np.isfinite(v)


# ---------------------------------------------------------------------------
# error scan plumbing (the full protocol runs in the acceptance suite)
# ---------------------------------------------------------------------------


def test_scan_grid_length_is_2pi_multiple():
    for eps in (0.2, 0.1, 0.07):
        L = scan_grid_length(eps)
        assert L / (2 * np.pi) == round(L / (2 * np.pi))
        assert eps * L >= 35.0 - 1e-12


def test_scan_template_validation():
    with pytest.raises(ValueError, match="horizon"):
        ScanTemplate(horizon="forever")
    with pytest.raises(ValueError, match="tau0"):
        ScanTemplate(tau0=0.0)
    # a zero sample count used to reach a division by zero inside the first row
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        ScanTemplate(n_samples=0)


def free_scan_rows(eps_list, template):
    """(sup error, sup size) per eps in the mixed norm for the free march:
    both blocks marched by ``run``, the second never re-slaved.  The
    reference for why ``error_scan`` re-slaves the second block."""
    rows = []
    for eps in eps_list:
        config, packet, U0 = sim._scan_problem(eps, template)
        grid, keep = config.grid, half_spectrum(config.system.keep_mask)
        coeffs = nls_coefficients(template.k0, template.b)
        block = max(1, config.n_steps // template.n_samples)
        out = run(config, SimState(grid, U0, 0.0), sample_every=block)
        A_now, prev_t = packet.A, 0.0
        w = sim._h2_weight(grid)
        err, size = 0.0, sim._split_norm(U0, grid, w)
        for s in out.samples[1:]:
            steps = round((s.t - prev_t) / config.dt)
            A_now = nls_solve(A_now, coeffs, dtau=eps**2 * config.dt,
                              tau_end=A_now.tau + eps**2 * config.dt * steps,
                              sample_every=steps).final()
            prev_t = s.t
            reference = wave_packet(EnvelopeField(packet.A.grid, A_now.values), eps,
                                    config.model, corrections=template.corrections)
            ref = build(reference, grid, s.t)
            ref[:, ~keep] = 0.0
            err = max(err, sim._split_norm(s.half - ref, grid, w))
            size = max(size, sim._split_norm(ref, grid, w))
        rows.append((err, size))
    return rows


def assert_slope_is_the_polyfit(result):
    """The closed-form slope of ``error_scan`` is numpy's least-squares fit
    of log sup_error against log eps through its rows, to 1e-14."""
    log_eps = np.log([row.eps for row in result.rows])
    log_err = np.log([row.sup_error for row in result.rows])
    assert result.slope == pytest.approx(np.polyfit(log_eps, log_err, 1)[0], rel=1e-14)


def assert_scan_rows(result, eps, first, second, mixed, sizes, slope):
    assert_slope_is_the_polyfit(result)
    rows = result.rows
    assert [row.eps for row in rows] == list(eps)
    assert [row.first_block_error for row in rows] == pytest.approx(first, rel=1e-9)
    assert [row.second_block_error for row in rows] == pytest.approx(second, rel=1e-9)
    assert [row.sup_error for row in rows] == pytest.approx(mixed, rel=1e-9)
    assert [row.approx_size for row in rows] == pytest.approx(sizes, rel=1e-10)
    assert result.slope == pytest.approx(slope, rel=1e-9)
    assert not any(row.flagged for row in rows)
    assert result.slope >= 1.5
    for row in rows:
        assert max(row.first_block_error, row.second_block_error) <= row.sup_error
        assert row.sup_error <= np.hypot(row.first_block_error, row.second_block_error)


def test_error_scan_fast_horizon_decreases_with_eps():
    result = error_scan((0.2, 0.15), FAST_TEMPLATE)
    errs = [row.sup_error for row in result.rows]
    assert errs[0] > errs[1] > 0.0
    assert result.rows[0].t_end == pytest.approx(0.5 / 0.2, rel=0.05)
    # frozen rows of this template: the marched first block plus the
    # re-slaved second block stay well inside the packet's size
    assert_scan_rows(result, (0.2, 0.15),
                     first=[0.1874885413266521, 0.07323250795883408],
                     second=[52.9848661196385, 19.88668154740133],
                     mixed=[52.985194630524674, 19.886815421211477],
                     sizes=[94.998830861791, 61.793499947380745],
                     slope=3.4063838218243543)


def test_free_second_block_saturates_on_the_fast_horizon():
    # the former rows of the fast-horizon template: with the second block
    # marched freely instead of re-slaved, both rows exceed the size
    rows = free_scan_rows((0.2, 0.15), FAST_TEMPLATE)
    errs, sizes = zip(*rows)
    assert errs == pytest.approx([130.97209067526984, 68.89317119931987], rel=1e-10)
    assert sizes == pytest.approx([94.998830861791, 61.793499947380745], rel=1e-10)
    assert all(e > s for e, s in rows)


def test_error_scan_benchmark_template_rows_frozen():
    # the scan the benchmark runs: tau0 = 0.1 on the tau0/eps^2 horizon
    result = error_scan((0.15, 0.10, 0.07), ScanTemplate(tau0=0.1))
    assert_scan_rows(result, (0.15, 0.10, 0.07),
                     first=[0.0736599217814319, 0.026312124707877624,
                            0.009476764779795565],
                     second=[20.247727495582367, 5.722753283806413,
                             1.8202403924919448],
                     mixed=[20.247860783085216, 5.722805995611561,
                            1.8202644024398515],
                     sizes=[61.845564323293225, 34.71031696190037,
                            21.634451069793542],
                     slope=3.1599151348406496)


def test_default_scan_rows_keep_the_2k0_band_only_where_the_dealiasing_allows():
    # band_halfwidth 0.9 asks for |k| <= 2 k0 + 0.9 = 4.9, but the 2/3 rule
    # at n = 1024 keeps |k| <= (n/3) 2 pi/L, which falls below that as L
    # grows like 1/eps: the eps = 0.07 row loses the top of the 2 k0 band
    template = ScanTemplate()
    kept, dealias = [], []
    for eps in (0.15, 0.10, 0.07):
        config = sim._scan_config(eps, template)
        k = np.abs(config.grid.wavenumbers)
        kept.append(float(k[config.system.keep_mask].max()))
        dealias.append(float(k[config.grid.dealias_keep].max()))
    assert kept == pytest.approx([4.894736842105263, 4.892857142857143, 4.2625], rel=1e-12)
    assert dealias[2] == kept[2] < 2.0 * template.k0 + template.band_halfwidth - 0.6
    assert all(d > 2.0 * template.k0 + template.band_halfwidth for d in dealias[:2])


def test_small_amplitude_first_block_error_is_the_third_order_dispersion_floor(monkeypatch):
    # ROADMAP item 9: at amplitude 1e-3 the relative first-block error is
    # the linear error of the NLS reference, the third-order dispersion it
    # omits.  The phase error eps^3 omega'''(k0) K^3 t / 6 over t = tau/eps^2
    # gives eps tau |omega'''(k0)|/6 ||K^3 A^|| / ||A^||, with the sech
    # envelope's spectrum A^ ~ sech(pi K/2); measured 0.0017645 (+0.4 %)
    envelope = sim._sech_envelope
    monkeypatch.setattr(sim, "_sech_envelope",
                        lambda grid: EnvelopeField(grid, 1e-3 * envelope(grid).values))
    eps, template = 0.10, ScanTemplate(tau0=0.5)
    config, _, U0 = sim._scan_problem(eps, template)
    initial = np.sqrt(config.length * np.sum(np.abs(full_spectrum(U0[:2], config.n)) ** 2))
    row = sim._scan_single(eps, template)
    K = np.linspace(-40.0, 40.0, 80001)
    power = 1.0 / np.cosh(0.5 * np.pi * K) ** 2
    moment = np.sqrt(np.sum(K**6 * power) / np.sum(power))
    assert moment == pytest.approx(1.2150, abs=1e-4)
    third = omega_deriv(template.k0, template.b, 3)
    floor = eps * template.tau0 * abs(third) / 6.0 * moment
    assert floor == pytest.approx(0.001757, abs=1e-6)
    assert row.first_block_error / initial == pytest.approx(floor, rel=0.02)


def test_free_second_block_constraint_defect_collapses_at_fixed_slow_time():
    # Why the free second block left the scan: the first constraint
    # relation starts at machine zero and, at fixed slow time tau = eps^2 t,
    # reaches the same O(1) fraction of |u_{-1}| for every eps, instead of
    # falling with eps.  Measured at tau = 0.05 on the default scan set-up.
    ratios = []
    for eps in (0.2, 0.1):
        config, _, U0 = sim._scan_problem(eps, ScanTemplate())
        config = replace(config, t_end=0.05 / eps**2)
        first0, _ = config.system.consistency_defect(U0)
        assert np.max(np.abs(first0)) < 1e-15 * np.max(np.abs(U0[0]))
        final = run(config, SimState(config.grid, U0, 0.0)).final
        first, _ = config.system.consistency_defect(final.half)
        ratios.append(float(np.linalg.norm(full_spectrum(first, config.n))
                            / np.linalg.norm(final.matrix[0])))
    assert ratios == pytest.approx([1.084747454505155, 0.7538750203055976], rel=1e-9)
    assert 0.5 <= min(ratios) and max(ratios) <= 1.5


def test_error_scan_refuses_to_fit_through_flagged_rows(monkeypatch):
    def fake_row(eps, template):
        return ScanRow(eps=eps, b=0.0, sup_error=2.0 * eps, approx_size=1.0,
                       t_end=1.0, flagged=eps > 0.15, first_block_error=0.5 * eps,
                       second_block_error=2.0 * eps)

    monkeypatch.setattr(sim, "_scan_single", fake_row)
    with pytest.raises(ValueError, match="flagged") as info:
        error_scan((0.9, 0.6, 0.1))
    message = str(info.value)
    assert "eps=0.9: error 1.8, size 1" in message
    assert "eps=0.6: error 1.2, size 1" in message
    assert "eps=0.1" not in message
    assert error_scan((0.15, 0.1)).slope == pytest.approx(1.0)


def fake_scan_row(eps, template):
    """A scan row without a run: flagged above eps 0.15."""
    return ScanRow(eps=eps, b=0.0, sup_error=2.0 * eps, approx_size=1.0,
                   t_end=1.0, flagged=eps > 0.15, first_block_error=0.5 * eps,
                   second_block_error=2.0 * eps)


def count_forks(monkeypatch):
    """Record the pid of every child ``os.fork`` starts from here on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_balanced_bins_keep_the_costliest_row_in_bin_zero():
    # step counts of the benchmark rows eps 0.10, 0.15, 0.07 and 0.10 again
    assert sim._balanced_bins([250, 111, 510], 2) == [[2], [0, 1]]
    assert sim._balanced_bins([250, 111, 510, 250], 3) == [[2], [0, 1], [3]]
    assert sim._balanced_bins([0, 0, 5], 3) == [[2], [0], [1]]
    assert sim._balanced_bins([3, 1, 2], 1) == [[0, 1, 2]]


@pytest.mark.parametrize("eps,cpus,forks", [
    ((0.10, 0.15, 0.07), 2, 1),
    ((0.10, 0.15, 0.07, 0.10), 3, 2),
])
def test_error_scan_forked_rows_equal_the_one_process_rows(monkeypatch, eps, cpus, forks):
    template = ScanTemplate(tau0=0.1)  # the benchmark's scan
    pids = count_forks(monkeypatch)
    set_cpus(monkeypatch, 1)
    inline = error_scan(eps, template)
    assert pids == []
    set_cpus(monkeypatch, cpus)
    forked = error_scan(eps, template)
    assert len(pids) == forks
    assert [row.eps for row in forked.rows] == list(eps)
    assert forked.rows == inline.rows
    assert forked.slope == inline.slope
    assert_slope_is_the_polyfit(forked)
    assert_no_child_left()


@pytest.mark.parametrize("bins", [[[1], [0]], [[0], [1]]], ids=["in-caller", "in-child"])
def test_error_scan_refused_row_raises_the_same_error_on_both_paths(monkeypatch, bins):
    # n = 1024 cannot hold eps 0.05's shifted envelope bands; the row is
    # refused wherever it runs, and the one-process loop's error comes back
    template = ScanTemplate(tau0=0.1)
    pids = count_forks(monkeypatch)
    set_cpus(monkeypatch, 1)
    with pytest.raises(ValueError, match="carrier grid too small") as inline:
        error_scan((0.10, 0.05), template)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(sim, "_balanced_bins", lambda costs, n_bins: bins)
    with pytest.raises(ValueError) as forked:
        error_scan((0.10, 0.05), template)
    assert len(pids) == 1
    assert str(forked.value) == str(inline.value)
    assert_no_child_left()


@pytest.mark.parametrize("condition,forks", [
    ("two cpus", 1),
    ("one cpu", 0),
    ("no fork", 0),
    ("cpu count of two without affinity", 1),
    ("cpu count of one without affinity", 0),
    ("another thread running", 0),
    ("fork fails", 0),
])
def test_error_scan_forks_only_with_a_second_cpu_and_no_other_thread(
        monkeypatch, condition, forks):
    monkeypatch.setattr(sim, "_scan_single", fake_scan_row)
    pids = count_forks(monkeypatch)
    set_cpus(monkeypatch, 1 if condition == "one cpu" else 2)
    if condition == "no fork":
        monkeypatch.delattr(os, "fork")
    if condition == "fork fails":
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
    if "without affinity" in condition:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1 if "of one" in condition else 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    if condition == "another thread running":
        other.start()
    try:
        result = error_scan((0.15, 0.1))
    finally:
        release.set()
        if other.is_alive():
            other.join(10.0)
    assert not other.is_alive()
    assert len(pids) == forks
    assert result.rows == (fake_scan_row(0.15, None), fake_scan_row(0.1, None))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_error_scan_raises_the_first_failing_row_in_input_order(monkeypatch, cpus):
    # with two CPUs eps 0.1, the longest row, fails in the caller while
    # eps 0.2, earlier in the list, fails in the child
    def failing_row(eps, template):
        if eps < 0.25:
            raise ValueError(f"row eps={eps} refused")
        return fake_scan_row(eps, template)

    monkeypatch.setattr(sim, "_scan_single", failing_row)
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="row eps=0.2 refused"):
        error_scan((0.3, 0.2, 0.1))
    assert_no_child_left()


@pytest.mark.parametrize("how", ["exit", "unpicklable error"])
def test_error_scan_reports_a_child_that_left_without_its_rows(monkeypatch, how):
    caller = os.getpid()

    class LocalError(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    def dying_row(eps, template):
        if os.getpid() != caller:
            if how == "exit":
                os._exit(3)
            raise LocalError(f"row eps={eps}")
        return fake_scan_row(eps, template)

    monkeypatch.setattr(sim, "_scan_single", dying_row)
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="left without its rows"):
        error_scan((0.15, 0.1))
    assert_no_child_left()


def test_error_scan_refuses_fewer_than_two_eps(monkeypatch):
    # a repeated eps is no second point of the fit (numpy would fit a slope
    # through two identical rows, with only a RankWarning); every refusal
    # comes before a row runs
    def refuse(*args):
        raise AssertionError("a scan row ran")

    monkeypatch.setattr(sim, "_scan_rows", refuse)
    for eps_list in ((0.2,), (), (0.2, 0.2), (0.15, 0.15, 0.15)):
        with pytest.raises(ValueError, match="at least two distinct eps"):
            error_scan(eps_list, FAST_TEMPLATE)


def test_residual_orders_frozen():
    # The second-order packet's residual only drops below the leading-order
    # one at eps = 0.05: it is larger at 0.2 and 0.1.
    out = residual_orders()
    assert out["eps"] == (0.2, 0.1, 0.05)
    assert out["leading"] == pytest.approx(
        (7.372384147106365, 2.3496893678339155, 0.8075113057009058), rel=1e-10)
    assert out["second"] == pytest.approx(
        (26.710049187076564, 3.7978147715387456, 0.6587417801351068), rel=1e-10)
    log_eps = np.log(out["eps"])
    assert out["order_leading"] == pytest.approx(
        np.polyfit(log_eps, np.log(out["leading"]), 1)[0], rel=1e-12)
    assert out["order_second"] == pytest.approx(
        np.polyfit(log_eps, np.log(out["second"]), 1)[0], rel=1e-12)


# ---------------------------------------------------------------------------
# consistency diagnostic
# ---------------------------------------------------------------------------


def test_consistency_zero_state():
    grid = Grid1D(128, 8 * np.pi)
    state = state_from_matrix(grid, np.zeros((4, grid.n_points)))
    assert consistency_residual(state, BOND) == (0.0, 0.0)


def test_constraint_map_and_consistency_residual_share_the_default_system(monkeypatch):
    seen = []
    product = TruncatedSystem._constraint_product
    monkeypatch.setattr(TruncatedSystem, "_constraint_product",
                        lambda self, f, g: seen.append(self) or product(self, f, g))
    grid = Grid1D(64, 8 * np.pi)
    first = random_state(grid, 1e-2, seed=3).half[:2]
    state = SimState(grid, np.concatenate([first, slave_second_block(grid, first, BOND)]))
    consistency_residual(state, BOND)
    system = default_system(Grid1D(64, 8 * np.pi), BOND)
    assert len(seen) == 2
    assert seen[0] is system and seen[1] is system


def test_built_packet_sits_on_constraint_manifold(monitored_run):
    initial = monitored_run["run"].samples[0]
    c1, c2 = consistency_residual(initial, BOND)
    size = float(np.sqrt(initial.grid.length
                         * np.sum(np.abs(initial.matrix) ** 2)))
    # slaved by construction: machine zero, far inside the eps^2 * size
    # scale the relations are good to
    assert c1 < 1e-12 * size
    assert c2 < 1e-12 * size
    assert c1 < EPS**2 * size


def test_consistency_defect_bounded_over_slow_horizon(monitored_run):
    # The truncated dynamics drop exactly the remainder that transports the
    # constraint, so the defect grows off the manifold at an eps^2 rate and
    # saturates near eps * size over t <= 1/eps; measured max ratios were
    # 2.35 (first relation) and 3.23 (second), with no late-time growth.
    samples = monitored_run["run"].samples
    size0 = float(np.sqrt(samples[0].grid.length
                          * np.sum(np.abs(samples[0].matrix) ** 2)))
    c1s, c2s = zip(*(consistency_residual(s, BOND) for s in samples))
    assert max(c1s) <= 5.0 * EPS * size0
    assert max(c2s) <= 5.0 * EPS * size0
    half = len(samples) // 2
    assert max(c1s[half:]) <= 3.0 * max(c1s[1:half + 1])
    assert max(c2s[half:]) <= 3.0 * max(c2s[1:half + 1])


def constraint_drift_rates(amplitude, keep_mean):
    """||dD/dt|| / ||u_{-1}|| for both relations D = ``consistency_defect`` at a
    slaved random first block (|k| <= 2.5, n = 256, L = 40, b = 0) of peak
    |u_{-1}| ``amplitude``, with or without its mean.  D is quadratic, so the
    central difference along F = ``full_rhs`` is exact for any h."""
    grid = Grid1D(256, 40.0)
    system = TruncatedSystem(grid, 0.0)
    rng = np.random.default_rng(0)
    k = half_spectrum(grid.wavenumbers)
    half = rng.normal(size=(2, k.size)) + 1j * rng.normal(size=(2, k.size))
    half[:, np.abs(k) > 2.5] = 0.0
    half[:, 0] = rng.normal(size=2) if keep_mean else 0.0
    first = full_spectrum(half, grid.n_points)
    first *= amplitude / np.max(np.abs(np.fft.ifft(first[0], norm="forward")))
    n = grid.n_points
    U = np.concatenate([first, full_spectrum(
        slave_second_block(grid, half_spectrum(first), 0.0), n)])
    F = full_rhs(system, U)
    h = 0.1
    plus = system.consistency_defect(half_spectrum(U + h * F))
    minus = system.consistency_defect(half_spectrum(U - h * F))
    return np.array([np.linalg.norm(full_spectrum((p - m) / (2.0 * h), n))
                     for p, m in zip(plus, minus)]) / np.linalg.norm(U[0])


def test_truncated_flow_is_tangent_to_the_constraint_manifold_to_quadratic_order():
    # Why a freely marched second block drifts off the constraint manifold:
    # on zero-mean data the truncated flow leaves it at a relative rate
    # ~ a^2, the cubic remainder the truncation drops, not at O(a) as a
    # wrong product would.  Both relations drop k = 0, so a mean breaks the
    # tangency and the rate falls back to ~ a.
    ratio = constraint_drift_rates(1e-2, False) / constraint_drift_rates(1e-3, False)
    assert np.all((90.0 <= ratio) & (ratio <= 110.0))
    ratio = constraint_drift_rates(1e-2, True) / constraint_drift_rates(1e-3, True)
    assert np.all((8.0 <= ratio) & (ratio <= 12.0))


def test_packet_constraint_drift_rate_falls_like_eps_squared():
    # The slaved sech packet (n = 2048, n_env = 256, scan_grid_length, b = 0,
    # corrections on) leaves the second relation at ||dD2/dt|| / ||u_{-1}||
    # ~ eps^2, so the defect after t = tau/eps^2 is O(tau) of |u_{-1}| for
    # every eps: the fixed-slow-time collapse of the free second block.
    # D2 is quadratic, so the central difference along full_rhs is exact.
    rates = []
    for eps in (0.2, 0.1, 0.05):
        L = scan_grid_length(eps)
        config = SimConfig(eps=eps, k0=K0, b=0.0, n=2048, length=L, dt=1.0, t_end=0.0)
        packet = wave_packet(sech_envelope_on(256, eps * L), eps, config.model,
                             corrections=True)
        U = full_spectrum(build(packet, config.grid, 0.0), config.n)
        system = config.system
        F = full_rhs(system, U)
        h = 0.1
        _, plus = system.consistency_defect(half_spectrum(U + h * F))
        _, minus = system.consistency_defect(half_spectrum(U - h * F))
        rates.append(np.linalg.norm(full_spectrum((plus - minus) / (2.0 * h), config.n))
                     / np.linalg.norm(U[0]))
    assert rates == pytest.approx([2.463209968754558, 0.435360941480837,
                                  0.09650585218441912], rel=1e-9)
    ratios = np.array(rates[:-1]) / np.array(rates[1:])  # 5.66, 4.51
    assert np.all((4.0 <= ratios) & (ratios <= 6.0))


# ---------------------------------------------------------------------------
# diagonalizing transform
# ---------------------------------------------------------------------------


def to_diagonal(grid: Grid1D, geometric: np.ndarray, b: float) -> np.ndarray:
    """Geometric variables -> diagonalized components.

    Maps the (4, n) full-layout coefficients of (y, v, kappa, delta_aa) on
    ``grid`` to those of (u_{-1}, u_{+1}, u_{-2}, u_{+2}).
    """
    y, v, kappa, delta_aa = geometric
    sig = sigma(grid.wavenumbers, b).astype(complex)
    sy, sk = sig * y, sig * kappa
    return 0.5 * np.array([sy + v, -sy + v, sk + delta_aa, -sk + delta_aa])


def from_diagonal(grid: Grid1D, diagonal: np.ndarray, b: float) -> np.ndarray:
    """Diagonalized components -> geometric variables; inverts ``to_diagonal``.

    Maps the (4, n) coefficients of (u_{-1}, u_{+1}, u_{-2}, u_{+2}) to those
    of (y, v, kappa, delta_aa).
    """
    u_m1, u_p1, u_m2, u_p2 = diagonal
    sig_inv = sigma_inv(grid.wavenumbers, b).astype(complex)
    return np.array([sig_inv * (u_m1 - u_p1), u_m1 + u_p1,
                     sig_inv * (u_m2 - u_p2), u_m2 + u_p2])


def test_diag_transform_round_trip():
    grid = Grid1D(128, 2 * np.pi)
    rng = np.random.default_rng(31)
    rows = []
    for _ in range(4):
        c = (rng.normal(size=128) + 1j * rng.normal(size=128)) * 0.3
        c[~grid.dealias_keep] = 0.0
        rows.append(hermitian_part(grid, c))
    geometric = np.array(rows)
    forward = to_diagonal(grid, geometric, 0.17)
    back = from_diagonal(grid, forward, 0.17)
    assert forward.shape == back.shape == (4, 128)
    assert np.max(np.abs(geometric - back)) < 1e-12


def _cos_alpha_in_row(grid, row):
    """(4, n) coefficients with cos(alpha) in one row and zeros elsewhere."""
    rows = np.zeros((4, grid.n_points), dtype=complex)
    rows[row] = np.fft.fft(np.cos(grid.alpha)) / grid.n_points
    return rows


def _physical(grid, c):
    return (np.fft.ifft(c) * grid.n_points).real


def test_diag_transform_single_mode_rows():
    grid = Grid1D(64, 2 * np.pi)
    b = 0.2
    cos_alpha = np.cos(grid.alpha)
    sig1 = sigma(1.0, b)

    u_m1, u_p1, u_m2, u_p2 = to_diagonal(grid, _cos_alpha_in_row(grid, 0), b)
    assert np.allclose(_physical(grid, u_m1), 0.5 * sig1 * cos_alpha, atol=1e-14)
    assert np.allclose(_physical(grid, u_p1), -0.5 * sig1 * cos_alpha, atol=1e-14)
    assert not np.any(u_m2) and not np.any(u_p2)

    u_m1, u_p1, _, _ = to_diagonal(grid, _cos_alpha_in_row(grid, 1), b)
    assert np.allclose(_physical(grid, u_m1), 0.5 * cos_alpha, atol=1e-14)
    assert np.allclose(_physical(grid, u_p1), 0.5 * cos_alpha, atol=1e-14)


def test_from_diagonal_recovers_geometry():
    grid = Grid1D(64, 2 * np.pi)
    b = 0.2
    u = to_diagonal(grid, _cos_alpha_in_row(grid, 0), b)
    y, v, kappa, delta_aa = from_diagonal(grid, u, b)
    assert np.allclose(_physical(grid, y), np.cos(grid.alpha), atol=1e-14)
    for f in (v, kappa, delta_aa):
        assert np.sqrt(grid.length * np.sum(np.abs(f) ** 2)) < 1e-14


# ---------------------------------------------------------------------------
# modified-energy diagnostic
# ---------------------------------------------------------------------------


def test_energy_zero_error_is_exactly_zero(monitored_run):
    config = monitored_run["config"]
    packet = monitored_run["packet"]
    state = monitored_run["run"].samples[0]
    params = default_params(K0, BOND, EPS)
    for l in (0, 2):
        assert energy_diagnostic(state, packet, l, params) == 0.0


def _packet_at(monitored_run, index):
    config = monitored_run["config"]
    return wave_packet(monitored_run["envelopes"][index], EPS, config.model,
                       corrections=True)


def test_energy_orders_share_one_realization(monkeypatch, monitored_run):
    """All derivative orders on one (state, packet) realize the packet once,
    with one band assembly for its second block and its carrier; a new
    packet object with equal content is realized afresh."""
    calls = []
    realize = sim.first_block
    monkeypatch.setattr(sim, "first_block",
                        lambda *args: calls.append(args) or realize(*args))
    monkeypatch.setattr(sim, "build", None)  # the energy slaves the block itself
    params = default_params(K0, BOND, EPS)
    state = monitored_run["run"].samples[4]
    packet = _packet_at(monitored_run, 4)
    first = [energy_diagnostic(state, packet, l, params) for l in (0, 1, 2)]
    assert len(calls) == 1
    twin = _packet_at(monitored_run, 4)
    again = [energy_diagnostic(state, twin, l, params) for l in (0, 1, 2)]
    assert len(calls) == 2
    assert again == first


def test_state_and_packet_hash_and_compare_by_identity(monkeypatch, monitored_run):
    """An equal-content copy of a state or a packet is another key: it is
    unequal, hashes apart in a set, and is realized afresh."""
    state = monitored_run["run"].samples[3]
    packet = _packet_at(monitored_run, 3)
    state_twin = SimState(state.grid, state.half, state.t)
    packet_twin = replace(packet)
    for obj, twin in ((state, state_twin), (packet, packet_twin)):
        assert obj == obj and twin != obj
        assert len({obj, twin, obj}) == 2
    calls = []
    realize = sim.first_block
    monkeypatch.setattr(sim, "first_block",
                        lambda *args: calls.append(args) or realize(*args))
    params = default_params(K0, BOND, EPS)
    values = [energy_diagnostic(s, p, 2, params)
              for s, p in ((state, packet), (state_twin, packet), (state, packet_twin))]
    assert len(calls) == 3
    assert values[1] == values[0] and values[2] == values[0]


def test_energy_does_not_depend_on_the_order_of_requests(monitored_run):
    params = default_params(K0, BOND, EPS)
    state = monitored_run["run"].samples[5]
    values = {}
    for orders in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        packet = _packet_at(monitored_run, 5)  # a fresh packet: no sharing across
        values[orders] = {l: energy_diagnostic(state, packet, l, params) for l in orders}
    # each order alone, on a packet of its own
    alone = {l: energy_diagnostic(state, _packet_at(monitored_run, 5), l, params)
             for l in (0, 1, 2)}
    for got in values.values():
        assert got == alone


@pytest.mark.parametrize("l", [0, 2])
def test_energy_refuses_a_non_finite_weight(l):
    # at b = 0.1 (k1 = 4.30) the lattice-rounded rho_hat is 0/0 for
    # 0.35 <= |k| <= 0.5; the energy used to come out NaN
    config = SimConfig(eps=EPS, k0=K0, b=0.1, n=512, length=scan_grid_length(EPS, 12.0),
                       dt=0.04, t_end=0.04, band_halfwidth=0.9)
    A = sech_envelope_on(128, EPS * config.length)
    packet = wave_packet(A, EPS, config.model, corrections=True)
    state = packet_initial_state(packet, config)
    params = default_params(K0, 0.1, EPS)
    with pytest.raises(ValueError, match=r"b=0\.1, \(j1, l\)=\(-2, %d\) "
                                         r".*0\.3.* <= \|k\| <= 0\.5.*item 4" % l):
        energy_diagnostic(state, packet, l, params)


@pytest.mark.parametrize("b,eps", [(BOND, 0.5), (0.2, EPS)])
def test_energy_refuses_params_of_another_configuration(monitored_run, b, eps):
    # weights of another (k0, b, eps) would measure another configuration
    with pytest.raises(ValueError, match=r"KernelParams are for \(k0, b, eps\) = "
                                         r"\(2.0, %s, %s\), the packet for "
                                         r"\(2.0, 0.05, 0.1\)" % (b, eps)):
        energy_diagnostic(monitored_run["run"].samples[0], monitored_run["packet"], 0,
                          default_params(K0, b, eps))


def test_energy_rejects_negative_derivative_order(monitored_run):
    params = default_params(K0, BOND, EPS)
    with pytest.raises(ValueError, match="derivative order"):
        energy_diagnostic(monitored_run["run"].samples[0],
                          monitored_run["packet"], -1, params)


def _perturbed_state_and_plain(config, packet, params, seed, l):
    """Second-block perturbation plus the plain (rho-less) H^l energy."""
    grid = config.grid
    k = grid.wavenumbers
    base = packet_initial_state(packet, config)
    rng = np.random.default_rng(seed)
    pert = [np.zeros(config.n, dtype=complex) for _ in range(2)]
    for _ in range(2):
        c = (rng.normal(size=config.n) + 1j * rng.normal(size=config.n)) * 1e-4
        c *= np.exp(-0.1 * np.abs(k))
        c[~grid.dealias_keep] = 0.0
        pert.append(hermitian_part(grid, c))
    state = state_from_matrix(grid, base.matrix + np.array(pert), 0.0)
    approx = full_spectrum(build(packet, grid, 0.0), config.n)
    t_inv = theta_inv_hat(k, config.eps, params.delta0)
    dl = (1j * k) ** l
    plain = 0.0
    for i in (2, 3):
        R = (state.matrix[i] - approx[i]) * t_inv / config.eps**2.5
        plain += 0.5 * grid.length * float(np.sum(np.abs(dl * R) ** 2))
    return state, plain


@pytest.mark.parametrize("l", [0, 2])
def test_energy_equivalent_to_plain_norm_flat_weight(l):
    # b = 0 has no resonant window, the reweighting symbol is identically 1
    # and the diagnostic differs from the plain norm only by the O(eps)
    # normal-form pairing (measured |ratio - 1| <= 2.5 eps).
    b = 0.0
    L = scan_grid_length(EPS, 12.0)
    config = SimConfig(eps=EPS, k0=K0, b=b, n=512, length=L, dt=0.04,
                       t_end=0.0)
    A = sech_envelope_on(128, EPS * L)
    packet = wave_packet(A, EPS, config.model, corrections=True)
    params = default_params(K0, b, EPS)
    for seed in (1, 2):
        state, plain = _perturbed_state_and_plain(config, packet, params, seed, l)
        ratio = energy_diagnostic(state, packet, l, params) / plain
        assert abs(ratio - 1.0) <= 3.5 * EPS


@pytest.mark.parametrize("l", [0, 2])
def test_energy_equivalent_within_reweighting_band(l, monitored_run):
    # b = 0.05 sits in the resonant band: the weight rho varies inside the
    # resonance windows, so the two-sided equivalence constant is its range.
    config = monitored_run["config"]
    packet = monitored_run["packet"]
    params = default_params(K0, BOND, EPS)
    lo, hi = rho_extremes(-2, l, params)
    for seed in (1, 2):
        state, plain = _perturbed_state_and_plain(config, packet, params, seed, l)
        ratio = energy_diagnostic(state, packet, l, params) / plain
        assert lo * (1.0 - 3.5 * EPS) <= ratio <= hi * (1.0 + 3.5 * EPS)


def test_energy_bounded_on_monitored_run(monitored_run):
    # Starting from exact packet data the error is generated by the run
    # itself; the diagnostic rises from 0 and saturates instead of growing
    # secularly.  Measured: l=2 peaks at 1.28e10 and stays within 17% of
    # its t=6 value afterwards; l=0 increments decay to a third of their
    # peak by the end of the horizon.
    config = monitored_run["config"]
    params = default_params(K0, BOND, EPS)
    series = {0: [], 2: []}
    for state, env in zip(monitored_run["run"].samples,
                          monitored_run["envelopes"]):
        packet_now = wave_packet(env, EPS, config.model, corrections=True)
        for l in (0, 2):
            series[l].append(energy_diagnostic(state, packet_now, l, params))
    for l in (0, 2):
        values = np.array(series[l])
        assert values[0] == 0.0
        assert np.all(values >= 0.0)
    l2 = np.array(series[2])
    assert l2.max() <= 4e10
    base = l2[6]  # t = 6, past the transient
    assert np.max(np.abs(l2[6:] / base - 1.0)) <= 3.0 * EPS
    l0 = np.array(series[0])
    assert l0.max() <= 6e7
    increments = np.diff(l0)
    assert np.max(increments[-3:]) <= 0.7 * np.max(increments)


@pytest.mark.parametrize(
    "index,l,expected",
    [
        (3, 0, 2715833.271155737),
        (3, 2, 3500939342.538256),
        (10, 0, 20232414.832079485),
        (10, 2, 9980157452.336988),
    ],
)
def test_energy_frozen_on_monitored_run(index, l, expected, monitored_run):
    # frozen at t = 3 and t = 10: the weight tables are cached across samples
    # and calls, so a stale or misindexed table shows here
    config = monitored_run["config"]
    params = default_params(K0, BOND, EPS)
    state = monitored_run["run"].samples[index]
    packet_now = wave_packet(monitored_run["envelopes"][index], EPS,
                             config.model, corrections=True)
    assert state.t == pytest.approx(float(index))
    assert energy_diagnostic(state, packet_now, l, params) == pytest.approx(
        expected, rel=1e-12)


def modified_energy_oracle(state, packet, l, params):
    """The modified energy from its definition, one term at a time.

    The error R is the second block of ``build`` subtracted from the state
    and rescaled by per-call ``theta_inv_hat``; the carrier psi_plus is a
    lead band assembled afresh, one envelope mode at a time; the products
    psi_ell * dalpha^{1 - slot} R_{j2} are formed with complex transforms,
    and N_{j1} sums them against per-call ``n_hat``:

        E = L sum_{j1} [ 1/2 sum rho |(ik)^l R_{j1}|^2
                         + eps Re sum conj((ik)^l R_{j1}) rho (ik)^l N_{j1} ].
    """
    grid, t = state.grid, state.t
    k, n, eps = grid.wavenumbers, grid.n_points, packet.eps
    p = packet.params
    R = (state.matrix[2:] - full_spectrum(build(packet, grid, t)[2:], n)) * theta_inv_hat(
        k, eps, params.delta0) / eps**2.5
    j0 = round(p.k0 / grid.fundamental)
    env = packet.A.grid
    g = np.fft.fft(packet.A.values) / env.n_points
    lead = np.zeros(n, dtype=complex)
    for idx, j in enumerate(env.mode_numbers):
        lead[(j0 + j) % n] = g[idx] * np.exp(-1j * j * grid.fundamental * p.cg * t)
    psi_plus = np.fft.ifft(lead * np.exp(-1j * p.omega0 * t)) * n
    psi = {1: psi_plus, -1: np.conj(psi_plus)}
    fields = {(j2, slot): np.fft.ifft(R[row] * ik_power(grid, 1 - slot)) * n
              for row, j2 in enumerate((-2, 2)) for slot in (1, 2)}
    dl = (1j * k) ** l
    energy = 0.0
    for row, j1 in enumerate((-2, 2)):
        N = sum(n_hat(j1, j2, ell, slot, k, params)
                * np.fft.fft(psi[ell] * fields[j2, slot]) / n
                for j2 in (-2, 2) for ell in (-1, 1) for slot in (1, 2))
        rho = rho_hat(j1, l, k, params)
        Rl = dl * R[row]
        energy += 0.5 * np.sum(rho * np.abs(Rl) ** 2)
        energy += eps * np.real(np.sum(np.conj(Rl) * rho * dl * N))
    return grid.length * energy


@pytest.mark.parametrize("l", [0, 1, 2])
def test_energy_is_the_term_by_term_oracle_on_monitored_run(l, monitored_run):
    # the shared band assembly, the cached tables and the l-free energy
    # density give the definition's value to round-off at every sample
    config = monitored_run["config"]
    params = default_params(K0, BOND, EPS)
    for state, env in zip(monitored_run["run"].samples, monitored_run["envelopes"]):
        packet = wave_packet(env, EPS, config.model, corrections=True)
        want = modified_energy_oracle(state, packet, l, params)
        got = energy_diagnostic(state, packet, l, params)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("b", [0.0, 0.03, BOND])
def test_cached_weight_tables_are_bytewise_the_per_call_kernels(b):
    grid = Grid1D(512, scan_grid_length(EPS, 12.0))
    k = grid.wavenumbers
    params = default_params(K0, b, EPS)
    table = n_hat_table(k, params)
    pairing = sim._n_hat_table(grid, params)
    for a, j1 in enumerate((-2, 2)):
        for c, j2 in enumerate((-2, 2)):
            for e, ell in enumerate((-1, 1)):
                for s, slot in enumerate((1, 2)):
                    want = n_hat(j1, j2, ell, slot, k, params)
                    assert table[a, c, e, s].tobytes() == want.tobytes()
                    # the pairing layout: ell, j1, then (slot, j2); the
                    # ell = -1 rows hold conj(n_hat(-k))
                    if ell == -1:
                        want = np.conj(want[grid._conjugate_index])
                    assert pairing[e, a, 2 * s + c].tobytes() == want.tobytes()
        for l in (0, 1, 2):
            weights = sim._energy_weights(grid, params, l)[a]
            rho = rho_hat(j1, l, k, params)
            assert weights.tobytes() == (rho * k ** (2 * l)).tobytes()
            if l == 0:
                assert weights.tobytes() == rho.tobytes()
