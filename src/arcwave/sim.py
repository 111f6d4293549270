"""Time integration of the quadratic-truncated diagonalized model.

The stepper is a Lawson (integrating-factor) RK4: the linear phases
e^{-/+ i*omega*dt} are applied exactly, classical RK4 acts on the
transformed nonlinearity.  There is therefore no linear stability limit on
dt; accuracy on the quadratic terms sets the step.

On top of the stepper this module carries the validation harness around the
modulation approximation: the long-horizon error scan against the envelope
equation and the consistency and energy diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .dispersion import ModelParams
from .equations import TruncatedSystem, default_system, slave_second_block
from .kernels import KernelParams, n_hat_table, rho_hat, theta_inv_hat
from .nls import EnvelopeField, nls_coefficients, solve as nls_solve
from .spectral import Grid1D, full_spectrum, half_spectrum
from .wavepacket import WavePacket, band_mask, build, first_block, wave_packet

__all__ = [
    "SimConfig",
    "SimState",
    "SimRun",
    "ScanTemplate",
    "ScanRow",
    "ErrorScanResult",
    "run",
    "error_scan",
    "consistency_residual",
    "energy_diagnostic",
    "packet_initial_state",
    "scan_grid_length",
]

@dataclass(frozen=True)
class SimConfig:
    """One run of the truncated model: physical and discretization choices."""

    eps: float
    k0: float
    b: float
    n: int
    length: float
    dt: float
    t_end: float
    band_halfwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(
                f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.n < 16:
            raise ValueError(f"grid too small: n={self.n}")
        if not self.length > 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        ratio = self.k0 * self.length / (2.0 * np.pi)
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"k0={self.k0} is not a grid mode: k0*L/(2*pi)={ratio} is not "
                f"an integer")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if self.band_halfwidth is not None and self.band_halfwidth <= 0.0:
            raise ValueError(
                f"band_halfwidth must be positive, got {self.band_halfwidth}")

    @cached_property
    def grid(self) -> Grid1D:
        return Grid1D(self.n, self.length)

    @cached_property
    def system(self) -> TruncatedSystem:
        extra = None
        if self.band_halfwidth is not None:
            extra = band_mask(self.grid, self.k0, self.band_halfwidth)
        return TruncatedSystem(self.grid, self.b, extra_keep=extra)

    @cached_property
    def model(self) -> ModelParams:
        return ModelParams(k0=self.k0, b=self.b)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class SimState:
    """Four real fields plus the clock.

    A state stores one array, ``half``: a read-only copy of the ``rfft``
    half spectra, (4, n//2 + 1), of the fields in component order
    (-1, +1, -2, +2), the layout ``run`` marches.  ``matrix`` is their
    full (4, n) layout, expanded by conjugation (``spectral.full_spectrum``)
    into a fresh read-only array on each access and never kept on the
    state, so a state holds half the bytes of its full layout.  A state
    hashes and compares by identity.
    """

    grid: Grid1D
    half: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        half = np.array(self.half, dtype=np.complex128)
        expected = (4, self.grid.n_points // 2 + 1)
        if half.shape != expected:
            raise ValueError(
                f"state half spectrum has shape {half.shape}, expected {expected}")
        half.setflags(write=False)
        object.__setattr__(self, "half", half)

    @property
    def matrix(self) -> np.ndarray:
        """The full-layout (4, n) coefficients: a fresh read-only expansion."""
        mat = full_spectrum(self.half, self.grid.n_points)
        mat.setflags(write=False)
        return mat

    def reality_defect(self) -> float:
        """max |c(-k) - conj(c(k))| over the four fields (0 when exactly real).

        In ``matrix`` the term at -k is the conjugate of the term at k for
        0 < k < k_Nyquist, so only columns 0 and n/2, each its own mirror,
        can be off: the max of |c - conj(c)| over them.
        """
        edges = self.half[:, [0, -1]]
        return float(np.max(np.abs(edges - np.conj(edges))))


def packet_initial_state(packet: WavePacket, config: SimConfig) -> SimState:
    """Realize the packet on the run grid at t = 0: its half spectra from ``build``."""
    return SimState(config.grid, build(packet, config.grid, 0.0), 0.0)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _march(system: TruncatedSystem, U: np.ndarray, t0: float, dt: float,
           n_steps: int, sample_every: int = 0):
    """The Lawson loop: march half spectra U, (r, n//2 + 1), for n_steps steps.

    r = 4 marches both blocks; r = 2 marches the first block alone, which is
    autonomous (``TruncatedSystem.evaluator``), so its states are bitwise
    rows 0-1 of the r = 4 march from the same first block.  Yields (t, U)
    after every ``sample_every``-th step short of the last (none if 0), then
    once after the last step (at t0 if n_steps is 0); a negative
    ``sample_every`` raises on the first ``next``.  Each yielded U is a
    fresh array; the caller's U is not written.

    One IFRK4 step from U, with E = e^{lam dt} and H = e^{lam dt/2}:

        N1 = N(U)                      N2 = N(H (U + dt/2 N1))
        N3 = N(H U + dt/2 N2)          N4 = N(E U + dt H N3)
        U <- E U + dt/6 (E N1 + 2 H (N2 + N3) + N4)

    The march binds one ``TruncatedSystem.evaluator`` and its own stage
    buffers once, and every step writes them in place, with the operations
    and operand orders of the formulas above, so the states are bitwise
    those of evaluating the formulas with fresh arrays.  The buffers belong
    to this generator alone, so two marches on one system, in one thread or
    in two, do not disturb each other.

    Aborts with the step index on the first non-finite coefficient, which in
    practice means the quadratic terms have blown up (the linear part cannot:
    its phases have modulus one).
    """
    if sample_every < 0:
        raise ValueError(f"sample_every must be nonnegative, got {sample_every}")
    U = np.array(U, dtype=np.complex128)  # the state, advanced in place
    rows = U.shape[-2]
    lam = system.half_linear_symbols[:rows]
    e_full = np.exp(lam * dt)
    e_half = np.exp(lam * 0.5 * dt)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    dt_e_half, two_e_half = dt * e_half, 2.0 * e_half
    nonlinear = system.evaluator(rows)
    N1, N2, N3, N4, stage, tmp, eU = (np.empty_like(U) for _ in range(7))
    finite = np.empty(U.shape, dtype=bool)
    mul, add = np.multiply, np.add
    t = t0
    for i in range(n_steps):
        nonlinear(U, N1)
        mul(half_dt, N1, out=tmp)  # N2
        add(U, tmp, out=tmp)
        mul(e_half, tmp, out=stage)
        nonlinear(stage, N2)
        mul(e_half, U, out=stage)  # N3
        mul(half_dt, N2, out=tmp)
        add(stage, tmp, out=stage)
        nonlinear(stage, N3)
        mul(e_full, U, out=eU)  # N4
        mul(dt_e_half, N3, out=tmp)
        add(eU, tmp, out=stage)
        nonlinear(stage, N4)
        mul(e_full, N1, out=tmp)  # the update
        add(N2, N3, out=N2)
        mul(two_e_half, N2, out=N2)
        add(tmp, N2, out=tmp)
        add(tmp, N4, out=tmp)
        mul(sixth_dt, tmp, out=tmp)
        add(eU, tmp, out=U)
        t = t0 + (i + 1) * dt
        if not np.isfinite(U, out=finite).all():
            raise RuntimeError(f"non-finite state after step {i + 1} (t={t:.6g})")
        if sample_every and (i + 1) % sample_every == 0 and (i + 1) != n_steps:
            yield t, U.copy()
    yield t, U


@dataclass(frozen=True)
class SimRun:
    config: SimConfig
    samples: tuple[SimState, ...]
    final: SimState


def run(config: SimConfig, initial: SimState, *, sample_every: int = 0) -> SimRun:
    """March the state to t_end; optionally keep every ``sample_every``-th state.

    The loop (``_march``) carries the four real fields as ``rfft`` half
    spectra, the layout a :class:`SimState` stores, so each sample and the
    final state wrap the half spectra it yields as they are, with no
    full-layout expansion.  The zero mode is copied bitwise and the Nyquist
    column keeps its initial value (see ``TruncatedSystem.half_linear_symbols``),
    so every state has the initial state's reality defect: 0 for one that
    starts real.  A non-finite state aborts the run with the step index.
    """
    if initial.grid.n_points != config.n or initial.grid.length != config.length:
        raise ValueError("initial state lives on a different grid than the config")
    samples = [initial] + [
        SimState(config.grid, U, t)
        for t, U in _march(config.system, initial.half, initial.t,
                           config.dt, config.n_steps, sample_every)]
    return SimRun(config=config, samples=tuple(samples), final=samples[-1])


# ---------------------------------------------------------------------------
# long-horizon error scan
# ---------------------------------------------------------------------------


def scan_grid_length(eps: float, length_scale: float = 35.0) -> float:
    """Domain length 2*pi*integer with eps*L of order ``length_scale``."""
    return 2.0 * np.pi * math.ceil(length_scale / (2.0 * np.pi * eps))


def _sech_envelope(grid: Grid1D) -> EnvelopeField:
    xi = grid.alpha - grid.length / 2.0
    return EnvelopeField(grid, (1.0 / np.cosh(xi)).astype(complex))


HORIZONS = ("tau0_over_eps2", "tau0_over_eps")


@dataclass(frozen=True)
class ScanTemplate:
    """Shared parameters of an error scan; eps varies per run.

    ``band_halfwidth`` restricts the retained Galerkin subspace to the union
    of bands around the packet harmonics l*k0, l in -2..2, intersected with
    the grid's 2/3-rule mask.  The packet lives in those bands, while the
    truncated model's spurious strong-coupling amplification needs modes
    above them (threshold shrinking to ~(1/eps)^{2/3} as eps grows) or the
    sliver between the harmonic bands, so the restriction measures the
    modulation approximation instead of the cascade.  It feeds
    :class:`SimConfig` unchanged.

    The subspace is not the same for every eps: n is fixed while the domain
    grows like 1/eps, so the dealiasing edge (n/3) 2 pi/L falls.  With the
    defaults (n = 1024, band_halfwidth 0.9, so |k| <= 4.9 is asked for) the
    rows at eps 0.15 and 0.10 keep |k| up to 4.8947 and 4.8929, but below
    eps ~ 0.0805 the 2/3 rule clips the 2 k0 band: the eps = 0.07 row keeps
    |k| <= 4.2625, its dealiasing edge.
    """

    k0: float = 2.0
    b: float = 0.0
    n: int = 1024
    dt: float = 0.04
    n_env: int = 256
    tau0: float = 0.5
    horizon: str = "tau0_over_eps2"
    corrections: bool = True
    n_samples: int = 24
    length_scale: float = 35.0
    band_halfwidth: Optional[float] = 0.9

    def __post_init__(self) -> None:
        if self.horizon not in HORIZONS:
            raise ValueError(
                f"unknown horizon {self.horizon!r}; available: {HORIZONS}")
        if self.tau0 <= 0.0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")


@dataclass(frozen=True)
class ScanRow:
    """One eps of an error scan; errors and size are sups over the samples.

    The simulated state is the marched first block u_{-/+1} with the second
    block u_{-/+2} re-slaved from it at each sample by the packet's own
    constraint map, ``equations.slave_second_block``.  ``first_block_error``
    is the L2 distance of u_{-/+1} to the reference packet,
    ``second_block_error`` the H2 distance of the re-slaved u_{-/+2},
    ``sup_error`` the mixed norm of both at once and ``approx_size`` the
    reference's own mixed norm.
    ``flagged`` marks a sample whose mixed error exceeded the size there.
    """

    eps: float
    b: float
    sup_error: float
    approx_size: float
    t_end: float
    flagged: bool
    first_block_error: float
    second_block_error: float


@dataclass(frozen=True)
class ErrorScanResult:
    rows: tuple[ScanRow, ...]
    slope: float
    template: ScanTemplate


def _column_weights(grid: Grid1D) -> np.ndarray:
    """How often each ``rfft`` half-spectrum column counts in a norm of real
    fields: 2 between k = 0 and Nyquist, where the column also stands for
    -k, and 1 at those two, each its own mirror."""
    columns = np.full(grid.n_points // 2 + 1, 2.0)
    columns[[0, -1]] = 1.0
    return columns


def _h2_weight(grid: Grid1D) -> np.ndarray:
    """The weights of ``_block_norms`` on half-spectrum columns, built once per
    run: row 0 the column weights (L2), row 1 those times (1 + k^2)^2 (H2)."""
    columns = _column_weights(grid)
    return np.array([columns, columns * (1.0 + half_spectrum(grid.wavenumbers) ** 2) ** 2])


def _block_norms(diff: np.ndarray, grid: Grid1D, w: np.ndarray) -> tuple[float, float]:
    """L2 norm of the first block (rows 0-1), H2 norm of the second (rows 2-3),
    of half spectra diff, (4, n//2 + 1), with w = ``_h2_weight(grid)``."""
    first = grid.length * np.sum(w[0] * np.abs(diff[:2]) ** 2)
    second = grid.length * np.sum(w[1] * np.abs(diff[2:]) ** 2)
    return float(np.sqrt(first)), float(np.sqrt(second))


def _split_norm(diff: np.ndarray, grid: Grid1D, w: np.ndarray) -> float:
    """L2 on the first block, H2 on the second block, all four combined."""
    return math.hypot(*_block_norms(diff, grid, w))


def _scan_config(eps: float, template: ScanTemplate) -> SimConfig:
    """The run configuration of one scan row."""
    t_end = (template.tau0 / eps**2 if template.horizon == "tau0_over_eps2"
             else template.tau0 / eps)
    return SimConfig(eps=eps, k0=template.k0, b=template.b, n=template.n,
                     length=scan_grid_length(eps, template.length_scale),
                     dt=template.dt, t_end=t_end,
                     band_halfwidth=template.band_halfwidth)


def _scan_problem(eps: float, template: ScanTemplate
                  ) -> tuple[SimConfig, WavePacket, np.ndarray]:
    """The run of one scan row: its config, the packet, and the packet's
    initial half spectra, (4, n//2 + 1), with the modes outside the keep
    mask zeroed."""
    config = _scan_config(eps, template)
    A = _sech_envelope(Grid1D(template.n_env, eps * config.length))
    packet = wave_packet(A, eps, config.model, corrections=template.corrections)
    U0 = build(packet, config.grid, 0.0)
    U0[:, ~half_spectrum(config.system.keep_mask)] = 0.0
    return config, packet, U0


def _scan_single(eps: float, template: ScanTemplate) -> ScanRow:
    config, packet, U0 = _scan_problem(eps, template)
    grid = config.grid
    coeffs = nls_coefficients(template.k0, template.b)
    keep = half_spectrum(config.system.keep_mask)
    n_steps = config.n_steps
    block = max(1, n_steps // template.n_samples)
    w = _h2_weight(grid)

    errors = np.zeros(3)  # sups of the first-block, second-block, mixed errors
    approx_size = _split_norm(U0, grid, w)
    flagged = False
    done = 0
    A_now = packet.A
    # only the autonomous first block is marched; every array below is a
    # half spectrum
    for t, V in _march(config.system, U0[:2], 0.0, config.dt, n_steps, block):
        todo = min(block, n_steps - done)
        done += todo
        # advance the envelope over the same slow-time window
        dtau_window = eps**2 * config.dt * todo
        A_now = nls_solve(A_now, coeffs, dtau=eps**2 * config.dt,
                          tau_end=A_now.tau + dtau_window,
                          sample_every=max(1, todo)).final()
        comparison = wave_packet(A_now, eps, config.model,
                                 corrections=template.corrections)
        ref = build(comparison, grid, t)
        ref[:, ~keep] = 0.0
        state = np.concatenate([V, slave_second_block(grid, V, template.b)])
        state[:, ~keep] = 0.0
        first, second = _block_norms(state - ref, grid, w)
        err = math.hypot(first, second)
        size = _split_norm(ref, grid, w)
        errors = np.maximum(errors, (first, second, err))
        approx_size = max(approx_size, size)
        if err > size:
            flagged = True
    return ScanRow(eps=eps, b=template.b, sup_error=float(errors[2]),
                   approx_size=approx_size, t_end=n_steps * config.dt,
                   flagged=flagged, first_block_error=float(errors[0]),
                   second_block_error=float(errors[1]))


def _balanced_bins(costs: list[int], n_bins: int) -> list[list[int]]:
    """Longest-processing-time partition of the row indices into n_bins bins.

    Rows go, costliest first (ties in input order), to the bin with the
    least cost so far (ties to the emptier, then the lower bin), so bin 0
    holds the costliest row.  Each bin lists its rows in input order.
    """
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    loads = [0] * n_bins
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        j = min(range(n_bins), key=lambda j: (loads[j], len(bins[j])))
        bins[j].append(i)
        loads[j] += costs[i]
    return [sorted(rows) for rows in bins]


def _run_bin(eps_list: tuple[float, ...], indices: list[int], template: ScanTemplate
             ) -> tuple[dict[int, ScanRow], Optional[tuple[int, Exception]]]:
    """The rows of one bin in input order, up to the first that raises.

    Returns the rows by index and, if a row raised, (its index, the error).
    Since every bin runs its rows in input order, the failure of lowest
    index over all bins is the one a single loop over eps_list meets first.
    """
    rows = {}
    for i in indices:
        try:
            rows[i] = _scan_single(eps_list[i], template)
        except Exception as exc:  # handed to error_scan, which re-raises it
            return rows, (i, exc)
    return rows, None


def _bin_child(eps_list: tuple[float, ...], indices: list[int],
               template: ScanTemplate, write_fd: int) -> None:
    """Body of a forked row process: run one bin, pickle its outcome into
    the pipe and leave by ``os._exit``, never returning to the caller's stack.

    Anything that stops the outcome from reaching the pipe, an error that
    does not pickle included, leaves the pipe empty, which the caller
    reports as a child that left without its rows.
    """
    import os
    import pickle

    status = 1
    try:
        data = pickle.dumps(_run_bin(eps_list, indices, template))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _scan_rows(eps_list: tuple[float, ...], template: ScanTemplate
               ) -> tuple[ScanRow, ...]:
    """The rows of ``error_scan`` in input order, spread over the CPUs.

    The rows are split by ``_balanced_bins`` over min(CPUs, rows) bins,
    weighted by their step counts.  The caller marches the bin with the
    costliest row; every other bin runs in a forked child that pickles its
    rows back through a pipe, or in the caller if the fork fails.  Every
    child is reaped before this returns or raises.  If a row raises, the
    error of the lowest-index failing row is re-raised once all bins are
    done, as the one-process loop would raise it.
    """
    import os
    import pickle
    import threading

    costs = [_scan_config(eps, template).n_steps for eps in eps_list]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        cpus = os.cpu_count() or 1
    n_bins = min(cpus, len(eps_list))
    # fork copies only the calling thread, so the locks other threads hold
    # would stay held in the child forever
    if not hasattr(os, "fork") or threading.active_count() > 1:
        n_bins = 1
    bins = _balanced_bins(costs, n_bins)

    local = bins[:1]  # the bins this process marches
    children = {}  # pid -> read end of its pipe
    try:
        for indices in bins[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: march the bin here
                os.close(read_fd)
                os.close(write_fd)
                local.append(indices)
                continue
            if pid == 0:
                _bin_child(eps_list, indices, template, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        outcomes = [_run_bin(eps_list, indices, template) for indices in local]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                raise RuntimeError(
                    f"scan row process {pid} left without its rows (wait status {status})")
            outcomes.append(pickle.loads(data))
    finally:
        if children:  # leaving early: stop and reap what is still running
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    rows = {}
    failures = []
    for bin_rows, failure in outcomes:
        rows.update(bin_rows)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return tuple(rows[i] for i in range(len(eps_list)))


def error_scan(eps_list: tuple[float, ...] = (0.15, 0.10, 0.07),
               template: ScanTemplate = ScanTemplate()) -> ErrorScanResult:
    """Sup-in-time approximation error per eps, plus the fitted decay order.

    For each eps the truncated model starts on the realized packet and runs
    to the slow-time horizon while the envelope follows its own modulation
    equation.  Only the first block u_{-/+1} is marched: it is autonomous,
    and the free second block is not slaved to it (its constraint defect
    grows to O(1) at fixed slow time for every eps), so at each sample the
    second block is re-slaved from the simulated first block.  That drift
    is the truncation's cubic remainder: the truncated flow leaves the
    constraint at a rate ~ a^2 on zero-mean data of amplitude a, and ~ a
    once the data carry a mean, since both constraint relations drop k = 0
    (``TruncatedSystem.consistency_defect``).  The recorded
    error is the worst sampled distance in the mixed (L2, H2) norm, with the
    per-block sups alongside (:class:`ScanRow`).  Packets, the re-slaved
    state and the norms all stay on ``rfft`` half spectra, the layout the
    march yields.  The slope is the least-squares slope of log sup_error
    against log eps, in closed form from centred sums, so a scan calls no
    linear-algebra routine.

    A row whose error exceeds the approximation's own size at some sample
    is flagged (instability or horizon too long), and a scan with a flagged
    row refuses to fit: it raises ``ValueError`` naming each flagged eps
    with its error and size.  Fewer than two distinct eps values leave no
    slope to fit and are refused before any run starts.

    The rows are independent runs, so they are spread over the CPUs this
    process may use (``os.sched_getaffinity``, else ``os.cpu_count``):
    min(CPUs, rows) bins balanced by step count, the caller marching the
    bin with the longest row and each other bin running in a forked child.
    The rows run inline, in one process, when there is one CPU, when
    ``os.fork`` is missing, or when other threads are running.  Each row is
    the same ``_scan_single`` call either way, so the rows are bitwise those
    of the one-process loop and come back in input order.  A failing row
    raises the error the one-process loop would raise first, and no child
    outlives the call.  The children's memory is not in this process's
    ``RUSAGE_SELF`` peak.
    """
    if len(set(eps_list)) < 2:
        raise ValueError(
            f"an error scan needs at least two distinct eps values to fit a "
            f"slope, got {tuple(eps_list)}")
    rows = _scan_rows(eps_list, template)
    flagged = [row for row in rows if row.flagged]
    if flagged:
        raise ValueError(
            "no slope is fitted through flagged rows (error above the "
            "approximation's size): " + "; ".join(
                f"eps={row.eps}: error {row.sup_error:.6g}, size {row.approx_size:.6g}"
                for row in flagged))
    log_eps = [math.log(row.eps) for row in rows]
    log_err = [math.log(row.sup_error) for row in rows]
    mean_eps, mean_err = math.fsum(log_eps) / len(rows), math.fsum(log_err) / len(rows)
    slope = (math.fsum((x - mean_eps) * (y - mean_err) for x, y in zip(log_eps, log_err))
             / math.fsum((x - mean_eps) ** 2 for x in log_eps))
    return ErrorScanResult(rows=rows, slope=slope, template=template)


# ---------------------------------------------------------------------------
# consistency and energy diagnostics
# ---------------------------------------------------------------------------


def consistency_residual(state: SimState, b: float) -> tuple[float, float]:
    """L2 norms of the two constraint defects tying the blocks together.

    The defects are those of ``equations.default_system(state.grid, b)``,
    the system whose tables the constraint map reads, so its product is
    dealiased by the 2/3 rule alone: a run's band mask
    (``SimConfig.band_halfwidth``) is not applied, and a band-restricted run
    is measured against the unrestricted constraint relations.  The defects
    are formed on the state's half spectra and their norms weigh each column
    for k and -k.
    """
    first, second = default_system(state.grid, b).consistency_defect(state.half)
    L = state.grid.length
    columns = _column_weights(state.grid)
    return (float(np.sqrt(L * np.sum(columns * np.abs(first) ** 2))),
            float(np.sqrt(L * np.sum(columns * np.abs(second) ** 2))))


@lru_cache(maxsize=16)
def _n_hat_table(grid: Grid1D, params: KernelParams) -> np.ndarray:
    """Read-only n_hat kernels in the layout the carrier pairing reads.

    A (2, 2, 4, n) array indexed ell (-1, 1), j1 (-2, 2) and the flattened
    (slot, j2) pair, slot in (1, 2) and j2 in (-2, 2).  The ell = -1 rows
    hold F(n_hat), with F(x) = conj(x(-k)): ``_energy_shared`` pairs them
    with the ell = +1 products and flips the sum back, since the ell = -1
    products are F of the ell = +1 ones.  It does not depend on the
    derivative order l, so every l shares it.
    """
    nh = n_hat_table(grid.wavenumbers, params)  # (j1, j2, ell, slot, n)
    nh = nh.transpose(2, 0, 3, 1, 4).reshape(2, 2, 4, grid.n_points)
    table = np.array([np.conj(nh[0][..., grid._conjugate_index]), nh[1]])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _error_tables(grid: Grid1D, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only theta^{-1}/eps^{5/2}, which rescales the second-block error,
    and the symbol 1/(ik) (0 at k = 0), both on the half spectrum."""
    kh = half_spectrum(grid.wavenumbers)
    scale = theta_inv_hat(kh, params.eps, params.delta0) / params.eps**2.5
    inv_ik = np.where(kh == 0.0, 0.0, -1j / np.where(kh == 0.0, 1.0, kh))
    for table in (scale, inv_ik):
        table.setflags(write=False)
    return scale, inv_ik


@lru_cache(maxsize=16)
def _energy_weights(grid: Grid1D, params: KernelParams, l: int) -> np.ndarray:
    """Read-only weight rho_hat(j1, l) k^{2l} of the modified energy at
    derivative order l, as a (2, n) array over j1 in (-2, 2).

    It depends on (grid, params, l) only, so every sample of a run shares
    it.  A weight that is not finite on the grid raises from ``rho_hat``,
    rather than turn every energy of the run into NaN.
    """
    k = grid.wavenumbers
    weights = np.array([rho_hat(j1, l, k, params) for j1 in (-2, 2)], dtype=float)
    weights *= k ** (2 * l)
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=2)
def _energy_shared(state: SimState, packet: WavePacket,
                   params: KernelParams) -> np.ndarray:
    """The energy density that no derivative order changes, (2, n).

    With R the rescaled second-block error, rows u_{-2}, u_{+2}, and N the
    carrier pairing sum_{j2, ell, slot} n_hat(j1, j2, ell, slot) * P, with P
    the coefficients of psi_ell * dalpha^{1 - slot} R_{j2}, one row per j1,
    the density is Re(conj(R) (R/2 + eps N)): the energy at order l is
    its sum against ``_energy_weights``, since |(ik)^l|^2 = k^{2l}.  R holds
    real fields, so their physical values come from real transforms (which
    read a Nyquist column as a real cosine mode), and the ell = -1 products
    are the conjugate flips of the ell = +1 ones.

    The latest two evaluations are memoized by ``lru_cache``, which keys on
    the identity of the state and the packet (both hash and compare by
    identity, and the cache holds them, so an identity cannot be reused
    while its entry lives) and on params equality; both are immutable, so a
    hit returns exactly what a fresh evaluation would.
    """
    grid = state.grid
    n = grid.n_points
    conj = grid._conjugate_index
    scale, inv_ik = _error_tables(grid, params)
    # the packet's realization and its lead band psi_plus, from one assembly
    first, lead = first_block(packet, grid, state.t, packet.profiles)
    R_half = (state.half[2:] - slave_second_block(grid, first, packet.params.b)) * scale
    R = full_spectrum(R_half, n)

    # physical psi_plus; psi_minus is its complex conjugate there
    psi_plus = np.fft.ifft(lead, norm="forward")
    # the real fields R and dalpha^{-1} R in physical space, (slot, j2, n)
    fields = np.fft.irfft(np.array([R_half, inv_ik * R_half]), n, norm="forward")
    # coefficients of psi_plus * field, one row per (slot, j2)
    plus = np.fft.fft(psi_plus * fields, norm="forward").reshape(4, n)
    # sum over (slot, j2) per (ell, j1); the ell = -1 sum is F of its rows' sum
    pair = np.sum(_n_hat_table(grid, params) * plus, axis=2)
    N = pair[1] + np.conj(pair[0].take(conj, axis=-1))
    density = np.real(np.conj(R) * (0.5 * R + packet.eps * N))
    density.setflags(write=False)
    return density


def energy_diagnostic(state: SimState, packet: WavePacket, l: int,
                      params: KernelParams) -> float:
    """Modified-energy functional of the second-block error at derivative order l.

    The error is the distance between the state and the realized packet,
    rescaled by theta^{-1}/eps^{5/2}; the quadratic form carries the
    reweighting rho^l, and the O(eps) correction pairs the error against the
    carrier through the normal-form kernels.

    Only the weight rho^l k^{2l} depends on l.  The rest, the rescaled
    error and its carrier pairing with the n_hat kernels (which do not
    depend on l), is computed once per (state, packet, params) and shared
    by the orders asked for next: ``_energy_shared`` is an ``lru_cache`` of
    the latest two, keyed on the identity of the state and the packet.
    That is safe because both are immutable, ``SimState.half``,
    ``EnvelopeField.values`` and the correction profiles being read-only
    copies; a new state or packet object, even with equal content, is
    realized afresh.  The packet is realized by one
    ``wavepacket.first_block`` call, whose first block gives the packet's
    second block through ``equations.slave_second_block`` (as
    ``build`` does) and whose lead band is the carrier psi_plus; nothing
    else is cached.  The kernel tables are cached per (grid, params), the
    weights per (grid, params, l).

    ``params`` must be the packet's: KernelParams of another (k0, b, eps)
    raise, since their weights would measure another configuration.
    """
    if l < 0:
        raise ValueError(f"derivative order must be nonnegative, got {l}")
    theirs = (params.k0, params.b, params.eps)
    ours = (packet.params.k0, packet.params.b, packet.eps)
    if theirs != ours:
        raise ValueError(
            f"KernelParams are for (k0, b, eps) = {theirs}, the packet for {ours}")
    density = _energy_shared(state, packet, params)
    weights = _energy_weights(state.grid, params, l)
    return float(state.grid.length * np.vdot(weights, density))
