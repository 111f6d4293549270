"""The three benchmark workloads: inputs, set-up, one round, and checks.

Each workload is a class of static methods:

* ``inputs(seed, toy)`` makes the round's inputs from the seed (parent
  process, before anything is timed);
* ``oracle(inputs)`` computes reference values with mpmath, outside
  arcwave (parent process, untimed);
* ``setup(inputs)`` is the program's own set-up before the first
  operation: importing arcwave plus the tables the workload needs (worker
  process, timed as ``setup_s``); ``setup_outputs(ctx)`` returns what of it
  the checks need;
* ``run_round(ctx, inputs)`` performs the workload's operations through
  arcwave's public functions and returns plain data (worker process, timed
  as ``wall_s``); each operation reports either its outputs or an error;
* ``check(inputs, oracle, setup_out, round_out)`` returns the failed checks
  on the operations that did not fail (parent process).

This module imports neither numpy, arcwave nor mpmath at import time, so
the worker can start its set-up clock before any of them is loaded and
never loads the oracles at all.
"""

from __future__ import annotations

import math
import random

K0 = 2.0


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _import_arcwave() -> None:
    """Import numpy, then arcwave, as every workload's set-up begins.

    numpy comes first so that ``import.arcwave_s`` (read from
    ``-X importtime``) leaves numpy's own import out on every workload.
    """
    import numpy  # noqa: F401
    from arcwave import kernels, nls, resonance, sim, wavepacket  # noqa: F401


def _common_setup(b: float, eps: float) -> dict:
    """Imports and tables shared by the scan and monitored-run set-ups."""
    _import_arcwave()
    from arcwave import kernels, nls, resonance

    bonds = resonance.critical_bonds(K0)
    return {"bonds": bonds, "coeffs": nls.nls_coefficients(K0, b),
            "params": kernels.default_params(K0, b, eps)}


# ---------------------------------------------------------------------------
# scan: the long-horizon error scan at b = 0
# ---------------------------------------------------------------------------


#: the scan's horizon tau0/eps^2 uses tau0 = 0.1 instead of the default
#: 0.5: a default scan is one round of 20-26 s, longer than a run can
#: average over, and its wall time moved by 28 % between two ten-seed sets
SCAN_TAU0 = 0.1


class Scan:
    """``error_scan()`` at eps 0.15, 0.10, 0.07 to tau0/eps^2 with tau0 = 0.1;
    the seed permutes the eps rows."""

    name = "scan"

    @staticmethod
    def inputs(seed: int, toy: bool) -> dict:
        if toy:
            eps = [0.2, 0.15, 0.12]
            template = {"n": 512, "n_env": 128, "horizon": "tau0_over_eps"}
        else:
            eps = [0.15, 0.10, 0.07]
            template = {"tau0": SCAN_TAU0}
        random.Random(seed).shuffle(eps)
        return {"eps": eps, "template": template}

    @staticmethod
    def ops_per_round(inp: dict) -> int:
        return len(inp["eps"])

    @staticmethod
    def oracle(inp: dict) -> dict:
        return {}

    @staticmethod
    def setup(inp: dict) -> dict:
        import numpy as np
        from arcwave import sim, wavepacket
        from arcwave.dispersion import ModelParams
        from arcwave.nls import EnvelopeField
        from arcwave.spectral import Grid1D

        template = sim.ScanTemplate(**inp["template"])
        eps = inp["eps"][0]
        ctx = _common_setup(template.b, eps)
        # the first row's initial packet, as a user preparing the scan would
        L = sim.scan_grid_length(eps, template.length_scale)
        env = Grid1D(template.n_env, eps * L)
        A = EnvelopeField(env, 1.0 / np.cosh(env.alpha - env.length / 2.0))
        packet = wavepacket.wave_packet(A, eps, ModelParams(k0=template.k0, b=template.b),
                                        corrections=template.corrections)
        wavepacket.build(packet, Grid1D(template.n, L), 0.0)
        ctx["template"] = template
        return ctx

    @staticmethod
    def setup_outputs(ctx: dict) -> dict:
        return {}

    @staticmethod
    def run_round(ctx: dict, inp: dict) -> dict:
        from arcwave import sim

        template = ctx["template"]
        try:
            result = sim.error_scan(tuple(inp["eps"]), template)
        except Exception as exc:  # every row of the scan fails with it
            return {"ops": [{"error": repr(exc)} for _ in inp["eps"]], "steps": 0}
        rows = [{"eps": r.eps, "b": r.b, "sup_error": r.sup_error,
                 "approx_size": r.approx_size, "t_end": r.t_end,
                 "flagged": bool(r.flagged)} for r in result.rows]
        steps = sum(round(r["t_end"] / template.dt) for r in rows)
        return {"ops": rows, "slope": result.slope, "dt": template.dt,
                "tau0": template.tau0, "horizon": template.horizon, "steps": steps}

    @staticmethod
    def check(inp: dict, orc: dict, setup_out: dict, out: dict) -> list[str]:
        rows = [r for r in out["ops"] if "error" not in r]
        bad = []
        for r in rows:
            for key in ("sup_error", "approx_size", "t_end"):
                v = r[key]
                if not (math.isfinite(v) and v > 0.0):
                    bad.append(f"eps={r['eps']}: {key}={v} is not finite and positive")
            eps = r["eps"]
            horizon = out["tau0"] / (eps**2 if out["horizon"] == "tau0_over_eps2" else eps)
            if abs(r["t_end"] - horizon) > out["dt"] * (1.0 + 1e-9):
                bad.append(f"eps={eps}: t_end={r['t_end']} is more than dt from {horizon}")
            if r["b"] != 0.0:
                bad.append(f"eps={eps}: row has b={r['b']}, expected 0")
        if len(rows) == len(out["ops"]) and sorted(r["eps"] for r in rows) != sorted(inp["eps"]):
            bad.append("rows do not match the requested eps values")
        by_eps = sorted(rows, key=lambda r: -r["eps"])
        for hi, lo in zip(by_eps, by_eps[1:]):
            if not lo["sup_error"] < hi["sup_error"]:
                bad.append(f"sup_error does not fall from eps={hi['eps']} "
                           f"({hi['sup_error']}) to eps={lo['eps']} ({lo['sup_error']})")
        if len(rows) == len(out["ops"]) >= 2:
            import oracles

            fit = oracles.least_squares_slope([math.log(r["eps"]) for r in rows],
                                              [math.log(r["sup_error"]) for r in rows])
            if not abs(out["slope"] - fit) <= 1e-9 * max(1.0, abs(fit)):
                bad.append(f"slope {out['slope']} differs from the least-squares fit {fit}")
        return bad

    @staticmethod
    def details(out: dict) -> dict:
        rows = [r for r in out["ops"] if "error" not in r]
        return {"flagged_rows": sum(r["flagged"] for r in rows), "rows": len(rows),
                "slope": out.get("slope")}


# ---------------------------------------------------------------------------
# bond-sweep: stability and zero structure from above b1 down to b -> 0
# ---------------------------------------------------------------------------

#: Bond numbers the seed jitters by at most 1 %.  Two lie above b1 = 0.2397,
#: two in (b0, b1) = (0.2241, 0.2397), fifteen in (0, b0) roughly
#: log-spaced from 0.2 down to 0.002.  Each in-band value keeps its k1 at
#: least 4 % away from the points where the stability extraction grid
#: doubles (n = 16384 ... 262144), so every seed does the same work.
BOND_ANCHORS = (0.30, 0.26, 0.236, 0.228,
                0.2, 0.144, 0.104, 0.075, 0.056, 0.039, 0.028, 0.020,
                0.0138, 0.0104, 0.0075, 0.0054, 0.0039, 0.0029, 0.0020)
TOY_BOND_ANCHORS = (0.26, 0.228, 0.2, 0.1, 0.05)
BOND_JITTER = 0.01
#: half-width of the window around the exact k1 inside which the stability
#: ratio may have been evaluated: one spacing 1/512 of the finest extraction
#: grid, which bounds today's snapping of k1 to that grid
RATIO_K1_WINDOW = 1.0 / 512.0


class BondSweep:
    """Stability, zero structure, k1 and kernel parameters per Bond number."""

    name = "bond-sweep"

    @staticmethod
    def inputs(seed: int, toy: bool) -> dict:
        import oracles

        rng = random.Random(seed)
        anchors = TOY_BOND_ANCHORS if toy else BOND_ANCHORS
        bs = [a * (1.0 + BOND_JITTER * (2.0 * rng.random() - 1.0)) for a in anchors]
        b0, _ = oracles.critical_bonds(K0)
        k_max = [1.25 * oracles.k1_of_b(K0, b) + 5.0 if b < b0 else 60.0 for b in bs]
        return {"b": bs, "k_max": k_max}

    @staticmethod
    def ops_per_round(inp: dict) -> int:
        return len(inp["b"])

    @staticmethod
    def oracle(inp: dict) -> dict:
        import oracles

        b0, b1 = oracles.critical_bonds(K0)
        per_b = []
        for b in inp["b"]:
            if not 0.0 < b < b0:
                per_b.append(None)
                continue
            k1 = oracles.k1_of_b(K0, b)
            per_b.append({"k1": k1, "ratio": oracles.triad_ratio(K0, b, k1),
                          "ratio_tol": oracles.triad_ratio_spread(K0, b, k1, RATIO_K1_WINDOW)
                          + 1e-9})
        return {"b0": b0, "b1": b1, "per_b": per_b}

    @staticmethod
    def setup(inp: dict) -> dict:
        _import_arcwave()
        from arcwave import resonance

        return {"bonds": resonance.critical_bonds(K0)}

    @staticmethod
    def setup_outputs(ctx: dict) -> dict:
        return {"b0": ctx["bonds"].b0, "b1": ctx["bonds"].b1}

    @staticmethod
    def run_round(ctx: dict, inp: dict) -> dict:
        from arcwave import kernels, resonance

        ops = []
        for b, k_max in zip(inp["b"], inp["k_max"]):
            try:
                verdict = resonance.stability(K0, b)
                report = resonance.find_zeros(K0, b, k_max)
                in_band = 0.0 < b < ctx["bonds"].b0
                k1 = resonance.k1_of_b(K0, b) if in_band else None
                params = kernels.default_params(K0, b)
                ops.append({
                    "b": b, "stable": bool(verdict.stable), "ratio": verdict.ratio,
                    "agrees": bool(verdict.characterization_agrees),
                    "classification": report.classification.value,
                    "zeros_k1": report.k1, "k1": k1, "params_k1": params.k1,
                })
            except Exception as exc:
                ops.append({"b": b, "error": repr(exc)})
        return {"ops": ops, "steps": 0}

    @staticmethod
    def check(inp: dict, orc: dict, setup_out: dict, out: dict) -> list[str]:
        bad = []
        b0, b1 = orc["b0"], orc["b1"]
        if not (_close(setup_out["b0"], b0, 1e-10) and _close(setup_out["b1"], b1, 1e-10)):
            bad.append(f"critical_bonds (b0={setup_out['b0']}, b1={setup_out['b1']}) "
                       f"differ from the mpmath roots ({b0}, {b1})")
        for op, ref in zip(out["ops"], orc["per_b"]):
            if "error" in op:
                continue
            b = op["b"]
            expected = ("two_zeros" if b < b0 else
                        "extra_zero_pair" if b < b1 else "only_k0")
            if op["classification"] != expected:
                bad.append(f"b={b}: find_zeros class {op['classification']}, expected {expected}")
            if not op["stable"]:
                bad.append(f"b={b}: judged unstable")
            if ref is None:
                if op["ratio"] is not None or op["params_k1"] is not None:
                    bad.append(f"b={b}: outside (0, b0) but has ratio={op['ratio']} "
                               f"or k1={op['params_k1']}")
                continue
            if not op["agrees"]:
                bad.append(f"b={b}: characterization disagrees with the ratio")
            for key in ("k1", "zeros_k1", "params_k1"):
                if op[key] is None or not _close(op[key], ref["k1"], 1e-9):
                    bad.append(f"b={b}: {key}={op[key]} differs from the mpmath root {ref['k1']}")
            ratio, tol = op["ratio"], ref["ratio_tol"] * abs(ref["ratio"])
            if ratio is None or not abs(ratio - ref["ratio"]) <= tol:
                bad.append(f"b={b}: ratio {ratio} differs from the mpmath triad ratio "
                           f"{ref['ratio']} by more than {ref['ratio_tol']:.3g} relative")
        return bad

    @staticmethod
    def details(out: dict) -> dict:
        return {"bond_numbers": len(out["ops"])}


# ---------------------------------------------------------------------------
# monitored-run: sim.run with frequent diagnostics inside the resonant band
# ---------------------------------------------------------------------------


class MonitoredRun:
    """A packet run at eps = 0.1, b = 0.05 with per-sample diagnostics.

    The set-up is the ``monitored_run`` fixture of ``tests/test_sim.py``
    run twice as long and sampled five times as often.  The seed rotates
    the carrier phase and shifts the envelope centre, which moves the
    packet without changing the work.
    """

    name = "monitored-run"
    EPS, B, N, N_ENV, DT, EVERY = 0.1, 0.05, 512, 128, 0.04, 5

    @classmethod
    def inputs(cls, seed: int, toy: bool) -> dict:
        rng = random.Random(seed)
        return {"phase": rng.uniform(0.0, 2.0 * math.pi), "shift": rng.uniform(-0.5, 0.5),
                "t_end": 2.0 if toy else 20.0}

    @classmethod
    def ops_per_round(cls, inp: dict) -> int:
        return round(inp["t_end"] / cls.DT) // cls.EVERY + 1

    @staticmethod
    def oracle(inp: dict) -> dict:
        return {}

    @classmethod
    def setup(cls, inp: dict) -> dict:
        import numpy as np
        from arcwave import nls, sim, wavepacket
        from arcwave.spectral import Grid1D

        ctx = _common_setup(cls.B, cls.EPS)
        L = sim.scan_grid_length(cls.EPS, 12.0)
        config = sim.SimConfig(eps=cls.EPS, k0=K0, b=cls.B, n=cls.N, length=L,
                               dt=cls.DT, t_end=inp["t_end"], band_halfwidth=0.9)
        env = Grid1D(cls.N_ENV, cls.EPS * L)
        xi = env.alpha - env.length / 2.0 - inp["shift"]
        A = nls.EnvelopeField(env, np.exp(1j * inp["phase"]) / np.cosh(xi))
        packet = wavepacket.wave_packet(A, cls.EPS, config.model, corrections=True)
        ctx.update(config=config, A=A, initial=sim.packet_initial_state(packet, config))
        return ctx

    @staticmethod
    def setup_outputs(ctx: dict) -> dict:
        return {}

    @classmethod
    def run_round(cls, ctx: dict, inp: dict) -> dict:
        import numpy as np
        from arcwave import nls, sim, wavepacket

        config, initial, A = ctx["config"], ctx["initial"], ctx["A"]
        n_ops = cls.ops_per_round(inp)
        try:
            samples = sim.run(config, initial, sample_every=cls.EVERY).samples
        except Exception as exc:
            return {"ops": [{"error": repr(exc)} for _ in range(n_ops)], "steps": 0}
        U0 = initial.matrix
        size0 = float(np.sqrt(config.length * np.sum(np.abs(U0) ** 2)))
        ops = []
        A_now, prev_t = A, 0.0
        for s in samples:
            try:
                if s.t > prev_t:
                    steps = round((s.t - prev_t) / config.dt)
                    A_now = nls.solve(A_now, ctx["coeffs"], dtau=cls.EPS**2 * config.dt,
                                      tau_end=A_now.tau + cls.EPS**2 * (s.t - prev_t),
                                      sample_every=steps).final()
                    prev_t = s.t
                packet = wavepacket.wave_packet(nls.EnvelopeField(A.grid, A_now.values),
                                                cls.EPS, config.model, corrections=True)
                e0, e2 = (sim.energy_diagnostic(s, packet, l, ctx["params"]) for l in (0, 2))
                c1, c2 = sim.consistency_residual(s, cls.B)
                ops.append({"t": s.t, "energy_l0": e0, "energy_l2": e2,
                            "consistency": [c1, c2], "reality": s.reality_defect(),
                            "zero_mode_diff": float(np.max(np.abs(s.matrix[:, 0] - U0[:, 0]))),
                            "mass": nls.mass(A_now)})
            except Exception as exc:
                ops.append({"t": s.t, "error": repr(exc)})
        return {"ops": ops, "size0": size0, "max_abs0": float(np.max(np.abs(U0))),
                "mass0": nls.mass(A), "steps": round(samples[-1].t / config.dt)}

    @classmethod
    def check(cls, inp: dict, orc: dict, setup_out: dict, out: dict) -> list[str]:
        bad = []
        ops = out["ops"]
        if len(ops) != cls.ops_per_round(inp):
            bad.append(f"{len(ops)} samples, expected {cls.ops_per_round(inp)}")
        good = [op for op in ops if "error" not in op]
        if good and good[0]["t"] == 0.0:
            first = good[0]
            if first["energy_l0"] != 0.0 or first["energy_l2"] != 0.0:
                bad.append(f"energy at t=0 is ({first['energy_l0']}, {first['energy_l2']}), not 0")
            if max(first["consistency"]) >= 1e-12 * out["size0"]:
                bad.append(f"initial consistency defects {first['consistency']} are not "
                           f"below 1e-12 x the state norm {out['size0']}")
        elif ops and "error" not in ops[0]:
            bad.append("the first sample is not at t = 0")
        if good and abs(good[-1]["t"] - inp["t_end"]) > 0.5 * cls.DT:
            bad.append(f"the last sample is at t={good[-1]['t']}, not t_end={inp['t_end']}")
        for op in good:
            t = op["t"]
            if not (op["energy_l0"] >= 0.0 and op["energy_l2"] >= 0.0):
                bad.append(f"t={t}: negative energy ({op['energy_l0']}, {op['energy_l2']})")
            if not op["reality"] <= 1e-12 * out["max_abs0"]:
                bad.append(f"t={t}: reality defect {op['reality']} above round-off")
            if op["zero_mode_diff"] != 0.0:
                bad.append(f"t={t}: zero mode moved by {op['zero_mode_diff']}")
            if not abs(op["mass"] - out["mass0"]) <= 1e-11 * out["mass0"]:
                bad.append(f"t={t}: NLS mass {op['mass']} differs from {out['mass0']}")
        return bad

    @staticmethod
    def details(out: dict) -> dict:
        good = [op for op in out["ops"] if "error" not in op]
        return {"samples": len(out["ops"]),
                "energy_l2_max": max((op["energy_l2"] for op in good), default=None)}


WORKLOADS = {w.name: w for w in (Scan, BondSweep, MonitoredRun)}
