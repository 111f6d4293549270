"""Self-test of the benchmark, in well under a minute.

    python3 benchmark/selftest.py

1. Runs every workload at toy size (``--toy``), untraced and traced, and
   requires correct outputs, no failed operation, and exactly the metric
   names that ``BENCHMARK.json`` declares.
2. Feeds each workload's checks deliberately corrupted outputs (a flipped
   stability ratio, a shifted k1, a rising error, a moved zero mode, ...)
   and requires every corruption to be caught.
3. Runs ``run.py`` in a scratch directory that holds only ``BENCHMARK.json``
   and the benchmark's own files, and requires it to fail without printing
   a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _in_band(out: dict) -> dict:
    return next(op for op in out["ops"] if op["ratio"] is not None)


def _smallest_eps(out: dict) -> dict:
    return min(out["ops"], key=lambda r: r["eps"])


#: workload -> (what is corrupted, function mutating a copy of (setup, out))
CORRUPTIONS = {
    "scan": [
        ("sup_error rising as eps falls",
         lambda s, o: _smallest_eps(o).update(sup_error=1e3 * _smallest_eps(o)["sup_error"])),
        ("slope off the least-squares fit", lambda s, o: o.update(slope=o["slope"] + 1e-3)),
        ("t_end two steps past the horizon",
         lambda s, o: o["ops"][0].update(t_end=o["ops"][0]["t_end"] + 2.0 * o["dt"])),
        ("a non-finite row", lambda s, o: o["ops"][1].update(approx_size=float("nan"))),
    ],
    "bond-sweep": [
        ("flipped stability ratio sign",
         lambda s, o: _in_band(o).update(ratio=-_in_band(o)["ratio"])),
        ("ratio moved by 1 %", lambda s, o: _in_band(o).update(ratio=1.01 * _in_band(o)["ratio"])),
        ("k1 shifted by 1e-6 relative",
         lambda s, o: _in_band(o).update(k1=(1.0 + 1e-6) * _in_band(o)["k1"])),
        ("b0 shifted by 1e-8 relative", lambda s, o: s.update(b0=(1.0 + 1e-8) * s["b0"])),
        ("wrong zero class above b1", lambda s, o: o["ops"][0].update(classification="two_zeros")),
        ("a ratio outside (0, b0)", lambda s, o: o["ops"][0].update(ratio=-1.0)),
    ],
    "monitored-run": [
        ("non-zero energy at t = 0", lambda s, o: o["ops"][0].update(energy_l2=1e-300)),
        ("negative energy", lambda s, o: o["ops"][2].update(energy_l0=-1.0)),
        ("zero mode moved", lambda s, o: o["ops"][3].update(zero_mode_diff=2e-17)),
        ("NLS mass drift of 1e-9",
         lambda s, o: o["ops"][-1].update(mass=(1.0 + 1e-9) * o["ops"][-1]["mass"])),
    ],
}


def check_toy_runs(config: dict) -> None:
    e2e = {m["name"] for m in config["end_to_end"]}
    layers = {m["name"] for m in config["per_layer"]}
    for name, workload in workloads.WORKLOADS.items():
        res = run.run_workload(name, seed=7, seconds=0.0, trace=False, toy=True)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: toy run correct with no failed operation {res['problems'][:3]}")
        expect(set(res["metrics"]) == e2e, f"{name}: reports exactly the end-to-end metrics")
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name}: end-to-end metrics are positive")

        raw = res["raw"]
        rnd = raw["rounds"][0]
        expect(not workload.check(raw["inputs"], raw["oracle"], rnd["setup"], rnd["out"]),
               f"{name}: checks pass on the real output")
        for what, corrupt in CORRUPTIONS[name]:
            setup, out = copy.deepcopy((rnd["setup"], rnd["out"]))
            corrupt(setup, out)
            problems = workload.check(raw["inputs"], raw["oracle"], setup, out)
            expect(bool(problems), f"{name}: catches {what}: {problems[:1]}")

        traced = run.run_workload(name, seed=7, seconds=0.0, trace=True, toy=True)
        expect(traced["correct"] and set(traced["metrics"]) == layers,
               f"{name}: traced toy run reports exactly the per-layer metrics")


def check_without_sources() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmark")
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_toy_runs(config)
    check_without_sources()
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
