"""arcwave benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads: ``scan``, ``bond-sweep``, ``monitored-run`` (see README.md).
Every round runs in a fresh worker process (``worker.py``) on the sources
under ``src/``, so each round pays arcwave's set-up once and its peak
memory is that of the workload alone.  Rounds repeat until the next one
would end after ``--seconds``; at least one round always runs.

With ``--trace 0`` the last line of output holds the end-to-end metrics
``setup_s``, ``wall_s`` and ``peak_rss_mb``; with ``--trace 1`` untraced and
traced rounds alternate and it holds the per-layer metrics.  ``--toy``
shrinks every workload to a few seconds, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: fewest set-up samples behind the ``setup_s`` median.  Set-up-only
#: processes add samples: a few before the rounds and, when few rounds fit
#: in a run, more after them, so the samples straddle the rounds instead of
#: all falling into one phase of the host's speed
SETUP_SAMPLES = 5
SETUP_BEFORE_ROUNDS = 2
#: a run whose workers have not all finished this long after its start is
#: stopped (the worker is killed) and fails, inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # BLAS thread pools only burn a second core at start-up here: arcwave's
    # work is FFTs and elementwise arithmetic, which run on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(spec: dict, deadline: float, importtime: bool = False) -> tuple[dict, str]:
    """Run one worker process; return its result and its standard error.

    ``deadline`` is a ``time.perf_counter()`` value; a worker still running
    then is killed and waited for.
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"run did not finish within {RUN_DEADLINE_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"worker failed with exit code {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1]), proc.stderr


def import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import times from ``-X importtime`` output."""
    arcwave_us = 0
    scipy_optimize_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2]
        stripped = name.strip()
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and (stripped == "arcwave" or stripped.startswith("arcwave.")):
            arcwave_us += cumulative
        if stripped == "scipy.optimize" and not scipy_optimize_us:
            scipy_optimize_us = cumulative
    return {"import.arcwave_s": arcwave_us * 1e-6,
            "import.scipy_optimize_s": scipy_optimize_us * 1e-6}


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds (medians of times; counts repeat)."""
    med = statistics.median
    first = traced[0]["trace"]
    spans = [r["trace"]["spans"] for r in traced]
    empty = {"calls": 0, "self_s": 0.0, "fft_calls": 0}
    m: dict[str, tuple[float, str]] = {}
    fft = first["spans"].get("fft", empty)
    m["fft.calls"] = (fft["calls"], "count")
    m["fft.points"] = (first["fft_points"], "count")
    m["fft.self_s"] = (med([s.get("fft", empty)["self_s"] for s in spans]), "s")
    for _, _, name in tracing.TRACED:
        rec = first["spans"].get(name, empty)
        m[f"{name}.calls"] = (rec["calls"], "count")
        m[f"{name}.self_s"] = (med([s.get(name, empty)["self_s"] for s in spans]), "s")
    nl = first["spans"].get("equations.nonlinear", empty)
    m["equations.nonlinear.fft_per_call"] = (
        nl["fft_calls"] / nl["calls"] if nl["calls"] else 0.0, "count")
    m["sim.steps"] = (traced[0]["out"]["steps"], "count")
    hits, misses = first["curve_cache"]
    m["kernels.curve_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["kernels.extraction_points_max"] = (first["extraction_points_max"], "count")
    hits, misses = first["bonds_cache"]
    m["resonance.critical_bonds.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for key in ("import.arcwave_s", "import.scipy_optimize_s"):
        m[key] = (med([r["imports"][key] for r in traced]), "s")
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (first["n_spans"], "count")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run whole rounds of one workload; return metrics, counts and checks."""
    for needed in ("src/arcwave/__init__.py", "scripts/derive_kernel_oracles.py",
                   "scripts/derive_reference_values.py"):
        if not (ROOT / needed).is_file():
            raise BenchmarkError(f"{needed} is missing from the checkout")
    workload = workloads.WORKLOADS[name]
    inp = workload.inputs(seed, toy)
    orc = workload.oracle(inp)
    OUT_DIR.mkdir(exist_ok=True)
    base = {"workload": name, "inputs": inp}

    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_samples = [run_worker({**base, "mode": "setup"}, deadline)[0]["setup_s"]
                     for _ in range(0 if trace else SETUP_BEFORE_ROUNDS)]
    rounds, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, _ = run_worker({**base, "mode": "round"}, deadline)
        rounds.append(result)
        if trace:
            spans_path = OUT_DIR / f"spans-{name}-{seed}-{len(traced)}.json.gz"
            result, stderr = run_worker(
                {**base, "mode": "trace", "spans_path": str(spans_path)}, deadline,
                importtime=True)
            result["imports"] = import_seconds(stderr)
            traced.append(result)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    setup_samples += [r["setup_s"] for r in rounds]
    while not trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(run_worker({**base, "mode": "setup"}, deadline)[0]["setup_s"])

    all_rounds = rounds + traced
    ops = [op for r in all_rounds for op in r["out"]["ops"]]
    failed = sum("error" in op for op in ops)
    problems = []
    for i, r in enumerate(all_rounds):
        if len(r["out"]["ops"]) != workload.ops_per_round(inp):
            problems.append(f"round {i}: {len(r['out']['ops'])} operations, "
                            f"expected {workload.ops_per_round(inp)}")
        problems += [f"round {i}: {p}" for p in workload.check(inp, orc, r["setup"], r["out"])]
    errors = sorted({op["error"] for op in ops if "error" in op})

    # the mean, not the median, of a run's few rounds: under the host's
    # two-speed phases a median of 4-5 rounds jumps between the phases
    wall = statistics.fmean(r["wall_s"] for r in rounds)
    if trace:
        metrics = layer_metrics(traced, wall)
    else:
        metrics = {"setup_s": (statistics.median(setup_samples), "s"),
                   "wall_s": (wall, "s"),
                   "peak_rss_mb": (max(r["peak_rss_kb"] for r in rounds) / 1024.0, "MB")}
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "errors": errors,
        "details": {"rounds": len(rounds), "traced_rounds": len(traced),
                    "round_wall_s": [r["wall_s"] for r in rounds],
                    "setup_s": setup_samples, "inputs": inp,
                    "workload": workload.details(rounds[0]["out"])},
        "raw": {"inputs": inp, "oracle": orc, "rounds": all_rounds},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to seconds (self-test)")
    args = parser.parse_args(argv)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for e in res["errors"]:
        print(f"OPERATION FAILED: {e}", file=sys.stderr)
    path = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({k: v for k, v in res.items() if k != "raw"}, indent=1))
    print(json.dumps({"workload": args.workload, **res["details"]}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
