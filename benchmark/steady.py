"""Steadiness of the benchmark: repeat a workload over seeds, or compare two sets.

    python3 benchmark/steady.py --workload scan --runs 10 --save benchmark/out/a.json
    python3 benchmark/steady.py --compare benchmark/out/a.json benchmark/out/b.json

The first form runs ``run.py`` once per seed (seed-start, seed-start+1,
...) with the run length of ``BENCHMARK.json`` and prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median, and that spread against the metric's bound.
The second form prints, per metric, how far the second set's median moved
from the first's, against the bound, and whether the share of failed
operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat(workload: str, runs: int, seed_start: int) -> dict:
    config = load_config()
    results = []
    for seed in range(seed_start, seed_start + runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(config["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: run.py failed\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        values = "  ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {values}", flush=True)
    return {"workload": workload, "runs": results}


def report(data: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in load_config()["end_to_end"]}
    runs = data["runs"]
    print(f"\n{data['workload']}: {len(runs)} runs, "
          f"failed share {failed_share(data):.6g}, all correct: "
          f"{all(r['correct'] for r in runs)}")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}{'/bound':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ratio = f"{spread / bound:8.2f}" if bound else " " * 8
        print(f"{name:<34}{med:12.5g}{q1:12.5g}{q3:12.5g}{spread:9.3f}"
              f"{bound if bound else '':>8}{ratio}")


def failed_share(data: dict) -> float:
    runs = data["runs"]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a: dict, b: dict) -> None:
    config = load_config()
    print(f"{'metric':<20}{'median A':>12}{'median B':>12}{'worse by':>10}{'bound':>8}  verdict")
    for m in config["end_to_end"]:
        name = m["name"]
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        print(f"{name:<20}{ma:12.5g}{mb:12.5g}{worse:10.3f}{m['bound']:>8}  {verdict}")
    fa, fb = failed_share(a), failed_share(b)
    print(f"failed share: {fa:.6g} vs {fb:.6g}  {'same' if fa == fb else 'DIFFERENT'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        report(a)
        report(b)
        compare(a, b)
        return
    if not args.workload:
        parser.error("--workload or --compare is required")
    data = repeat(args.workload, args.runs, args.seed_start)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(data, indent=1))
    report(data)


if __name__ == "__main__":
    main()
