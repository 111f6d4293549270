"""One benchmark process: set up arcwave, then optionally run one round.

Usage (the parent ``run.py`` builds the spec):

    PYTHONPATH=src python3 benchmark/worker.py '<json spec>'

The spec names the workload, its inputs, and the mode: ``setup`` stops
after set-up, ``round`` also runs one round with tracing off, ``trace``
runs the round with spans recorded and writes them to ``spans_path``.  The
last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import workloads


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[spec["workload"]]
    inp = spec["inputs"]

    t0 = perf_counter()
    ctx = workload.setup(inp)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "setup": workload.setup_outputs(ctx)}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if spec["mode"] == "trace":
        import tracing
        from arcwave import kernels, resonance

        curve_caches = [getattr(kernels, name, None) for name in tracing.CURVE_CACHES]
        before = {"curve": [tracing.cache_counts(c) for c in curve_caches],
                  "bonds": tracing.cache_counts(resonance.critical_bonds)}
        tracer = tracing.Tracer()
        tracer.install()

    t1 = perf_counter()
    out = workload.run_round(ctx, inp)
    wall_s = perf_counter() - t1
    result.update(wall_s=wall_s, out=out,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if tracer is not None:
        tracer.uninstall()
        curve = [tracing.cache_counts(c) for c in curve_caches]
        result["trace"] = {
            "spans": tracer.summary(),
            "n_spans": len(tracer.name_id),
            "fft_points": tracer.fft_points,
            "extraction_points_max": tracer.extraction_points_max,
            "curve_cache": [sum(now[i] - old[i] for now, old in zip(curve, before["curve"]))
                            for i in (0, 1)],
            "bonds_cache": [now - old for now, old in zip(
                tracing.cache_counts(resonance.critical_bonds), before["bonds"])],
        }
        tracer.write(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
