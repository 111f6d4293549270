"""Span tracing installed from outside arcwave, for the traced benchmark run.

The tracer replaces chosen public functions (and the numpy/scipy FFT entry
points) with wrappers that record one span per call: name, start, end and
the span that was open when the call began.  Spans live in flat arrays in
memory and are written out once, after the measured round.  A span's self
time is its duration minus the durations of its direct children, which
tile disjoint parts of its interval because calls nest.

Names that a later version of arcwave no longer has are skipped, so their
metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

#: (module, attribute path, span name) of every traced arcwave function
TRACED = (
    ("arcwave.equations", "TruncatedSystem.nonlinear", "equations.nonlinear"),
    ("arcwave.sim", "error_scan", "sim.error_scan"),
    ("arcwave.sim", "run", "sim.run"),
    ("arcwave.sim", "energy_diagnostic", "sim.energy_diagnostic"),
    ("arcwave.sim", "consistency_residual", "sim.consistency_residual"),
    ("arcwave.wavepacket", "build", "wavepacket.build"),
    ("arcwave.wavepacket", "carrier_halves", "wavepacket.carrier_halves"),
    ("arcwave.nls", "solve", "nls.solve"),
    ("arcwave.kernels", "n_hat", "kernels.n_hat"),
    ("arcwave.kernels", "rho_hat", "kernels.rho_hat"),
    ("arcwave.kernels", "equation_kernel_curve", "kernels.equation_kernel_curve"),
    ("arcwave.kernels", "extract_kernel", "kernels.extract_kernel"),
    ("arcwave.kernels", "default_params", "kernels.default_params"),
    ("arcwave.resonance", "stability", "resonance.stability"),
    ("arcwave.resonance", "find_zeros", "resonance.find_zeros"),
    ("arcwave.resonance", "k1_of_b", "resonance.k1_of_b"),
)

#: FFT entry points counted as the ``fft`` layer: arcwave transforms 1-D
#: arrays, or stacks of rows along the last axis, with these two only
FFT_KINDS = ("fft", "ifft")

#: lru caches whose hits and misses make ``kernels.curve_cache.hit_ratio``
CURVE_CACHES = ("_curve_cached", "_second_block_total_cached")


def _fft_points(args, kwargs) -> int:
    """Transform length times the number of rows of one FFT call."""
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return int(getattr(a, "size", 0))


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.fft_points = 0
        self.extraction_points_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn, on_call=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function and FFT entry point that exists."""
        arcwave_modules = [m for n, m in list(sys.modules.items())
                           if (n == "arcwave" or n.startswith("arcwave.")) and m]
        for modname, path, span in TRACED:
            module = sys.modules.get(modname)
            if module is None:
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            hook = self._extraction_hook(original) if span in (
                "kernels.extract_kernel", "kernels.equation_kernel_curve") else None
            wrapped = self.wrap(span, original, hook)
            self._set(owner, attr, wrapped)
            if owner is module:
                self._rebind(arcwave_modules, original, wrapped)

        import numpy.fft
        fft_modules = [numpy.fft]
        scipy_fft = sys.modules.get("scipy.fft")
        if scipy_fft is not None:
            fft_modules.append(scipy_fft)
        for module in fft_modules:
            for kind in FFT_KINDS:
                original = getattr(module, kind, None)
                if original is None:
                    continue
                wrapped = self.wrap("fft", original, self._count_fft_points)
                self._set(module, kind, wrapped)
                self._rebind(arcwave_modules, original, wrapped)

    def _rebind(self, modules, original, wrapped) -> None:
        """Replace names bound by ``from x import f`` in arcwave modules."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _count_fft_points(self, args, kwargs) -> None:
        self.fft_points += _fft_points(args, kwargs)

    def _extraction_hook(self, fn):
        signature = inspect.signature(fn)

        def hook(args, kwargs):
            grid = signature.bind(*args, **kwargs).arguments.get("grid")
            if grid is None:
                kernels = sys.modules.get("arcwave.kernels")
                grid = getattr(kernels, "DEFAULT_EXTRACTION_GRID", None)
            n = getattr(grid, "n_points", 0)
            self.extraction_points_max = max(self.extraction_points_max, n)
        return hook

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ reporting

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and FFT calls directly under it."""
        n = len(self.name_id)
        child = [0.0] * n
        ffts_under = [0] * n
        fft_id = self._ids.get("fft", -2)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name_id[i] == fft_id:
                    ffts_under[p] += 1
        out = {name: {"calls": 0, "self_s": 0.0, "fft_calls": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
            rec["fft_calls"] += ffts_under[i]
        return out

    def write(self, path) -> None:
        """Write every span, as columns, to a gzipped JSON file."""
        payload = {"names": self.names, "name": self.name_id.tolist(),
                   "parent": self.parent.tolist(), "start": self.start.tolist(),
                   "end": self.end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def cache_counts(fn) -> tuple[int, int]:
    """(hits, misses) of an lru-cached function, (0, 0) if it has no cache."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses
