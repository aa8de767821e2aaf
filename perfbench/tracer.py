"""Span tracing of the tfuprob layers, wrapped from outside the package.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records one span: name, start, end and parent. It rebinds the
wrapper wherever callers look the function up: the module's own attribute
(how `checks` and `wde` reach their siblings, and how a module calls its own
functions) and every `from ... import` binding in the other modules (how
`cli` reaches `load_path`). `uninstall()` puts the originals back.

Spans stay in memory and are written once, when the run ends. A span's
self time is its duration minus the part of its interval its child spans
cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from array import array

import numpy as np

PACKAGE = "tfuprob"
LAYERS = (
    "problemfile", "logic", "formulas", "classical", "measures", "quantum",
    "wde", "kernels", "report", "checks", "cli",
)
DENSE = ("wde.wde_quantum_paired", "wde.wde_quantum_shared")


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Each child is clipped to its parent's interval. Spans come from one
    thread, so siblings never overlap and their coverage adds up.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    covered = np.minimum(end[child], end[up]) - np.maximum(start[child], start[up])
    cover = np.bincount(up, weights=np.clip(covered, 0.0, None), minlength=start.size)
    return (end - start) - cover


class Tracer:
    """In-memory spans plus the few counters the layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in start order; typed arrays keep a span at 28 bytes
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters = {
            "tuples": 0, "sheet_bytes_max": 0, "scan_peak_bytes": 0,
            "bytes_in": 0, "bytes_out": 0, "cases": 0, "searches": 0, "witnesses": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_of.append(name_id)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = parent[idx]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # Counters are taken outside the span's clock reads, so their cost lands
    # in the caller's self time, never in the probed layer's.

    def _scan_before(self, args):
        jab, jbc, jac = (np.shape(a) for a in args[:3])
        c = self.counters
        c["tuples"] += jab[0] * jab[1] * jac[1]
        sheet_bytes = 8 * (jab[0] * jab[1] + jbc[0] * jbc[1] + jac[0] * jac[1])
        c["sheet_bytes_max"] = max(c["sheet_bytes_max"], sheet_bytes)
        tracemalloc.start()

    def _scan_after(self, args, result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self.counters["scan_peak_bytes"] = max(self.counters["scan_peak_bytes"], peak)

    def _loads_after(self, args, result):
        self.counters["bytes_in"] += len(args[0])

    def _render_after(self, args, result):
        self.counters["bytes_out"] += len(result)

    def _checks_after(self, args, result):
        self.counters["cases"] += sum(s["cases"] or 0 for s in result["suites"])

    def _search_after(self, args, result):
        self.counters["searches"] += 1
        self.counters["witnesses"] += result is not None

    def _probes(self, qualname: str):
        return {
            "kernels.scan_triple": (self._scan_before, self._scan_after),
            "problemfile.loads": (None, self._loads_after),
            "report.render": (None, self._render_after),
            "checks.run_checks": (None, self._checks_after),
            "wde.search_violation": (None, self._search_after),
        }.get(qualname, (None, None))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    qualname = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(qualname, obj, *self._probes(qualname))
        for module in (importlib.import_module(PACKAGE), *modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and share, per op, plus the counters.

        An op is a span without a parent: the benchmark calls `cli.main`.
        """
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        selfs = self_times(start, end, parent)
        roots = parent < 0
        ops = max(int(roots.sum()), 1)
        op_seconds = float(np.sum(end[roots] - start[roots])) or 1.0
        layer_of = np.array([LAYERS.index(name.split(".", 1)[0]) for name in self.names],
                            dtype=np.int64)
        span_layer = layer_of[name_of]
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        self_s = np.bincount(span_layer, weights=selfs, minlength=len(LAYERS))
        by_name = np.bincount(name_of, weights=end - start, minlength=len(self.names))
        incl = dict(zip(self.names, by_name.tolist()))

        out: dict[str, float] = {}
        for pos, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(calls[pos]) / ops
            out[f"{layer}.self_ms"] = 1e3 * float(self_s[pos]) / ops
            out[f"{layer}.share"] = float(self_s[pos]) / op_seconds
        c = self.counters
        scan_s = incl.get("kernels.scan_triple", 0.0)
        render_s = incl.get("report.render", 0.0)
        out["kernels.tuples"] = c["tuples"] / ops
        out["kernels.ns_per_tuple"] = 1e9 * scan_s / c["tuples"] if c["tuples"] else 0.0
        out["kernels.sheet_mb"] = c["sheet_bytes_max"] / 2**20
        out["kernels.peak_alloc_mb"] = c["scan_peak_bytes"] / 2**20
        out["wde.dense_ms"] = 1e3 * sum(incl.get(name, 0.0) for name in DENSE) / ops
        out["wde.witness_ratio"] = c["witnesses"] / c["searches"] if c["searches"] else 0.0
        out["problemfile.bytes_in"] = c["bytes_in"] / ops
        out["report.bytes_out"] = c["bytes_out"] / ops
        out["report.mb_per_s"] = c["bytes_out"] / 1e6 / render_s if render_s else 0.0
        out["checks.cases"] = c["cases"] / ops
        return out

    def save(self, path) -> None:
        """Write every span: the name table, then name, parent, start and end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
