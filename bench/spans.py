"""Span recorder for the traced run: wraps package functions from outside.

Each function is wrapped where its caller looks it up, so the package itself
is unchanged. A site whose module or attribute no longer exists is skipped:
it records no span and its metrics are absent from the result.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module whose namespace the caller reads, attribute)
SITES = (
    ("harness.run_report", "resist_sketch.cli", "run_report"),
    ("io.load_graph", "resist_sketch.io", "load_graph"),
    ("graphs.incidence_factors", "resist_sketch.harness", "incidence_factors"),
    ("graphs.laplacian_of", "resist_sketch.harness", "laplacian_of"),
    ("graphs.laplacian_of", "resist_sketch.spectral", "laplacian_of"),
    ("spectral.spectral_profile", "resist_sketch.harness", "spectral_profile"),
    ("spectral.effective_resistances", "resist_sketch.harness", "effective_resistances"),
    ("spectral.leverage_probabilities", "resist_sketch.harness", "leverage_probabilities"),
    ("sampling.draw_samples", "resist_sketch.sampling", "draw_samples"),
    ("sampling.build_sparsifier", "resist_sketch.harness", "build_sparsifier"),
    ("sampling.concentration_check", "resist_sketch.harness", "concentration_check"),
    ("solve.solve_exact", "resist_sketch.harness", "solve_exact"),
    ("solve.solve_sparsified", "resist_sketch.harness", "solve_sparsified"),
    ("solve.error_report", "resist_sketch.harness", "error_report"),
)

#: every span name, the benchmark's root span around cli.main first
FUNCTIONS = ("cli.main",) + tuple(dict.fromkeys(name for name, _, _ in SITES))


class Recorder:
    """Spans kept in memory: name, start, end, parent span and CLI call."""

    def __init__(self, graph_rank: int):
        self.graph_rank = graph_rank
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._call = -1

    @contextmanager
    def span(self, name: str, call: int | None = None):
        if call is not None:
            self._call = call
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "call": self._call,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def observe(self, name: str, args: tuple, result) -> None:
        # counts taken at the layer boundary; an attribute a later version
        # drops is skipped rather than guessed
        if name == "sampling.build_sparsifier":
            r = getattr(args[1] if len(args) > 1 else None, "r", None)
            distinct = getattr(result, "distinct_edges", None)
            if r is not None and distinct is not None:
                self.counts["draws"] += r
                self.counts["distinct_edges"] += distinct
        elif name == "solve.solve_sparsified":
            rank = getattr(result, "rank", None)
            if rank is not None:
                self.counts["rank_shortfall"] += rank < self.graph_rank

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time, and call count."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s["name"], {"duration": 0.0, "self": 0.0, "calls": 0})
            duration = s["end"] - s["start"]
            t["duration"] += duration
            t["self"] += duration - child[s["id"]]
            t["calls"] += 1
        return out


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        recorder.observe(name, args, result)
        return result

    return wrapper


@contextmanager
def installed(recorder: Recorder):
    """Wrap every site that exists for the duration of the block."""
    patched = []
    try:
        for name, module_name, attr in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, _wrap(recorder, name, fn))
                patched.append((module, attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
