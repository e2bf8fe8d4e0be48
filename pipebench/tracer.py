"""Spans and counters recorded from outside the rsmirnov package.

``Tracer.install()`` replaces the public entry points of each module with
thin wrappers.  A wrapper is installed on every rsmirnov namespace that
binds the original function (``find_roots``, for example, is imported by
name into four modules), so no call escapes the trace.  Nothing under
``src/`` is modified; ``uninstall()`` puts the originals back.

Each call records a span ``(name, start, end, parent, item)`` in memory.
Spans are written out only when the run ends.  Layer names follow the
modules: ``<module>.<function>``, with ``kernels`` for the ``_kernels``
module (a metric name starts with a letter), ``attempt`` and ``assemble``
for the private ``_attempt`` and ``_assemble`` and ``surrogate_loss`` for
``_surrogate_loss``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACE_STATUS = {1: "hit_circle", 2: "hit_pole", 3: "hit_branch",
                4: "stalled", 5: "non_monotone", 6: "max_steps"}

# (layer name, module, attribute)
TARGETS = [
    ("kernels.classify_grid", "_kernels", "classify_grid"),
    ("kernels.aberth_iterate", "_kernels", "aberth_iterate"),
    ("kernels.trace_arc", "_kernels", "trace_arc"),
    ("kernels.horner_many", "_kernels", "horner_many"),
    ("complex_poly.find_roots", "complex_poly", "find_roots"),
    ("blaschke_smirnov.valence_at", "blaschke_smirnov", "valence_at"),
    ("blaschke_smirnov.halfplane_valences", "blaschke_smirnov",
     "halfplane_valences"),
    ("blaschke_smirnov.integral_means", "blaschke_smirnov", "integral_means"),
    ("region_extraction.extract_full", "region_extraction", "extract_full"),
    ("region_extraction.attempt", "region_extraction", "_attempt"),
    ("region_extraction.partition", "region_extraction", "partition"),
    ("region_extraction.region_valence", "region_extraction",
     "region_valence"),
    ("region_extraction.find_branch_points", "region_extraction",
     "find_branch_points"),
    ("region_extraction.trace_segments", "region_extraction",
     "trace_segments"),
    ("region_extraction.assemble", "region_extraction", "_assemble"),
    ("region_extraction.crosscheck", "region_extraction", "crosscheck"),
    ("valence_tree.validate", "valence_tree", "validate"),
    ("valence_tree.profile", "valence_tree", "profile"),
    ("valence_tree.canonical_code", "valence_tree", "canonical_code"),
    ("synthesis.catalog_realize", "synthesis", "catalog_realize"),
    ("synthesis.synthesize_search", "synthesis", "synthesize_search"),
    ("synthesis.minimize", "synthesis", "minimize"),
    ("synthesis.surrogate_loss", "synthesis", "_surrogate_loss"),
    ("cli.cmd_analyze", "cli", "cmd_analyze"),
    ("cli.cmd_synthesize", "cli", "cmd_synthesize"),
]

def _degree(coeffs) -> int:
    return len(coeffs) - 1


class Tracer:
    """In-memory spans, counters and failed extraction attempts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.item = -1
        self.spans: list[tuple] = []
        self.counters: defaultdict = defaultdict(float)
        self.failed_attempts: list[dict] = []
        self.active = False
        self.computed = False
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "rsmirnov" or name.startswith("rsmirnov.")]
        for layer, modname, attr in TARGETS:
            original = getattr(importlib.import_module("rsmirnov." + modname),
                               attr)
            wrapper = self.wrap(layer, original)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    @contextlib.contextmanager
    def recording(self, item: int, computed: bool):
        """Record spans for one item; calls outside this block are not traced.

        ``computed`` selects the items whose ``computed.*`` kernel counts are
        summed: the runner passes the first pass only, so those counts do
        not depend on how many passes the host's speed allowed.
        """
        self.item, self.active, self.computed = item, True, computed
        try:
            yield
        finally:
            self.item, self.active = -1, False

    def bindings(self) -> list[str]:
        """Every ``module.name`` that now holds a wrapper."""
        return sorted("%s.%s" % (mod.__name__, name)
                      for mod, name, _ in self._installed)

    def wrap(self, layer, fn):
        """``fn`` recording a span named ``layer`` while recording is on."""
        extra = getattr(self, "_extra_" + layer.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                counters["%s.errors.%s" % (layer, type(exc).__name__)] += 1
                if extra is not None:
                    extra(args, kwargs, None, exc)
                raise
            else:
                end = clock()
                if extra is not None:
                    extra(args, kwargs, out, None)
                return out
            finally:
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.item)

        return functools.wraps(fn)(wrapper)

    # -- per-layer extras ----------------------------------------------------

    def _computed(self, name, count):
        if self.computed:
            self.counters["computed." + name] += count

    def _extra_kernels_classify_grid(self, args, kwargs, out, exc):
        ncoef, dcoef, wcoef, res = args[:4]
        cells = int(res) * int(res)
        self.counters["kernels.classify_grid.cells"] += cells
        terms = _degree(ncoef) + _degree(dcoef) + _degree(wcoef) + 3
        self._computed("classify_grid.horner_terms", cells * terms)

    def _extra_kernels_aberth_iterate(self, args, kwargs, out, exc):
        if out is None:
            return
        _, iterations, converged = out
        deg = _degree(args[0])
        self.counters["kernels.aberth_iterate.iterations"] += iterations
        self.counters["kernels.aberth_iterate.unconverged"] += not converged
        self._computed("aberth.iterations_x_degree2", iterations * deg * deg)

    def _extra_kernels_trace_arc(self, args, kwargs, out, exc):
        if out is None:
            return
        pts, status, _ = out
        self.counters["kernels.trace_arc.steps"] += len(pts)
        self._computed("trace_arc.steps", len(pts))
        self.counters["kernels.trace_arc.status." +
                      TRACE_STATUS.get(int(status), str(status))] += 1

    def _extra_kernels_horner_many(self, args, kwargs, out, exc):
        self.counters["kernels.horner_many.points"] += int(np.size(args[1]))

    def _extra_complex_poly_find_roots(self, args, kwargs, out, exc):
        p = args[0]
        deg = getattr(p, "degree", None)
        if deg is None:
            deg = _degree(p)
        self.counters["complex_poly.find_roots.degree_sum"] += deg

    def _extra_region_extraction_trace_segments(self, args, kwargs, out, exc):
        if out is not None:
            self.counters["region_extraction.trace_segments.arcs"] += len(out)

    def _extra_region_extraction_crosscheck(self, args, kwargs, out, exc):
        if out is not None:
            self.counters["region_extraction.crosscheck.samples"] += out.samples
            self.counters["region_extraction.crosscheck.mismatches"] += len(
                out.mismatches)

    def _extra_region_extraction_attempt(self, args, kwargs, out, exc):
        if exc is None:
            return
        res = args[1] if len(args) > 1 else kwargs.get("res")
        msg = str(exc).splitlines()
        self.failed_attempts.append({
            "workload": self.workload, "item": self.item,
            "resolution": int(res), "exception": type(exc).__name__,
            "message": msg[0] if msg else "",
        })

    def _extra_synthesis_synthesize_search(self, args, kwargs, out, exc):
        if out is not None:
            self.counters["synthesis.evaluations"] += out.evaluations
            self.counters["synthesis.exact_results"] += out.status == "exact"
        elif exc is not None and hasattr(exc, "best"):
            self.counters["synthesis.evaluations"] += exc.best.evaluations

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls, self time, extras and derived ratios, by metric name."""
        self_s: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        confirmations = 0
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if (name == "region_extraction.extract_full" and parent >= 0
                    and names[parent] == "synthesis.synthesize_search"):
                confirmations += 1
        out = {}
        for layer, _, _ in TARGETS:
            out[layer + ".calls"] = calls.get(layer, 0)
            out[layer + ".self_s"] = self_s.get(layer, 0.0)
        out.update(self.counters)
        out["synthesis.confirmations"] = confirmations
        extractions = calls.get("region_extraction.extract_full", 0)
        attempts = calls.get("region_extraction.attempt", 0)
        out["region_extraction.attempts_per_extraction"] = (
            attempts / extractions if extractions else 0.0)
        out["region_extraction.attempts_per_extraction.base"] = extractions
        out["region_extraction.failed_attempts"] = len(self.failed_attempts)
        evals = self.counters.get("synthesis.evaluations", 0)
        surrogate = calls.get("synthesis.surrogate_loss", 0)
        out["synthesis.constraint_reject_ratio"] = (
            (evals - surrogate) / evals if evals else 0.0)
        out["synthesis.constraint_reject_ratio.base"] = evals
        exact = self.counters.get("synthesis.exact_results", 0)
        out["synthesis.confirm_exact_ratio"] = (
            exact / confirmations if confirmations else 0.0)
        out["synthesis.confirm_exact_ratio.base"] = confirmations
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
