"""In-memory span tracer that wraps morreylab's public functions.

Each function is wrapped at the name its callers look up: ``operators``
imports ``lattice_nodes`` by name from ``quadrature``, and ``harness``
and ``morrey`` do the same, so each of those module attributes gets its
own wrapper; ``hl_maximal_values`` reaches ``frac_maximal_values``
through the ``operators`` module global, so one wrapper covers both.
Wrappers only time and count: arguments and results pass through
untouched, so traced outputs are bit-identical to untraced ones.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from morreylab import groups, harness, morrey, operators, quadrature, report, testfunctions

BATCH_OPERATORS = ("riesz_values", "frac_laplacian_values", "frac_maximal_values")
POINTWISE_OPERATORS = ("horizontal_gradient_values", "sub_laplacian_values")

# spans reported by inclusive time, spans reported by self time, and counts
INCLUSIVE = tuple(f"operators.{op}" for op in BATCH_OPERATORS + POINTWISE_OPERATORS) + (
    "testfunctions.eval", "groups.mul", "groups.gauge", "quadrature.lattice_nodes",
    "quadrature.gauge_power_weights", "morrey.morrey_sup_from_samples", "report.parse_config")
SELF = ("harness.inequality_sides", "report.run_experiment")
COUNTS = tuple(f"operators.{op}.{k}" for op in BATCH_OPERATORS for k in ("calls", "pairs")) + (
    "testfunctions.eval.points", "groups.mul.points", "groups.gauge.points",
    "quadrature.lattice_nodes.calls", "morrey.morrey_sup_from_samples.calls",
    "morrey.morrey_sup_from_samples.center_node_pairs", "harness.dilation_sweep.calls",
    "report.parse_config.calls")

# (metric name, owner, attribute) of each cache whose cache_info() is read
CACHES = (
    ("quadrature.nodes_cache.hit_ratio", quadrature, "_nodes_cached"),
    ("quadrature.shell_cache.hit_ratio", quadrature, "_shell_weights_cached"),
    ("quadrature.gauge_weights_cache.hit_ratio", quadrature, "gauge_power_weights"),
)


def _n_points(arr):
    arr = np.asarray(arr)
    return 1 if arr.ndim <= 1 else int(arr.size // arr.shape[-1])


class Tracer:
    """Wraps the traced functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        self._lattice_sizes = {}
        self._originals = {}

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr, None)
        if original is None:  # the name moved: its callers no longer look it up here
            return
        self._originals.setdefault(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    # -- counters ---------------------------------------------------------

    def _lattice_size(self, g, spec):
        """Node count of the full lattice of ``spec``, without touching caches."""
        key = (g, spec.R_max, spec.effective_h)
        if key not in self._lattice_sizes:
            build = getattr(quadrature._nodes_cached, "__wrapped__", None)
            if build is not None:
                n = build(g, quadrature.resolve_R(spec), spec.effective_h)[0].shape[0]
            else:
                n = self._originals["quadrature.lattice_nodes"](g, spec)[0].shape[0]
            self._lattice_sizes[key] = n
        return self._lattice_sizes[key]

    def _operator_counter(self, name):
        sig = inspect.signature(getattr(operators, name.split(".")[-1]))

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            m = _n_points(bound["points"])
            self.counts[name + ".points"] += m
            self.counts[name + ".pairs"] += m * self._lattice_size(bound["g"], bound["spec"])

        return count

    def _points_counter(self, name, per_row):
        def count(args, kwargs, result):
            self.counts[name + ".points"] += _n_points(result) if per_row else np.size(result)

        return count

    def _morrey_counter(self):
        sig = inspect.signature(morrey.morrey_sup_from_samples)

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            self.counts["morrey.morrey_sup_from_samples.center_node_pairs"] += (
                np.atleast_2d(bound["centers"]).shape[0] * _n_points(bound["nodes"])
            )

        return count

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for op in BATCH_OPERATORS:
            name = f"operators.{op}"
            self._patch(operators, op, name, self._operator_counter(name))
        for op in POINTWISE_OPERATORS:
            self._patch(operators, op, f"operators.{op}")
        self._patch(testfunctions.TestFunction, "__call__", "testfunctions.eval",
                    self._points_counter("testfunctions.eval", per_row=False))
        self._patch(groups, "mul", "groups.mul", self._points_counter("groups.mul", per_row=True))
        self._patch(groups, "gauge", "groups.gauge",
                    self._points_counter("groups.gauge", per_row=False))
        for owner in (quadrature, operators, harness, morrey):
            self._patch(owner, "lattice_nodes", "quadrature.lattice_nodes")
        self._patch(quadrature, "gauge_power_weights", "quadrature.gauge_power_weights")
        self._patch(morrey, "morrey_sup_from_samples", "morrey.morrey_sup_from_samples",
                    self._morrey_counter())
        self._patch(harness, "inequality_sides", "harness.inequality_sides")
        self._patch(harness, "dilation_sweep", "harness.dilation_sweep")
        self._patch(report, "parse_config", "report.parse_config")
        self._patch(report, "run_experiment", "report.run_experiment")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """Per span name: inclusive seconds and self seconds."""
        incl = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(i, 0.0)
        return incl, self_s


def cache_hit_ratios():
    """``hits / (hits + misses)`` of each tracked cache since its last clear."""
    out = {}
    for name, owner, attr in CACHES:
        info = getattr(getattr(owner, attr, None), "cache_info", None)
        if info is None:
            out[name] = 0.0
            continue
        ci = info()
        total = ci.hits + ci.misses
        out[name] = ci.hits / total if total else 0.0
    return out


def layer_metrics(tracer: Tracer):
    """Per-layer figures of one traced pass, from its spans, counts and caches."""
    incl, self_s = tracer.totals()
    out = cache_hit_ratios()
    out.update({f"{n}.s": incl[n] for n in INCLUSIVE})
    out.update({f"{n}.self_s": self_s[n] for n in SELF})
    out.update({k: tracer.counts[k] for k in COUNTS})
    for op in BATCH_OPERATORS:
        n, pairs = f"operators.{op}", out[f"operators.{op}.pairs"]
        out[f"{n}.ns_per_pair"] = 1e9 * incl[n] / pairs if pairs else 0.0
    return out


def spans_document(tracer: Tracer):
    """Spans relative to the first start, for writing out once at the end."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]

