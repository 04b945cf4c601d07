"""Span tracing around the library's layer boundaries, and the per-layer
metrics computed from the spans.

The tracer wraps public functions at the module attributes through which
the library calls them, so no library file changes.  Every wrapped call
records a span (name, start, end, parent); the integrand helpers of the
quadratures run hundreds of thousands of times per constant, so they only
add to a count and to their parent span's child time.  A span's self time
is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name); the span name's prefix is the layer.
SPAN_POINTS = (
    ("anisofield.harness", "afb_sra", "synthesis.afb_sra"),
    ("anisofield.harness", "fbm_path", "synthesis.fbm_path"),
    ("anisofield.harness", "estimate_pair", "estimator.estimate_pair"),
    ("anisofield.harness", "estimate_H", "estimator.estimate_H"),
    ("anisofield.estimator", "project_axis", "projection.project_axis"),
    ("anisofield.estimator", "quad_variation", "estimator.quad_variation"),
    ("anisofield.synthesis", "density", "spectral.density"),
    # harness calls theory.gamma_const through the module, so this one
    # attribute covers both the harness and asymptotic_constants.
    ("anisofield.theory", "gamma_const", "theory.gamma_const"),
    ("anisofield.theory", "Gamma_fourier", "theory.Gamma_fourier"),
    ("anisofield.theory", "asymptotic_constants", "theory.asymptotic_constants"),
)
LEAF_POINTS = (
    ("anisofield.theory", "cross_transfer", "filters.cross_transfer"),
    ("anisofield.theory", "transfer_sq", "filters.transfer_sq"),
)
# Layers whose self-time share is reported; the harness is reported as
# harness.self_share.
LAYERS = ("synthesis", "spectral", "projection", "estimator", "theory", "filters")


class Tracer:
    """In-memory span recorder for one serial process."""

    def __init__(self):
        # [name, start, end, parent index, child seconds, key]
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, key=None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, 0.0, key]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][4] += span[2] - span[1]

    def wrap(self, name, fn, key=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = key(*args) if key else None
            return self.call(name, fn, args, kwargs, k)

        return traced

    def leaf(self, name, fn):
        stats = self.leaves[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt

        return counted

    def install(self):
        """Patch every span and leaf point; returns the undo function."""
        saved = []
        for mod_name, attr, name in SPAN_POINTS + LEAF_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            if (mod_name, attr, name) in LEAF_POINTS:
                setattr(mod, attr, self.leaf(name, fn))
            elif attr == "afb_sra":
                # Cold calls are the first per (model, M).
                setattr(mod, attr, self.wrap(name, fn, key=lambda m, M, *_: f"{m!r}/{M}"))
            else:
                setattr(mod, attr, self.wrap(name, fn))

        def undo():
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

        return undo

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": dict(self.leaves)}


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten or fewer samples no such
    percentile exists and the maximum is returned as the 100th.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(dump: dict) -> dict:
    """Per-layer numbers from one traced run's spans (values only)."""
    spans = dump["spans"]
    leaves = dump["leaves"]
    dur = defaultdict(list)
    self_ms = defaultdict(list)
    layer_self = defaultdict(float)
    for name, start, end, parent, child, _key in spans:
        dur[name].append((end - start) * 1e3)
        self_ms[name].append((end - start - child) * 1e3)
        layer_self[name.split(".", 1)[0]] += end - start - child
    layer_self["filters"] += sum(total for _count, total in leaves.values())
    root = next(s for s in spans if s[3] is None)
    wall = root[2] - root[1]

    afb = dur["synthesis.afb_sra"]
    afb_tail, afb_pct = tail(afb)
    first, warm, seen = [], [], set()
    for name, start, end, _p, _c, key in spans:
        if name == "synthesis.afb_sra":
            (warm if key in seen else first).append((end - start) * 1e3)
            seen.add(key)
    cold = _p50(first) - _p50(warm) if first and warm else 0.0

    fields = len(afb)
    items = fields + len(dur["synthesis.fbm_path"])
    # A bundle is the outermost theory call behind one configuration:
    # gamma_const from the harness, asymptotic_constants from the benchmark.
    bundles = [
        (s[2] - s[1])
        for s in spans
        if s[0].startswith("theory.")
        and (s[3] is None or not spans[s[3]][0].startswith("theory."))
    ]
    integrand = sum(count for count, _total in leaves.values())

    def per(count, base):
        return count / base if base else 0.0

    m = {
        "synthesis.afb_sra_ms_p50": _p50(afb),
        "synthesis.afb_sra_ms_tail": afb_tail,
        "synthesis.afb_sra_tail_pct": afb_pct,
        "synthesis.afb_sra_n": fields,
        "synthesis.afb_sra_cold_ms": cold,
        "synthesis.fbm_path_ms_p50": _p50(dur["synthesis.fbm_path"]),
        "synthesis.fbm_path_n": len(dur["synthesis.fbm_path"]),
        "projection.project_axis_ms_p50": _p50(dur["projection.project_axis"]),
        "projection.project_axis_n": len(dur["projection.project_axis"]),
        "projection.calls_per_field": per(len(dur["projection.project_axis"]), fields),
        "estimator.estimate_pair_self_ms_p50": _p50(self_ms["estimator.estimate_pair"]),
        "estimator.estimate_pair_n": len(dur["estimator.estimate_pair"]),
        "estimator.quad_variation_calls_per_item": per(
            len(dur["estimator.quad_variation"]), items
        ),
        "estimator.estimate_H_ms_p50": _p50(dur["estimator.estimate_H"]),
        "estimator.estimate_H_n": len(dur["estimator.estimate_H"]),
        "theory.gamma_const_s_p50": _p50(dur["theory.gamma_const"]) / 1e3,
        "theory.gamma_const_n": len(dur["theory.gamma_const"]),
        "theory.bundle_s_p50": _p50(bundles),
        "theory.bundle_n": len(bundles),
        "theory.gamma_fourier_calls_per_bundle": per(
            len(dur["theory.Gamma_fourier"]), len(bundles)
        ),
        "theory.integrand_evals_per_bundle": per(integrand, len(bundles)),
        "harness.self_share": layer_self["harness"] / wall,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / wall
    return m
