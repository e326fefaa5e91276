"""Outside-in span tracer for the cfq layers.

Spans are recorded from the benchmark's side: each traced public function is
replaced, at every `cfq.*` module attribute bound to it, by a wrapper that
records a span.  Re-binding every attribute matters because `from .x import
y` copies the binding into the importing module, and intra-module calls
(`compose` inside `enumerate_class_group`) look up the module's globals.
Modules are looked up by full name (`importlib.import_module("cfq.eta")`),
because the attribute `cfq.eta` is the function that `cfq/__init__.py`
re-exports, not the module.  A traced name a later change removes is
reported as missing, not fatal.  No source under src/ changes.

A span is (name, start, end, parent index, request id, raised).  Spans are
kept in memory and aggregated when the run ends.  Self time is a span's
duration minus the durations of its direct children; everything runs on one
thread, so spans nest and there is no wait time to report.

Layer -> per-layer metric -> the end-to-end metric it should move:

  classfield  rounds, final_prec_bits, self_ms  every workload
  quadforms   enumerate_class_group.*, compose.*  polys_per_s on small_levels,
              then paper71; barely on highprec_eta
  elliptic    enumerate_representatives.*  small_levels (regression guard)
  hauptmodul  evaluate.qseries.*, load_qseries.*, fricke_reduce.self_ms
              latency_p50_ms on paper71 only; a parse cache moves setup_s and
              peak_rss_mib.  evaluate.useful_share = accepted points per
              evaluate call.
  eta         eta_quotient.*  highprec_eta most, then small_levels; not paper71
  numerics    poly_from_roots.self_ms, round_to_int_poly.*  small everywhere
  exactpoly   verify_root_relation.self_ms  paper71 only
  cli         run.self_ms  paper71 only
  trace       overhead_share  none; keeps the trace honest
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs wrapped at the layer boundaries.
TRACED = (
    ("classfield", "ring_class_polynomial"),
    ("classfield", "singular_values"),
    ("quadforms", "enumerate_class_group"),
    ("quadforms", "compose"),
    ("elliptic", "enumerate_representatives"),
    ("hauptmodul", "catalog_lookup"),
    ("hauptmodul", "load_qseries"),
    ("hauptmodul", "evaluate"),
    ("hauptmodul", "fricke_reduce"),
    ("eta", "eta_quotient"),
    ("numerics", "poly_from_roots"),
    ("numerics", "round_to_int_poly"),
    ("exactpoly", "verify_root_relation"),
    ("cli", "run"),
)

# (metric, unit): every per-layer metric the traced run reports, per request.
PER_LAYER = (
    ("classfield.rounds", "count"),
    ("classfield.final_prec_bits", "bits"),
    ("classfield.self_ms", "ms"),
    ("quadforms.enumerate_class_group.calls", "count"),
    ("quadforms.enumerate_class_group.self_ms", "ms"),
    ("quadforms.compose.calls", "count"),
    ("quadforms.compose.self_ms", "ms"),
    ("elliptic.enumerate_representatives.calls", "count"),
    ("elliptic.enumerate_representatives.self_ms", "ms"),
    ("hauptmodul.catalog_lookup.calls", "count"),
    ("hauptmodul.load_qseries.calls", "count"),
    ("hauptmodul.load_qseries.self_ms", "ms"),
    ("hauptmodul.evaluate.qseries.calls", "count"),
    ("hauptmodul.evaluate.qseries.self_ms", "ms"),
    ("hauptmodul.evaluate.eta.calls", "count"),
    ("hauptmodul.evaluate.eta.self_ms", "ms"),
    ("hauptmodul.fricke_reduce.self_ms", "ms"),
    ("hauptmodul.evaluate.useful_share", "ratio"),
    ("eta.eta_quotient.calls", "count"),
    ("eta.eta_quotient.self_ms", "ms"),
    ("numerics.poly_from_roots.self_ms", "ms"),
    ("numerics.round_to_int_poly.self_ms", "ms"),
    ("numerics.round_to_int_poly.failures", "count"),
    ("exactpoly.verify_root_relation.self_ms", "ms"),
    ("cli.run.self_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)


def rebind(old, new) -> list[tuple[object, str, object]]:
    """Point every cfq.* module attribute bound to `old` at `new`.

    Returns (module, attribute, old) triples, so the caller can undo it.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cfq" or mod_name.startswith("cfq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def _evaluate_kind(args, kwargs) -> str:
    # the catalog entry is the first argument; q-series entries and the eta
    # quotient entries (plain and Fricke-symmetrized) take different paths
    spec = args[0] if args else kwargs.get("spec")
    if type(spec).__name__ == "QSeriesHaupt":
        return "hauptmodul.evaluate.qseries"
    return "hauptmodul.evaluate.eta"


class Tracer:
    """Span recorder installed around the TRACED functions."""

    def __init__(self):
        self.spans: list = []
        self.polys: list[tuple[int, int]] = []  # (prec_bits, degree) accepted
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        self.missing = []
        for module, func in TRACED:
            try:
                fn = getattr(importlib.import_module(f"cfq.{module}"), func, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.missing.append(f"{module}.{func}")
                continue
            self._undo += rebind(fn, self._wrap(f"{module}.{func}", fn))

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._undo):
            setattr(mod, attr, old)
        self._undo = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        kind = _evaluate_kind if name == "hauptmodul.evaluate" else None
        accepted = self.polys if name == "classfield.ring_class_polynomial" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = kind(args, kwargs) if kind else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.request, raised)
            if accepted is not None:
                # the request's own check validates the result; here a
                # changed result type only blanks these two metrics
                poly = getattr(result, "poly", None)
                accepted.append((getattr(result, "prec_bits", 0), getattr(poly, "degree", 0)))
            return result

        return traced

    def call_counts(self, first_span: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[first_span:])


def aggregate(spans, polys, requests: int, overhead_share: float) -> dict[str, float]:
    """Per-request per-layer metrics from the spans of `requests` requests."""
    calls: Counter = Counter()
    raised: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, _request, _raised in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for index, (name, start, end, _parent, _request, failed) in enumerate(spans):
        calls[name] += 1
        raised[name] += failed
        self_s[name] += end - start - child_s[index]
    accepted = max(1, len(polys))
    evaluations = calls["hauptmodul.evaluate.qseries"] + calls["hauptmodul.evaluate.eta"]
    special = {
        "classfield.rounds": calls["classfield.singular_values"] / accepted,
        "classfield.final_prec_bits": sum(bits for bits, _ in polys) / accepted,
        "classfield.self_ms": sum(
            t for name, t in self_s.items() if name.startswith("classfield.")
        ) * 1000.0 / requests,
        "hauptmodul.evaluate.useful_share": sum(deg for _, deg in polys) / max(1, evaluations),
        "numerics.round_to_int_poly.failures": raised["numerics.round_to_int_poly"] / requests,
        "trace.overhead_share": overhead_share,
    }
    out = {}
    for metric, _unit in PER_LAYER:
        name, _, what = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif what == "calls":
            out[metric] = calls[name] / requests
        else:
            out[metric] = self_s[name] * 1000.0 / requests
    return out
