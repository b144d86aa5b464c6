"""Spans and counters recorded from outside rotorcalc.

The tracer replaces functions at the names their callers look them up by
(for example rotorcalc.cli.solve_weights and rotorcalc.binet.numeric_roots),
so every call crossing a layer boundary opens a span.  Spans are kept in
memory, folded into per-layer totals as they close, and the first
SPAN_CAP of them are kept whole for the dump written when the run ends.
Nothing in rotorcalc is edited; the untraced run installs no wrappers.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "expr", "unity", "recurrence", "roots", "binet")
SPAN_CAP = 100_000


MARK = "@perfbench-trace "


def keep_all(args, result):
    return len(result)


def keep_last(args, result):
    return min(1, len(result))


# (module, attribute, layer, timing key).  A key groups the functions that
# do one job (closed3 is cubic_roots, _cubic_labelled and cubic_resolvents),
# and its time counts only outermost spans so nested calls are not counted
# twice.
_PACKAGE_SITES = [
    ("quadratic_roots", "roots", "roots.quadratic"),
    ("cubic_roots", "roots", "roots.cubic"),
    ("numeric_roots", "roots", "roots.numeric"),
    ("solve_weights", "binet", "binet.solve_weights"),
    ("closed_term", "binet", "binet.closed_term"),
    ("binet2", "binet", "binet.binet2"),
    ("binet3", "binet", "binet.binet3"),
    ("m_form", "binet", "binet.m_form"),
    ("component", "binet", "binet.component"),
    ("verify", "binet", "binet.verify"),
]
SITES = [("rotorcalc", name, layer, key) for name, layer, key in _PACKAGE_SITES] + [
    ("rotorcalc.cli", "main", "cli", "cli.main"),
    ("rotorcalc.cli", "evaluate", "expr", "expr.evaluate"),
    ("rotorcalc.cli", "parse", "expr", "expr.parse"),
    ("rotorcalc.cli", "family_elements", "unity", "unity.family_elements"),
    ("rotorcalc.cli", "multiplication_table", "unity", "unity.table"),
    ("rotorcalc.cli", "diff_reference", "unity", "unity.diff_reference"),
    ("rotorcalc.cli", "iterate", "recurrence", "recurrence.iterate"),
    ("rotorcalc.cli", "quadratic_roots", "roots", "roots.quadratic"),
    ("rotorcalc.cli", "cubic_resolvents", "roots", "roots.cubic"),
    ("rotorcalc.cli", "cubic_roots", "roots", "roots.cubic"),
    ("rotorcalc.cli", "numeric_roots", "roots", "roots.numeric"),
    ("rotorcalc.cli", "solve_weights", "binet", "binet.solve_weights"),
    ("rotorcalc.cli", "closed_term", "binet", "binet.closed_term"),
    ("rotorcalc.cli", "verify", "binet", "binet.verify"),
    ("rotorcalc.binet", "iterate", "recurrence", "recurrence.iterate"),
    ("rotorcalc.binet", "quadratic_roots", "roots", "roots.quadratic"),
    ("rotorcalc.binet", "cubic_roots", "roots", "roots.cubic"),
    ("rotorcalc.binet", "_cubic_labelled", "roots", "roots.cubic"),
    ("rotorcalc.binet", "numeric_roots", "roots", "roots.numeric"),
    ("rotorcalc.binet", "solve_weights", "binet", "binet.solve_weights"),
    ("rotorcalc.binet", "closed_term", "binet", "binet.closed_term"),
    ("rotorcalc.binet", "binet2", "binet", "binet.binet2"),
    ("rotorcalc.binet", "binet3", "binet", "binet.binet3"),
    ("rotorcalc.binet", "m_form", "binet", "binet.m_form"),
    ("rotorcalc.binet.MForm", "evaluate", "binet", "binet.m_form_evaluate"),
    ("rotorcalc.roots", "cubic_resolvents", "roots", "roots.cubic"),
    ("rotorcalc.expr", "tokenize", "expr", "expr.tokenize"),
]
# Called so often (the O(n^3) associativity check) that a span each would
# swamp the table's own time: counted only.
COUNTED = [("rotorcalc.unity", "rotor_mul", "unity.rotor_mul")]
# Each call of these is one characteristic-root solve (closed3 is counted
# once, at cubic_resolvents, however it was reached).
SOLVES = {"quadratic_roots", "cubic_resolvents", "numeric_roots"}


class Tracer:
    def __init__(self, domain_error: type, iterate_keeps=None):
        self.domain_error = domain_error
        # terms of an iterate result the caller uses, by call site module
        self.iterate_keeps = iterate_keeps or {}
        self.spans = []
        self.dropped = 0
        self.request = -1
        self.origin = perf_counter()
        self.incl = defaultdict(float)      # key -> seconds in outermost spans
        self.key_self = defaultdict(float)  # key -> seconds not in child spans
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._seen = []
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for module, attr, layer, key in SITES:
            self._patch(module, attr, self._span_wrapper(module, attr, layer, key))
        for module, attr, key in COUNTED:
            self._patch(module, attr, self._count_wrapper(key))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _patch(self, module, attr, make):
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:  # a class inside a module
            module, cls = module.rsplit(".", 1)
            mod = getattr(importlib.import_module(module), cls)
        original = getattr(mod, attr)
        self._undo.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _count_wrapper(self, key):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _span_wrapper(self, module, attr, layer, key):
        tracer = self
        keeps = self.iterate_keeps.get(module, keep_all)
        solve = attr in SOLVES

        def make(fn):
            def traced(*args, **kwargs):
                stack = tracer._stack
                parent = stack[-1] if stack else None
                frame = [tracer._next_id, 0.0]
                tracer._next_id += 1
                stack.append(frame)
                tracer._depth[key] += 1
                if solve:
                    tracer.counts["roots.solves"] += 1
                outcome = "ok"
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    outcome = tracer._blame(exc, layer)
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._close(frame, parent, layer, key, attr, start, end, outcome)
                if key == "recurrence.iterate":
                    tracer.counts["recurrence.terms_generated"] += len(result)
                    tracer.counts["recurrence.terms_kept"] += keeps(args, result)
                elif key == "expr.parse" and args and isinstance(args[0], str):
                    tracer.counts["expr.chars"] += len(args[0])
                return result
            return traced
        return make

    # -- recording -------------------------------------------------------------

    def _blame(self, exc, layer) -> str:
        """An exception counts once, against the innermost layer it left."""
        kind = "domain" if isinstance(exc, self.domain_error) else "other"
        if not isinstance(exc, Exception) or any(e is exc for e in self._seen):
            return kind
        self._seen.append(exc)
        self.counts[f"{layer}.{kind}_errors"] += 1
        return kind

    def _close(self, frame, parent, layer, key, name, start, end, outcome):
        duration = end - start
        own = duration - frame[1]
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.incl[key] += duration
        self.key_self[key] += own
        self.layer_self[layer] += own
        self.counts[key + "_calls"] += 1
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                self.request, frame[0], parent[0] if parent else -1, layer, name,
                round((start - self.origin) * 1e6, 3), round((end - self.origin) * 1e6, 3),
                outcome,
            ))
        else:
            self.dropped += 1

    def begin_request(self, request_id: int):
        self.request = request_id
        self._seen.clear()

    def end_request(self):
        self._seen.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """Everything needed to merge runs: plain dicts of numbers."""
        return {
            "incl": dict(self.incl),
            "key_self": dict(self.key_self),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
        }


def merge_totals(into: dict, part: dict):
    for section, values in part.items():
        bucket = into.setdefault(section, {})
        for k, v in values.items():
            bucket[k] = bucket.get(k, 0) + v


def layer_metrics(totals: dict, requests: int, exit_nonzero: int) -> dict:
    """Per-layer metrics from merged totals over `requests` requests.

    Times are mean milliseconds per request; counts are totals over the
    requests, which are fixed by the seed, so they repeat exactly.
    """
    incl = totals.get("incl", {})
    key_self = totals.get("key_self", {})
    layer_self = totals.get("layer_self", {})
    counts = totals.get("counts", {})
    per = 1000.0 / max(requests, 1)

    def ms(key):
        return incl.get(key, 0.0) * per

    parse_s = incl.get("expr.parse", 0.0)
    kept = counts.get("recurrence.terms_kept", 0)
    out = {
        "cli.main_ms": (ms("cli.main"), "ms"),
        "cli.self_ms": (key_self.get("cli.main", 0.0) * per, "ms"),
        "cli.exit_nonzero": (exit_nonzero, "count"),
        "expr.tokenize_ms": (ms("expr.tokenize"), "ms"),
        "expr.parse_ms": (ms("expr.parse"), "ms"),
        "expr.evaluate_ms": (ms("expr.evaluate"), "ms"),
        "expr.chars_per_s": (counts.get("expr.chars", 0) / parse_s if parse_s else 0.0, "1/s"),
        "unity.table_ms": (ms("unity.table"), "ms"),
        "unity.rotor_mul_calls": (counts.get("unity.rotor_mul", 0), "count"),
        "unity.diff_reference_ms": (ms("unity.diff_reference"), "ms"),
        "recurrence.iterate_ms": (ms("recurrence.iterate"), "ms"),
        "recurrence.iterate_calls": (counts.get("recurrence.iterate_calls", 0), "count"),
        "recurrence.terms_generated": (counts.get("recurrence.terms_generated", 0), "count"),
        "recurrence.terms_per_exact": (
            counts.get("recurrence.terms_generated", 0) / kept if kept else 0.0, "ratio"),
        "roots.quadratic_ms": (ms("roots.quadratic"), "ms"),
        "roots.cubic_ms": (ms("roots.cubic"), "ms"),
        "roots.numeric_ms": (ms("roots.numeric"), "ms"),
        "roots.solves_per_request": (counts.get("roots.solves", 0) / max(requests, 1), "1/req"),
        "binet.solve_weights_ms": (ms("binet.solve_weights"), "ms"),
        "binet.closed_term_ms": (ms("binet.closed_term"), "ms"),
        "binet.m_form_ms": (ms("binet.m_form"), "ms"),
        "binet.verify_ms": (ms("binet.verify"), "ms"),
        "binet.verify_self_ms": (key_self.get("binet.verify", 0.0) * per, "ms"),
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_ms"] = (layer_self.get(layer, 0.0) * per, "ms")
        out[f"{layer}.domain_errors"] = (counts.get(f"{layer}.domain_errors", 0), "count")
        out[f"{layer}.other_errors"] = (counts.get(f"{layer}.other_errors", 0), "count")
    return out
