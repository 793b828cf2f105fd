"""Outside-in tracing of stonework's public functions.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each traced function in every ``stonework`` module namespace that holds it
(and the traced methods on their classes) with a timing wrapper, and
:func:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and request id, plus the
  sizes read from the returned object;
* a *hot* call site (``filter_product``, ``bisection_product``, ``cn_mul``,
  ``cn_join``, ``cuntz_compose``, the oracle expansion and the text
  parsers/printers) only adds to a call count and a cumulative time.

Both push a frame on one stack, so every frame's self time is its duration
minus the time of the frames directly inside it.  Spans stay in memory;
:meth:`Tracer.layer_metrics` folds them into the per-layer metrics that
``BENCHMARK.json`` lists.

A request run in a forked child (the ``scale`` workload) streams its span
events to the parent through a pipe, so a child killed at its deadline
still leaves its open spans behind; they are closed at the kill time and
marked ``timeout``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

perf = time.perf_counter

# Metric name -> unit.  The order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS = {
    "inverse_core.construct_s": "s",
    "inverse_core.construct_calls": "count",
    "inverse_core.elements": "count",
    "inverse_core.order_s": "s",
    "inverse_core.order_calls": "count",
    "inverse_core.check_boolean_s": "s",
    "inverse_core.check_boolean_calls": "count",
    "inverse_core.idempotents": "count",
    "filters.enumerate_ultrafilters_s": "s",
    "filters.ultrafilters": "count",
    "filters.ultrafilter_groupoid_s": "s",
    "filters.composable_pairs": "count",
    "filters.filter_product_s": "s",
    "filters.filter_product_calls": "count",
    "groupoids.construct_s": "s",
    "groupoids.arrows": "count",
    "groupoids.enumerate_bisections_s": "s",
    "groupoids.bisections": "count",
    "groupoids.all_bisections_monoid_s": "s",
    "groupoids.bisection_product_s": "s",
    "groupoids.bisection_product_calls": "count",
    "groupoids.check_covering_s": "s",
    "duality.stone_groupoid_s": "s",
    "duality.stone_groupoid_calls": "count",
    "duality.round_trip_s": "s",
    "duality.certificate_instances": "count",
    "duality.basic_open_laws_s": "s",
    "duality.morphism_validate_s": "s",
    "laws.order_meet_s": "s",
    "laws.local_complement_s": "s",
    "laws.compatible_join_s": "s",
    "laws.filter_s": "s",
    "laws.filter_semigroup_s": "s",
    "laws.ultra_equivalence_s": "s",
    "laws.point_filter_s": "s",
    "laws.instances": "count",
    "laws.failures": "count",
    "polycyclic.cn_mul_s": "s",
    "polycyclic.cn_mul_calls": "count",
    "polycyclic.cn_join_s": "s",
    "polycyclic.cn_join_calls": "count",
    "polycyclic.oracle_s": "s",
    "polycyclic.oracle_arrows": "count",
    "polycyclic.cuntz_compose_s": "s",
    "polycyclic.cuntz_compose_calls": "count",
    "polycyclic.parse_format_s": "s",
    "serialize.load_entry_s": "s",
    "serialize.bytes_read": "count",
    "serialize.rejected": "count",
    "cli.main_self_s": "s",
    "cli.uncaught": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# -- size readers: run after the timed call, on its arguments and result ------


def _monoid_size(args, kwargs, result):
    return {"inverse_core.elements": args[0].n}


def _idempotent_count(args, kwargs, result):
    return {"inverse_core.idempotents": len(args[0].order().idempotents)}


def _len_result(metric):
    return lambda args, kwargs, result: {metric: len(result)}


def _composable_pairs(args, kwargs, result):
    return {"filters.composable_pairs": len(result.compose)}


def _groupoid_size(args, kwargs, result):
    return {"groupoids.arrows": args[0].m}


def _certificate_instances(args, kwargs, result):
    return {"duality.certificate_instances":
            sum(count for _, count in result.checked_laws)}


def _law_counts(args, kwargs, result):
    return {"laws.instances": sum(r.instances for r in result.results),
            "laws.failures": result.failure_count}


def _entry_bytes(args, kwargs, result):
    from pathlib import Path

    path = Path(args[0])
    if not path.exists() and len(args) > 1 and args[1] is not None:
        path = Path(args[1]) / f"{args[0]}.json"
    return {"serialize.bytes_read": path.stat().st_size if path.exists() else 0}


# -- what is traced --------------------------------------------------------------
# (module, attribute, time metric, count metric, size reader)

SPAN_FUNCTIONS = [
    ("inverse_core", "symmetric_inverse_monoid", "inverse_core.construct_s", None, None),
    ("filters", "enumerate_ultrafilters", "filters.enumerate_ultrafilters_s", None,
     _len_result("filters.ultrafilters")),
    ("filters", "ultrafilter_groupoid", "filters.ultrafilter_groupoid_s", None,
     _composable_pairs),
    ("groupoids", "enumerate_bisections", "groupoids.enumerate_bisections_s", None,
     _len_result("groupoids.bisections")),
    ("groupoids", "all_bisections_monoid", "groupoids.all_bisections_monoid_s", None, None),
    ("groupoids", "check_covering", "groupoids.check_covering_s", None, None),
    ("duality", "stone_groupoid", "duality.stone_groupoid_s",
     "duality.stone_groupoid_calls", None),
    ("duality", "round_trip_monoid", "duality.round_trip_s", None, _certificate_instances),
    ("duality", "round_trip_groupoid", "duality.round_trip_s", None, _certificate_instances),
    ("duality", "verify_basic_open_laws", "duality.basic_open_laws_s", None, None),
    ("laws", "order_meet_laws", "laws.order_meet_s", None, _law_counts),
    ("laws", "local_complement_laws", "laws.local_complement_s", None, _law_counts),
    ("laws", "compatible_join_laws", "laws.compatible_join_s", None, _law_counts),
    ("laws", "filter_laws", "laws.filter_s", None, _law_counts),
    ("laws", "filter_semigroup_laws", "laws.filter_semigroup_s", None, _law_counts),
    ("laws", "ultra_equivalence_laws", "laws.ultra_equivalence_s", None, _law_counts),
    ("laws", "point_filter_laws", "laws.point_filter_s", None, _law_counts),
    ("polycyclic", "oracle_agrees_on_product", "polycyclic.oracle_s", None, None),
    ("polycyclic", "oracle_agrees_on_join", "polycyclic.oracle_s", None, None),
    ("serialize", "load_entry", "serialize.load_entry_s", None, _entry_bytes),
    ("cli", "main", "cli.main_self_s", None, None),
]

HOT_FUNCTIONS = [
    ("filters", "filter_product", "filters.filter_product_s", "filters.filter_product_calls",
     None),
    ("groupoids", "bisection_product", "groupoids.bisection_product_s",
     "groupoids.bisection_product_calls", None),
    ("polycyclic", "cn_mul", "polycyclic.cn_mul_s", "polycyclic.cn_mul_calls", None),
    ("polycyclic", "cn_join", "polycyclic.cn_join_s", "polycyclic.cn_join_calls", None),
    ("polycyclic", "cuntz_compose", "polycyclic.cuntz_compose_s",
     "polycyclic.cuntz_compose_calls", None),
    ("polycyclic", "finite_depth_oracle", "polycyclic.oracle_s", None,
     _len_result("polycyclic.oracle_arrows")),
] + [("polycyclic", name, "polycyclic.parse_format_s", None, None)
     for name in ("parse_cn", "format_cn", "parse_poly", "format_poly",
                  "parse_ev", "format_ev")]

# (module, class, method, time metric, count metric, size reader, cache attribute)
# A method with a cache attribute is only traced when it computes: a call
# that finds the cache filled goes straight to the original.
SPAN_METHODS = [
    ("inverse_core", "InverseMonoid", "__init__", "inverse_core.construct_s",
     "inverse_core.construct_calls", _monoid_size, None),
    ("inverse_core", "InverseMonoid", "order", "inverse_core.order_s",
     "inverse_core.order_calls", None, "_order"),
    ("inverse_core", "InverseMonoid", "check_boolean", "inverse_core.check_boolean_s",
     "inverse_core.check_boolean_calls", _idempotent_count, "_certificate"),
    ("groupoids", "FiniteGroupoid", "__init__", "groupoids.construct_s", None,
     _groupoid_size, None),
    ("duality", "MonoidMorphism", "validate", "duality.morphism_validate_s", None, None, None),
]

# Exceptions out of these count as metrics of their own.
ERROR_COUNTS = {"serialize.load_entry_s": "serialize.rejected",
                "cli.main_self_s": "cli.uncaught"}

SNAPSHOT_EVERY_S = 0.2


class Tracer:
    """Frame stack, finished spans and hot-call totals of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.hot: dict[str, list] = {}      # metric -> [calls, self time, sizes dict]
        self.stack: list[list] = []         # [span id or None, start, child time]
        self.request = None
        self.next_id = 0
        self.sink = None                    # event writer in a forked child
        self._last_snapshot = 0.0
        self._restore: list[tuple] = []

    # -- request scope -----------------------------------------------------------

    def begin_request(self, rid) -> None:
        self.request = rid

    def emit(self, event: dict) -> None:
        if self.sink is not None:
            self.sink(event)

    def snapshot(self, now: float) -> None:
        """Child mode: send the hot totals and the child time of every open
        span, so a kill loses at most SNAPSHOT_EVERY_S of hot time."""
        self._last_snapshot = now
        self.emit({"ev": "snap", "t": now, "hot": self.hot,
                   "open": [[f[0], f[2]] for f in self.stack if f[0] is not None]})

    # -- frames ------------------------------------------------------------------

    def _span(self, orig, metric, count_metric, sizer, cache_attr):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if cache_attr is not None and getattr(args[0], cache_attr, None) is not None:
                return orig(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = next((f[0] for f in reversed(self.stack) if f[0] is not None), None)
            frame = [sid, perf(), 0.0]
            self.stack.append(frame)
            self.emit({"ev": "open", "id": sid, "parent": parent, "rid": self.request,
                       "name": metric, "count": count_metric, "start": frame[1]})
            result, error = None, None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += end - frame[1]
                span = {"id": sid, "parent": parent, "rid": self.request, "name": metric,
                        "start": frame[1], "end": end, "self": end - frame[1] - frame[2],
                        "count": count_metric, "sizes": {}, "error": error}
                if error is None and sizer is not None:
                    span["sizes"] = sizer(args, kwargs, result)
                self.spans.append(span)
                self.emit({"ev": "close", "span": span})
                if self.sink is not None:
                    self.snapshot(end)
        return wrapper

    def _hot(self, orig, metric, count_metric, sizer):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = [None, perf(), 0.0]
            self.stack.append(frame)
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = perf()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += end - frame[1]
                agg = self.hot.setdefault(metric, [0, 0.0, {}])
                agg[0] += 1
                agg[1] += end - frame[1] - frame[2]
                if count_metric is not None:
                    counts = self.hot.setdefault(count_metric, [0, 0.0, {}])
                    counts[0] += 1
                if sizer is not None and sys.exc_info()[0] is None:
                    for name, value in sizer(args, kwargs, result).items():
                        agg[2][name] = agg[2].get(name, 0) + value
                if self.sink is not None and end - self._last_snapshot > SNAPSHOT_EVERY_S:
                    self.snapshot(end)
        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self) -> "Tracer":
        import stonework.cli  # noqa: F401  (loads every submodule)

        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("stonework.") and mod is not None}
        namespaces = list(modules.values()) + [sys.modules["stonework"]]
        for kind, table in (("span", SPAN_FUNCTIONS), ("hot", HOT_FUNCTIONS)):
            for module, attr, metric, count_metric, sizer in table:
                orig = getattr(modules[module], attr)
                wrapped = (self._span(orig, metric, count_metric, sizer, None)
                           if kind == "span" else self._hot(orig, metric, count_metric, sizer))
                for ns in namespaces:
                    if getattr(ns, attr, None) is orig:
                        self._restore.append((ns, attr, orig))
                        setattr(ns, attr, wrapped)
        for module, cls_name, method, metric, count_metric, sizer, cache in SPAN_METHODS:
            cls = getattr(modules[module], cls_name)
            orig = cls.__dict__[method]
            self._restore.append((cls, method, orig))
            setattr(cls, method, self._span(orig, metric, count_metric, sizer, cache))
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- merging a child's events ------------------------------------------------------

    def absorb(self, events: list[dict], killed_at: float | None) -> None:
        """Take over the spans and hot totals a forked child streamed.  Spans
        still open when the child was killed end at the kill time and are
        marked ``timeout``; their child time comes from the last snapshot."""
        opened: dict[int, dict] = {}
        child_time: dict[int, float] = {}
        hot: dict = {}
        for event in events:
            kind = event["ev"]
            if kind == "open":
                opened[event["id"]] = event
            elif kind == "close":
                span = event["span"]
                opened.pop(span["id"], None)
                self.spans.append(span)
            elif kind == "snap":
                hot = event["hot"]
                child_time = {sid: t for sid, t in event["open"]}
        if killed_at is not None:
            # an open span's own time ends where its open child began
            own_end = {e["parent"]: e["start"] for e in opened.values() if e["parent"] in opened}
            for sid, event in opened.items():
                self.spans.append({
                    "id": sid, "parent": event["parent"], "rid": event["rid"],
                    "name": event["name"], "start": event["start"], "end": killed_at,
                    "self": own_end.get(sid, killed_at) - event["start"]
                    - child_time.get(sid, 0.0),
                    "count": event["count"], "sizes": {}, "error": "timeout"})
        for metric, (calls, self_time, sizes) in hot.items():
            agg = self.hot.setdefault(metric, [0, 0.0, {}])
            agg[0] += calls
            agg[1] += self_time
            for name, value in sizes.items():
                agg[2][name] = agg[2].get(name, 0) + value
        ids = [e["id"] for e in events if e["ev"] == "open"]
        self.next_id = max([self.next_id] + [i + 1 for i in ids])

    # -- folding into metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {name: 0 for name in LAYER_METRICS if name != "trace.overhead_s"}
        for span in self.spans:
            name = span["name"]
            out[name] += span["self"]
            if span["count"] is not None:
                out[span["count"]] += 1
            for size_name, value in span["sizes"].items():
                out[size_name] += value
            if span["error"] not in (None, "timeout", "SystemExit") and name in ERROR_COUNTS:
                out[ERROR_COUNTS[name]] += 1
        for metric, (calls, self_time, sizes) in self.hot.items():
            if LAYER_METRICS[metric] == "count":
                out[metric] += calls
            else:
                out[metric] += self_time
            for size_name, value in sizes.items():
                out[size_name] += value
        out["trace.spans"] = len(self.spans)
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.hot.clear()


def pipe_sink(fd: int):
    """Event writer for a forked child: one JSON line per event, unbuffered,
    so whatever was written survives a kill."""
    def write(event: dict) -> None:
        os.write(fd, (json.dumps(event) + "\n").encode())
    return write

