"""Spans around the calls into each layer's public functions.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: id, parent span, name, start, end, a point
or request id, and an optional count (messages compiled, events
simulated, ...).  The parent is tracked with a context variable, so
spans nest correctly inside each asyncio task and each thread.  Spans
stay in memory until :meth:`Tracer.dump`.  A wrapper does nothing but
call through while the tracer is disabled.

:func:`summarize` turns a span list into the per-layer metrics, where a
span's layer is the part of its name before the first dot and a
layer's self time is its spans' durations minus their child spans'.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

#: Per-layer metrics and units, in the order ``BENCHMARK.json`` lists
#: them.  Every traced run reports all of them; a layer a workload
#: bypasses reads 0.
EXPERIMENTS = ("figure6", "figure7", "figure8", "table3", "table4", "figure9", "table5")
PER_LAYER: dict[str, str] = {
    **{f"eval.{name}_s": "s" for name in EXPERIMENTS},
    "eval.self_s": "s",
    "sim.run_s": "s",
    "sim.run_s.base": "s",
    "sim.run_s.fr": "s",
    "sim.run_s.swi": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "protocol.compile_s": "s",
    "protocol.messages": "count",
    "protocol.self_s": "s",
    "apps.build_s": "s",
    "apps.builds": "count",
    "apps.ops": "count",
    "apps.self_s": "s",
    "trace.evaluate_s": "s",
    "trace.evaluations": "count",
    "trace.cache_hits": "count",
    "trace.cache_misses": "count",
    "trace.self_s": "s",
    "harness.point_s": "s",
    "harness.points": "count",
    "harness.store_read_s": "s",
    "harness.store_reads": "count",
    "harness.store_write_s": "s",
    "harness.store_writes": "count",
    "harness.hot_hits": "count",
    "harness.hot_hit_ratio": "ratio",
    "harness.self_s": "s",
    "service.read_request_s": "s",
    "service.handle_s": "s",
    "service.fetch_s": "s",
    "service.write_response_s": "s",
    "service.server_ms": "ms",
    "service.transport_ms": "ms",
    "service.compute_ms": "ms",
    "service.wait_ms": "ms",
    "service.hits": "count",
    "service.computes": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.self_s": "s",
    "sessions.parse_s": "s",
    "sessions.feed_s": "s",
    "sessions.close_s": "s",
    "sessions.events": "count",
    "sessions.batches": "count",
    "sessions.self_s": "s",
    "client.cpu_s": "s",
    "tracing.overhead_pct": "%",
    "tracing.spans": "count",
    "tracing.attributed_ratio": "ratio",
}

#: Counts that must repeat exactly across runs of one seed.
REPEATING = (
    "sim.events",
    "protocol.messages",
    "apps.ops",
    "trace.cache_hits",
    "trace.cache_misses",
    "harness.store_writes",
    "service.computes",
    "sessions.events",
)

#: Store kinds that hold compiled traces, not point results.
TRACE_KINDS = frozenset({"trace", "timetrace"})

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_request: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "perfbench_request", default=None
)

Count = Callable[[tuple, Any], int]


class Tracer:
    """Records spans around wrapped callables while enabled."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.enabled_at: float | None = time.monotonic() if enabled else None
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def enable(self) -> None:
        self.enabled_at = time.monotonic()
        self.enabled = True

    def _record(self, sid, parent, name, start, ident, count, args, result) -> None:
        end = time.monotonic()
        n = count(args, result) if count is not None else None
        self.spans.append((sid, parent, name, start, end, ident, n))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        *,
        ident: Callable[[tuple], Any] | None = None,
        count: Count | None = None,
        is_async: bool = False,
        new_request: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def begin(args):
            request = _request.set(next(tracer._requests)) if new_request else None
            span_name = name(args) if callable(name) else name
            span_ident = ident(args) if ident is not None else _request.get()
            sid = next(tracer._ids)
            parent = _current.get()
            return sid, parent, span_name, span_ident, (_current.set(sid), request)

        def end(sid, parent, span_name, span_ident, tokens, start, args, result):
            _current.reset(tokens[0])
            if tokens[1] is not None:
                _request.reset(tokens[1])
            tracer._record(sid, parent, span_name, start, span_ident, count,
                           args, result)

        if is_async:
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                opened = begin(args)
                start = time.monotonic()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    end(*opened, start, args, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                opened = begin(args)
                start = time.monotonic()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end(*opened, start, args, result)

        setattr(owner, attr, wrapper)

    def span(self, name: str, ident: Any = None) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name, ident)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"enabled_at": self.enabled_at, "spans": self.spans}, handle)


class _Span:
    def __init__(self, tracer: Tracer, name: str, ident: Any) -> None:
        self.tracer, self.name, self.ident = tracer, name, ident

    def __enter__(self) -> None:
        if not self.tracer.enabled:
            self.token = None
            return
        self.sid = next(self.tracer._ids)
        self.parent = _current.get()
        self.token = _current.set(self.sid)
        self.start = time.monotonic()

    def __exit__(self, *exc_info: Any) -> None:
        if self.token is None:
            return
        _current.reset(self.token)
        self.tracer._record(self.sid, self.parent, self.name, self.start,
                            self.ident, None, (), None)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _store_span(kind_op: str) -> Callable[[tuple], str]:
    def name(args: tuple) -> str:
        point = args[1]
        layer = "trace.cache" if point.kind in TRACE_KINDS else "harness.store"
        return f"{layer}_{kind_op}"

    return name


def install_compute(tracer: Tracer) -> None:
    """Spans around the compute path: harness, eval, trace, apps,
    protocol and the timing simulator."""
    import repro.eval.accuracy as accuracy
    import repro.eval.performance as performance
    import repro.harness.runner as runner
    import repro.trace as trace
    from repro.apps.base import SharedMemoryApp
    from repro.harness.store import MISS, ResultStore
    from repro.protocol.emulator import ProtocolEmulator
    from repro.sim.machine import Machine

    tracer.wrap(runner, "execute_point_instrumented", "harness.point",
                ident=lambda a: f"{a[0]}:{a[1].get('app', '')}")
    tracer.wrap(ResultStore, "load_entry", _store_span("read"),
                count=lambda a, r: int(r is not MISS and r is not None and r.hot))
    tracer.wrap(ResultStore, "store", _store_span("write"))
    tracer.wrap(accuracy, "run_predictors", "eval.run_predictors",
                ident=lambda a: a[0])
    tracer.wrap(performance, "run_speculation", "eval.run_speculation",
                ident=lambda a: a[0])
    tracer.wrap(trace, "compile_app_trace", "trace.compile_app_trace",
                ident=lambda a: a[0])
    tracer.wrap(trace, "evaluate_trace", "trace.evaluate", ident=lambda a: a[1])
    tracer.wrap(SharedMemoryApp, "build", "apps.build",
                ident=lambda a: a[0].name, count=lambda a, r: r.total_ops())
    tracer.wrap(ProtocolEmulator, "compile", "protocol.compile",
                count=lambda a, r: len(r))
    tracer.wrap(Machine, "__init__", "sim.init")
    tracer.wrap(Machine, "run", "sim.run", ident=lambda a: a[0].mode.name.lower(),
                count=lambda a, r: a[0].events_processed)


def install_service(tracer: Tracer) -> None:
    """Spans around the service: wire, app, compute pool, sessions."""
    import repro.service.app as app
    import repro.service.server as server
    from repro.service.jobs import ComputePool
    from repro.service.sessions import SessionTable

    tracer.wrap(server, "read_request", "service.read_request", is_async=True)
    tracer.wrap(server, "write_response", "service.write_response", is_async=True)
    tracer.wrap(app.ServiceApp, "handle", "service.handle", is_async=True,
                new_request=True)
    tracer.wrap(ComputePool, "fetch", "service.fetch", is_async=True)
    tracer.wrap(app, "parse_ndjson_events", "sessions.parse",
                count=lambda a, r: len(r))
    tracer.wrap(SessionTable, "feed", "sessions.feed", count=lambda a, r: len(r))
    tracer.wrap(SessionTable, "close", "sessions.close")


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans: list, window: tuple[float, float]) -> dict[str, float]:
    """The span-derived per-layer metrics over ``window`` (start, end)."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    children = defaultdict(float)
    for sid, parent, *_rest in spans:
        if parent in duration:
            children[parent] += duration[sid]
    total = defaultdict(float)
    calls = defaultdict(int)
    counted = defaultdict(int)
    by_ident = defaultdict(float)
    self_time = defaultdict(float)
    roots = []
    for sid, parent, name, start, end, ident, n in spans:
        total[name] += duration[sid]
        calls[name] += 1
        counted[name] += n or 0
        by_ident[name, ident] += duration[sid]
        self_time[name.split(".", 1)[0]] += duration[sid] - children[sid]
        if parent not in duration:
            roots.append((start, end))

    run_s = total["sim.run"]
    store_reads = calls["harness.store_read"]
    metrics = {
        **{f"eval.{x}_s": by_ident["eval.experiment", x] for x in EXPERIMENTS},
        "sim.run_s": run_s,
        "sim.run_s.base": by_ident["sim.run", "base"],
        "sim.run_s.fr": by_ident["sim.run", "fr"],
        "sim.run_s.swi": by_ident["sim.run", "swi"],
        "sim.events": counted["sim.run"],
        "sim.events_per_s": counted["sim.run"] / run_s if run_s else 0.0,
        "protocol.compile_s": total["protocol.compile"],
        "protocol.messages": counted["protocol.compile"],
        "apps.build_s": total["apps.build"],
        "apps.builds": calls["apps.build"],
        "apps.ops": counted["apps.build"],
        "trace.evaluate_s": total["trace.evaluate"],
        "trace.evaluations": calls["trace.evaluate"],
        "harness.point_s": total["harness.point"],
        "harness.points": calls["harness.point"],
        "harness.store_read_s": total["harness.store_read"],
        "harness.store_reads": store_reads,
        "harness.store_write_s": total["harness.store_write"],
        "harness.store_writes": calls["harness.store_write"],
        "harness.hot_hits": counted["harness.store_read"],
        "harness.hot_hit_ratio": (
            counted["harness.store_read"] / store_reads if store_reads else 0.0
        ),
        "service.read_request_s": total["service.read_request"],
        "service.handle_s": total["service.handle"],
        "service.fetch_s": total["service.fetch"],
        "service.write_response_s": total["service.write_response"],
        "sessions.parse_s": total["sessions.parse"],
        "sessions.feed_s": total["sessions.feed"],
        "sessions.close_s": total["sessions.close"],
        "sessions.events": counted["sessions.feed"],
        "sessions.batches": calls["sessions.feed"],
        "tracing.spans": len(spans),
        "tracing.attributed_ratio": _covered(roots) / (window[1] - window[0]),
    }
    for layer in ("eval", "sim", "protocol", "apps", "trace", "harness",
                  "service", "sessions"):
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


def per_layer_result(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric with its unit; absent ones read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
