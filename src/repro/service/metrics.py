"""Prometheus text-format rendering of the service's counters.

``GET /metrics`` exposes exactly the state ``GET /statz`` reports, in
the text exposition format (version 0.0.4) every Prometheus-compatible
scraper understands — no client library, no new dependency, just
deterministic string assembly from the same snapshot dict.

Conventions follow the Prometheus guidelines: monotonic counters end in
``_total``, base units are seconds and bytes, discrete outcomes are one
metric with a label rather than a family of metric names, and optional
subsystems (claims, hot tier) simply omit their families when absent so
dashboards can use ``absent()`` to detect configuration.
"""

from __future__ import annotations

import math
from typing import Any

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: Any) -> str:
    """One Prometheus sample value: integers stay exact, floats short."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Writer:
    """Accumulates families; one HELP/TYPE header per family name."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: Any, labels: dict[str, str] | None = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(val)}"' for key, val in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self._lines.append(f"{name} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_metrics(snapshot: dict[str, Any]) -> str:
    """The ``/metrics`` body for one ``/statz``-shaped snapshot."""
    w = _Writer()

    w.family("repro_uptime_seconds", "gauge", "Seconds since the service started.")
    w.sample("repro_uptime_seconds", snapshot.get("uptime_s", 0.0))

    w.family(
        "repro_point_requests_total",
        "counter",
        "Point requests by outcome (hit/compute/coalesced/rejected/timeout/error).",
    )
    for outcome, key in (
        ("hit", "hits"),
        ("compute", "computes"),
        ("coalesced", "coalesced"),
        ("rejected", "rejected"),
        ("timeout", "timeouts"),
        ("error", "errors"),
    ):
        w.sample(
            "repro_point_requests_total",
            snapshot.get(key, 0),
            {"outcome": outcome},
        )

    w.family(
        "repro_in_flight_computations",
        "gauge",
        "Point computations currently in flight.",
    )
    w.sample("repro_in_flight_computations", snapshot.get("in_flight", 0))

    w.family(
        "repro_queue_depth_bound",
        "gauge",
        "Configured bound on pending point computations.",
    )
    w.sample("repro_queue_depth_bound", snapshot.get("queue_depth_bound", 0))

    w.family(
        "repro_compute_seconds_total",
        "counter",
        "Worker seconds spent computing points.",
    )
    w.sample("repro_compute_seconds_total", snapshot.get("compute_seconds", 0.0))

    w.family(
        "repro_cache_saved_seconds_total",
        "counter",
        "Worker seconds avoided by serving cached points.",
    )
    w.sample(
        "repro_cache_saved_seconds_total", snapshot.get("cache_saved_seconds", 0.0)
    )

    latency = snapshot.get("latency_ms") or {}
    w.family(
        "repro_request_latency_milliseconds",
        "summary",
        "Recent /v1/point wall latency quantiles over a sliding window.",
    )
    for path in ("hit", "compute"):
        window = latency.get(path) or {}
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            w.sample(
                "repro_request_latency_milliseconds",
                window.get(key, 0.0),
                {"path": path, "quantile": quantile},
            )
        w.sample(
            "repro_request_latency_milliseconds_count",
            window.get("count", 0),
            {"path": path},
        )

    trace = snapshot.get("trace_cache") or {}
    w.family(
        "repro_trace_cache_events_total",
        "counter",
        "Compiled-trace cache lookups observed by computed points.",
    )
    w.sample(
        "repro_trace_cache_events_total", trace.get("hits", 0), {"result": "hit"}
    )
    w.sample(
        "repro_trace_cache_events_total", trace.get("misses", 0), {"result": "miss"}
    )
    if trace.get("entries") is not None:
        w.family(
            "repro_trace_cache_entries",
            "gauge",
            "Compiled traces on disk (both families).",
        )
        w.sample("repro_trace_cache_entries", trace["entries"])

    runner = snapshot.get("runner") or {}
    if runner.get("cache_entries") is not None:
        w.family(
            "repro_cache_entries",
            "gauge",
            "Point results in the on-disk store (excluding traces).",
        )
        w.sample("repro_cache_entries", runner["cache_entries"])

    jobs = snapshot.get("jobs") or {}
    w.family("repro_jobs_tracked", "gauge", "Sweep jobs tracked by the job table.")
    w.sample("repro_jobs_tracked", jobs.get("total", 0))
    w.family("repro_jobs_running", "gauge", "Sweep jobs currently running.")
    w.sample("repro_jobs_running", jobs.get("running", 0))

    sessions = snapshot.get("sessions") or {}
    w.family(
        "repro_sessions_active", "gauge", "Streaming prediction sessions open now."
    )
    w.sample("repro_sessions_active", sessions.get("active", 0))
    w.family(
        "repro_sessions_opened_total", "counter", "Sessions opened since start."
    )
    w.sample("repro_sessions_opened_total", sessions.get("opened", 0))
    w.family(
        "repro_sessions_closed_total", "counter", "Sessions closed by clients."
    )
    w.sample("repro_sessions_closed_total", sessions.get("closed", 0))
    w.family(
        "repro_sessions_evicted_total", "counter", "Sessions reaped past their TTL."
    )
    w.sample("repro_sessions_evicted_total", sessions.get("evicted", 0))
    w.family(
        "repro_session_events_total",
        "counter",
        "Trace events observed across all sessions.",
    )
    w.sample("repro_session_events_total", sessions.get("events_observed", 0))
    w.family(
        "repro_sessions_rejected_total",
        "counter",
        "Session opens/feeds rejected, by reason.",
    )
    w.sample(
        "repro_sessions_rejected_total",
        sessions.get("rejected_full", 0),
        {"reason": "full"},
    )
    w.sample(
        "repro_sessions_rejected_total",
        sessions.get("rejected_bound", 0),
        {"reason": "event_bound"},
    )

    hot = snapshot.get("hot_tier")
    if hot is not None:
        w.family(
            "repro_hot_tier_requests_total",
            "counter",
            "Hot-tier lookups by result.",
        )
        w.sample(
            "repro_hot_tier_requests_total", hot.get("hits", 0), {"result": "hit"}
        )
        w.sample(
            "repro_hot_tier_requests_total", hot.get("misses", 0), {"result": "miss"}
        )
        w.family(
            "repro_hot_tier_evictions_total",
            "counter",
            "Hot-tier entries evicted by the LRU bounds.",
        )
        w.sample("repro_hot_tier_evictions_total", hot.get("evictions", 0))
        w.family(
            "repro_hot_tier_invalidations_total",
            "counter",
            "Hot-tier entries dropped because their backing file changed "
            "or vanished (validate mode).",
        )
        w.sample("repro_hot_tier_invalidations_total", hot.get("invalidations", 0))
        w.family("repro_hot_tier_entries", "gauge", "Entries resident in the hot tier.")
        w.sample("repro_hot_tier_entries", hot.get("entries", 0))
        w.family("repro_hot_tier_bytes", "gauge", "Bytes resident in the hot tier.")
        w.sample("repro_hot_tier_bytes", hot.get("bytes", 0))
        w.family(
            "repro_hot_tier_max_entries", "gauge", "Configured hot-tier entry bound."
        )
        w.sample("repro_hot_tier_max_entries", hot.get("max_entries", 0))
        w.family(
            "repro_hot_tier_max_bytes", "gauge", "Configured hot-tier byte bound."
        )
        w.sample("repro_hot_tier_max_bytes", hot.get("max_bytes", 0))

    claims = snapshot.get("claims")
    if claims is not None:
        w.family(
            "repro_claims_held",
            "gauge",
            "Point claims this replica currently holds.",
        )
        w.sample("repro_claims_held", claims.get("held", 0))
        w.family(
            "repro_claims_total",
            "counter",
            "Claim-protocol events on this replica, by event.",
        )
        for event in ("claimed", "computed", "released", "stolen", "lost"):
            w.sample(
                "repro_claims_total", claims.get(event, 0), {"event": event}
            )

    return w.render()
