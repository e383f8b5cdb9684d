"""Endpoint semantics: map parsed requests onto the harness.

Transport-agnostic by construction — a :class:`ServiceApp` turns a
:class:`~repro.service.wire.Request` into a
:class:`~repro.service.wire.Response` and never touches a socket, so
tests can drive it without a server and the server stays dumb plumbing.
"""

from __future__ import annotations

import hmac
import json
import time
from collections.abc import Callable
from typing import Any

from repro.common.literals import parse_literal
from repro.harness import (
    SweepError,
    SweepPoint,
    SweepSpec,
    runner_kinds,
)
from repro.service.jobs import ComputePool, JobTable, PointTimeout, PoolSaturated
from repro.service.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.service.metrics import render_metrics
from repro.service.sessions import (
    SessionError,
    SessionTable,
    parse_ndjson_events,
)
from repro.service.wire import Request, Response, error_response

#: Largest grid a single POST /v1/sweep may expand to.
MAX_SWEEP_POINTS = 1024

#: Reserved /v1/point query parameters (everything else is a point param).
_TIMEOUT_PARAM = "_timeout_s"

#: How stale the store's incremental entry counts may grow before a
#: rescan, when claim coordination is active (peer replicas write into
#: the shared cache dir behind this process's back).  Unclaimed
#: replicas are the only writer and never rescan.
_SHARED_CACHE_RESCAN_S = 60.0

#: Endpoints that bypass API-key auth: liveness probes (load balancers,
#: Kubernetes) cannot carry credentials.
AUTH_EXEMPT_PATHS = frozenset({"/healthz"})


class ServiceApp:
    """Routes requests to the compute pool, job table, and session table."""

    def __init__(
        self,
        pool: ComputePool,
        jobs: JobTable,
        sessions: SessionTable | None = None,
        api_key: str | None = None,
    ) -> None:
        self.pool = pool
        self.jobs = jobs
        self.sessions = sessions if sessions is not None else SessionTable()
        #: When set, every endpoint except :data:`AUTH_EXEMPT_PATHS`
        #: requires this key (``Authorization: Bearer`` or
        #: ``X-API-Key``); compared constant-time.
        self.api_key = api_key

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _routes(self, path: str) -> dict[str, Callable] | None:
        """Method → handler map for ``path``, or None (404).

        One table for every route, so the 405 path can always name the
        allowed methods (RFC 9110 requires ``Allow`` on 405) without
        each endpoint repeating the logic.
        """
        exact: dict[str, dict[str, Callable]] = {
            "/healthz": {"GET": self._healthz},
            "/statz": {"GET": self._statz},
            "/metrics": {"GET": self._metrics},
            "/v1/experiments": {"GET": self._experiments},
            "/v1/point": {"GET": self._point},
            "/v1/sweep": {"POST": self._sweep},
            "/v1/jobs": {"GET": lambda _r: self._job_list()},
            "/v1/sessions": {
                "GET": self._session_list,
                "POST": self._open_session,
            },
        }
        if path in exact:
            return exact[path]
        if path.startswith("/v1/experiments/"):
            return {"GET": self._run_experiment}
        if path.startswith("/v1/jobs/"):
            return {"GET": self._job_status}
        if path.startswith("/v1/sessions/"):
            if path.endswith("/events"):
                return {"POST": self._session_events}
            return {
                "GET": self._session_status,
                "DELETE": self._close_session,
            }
        return None

    async def handle(self, request: Request) -> Response:
        if not self._authorized(request):
            response = error_response(
                401, "missing or invalid API key"
            )
            response.headers["WWW-Authenticate"] = 'Bearer realm="repro-paper"'
            return response
        methods = self._routes(request.path)
        if methods is None:
            return error_response(
                404, f"no such endpoint: {request.method} {request.path}"
            )
        handler = methods.get(request.method)
        if handler is None:
            return self._method_not_allowed(request, methods)
        result = handler(request)
        if hasattr(result, "__await__"):
            return await result
        return result

    def _authorized(self, request: Request) -> bool:
        """True when the request may proceed.

        With no key configured the service is open (the development
        default).  With one, the client must present it via
        ``Authorization: Bearer <key>`` or ``X-API-Key: <key>``; the
        comparison is constant-time (:func:`hmac.compare_digest`) so
        the check never leaks key bytes through response timing.
        Liveness probes (:data:`AUTH_EXEMPT_PATHS`) are always allowed.
        """
        if self.api_key is None or request.path in AUTH_EXEMPT_PATHS:
            return True
        presented: str | None = None
        authorization = request.headers.get("authorization", "")
        scheme, _, credential = authorization.partition(" ")
        if scheme.lower() == "bearer" and credential.strip():
            presented = credential.strip()
        elif "x-api-key" in request.headers:
            presented = request.headers["x-api-key"]
        if presented is None:
            return False
        return hmac.compare_digest(
            presented.encode("utf-8"), self.api_key.encode("utf-8")
        )

    @staticmethod
    def _method_not_allowed(
        request: Request, methods: dict[str, Callable]
    ) -> Response:
        allow = ", ".join(sorted(methods))
        response = error_response(
            405,
            f"method {request.method} not allowed on {request.path}; "
            f"use {allow}",
        )
        response.headers["Allow"] = allow
        return response

    def _retry_after_s(self) -> float:
        """Backoff hint derived from compute-queue depth.

        An empty queue suggests retrying almost immediately (1 s); a
        full one the expected drain time (5 s).  Both saturation paths
        (point requests and sweep/experiment job submission) share this
        derivation so clients see one consistent hint.
        """
        bound = max(1, self.pool.max_pending)
        depth = min(self.pool.in_flight, bound)
        return round(1.0 + 4.0 * (depth / bound), 1)

    # ------------------------------------------------------------------
    # health and stats
    # ------------------------------------------------------------------
    def _healthz(self, request: Request) -> Response:
        stats = self.pool.stats
        return Response(
            payload={
                "status": "ok",
                "started_at": stats.started_at,
                "uptime_s": stats.uptime_s,
            }
        )

    def _statz(self, request: Request) -> Response:
        return Response(payload=self._stats_snapshot())

    def _metrics(self, request: Request) -> Response:
        """``GET /metrics``: the same snapshot, Prometheus text format."""
        return Response(
            body=render_metrics(self._stats_snapshot()).encode("utf-8"),
            headers={"Content-Type": METRICS_CONTENT_TYPE},
        )

    def _stats_snapshot(self) -> dict[str, Any]:
        """One stats dict, shared verbatim by ``/statz`` and rendered
        into text format by ``/metrics``."""
        runner = self.pool.runner
        snapshot = self.pool.stats.snapshot(
            in_flight=self.pool.in_flight, queue_bound=self.pool.max_pending
        )
        snapshot["jobs"] = {
            "total": len(self.jobs.jobs()),
            "running": sum(1 for j in self.jobs.jobs() if j.state == "running"),
        }
        # NOTE: ResultStore defines __len__, so an empty store is falsy —
        # these checks must be identity checks, not truthiness.
        store = runner.store
        claims = getattr(runner, "claims", None)
        snapshot["runner"] = {
            "jobs": runner.jobs,
            "pool_started": runner.pool_started,
            "cache_dir": str(store.root) if store is not None else None,
            "cache_entries": self._count_cache_entries(claims_active=claims is not None),
        }
        # Compiled traces live in the store's directory (see
        # ReproService.__init__), so the store's counts cover them.
        from repro.trace.cache import TRACE_KIND

        snapshot["trace_cache"].update(
            dir=snapshot["runner"]["cache_dir"],
            entries=None if store is None else store.entry_counts().get(TRACE_KIND, 0),
        )
        # Claim coordination (multi-replica deployments): held/stolen/
        # released counters, or null when this replica runs unclaimed.
        snapshot["claims"] = claims.stats() if claims is not None else None
        snapshot["sessions"] = self.sessions.stats()
        snapshot["hot_tier"] = (
            store.hot_tier.stats()
            if store is not None and store.hot_tier is not None
            else None
        )
        return snapshot

    def _count_cache_entries(self, claims_active: bool) -> int | None:
        """Point entries in the store, from its incremental counts.

        The store scans its directory exactly once and maintains the
        counts on every write/discard, so this is a dict sum — the
        periodic ``os.scandir`` the old implementation paid per poll is
        gone.  With claim coordination active, peer replicas also write
        into the cache dir, so the counts are allowed to refresh via a
        bounded-staleness rescan; unclaimed replicas are the sole
        writer and never rescan.  Only registered point kinds count:
        compiled traces (``trace/``) share the directory but are
        inputs, counted separately in ``trace_cache``, and any other
        subdirectory (claims, or a storage kind an older build wrote)
        holds no point results.
        """
        store = self.pool.runner.store
        if store is None:
            return None
        counts = store.entry_counts(
            max_age_s=_SHARED_CACHE_RESCAN_S if claims_active else None
        )
        return sum(counts.get(kind, 0) for kind in runner_kinds())

    def _experiments(self, request: Request) -> Response:
        from repro.eval.experiments import experiment_catalog

        return Response(
            payload={
                "experiments": experiment_catalog(),
                "kinds": list(runner_kinds()),
            }
        )

    def _run_experiment(self, request: Request) -> Response:
        """``GET /v1/experiments/<name>``: run a named experiment.

        Grid-shaped experiments expand to exactly the sweep points their
        CLI drivers run and become a background job on the shared pool
        (202 + poll URL), so their points coalesce with interactive
        requests and land in the same cache.  Static configuration
        tables (table1/table2) have no grid and return inline.
        ``?fast=1`` selects the quarter-size grids.
        """
        from repro.eval.experiments import (
            EXPERIMENTS,
            STATIC_EXPERIMENTS,
            experiment_spec,
            run_experiment,
        )

        name = request.path.removeprefix("/v1/experiments/")
        if name not in EXPERIMENTS:
            return error_response(
                404,
                f"no such experiment: {name!r} (known: {', '.join(EXPERIMENTS)})",
            )
        fast = request.query.get("fast") in ("1", "true", "yes")
        if name in STATIC_EXPERIMENTS:
            return Response(
                payload={
                    "experiment": name,
                    "static": True,
                    "result": run_experiment(name, fast=fast),
                }
            )
        spec = experiment_spec(name, fast=fast)
        assert spec is not None  # non-static experiments all have grids
        points = spec.points()
        try:
            job = self.jobs.submit(spec.kind, points, experiment=name)
        except PoolSaturated as exc:
            return error_response(429, str(exc), retry_after_s=self._retry_after_s())
        return Response(
            status=202,
            payload={
                "job": job.id,
                "experiment": name,
                "fast": fast,
                "points": len(points),
                "poll": f"/v1/jobs/{job.id}",
            },
        )

    # ------------------------------------------------------------------
    # points
    # ------------------------------------------------------------------
    async def _point(self, request: Request) -> Response:
        started = time.perf_counter()
        kind = request.query.get("kind")
        if not kind:
            return error_response(400, "missing required query parameter 'kind'")
        if kind not in runner_kinds():
            return error_response(
                400,
                f"unknown kind {kind!r} (known: {', '.join(runner_kinds())})",
            )
        timeout_s: Any = None
        params: dict[str, Any] = {}
        for name, raw in request.query.items():
            if name == "kind":
                continue
            if name == _TIMEOUT_PARAM:
                try:
                    timeout_s = float(raw)
                except ValueError:
                    return error_response(400, f"bad {_TIMEOUT_PARAM}: {raw!r}")
                continue
            if name.startswith("_"):
                return error_response(400, f"unknown reserved parameter {name!r}")
            params[name] = parse_literal(raw)
        try:
            point = SweepPoint.make(kind, params)
        except (TypeError, ValueError) as exc:
            return error_response(400, f"invalid point parameters: {exc}")

        fetch_kwargs: dict[str, Any] = {}
        if timeout_s is not None:
            fetch_kwargs["timeout_s"] = timeout_s
        try:
            outcome = await self.pool.fetch(point, **fetch_kwargs)
        except PoolSaturated as exc:
            return error_response(
                429, str(exc), retry_after_s=self._retry_after_s()
            )
        except PointTimeout as exc:
            # The computation continues and will land in the cache, so
            # the retry hint (and Retry-After header) tells the client
            # when a retry is likely to be a pure hit.
            return error_response(
                504, str(exc), retry_after_s=self._retry_after_s()
            )
        except SweepError as exc:
            return error_response(500, str(exc))
        return Response(
            payload={
                "kind": kind,
                "params": point.as_dict(),
                "key": point.key,
                "result": outcome.value,
                "cached": outcome.cached,
                "elapsed_s": outcome.elapsed_s,
                "wall_ms": round(1000.0 * (time.perf_counter() - started), 3),
            }
        )

    # ------------------------------------------------------------------
    # sweep jobs
    # ------------------------------------------------------------------
    def _sweep(self, request: Request) -> Response:
        try:
            body = request.json()
        except Exception as exc:  # WireError
            return error_response(400, str(exc))
        if not isinstance(body, dict):
            return error_response(400, "sweep body must be a JSON object")
        kind = body.get("kind")
        if not isinstance(kind, str) or kind not in runner_kinds():
            return error_response(
                400,
                "sweep body needs a known 'kind' "
                f"(known: {', '.join(runner_kinds())})",
            )
        axes = body.get("axes") or {}
        base = body.get("base") or {}
        if not isinstance(axes, dict) or not all(
            isinstance(values, list) for values in axes.values()
        ):
            return error_response(400, "'axes' must map names to value lists")
        if not isinstance(base, dict):
            return error_response(400, "'base' must be a JSON object")
        if not axes:
            return error_response(400, "at least one axis is required")
        try:
            points = SweepSpec(kind=kind, axes=axes, base=base).points()
        except (TypeError, ValueError) as exc:
            return error_response(400, f"invalid sweep grid: {exc}")
        if len(points) > MAX_SWEEP_POINTS:
            return error_response(
                413,
                f"grid expands to {len(points)} points "
                f"(limit {MAX_SWEEP_POINTS}); split the sweep",
            )
        try:
            job = self.jobs.submit(kind, points)
        except PoolSaturated as exc:
            return error_response(429, str(exc), retry_after_s=self._retry_after_s())
        return Response(
            status=202,
            payload={
                "job": job.id,
                "points": len(points),
                "poll": f"/v1/jobs/{job.id}",
            },
        )

    def _job_list(self) -> Response:
        return Response(
            payload={"jobs": [job.status() for job in self.jobs.jobs()]}
        )

    def _job_status(self, request: Request) -> Response:
        job_id = request.path.removeprefix("/v1/jobs/")
        job = self.jobs.get(job_id)
        if job is None:
            return error_response(404, f"no such job: {job_id!r}")
        include_results = request.query.get("results") in ("1", "true", "yes")
        return Response(payload=job.status(include_results=include_results))

    # ------------------------------------------------------------------
    # streaming prediction sessions
    # ------------------------------------------------------------------
    @staticmethod
    def _session_error(exc: SessionError) -> Response:
        extra: dict[str, Any] = {}
        if exc.retry_after_s is not None:
            extra["retry_after_s"] = round(exc.retry_after_s, 1)
        return error_response(exc.status, exc.message, **extra)

    def _session_id(self, request: Request) -> str:
        return request.path.removeprefix("/v1/sessions/").removesuffix("/events")

    def _open_session(self, request: Request) -> Response:
        """``POST /v1/sessions``: admit one live predictor session."""
        try:
            body = request.json()
        except Exception as exc:  # WireError
            return error_response(400, str(exc))
        if not isinstance(body, dict):
            return error_response(400, "session body must be a JSON object")
        unknown = set(body) - {"predictor", "depth", "num_procs"}
        if unknown:
            return error_response(
                400, f"unknown session field(s): {', '.join(sorted(unknown))}"
            )
        try:
            session = self.sessions.open(
                predictor=body.get("predictor", "MSP"),
                depth=body.get("depth", 1),
                num_procs=body.get("num_procs", 16),
            )
        except SessionError as exc:
            return self._session_error(exc)
        except (TypeError, ValueError) as exc:
            return error_response(400, f"invalid session parameters: {exc}")
        return Response(
            status=201,
            payload={
                "session": session.id,
                "predictor": session.predictor_name,
                "depth": session.depth,
                "num_procs": session.num_procs,
                "events_url": f"/v1/sessions/{session.id}/events",
                "max_events": self.sessions.max_events,
                "ttl_s": self.sessions.ttl_s,
            },
        )

    def _session_list(self, request: Request) -> Response:
        self.sessions.reap()
        now = time.monotonic()
        return Response(
            payload={
                "sessions": [s.status(now) for s in self.sessions.sessions()],
                "counters": self.sessions.stats(),
            }
        )

    def _session_status(self, request: Request) -> Response:
        try:
            session = self.sessions.peek(self._session_id(request))
        except SessionError as exc:
            return self._session_error(exc)
        return Response(payload=session.status(time.monotonic()))

    def _close_session(self, request: Request) -> Response:
        """``DELETE /v1/sessions/<id>``: flush, summarize, remove.

        The summary's ``run`` object is bit-identical to the
        per-predictor entry a batch ``accuracy`` point over the same
        event sequence reports.
        """
        try:
            summary = self.sessions.close(self._session_id(request))
        except SessionError as exc:
            return self._session_error(exc)
        return Response(payload=summary)

    def _session_events(self, request: Request) -> Response:
        """``POST /v1/sessions/<id>/events``: one NDJSON batch in,
        chunked NDJSON predictions out.

        The batch is validated and applied atomically *before* the
        response starts (so a 400/413 can still be a clean JSON error,
        and a client disconnect mid-response can never leave the
        session half-fed); the per-event prediction lines then stream
        back chunk-by-chunk with ``Transfer-Encoding: chunked``.
        """
        session_id = self._session_id(request)
        try:
            session = self.sessions.peek(session_id)
        except SessionError as exc:
            return self._session_error(exc)
        try:
            messages = parse_ndjson_events(request.body, session.num_procs)
        except ValueError as exc:
            return error_response(400, f"bad event batch: {exc}")
        try:
            lines = self.sessions.feed(session_id, messages)
        except SessionError as exc:
            return self._session_error(exc)

        async def stream():
            # Group lines into ~16 KB chunks: still streamed (a large
            # batch arrives as many flushed chunks), without a drain
            # per 100-byte line.
            buffer = bytearray()
            for line in lines:
                buffer += (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
                if len(buffer) >= 16384:
                    yield bytes(buffer)
                    buffer.clear()
            if buffer:
                yield bytes(buffer)

        return Response(
            status=200,
            headers={"X-Session-Events": str(len(lines))},
            stream=stream(),
        )
