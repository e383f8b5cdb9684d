"""The asyncio server: sockets in, :class:`ServiceApp` responses out.

One task per connection, HTTP/1.1 keep-alive with an idle timeout,
bounded request framing from :mod:`repro.service.wire`, and a graceful
stop that drains in-flight computations so their results still land in
the cache.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.harness import (
    DEFAULT_CLAIM_TTL_S,
    DEFAULT_HOT_BYTES,
    DEFAULT_HOT_ENTRIES,
    ClaimBoard,
    ClaimedRunner,
    HotTier,
    ParallelRunner,
    ResultStore,
)
from repro.service.app import ServiceApp
from repro.service.jobs import ComputePool, JobTable
from repro.service.sessions import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_MAX_SESSIONS,
    DEFAULT_SESSION_TTL_S,
    SessionTable,
)
from repro.service.wire import (
    WireError,
    error_response,
    read_request,
    read_start_line,
    write_response,
)


@dataclass(slots=True)
class ServiceConfig:
    """Everything ``repro-paper serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8599
    jobs: int = 1
    cache_dir: str | None = ".repro-cache"
    refresh: bool = False
    max_pending: int = 16
    timeout_s: float | None = 60.0
    keep_alive_s: float = 10.0
    #: How long a request may take to arrive once its first line has;
    #: distinct from the idle timeout — a slow upload is not an idle
    #: connection (it gets a 408, not a silent close).
    request_timeout_s: float = 30.0
    #: Claim-file directory for multi-replica deployments (canonically
    #: ``<cache-dir>/claims``): replicas sharing one cache dir claim
    #: each point before computing it, so a grid submitted to two
    #: replicas is computed exactly once across them.  None disables
    #: claim coordination (single-replica default).
    claim_dir: str | None = None
    #: Claim owner id for this replica (default: host:pid).
    worker_id: str | None = None
    claim_ttl_s: float = DEFAULT_CLAIM_TTL_S
    #: Streaming prediction sessions (``POST /v1/sessions``): admission
    #: bound, idle TTL before a session is reaped, and the per-session
    #: event bound (predictor state grows with the trace, so unbounded
    #: sessions are unbounded memory; see docs/performance.md).
    max_sessions: int = DEFAULT_MAX_SESSIONS
    session_ttl_s: float = DEFAULT_SESSION_TTL_S
    session_max_events: int = DEFAULT_MAX_EVENTS
    #: API key every endpoint except ``/healthz`` must present
    #: (``Authorization: Bearer`` or ``X-API-Key``); None leaves the
    #: service open (the development default).
    api_key: str | None = None
    #: In-process LRU hot tier in front of the on-disk store: entry and
    #: byte bounds (0 disables the tier — every load reads the disk).
    hot_entries: int = DEFAULT_HOT_ENTRIES
    hot_bytes: int = DEFAULT_HOT_BYTES


class ReproService:
    """Owns the runner, pool, job table, app, and listening socket."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        # Hot tier validation is tied to claim coordination: with peer
        # replicas writing into the shared cache dir, each hit re-stats
        # its backing file; single-replica deployments are the only
        # writer and skip even that.
        hot_tier = (
            HotTier(
                max_entries=self.config.hot_entries,
                max_bytes=self.config.hot_bytes,
                validate=self.config.claim_dir is not None,
            )
            if self.config.hot_entries > 0 and self.config.hot_bytes > 0
            else None
        )
        store = (
            ResultStore(self.config.cache_dir, hot_tier=hot_tier)
            if self.config.cache_dir is not None
            else None
        )
        if self.config.claim_dir is None:
            self.runner = ParallelRunner(
                jobs=self.config.jobs, store=store, refresh=self.config.refresh
            )
        elif self.config.refresh:
            raise ValueError(
                "claims cannot be combined with refresh: every replica would "
                "recompute every point, defeating exactly-once division"
            )
        else:
            # Replica mode: claim points before computing them, so
            # replicas sharing this cache dir divide grids between
            # them instead of duplicating work (raises on store=None —
            # claims without a shared store cannot share results).
            self.runner = ClaimedRunner(
                ClaimBoard(
                    self.config.claim_dir,
                    owner=self.config.worker_id,
                    ttl_s=self.config.claim_ttl_s,
                ),
                jobs=self.config.jobs,
                store=store,
            )
        # Compiled traces share the point cache's directory, and no
        # store means no trace cache, as with the CLI; the runner's pool
        # workers (thread or forked processes) inherit this setting.
        from repro.trace import configure_trace_cache

        configure_trace_cache(store.root if store is not None else None)
        self.pool = ComputePool(
            self.runner,
            max_pending=self.config.max_pending,
            timeout_s=self.config.timeout_s,
        )
        self.jobs = JobTable(self.pool)
        self.sessions = SessionTable(
            max_sessions=self.config.max_sessions,
            ttl_s=self.config.session_ttl_s,
            max_events=self.config.session_max_events,
        )
        self.app = ServiceApp(
            self.pool, self.jobs, self.sessions, api_key=self.config.api_key
        )
        self._server: asyncio.Server | None = None
        self._reaper: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> "ReproService":
        if self._server is not None:
            raise RuntimeError("service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        # Idle-session reaping is lazy (every table access reaps), but a
        # replica that stops receiving traffic should still free
        # predictor state — this sweep bounds how long an abandoned
        # session can outlive its TTL.
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_sessions_forever()
        )
        return self

    async def _reap_sessions_forever(self) -> None:
        interval = max(1.0, self.config.session_ttl_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.sessions.reap()

    async def stop(self) -> None:
        """Stop accepting, drain in-flight computations, free the pool."""
        server, self._server = self._server, None
        reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.cancel()
        if server is not None:
            server.close()
            await server.wait_closed()
        await self.pool.drain()
        self.runner.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    # idle timeout: waiting for the next request to START.
                    start_line = await asyncio.wait_for(
                        read_start_line(reader), timeout=self.config.keep_alive_s
                    )
                    if not start_line:
                        break  # client closed cleanly
                    # request timeout: receiving the REST of it.
                    try:
                        request = await asyncio.wait_for(
                            read_request(reader, start_line=start_line),
                            timeout=self.config.request_timeout_s,
                        )
                    except asyncio.TimeoutError:
                        await write_response(
                            writer,
                            error_response(
                                408,
                                "request did not arrive within "
                                f"{self.config.request_timeout_s}s",
                            ),
                            keep_alive=False,
                        )
                        break
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection
                except WireError as exc:
                    await write_response(
                        writer,
                        error_response(exc.status, exc.message),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break  # unreachable with a non-empty start line
                try:
                    response = await self.app.handle(request)
                except Exception as exc:  # noqa: BLE001 — last-resort 500
                    response = error_response(
                        500, f"internal error: {type(exc).__name__}: {exc}"
                    )
                await write_response(writer, response, keep_alive=request.keep_alive)
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _serve(config: ServiceConfig, announce) -> None:
    service = ReproService(config)
    await service.start()
    announce(service)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def run_service(config: ServiceConfig, announce=lambda service: None) -> int:
    """Blocking entry point used by ``repro-paper serve``; 0 on clean exit."""
    try:
        asyncio.run(_serve(config, announce))
    except KeyboardInterrupt:
        pass
    return 0
