"""The serving core: a coalescing compute pool and background sweep jobs.

``ComputePool`` is the single shared path every request takes to a
sweep-point value:

1. **Coalesce** — if the same canonical point is already in flight, the
   request awaits the existing computation; N concurrent requests for
   one point trigger exactly one execution.
2. **Cache** — the :class:`~repro.harness.ResultStore` is consulted
   inline (a single local-disk JSON read); hits return without ever
   touching the runner.
3. **Compute** — misses are submitted to the runner's pool
   (:meth:`~repro.harness.ParallelRunner.submit_point`), bounded by
   ``max_pending``; beyond the bound new computations are refused
   (:class:`PoolSaturated` → HTTP 429).  Requests carry a timeout
   (:class:`PointTimeout` → HTTP 504) but a timed-out computation keeps
   running and lands in the cache, so a retry is a hit.

``JobTable`` drives whole grids (``POST /v1/sweep``) through the same
pool, so a job's points coalesce with interactive requests and every
computed point is shared.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.harness import ParallelRunner, PointOutcome, SweepError, SweepPoint

_UNSET = object()


class PoolSaturated(Exception):
    """The compute queue is full; the client should back off and retry."""


class PointTimeout(Exception):
    """The request timed out; the computation itself continues."""


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


@dataclass(slots=True)
class ServiceStats:
    """Counters and latency windows behind ``GET /statz``."""

    #: Wall-clock start, reported as a timestamp; ``uptime_s`` is
    #: measured against the monotonic anchor below — an NTP step must
    #: never make uptime jump or go negative.
    started_at: float = field(default_factory=time.time)
    started_monotonic: float = field(default_factory=time.monotonic)
    hits: int = 0
    computes: int = 0
    coalesced: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    compute_seconds: float = 0.0
    saved_seconds: float = 0.0
    #: Compiled-trace cache events observed by computed points (a point
    #: served from the result cache never compiles a trace at all).
    trace_hits: int = 0
    trace_misses: int = 0
    hit_latencies_ms: deque = field(default_factory=lambda: deque(maxlen=1024))
    compute_latencies_ms: deque = field(default_factory=lambda: deque(maxlen=1024))

    def note_hit(self, outcome: PointOutcome, wall_s: float) -> None:
        self.hits += 1
        self.hit_latencies_ms.append(1000.0 * wall_s)
        if outcome.elapsed_s:
            self.saved_seconds += outcome.elapsed_s

    def note_computed(self, outcome: PointOutcome, wall_s: float) -> None:
        self.computes += 1
        self.compute_latencies_ms.append(1000.0 * wall_s)
        if outcome.elapsed_s:
            self.compute_seconds += outcome.elapsed_s
        self.trace_hits += outcome.trace_hits
        self.trace_misses += outcome.trace_misses

    @property
    def point_requests(self) -> int:
        return self.hits + self.computes + self.coalesced

    @property
    def uptime_s(self) -> float:
        return round(time.monotonic() - self.started_monotonic, 3)

    def snapshot(self, in_flight: int, queue_bound: int) -> dict[str, Any]:
        total = self.point_requests
        hit = sorted(self.hit_latencies_ms)
        compute = sorted(self.compute_latencies_ms)
        return {
            "started_at": self.started_at,
            "uptime_s": self.uptime_s,
            "point_requests": total,
            "hits": self.hits,
            "computes": self.computes,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "hit_rate": round(self.hits / total, 4) if total else None,
            "in_flight": in_flight,
            "queue_depth_bound": queue_bound,
            "compute_seconds": round(self.compute_seconds, 3),
            "cache_saved_seconds": round(self.saved_seconds, 3),
            "trace_cache": {
                "hits": self.trace_hits,
                "misses": self.trace_misses,
                "hit_rate": (
                    round(self.trace_hits / (self.trace_hits + self.trace_misses), 4)
                    if (self.trace_hits + self.trace_misses)
                    else None
                ),
            },
            "latency_ms": {
                "hit": {
                    "count": len(hit),
                    "p50": round(_percentile(hit, 0.50), 3),
                    "p90": round(_percentile(hit, 0.90), 3),
                    "p99": round(_percentile(hit, 0.99), 3),
                },
                "compute": {
                    "count": len(compute),
                    "p50": round(_percentile(compute, 0.50), 3),
                    "p90": round(_percentile(compute, 0.90), 3),
                    "p99": round(_percentile(compute, 0.99), 3),
                },
            },
        }


class ComputePool:
    """Cache-first, coalescing access to sweep points for an event loop."""

    def __init__(
        self,
        runner: ParallelRunner,
        max_pending: int = 16,
        timeout_s: float | None = 60.0,
    ) -> None:
        self.runner = runner
        self.max_pending = max_pending
        self.timeout_s = timeout_s
        self.stats = ServiceStats()
        self._tasks: dict[str, asyncio.Task] = {}

    @property
    def in_flight(self) -> int:
        """Computations currently pending or running."""
        return len(self._tasks)

    async def fetch(
        self,
        point: SweepPoint,
        *,
        wait: bool = False,
        timeout_s: Any = _UNSET,
    ) -> PointOutcome:
        """The outcome for ``point``: cached, coalesced, or computed.

        ``wait=True`` (background jobs) skips the saturation check —
        such callers throttle themselves and prefer queueing in-process
        over a 429.  ``timeout_s`` overrides the pool default; ``None``
        waits indefinitely.
        """
        started = time.perf_counter()
        key = f"{point.kind}/{point.key}"
        # NOTE: everything up to task creation is synchronous, so two
        # concurrent fetches of one point cannot both miss the dict.
        task = self._tasks.get(key)
        if task is None:
            cached = self.runner.cached_outcome(point)
            if cached is not None:
                self.stats.note_hit(cached, time.perf_counter() - started)
                return cached
            if not wait and len(self._tasks) >= self.max_pending:
                self.stats.rejected += 1
                raise PoolSaturated(
                    f"compute queue is full ({self.max_pending} in flight)"
                )
            task = asyncio.get_running_loop().create_task(self._compute(key, point))
            self._tasks[key] = task
        else:
            self.stats.coalesced += 1

        timeout = self.timeout_s if timeout_s is _UNSET else timeout_s
        try:
            return await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise PointTimeout(
                f"point did not complete within {timeout}s; it is still "
                "computing — retry to pick up the cached result"
            ) from None

    async def _compute(self, key: str, point: SweepPoint) -> PointOutcome:
        started = time.perf_counter()
        try:
            future = self.runner.submit_point(point)
            outcome = await asyncio.wrap_future(future)
            wall = time.perf_counter() - started
            if outcome.cached:
                # A claimed replica resolves points computed by a *peer*
                # replica as cached outcomes (it waited on the claim and
                # read the store) — that is a hit, not a local compute,
                # or /statz would double-count the fleet's work.
                self.stats.note_hit(outcome, wall)
            else:
                self.stats.note_computed(outcome, wall)
            return outcome
        except SweepError:
            self.stats.errors += 1
            raise
        finally:
            self._tasks.pop(key, None)

    async def drain(self) -> None:
        """Wait for all in-flight computations (used at shutdown)."""
        tasks = list(self._tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


@dataclass(slots=True)
class SweepJob:
    """One submitted grid and its progress."""

    id: str
    kind: str
    points: list[SweepPoint]
    #: Name of the named experiment this job runs, when submitted via
    #: ``GET /v1/experiments/<name>`` (None for raw ``POST /v1/sweep``).
    experiment: str | None = None
    state: str = "running"  # running | done | failed
    done: int = 0
    cached: int = 0
    error: str | None = None
    results: list[Any] = field(default_factory=list)
    #: Wall-clock timestamps, reported as timestamps; ``elapsed_s`` is
    #: computed from the monotonic anchors so a wall-clock (NTP) step
    #: can never make a job's elapsed time jump or go negative.
    created_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    created_monotonic: float = field(default_factory=time.monotonic)
    finished_monotonic: float | None = None
    task: asyncio.Task | None = None

    @property
    def elapsed_s(self) -> float:
        """Monotonic runtime: so-far while running, total once finished."""
        end = (
            self.finished_monotonic
            if self.finished_monotonic is not None
            else time.monotonic()
        )
        return end - self.created_monotonic

    def status(self, include_results: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "job": self.id,
            "kind": self.kind,
            "experiment": self.experiment,
            "state": self.state,
            "total": len(self.points),
            "done": self.done,
            "cached": self.cached,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.error is not None:
            payload["error"] = self.error
        if include_results:
            payload["points"] = [
                {"params": point.as_dict(), "result": value}
                for point, value in zip(self.points, self.results)
            ]
        return payload


class JobTable:
    """Background sweep jobs driven through the shared :class:`ComputePool`."""

    def __init__(
        self, pool: ComputePool, concurrency: int = 2, max_jobs: int = 64
    ) -> None:
        self.pool = pool
        self.concurrency = max(1, concurrency)
        self.max_jobs = max_jobs
        self._jobs: dict[str, SweepJob] = {}
        self._counter = itertools.count(1)

    def submit(
        self,
        kind: str,
        points: list[SweepPoint],
        experiment: str | None = None,
    ) -> SweepJob:
        self._evict_finished()
        if len(self._jobs) >= self.max_jobs:
            raise PoolSaturated(
                f"job table is full ({self.max_jobs} unfinished jobs)"
            )
        number = next(self._counter)
        job = SweepJob(
            id=f"job-{number:05d}-{points[0].key[:8] if points else 'empty'}",
            kind=kind,
            points=points,
            experiment=experiment,
            results=[None] * len(points),
        )
        self._jobs[job.id] = job
        job.task = asyncio.get_running_loop().create_task(self._drive(job))
        return job

    def get(self, job_id: str) -> SweepJob | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[SweepJob]:
        return sorted(self._jobs.values(), key=lambda job: job.id)

    def _submission_order(self, points: list[SweepPoint]) -> list[int]:
        """Indices longest-predicted-first — the same recorded-wall-time
        signal batch ``run()`` submits by, so a job's stragglers start
        first instead of serializing behind the grid's tail.  With no
        timing signal every point weighs the same and the sort is
        stable, preserving grid order."""
        try:
            durations = self.pool.runner.predicted_durations(points)
        except Exception:
            return list(range(len(points)))
        return sorted(range(len(points)), key=lambda i: (-durations[i], i))

    async def _drive(self, job: SweepJob) -> None:
        semaphore = asyncio.Semaphore(self.concurrency)

        async def one(index: int, point: SweepPoint) -> None:
            async with semaphore:
                outcome = await self.pool.fetch(point, wait=True, timeout_s=None)
            job.results[index] = outcome.value
            job.done += 1
            job.cached += 1 if outcome.cached else 0

        # to_thread: predicting durations scans the store's recorded
        # entries on disk — off the event loop, like every other bulk
        # cache scan.  gather() starts tasks in argument order and the
        # semaphore admits them in that order, so submission follows
        # the predicted-duration order; results stay in grid order.
        order = await asyncio.to_thread(self._submission_order, job.points)
        settled = await asyncio.gather(
            *(one(i, job.points[i]) for i in order),
            return_exceptions=True,
        )
        failures = [exc for exc in settled if isinstance(exc, BaseException)]
        if failures:
            job.state = "failed"
            job.error = str(failures[0])
        else:
            job.state = "done"
        job.finished_at = time.time()
        job.finished_monotonic = time.monotonic()

    def _evict_finished(self) -> None:
        """Drop oldest finished jobs once the table is over capacity."""
        overflow = len(self._jobs) - self.max_jobs + 1
        if overflow <= 0:
            # NOTE: a negative overflow must not reach the slice below —
            # finished[:negative] would evict almost every finished job
            # while the table is still far under capacity.
            return
        finished = [job for job in self.jobs() if job.state != "running"]
        for job in finished[:overflow]:
            del self._jobs[job.id]
