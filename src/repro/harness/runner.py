"""Sweep execution: serial, fanned out over workers, or incremental.

Every sweep point is bit-deterministic — all randomness flows from
:class:`~repro.common.rng.DeterministicRng` seeds carried in the point's
parameters — so points can run in any process, in any order, and the
assembled results are identical to a serial run.  The
:class:`ParallelRunner` exploits that: it dedupes the expanded grid,
satisfies what it can from an optional :class:`ResultStore`, executes
the remainder serially or over a ``ProcessPoolExecutor`` in chunks, and
returns results in the original grid order.

Beyond batch :meth:`ParallelRunner.run`, the runner can be driven
incrementally — :meth:`~ParallelRunner.submit_point` returns a
:class:`concurrent.futures.Future` per point, which is what the HTTP
service front-end (:mod:`repro.service`) builds on: an event loop
submits points as requests arrive and awaits their futures instead of
blocking on a whole grid.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.harness.runners import PointMetrics, execute_point_instrumented
from repro.harness.spec import SweepPoint, SweepSpec
from repro.harness.store import MISS, ResultStore


class SweepError(RuntimeError):
    """A sweep point failed or its worker process died."""


def _run_chunk(
    payload: list[tuple[str, dict[str, Any]]]
) -> list[tuple[Any, PointMetrics]]:
    """Worker entry point: execute a chunk of points in one task."""
    out: list[tuple[Any, PointMetrics]] = []
    for kind, params in payload:
        try:
            out.append(execute_point_instrumented(kind, params))
        except Exception as exc:
            raise SweepError(
                f"sweep point failed: kind={kind!r} params={params!r} ({exc})"
            ) from exc
    return out


@dataclass(slots=True)
class SweepReport:
    """How a sweep was satisfied: fresh executions vs cache hits."""

    executed: int = 0
    cached: int = 0
    jobs: int = 1
    #: Total wall-clock seconds spent inside freshly executed points
    #: (summed across workers, so it can exceed elapsed wall time).
    executed_seconds: float = 0.0
    #: The slowest freshly executed point, in seconds (straggler bound).
    max_point_seconds: float = 0.0
    #: Compute seconds the cache saved — the sum of recorded ``elapsed_s``
    #: over cache hits (hits on pre-timing entries contribute nothing).
    saved_seconds: float = 0.0
    #: Compiled-trace cache events observed by freshly executed points.
    trace_hits: int = 0
    trace_misses: int = 0
    #: Cache hits served from the in-memory hot tier (a subset of
    #: ``cached``; zero when the store has no tier attached).
    hot_hits: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached

    def note_executed(self, metrics: PointMetrics) -> None:
        self.executed += 1
        self.executed_seconds += metrics.elapsed_s
        self.max_point_seconds = max(self.max_point_seconds, metrics.elapsed_s)
        self.trace_hits += metrics.trace_hits
        self.trace_misses += metrics.trace_misses

    def note_cached(self, elapsed_s: float | None, hot: bool = False) -> None:
        self.cached += 1
        if elapsed_s:
            self.saved_seconds += elapsed_s
        if hot:
            self.hot_hits += 1

    def timing_summary(self) -> str:
        """Human-readable per-point timing, e.g. for the CLI status line."""
        parts = []
        if self.executed:
            avg = self.executed_seconds / self.executed
            parts.append(
                f"avg {avg:.2f}s/pt, max {self.max_point_seconds:.2f}s"
            )
        if self.saved_seconds:
            parts.append(f"cache saved ~{self.saved_seconds:.1f}s")
        if self.trace_hits or self.trace_misses:
            parts.append(
                f"trace cache {self.trace_hits}h/{self.trace_misses}m"
            )
        if self.hot_hits:
            parts.append(f"hot tier {self.hot_hits}h")
        return "; ".join(parts)


@dataclass(slots=True)
class SweepResult:
    """Ordered (point, value) pairs plus an execution report."""

    points: list[SweepPoint]
    values: list[Any]
    report: SweepReport = field(default_factory=SweepReport)

    def __len__(self) -> int:
        return len(self.points)

    def items(self) -> Iterable[tuple[SweepPoint, Any]]:
        return zip(self.points, self.values)

    def value(self, **filters: Any) -> Any:
        """The value of the first point matching all given parameters."""
        for point, value in self.items():
            if all(point.get(name) == want for name, want in filters.items()):
                return value
        raise KeyError(f"no sweep point matches {filters!r}")


@dataclass(frozen=True, slots=True)
class PointOutcome:
    """One incrementally executed point: its value and how it was had."""

    value: Any
    #: Compute wall seconds — of this execution for fresh points, of the
    #: original execution for cache hits (None on pre-timing entries).
    elapsed_s: float | None
    #: True when the value came from the :class:`ResultStore`.
    cached: bool
    #: Compiled-trace cache events this execution observed (always 0
    #: for cache hits — a cached point never compiles anything).
    trace_hits: int = 0
    trace_misses: int = 0
    #: True when a cached value was served from the in-memory hot tier
    #: (no filesystem I/O beyond at most one validating ``stat``).
    hot: bool = False


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value (0 means all cores)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _fork_context() -> multiprocessing.context.BaseContext | None:
    if "fork" in multiprocessing.get_all_start_methods():
        # fork keeps runner kinds registered by the calling process
        # (e.g. in tests) visible to the workers.
        return multiprocessing.get_context("fork")
    return None


class ParallelRunner:
    """Executes sweeps with caching, worker fan-out, and serial fallback.

    * ``jobs``    — worker processes; 0 = all cores, 1 = serial (default),
    * ``store``   — optional :class:`ResultStore` consulted before and
      written after execution,
    * ``refresh`` — recompute every point and overwrite the cache.

    Worker fan-out packs the grid into ~4 chunks per worker with
    straggler-aware greedy packing: each chunk gets an (approximately)
    equal *predicted duration*, using wall times the store recorded for
    the same point, the same app, or the same kind (ocean points run
    ~2x em3d's, so fixed-size chunks would serialize the tail).

    Batch mode (:meth:`run`) executes a whole grid and blocks.
    Incremental mode (:meth:`submit_point`) executes one point at a time
    on a persistent pool and returns a future — with ``jobs > 1`` the
    pool is worker processes, with ``jobs == 1`` a single background
    thread (identical results; keeps a driving event loop responsive).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        store: ResultStore | None = None,
        refresh: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = store
        self.refresh = refresh
        #: Report of the most recent :meth:`run` (None before any run).
        self.last_report: SweepReport | None = None
        self._incremental: Executor | None = None
        self._incremental_lock = threading.Lock()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run(self, sweep: SweepSpec | Sequence[SweepPoint]) -> SweepResult:
        """Execute a spec (or explicit point list); order is preserved."""
        points = list(sweep.points() if isinstance(sweep, SweepSpec) else sweep)
        report = SweepReport(jobs=self.jobs)
        unique: list[SweepPoint] = []
        seen: set[SweepPoint] = set()
        for point in points:
            if point not in seen:
                seen.add(point)
                unique.append(point)

        results: dict[SweepPoint, Any] = {}
        pending: list[SweepPoint] = []
        if self.store is not None and not self.refresh:
            for point in unique:
                entry = self.store.load_entry(point)
                if entry is MISS:
                    pending.append(point)
                else:
                    results[point] = entry.result
                    report.note_cached(entry.elapsed_s, hot=entry.hot)
        else:
            pending = unique

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                fresh = self._run_parallel(pending)
            else:
                fresh = [self._execute(point) for point in pending]
            for point, (value, metrics) in zip(pending, fresh):
                results[point] = value
                self._store_quietly(point, value, metrics)
                report.note_executed(metrics)

        self.last_report = report
        return SweepResult(
            points=points, values=[results[p] for p in points], report=report
        )

    # ------------------------------------------------------------------
    def _store_quietly(
        self, point: SweepPoint, value: Any, metrics: PointMetrics
    ) -> None:
        """Write a fresh point to the store, if any; a full or
        read-only cache degrades to recomputes, never to a failed sweep."""
        if self.store is None:
            return
        try:
            self.store.store(
                point, value, elapsed_s=metrics.elapsed_s, meta=metrics.trace_meta
            )
        except OSError:
            pass

    def _execute(self, point: SweepPoint) -> tuple[Any, PointMetrics]:
        try:
            return execute_point_instrumented(point.kind, point.as_dict())
        except Exception as exc:
            raise SweepError(f"sweep point failed: {point!r} ({exc})") from exc

    def _run_parallel(
        self, pending: list[SweepPoint]
    ) -> list[tuple[Any, PointMetrics]]:
        workers = min(self.jobs, len(pending))
        chunks = self._pack_chunks(pending, workers)
        results: dict[int, tuple[Any, PointMetrics]] = {}
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_fork_context()
        ) as pool:
            futures = {
                pool.submit(
                    _run_chunk,
                    [(pending[i].kind, pending[i].as_dict()) for i in chunk],
                ): chunk
                for chunk in chunks
            }
            wait(futures, return_when=FIRST_EXCEPTION)
            for future, chunk in futures.items():
                try:
                    values = future.result()
                except BrokenProcessPool as exc:
                    raise SweepError(
                        f"a sweep worker process died while running "
                        f"{len(chunk)} point(s), e.g. {pending[chunk[0]]!r}; "
                        f"rerun with jobs=1 to see the failure inline"
                    ) from exc
                for index, value in zip(chunk, values):
                    results[index] = value
        return [results[index] for index in range(len(pending))]

    # ------------------------------------------------------------------
    # straggler-aware chunk packing
    # ------------------------------------------------------------------
    def _pack_chunks(
        self, pending: list[SweepPoint], workers: int
    ) -> list[list[int]]:
        """Split ``pending`` into chunks of ~equal predicted duration.

        Returns lists of indices into ``pending``: the grid is
        greedy-packed (longest-predicted-first into the least-loaded
        chunk) across ~4 waves per worker.  Packing only changes which
        worker task runs a point — results are reassembled in grid order
        either way, so output is deterministic.
        """
        count = len(pending)
        bins = min(count, workers * 4)
        durations = self.predicted_durations(pending)
        order = sorted(range(count), key=lambda i: (-durations[i], i))
        heap: list[tuple[float, int]] = [(0.0, b) for b in range(bins)]
        packed: list[list[int]] = [[] for _ in range(bins)]
        for index in order:
            load, which = heapq.heappop(heap)
            packed[which].append(index)
            heapq.heappush(heap, (load + durations[index], which))
        return [sorted(chunk) for chunk in packed if chunk]

    def predicted_durations(self, pending: list[SweepPoint]) -> list[float]:
        """Predicted compute seconds per point, from recorded wall times.

        Precedence: the point's own stored time (available under
        ``refresh``, where entries exist but are being recomputed), then
        the mean over recorded entries of the same kind with the same
        ``app``, then the kind-level mean, then the overall mean (1.0
        when the store has no timing signal at all — equal weights make
        greedy packing degrade to balanced counts).  Shared by batch
        chunk packing and the service's background-job submission order
        (stragglers first).
        """
        if self.store is None:
            return [1.0] * len(pending)
        by_kind: dict[str, list[tuple[dict[str, Any], float]]] = {}
        for point in pending:
            if point.kind not in by_kind:
                by_kind[point.kind] = self.store.recorded_times(point.kind)
        app_means: dict[tuple[str, Any], float] = {}
        kind_means: dict[str, float] = {}
        everything: list[float] = []
        for kind, records in by_kind.items():
            sums: dict[Any, list[float]] = {}
            for params, elapsed in records:
                everything.append(elapsed)
                sums.setdefault(params.get("app"), []).append(elapsed)
            if records:
                kind_means[kind] = sum(e for _p, e in records) / len(records)
            for app, values in sums.items():
                if app is not None:
                    app_means[(kind, app)] = sum(values) / len(values)
        fallback = sum(everything) / len(everything) if everything else 1.0

        durations: list[float] = []
        for point in pending:
            entry = self.store.load_entry(point)
            if entry is not MISS and entry.elapsed_s:
                durations.append(entry.elapsed_s)
                continue
            key = (point.kind, point.get("app"))
            durations.append(
                app_means.get(key, kind_means.get(point.kind, fallback))
            )
        return durations

    # ------------------------------------------------------------------
    # incremental execution (submit/poll, used by the service layer)
    # ------------------------------------------------------------------
    def cached_outcome(self, point: SweepPoint) -> PointOutcome | None:
        """The stored outcome for ``point``, or None (miss / no store)."""
        if self.store is None or self.refresh:
            return None
        entry = self.store.load_entry(point)
        if entry is MISS:
            return None
        return PointOutcome(
            value=entry.result,
            elapsed_s=entry.elapsed_s,
            cached=True,
            hot=entry.hot,
        )

    def submit_point(self, point: SweepPoint) -> "Future[PointOutcome]":
        """Submit one point for execution; returns a future of its outcome.

        Cache hits resolve immediately without touching the pool.  On a
        miss the point runs on the persistent incremental pool and the
        result (with its wall time) is written back to the store before
        the future resolves, so a concurrent batch run or another
        service replica sharing the cache dir sees it.
        """
        cached = self.cached_outcome(point)
        if cached is not None:
            done: Future[PointOutcome] = Future()
            done.set_result(cached)
            return done

        pool = self._ensure_incremental()
        try:
            inner = pool.submit(
                execute_point_instrumented, point.kind, point.as_dict()
            )
        except BrokenProcessPool:
            # an earlier point killed a worker; rebuild the pool once so
            # one crash doesn't poison every later submission.
            self._discard_incremental(pool)
            pool = self._ensure_incremental()
            inner = pool.submit(
                execute_point_instrumented, point.kind, point.as_dict()
            )

        outer: Future[PointOutcome] = Future()

        def _finish(fut: "Future[tuple[Any, PointMetrics]]") -> None:
            if fut.cancelled():
                # close()/_discard_incremental cancel queued work; the
                # outer future must still resolve or waiters hang.
                outer.set_exception(
                    SweepError(f"sweep point cancelled before running: {point!r}")
                )
                return
            exc = fut.exception()
            if exc is not None:
                if isinstance(exc, BrokenProcessPool):
                    self._discard_incremental(pool)
                outer.set_exception(
                    SweepError(f"sweep point failed: {point!r} ({exc})")
                )
                return
            value, metrics = fut.result()
            self._store_quietly(point, value, metrics)
            outer.set_result(
                PointOutcome(
                    value=value,
                    elapsed_s=metrics.elapsed_s,
                    cached=False,
                    trace_hits=metrics.trace_hits,
                    trace_misses=metrics.trace_misses,
                )
            )

        inner.add_done_callback(_finish)
        return outer

    def _ensure_incremental(self) -> Executor:
        with self._incremental_lock:
            if self._incremental is None:
                if self.jobs > 1:
                    self._incremental = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        mp_context=_fork_context(),
                    )
                else:
                    self._incremental = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-point"
                    )
            return self._incremental

    def _discard_incremental(self, pool: Executor) -> None:
        """Drop a broken pool so the next submission builds a fresh one.

        Identity-guarded: a straggler failure callback from an already
        replaced pool must not tear down its healthy successor.
        """
        with self._incremental_lock:
            if self._incremental is pool:
                self._incremental = None
        pool.shutdown(wait=False, cancel_futures=True)

    @property
    def incremental_started(self) -> bool:
        """True once a cache miss has forced the pool into existence."""
        return self._incremental is not None

    def close(self) -> None:
        """Shut down the incremental pool (no-op if never started)."""
        with self._incremental_lock:
            pool, self._incremental = self._incremental, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
