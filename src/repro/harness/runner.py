"""Sweep execution: every cache miss goes through one persistent pool.

Every sweep point is bit-deterministic — all randomness flows from
:class:`~repro.common.rng.DeterministicRng` seeds carried in the point's
parameters — so points can run in any process, in any order, and the
assembled results are identical to a serial run.

A :class:`ParallelRunner` reads a point once and gets a miss to a
worker one way only: :meth:`~ParallelRunner.cached_outcome` reads the
store, and :meth:`~ParallelRunner.submit_miss` sends a point it missed
to the runner's pool — one background thread at ``jobs=1``, ``jobs``
forked worker processes otherwise — returning a
:class:`concurrent.futures.Future`.  Batch :meth:`~ParallelRunner.run`
dedupes a grid, reads its cache hits on the calling thread, submits the
misses (longest-predicted-first when several workers share the pool),
waits for all of them and returns the results in grid order.  The HTTP
service front-end (:mod:`repro.service`) drives the same two calls: an
event loop submits misses as requests arrive and awaits their futures
instead of blocking on a whole grid.
"""

from __future__ import annotations

import contextvars
import functools
import multiprocessing
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.harness.runners import PointOutcome, execute_point_instrumented
from repro.harness.spec import SweepPoint, SweepSpec
from repro.harness.store import MISS, ResultStore


class SweepError(RuntimeError):
    """A sweep point failed or its worker process died."""


@dataclass(slots=True)
class SweepReport:
    """How points were satisfied — fresh executions vs cache hits — over
    one sweep, or over a service's lifetime (its ``/statz`` counters)."""

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

    @property
    def total(self) -> int:
        return self.executed + self.cached

    def note(self, outcome: PointOutcome) -> None:
        """Count one point of the sweep, freshly executed or cached."""
        elapsed = outcome.elapsed_s or 0.0
        if outcome.cached:
            self.cached += 1
            self.saved_seconds += elapsed
            return
        self.executed += 1
        self.executed_seconds += elapsed
        self.max_point_seconds = max(self.max_point_seconds, elapsed)
        self.trace_hits += outcome.trace_hits
        self.trace_misses += outcome.trace_misses

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


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value (0 means all cores)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class ParallelRunner:
    """Executes sweeps with caching over one persistent worker pool.

    * ``jobs``    — workers; 0 = all cores, 1 (default) = one background
      thread, N > 1 = N forked worker processes,
    * ``store``   — optional :class:`ResultStore` consulted before and
      written after execution,
    * ``refresh`` — recompute every point and overwrite the cache.

    The pool is created by the first cache miss and reused by every
    later :meth:`run` and :meth:`submit_miss` until :meth:`close` (the
    runner is also a context manager).  With several workers,
    :meth:`run` submits its misses longest-predicted-first, using wall
    times the store recorded for the same point, the same app, or the
    same kind (ocean points run ~2x em3d's, so a slow app drawn last
    would serialize the tail).
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
        self._pool: Executor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run(self, sweep: SweepSpec | Sequence[SweepPoint]) -> SweepResult:
        """Execute a spec (or explicit point list); order is preserved.

        Every miss runs, even after another has failed; then the first
        failure in grid order is raised as a :class:`SweepError`.
        """
        points = list(sweep.points() if isinstance(sweep, SweepSpec) else sweep)
        unique = list(dict.fromkeys(points))
        outcomes: dict[SweepPoint, PointOutcome] = {}
        misses: list[SweepPoint] = []
        for point in unique:
            hit = self.cached_outcome(point)
            if hit is None:
                misses.append(point)
            else:
                outcomes[point] = hit
        if self.jobs > 1 and len(misses) > 1:
            # longest first; sort() is stable, so ties keep grid order
            predicted = dict(zip(misses, self.predicted_durations(misses)))
            misses.sort(key=lambda point: -predicted[point])
        futures = {point: self.submit_miss(point) for point in misses}
        wait(futures.values())

        report = SweepReport(jobs=self.jobs)
        for point in unique:
            future = futures.get(point)
            if future is not None:
                error = future.exception()
                if error is not None:
                    raise error
                outcomes[point] = future.result()
            report.note(outcomes[point])
        self.last_report = report
        return SweepResult(
            points=points, values=[outcomes[p].value for p in points], report=report
        )

    # ------------------------------------------------------------------
    def _store_quietly(self, point: SweepPoint, outcome: PointOutcome) -> None:
        """Write a fresh point to the store, if any, with its trace-cache
        provenance as entry ``meta``; a full or read-only cache degrades
        to recomputes, never to a failed sweep."""
        if self.store is None:
            return
        meta = None
        if outcome.trace_hits or outcome.trace_misses:
            meta = {
                "trace_cache": {
                    "hits": outcome.trace_hits,
                    "misses": outcome.trace_misses,
                }
            }
        try:
            self.store.store(
                point, outcome.value, elapsed_s=outcome.elapsed_s, meta=meta
            )
        except OSError:
            pass

    def predicted_durations(self, pending: list[SweepPoint]) -> list[float]:
        """Predicted compute seconds per point, from recorded wall times.

        Precedence: the point's own stored time (available under
        ``refresh``, where entries exist but are being recomputed), then
        the mean over recorded entries of the same kind with the same
        ``app``, then the kind-level mean, then the overall mean (1.0
        when the store has no timing signal at all — equal weights keep
        grid order).  Shared by :meth:`run`'s submission order and the
        service's background-job submission order (stragglers first).
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
    # one point at a time: the only way a miss reaches a worker
    # ------------------------------------------------------------------
    def cached_outcome(self, point: SweepPoint) -> PointOutcome | None:
        """The stored outcome for ``point``, or None (miss / no store)."""
        if self.store is None or self.refresh:
            return None
        entry = self.store.load_entry(point)
        if entry is MISS:
            return None
        return PointOutcome(
            value=entry.result, elapsed_s=entry.elapsed_s, cached=True
        )

    def submit_miss(self, point: SweepPoint) -> "Future[PointOutcome]":
        """Run a point the caller found missing from the store (it is
        not read again here); returns a future of its outcome.

        The point runs on the pool and the result (with its wall time)
        is written back to the store before the future resolves, so a
        concurrent batch run or another service replica sharing the
        cache dir sees it.  On the thread pool the point runs in a copy
        of the caller's :mod:`contextvars` context, as
        :func:`asyncio.to_thread` does.
        """
        context = contextvars.copy_context()
        call = (execute_point_instrumented, point.kind, point.as_dict())
        if self.jobs == 1:
            call = (context.run, *call)
        pool = self._ensure_pool()
        try:
            inner = pool.submit(*call)
        except BrokenProcessPool:
            # an earlier point killed a worker; rebuild the pool once so
            # one crash doesn't poison every later submission.
            self._discard_pool(pool)
            pool = self._ensure_pool()
            inner = pool.submit(*call)

        outer: Future[PointOutcome] = Future()

        def _finish(fut: "Future[PointOutcome]") -> None:
            if fut.cancelled():
                # close()/_discard_pool cancel queued work; the outer
                # future must still resolve or waiters hang.
                outer.set_exception(
                    SweepError(f"sweep point cancelled before running: {point!r}")
                )
                return
            exc = fut.exception()
            if isinstance(exc, BrokenProcessPool):
                self._discard_pool(pool)
                outer.set_exception(
                    SweepError(
                        f"a sweep worker process died while running {point!r}; "
                        f"rerun with jobs=1 to see the failure inline"
                    )
                )
                return
            if exc is not None:
                outer.set_exception(
                    SweepError(f"sweep point failed: {point!r} ({exc})")
                )
                return
            outcome = fut.result()
            self._store_quietly(point, outcome)
            outer.set_result(outcome)

        # The store write runs in the caller's context too, so anything
        # tracing it sees the same parent as the point itself.
        inner.add_done_callback(functools.partial(context.run, _finish))
        return outer

    # ------------------------------------------------------------------
    # the pool
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        with self._pool_lock:
            if self._pool is None:
                if self.jobs > 1:
                    # fork keeps runner kinds registered by the calling
                    # process (e.g. in tests) visible to the workers.
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        mp_context=multiprocessing.get_context("fork"),
                    )
                else:
                    self._pool = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-point"
                    )
            return self._pool

    def _discard_pool(self, pool: Executor) -> None:
        """Drop a broken pool so the next submission builds a fresh one.

        Identity-guarded: a straggler failure callback from an already
        replaced pool must not tear down its healthy successor.
        """
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    @property
    def pool_started(self) -> bool:
        """True once a cache miss has forced the pool into existence."""
        return self._pool is not None

    def close(self) -> None:
        """Shut down the pool (no-op if never started); running points
        finish, queued ones resolve with a :class:`SweepError`.  A later
        miss builds a fresh pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
