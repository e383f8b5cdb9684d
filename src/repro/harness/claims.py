"""Cross-machine work claims: divide one grid among processes and hosts.

PRs 1–4 made a single host fast; this module makes *several* hosts (or
several processes on one host) share the compute of a grid the way they
already share its results.  The only coordination substrate is the
shared cache directory's filesystem — no broker, no sockets — which is
exactly what multiple ``repro serve`` replicas and CLI workers already
have in common.

The protocol is one **claim file per point** under a claims directory
(canonically ``<cache-dir>/claims/``):

* a worker claims a point by creating ``<store-key>.claim`` with
  ``O_CREAT | O_EXCL`` — the kernel guarantees exactly one creator wins,
  across processes and across NFS-style shared mounts;
* the file carries the owner's identity (worker id, pid, host) and its
  **mtime is the heartbeat**: the owner refreshes it while computing;
* a claim whose mtime is older than the TTL is *stale* — its owner is
  presumed dead, and any worker may **steal** it: the stale file is
  atomically renamed aside (exactly one stealer wins the rename, and
  one that finds it moved a live claim puts it back) and a fresh
  claim is created with ``O_CREAT | O_EXCL`` again.

Because results land in the content-addressed
:class:`~repro.harness.store.ResultStore` with atomic writes, the worst
case of a *mis-tuned* TTL (a live-but-slow worker losing its claim) is
a duplicated computation, never a wrong or torn result — every worker
computes the same bits.

:class:`ClaimedRunner` wraps a :class:`~repro.harness.runner.ParallelRunner`
with this protocol: each worker claims a point before computing it,
skips points already cached or claimed elsewhere, and re-polls
released/stale claims until the grid is complete.  N workers pointed at
one shared cache dir therefore divide a grid between them, each point
computed exactly once (see the ``distributed-smoke`` CI lane).

Every claim transition is appended to ``events.log`` in the claims
directory (one JSON object per line, ``O_APPEND`` writes), which is how
tests and CI audit exactly-once execution per worker.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.harness.runner import (
    ParallelRunner,
    PointOutcome,
    SweepError,
    SweepReport,
    SweepResult,
)
from repro.harness.runners import PointMetrics
from repro.harness.spec import SweepPoint, SweepSpec
from repro.harness.store import MISS

#: Default seconds of heartbeat silence before a claim may be stolen.
#: Owners refresh their claims every TTL/4, so a live worker keeps a
#: comfortable margin even on a loaded host; a crashed worker's points
#: are reclaimed within one TTL.
DEFAULT_CLAIM_TTL_S = 120.0

#: Name of the append-only claim-transition log inside the claims dir.
EVENTS_LOG = "events.log"

_TOMB_COUNTER = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ClaimInfo:
    """What a claim file says about its holder."""

    owner: str | None
    pid: int | None
    host: str | None
    claimed_at: float | None
    #: Seconds since the last heartbeat (the file's mtime).
    age_s: float


def default_owner() -> str:
    """A worker id unique enough across hosts and processes."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _drop_tomb(tomb: Path, restore: Path | None = None) -> None:
    """Delete a claim file renamed aside, first linking it back to
    ``restore`` when given (a no-op if a third worker has re-created
    the slot meanwhile)."""
    if restore is not None:
        try:
            os.link(tomb, restore)
        except OSError:
            pass
    try:
        os.unlink(tomb)
    except OSError:
        pass


class ClaimBoard:
    """The filesystem claim protocol over one claims directory.

    Thread-safe: a :class:`ClaimedRunner` touches the board from its
    caller, its heartbeat thread, and its waiter thread concurrently.
    Counters (``claimed``/``stolen``/``released``/``lost``/``computed``)
    feed the service's ``/statz`` claims section.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        owner: str | None = None,
        ttl_s: float = DEFAULT_CLAIM_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"claim TTL must be > 0 seconds, got {ttl_s}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.owner = owner or default_owner()
        self.ttl_s = float(ttl_s)
        self._host = socket.gethostname()
        self._lock = threading.Lock()
        self._held: set[str] = set()
        self.claimed = 0
        self.stolen = 0
        self.released = 0
        #: Claims that vanished or changed owner under us (TTL too low
        #: relative to compute time, or an operator deleted the file).
        self.lost = 0
        self.computed = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        # ``.claim``, not ``.json``: the claims dir may live inside the
        # cache dir, whose entry counting globs ``*/*.json``.
        return self.root / f"{key}.claim"

    @property
    def log_path(self) -> Path:
        return self.root / EVENTS_LOG

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    def acquire(self, key: str) -> bool:
        """Try to claim ``key``; True when this worker now holds it.

        Wins either by creating a fresh claim file (``O_CREAT|O_EXCL``)
        or by stealing one whose heartbeat is older than the TTL.
        """
        if self._create(key):
            return True
        info = self.read(key)
        if info is None:
            # released between our failed create and the read; one more
            # attempt — losing it again means another worker was faster.
            return self._create(key)
        if info.age_s <= self.ttl_s:
            return False
        # Stale: move the corpse aside.  ``os.rename`` of one specific
        # path succeeds for exactly one stealer; everyone else sees
        # FileNotFoundError and backs off.
        path = self.path_for(key)
        tomb = self.root / f".tomb-{os.getpid()}-{next(_TOMB_COUNTER)}"
        try:
            os.rename(path, tomb)
        except OSError:
            return False
        # A thief delayed between its read and the rename may have moved
        # aside the fresh claim a faster thief just created.  The rename
        # keeps the mtime, so a tomb younger than the TTL is a live
        # claim: put it back and lose.
        try:
            live = time.time() - os.stat(tomb).st_mtime <= self.ttl_s
        except OSError:
            live = False
        _drop_tomb(tomb, restore=path if live else None)
        if live:
            return False
        with self._lock:
            self.stolen += 1
        self._log("stolen", key, {"from": info.owner, "age_s": round(info.age_s, 3)})
        # The slot is open again but not ours yet — a third worker may
        # have re-created it between our rename and this create.
        return self._create(key)

    def _create(self, key: str) -> bool:
        path = self.path_for(key)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        except FileNotFoundError:
            # claims dir deleted out from under us; recreate and retry
            self.root.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except OSError:
                return False
        payload = {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": self._host,
            "claimed_at": time.time(),
        }
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with self._lock:
            self._held.add(key)
            self.claimed += 1
        self._log("claimed", key)
        return True

    def read(self, key: str) -> ClaimInfo | None:
        """The current claim on ``key``, or None when unclaimed.

        A claim file seen between its ``O_CREAT`` and its payload write
        reads as held by an unknown owner with a fresh heartbeat — it is
        never treated as stale or stealable just for being torn.
        """
        path = self.path_for(key)
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            return None
        owner = pid = host = claimed_at = None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data, dict):
                owner = data.get("owner")
                pid = data.get("pid")
                host = data.get("host")
                claimed_at = data.get("claimed_at")
        except (OSError, ValueError):
            pass
        return ClaimInfo(
            owner=owner,
            pid=pid,
            host=host,
            claimed_at=claimed_at,
            age_s=max(0.0, time.time() - mtime),
        )

    def heartbeat(self) -> None:
        """Refresh the mtime of every held claim (and detect losses)."""
        with self._lock:
            held = list(self._held)
        for key in held:
            info = self.read(key)
            if info is None or (info.owner is not None and info.owner != self.owner):
                self._mark_lost(key)
                continue
            try:
                os.utime(self.path_for(key))
            except OSError:
                pass

    def release(self, key: str) -> None:
        """Drop a held claim so other workers may take the point over."""
        with self._lock:
            held = key in self._held
            self._held.discard(key)
        if not held:
            return
        info = self.read(key)
        if info is not None and info.owner not in (None, self.owner):
            # stolen while we computed — the file belongs to the thief now
            with self._lock:
                self.lost += 1
            self._log("lost", key, {"to": info.owner})
            return
        # Remove via rename-then-verify, not a bare unlink: a thief may
        # steal and re-create the claim between the read above and the
        # removal, and unlinking *its* file would open the point to a
        # third worker.  The rename grabs exactly one file; if it turns
        # out not to be ours, put it back.
        path = self.path_for(key)
        tomb = self.root / f".tomb-{os.getpid()}-{next(_TOMB_COUNTER)}"
        try:
            os.rename(path, tomb)
        except OSError:
            # already gone (the thief released too, or operator cleanup)
            with self._lock:
                self.released += 1
            self._log("released", key)
            return
        try:
            data = json.loads(tomb.read_text(encoding="utf-8"))
            renamed_owner = data.get("owner") if isinstance(data, dict) else None
        except (OSError, ValueError):
            renamed_owner = None  # torn ⇒ freshly created ⇒ not ours
        if renamed_owner != self.owner:
            _drop_tomb(tomb, restore=path)
            with self._lock:
                self.lost += 1
            self._log("lost", key, {"to": renamed_owner})
            return
        _drop_tomb(tomb)
        with self._lock:
            self.released += 1
        self._log("released", key)

    def release_all(self) -> None:
        with self._lock:
            held = list(self._held)
        for key in held:
            self.release(key)

    def note_computed(self, key: str) -> None:
        """Record that this worker freshly computed the point behind ``key``."""
        with self._lock:
            self.computed += 1
        self._log("computed", key)

    def _mark_lost(self, key: str) -> None:
        with self._lock:
            if key not in self._held:
                return
            self._held.discard(key)
            self.lost += 1
        self._log("lost", key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def held(self) -> int:
        with self._lock:
            return len(self._held)

    def holds(self, key: str) -> bool:
        with self._lock:
            return key in self._held

    def stats(self) -> dict[str, Any]:
        """Snapshot for ``/statz`` and the CLI summary."""
        with self._lock:
            return {
                "dir": str(self.root),
                "owner": self.owner,
                "ttl_s": self.ttl_s,
                "held": len(self._held),
                "claimed": self.claimed,
                "stolen": self.stolen,
                "released": self.released,
                "lost": self.lost,
                "computed": self.computed,
            }

    def events(self) -> list[dict[str, Any]]:
        """Parsed ``events.log`` records (all workers', oldest first)."""
        try:
            lines = self.log_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        out: list[dict[str, Any]] = []
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn final line from a crashed writer
            if isinstance(record, dict):
                out.append(record)
        return out

    def _log(self, event: str, key: str, extra: dict[str, Any] | None = None) -> None:
        record = {
            "ts": round(time.time(), 3),
            "event": event,
            "key": key,
            "owner": self.owner,
        }
        if extra:
            record.update(extra)
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            fd = os.open(
                self.log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass  # a full/readonly claims dir degrades to no audit log

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClaimBoard(root={str(self.root)!r}, owner={self.owner!r})"


class ClaimedRunner:
    """A :class:`ParallelRunner` that divides grids with other workers.

    Wraps an inner runner (whose :class:`ResultStore` must be the shared
    cache) and a :class:`ClaimBoard` (canonically over
    ``<cache-dir>/claims/``).  The interface mirrors the inner runner —
    ``run``, ``submit_point``, ``cached_outcome``, ``close``,
    ``last_report``, ``predicted_durations`` — so the CLI, the
    experiment drivers, and the HTTP service use either interchangeably.

    * **Batch** (:meth:`run`): a work-stealing pump — claim up to
      ``jobs`` uncached points, compute them on the inner runner's
      incremental pool, release each claim as its result lands, and
      re-poll points claimed elsewhere until the grid is complete
      (taking over stale claims along the way).
    * **Incremental** (:meth:`submit_point`): claim-or-wait — a claimed
      miss computes locally; a point claimed elsewhere resolves when its
      result appears in the store (or its claim goes stale and this
      worker steals the computation).

    A daemon heartbeat thread refreshes held claims every TTL/4, so only
    a *dead* worker's claims ever go stale.  ``refresh`` mode is
    rejected: recompute-everything contradicts compute-each-point-once.
    """

    def __init__(
        self,
        runner: ParallelRunner,
        claims: ClaimBoard,
        poll_interval_s: float = 0.25,
    ) -> None:
        if runner.store is None:
            raise ValueError(
                "claim coordination needs a shared ResultStore: claims divide "
                "the compute, the store shares the results"
            )
        if runner.refresh:
            raise ValueError(
                "claims cannot be combined with refresh: every worker would "
                "recompute every point, defeating exactly-once division"
            )
        self.runner = runner
        self.claims = claims
        self.poll_interval_s = poll_interval_s
        #: Report of the most recent :meth:`run` (None before any run).
        self.last_report: SweepReport | None = None
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._hb_thread: threading.Thread | None = None
        self._hb_stop = threading.Event()
        #: key -> (point, futures awaiting a point claimed elsewhere)
        self._waiting: dict[str, tuple[SweepPoint, list[Future]]] = {}
        self._waiter_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # delegation: look like a ParallelRunner to callers
    # ------------------------------------------------------------------
    @property
    def store(self):
        return self.runner.store

    @property
    def jobs(self) -> int:
        return self.runner.jobs

    @property
    def refresh(self) -> bool:
        return self.runner.refresh

    @property
    def incremental_started(self) -> bool:
        return self.runner.incremental_started

    def predicted_durations(self, points: list[SweepPoint]) -> list[float]:
        return self.runner.predicted_durations(points)

    def cached_outcome(self, point: SweepPoint) -> PointOutcome | None:
        return self.runner.cached_outcome(point)

    def claim_key(self, point: SweepPoint) -> str:
        """The claim file name for ``point``: its *store* key.

        The store key includes the fingerprint, so workers running
        different code versions never contend for each other's points.
        """
        return self.runner.store.key_for(point)

    # ------------------------------------------------------------------
    # batch execution: the work-stealing pump
    # ------------------------------------------------------------------
    def run(self, sweep: SweepSpec | Sequence[SweepPoint]) -> SweepResult:
        """Execute a grid cooperatively; blocks until *every* point of
        the grid has a result, whoever computed it."""
        points = list(sweep.points() if isinstance(sweep, SweepSpec) else sweep)
        report = SweepReport(jobs=self.runner.jobs)
        unique: list[SweepPoint] = []
        seen: set[SweepPoint] = set()
        for point in points:
            if point not in seen:
                seen.add(point)
                unique.append(point)

        store = self.runner.store
        results: dict[SweepPoint, Any] = {}
        todo: deque[SweepPoint] = deque(unique)
        in_flight: dict[Future, tuple[SweepPoint, str]] = {}
        deferred: list[SweepPoint] = []
        #: Points whose acquire failed (claimed by another worker).
        #: Their re-polls are throttled: one ``stat`` per cycle until
        #: the peer's result appears, claim retries only every
        #: ``_acquire_interval`` — a worker waiting on a mostly-foreign
        #: 1000-point grid must not hammer the shared mount with a full
        #: open+read+acquire round per point per quarter second.
        blocked: set[SweepPoint] = set()
        retry_interval = self._acquire_interval()
        next_acquire_at = 0.0  # first pass always attempts claims
        failure: SweepError | None = None

        while todo or in_flight or deferred:
            progressed = False
            now = time.monotonic()
            try_acquire = now >= next_acquire_at
            if try_acquire:
                next_acquire_at = now + retry_interval
            while failure is None and todo and len(in_flight) < self.runner.jobs:
                point = todo.popleft()
                if point in blocked:
                    if store.path_for(point).exists():
                        entry = store.load_entry(point)
                        if entry is not MISS:
                            blocked.discard(point)
                            results[point] = entry.result
                            report.note_cached(entry.elapsed_s, hot=entry.hot)
                            progressed = True
                            continue
                    if not try_acquire:
                        deferred.append(point)
                        continue
                else:
                    entry = store.load_entry(point)
                    if entry is not MISS:
                        results[point] = entry.result
                        report.note_cached(entry.elapsed_s, hot=entry.hot)
                        progressed = True
                        continue
                key = self.claim_key(point)
                if not self.claims.acquire(key):
                    blocked.add(point)
                    deferred.append(point)
                    continue
                blocked.discard(point)
                # Re-check under the claim: another worker may have
                # finished this point between our miss and our acquire.
                entry = store.load_entry(point)
                if entry is not MISS:
                    self.claims.release(key)
                    results[point] = entry.result
                    report.note_cached(entry.elapsed_s, hot=entry.hot)
                    progressed = True
                    continue
                self._ensure_heartbeat()
                in_flight[self.runner.submit_point(point)] = (point, key)
                progressed = True

            if in_flight:
                done, _ = wait_futures(
                    list(in_flight),
                    timeout=self.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    point, key = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        self.claims.release(key)
                        if failure is None:
                            failure = (
                                exc
                                if isinstance(exc, SweepError)
                                else SweepError(
                                    f"sweep point failed: {point!r} ({exc})"
                                )
                            )
                        continue
                    # submit_point stored the result before resolving,
                    # so the release never exposes a result-less point.
                    if not outcome.cached:
                        self.claims.note_computed(key)
                    self.claims.release(key)
                    results[point] = outcome.value
                    self._note_outcome(report, outcome)
                    progressed = True

            if failure is not None:
                if in_flight:
                    continue  # drain our own computations, then raise
                raise failure

            if deferred and not progressed and not in_flight:
                # everything left is claimed by other live workers;
                # wait for their results (or their claims to go stale).
                time.sleep(self.poll_interval_s)
            todo.extend(deferred)
            deferred.clear()

        self.last_report = report
        return SweepResult(
            points=points, values=[results[p] for p in points], report=report
        )

    def _acquire_interval(self) -> float:
        """How often to retry claims held by other workers.

        Result polls stay at ``poll_interval_s`` (they are one ``stat``
        each); claim retries matter only for steal-after-TTL and
        released-after-failure, so TTL-scale cadence capped at 2 s is
        plenty and keeps shared-mount traffic bounded.
        """
        return min(2.0, max(self.poll_interval_s, self.claims.ttl_s / 8.0))

    @staticmethod
    def _note_outcome(report: SweepReport, outcome: PointOutcome) -> None:
        if outcome.cached:
            report.note_cached(outcome.elapsed_s, hot=outcome.hot)
        else:
            report.note_executed(
                PointMetrics(
                    elapsed_s=outcome.elapsed_s or 0.0,
                    trace_hits=outcome.trace_hits,
                    trace_misses=outcome.trace_misses,
                )
            )

    # ------------------------------------------------------------------
    # incremental execution: claim-or-wait
    # ------------------------------------------------------------------
    def submit_point(self, point: SweepPoint) -> "Future[PointOutcome]":
        """A future of ``point``'s outcome, computed by *someone*.

        Cache hits resolve immediately.  On a miss this worker claims
        the point and computes it; if another worker already holds the
        claim, the future resolves when that worker's result appears in
        the shared store — or, should the claim go stale, when this
        worker steals and finishes the computation itself.
        """
        cached = self.runner.cached_outcome(point)
        if cached is not None:
            done: Future[PointOutcome] = Future()
            done.set_result(cached)
            return done
        key = self.claim_key(point)
        if self.claims.acquire(key):
            entry = self.runner.store.load_entry(point)
            if entry is not MISS:
                self.claims.release(key)
                done = Future()
                done.set_result(
                    PointOutcome(
                        value=entry.result, elapsed_s=entry.elapsed_s, cached=True
                    )
                )
                return done
            self._ensure_heartbeat()
            return self._compute_claimed(point, key)
        return self._enqueue_wait(point, key)

    def _compute_claimed(
        self, point: SweepPoint, key: str
    ) -> "Future[PointOutcome]":
        outer: Future[PointOutcome] = Future()
        inner = self.runner.submit_point(point)

        def _finish(fut: "Future[PointOutcome]") -> None:
            try:
                outcome = fut.result()
            except BaseException as exc:
                self.claims.release(key)
                outer.set_exception(
                    exc
                    if isinstance(exc, SweepError)
                    else SweepError(f"sweep point failed: {point!r} ({exc})")
                )
                return
            if not outcome.cached:
                self.claims.note_computed(key)
            self.claims.release(key)
            outer.set_result(outcome)

        inner.add_done_callback(_finish)
        return outer

    def _enqueue_wait(self, point: SweepPoint, key: str) -> "Future[PointOutcome]":
        outer: Future[PointOutcome] = Future()
        with self._wake:
            if self._closed:
                outer.set_exception(
                    SweepError(f"claimed runner closed while waiting for {point!r}")
                )
                return outer
            _point, futures = self._waiting.setdefault(key, (point, []))
            futures.append(outer)
            if self._waiter_thread is None or not self._waiter_thread.is_alive():
                self._waiter_thread = threading.Thread(
                    target=self._waiter_loop,
                    name="repro-claim-waiter",
                    daemon=True,
                )
                self._waiter_thread.start()
            self._wake.notify_all()
        return outer

    def _waiter_loop(self) -> None:
        retry_at: dict[str, float] = {}
        retry_interval = self._acquire_interval()
        while True:
            with self._wake:
                while not self._waiting and not self._closed:
                    retry_at.clear()
                    self._wake.wait()
                if self._closed:
                    return
                items = list(self._waiting.items())
            for key, (point, futures) in items:
                # result poll each cycle (one stat until it appears)...
                if self.runner.store.path_for(point).exists():
                    entry = self.runner.store.load_entry(point)
                    if entry is not MISS:
                        outcome = PointOutcome(
                            value=entry.result, elapsed_s=entry.elapsed_s, cached=True
                        )
                        retry_at.pop(key, None)
                        self._resolve_waiters(key, lambda f: f.set_result(outcome))
                        continue
                # ...claim retries (steal/takeover) at TTL-scale cadence
                now = time.monotonic()
                if now < retry_at.get(key, 0.0):
                    continue
                retry_at[key] = now + retry_interval
                if self.claims.acquire(key):
                    # released without a result (the other worker failed)
                    # or stale (it died): take the computation over.
                    retry_at.pop(key, None)
                    self._ensure_heartbeat()
                    inner = self._compute_claimed(point, key)
                    with self._wake:
                        waiters = self._waiting.pop(key, (point, []))[1]

                    def _relay(fut: "Future[PointOutcome]", waiters=waiters) -> None:
                        exc = fut.exception()
                        for waiter in waiters:
                            if exc is not None:
                                waiter.set_exception(exc)
                            else:
                                waiter.set_result(fut.result())

                    inner.add_done_callback(_relay)
            with self._wake:
                if self._closed:
                    return
                self._wake.wait(timeout=self.poll_interval_s)

    def _resolve_waiters(self, key: str, resolve) -> None:
        with self._wake:
            waiters = self._waiting.pop(key, (None, []))[1]
        for waiter in waiters:
            resolve(waiter)

    # ------------------------------------------------------------------
    # heartbeats and lifecycle
    # ------------------------------------------------------------------
    def _ensure_heartbeat(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self._hb_thread is None or not self._hb_thread.is_alive():
                self._hb_thread = threading.Thread(
                    target=self._heartbeat_loop,
                    name="repro-claim-heartbeat",
                    daemon=True,
                )
                self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.claims.ttl_s / 4.0)
        while not self._hb_stop.wait(interval):
            self.claims.heartbeat()

    def close(self) -> None:
        """Release held claims, stop the threads, close the inner runner.

        Unresolved waiters (points another worker was computing) resolve
        with a :class:`SweepError` rather than hanging forever.
        """
        with self._wake:
            self._closed = True
            waiting, self._waiting = self._waiting, {}
            self._wake.notify_all()
        self._hb_stop.set()
        for _key, (point, futures) in waiting.items():
            for future in futures:
                future.set_exception(
                    SweepError(f"claimed runner closed while waiting for {point!r}")
                )
        for thread in (self._hb_thread, self._waiter_thread):
            if thread is not None and thread.is_alive():
                thread.join(timeout=5.0)
        self.claims.release_all()
        self.runner.close()

    def __enter__(self) -> "ClaimedRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClaimedRunner(owner={self.claims.owner!r}, jobs={self.jobs})"
