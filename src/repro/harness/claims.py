"""Cross-machine work claims: divide one grid among processes and hosts.

This module makes *several* hosts (or several processes on one host)
share the compute of a grid the way they already share its results.
The only coordination substrate is the shared cache directory's
filesystem — no broker, no sockets — which is exactly what multiple
``repro serve`` replicas and CLI workers already have in common.

The protocol is one **claim file per point** under a claims directory
(canonically ``<cache-dir>/claims/``):

* a worker claims a point by creating ``<store-key>.claim`` with
  ``O_CREAT | O_EXCL`` — the kernel guarantees exactly one creator wins,
  across processes and across NFS-style shared mounts;
* the file carries the owner's identity (worker id, pid, host) and its
  **mtime is the heartbeat**: the owner refreshes it while computing;
* a claim whose mtime is older than the TTL is *stale* — its owner is
  presumed dead, and any worker may **steal** it: thieves take an
  exclusive ``flock`` on ``.steal.lock`` in the claims directory, read
  the claim again under it, atomically rename the stale file aside
  (one that finds it moved a live claim puts it back) and create a
  fresh claim with ``O_CREAT | O_EXCL`` again.

Because results land in the content-addressed
:class:`~repro.harness.store.ResultStore` with atomic writes, the worst
case of a *mis-tuned* TTL (a live-but-slow worker losing its claim) is
a duplicated computation, never a wrong or torn result — every worker
computes the same bits.

:class:`ClaimedRunner` is a :class:`~repro.harness.runner.ParallelRunner`
that claims each miss before computing it, and only while one of its
``jobs`` compute slots is free; points claimed elsewhere resolve when
their result lands in the shared store.  N workers pointed at one
shared cache dir therefore divide a grid between them, each point
computed exactly once (see the ``distributed-smoke`` CI lane).

Every claim transition is appended to ``events.log`` in the claims
directory (one JSON object per line, ``O_APPEND`` writes), which is how
tests and CI audit exactly-once execution per worker.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.harness.runner import (
    ParallelRunner,
    PointOutcome,
    SweepError,
    _resolved,
)
from repro.harness.spec import SweepPoint
from repro.harness.store import ResultStore

#: Default seconds of heartbeat silence before a claim may be stolen.
#: Owners refresh their claims every TTL/4, so a live worker keeps a
#: comfortable margin even on a loaded host; a crashed worker's points
#: are reclaimed within one TTL.
DEFAULT_CLAIM_TTL_S = 120.0

#: Name of the append-only claim-transition log inside the claims dir.
EVENTS_LOG = "events.log"

#: Lock file inside the claims dir that serializes thieves.
STEAL_LOCK = ".steal.lock"

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
    callers, its pool's completion callbacks and its dispatcher thread
    concurrently.
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
        # Stale.  Thieves take the steal lock and read the claim again
        # under it, so one delayed since the read above cannot move
        # aside the fresh claim a faster thief has just created.
        with self._steal_lock():
            info = self.read(key)
            if info is None:
                return self._create(key)
            if info.age_s <= self.ttl_s:
                return False
            # ``os.rename`` of one specific path succeeds for exactly one
            # stealer; everyone else sees FileNotFoundError and backs off.
            path = self.path_for(key)
            tomb = self.root / f".tomb-{os.getpid()}-{next(_TOMB_COUNTER)}"
            try:
                os.rename(path, tomb)
            except OSError:
                return False
            # The owner's heartbeat may have refreshed the claim since
            # the read (or, without the lock, a faster thief may have
            # created a fresh one).  The rename keeps the mtime, so a
            # tomb younger than the TTL is a live claim: put it back
            # and lose.
            try:
                live = time.time() - os.stat(tomb).st_mtime <= self.ttl_s
            except OSError:
                live = False
            _drop_tomb(tomb, restore=path if live else None)
            if live:
                return False
            with self._lock:
                self.stolen += 1
            self._log(
                "stolen", key, {"from": info.owner, "age_s": round(info.age_s, 3)}
            )
            # The slot is open again but not ours yet — a worker creating
            # a fresh claim may have re-created it between our rename and
            # this create.
            return self._create(key)

    @contextlib.contextmanager
    def _steal_lock(self) -> Iterator[None]:
        """Hold an exclusive ``flock`` on the claims dir's steal lock.

        The kernel drops the lock if its holder dies.  Where the lock
        file cannot be opened or locked, thieves steal unserialized and
        the put-back in :meth:`acquire` is their only guard.
        """
        try:
            fd = os.open(self.root / STEAL_LOCK, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass
            yield
        finally:
            os.close(fd)  # releases the lock

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


class ClaimedRunner(ParallelRunner):
    """A :class:`ParallelRunner` that divides grids with other workers.

    ``store`` is required — it is the cache the workers share — and
    ``claims`` is canonically over ``<cache-dir>/claims/``.  Only
    :meth:`submit_point` differs from the parent class, so :meth:`run`,
    the CLI, the experiment functions and the HTTP service all go through
    the claim protocol.

    A worker claims a point only while one of its ``jobs`` compute
    slots is free: :meth:`submit_point` claims a miss on the calling
    thread when a slot is free and queues it otherwise, so a peer can
    take the queued points meanwhile.  One daemon dispatcher thread
    refreshes held claims every TTL/4 (so only a *dead* worker's claims
    ever go stale) and, each cycle,

    * makes one ``stat`` per point claimed elsewhere until that point's
      result lands in the store,
    * retries those claims at TTL-scale cadence while a slot is free
      (their owner released them without a result, or died), and
    * moves queued points onto freed slots.

    A claimed point is re-checked against the store under the claim,
    then computed on the runner's pool.
    """

    def __init__(
        self,
        claims: ClaimBoard,
        jobs: int | None = 1,
        store: ResultStore | None = None,
        poll_interval_s: float = 0.25,
    ) -> None:
        if store is None:
            raise ValueError(
                "claim coordination needs a shared ResultStore: claims divide "
                "the compute, the store shares the results"
            )
        super().__init__(jobs=jobs, store=store)
        self.claims = claims
        self.poll_interval_s = poll_interval_s
        # Claim retries matter only for steal-after-TTL and
        # released-after-failure, so TTL-scale cadence capped at 2 s
        # keeps shared-mount traffic bounded; result polls are one stat.
        self._retry_s = min(2.0, max(poll_interval_s, claims.ttl_s / 8.0))
        self._wake = threading.Condition()
        self._closed = False
        self._free = self.jobs
        #: key -> the point and every future awaiting it
        self._pending: dict[str, tuple[SweepPoint, list[Future]]] = {}
        #: keys waiting for a free slot, unclaimed, oldest first
        self._queued: deque[str] = deque()
        #: keys claimed elsewhere -> when to retry the claim
        self._blocked: dict[str, float] = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="repro-claim-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def claim_key(self, point: SweepPoint) -> str:
        """The claim file name for ``point``: its *store* key.

        The store key includes the fingerprint, so workers running
        different code versions never contend for each other's points.
        """
        return self.store.key_for(point)

    def submit_point(self, point: SweepPoint) -> "Future[PointOutcome]":
        """A future of ``point``'s outcome, computed by *someone*.

        A cache hit resolves at once, and duplicate keys share one
        pending entry.  A miss is claimed and computed here when a slot
        is free — the first worker to ask claims it — and queued
        otherwise.  A point claimed elsewhere resolves when that
        worker's result appears in the shared store, or computes here
        should its claim be released without a result or go stale.
        """
        cached = self.cached_outcome(point)
        if cached is not None:
            return _resolved(cached)
        key = self.claim_key(point)
        future: Future[PointOutcome] = Future()
        with self._wake:
            if self._closed:
                future.set_exception(
                    SweepError(f"claimed runner closed while waiting for {point!r}")
                )
                return future
            if key in self._pending:
                self._pending[key][1].append(future)
                return future
            self._pending[key] = (point, [future])
            slot = self._free > 0
            if slot:
                self._free -= 1
            else:
                self._queued.append(key)
        if slot:
            self._claim(key, point)
        return future

    # ------------------------------------------------------------------
    # slots: claim, compute, settle
    # ------------------------------------------------------------------
    def _claim(self, key: str, point: SweepPoint) -> None:
        """On a reserved slot: claim and compute ``point``, or mark it
        claimed elsewhere and give the slot back."""
        try:
            won = self.claims.acquire(key)
        except OSError as exc:
            self._release_slot()
            self._settle(key, error=SweepError(f"cannot claim {point!r}: {exc}"))
            return
        if not won:
            with self._wake:
                self._blocked[key] = time.monotonic() + self._retry_s
            self._release_slot()
            return
        # ParallelRunner.submit_point re-reads the store before computing:
        # a peer may have finished the point between our miss and claim.
        inner = super().submit_point(point)
        inner.add_done_callback(functools.partial(self._finish, key))

    def _finish(self, key: str, inner: "Future[PointOutcome]") -> None:
        error = inner.exception()
        outcome = inner.result() if error is None else None
        if outcome is not None and not outcome.cached:
            self.claims.note_computed(key)
        # The result is stored before ``inner`` resolves, so the release
        # never exposes a result-less point to the fleet.
        self.claims.release(key)
        self._release_slot()
        self._settle(key, outcome, error)

    def _release_slot(self) -> None:
        with self._wake:
            self._free += 1
            self._wake.notify_all()

    def _settle(
        self,
        key: str,
        outcome: PointOutcome | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Resolve every future awaiting ``key``."""
        with self._wake:
            entry = self._pending.pop(key, None)
            self._blocked.pop(key, None)
        if entry is None:
            return  # close() got there first
        for future in entry[1]:
            if error is None:
                future.set_result(outcome)
            else:
                future.set_exception(error)

    def _landed(self, point: SweepPoint) -> PointOutcome | None:
        """The stored outcome once another worker's result has landed;
        one ``stat`` while it has not (any stat error reads as not yet,
        so the dispatcher thread keeps polling and heartbeating)."""
        if not os.path.exists(self.store.path_for(point)):
            return None
        return self.cached_outcome(point)

    # ------------------------------------------------------------------
    # the dispatcher thread
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        beat_s = max(0.05, self.claims.ttl_s / 4.0)
        next_beat = time.monotonic() + beat_s
        while True:
            now = time.monotonic()
            if now >= next_beat:
                self.claims.heartbeat()
                next_beat = now + beat_s
            with self._wake:
                if self._closed:
                    return
                blocked = [(key, self._pending[key][0]) for key in self._blocked]
            for key, point in blocked:
                landed = self._landed(point)
                if landed is not None:
                    self._settle(key, landed)
            with self._wake:
                # claims due for a retry go first onto the free slots
                due = [key for key, at in self._blocked.items() if at <= now]
                for key in due[: self._free]:
                    del self._blocked[key]
                    self._queued.appendleft(key)
            while (queued := self._next_queued()) is not None:
                key, point = queued
                landed = self._landed(point)
                if landed is None:
                    self._claim(key, point)
                else:
                    self._release_slot()
                    self._settle(key, landed)
            with self._wake:
                if self._closed:
                    return
                if not (self._queued and self._free):
                    timeout = next_beat - time.monotonic()
                    if self._blocked:
                        timeout = min(timeout, self.poll_interval_s)
                    self._wake.wait(max(0.0, timeout))

    def _next_queued(self) -> tuple[str, SweepPoint] | None:
        """Pop the oldest queued key onto a free slot, if there is one."""
        with self._wake:
            if self._closed or not self._queued or not self._free:
                return None
            key = self._queued.popleft()
            self._free -= 1
            return key, self._pending[key][0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the dispatcher, let local computations finish, release
        every held claim, and shut the pool down.

        Points still queued or waiting on another worker resolve with a
        :class:`SweepError` rather than hanging forever.
        """
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        self._dispatcher.join(timeout=5.0)
        with self._wake:
            stranded = [
                (key, self._pending[key][0])
                for key in (*self._queued, *self._blocked)
            ]
            self._queued.clear()
        for key, point in stranded:
            self._settle(
                key,
                error=SweepError(f"claimed runner closed while waiting for {point!r}"),
            )
        super().close()
        self.claims.release_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClaimedRunner(owner={self.claims.owner!r}, jobs={self.jobs})"
