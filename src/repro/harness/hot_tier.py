"""In-process LRU hot tier in front of the on-disk :class:`ResultStore`.

The store's entries are content-addressed and immutable — the same key
always names the same result bits — so a served point pays filesystem
I/O (open + read + JSON parse) on *every* hit purely for data that
cannot have changed.  The hot tier keeps recently touched
:class:`~repro.harness.store.StoredEntry` objects in memory: the first
load of a key reads the disk (the shared cold tier), every later load
is a dictionary lookup, and writes populate the tier directly so a
point computed by this process never touches the disk again to be
served.

Bounds and coherence:

* the tier is bounded in **both** entry count and (approximate) bytes —
  the size charged per entry is the length of its on-disk JSON, so the
  byte bound tracks what a cache admin actually reasons about;
* eviction is strict LRU (loads and stores refresh recency), counted in
  ``evictions``;
* entries larger than the byte bound are never admitted (they would
  evict everything else for one oversized result);
* correctness never depends on invalidation, because the cold tier is
  content-addressed: a stale hot entry can only differ in *metadata*
  (e.g. a ``--refresh`` writer re-recording ``elapsed_s``), never in the
  result bits.  Deployments that care anyway can construct the tier
  with ``validate=True``: each hit then re-stats the backing file and
  drops the entry when its ``(mtime_ns, size)`` stamp changed — one
  ``stat`` per hit instead of a full read + parse, and writer
  *processes* (peer replicas, CLI ``--refresh`` runs) are observed
  within one request.

Thread safety: the tier is touched from an event loop, the runner
pool's completion callbacks, and batch sweep threads concurrently; all
state is guarded by one lock (every operation is a dict touch, so the
lock is never held across I/O except the optional validate ``stat``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # import cycle: store.py constructs tiers
    from repro.harness.store import StoredEntry

#: Default bounds: plenty for every grid the paper ships (a few hundred
#: points at a few KB each) while capping a pathological deployment.
DEFAULT_HOT_ENTRIES = 1024
DEFAULT_HOT_BYTES = 64 * 1024 * 1024


@dataclass(slots=True)
class _Slot:
    """One resident entry: the value, its charge, and its disk stamp."""

    entry: "StoredEntry"
    nbytes: int
    #: ``(st_mtime_ns, st_size)`` of the backing file at admission time,
    #: or None when the tier does not validate (a validating tier admits
    #: no entry whose file it cannot stat).
    stamp: tuple[int, int] | None


class HotTier:
    """A bounded, counted, thread-safe LRU of :class:`StoredEntry`."""

    def __init__(
        self,
        max_entries: int = DEFAULT_HOT_ENTRIES,
        max_bytes: int = DEFAULT_HOT_BYTES,
        validate: bool = False,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.validate = validate
        self._lock = threading.Lock()
        self._slots: OrderedDict[str, _Slot] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries dropped because their backing file changed or vanished
        #: (validate mode).
        self.invalidations = 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @staticmethod
    def _stat_stamp(path: Path) -> tuple[int, int] | None:
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size)

    def get(self, key: str, path: Path) -> "StoredEntry | None":
        """The resident entry for ``key``, or None (a tier miss).

        A hit refreshes LRU recency and is returned with ``hot=True`` so
        callers can tell a memory hit from a disk read.  In validate
        mode a hit whose backing file stamp changed — or whose file
        vanished — is dropped and reported as a miss, so the next load
        re-reads the cold tier.
        """
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                self.misses += 1
                return None
            if self.validate:
                # stat outside the lock would race a concurrent put;
                # a local stat is ~1µs, far cheaper than read + parse.
                if self._stat_stamp(path) != slot.stamp:
                    self._drop(key)
                    self.invalidations += 1
                    self.misses += 1
                    return None
            self._slots.move_to_end(key)
            self.hits += 1
            return replace(slot.entry, hot=True)

    def put(self, key: str, entry: "StoredEntry", nbytes: int, path: Path) -> None:
        """Admit (or refresh) ``key``; evicts LRU entries past the bounds."""
        if nbytes > self.max_bytes:
            return
        stamp = self._stat_stamp(path) if self.validate else None
        if self.validate and stamp is None:
            return  # nothing to validate hits against: never admit
        with self._lock:
            if key in self._slots:
                self._drop(key)
            self._slots[key] = _Slot(
                entry=replace(entry, hot=False), nbytes=nbytes, stamp=stamp
            )
            self._bytes += nbytes
            while len(self._slots) > self.max_entries or self._bytes > self.max_bytes:
                evicted, slot = self._slots.popitem(last=False)
                self._bytes -= slot.nbytes
                self.evictions += 1

    def _drop(self, key: str) -> None:
        """Remove ``key`` unconditionally; caller holds the lock."""
        slot = self._slots.pop(key)
        self._bytes -= slot.nbytes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict[str, Any]:
        """The ``hot_tier`` section of ``/statz`` (and ``/metrics``)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._slots),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "validate": self.validate,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hits / total, 4) if total else None,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HotTier(entries={len(self)}/{self.max_entries}, "
            f"bytes={self.bytes}/{self.max_bytes})"
        )
