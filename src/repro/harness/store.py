"""Content-addressed, on-disk cache of sweep-point results.

Layout: one JSON file per point under ``<root>/<kind>/<key>.json``,
where ``key`` is the SHA-256 of the point's canonical parameters plus
the store's *fingerprint* — a dict of code-relevant configuration (at
minimum the result schema version, typically also the package version).
Changing the fingerprint invalidates every cached entry without
touching the files; re-running a figure with an unchanged fingerprint
reuses every point it already computed.

Entries carry a small amount of metadata beyond the result itself —
currently the wall-clock seconds the point took to compute
(``elapsed_s``), the first half of straggler-aware scheduling.  The
entry format is versioned separately from the fingerprint
(``ENTRY_VERSION``): adding a metadata field bumps the entry version
but *not* the fingerprint, so caches written before the field existed
still load (their metadata just reads as absent).

Writes are atomic (unique temp file + ``os.replace``), so a crashed or
concurrent writer — another process *or* another thread of this one,
e.g. a running ``repro serve`` sharing a cache dir with a CLI sweep —
never leaves a truncated entry behind; unreadable entries are treated
as misses and overwritten.

A store can be fronted by an in-process
:class:`~repro.harness.hot_tier.HotTier`: ``load_entry``/``load``
consult memory first and fall through to the disk (the shared cold
tier) only on a tier miss; writes populate the tier; ``discard`` and
``clear`` invalidate it.  Misses are deliberately **never** cached —
the claim protocol polls the store waiting for entries peer replicas
are about to write, and a negative cache would turn that wait into a
livelock.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.canonical import canonical_hash
from repro.harness.hot_tier import HotTier
from repro.harness.spec import SweepPoint

#: Bump when a runner's result schema changes shape or meaning; every
#: previously cached point then misses.
SCHEMA_VERSION = 1

#: Version of the entry *file* format (metadata fields around the
#: result).  Bumping this does NOT invalidate caches — readers accept
#: any version and treat missing metadata as absent.
#: v1: kind/params/fingerprint/result.  v2: + elapsed_s.
#: v3: + meta (free-form JSON object: compiled-trace content hashes,
#: per-point trace-cache provenance).
ENTRY_VERSION = 3

#: Sentinel distinguishing "no cached result" from a cached ``None``.
MISS = object()

@dataclass(frozen=True, slots=True)
class StoredEntry:
    """A cached result plus its per-point metadata."""

    result: Any
    #: Wall-clock seconds the original computation took, or ``None``
    #: for entries written before timing was recorded (entry v1).
    elapsed_s: float | None = None
    #: Free-form JSON metadata (entry v3): e.g. a compiled trace's
    #: content hash, or which trace-cache events a point's computation
    #: observed.  ``None`` on entries written before v3.
    meta: dict[str, Any] | None = None
    #: True when this load was served from the in-process hot tier
    #: instead of the disk (never persisted; set per load).
    hot: bool = False


class ResultStore:
    """A content-addressed JSON store keyed by sweep point + fingerprint."""

    def __init__(
        self,
        root: str | os.PathLike,
        fingerprint: Mapping[str, Any] | None = None,
        compact: bool = False,
        hot_tier: HotTier | None = None,
    ) -> None:
        from repro import __version__

        self.root = Path(root)
        #: Write entries without indentation.  Point results are small
        #: and stay human-readable (indent=1); bulk entries (compiled
        #: traces: tens of thousands of ints per column) would pay one
        #: line per array element on every write and parse.
        self.compact = compact
        #: Optional in-process LRU fronting the disk: loads consult it
        #: first, writes populate it (see :mod:`repro.harness.hot_tier`).
        self.hot_tier = hot_tier
        self.fingerprint: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
        }
        if fingerprint:
            self.fingerprint.update(fingerprint)
        #: Incrementally maintained per-kind entry counts (None until
        #: the first :meth:`entry_counts` call scans the directory).
        self._counts: dict[str, int] | None = None
        self._counts_scanned_at: float | None = None
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key_for(self, point: SweepPoint) -> str:
        return canonical_hash(
            {
                "kind": point.kind,
                "params": point.as_dict(),
                "fingerprint": self.fingerprint,
            }
        )

    def path_for(self, point: SweepPoint) -> Path:
        return self.root / point.kind / f"{self.key_for(point)}.json"

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def load_entry(self, point: SweepPoint) -> Any:
        """The cached :class:`StoredEntry` for ``point``, or :data:`MISS`.

        With a hot tier attached the memory copy is consulted first; a
        tier miss falls through to the disk read and, when it parses,
        populates the tier.  Misses are never cached (see module doc).
        """
        path = self.path_for(point)
        tier_key = None
        if self.hot_tier is not None:
            tier_key = f"{point.kind}/{path.stem}"
            resident = self.hot_tier.get(tier_key, path)
            if resident is not None:
                return resident
        try:
            raw = path.read_bytes()
            entry = json.loads(raw)
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError:
            # any unreadable entry is a miss, to be recomputed.
            return MISS
        if not isinstance(entry, dict) or "result" not in entry:
            return MISS
        elapsed = entry.get("elapsed_s")
        if not isinstance(elapsed, (int, float)):
            elapsed = None
        meta = entry.get("meta")
        if not isinstance(meta, dict):
            meta = None
        loaded = StoredEntry(result=entry["result"], elapsed_s=elapsed, meta=meta)
        if self.hot_tier is not None and tier_key is not None:
            self.hot_tier.put(tier_key, loaded, len(raw), path)
        return loaded

    def load(self, point: SweepPoint) -> Any:
        """The cached result for ``point``, or :data:`MISS`."""
        entry = self.load_entry(point)
        return entry if entry is MISS else entry.result

    def recorded_times(self, kind: str) -> list[tuple[dict[str, Any], float]]:
        """``(params, elapsed_s)`` for every readable entry of ``kind``.

        Deliberately scans across *all* fingerprints: entries written by
        older code versions still carry useful duration signal for
        straggler-aware chunk packing, which only needs relative
        magnitudes, not result compatibility.
        """
        directory = self.root / kind
        if not directory.is_dir():
            return []
        out: list[tuple[dict[str, Any], float]] = []
        for path in sorted(directory.glob("*.json")):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(entry, dict):
                continue
            elapsed = entry.get("elapsed_s")
            params = entry.get("params")
            if isinstance(elapsed, (int, float)) and isinstance(params, dict):
                out.append((params, float(elapsed)))
        return out

    def store(
        self,
        point: SweepPoint,
        result: Any,
        elapsed_s: float | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> Path:
        """Atomically persist one point's result; returns its path.

        The temp file gets a name unique per writer (``mkstemp``), so
        concurrent writers — other processes or other threads of this
        one — cannot collide on the staging file; the final rename is
        atomic either way.
        """
        path = self.path_for(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "entry_version": ENTRY_VERSION,
            "kind": point.kind,
            "params": point.as_dict(),
            "fingerprint": self.fingerprint,
            "result": result,
        }
        if elapsed_s is not None:
            entry["elapsed_s"] = elapsed_s
        if meta is not None:
            entry["meta"] = dict(meta)
        if self.compact:
            body = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        else:
            body = json.dumps(entry, sort_keys=True, indent=1)
        # One stat before the atomic replace keeps the incremental
        # per-kind entry counts exact without ever rescanning; skipped
        # entirely until the first entry_counts() call asks for them.
        fresh_file = self._counts is not None and not path.exists()
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if fresh_file:
            with self._counts_lock:
                if self._counts is not None:
                    self._counts[point.kind] = self._counts.get(point.kind, 0) + 1
        if self.hot_tier is not None:
            self.hot_tier.put(
                f"{point.kind}/{path.stem}",
                StoredEntry(
                    result=result,
                    elapsed_s=elapsed_s,
                    meta=dict(meta) if meta is not None else None,
                ),
                len(body),
                path,
            )
        return path

    def discard(self, point: SweepPoint) -> None:
        path = self.path_for(point)
        if self.hot_tier is not None:
            self.hot_tier.invalidate(f"{point.kind}/{path.stem}")
        try:
            path.unlink()
        except FileNotFoundError:
            return
        with self._counts_lock:
            if self._counts is not None and self._counts.get(point.kind, 0) > 0:
                self._counts[point.kind] -= 1

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        """Cached entries on disk (across *all* fingerprints)."""
        return len(self._entries())

    def entry_counts(self, max_age_s: float | None = None) -> dict[str, int]:
        """Per-kind entry counts without a scan on the serving path.

        The directory is scanned **once** (lazily, on the first call);
        afterwards this process's own writes and discards keep the
        counts exact incrementally, so ``/statz`` and ``/metrics`` never
        pay an ``os.scandir`` per poll however large the cache grows.
        Entries written by *other* processes (peer replicas, concurrent
        CLI sweeps) are only picked up by a rescan — pass ``max_age_s``
        to bound that staleness when the cache dir is shared.
        """
        now = time.monotonic()
        with self._counts_lock:
            stale = (
                self._counts is None
                or (
                    max_age_s is not None
                    and self._counts_scanned_at is not None
                    and now - self._counts_scanned_at > max_age_s
                )
            )
            if not stale:
                assert self._counts is not None
                return dict(self._counts)
        counts: dict[str, int] = {}
        if self.root.is_dir():
            for kind_dir in self.root.iterdir():
                if not kind_dir.is_dir():
                    continue
                total = sum(1 for p in kind_dir.glob("*.json"))
                if total:
                    counts[kind_dir.name] = total
        with self._counts_lock:
            self._counts = counts
            self._counts_scanned_at = now
            return dict(self._counts)

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            path.unlink()
        if self.hot_tier is not None:
            self.hot_tier.clear()
        with self._counts_lock:
            if self._counts is not None:
                self._counts = {}
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={str(self.root)!r}, entries={len(self)})"
