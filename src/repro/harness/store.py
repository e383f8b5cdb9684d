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
:class:`~repro.harness.hot_tier.HotTier`: ``load_entry`` consults
memory first and falls through to the disk (the shared cold tier) only
on a tier miss; writes populate the tier.  Misses are
deliberately **never** cached — the claim protocol polls the store
waiting for entries peer replicas are about to write, and a negative
cache would turn that wait into a livelock.
"""

from __future__ import annotations

import json
import os
import tempfile
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

    def recorded_times(self, kind: str) -> list[tuple[dict[str, Any], float]]:
        """``(params, elapsed_s)`` for every readable entry of ``kind``.

        Deliberately scans across *all* fingerprints: entries written by
        older code versions still carry useful duration signal for
        longest-predicted-first submission, which only needs relative
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

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def entry_counts(self) -> dict[str, int]:
        """Entries on disk per kind directory, across *all* fingerprints.

        Scans the directory on every call, so writes by other processes
        (peer replicas, CLI sweeps) and by other stores over the same
        root (the compiled-trace cache) count as soon as they land.
        """
        counts: dict[str, int] = {}
        if self.root.is_dir():
            for kind_dir in self.root.iterdir():
                if not kind_dir.is_dir():
                    continue
                total = sum(1 for _ in kind_dir.glob("*.json"))
                if total:
                    counts[kind_dir.name] = total
        return counts

    def __len__(self) -> int:
        """Cached entries on disk (across *all* fingerprints)."""
        return sum(self.entry_counts().values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={str(self.root)!r}, entries={len(self)})"
