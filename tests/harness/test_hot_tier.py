"""Hot-tier unit tests and store⇄tier coherence."""

import errno
import json
import multiprocessing
import os

import pytest

from repro.harness import MISS, HotTier, ResultStore, StoredEntry, SweepPoint


def entry(tag):
    return StoredEntry(result={"tag": tag}, elapsed_s=0.5)


def fill(tier, names, nbytes=10, path=None):
    for name in names:
        tier.put(name, entry(name), nbytes, path)


class TestLRUSemantics:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            HotTier(max_entries=0)
        with pytest.raises(ValueError):
            HotTier(max_bytes=0)

    def test_get_returns_hot_copy_and_counts(self, tmp_path):
        tier = HotTier()
        tier.put("a", entry("a"), 10, tmp_path / "a.json")
        loaded = tier.get("a", tmp_path / "a.json")
        assert loaded.result == {"tag": "a"} and loaded.hot is True
        assert tier.get("b", tmp_path / "b.json") is None
        assert tier.hits == 1 and tier.misses == 1

    def test_eviction_is_lru_order(self, tmp_path):
        tier = HotTier(max_entries=3)
        fill(tier, ["a", "b", "c"])
        # touch "a" so "b" becomes least recently used
        assert tier.get("a", tmp_path / "x") is not None
        tier.put("d", entry("d"), 10, None)
        assert tier.keys() == ["c", "a", "d"]
        assert tier.evictions == 1
        assert tier.get("b", tmp_path / "x") is None

    def test_put_refreshes_recency(self):
        tier = HotTier(max_entries=2)
        fill(tier, ["a", "b"])
        tier.put("a", entry("a2"), 10, None)  # overwrite refreshes
        tier.put("c", entry("c"), 10, None)
        assert tier.keys() == ["a", "c"]

    def test_byte_bound_evicts(self):
        tier = HotTier(max_entries=100, max_bytes=30)
        fill(tier, ["a", "b", "c"])  # 30 bytes: exactly at the bound
        assert len(tier) == 3 and tier.bytes == 30
        tier.put("d", entry("d"), 10, None)
        assert len(tier) == 3 and tier.bytes == 30
        assert tier.keys() == ["b", "c", "d"]

    def test_oversized_entry_never_admitted(self):
        tier = HotTier(max_entries=10, max_bytes=100)
        fill(tier, ["a", "b"])
        tier.put("huge", entry("huge"), 101, None)
        # nothing evicted for an entry that could never fit
        assert tier.keys() == ["a", "b"] and tier.evictions == 0

    def test_invalidate_and_clear_count(self):
        tier = HotTier()
        fill(tier, ["a", "b", "c"])
        tier.invalidate("a")
        tier.invalidate("nope")  # no-op, not counted
        assert tier.invalidations == 1 and len(tier) == 2
        tier.clear()
        assert len(tier) == 0 and tier.bytes == 0
        assert tier.invalidations == 3

    def test_stats_shape(self, tmp_path):
        tier = HotTier(max_entries=5, max_bytes=50, validate=True)
        stats = tier.stats()
        assert stats["hit_rate"] is None
        (tmp_path / "a.json").write_text("{}")  # validated entries need a file
        tier.put("a", entry("a"), 10, tmp_path / "a.json")
        tier.get("a", tmp_path / "a.json")
        tier.get("b", tmp_path / "b.json")
        stats = tier.stats()
        assert stats == {
            "entries": 1,
            "bytes": 10,
            "max_entries": 5,
            "max_bytes": 50,
            "validate": True,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
            "hit_rate": 0.5,
        }


class TestStoreCoherence:
    def point(self, n=1):
        return SweepPoint.make("analytic", {"panel": "accuracy", "points": n})

    def test_store_populates_tier_and_serves_from_memory(self, tmp_path):
        tier = HotTier()
        store = ResultStore(tmp_path, hot_tier=tier)
        path = store.store(self.point(), {"series": [1, 2]}, elapsed_s=0.1)
        # remove the backing file: only the hot tier can serve it now
        path.unlink()
        loaded = store.load_entry(self.point())
        assert loaded is not MISS
        assert loaded.result == {"series": [1, 2]} and loaded.hot is True

    def test_disk_load_populates_tier(self, tmp_path):
        plain = ResultStore(tmp_path)
        plain.store(self.point(), {"series": [3]})
        tier = HotTier()
        store = ResultStore(tmp_path, hot_tier=tier)
        first = store.load_entry(self.point())
        assert first.hot is False and tier.misses == 1
        second = store.load_entry(self.point())
        assert second.hot is True and tier.hits == 1
        assert second.result == first.result

    def test_discard_invalidates(self, tmp_path):
        tier = HotTier()
        store = ResultStore(tmp_path, hot_tier=tier)
        store.store(self.point(), {"series": []})
        store.discard(self.point())
        assert store.load_entry(self.point()) is MISS
        assert tier.invalidations == 1

    def test_misses_are_never_cached(self, tmp_path):
        """The claim protocol polls for peer writes; a negative cache
        would make that poll spin forever."""
        tier = HotTier()
        store = ResultStore(tmp_path, hot_tier=tier)
        assert store.load_entry(self.point()) is MISS
        # a peer (here: a second store on the same dir) writes the entry
        ResultStore(tmp_path).store(self.point(), {"series": [9]})
        loaded = store.load_entry(self.point())
        assert loaded is not MISS and loaded.result == {"series": [9]}

    def test_validate_mode_observes_writer_process(self, tmp_path):
        """A writer *process* overwriting an entry is detected by the
        stat-stamp check within one load, without a full re-read on
        every hit."""
        tier = HotTier(validate=True)
        store = ResultStore(tmp_path, hot_tier=tier)
        store.store(self.point(), {"series": [1]})
        assert store.load_entry(self.point()).result == {"series": [1]}

        process = multiprocessing.Process(
            target=_overwrite_entry, args=(str(tmp_path),)
        )
        process.start()
        process.join()
        assert process.exitcode == 0

        loaded = store.load_entry(self.point())
        assert loaded.result == {"series": [1, 2, 3, 4, 5]}
        assert tier.invalidations == 1

    def test_validate_mode_never_admits_an_unstamped_entry(
        self, tmp_path, monkeypatch
    ):
        """A validating tier that cannot stat an entry's file at
        admission must not keep it: it could never check it again."""
        tier = HotTier(validate=True)
        store = ResultStore(tmp_path, hot_tier=tier)
        target = store.path_for(self.point())
        real_stat = os.stat

        def flaky_stat(path, *args, **kwargs):
            if os.fspath(path) == os.fspath(target):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", flaky_stat)
        store.store(self.point(), {"series": [1]})
        monkeypatch.undo()
        assert len(tier) == 0
        target.unlink()
        assert store.load_entry(self.point()) is MISS

    def test_validate_mode_drops_vanished_file(self, tmp_path):
        tier = HotTier(validate=True)
        store = ResultStore(tmp_path, hot_tier=tier)
        path = store.store(self.point(), {"series": [1]})
        path.unlink()
        assert store.load_entry(self.point()) is MISS
        assert tier.invalidations == 1


class TestEntryCounts:
    def point(self, n):
        return SweepPoint.make("analytic", {"panel": "accuracy", "points": n})

    def test_lazy_scan_then_incremental(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(self.point(1), {})
        assert store.entry_counts() == {"analytic": 1}
        store.store(self.point(2), {})
        store.store(self.point(2), {})  # overwrite: not a fresh file
        assert store.entry_counts() == {"analytic": 2}
        store.discard(self.point(1))
        assert store.entry_counts() == {"analytic": 1}
        assert len(store) == 1  # the real directory agrees

    def test_rescan_picks_up_foreign_writes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(self.point(1), {})
        assert store.entry_counts() == {"analytic": 1}
        ResultStore(tmp_path).store(self.point(2), {})
        # without max_age_s the foreign write stays invisible...
        assert store.entry_counts() == {"analytic": 1}
        # ...and a zero-age rescan sees it
        assert store.entry_counts(max_age_s=0.0) == {"analytic": 2}

    def test_clear_zeroes_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(self.point(1), {})
        assert store.entry_counts() == {"analytic": 1}
        store.clear()
        assert store.entry_counts() == {}


def _overwrite_entry(root):
    """Writer-process helper: overwrite the point with a larger result."""
    store = ResultStore(root)
    point = SweepPoint.make("analytic", {"panel": "accuracy", "points": 1})
    store.store(point, {"series": [1, 2, 3, 4, 5]})


class TestEntryJson:
    def test_point_entries_stay_human_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(
            SweepPoint.make("analytic", {"panel": "accuracy", "points": 1}),
            {"series": [1]},
        )
        text = path.read_text()
        assert text.count("\n") > 1  # indented, not one long line
        assert json.loads(text)["result"] == {"series": [1]}
