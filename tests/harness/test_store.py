"""Tests for the content-addressed result store."""

import errno
import json
import os
import pathlib
import threading

import pytest

from repro.harness import MISS, ResultStore, StoredEntry, SweepPoint


@pytest.fixture
def point():
    return SweepPoint.make("selftest", {"payload": 1, "behavior": "ok"})


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, point):
        store = ResultStore(tmp_path)
        result = {"echo": 1, "nested": {"floats": [0.1, 2.5e-3]}}
        store.store(point, result)
        assert store.load_entry(point).result == result

    def test_missing_point_is_miss_not_none(self, tmp_path, point):
        store = ResultStore(tmp_path)
        assert store.load_entry(point) is MISS
        store.store(point, None)
        assert store.load_entry(point).result is None

    def test_floats_round_trip_bit_for_bit(self, tmp_path, point):
        store = ResultStore(tmp_path)
        values = [0.1 + 0.2, 1 / 3, 1e-300, 6.2831853071795864]
        store.store(point, values)
        loaded = store.load_entry(point).result
        assert all(a == b and repr(a) == repr(b) for a, b in zip(values, loaded))

    def test_overwrite_replaces(self, tmp_path, point):
        store = ResultStore(tmp_path)
        store.store(point, "old")
        store.store(point, "new")
        assert store.load_entry(point).result == "new"
        assert len(store) == 1


class TestPinnedKeys:
    """Store addresses are a compatibility contract: a change to how
    keys are computed (or to the default fingerprint) silently turns
    every existing cache directory into misses.  These keys were
    computed by the release that first wrote such caches."""

    def test_accuracy_point_key(self, tmp_path):
        point = SweepPoint.make(
            "accuracy",
            {
                "app": "em3d",
                "depth": 1,
                "iterations": 40,
                "predictors": ["Cosmos", "MSP", "VMSP"],
            },
        )
        assert ResultStore(tmp_path).key_for(point) == (
            "b72f39419bbd554a14e6e4d5b95f8a1c49e0cba217b7e179d227006075af7d18"
        )

    def test_speculation_point_key(self, tmp_path):
        point = SweepPoint.make(
            "speculation", {"app": "em3d", "iterations": 16, "num_procs": 16}
        )
        assert ResultStore(tmp_path).key_for(point) == (
            "0bd8fc2493f3e08d326c171fbc0ad52f9399bf83f4f74f491d1052118ad2d4b3"
        )

    @pytest.mark.parametrize("kind", ["speculation", "accuracy", "selftest"])
    def test_engine_is_an_ordinary_param(self, tmp_path, kind):
        """No parameter is dropped from a key: a leftover ``engine``
        addresses its own entry, like any parameter no runner reads."""
        store = ResultStore(tmp_path)
        plain = SweepPoint.make(kind, {"app": "em3d"})
        legacy = SweepPoint.make(kind, {"app": "em3d", "engine": "reference"})
        assert store.key_for(legacy) != store.key_for(plain)


class TestInvalidation:
    def test_different_params_different_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        a = SweepPoint.make("selftest", {"payload": 1})
        b = SweepPoint.make("selftest", {"payload": 2})
        store.store(a, "A")
        assert store.load_entry(b) is MISS

    def test_fingerprint_change_invalidates(self, tmp_path, point):
        old = ResultStore(tmp_path, fingerprint={"block_bytes": 32})
        old.store(point, "old-config")
        new = ResultStore(tmp_path, fingerprint={"block_bytes": 64})
        assert new.load_entry(point) is MISS
        # ... without destroying the old configuration's entry.
        assert old.load_entry(point).result == "old-config"

    def test_corrupt_entry_is_a_miss(self, tmp_path, point):
        store = ResultStore(tmp_path)
        path = store.store(point, {"fine": True})
        path.write_text("{ truncated", encoding="utf-8")
        assert store.load_entry(point) is MISS

    def test_non_utf8_entry_is_a_miss(self, tmp_path, point):
        store = ResultStore(tmp_path)
        path = store.store(point, {"fine": True})
        path.write_bytes(b"\xff\xfe garbage \x80")
        assert store.load_entry(point) is MISS


class TestTiming:
    def test_elapsed_round_trips(self, tmp_path, point):
        store = ResultStore(tmp_path)
        store.store(point, {"x": 1}, elapsed_s=0.25)
        entry = store.load_entry(point)
        assert isinstance(entry, StoredEntry)
        assert entry.result == {"x": 1}
        assert entry.elapsed_s == 0.25

    def test_entry_without_timing_still_loads(self, tmp_path, point):
        """A v1 cache (written before timing existed) is not invalidated."""
        store = ResultStore(tmp_path)
        path = store.store(point, "legacy")
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["entry_version"]  # exactly what a v1 file looks like
        assert "elapsed_s" not in entry
        path.write_text(json.dumps(entry), encoding="utf-8")
        loaded = store.load_entry(point)
        assert loaded.result == "legacy"
        assert loaded.elapsed_s is None

    def test_garbage_elapsed_reads_as_absent(self, tmp_path, point):
        store = ResultStore(tmp_path)
        path = store.store(point, "ok", elapsed_s=1.0)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["elapsed_s"] = "not-a-number"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.load_entry(point).elapsed_s is None


class TestConcurrentWriters:
    def test_same_process_threads_never_tear_an_entry(self, tmp_path, point):
        """Temp names are unique per writer, not per pid: a served sweep
        and a CLI sweep (or many service worker threads) can share one
        cache dir without staging-file collisions."""
        store = ResultStore(tmp_path)
        errors = []

        def write(value):
            try:
                for _ in range(25):
                    store.store(point, value, elapsed_s=0.1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # whichever writer won, the entry is intact and parseable:
        assert store.load_entry(point).result in (0, 1, 2, 3)
        # and no staging files were left behind:
        assert not list(tmp_path.glob("selftest/*.tmp"))

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, point):
        store = ResultStore(tmp_path)

        class Boom:
            """json.dump cannot serialize this; the write must clean up."""

        with pytest.raises(TypeError):
            store.store(point, Boom())
        assert store.load_entry(point) is MISS
        assert not list(tmp_path.glob("selftest/*"))


class TestMaintenance:
    def test_layout_is_kind_then_key(self, tmp_path, point):
        store = ResultStore(tmp_path)
        path = store.store(point, 1)
        assert path.parent.name == "selftest"
        assert path.name == f"{store.key_for(point)}.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["params"] == point.as_dict()
        assert entry["result"] == 1

    def test_len_counts_every_entry_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        for payload in range(3):
            store.store(SweepPoint.make("selftest", {"payload": payload}), payload)
        store.store(SweepPoint.make("selftest", {"payload": 0}), 0)  # overwrite
        # other fingerprints and other kinds count too
        ResultStore(tmp_path, fingerprint={"v": 2}).store(
            SweepPoint.make("analytic", {"points": 1}), 1
        )
        assert len(store) == 4

    def test_len_on_missing_root(self, tmp_path):
        assert len(ResultStore(tmp_path / "never-created")) == 0


class TestEntryMeta:
    def test_meta_round_trips(self, tmp_path, point):
        store = ResultStore(tmp_path)
        store.store(point, {"x": 1}, elapsed_s=0.5, meta={"content_hash": "abc"})
        entry = store.load_entry(point)
        assert entry.meta == {"content_hash": "abc"}
        assert entry.elapsed_s == 0.5

    def test_v2_entry_loads_with_absent_meta(self, tmp_path, point):
        """Old caches (entry v2: no meta field) still load."""
        import json

        store = ResultStore(tmp_path)
        path = store.store(point, {"x": 1}, elapsed_s=0.5)
        entry = json.loads(path.read_text())
        entry.pop("meta", None)
        entry["entry_version"] = 2
        path.write_text(json.dumps(entry))
        loaded = store.load_entry(point)
        assert loaded.result == {"x": 1}
        assert loaded.elapsed_s == 0.5
        assert loaded.meta is None

    def test_garbage_meta_reads_as_absent(self, tmp_path, point):
        import json

        store = ResultStore(tmp_path)
        path = store.store(point, "ok", meta={"fine": 1})
        entry = json.loads(path.read_text())
        entry["meta"] = ["not", "a", "dict"]
        path.write_text(json.dumps(entry))
        assert store.load_entry(point).meta is None


class TestRecordedTimes:
    def test_returns_params_and_elapsed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(
            SweepPoint.make("selftest", {"payload": 1, "app": "em3d"}),
            "a",
            elapsed_s=1.5,
        )
        store.store(SweepPoint.make("selftest", {"payload": 2}), "b", elapsed_s=2.5)
        store.store(SweepPoint.make("selftest", {"payload": 3}), "c")  # untimed
        times = store.recorded_times("selftest")
        assert sorted(elapsed for _p, elapsed in times) == [1.5, 2.5]
        apps = {params.get("app") for params, _e in times}
        assert apps == {"em3d", None}

    def test_other_kinds_and_missing_dir_are_empty(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(SweepPoint.make("selftest", {"payload": 1}), "a", elapsed_s=1.0)
        assert store.recorded_times("accuracy") == []
        assert ResultStore(tmp_path / "nope").recorded_times("selftest") == []

    def test_unreadable_entries_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(
            SweepPoint.make("selftest", {"payload": 1}), "a", elapsed_s=1.0
        )
        (path.parent / "junk.json").write_text("{not json")
        assert len(store.recorded_times("selftest")) == 1

    def test_entries_that_fail_to_open_are_skipped(self, tmp_path, monkeypatch):
        """An OSError opening one entry skips it; the rest still count."""
        store = ResultStore(tmp_path)
        store.store(SweepPoint.make("selftest", {"payload": 1}), "a", elapsed_s=1.0)
        denied = store.store(
            SweepPoint.make("selftest", {"payload": 2}), "b", elapsed_s=2.0
        )
        real_open = pathlib.Path.open

        def open_or_deny(self, *args, **kwargs):
            if self == denied:
                raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", open_or_deny)
        assert [e for _p, e in store.recorded_times("selftest")] == [1.0]

    def test_reads_across_fingerprints(self, tmp_path):
        """Stale-fingerprint entries still contribute timing signal."""
        old = ResultStore(tmp_path, fingerprint={"version": "0.0"})
        old.store(SweepPoint.make("selftest", {"payload": 1}), "a", elapsed_s=4.0)
        fresh = ResultStore(tmp_path)
        assert [e for _p, e in fresh.recorded_times("selftest")] == [4.0]
