"""Compiled-trace caching: addressing, hit/miss accounting, metadata."""

import base64
import errno
import json
import os
import pathlib

import numpy as np
import pytest

from repro.harness import SweepPoint
from repro.harness.store import MISS
from repro.trace import (
    CompiledTrace,
    compile_app_trace,
    configure_trace_cache,
    snapshot_counters,
    trace_point,
    trace_store,
)
from repro.trace import cache as trace_cache


@pytest.fixture
def cache_dir(tmp_path):
    directory = tmp_path / "cache"
    configure_trace_cache(directory)
    return directory


COLUMNS = ("kinds", "nodes", "blocks")


def _drop_column(payload):
    del payload["kinds"]


def _short_column(payload):
    """Cut 5 codes from ``kinds``, so the columns disagree in length."""
    trace = CompiledTrace.from_payload(payload)
    columns = {name: getattr(trace, name) for name in COLUMNS}
    columns["kinds"] = columns["kinds"][:-5]
    short = CompiledTrace.from_columns(num_nodes=trace.num_nodes, **columns)
    payload.update(short.as_payload())


def _partial_item(payload):
    """Cut one byte from ``nodes``, leaving a partial 4-byte item."""
    raw = base64.b64decode(payload["nodes"])
    payload["nodes"] = base64.b64encode(raw[:-1]).decode("ascii")


def _zero_nodes(payload):
    payload["num_nodes"] = 0


def _counters_delta(fn):
    before = snapshot_counters()
    result = fn()
    after = snapshot_counters()
    return result, (after[0] - before[0], after[1] - before[1])


class TestConfiguration:
    def test_disabled_by_default_in_tests(self):
        configure_trace_cache(None)
        assert trace_store() is None

    def test_uncached_compile_counts_nothing(self):
        configure_trace_cache(None)
        _trace, delta = _counters_delta(
            lambda: compile_app_trace("em3d", num_procs=8, iterations=3)
        )
        assert delta == (0, 0)


class TestCacheBehavior:
    def test_miss_then_hit_bit_identical(self, cache_dir):
        kwargs = dict(num_procs=8, iterations=3)
        first, delta_first = _counters_delta(
            lambda: compile_app_trace("em3d", **kwargs)
        )
        assert delta_first == (0, 1)
        second, delta_second = _counters_delta(
            lambda: compile_app_trace("em3d", **kwargs)
        )
        assert delta_second == (1, 0)
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(first, column), getattr(second, column)
            )
        assert first.content_hash() == second.content_hash()

    def test_entry_records_content_hash(self, cache_dir, monkeypatch):
        encodes = []
        as_payload = CompiledTrace.as_payload

        def counting(self):
            encodes.append(self)
            return as_payload(self)

        monkeypatch.setattr(CompiledTrace, "as_payload", counting)
        trace = compile_app_trace("ocean", num_procs=8, iterations=3)
        # A miss encodes its columns once, for the entry and its hash.
        assert len(encodes) == 1
        point = trace_point("ocean", 8, 3, 1999, 7)
        entry = trace_store().load_entry(point)
        assert entry is not MISS
        assert entry.meta["content_hash"] == trace.content_hash()
        assert entry.meta["messages"] == len(trace)
        assert entry.meta["blocks"] == trace.block_count()
        assert entry.elapsed_s is not None

    def test_default_iterations_resolved_before_keying(self, cache_dir):
        """iterations=None and the app's explicit default share a key."""
        from repro.apps.registry import make_app

        default = make_app("em3d", num_procs=8).iterations
        compile_app_trace("em3d", num_procs=8, iterations=None)
        _trace, delta = _counters_delta(
            lambda: compile_app_trace("em3d", num_procs=8, iterations=default)
        )
        assert delta == (1, 0)

    def test_different_params_different_entries(self, cache_dir):
        compile_app_trace("em3d", num_procs=8, iterations=3)
        _trace, delta = _counters_delta(
            lambda: compile_app_trace("em3d", num_procs=8, iterations=4)
        )
        assert delta == (0, 1)

    @pytest.mark.parametrize(
        "corrupt",
        [_drop_column, _short_column, _partial_item, _zero_nodes],
        ids=["missing-column", "short-column", "partial-item", "zero-nodes"],
    )
    def test_corrupt_payload_degrades_to_recompile(self, cache_dir, corrupt):
        good = compile_app_trace("em3d", num_procs=8, iterations=3)
        point = trace_point("em3d", 8, 3, 1999, 7)
        path = trace_store().path_for(point)
        entry = json.loads(path.read_text())
        corrupt(entry["result"])
        path.write_text(json.dumps(entry))
        trace, delta = _counters_delta(
            lambda: compile_app_trace("em3d", num_procs=8, iterations=3)
        )
        assert delta == (0, 1)  # unreadable payload is a miss
        assert trace.content_hash() == good.content_hash()

    def test_trace_kind_is_not_a_runner_kind(self):
        """Traces are storage-only: no runner, so never servable."""
        from repro.harness import runner_kinds

        assert trace_cache.TRACE_KIND not in runner_kinds()

    def test_trace_point_is_a_plain_sweep_point(self):
        point = trace_point("em3d", 16, 10, 1999, 7)
        assert isinstance(point, SweepPoint)
        assert point.kind == trace_cache.TRACE_KIND
        assert point["app"] == "em3d"


class TestWriteFaults:
    """A full or read-only cache degrades to recompiles, never to an
    error, a wrong trace, or a staging file left behind."""

    KWARGS = dict(num_procs=8, iterations=3)

    def _assert_degrades(self, cache_dir):
        configure_trace_cache(None)
        uncached = compile_app_trace("em3d", **self.KWARGS)
        configure_trace_cache(cache_dir)
        for _attempt in range(2):  # nothing was stored: both calls miss
            trace, delta = _counters_delta(
                lambda: compile_app_trace("em3d", **self.KWARGS)
            )
            assert delta == (0, 1)
            assert trace.content_hash() == uncached.content_hash()
            for column in COLUMNS:
                np.testing.assert_array_equal(
                    getattr(trace, column), getattr(uncached, column)
                )
        assert not list(cache_dir.glob("trace/*.tmp"))
        assert not list(cache_dir.glob("trace/.*.tmp"))
        assert not list(cache_dir.glob("trace/*.json"))

    def test_replace_enospc(self, cache_dir, monkeypatch):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))

        monkeypatch.setattr(os, "replace", full_disk)
        self._assert_degrades(cache_dir)

    def test_mkdir_erofs(self, cache_dir, monkeypatch):
        def read_only(self, *args, **kwargs):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(self))

        monkeypatch.setattr(pathlib.Path, "mkdir", read_only)
        self._assert_degrades(cache_dir)


class TestAccuracyPipelineIntegration:
    def test_run_predictors_shares_one_trace(self, cache_dir):
        from repro.eval.accuracy import run_predictors

        _runs, delta = _counters_delta(
            lambda: run_predictors("em3d", num_procs=8, iterations=3)
        )
        assert delta == (0, 1)  # one compile feeds all three predictors
        _runs, delta = _counters_delta(
            lambda: run_predictors("em3d", num_procs=8, iterations=3, depth=2)
        )
        assert delta == (1, 0)  # a different depth reuses the same trace

    def test_point_metrics_carry_trace_events(self, cache_dir):
        from repro.harness import execute_point_instrumented

        params = {"app": "em3d", "num_procs": 8, "iterations": 3}
        outcome = execute_point_instrumented("accuracy", params)
        assert not outcome.cached and outcome.elapsed_s > 0
        assert (outcome.trace_hits, outcome.trace_misses) == (0, 1)
        outcome = execute_point_instrumented("accuracy", params)
        assert (outcome.trace_hits, outcome.trace_misses) == (1, 0)

    def test_runner_stores_trace_provenance(self, cache_dir, tmp_path):
        from repro.harness import ParallelRunner, ResultStore, SweepSpec

        store = ResultStore(tmp_path / "points")
        spec = SweepSpec(
            kind="accuracy",
            axes={"app": ["em3d"]},
            base={"num_procs": 8, "iterations": 3},
        )
        runner = ParallelRunner(store=store)
        result = runner.run(spec)
        assert result.report.trace_misses == 1
        entry = store.load_entry(spec.points()[0])
        assert entry.meta == {"trace_cache": {"hits": 0, "misses": 1}}
        assert "trace cache 0h/1m" in result.report.timing_summary()

    def test_forked_workers_inherit_the_setting(self, cache_dir, tmp_path):
        """The setting is a module global: a forked worker process
        (``jobs=2``) compiles into the configured cache."""
        from repro.harness import ParallelRunner, ResultStore

        point = SweepPoint.make(
            "accuracy", {"app": "em3d", "num_procs": 4, "iterations": 2}
        )
        with ParallelRunner(jobs=2, store=ResultStore(tmp_path / "points")) as runner:
            outcome = runner.submit_miss(point).result(timeout=60)
        assert outcome.trace_misses == 1
        assert len(list((cache_dir / "trace").glob("*.json"))) == 1


class TestStorageFormat:
    def test_trace_entries_are_compact_json(self, cache_dir):
        compile_app_trace("em3d", num_procs=8, iterations=3)
        point = trace_point("em3d", 8, 3, 1999, 7)
        text = trace_store().path_for(point).read_text()
        # compact form: one line, no indentation padding
        assert "\n" not in text.strip()
