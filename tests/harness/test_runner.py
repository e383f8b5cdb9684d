"""Tests for sweep execution: serial, parallel, cached, and failing."""

import contextvars
import errno
import os
import pathlib
from concurrent.futures import Future

import pytest

from repro.harness import (
    MISS,
    ParallelRunner,
    PointOutcome,
    ResultStore,
    SweepError,
    SweepPoint,
    SweepSpec,
    register_runner,
    resolve_jobs,
)

ECHO_SPEC = SweepSpec(kind="selftest", axes={"payload": [1, 2, 3, 4, 5]})

#: Set by a test around a submission; read inside the point.
CALLER = contextvars.ContextVar("caller", default=None)

try:
    register_runner("context_probe")(lambda params: {"caller": CALLER.get()})
except ValueError:
    pass  # already registered by an earlier import of this module


def echoes(result):
    return [value["echo"] for value in result.values]


class TestSerialParallelEquivalence:
    def test_same_spec_same_results(self):
        serial = ParallelRunner(jobs=1).run(ECHO_SPEC)
        parallel = ParallelRunner(jobs=3).run(ECHO_SPEC)
        assert echoes(serial) == echoes(parallel) == [1, 2, 3, 4, 5]
        assert serial.points == parallel.points

    def test_parallel_executes_in_worker_processes(self):
        result = ParallelRunner(jobs=3).run(ECHO_SPEC)
        assert os.getpid() not in {value["pid"] for value in result.values}

    def test_runs_share_one_pool(self):
        """A second run() reuses the worker processes of the first."""
        slow = {"sleep_s": 0.05}
        with ParallelRunner(jobs=2) as runner:
            first = runner.run(SweepSpec("selftest", {"payload": [1, 2, 3, 4]}, slow))
            second = runner.run(SweepSpec("selftest", {"payload": [5, 6, 7, 8]}, slow))
        pids = {value["pid"] for value in first.values + second.values}
        assert os.getpid() not in pids
        assert len(pids) <= 2

    def test_accuracy_kind_bit_identical(self):
        spec = SweepSpec(
            kind="accuracy",
            axes={"app": ["em3d", "ocean"], "depth": [1, 2]},
            base={"iterations": 4},
        )
        serial = ParallelRunner(jobs=1).run(spec)
        parallel = ParallelRunner(jobs=2).run(spec)
        assert serial.values == parallel.values

    def test_duplicate_points_executed_once(self):
        points = SweepPoint.make("selftest", {"payload": 7}), SweepPoint.make(
            "selftest", {"payload": 7}
        )
        result = ParallelRunner(jobs=1).run(list(points))
        assert result.report.executed == 1
        assert len(result) == 2
        assert result.values[0] == result.values[1]


class TestCaching:
    def test_second_run_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        first = ParallelRunner(jobs=2, store=store).run(ECHO_SPEC)
        second = ParallelRunner(jobs=2, store=store).run(ECHO_SPEC)
        assert first.report.executed == 5 and first.report.cached == 0
        assert second.report.executed == 0 and second.report.cached == 5
        assert second.values == first.values

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        point = SweepPoint.make("selftest", {"payload": 1})
        store.store(point, {"echo": "stale", "pid": -1})
        result = ParallelRunner(store=store, refresh=True).run([point])
        assert result.report.executed == 1
        assert store.load(point)["echo"] == 1

    def test_partial_cache_runs_only_missing_points(self, tmp_path):
        store = ResultStore(tmp_path)
        ParallelRunner(store=store).run(ECHO_SPEC.points()[:2])
        result = ParallelRunner(store=store).run(ECHO_SPEC)
        assert result.report.cached == 2
        assert result.report.executed == 3
        assert echoes(result) == [1, 2, 3, 4, 5]

    def test_unreadable_entry_is_a_miss_and_recomputed(self, tmp_path, monkeypatch):
        """EIO reading an entry degrades to a miss, then a recompute."""
        store = ResultStore(tmp_path)
        point = SweepPoint.make("selftest", {"payload": 1})
        store.store(point, {"echo": 1, "pid": -1}, elapsed_s=1.0)

        def fail(self):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(pathlib.Path, "read_bytes", fail)
        assert store.load_entry(point) is MISS
        result = ParallelRunner(store=store).run([point])
        assert result.report.executed == 1 and result.report.cached == 0
        assert result.values[0]["echo"] == 1 and result.values[0]["pid"] != -1

    @pytest.mark.parametrize(
        "target, name, code",
        [(os, "replace", errno.ENOSPC), (pathlib.Path, "mkdir", errno.EROFS)],
        ids=["replace-ENOSPC", "mkdir-EROFS"],
    )
    def test_full_or_read_only_cache_keeps_computed_values(
        self, tmp_path, monkeypatch, target, name, code
    ):
        """A store write that fails degrades to a recompute next time,
        never to a failed sweep or a staging file left behind."""
        points = ECHO_SPEC.points()[:2]
        uncached = ParallelRunner().run(points)

        def fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(target, name, fail)
        store = ResultStore(tmp_path)
        result = ParallelRunner(store=store).run(points)
        assert result.values == uncached.values
        assert result.report.executed == 2
        assert not list(tmp_path.rglob("*.tmp"))
        assert len(store) == 0


class TestFailures:
    def test_worker_crash_surfaces_as_error_not_hang(self):
        spec = SweepSpec(
            kind="selftest", axes={"payload": [1, 2]}, base={"behavior": "crash"}
        )
        with pytest.raises(SweepError, match="worker process died"):
            ParallelRunner(jobs=2).run(spec)

    def test_point_exception_names_the_point_serial(self):
        spec = SweepSpec(
            kind="selftest", axes={"payload": [9]}, base={"behavior": "error"}
        )
        with pytest.raises(SweepError, match="payload=9"):
            ParallelRunner(jobs=1).run(spec)

    def test_point_exception_names_the_point_parallel(self):
        spec = SweepSpec(
            kind="selftest", axes={"payload": [8, 9]}, base={"behavior": "error"}
        )
        with pytest.raises(SweepError, match="sweep point failed"):
            ParallelRunner(jobs=2).run(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SweepError, match="unknown runner kind"):
            ParallelRunner().run([SweepPoint.make("no-such-kind", {})])

    def test_failed_points_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = SweepSpec(
            kind="selftest", axes={"payload": [1]}, base={"behavior": "error"}
        )
        with pytest.raises(SweepError):
            ParallelRunner(store=store).run(spec)
        assert len(store) == 0


class TestPerPointTiming:
    def test_report_and_store_carry_point_times(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ParallelRunner(store=store)
        result = runner.run(ECHO_SPEC)
        report = result.report
        assert report.executed == 5
        assert report.executed_seconds >= 0.0
        assert report.max_point_seconds <= report.executed_seconds + 1e-9
        for point in ECHO_SPEC.points():
            assert store.load_entry(point).elapsed_s is not None

    def test_cached_run_reports_saved_seconds(self, tmp_path):
        store = ResultStore(tmp_path)
        point = SweepPoint.make("selftest", {"payload": 1})
        store.store(point, {"echo": 1, "pid": 0}, elapsed_s=2.0)
        result = ParallelRunner(store=store).run([point])
        assert result.report.cached == 1
        assert result.report.saved_seconds == 2.0
        assert "cache saved ~2.0s" in result.report.timing_summary()

    def test_timing_summary_empty_when_nothing_ran(self):
        runner = ParallelRunner()
        result = runner.run([])
        assert result.report.timing_summary() == ""


class TestIncrementalSubmission:
    def test_submit_point_matches_batch_and_caches(self, tmp_path):
        store = ResultStore(tmp_path)
        with ParallelRunner(store=store) as runner:
            point = SweepPoint.make("selftest", {"payload": 42})
            outcome = runner.submit_point(point).result(timeout=30)
            assert not outcome.cached
            assert outcome.value["echo"] == 42
            assert outcome.elapsed_s is not None
            # the store was written, so a second submit is an instant hit
            # that never touches the pool again:
            hit = runner.submit_point(point).result(timeout=1)
            assert hit.cached
            assert hit.value == outcome.value
        batch = ParallelRunner(store=ResultStore(tmp_path)).run([point])
        assert batch.report.cached == 1
        assert batch.values[0] == outcome.value

    def test_cache_hit_never_starts_the_pool(self, tmp_path):
        store = ResultStore(tmp_path)
        point = SweepPoint.make("selftest", {"payload": 3})
        store.store(point, {"echo": 3, "pid": 0}, elapsed_s=0.5)
        with ParallelRunner(store=store) as runner:
            outcome = runner.submit_point(point).result(timeout=1)
            assert outcome.cached and outcome.elapsed_s == 0.5
            assert not runner.pool_started

    def test_submit_point_failure_is_sweep_error(self):
        with ParallelRunner() as runner:
            point = SweepPoint.make(
                "selftest", {"payload": 9, "behavior": "error"}
            )
            future = runner.submit_point(point)
            with pytest.raises(SweepError, match="payload=9"):
                future.result(timeout=30)

    def test_point_sees_the_callers_context(self):
        """On the thread pool a point runs in a copy of the submitter's
        context, as asyncio.to_thread does."""
        token = CALLER.set("submitter")
        try:
            with ParallelRunner() as runner:
                point = SweepPoint.make("context_probe", {})
                outcome = runner.submit_point(point).result(timeout=30)
        finally:
            CALLER.reset(token)
        assert outcome.value == {"caller": "submitter"}

    def test_parallel_jobs_submit_runs_in_worker_process(self, tmp_path):
        with ParallelRunner(jobs=2, store=ResultStore(tmp_path)) as runner:
            point = SweepPoint.make("selftest", {"payload": 11})
            outcome = runner.submit_point(point).result(timeout=60)
            assert outcome.value["echo"] == 11
            assert outcome.value["pid"] != os.getpid()

    def test_worker_crash_breaks_one_point_not_the_pool(self, tmp_path):
        """A crashed worker errors that submission; the pool is rebuilt
        and the next submission succeeds (long-lived service posture)."""
        with ParallelRunner(jobs=2, store=ResultStore(tmp_path)) as runner:
            crash = SweepPoint.make(
                "selftest", {"payload": 1, "behavior": "crash"}
            )
            with pytest.raises(SweepError):
                runner.submit_point(crash).result(timeout=60)
            healthy = SweepPoint.make("selftest", {"payload": 2})
            outcome = runner.submit_point(healthy).result(timeout=60)
            assert outcome.value["echo"] == 2
            # the crash was not cached; the success was.
            assert runner.store.load_entry(crash) is MISS
            assert runner.cached_outcome(healthy) is not None

    def test_cancelled_submission_resolves_not_hangs(self):
        """close() cancels queued work; waiters must get an error, not
        block forever."""
        from concurrent.futures import Future

        class FakeExecutor:
            def submit(self, fn, *args):
                self.inner = Future()
                return self.inner

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        runner = ParallelRunner()
        fake = FakeExecutor()
        runner._pool = fake
        outer = runner.submit_point(SweepPoint.make("selftest", {"payload": 1}))
        fake.inner.cancel()
        with pytest.raises(SweepError, match="cancelled"):
            outer.result(timeout=5)

    def test_close_is_idempotent_and_reopens(self):
        runner = ParallelRunner()
        runner.close()  # never started: no-op
        point = SweepPoint.make("selftest", {"payload": 1})
        assert runner.submit_point(point).result(timeout=30).value["echo"] == 1
        runner.close()
        # a new submission after close() lazily builds a fresh pool.
        assert runner.submit_point(point).result(timeout=30).value["echo"] == 1
        runner.close()


class TestJobs:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1  # all cores
        with pytest.raises(ValueError):
            resolve_jobs(-2)


def submission_order(runner, points):
    """The points ``runner.run`` submits, in submission order (each
    resolves at once, so nothing is computed)."""
    order = []

    def record(point):
        order.append(point)
        done = Future()
        done.set_result(PointOutcome(value=None, elapsed_s=0.0, cached=False))
        return done

    runner.submit_point = record
    runner.run(points)
    return order


class TestStragglerPacking:
    """Submission order by predicted duration (recorded wall times)."""

    def _points(self, apps, reps=1):
        return [
            SweepPoint.make("selftest", {"payload": f"{app}-{i}", "app": app})
            for i in range(reps)
            for app in apps
        ]

    def test_no_store_submits_in_grid_order(self):
        points = ECHO_SPEC.points()
        assert submission_order(ParallelRunner(jobs=2), points) == points

    def test_longest_predicted_submitted_first(self, tmp_path):
        """An app recorded as slow is submitted before the fast one."""
        store = ResultStore(tmp_path)
        # history: 'ocean' points took 4s, 'em3d' points 1s
        for i, (app, elapsed) in enumerate(
            [("ocean", 4.0), ("ocean", 4.0), ("em3d", 1.0), ("em3d", 1.0)]
        ):
            store.store(
                SweepPoint.make("selftest", {"payload": f"old-{i}", "app": app}),
                {"echo": i},
                elapsed_s=elapsed,
            )
        runner = ParallelRunner(jobs=2, store=store)
        pending = self._points(["em3d", "ocean"], reps=4)
        durations = runner.predicted_durations(pending)
        by_app = {p["app"]: d for p, d in zip(pending, durations)}
        assert by_app == {"ocean": 4.0, "em3d": 1.0}
        order = submission_order(runner, pending)
        # longest first, ties in grid order
        assert order == pending[1::2] + pending[0::2]

    def test_point_recorded_time_wins_under_refresh(self, tmp_path):
        store = ResultStore(tmp_path)
        point = SweepPoint.make("selftest", {"payload": 1, "app": "em3d"})
        store.store(point, {"echo": 1}, elapsed_s=9.0)
        runner = ParallelRunner(jobs=2, store=store, refresh=True)
        assert runner.predicted_durations([point]) == [9.0]

    def test_kind_mean_fallback_without_app_match(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(
            SweepPoint.make("selftest", {"payload": "x"}), {"echo": 0}, elapsed_s=3.0
        )
        runner = ParallelRunner(jobs=2, store=store)
        fresh = [SweepPoint.make("selftest", {"payload": "y", "app": "novel"})]
        assert runner.predicted_durations(fresh) == [3.0]

    def test_submission_order_is_deterministic(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(6):
            store.store(
                SweepPoint.make("selftest", {"payload": f"o{i}", "app": f"a{i % 3}"}),
                {"echo": i},
                elapsed_s=float(i + 1),
            )
        pending = self._points([f"a{i}" for i in range(3)], reps=5)
        first = submission_order(ParallelRunner(jobs=3, store=store), pending)
        second = submission_order(ParallelRunner(jobs=3, store=store), pending)
        assert first == second
        assert [p["app"] for p in first] == ["a2"] * 5 + ["a1"] * 5 + ["a0"] * 5

    def test_packed_parallel_run_preserves_grid_order(self, tmp_path):
        """Submission order reorders execution, never results."""
        store = ResultStore(tmp_path)
        # seed uneven history so submission deviates from grid order
        for app, elapsed in [("slow", 8.0), ("fast", 1.0)]:
            store.store(
                SweepPoint.make("selftest", {"payload": "seed", "app": app}),
                {"echo": 0},
                elapsed_s=elapsed,
            )
        spec = SweepSpec(
            kind="selftest",
            axes={"payload": list(range(8)), "app": ["slow", "fast"]},
        )
        packed = ParallelRunner(jobs=2, store=store).run(spec)
        serial = ParallelRunner(jobs=1).run(spec)
        assert packed.points == serial.points
        assert echoes(packed) == echoes(serial)
