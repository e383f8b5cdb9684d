"""Tests for the coalescing compute pool and the sweep job table."""

import asyncio

import pytest

from repro.harness import (
    ClaimBoard,
    ClaimedRunner,
    ParallelRunner,
    ResultStore,
    SweepError,
    SweepPoint,
)
from repro.service.jobs import ComputePool, JobTable, PointTimeout, PoolSaturated

from tests.service.conftest import CALLS, gate


def probe_point(**params):
    return SweepPoint.make("svc_probe", params)


async def settle(condition, timeout=5.0):
    """Await until ``condition()`` is true (polling the loop)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def make_pool(tmp_path, **kwargs):
    runner = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "cache"))
    return ComputePool(runner, **kwargs), runner


class TestCacheFastPath:
    def test_hit_never_invokes_a_runner(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            point = probe_point(payload=5)
            runner.store.store(point, {"echo": 5, "name": "default"}, elapsed_s=1.5)
            outcome = await pool.fetch(point)
            assert outcome.cached
            assert outcome.value == {"echo": 5, "name": "default"}
            assert outcome.elapsed_s == 1.5
            # the compute pool never came into existence, let alone ran:
            assert CALLS["default"] == 0
            assert not runner.pool_started
            assert pool.stats.report.cached == 1
            assert pool.stats.report.executed == 0
            assert pool.stats.report.saved_seconds == 1.5
            runner.close()

        asyncio.run(scenario())

    def test_miss_computes_then_second_fetch_hits(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            point = probe_point(payload=7)
            first = await pool.fetch(point)
            assert not first.cached and first.value["echo"] == 7
            second = await pool.fetch(point)
            assert second.cached and second.value == first.value
            assert CALLS["default"] == 1
            runner.close()

        asyncio.run(scenario())

    def test_service_result_bit_identical_to_cli_batch(self, tmp_path):
        """The service path and the CLI's batch path share cache entries."""

        async def scenario():
            pool, runner = make_pool(tmp_path)
            point = SweepPoint.make("analytic", {"panel": "accuracy", "points": 3})
            outcome = await pool.fetch(point)
            runner.close()
            return outcome

        served = asyncio.run(scenario())
        assert not served.cached

        # A CLI-style batch runner over the same cache dir: zero
        # executions, and the value is bit-for-bit what the service had.
        batch = ParallelRunner(store=ResultStore(tmp_path / "cache"))
        result = batch.run([SweepPoint.make("analytic", {"panel": "accuracy", "points": 3})])
        assert batch.last_report.executed == 0
        assert batch.last_report.cached == 1
        assert result.values[0] == served.value


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            point = probe_point(payload=1, gate="slow")
            fetches = [asyncio.create_task(pool.fetch(point)) for _ in range(5)]
            await settle(lambda: pool.in_flight == 1)
            gate("slow").set()
            outcomes = await asyncio.gather(*fetches)
            assert [o.value["echo"] for o in outcomes] == [1] * 5
            assert CALLS["default"] == 1  # exactly one computation
            assert pool.stats.coalesced == 4
            assert pool.stats.report.executed == 1
            runner.close()

        asyncio.run(scenario())

    def test_distinct_points_do_not_coalesce(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            outcomes = await asyncio.gather(
                pool.fetch(probe_point(payload=1)),
                pool.fetch(probe_point(payload=2)),
            )
            assert {o.value["echo"] for o in outcomes} == {1, 2}
            assert CALLS["default"] == 2
            assert pool.stats.coalesced == 0
            runner.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_saturated_pool_rejects_new_computations(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path, max_pending=1)
            blocked = asyncio.create_task(
                pool.fetch(probe_point(payload=1, gate="full"))
            )
            await settle(lambda: pool.in_flight == 1)
            with pytest.raises(PoolSaturated):
                await pool.fetch(probe_point(payload=2))
            assert pool.stats.rejected == 1
            # coalescing with the in-flight point is still allowed...
            coalesced = asyncio.create_task(
                pool.fetch(probe_point(payload=1, gate="full"))
            )
            await asyncio.sleep(0.02)
            gate("full").set()
            assert (await blocked).value["echo"] == 1
            assert (await coalesced).value["echo"] == 1
            # ...and once drained, new computations are accepted again.
            assert (await pool.fetch(probe_point(payload=3))).value["echo"] == 3
            runner.close()

        asyncio.run(scenario())

    def test_cache_hits_served_even_when_saturated(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path, max_pending=1)
            hit_point = probe_point(payload=9)
            runner.store.store(hit_point, {"echo": 9, "name": "default"})
            blocked = asyncio.create_task(
                pool.fetch(probe_point(payload=1, gate="full2"))
            )
            await settle(lambda: pool.in_flight == 1)
            outcome = await pool.fetch(hit_point)  # no 429: it's a hit
            assert outcome.cached
            gate("full2").set()
            await blocked
            runner.close()

        asyncio.run(scenario())


class TestTimeouts:
    def test_timeout_raises_but_computation_lands_in_cache(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path, timeout_s=0.05)
            point = probe_point(payload=1, gate="slow")
            with pytest.raises(PointTimeout):
                await pool.fetch(point)
            assert pool.stats.timeouts == 1
            gate("slow").set()
            await settle(lambda: pool.in_flight == 0)
            outcome = await pool.fetch(point)  # retry picks up the result
            assert outcome.cached
            assert CALLS["default"] == 1
            runner.close()

        asyncio.run(scenario())

    def test_per_request_timeout_override(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path, timeout_s=None)
            point = probe_point(payload=2, gate="slow")
            with pytest.raises(PointTimeout):
                await pool.fetch(point, timeout_s=0.05)
            gate("slow").set()
            await settle(lambda: pool.in_flight == 0)
            runner.close()

        asyncio.run(scenario())


class TestFailures:
    def test_runner_error_propagates_to_all_waiters(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            point = probe_point(payload=1, fail=True, gate="err")
            fetches = [asyncio.create_task(pool.fetch(point)) for _ in range(3)]
            await settle(lambda: pool.in_flight == 1)
            gate("err").set()
            results = await asyncio.gather(*fetches, return_exceptions=True)
            assert all(isinstance(r, SweepError) for r in results)
            assert pool.stats.errors == 1
            # failures are not cached: a retry recomputes.
            assert runner.cached_outcome(point) is None
            runner.close()

        asyncio.run(scenario())


class TestJobTable:
    def test_sweep_job_runs_to_completion_in_order(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            table = JobTable(pool, concurrency=2)
            points = [probe_point(payload=i) for i in (3, 1, 2)]
            job = table.submit("svc_probe", points)
            await settle(lambda: job.state != "running")
            assert job.state == "done"
            status = job.status(include_results=True)
            assert status["done"] == 3 and status["total"] == 3
            assert [p["result"]["echo"] for p in status["points"]] == [3, 1, 2]
            runner.close()

        asyncio.run(scenario())

    def test_job_points_share_the_cache(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            await pool.fetch(probe_point(payload=1))
            table = JobTable(pool)
            job = table.submit(
                "svc_probe", [probe_point(payload=1), probe_point(payload=2)]
            )
            await settle(lambda: job.state != "running")
            assert job.state == "done"
            assert job.cached == 1  # payload=1 came from the store
            assert CALLS["default"] == 2  # 1 interactive + 1 job point
            runner.close()

        asyncio.run(scenario())

    def test_failing_point_fails_the_job(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            table = JobTable(pool)
            job = table.submit(
                "svc_probe",
                [probe_point(payload=1), probe_point(payload=2, fail=True)],
            )
            await settle(lambda: job.state != "running")
            assert job.state == "failed"
            assert "probe failure" in job.error
            runner.close()

        asyncio.run(scenario())

    def test_unknown_job_is_none_and_table_bounded(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            table = JobTable(pool, max_jobs=2)
            assert table.get("job-nope") is None
            first = table.submit("svc_probe", [probe_point(payload=1)])
            second = table.submit("svc_probe", [probe_point(payload=2)])
            await settle(lambda: first.state != "running" and second.state != "running")
            # a third submission evicts the oldest finished job.
            third = table.submit("svc_probe", [probe_point(payload=3)])
            await settle(lambda: third.state != "running")
            assert table.get(first.id) is None
            assert table.get(third.id) is not None
            runner.close()

        asyncio.run(scenario())


class TestJobSubmissionOrder:
    def test_stragglers_submitted_first(self, tmp_path):
        """Background jobs use the same predicted-duration signal as
        batch submission: recorded-slow points start first."""
        store = ResultStore(tmp_path / "cache")
        for i, (app, elapsed) in enumerate(
            [("slow", 5.0), ("slow", 5.0), ("fast", 0.1), ("fast", 0.1)]
        ):
            store.store(
                SweepPoint.make("svc_probe", {"payload": f"old-{i}", "app": app}),
                {"echo": i},
                elapsed_s=elapsed,
            )
        runner = ParallelRunner(jobs=1, store=store)
        table = JobTable(ComputePool(runner))
        points = [
            probe_point(payload=1, app="fast"),
            probe_point(payload=2, app="slow"),
            probe_point(payload=3, app="fast"),
            probe_point(payload=4, app="slow"),
        ]
        assert table._submission_order(points) == [1, 3, 0, 2]

    def test_no_timing_signal_preserves_grid_order(self, tmp_path):
        runner = ParallelRunner(jobs=1)  # no store: every weight equal
        table = JobTable(ComputePool(runner))
        points = [probe_point(payload=i) for i in range(4)]
        assert table._submission_order(points) == [0, 1, 2, 3]

    def test_results_stay_in_grid_order_despite_reordering(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "cache")
            store.store(
                SweepPoint.make("svc_probe", {"payload": "old", "app": "slow"}),
                {"echo": 0},
                elapsed_s=5.0,
            )
            runner = ParallelRunner(jobs=1, store=store)
            pool = ComputePool(runner)
            table = JobTable(pool, concurrency=1)
            points = [
                probe_point(payload=1, app="fast"),
                probe_point(payload=2, app="slow"),
            ]
            job = table.submit("svc_probe", points)
            await settle(lambda: job.state != "running")
            assert job.state == "done"
            status = job.status(include_results=True)
            assert [p["result"]["echo"] for p in status["points"]] == [1, 2]
            runner.close()

        asyncio.run(scenario())


class TestClaimedReplicas:
    """Two service replicas sharing one cache dir divide the compute."""

    def make_replica(self, tmp_path, name):
        return ClaimedRunner(
            ClaimBoard(tmp_path / "cache" / "claims", owner=name, ttl_s=30.0),
            jobs=1,
            store=ResultStore(tmp_path / "cache"),
            poll_interval_s=0.02,
        )

    def test_same_point_computed_once_across_replicas(self, tmp_path):
        first = self.make_replica(tmp_path, "replica-1")
        second = self.make_replica(tmp_path, "replica-2")
        try:
            point = probe_point(payload=1, gate="replica")
            blocked = first.submit_miss(point)  # claims, starts computing
            waiting = second.submit_miss(point)  # claim held: waits
            assert not waiting.done()
            gate("replica").set()
            one = blocked.result(timeout=30)
            two = waiting.result(timeout=30)
            assert one.value == two.value
            assert not one.cached and two.cached  # replica-2 read the store
            assert CALLS["default"] == 1  # exactly one computation
            assert second.claims.stats()["computed"] == 0
        finally:
            first.close()
            second.close()

    def test_job_grid_split_across_replica_pools(self, tmp_path):
        """The same sweep job submitted to two replicas' job tables:
        every point computed exactly once across the pair."""

        async def scenario():
            first = self.make_replica(tmp_path, "replica-1")
            second = self.make_replica(tmp_path, "replica-2")
            try:
                points = [probe_point(payload=i) for i in range(6)]
                pool_one = ComputePool(first)
                pool_two = ComputePool(second)
                table_one = JobTable(pool_one, concurrency=2)
                table_two = JobTable(pool_two, concurrency=2)
                job_one = table_one.submit("svc_probe", points)
                job_two = table_two.submit("svc_probe", points)
                await settle(
                    lambda: job_one.state != "running"
                    and job_two.state != "running",
                    timeout=30,
                )
                assert job_one.state == "done" and job_two.state == "done"
                assert [r["echo"] for r in job_one.results] == list(range(6))
                assert job_one.results == job_two.results
                assert CALLS["default"] == 6  # nothing computed twice
                stats_one = first.claims.stats()
                stats_two = second.claims.stats()
                assert stats_one["computed"] + stats_two["computed"] == 6
                # /statz accounting matches the claim split: a point the
                # peer computed counts as a (waited-on) hit, not a local
                # compute — each replica's computes equal its own claims.
                for pool, stats in ((pool_one, stats_one), (pool_two, stats_two)):
                    assert pool.stats.report.executed == stats["computed"]
                    assert pool.stats.report.total == 6
                    assert len(pool.stats.hit_latencies_ms) == pool.stats.report.cached
            finally:
                first.close()
                second.close()

        asyncio.run(scenario())


class TestJobEviction:
    def test_finished_jobs_survive_while_under_capacity(self, tmp_path):
        """Regression: a new submission must not evict finished jobs
        while the table is still under max_jobs (the overflow slice
        used to go negative and delete almost all of them)."""

        async def scenario():
            pool, runner = make_pool(tmp_path)
            table = JobTable(pool, max_jobs=64)
            jobs = [
                table.submit("svc_probe", [probe_point(payload=i)])
                for i in range(10)
            ]
            await settle(lambda: all(j.state == "done" for j in jobs))
            one_more = table.submit("svc_probe", [probe_point(payload=99)])
            await settle(lambda: one_more.state == "done")
            for job in jobs:
                assert table.get(job.id) is job  # nothing was evicted
            runner.close()

        asyncio.run(scenario())

    def test_eviction_kicks_in_at_capacity(self, tmp_path):
        async def scenario():
            pool, runner = make_pool(tmp_path)
            table = JobTable(pool, max_jobs=3)
            jobs = [
                table.submit("svc_probe", [probe_point(payload=i)])
                for i in range(3)
            ]
            await settle(lambda: all(j.state == "done" for j in jobs))
            extra = table.submit("svc_probe", [probe_point(payload=3)])
            await settle(lambda: extra.state == "done")
            # the oldest finished job made room; the rest remain
            assert table.get(jobs[0].id) is None
            assert table.get(jobs[1].id) is jobs[1]
            assert table.get(extra.id) is extra
            runner.close()

        asyncio.run(scenario())
