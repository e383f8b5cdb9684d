"""Durations come from monotonic anchors, never the wall clock.

Regression tests for the uptime/elapsed bug: ``uptime_s`` and job
``elapsed_s`` used to be ``time.time() - started_at``, so an NTP step
(or a manual date change) made uptime jump or go negative.  Wall-clock
times are still *reported* — as timestamps (``started_at``,
``created_at``, ``finished_at``) — but every duration is now the
difference of two ``time.monotonic()`` readings, which these tests pin
by yanking the wall clock around and watching the durations not care.
"""

import time

import pytest

from repro.harness import ParallelRunner
from repro.service.app import ServiceApp
from repro.service.jobs import ComputePool, JobTable, ServiceStats, SweepJob


@pytest.fixture
def wall_clock_jumped_backwards(monkeypatch):
    """After this fixture, time.time() reports an hour in the past."""
    real = time.time()
    monkeypatch.setattr(time, "time", lambda: real - 3600.0)
    return real


def test_service_stats_uptime_survives_wall_clock_step(wall_clock_jumped_backwards):
    stats = ServiceStats()
    stats.started_monotonic -= 42.0  # as if the service started 42s ago
    snapshot = stats.snapshot(in_flight=0, queue_bound=1)
    assert snapshot["uptime_s"] == pytest.approx(42.0, abs=0.5)
    # The wall timestamp is still the (pre-jump) wall reading, reported
    # as a timestamp, not fed into any duration.
    assert snapshot["started_at"] == pytest.approx(wall_clock_jumped_backwards, abs=5)


def test_healthz_uptime_survives_wall_clock_step(wall_clock_jumped_backwards):
    runner = ParallelRunner(jobs=1, store=None)
    try:
        pool = ComputePool(runner)
        app = ServiceApp(pool, JobTable(pool))
        pool.stats.started_monotonic -= 42.0
        payload = app._healthz(None).payload
        assert payload["uptime_s"] == pytest.approx(42.0, abs=0.5)
        assert payload["uptime_s"] > 0
        # /healthz and /statz report from one start clock
        statz = app._statz(None).payload
        assert payload["started_at"] == statz["started_at"]
        assert statz["uptime_s"] == pytest.approx(payload["uptime_s"], abs=0.5)
    finally:
        runner.close()


def test_job_elapsed_uses_monotonic_anchors(wall_clock_jumped_backwards):
    job = SweepJob(id="job-1", kind="svc_probe", points=[])
    job.created_monotonic = 100.0
    job.finished_monotonic = 105.5
    job.finished_at = time.time()  # the jumped wall clock — must not matter
    assert job.elapsed_s == pytest.approx(5.5)
    assert job.status()["elapsed_s"] == 5.5


def test_running_job_elapsed_is_so_far_and_non_negative(wall_clock_jumped_backwards):
    job = SweepJob(id="job-2", kind="svc_probe", points=[])
    job.created_monotonic = time.monotonic() - 3.0
    assert job.finished_monotonic is None
    assert job.elapsed_s == pytest.approx(3.0, abs=0.5)
    assert job.elapsed_s > 0
