"""Tests for the filesystem claim protocol and the claimed runner.

The contract under test: N workers pointed at one shared cache dir
divide a grid between them — every point computed exactly once, results
bit-identical to a serial run — and a crashed worker's claims are
reclaimed after the TTL while a live worker's heartbeat protects its
claims indefinitely.
"""

import errno
import fcntl
import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.harness import (
    MISS,
    ClaimBoard,
    ClaimedRunner,
    HotTier,
    ParallelRunner,
    ResultStore,
    SweepError,
    SweepPoint,
    SweepSpec,
    open_runner,
)
from repro.trace.cache import configure_trace_cache, configured_trace_dir

ECHO_SPEC = SweepSpec(kind="selftest", axes={"payload": [1, 2, 3, 4, 5]})


def backdate(board: ClaimBoard, key: str, seconds: float) -> None:
    """Age a claim's heartbeat by ``seconds`` (simulates a dead owner)."""
    path = board.path_for(key)
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestClaimBoard:
    def test_acquire_creates_claim_file_with_owner(self, tmp_path):
        board = ClaimBoard(tmp_path, owner="w1")
        assert board.acquire("k1")
        payload = json.loads(board.path_for("k1").read_text())
        assert payload["owner"] == "w1"
        assert payload["pid"] == os.getpid()
        assert board.holds("k1") and board.held == 1

    def test_fresh_claim_blocks_other_owners(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        assert not second.acquire("k1")
        info = second.read("k1")
        assert info.owner == "w1" and info.age_s < 5.0

    def test_release_frees_the_claim(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        first.release("k1")
        assert not board_file_exists(first, "k1")
        assert second.acquire("k1")
        assert first.stats()["released"] == 1

    def test_release_of_unheld_key_is_a_noop(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        second.release("k1")  # not second's to release
        assert board_file_exists(first, "k1")
        assert second.stats()["released"] == 0

    def test_stale_claim_is_stolen_after_ttl(self, tmp_path):
        dead = ClaimBoard(tmp_path, owner="crashed", ttl_s=10.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=10.0)
        assert thief.acquire("k1")
        assert thief.stats()["stolen"] == 1
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"

    def test_heartbeat_prevents_takeover(self, tmp_path):
        live = ClaimBoard(tmp_path, owner="live", ttl_s=30.0)
        assert live.acquire("k1")
        backdate(live, "k1", seconds=300.0)  # would be stealable...
        live.heartbeat()  # ...but the owner is alive and refreshes it
        other = ClaimBoard(tmp_path, owner="other", ttl_s=30.0)
        assert not other.acquire("k1")
        assert other.stats()["stolen"] == 0

    def test_owner_detects_a_stolen_claim_on_heartbeat(self, tmp_path):
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=5.0)
        assert slow.acquire("k1")
        backdate(slow, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=5.0)
        assert thief.acquire("k1")
        slow.heartbeat()  # must not refresh the thief's claim
        assert not slow.holds("k1")
        assert slow.stats()["lost"] == 1
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"

    def test_release_restores_claim_stolen_mid_release(self, tmp_path, monkeypatch):
        """The release TOCTOU: a steal landing between release's
        ownership read and the file removal must not delete the thief's
        fresh claim — release verifies what it renamed aside and puts a
        foreign claim back."""
        from repro.harness import ClaimInfo

        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=5.0)
        assert slow.acquire("k1")
        backdate(slow, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=5.0)
        assert thief.acquire("k1")
        # freeze the pre-removal read at "still ours" to land in the window
        monkeypatch.setattr(
            slow,
            "read",
            lambda key: ClaimInfo(
                owner="slow", pid=0, host="h", claimed_at=0.0, age_s=0.0
            ),
        )
        slow.release("k1")
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"
        assert slow.stats()["lost"] == 1
        assert slow.stats()["released"] == 0

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="TTL"):
            ClaimBoard(tmp_path, ttl_s=0)

    def test_events_log_records_transitions(self, tmp_path):
        board = ClaimBoard(tmp_path, owner="w1")
        board.acquire("k1")
        board.note_computed("k1")
        board.release("k1")
        events = [(e["event"], e["owner"]) for e in board.events()]
        assert events == [("claimed", "w1"), ("computed", "w1"), ("released", "w1")]

    def test_torn_claim_file_reads_as_fresh_not_stealable(self, tmp_path):
        """A claim seen between O_CREAT and its payload write must never
        be stolen just for being unparsable."""
        board = ClaimBoard(tmp_path, owner="w1", ttl_s=10.0)
        board.path_for("k1").write_text("")  # simulate the torn window
        info = board.read("k1")
        assert info is not None and info.owner is None and info.age_s < 5.0
        other = ClaimBoard(tmp_path, owner="w2", ttl_s=10.0)
        assert not other.acquire("k1")


class TestClaimBoardFaults:
    """The ``except OSError`` fallbacks, each driven by an injected fault."""

    def test_read_only_audit_log_keeps_claims_working(self, tmp_path, monkeypatch):
        board = ClaimBoard(tmp_path, owner="w1")
        real_open = os.open

        def no_log(path, *args, **kwargs):
            if os.fspath(path) == os.fspath(board.log_path):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_log)
        assert board.acquire("k1") and board.holds("k1")
        board.note_computed("k1")
        board.release("k1")
        assert not board.holds("k1") and not board_file_exists(board, "k1")
        assert not board.log_path.exists() and board.events() == []
        assert board.stats()["claimed"] == board.stats()["released"] == 1

    def test_failing_heartbeat_utime_is_ignored(self, tmp_path, monkeypatch):
        board = ClaimBoard(tmp_path, owner="w1")
        assert board.acquire("k1")

        def fail(*args, **kwargs):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS))

        monkeypatch.setattr(os, "utime", fail)
        board.heartbeat()
        assert board.holds("k1") and board.stats()["lost"] == 0

    def test_steals_unserialized_without_file_locks(self, tmp_path, monkeypatch):
        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=10.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=10.0)
        assert thief.acquire("k1")
        assert thief.stats()["stolen"] == 1


def board_file_exists(board: ClaimBoard, key: str) -> bool:
    return board.path_for(key).exists()


def _race_for_claim(root, key, barrier, queue):
    board = ClaimBoard(root, owner=f"racer-{os.getpid()}")
    barrier.wait()
    queue.put(board.acquire(key))


class TestClaimRaces:
    def test_o_creat_excl_race_has_exactly_one_winner(self, tmp_path):
        """Multiple *processes* releasing a barrier into acquire() on one
        key: the kernel's O_CREAT|O_EXCL picks exactly one winner."""
        ctx = multiprocessing.get_context("fork")
        racers = 4
        barrier = ctx.Barrier(racers)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_for_claim,
                args=(str(tmp_path), "contested", barrier, queue),
            )
            for _ in range(racers)
        ]
        for proc in procs:
            proc.start()
        wins = [queue.get(timeout=30) for _ in range(racers)]
        for proc in procs:
            proc.join(timeout=30)
        assert sum(wins) == 1

    def test_threaded_steal_race_single_thief(self, tmp_path):
        """Many threads racing to steal one stale claim: the rename
        tombstone admits exactly one."""
        # The 60s backdate makes the original claim stale under the 30s
        # TTL, and the winner's fresh claim stays live for the whole
        # race.  A thief delayed between its staleness read and its
        # rename finds that fresh claim and puts it back (see
        # test_late_thief_puts_back_the_fresh_claim), so exactly one
        # thread wins however the threads are scheduled.
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=30.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        boards = [
            ClaimBoard(tmp_path, owner=f"thief-{i}", ttl_s=30.0) for i in range(6)
        ]
        barrier = threading.Barrier(len(boards))
        wins = []

        def steal(board):
            barrier.wait()
            wins.append(board.acquire("k1"))

        threads = [threading.Thread(target=steal, args=(b,)) for b in boards]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sum(wins) == 1

    def test_late_thief_puts_back_the_fresh_claim(self, tmp_path, monkeypatch):
        """A thief delayed between its staleness read and its rename
        must not move aside the fresh claim a faster thief created in
        between: it puts that claim back and loses."""
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=30.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=30.0)
        fast = ClaimBoard(tmp_path, owner="fast", ttl_s=30.0)
        real_read = slow.read
        fast_wins = []

        def read_then_stall(key):
            info = real_read(key)  # first read: the stale claim of "dead"
            if not fast_wins:
                fast_wins.append(fast.acquire(key))
            return info
        monkeypatch.setattr(slow, "read", read_then_stall)
        assert not slow.acquire("k1")
        assert fast_wins == [True]
        assert json.loads(fast.path_for("k1").read_text())["owner"] == "fast"
        assert fast.holds("k1") and not slow.holds("k1")
        assert fast.stats()["stolen"] + slow.stats()["stolen"] == 1
        assert not list(tmp_path.glob(".tomb-*"))

    def test_third_worker_cannot_slip_into_a_late_thiefs_put_back(
        self, tmp_path, monkeypatch
    ):
        """A late thief re-reads the claim under the steal lock, so it
        never moves the faster thief's fresh claim aside, and a third
        worker cannot create a claim in the emptied path."""
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=30.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=30.0)
        fast = ClaimBoard(tmp_path, owner="fast", ttl_s=30.0)
        third = ClaimBoard(tmp_path, owner="third", ttl_s=30.0)
        real_read, real_link = slow.read, os.link
        third_wins = []

        def read_then_stall(key):
            info = real_read(key)
            if not fast.holds(key):
                assert fast.acquire(key)  # steals while slow stalls
            return info

        def link_after_third(source, target):
            # the third worker's create lands inside the put-back window
            third_wins.append(third.acquire("k1"))
            return real_link(source, target)

        monkeypatch.setattr(slow, "read", read_then_stall)
        monkeypatch.setattr(os, "link", link_after_third)
        assert not slow.acquire("k1")
        assert third_wins == []  # slow never renamed fast's claim
        assert json.loads(fast.path_for("k1").read_text())["owner"] == "fast"
        assert fast.holds("k1") and not third.holds("k1")

    def test_heartbeat_after_the_locked_read_is_put_back(self, tmp_path, monkeypatch):
        """An owner's heartbeat landing between a thief's locked re-read
        and its rename: the thief moved a live claim aside, so it puts
        the claim back and loses."""
        owner = ClaimBoard(tmp_path, owner="owner", ttl_s=30.0)
        assert owner.acquire("k1")
        backdate(owner, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=30.0)
        real_read = thief.read
        reads = []

        def read_then_heartbeat(key):
            reads.append(real_read(key))
            if len(reads) == 2:  # the re-read under the steal lock
                owner.heartbeat()
            return reads[-1]

        monkeypatch.setattr(thief, "read", read_then_heartbeat)
        assert not thief.acquire("k1")
        assert len(reads) == 2
        assert json.loads(owner.path_for("k1").read_text())["owner"] == "owner"
        assert owner.holds("k1") and not thief.holds("k1")
        assert thief.stats()["stolen"] == 0
        assert not list(tmp_path.glob(".tomb-*"))


class TestClaimedRunner:
    def make(self, tmp_path, owner="w1", ttl_s=30.0, jobs=1):
        return ClaimedRunner(
            ClaimBoard(tmp_path / "cache" / "claims", owner=owner, ttl_s=ttl_s),
            jobs=jobs,
            store=ResultStore(tmp_path / "cache"),
            poll_interval_s=0.02,
        )

    def test_requires_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="store"):
            ClaimedRunner(ClaimBoard(tmp_path / "claims"), jobs=1)

    def test_single_worker_run_matches_serial(self, tmp_path):
        serial = ParallelRunner(jobs=1).run(ECHO_SPEC)
        with self.make(tmp_path) as runner:
            claimed = runner.run(ECHO_SPEC)
            assert [v["echo"] for v in claimed.values] == [
                v["echo"] for v in serial.values
            ]
            assert claimed.report.executed == 5
            assert runner.claims.stats()["computed"] == 5
            # every claim was released: a rerun is pure cache hits
            assert runner.claims.held == 0
            again = runner.run(ECHO_SPEC)
            assert again.report.executed == 0 and again.report.cached == 5

    def test_accuracy_grid_serial_equals_claimed_parallel(self, tmp_path):
        """The distributed analogue of the serial≡parallel golden: a
        claimed runner over worker processes produces bit-identical
        grid results."""
        spec = SweepSpec(
            kind="accuracy",
            axes={"app": ["em3d", "ocean"], "depth": [1, 2]},
            base={"iterations": 4},
        )
        serial = ParallelRunner(jobs=1).run(spec)
        with self.make(tmp_path, jobs=2) as runner:
            claimed = runner.run(spec)
        assert claimed.values == serial.values
        assert claimed.points == serial.points

    def test_two_workers_divide_a_grid_exactly_once(self, tmp_path):
        """Two claimed runners over one cache dir: every point computed
        exactly once across both, results identical on both."""
        spec = SweepSpec(
            kind="selftest",
            axes={"payload": list(range(8))},
            base={"sleep_s": 0.03},
        )
        results = {}

        def work(name):
            with self.make(tmp_path, owner=name) as runner:
                results[name] = runner.run(spec)

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        values_a = [v["echo"] for v in results["a"].values]
        values_b = [v["echo"] for v in results["b"].values]
        assert values_a == values_b == list(range(8))
        total = results["a"].report.executed + results["b"].report.executed
        assert total == 8  # no point computed twice
        audit = ClaimBoard(tmp_path / "cache" / "claims", owner="audit")
        computed = [e for e in audit.events() if e["event"] == "computed"]
        per_key = {}
        for event in computed:
            per_key[event["key"]] = per_key.get(event["key"], 0) + 1
        assert len(per_key) == 8 and set(per_key.values()) == {1}

    def test_stale_claim_of_crashed_worker_is_taken_over(self, tmp_path):
        """A claim left behind by a dead worker does not block the grid:
        after the TTL the live worker steals it and computes the point."""
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 1})
        crashed = ClaimBoard(tmp_path / "cache" / "claims", owner="crashed", ttl_s=5.0)
        with self.make(tmp_path, owner="live", ttl_s=5.0) as runner:
            assert crashed.acquire(runner.claim_key(point))
            backdate(crashed, runner.claim_key(point), seconds=60.0)
            result = runner.run([point])
            assert result.values[0]["echo"] == 1
            assert runner.claims.stats()["stolen"] == 1
        assert store.load_entry(point) is not MISS

    def test_waits_for_point_claimed_by_live_worker(self, tmp_path):
        """A point freshly claimed elsewhere is not recomputed — the
        runner polls until the other worker's result lands."""
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 7})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        with self.make(tmp_path, owner="waiter", ttl_s=30.0) as runner:
            assert other.acquire(runner.claim_key(point))
            done = {}

            def run():
                done["result"] = runner.run([point])

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.15)
            assert "result" not in done  # still waiting on the claim
            # the other worker finishes: result first, then release
            store.store(point, {"echo": 7, "pid": -1}, elapsed_s=0.5)
            other.release(runner.claim_key(point))
            thread.join(timeout=30)
            result = done["result"]
            assert result.values[0] == {"echo": 7, "pid": -1}
            assert result.report.executed == 0 and result.report.cached == 1

    def test_failed_point_releases_its_claim_and_raises(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 9, "behavior": "error"})
        with self.make(tmp_path) as runner:
            with pytest.raises(SweepError, match="payload=9"):
                runner.run([point])
            assert runner.claims.held == 0
            assert not board_file_exists(runner.claims, runner.claim_key(point))

    def test_cold_miss_is_read_twice(self, tmp_path, store_loads):
        """run()'s own check, then the re-check under the claim."""
        point = SweepPoint.make("selftest", {"payload": 1})
        with self.make(tmp_path) as runner:
            loads = store_loads(runner.store)
            assert runner.run([point]).report.executed == 1
        assert loads == [point, point]

    def test_submit_miss_computes_and_releases(self, tmp_path):
        with self.make(tmp_path) as runner:
            point = SweepPoint.make("selftest", {"payload": 42})
            outcome = runner.submit_miss(point).result(timeout=30)
            assert not outcome.cached and outcome.value["echo"] == 42
            assert runner.claims.held == 0
            assert runner.claims.stats()["computed"] == 1
            hit = runner.cached_outcome(point)
            assert hit.cached and hit.value == outcome.value

    def test_submit_miss_waits_on_foreign_claim(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 3})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        with self.make(tmp_path, owner="waiter") as runner:
            assert other.acquire(runner.claim_key(point))
            future = runner.submit_miss(point)
            time.sleep(0.1)
            assert not future.done()
            store.store(point, {"echo": 3, "pid": -1}, elapsed_s=0.2)
            outcome = future.result(timeout=30)
            assert outcome.cached and outcome.value == {"echo": 3, "pid": -1}
            # no duplicate computation happened on this side
            assert runner.claims.stats()["computed"] == 0

    def test_submit_miss_steals_stale_foreign_claim(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 5})
        dead = ClaimBoard(tmp_path / "cache" / "claims", owner="dead", ttl_s=1.0)
        with self.make(tmp_path, owner="live", ttl_s=1.0) as runner:
            key = runner.claim_key(point)
            assert dead.acquire(key)
            backdate(dead, key, seconds=60.0)
            outcome = runner.submit_miss(point).result(timeout=30)
            assert not outcome.cached and outcome.value["echo"] == 5
            assert runner.claims.stats()["stolen"] == 1

    def test_claim_released_without_result_is_taken_over(self, tmp_path):
        """A peer that releases its claim without a result (its point
        failed) leaves the point to this worker's next claim retry."""
        point = SweepPoint.make("selftest", {"payload": 4})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        with self.make(tmp_path, owner="retrier", ttl_s=30.0) as runner:
            key = runner.claim_key(point)
            assert other.acquire(key)
            future = runner.submit_miss(point)
            time.sleep(0.1)
            assert not future.done()
            other.release(key)
            outcome = future.result(timeout=30)
            assert not outcome.cached and outcome.value["echo"] == 4
            assert runner.claims.stats()["computed"] == 1
            assert runner.claims.stats()["stolen"] == 0

    def test_close_resolves_pending_waiters(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 8})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        runner = self.make(tmp_path, owner="closer")
        assert other.acquire(runner.claim_key(point))
        future = runner.submit_miss(point)
        runner.close()
        with pytest.raises(SweepError, match="closed"):
            future.result(timeout=5)

    def test_holds_one_claim_per_compute_slot(self, tmp_path):
        """At jobs=1, misses beyond the first wait unclaimed, so peers
        can take them while the first point computes."""
        points = [
            SweepPoint.make("selftest", {"payload": i, "sleep_s": 0.3})
            for i in range(3)
        ]
        with self.make(tmp_path) as runner:
            futures = [runner.submit_miss(point) for point in points]
            assert runner.claims.held == 1
            outcomes = [future.result(timeout=30) for future in futures]
            assert [o.value["echo"] for o in outcomes] == [0, 1, 2]
            assert runner.claims.stats()["computed"] == 3
            assert runner.claims.held == 0
            held, peak = 0, 0
            for event in runner.claims.events():
                held += {"claimed": 1, "released": -1, "lost": -1}.get(
                    event["event"], 0
                )
                peak = max(peak, held)
            assert peak == 1

    def test_concurrent_submitters_share_slots_and_entries(self, tmp_path):
        """Eight threads submit overlapping points through one runner
        under a short switch interval: every future resolves to its
        point's value, each point is computed once, every slot returns."""
        points = [SweepPoint.make("selftest", {"payload": i % 7}) for i in range(56)]
        submitted = [[] for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self.make(tmp_path, jobs=2) as runner:

                def submit(index):
                    for point in points[index::8]:
                        submitted[index].append((point, runner.submit_miss(point)))

                threads = [
                    threading.Thread(target=submit, args=(i,)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for point, future in (pair for chunk in submitted for pair in chunk):
                    assert future.result(timeout=60).value["echo"] == point["payload"]
                assert runner.claims.stats()["computed"] == 7
                assert runner.claims.held == 0 and runner._free == runner.jobs
        finally:
            sys.setswitchinterval(previous)

    def test_duplicate_grid_points_resolved_once(self, tmp_path):
        points = [
            SweepPoint.make("selftest", {"payload": 7}),
            SweepPoint.make("selftest", {"payload": 7}),
        ]
        with self.make(tmp_path) as runner:
            result = runner.run(points)
            assert result.report.executed == 1
            assert result.values[0] == result.values[1]


class TestOpenRunner:
    """``open_runner`` is the one place the CLI and the service turn
    their options into a store, a runner and a trace-cache setting."""

    def test_cache_dir_sets_store_and_trace_cache(self, tmp_path):
        tier = HotTier(max_entries=4)
        with open_runner(jobs=1, cache_dir=tmp_path / "cache", hot_tier=tier) as runner:
            assert type(runner) is ParallelRunner
            assert runner.store.root == tmp_path / "cache"
            assert runner.store.hot_tier is tier
            assert configured_trace_dir() == str(tmp_path / "cache")
        with open_runner(jobs=1) as runner:
            assert runner.store is None
            assert configured_trace_dir() is None

    def test_claim_dir_builds_a_claimed_runner(self, tmp_path):
        with open_runner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            claim_dir=tmp_path / "cache" / "claims",
            worker_id="w1",
            claim_ttl_s=30.0,
        ) as runner:
            assert isinstance(runner, ClaimedRunner)
            assert runner.claims.owner == "w1" and runner.claims.ttl_s == 30.0
            assert runner.run(ECHO_SPEC).report.executed == 5
            assert runner.claims.stats()["computed"] == 5

    @pytest.mark.parametrize(
        "conflict, message",
        [({"cache_dir": None}, "need the result cache"), ({"refresh": True}, "refresh")],
        ids=["no-cache", "refresh"],
    )
    def test_claim_conflicts_create_nothing(self, tmp_path, conflict, message):
        configure_trace_cache(tmp_path / "earlier")
        options = {"cache_dir": tmp_path / "cache", "claim_dir": tmp_path / "claims"}
        with pytest.raises(ValueError, match=message):
            open_runner(**{**options, **conflict})
        assert list(tmp_path.iterdir()) == []
        assert configured_trace_dir() == str(tmp_path / "earlier")
