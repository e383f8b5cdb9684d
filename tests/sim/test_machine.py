"""End-to-end tests for the timing simulator."""

import pytest

from repro.apps.base import WorkloadBuilder
from repro.common.config import SystemConfig
from repro.sim.address import AddressSpace
from repro.sim.machine import EventBudgetExhausted, Machine, MachineMode


def two_node_config():
    return SystemConfig(num_nodes=2)


def simple_workload(num_procs=2, iterations=1):
    """P0 writes a block; P1 reads it."""
    builder = WorkloadBuilder("simple", num_procs)
    space = AddressSpace(num_procs)
    block = space.alloc_one(0)
    for _ in range(iterations):
        with builder.phase("produce"):
            builder.write(0, block)
        with builder.phase("consume"):
            builder.read(1, block)
    return builder.finish(), block


class TestLatencies:
    def test_local_write_costs_one_memory_access(self):
        workload, _ = simple_workload()
        machine = Machine(workload, config=two_node_config())
        result = machine.run()
        # P0's only stall is its local write: directory access only.
        p0 = machine.node(0).processor
        assert p0.stall_cycles == machine.config.local_access_cycles

    def test_remote_clean_read_costs_418(self):
        builder = WorkloadBuilder("r", 2)
        space = AddressSpace(2)
        block = space.alloc_one(0)
        with builder.phase("read"):
            builder.read(1, block)
        machine = Machine(builder.finish(), config=two_node_config())
        machine.run()
        p1 = machine.node(1).processor
        assert p1.stall_cycles == machine.config.round_trip_cycles == 418

    def test_three_hop_read_costs_more(self):
        workload, _ = simple_workload()
        machine = Machine(workload, config=two_node_config())
        machine.run()
        p1 = machine.node(1).processor
        # Read of a dirty remote block: recall + writeback + reply.
        assert p1.stall_cycles > machine.config.round_trip_cycles

    def test_cache_hit_costs_one_cycle(self):
        builder = WorkloadBuilder("h", 2)
        space = AddressSpace(2)
        block = space.alloc_one(0)
        with builder.phase("a"):
            builder.read(0, block)
            builder.read(0, block)  # hit
        machine = Machine(builder.finish(), config=two_node_config())
        result = machine.run()
        assert result.counters.get("cache_hits") == 1


class TestProtocolIntegration:
    def test_upgrade_vs_write_kinds(self):
        builder = WorkloadBuilder("u", 2)
        space = AddressSpace(2)
        block = space.alloc_one(0)
        with builder.phase("a"):
            builder.read(1, block)
        with builder.phase("b"):
            builder.write(1, block)  # sharer writes -> upgrade
        with builder.phase("c"):
            builder.write(0, block)  # non-holder writes -> write
        result = Machine(builder.finish(), config=two_node_config()).run()
        assert result.counters["req_read"] == 1
        assert result.counters["req_upgrade"] == 1
        assert result.counters["req_write"] == 1

    def test_write_waits_for_all_acks(self):
        config = SystemConfig(num_nodes=4)
        builder = WorkloadBuilder("acks", 4)
        space = AddressSpace(4)
        block = space.alloc_one(0)
        with builder.phase("readers"):
            for reader in (1, 2, 3):
                builder.read(reader, block)
        with builder.phase("writer"):
            builder.write(0, block)
        machine = Machine(builder.finish(), config=config)
        machine.run()
        p0 = machine.node(0).processor
        # Local write but three remote invalidation round trips.
        assert p0.stall_cycles > 2 * config.network_cycles

    def test_mismatched_workload_rejected(self):
        workload, _ = simple_workload(num_procs=2)
        with pytest.raises(ValueError, match="16 nodes"):
            Machine(workload, config=SystemConfig(num_nodes=16))


class TestRunResult:
    def test_buckets_partition_total_time(self):
        workload, _ = simple_workload(iterations=3)
        result = Machine(workload, config=two_node_config()).run()
        assert (
            result.compute_cycles + result.stall_cycles + result.sync_cycles
            == result.cycles * 2
        )

    def test_request_fraction_in_unit_range(self):
        workload, _ = simple_workload(iterations=3)
        result = Machine(workload, config=two_node_config()).run()
        assert 0.0 <= result.request_fraction <= 1.0

    def test_deterministic_execution(self):
        workload, _ = simple_workload(iterations=5)
        a = Machine(workload, config=two_node_config()).run()
        b = Machine(workload, config=two_node_config()).run()
        assert a.cycles == b.cycles
        assert a.counters == b.counters

    def test_base_mode_collects_no_speculation(self):
        workload, _ = simple_workload()
        result = Machine(workload, config=two_node_config()).run()
        assert result.speculation.fr_sent == 0
        assert result.speculation.wi_sent == 0

    def test_budget_exhaustion_detected(self):
        """Regression: an exhausted event budget is not a deadlock.

        A bounded run that stops with events still pending used to
        raise the misleading "stuck processors (deadlock...)" error;
        it must report budget exhaustion distinctly.
        """
        workload, _ = simple_workload(iterations=10)
        machine = Machine(workload, config=two_node_config())
        with pytest.raises(EventBudgetExhausted, match="budget exhausted"):
            machine.run(max_events=3)

    def test_budget_exhaustion_error_names_unfinished_processors(self):
        workload, _ = simple_workload(iterations=10)
        machine = Machine(workload, config=two_node_config())
        with pytest.raises(EventBudgetExhausted, match=r"\[0, 1\].*max_events"):
            machine.run(max_events=1)

    def test_budget_exhaustion_leaves_events_pending(self):
        workload, _ = simple_workload(iterations=10)
        machine = Machine(workload, config=two_node_config())
        with pytest.raises(EventBudgetExhausted):
            machine.run(max_events=3)
        assert len(machine.events) > 0  # events really were pending

    def test_genuine_deadlock_still_reported_as_stuck(self):
        """An empty queue with unfinished processors is a deadlock.

        P0 takes the lock and never releases it; P1 blocks on the lock
        forever while P0 waits at the barrier for P1.  The queue drains
        with both processors unfinished — a deadlock, not a budget
        problem.
        """
        builder = WorkloadBuilder("deadlock", 2)
        with builder.phase("locked"):
            builder.lock(0, 0)
            builder.lock(1, 0)
        workload = builder.finish()
        machine = Machine(workload, config=two_node_config())
        with pytest.raises(RuntimeError, match="stuck processors.*deadlock"):
            machine.run()


class TestRequestCounters:
    def test_distinct_blocks_counted_per_kind(self):
        builder = WorkloadBuilder("blocks", 2)
        space = AddressSpace(2)
        blocks = space.alloc(0, 3)
        with builder.phase("a"):
            for block in blocks:
                builder.read(1, block)
        with builder.phase("b"):
            for block in blocks:
                builder.read(0, block)
        result = Machine(builder.finish(), config=two_node_config()).run()
        assert result.counters["req_read"] == 6
        assert result.counters["req_read_blocks"] == 3

    def test_single_block_ping_pong_counts_one_block(self):
        builder = WorkloadBuilder("pingpong", 2)
        space = AddressSpace(2)
        block = space.alloc_one(0)
        for _ in range(4):
            with builder.phase("w0"):
                builder.write(0, block)
            with builder.phase("w1"):
                builder.write(1, block)
        result = Machine(builder.finish(), config=two_node_config()).run()
        writes = result.counters["req_write"] + result.counters.get(
            "req_upgrade", 0
        )
        assert writes == 8
        blocks = result.counters.get("req_write_blocks", 0) + result.counters.get(
            "req_upgrade_blocks", 0
        )
        assert 1 <= blocks <= 2  # one physical block, counted per kind
