"""Tests for caches, address space, interconnect, and synchronization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import HOME_SHIFT, SystemConfig
from repro.network.interconnect import Interconnect
from repro.sim.address import AddressSpace, home_of
from repro.sim.caches import CacheState, ProcessorCache, RemoteCache
from repro.sim.events import EventQueue
from repro.sim.sync import BarrierManager, LockManager
from tests.oracles import ReferenceEventQueue, ReferenceInterconnect


class TestAddressSpace:
    def test_blocks_carry_their_home(self):
        space = AddressSpace(16)
        for home in (0, 7, 15):
            for block in space.alloc(home, 5):
                assert home_of(block, 16) == home

    def test_allocations_are_contiguous_and_disjoint(self):
        space = AddressSpace(4)
        first = space.alloc(2, 3)
        second = space.alloc(2, 3)
        assert first == [(2 << HOME_SHIFT) + i for i in range(3)]
        assert not set(first) & set(second)

    def test_alloc_one(self):
        space = AddressSpace(4)
        block = space.alloc_one(1)
        assert home_of(block, 4) == 1
        assert space.allocated(1) == 1

    def test_bad_arguments(self):
        space = AddressSpace(4)
        with pytest.raises(ValueError):
            space.alloc(9, 1)
        with pytest.raises(ValueError):
            space.alloc(0, 0)

    @given(st.integers(2, 32), st.integers(0, 31), st.integers(1, 100))
    def test_home_roundtrip(self, nodes, home, count):
        if home >= nodes:
            home %= nodes
        space = AddressSpace(nodes)
        for block in space.alloc(home, count):
            assert home_of(block, nodes) == home


class TestProcessorCache:
    def test_starts_invalid(self):
        cache = ProcessorCache()
        assert cache.state_of(1) is CacheState.INVALID
        assert not cache.can_read(1)
        assert not cache.can_write(1)

    def test_shared_allows_reads_only(self):
        cache = ProcessorCache()
        cache.set_state(1, CacheState.SHARED)
        assert cache.can_read(1)
        assert not cache.can_write(1)

    def test_exclusive_allows_both(self):
        cache = ProcessorCache()
        cache.set_state(1, CacheState.EXCLUSIVE)
        assert cache.can_read(1)
        assert cache.can_write(1)

    def test_invalidate_reports_presence(self):
        cache = ProcessorCache()
        cache.set_state(1, CacheState.SHARED)
        assert cache.invalidate(1)
        assert not cache.invalidate(1)

    def test_setting_invalid_drops_entry(self):
        cache = ProcessorCache()
        cache.set_state(1, CacheState.SHARED)
        cache.set_state(1, CacheState.INVALID)
        assert not cache.can_read(1)


class TestRemoteCache:
    def test_consume_sets_reference_bit(self):
        cache = RemoteCache()
        cache.place(5, origin="fr")
        entry = cache.consume(5)
        assert entry is not None and entry.referenced
        assert cache.lookup(5) is None

    def test_evict_preserves_reference_state(self):
        cache = RemoteCache()
        cache.place(5, origin="swi")
        entry = cache.evict(5)
        assert entry is not None and not entry.referenced
        assert entry.origin == "swi"

    def test_unreferenced_listing(self):
        cache = RemoteCache()
        cache.place(1, origin="fr")
        cache.place(2, origin="fr")
        cache.consume(1)
        assert [block for block, _ in cache.unreferenced()] == [2]

    def test_len(self):
        cache = RemoteCache()
        cache.place(1, origin="fr")
        assert len(cache) == 1


class TestInterconnect:
    def test_local_delivery_is_immediate(self):
        events = EventQueue()
        net = Interconnect(SystemConfig(), events)
        seen = []
        net.send_call(3, 3, lambda: seen.append(events.now))
        events.run()
        assert seen == [0]
        assert net.messages_sent == 0

    def test_remote_delivery_costs_network_plus_ni(self):
        events = EventQueue()
        config = SystemConfig()
        net = Interconnect(config, events)
        seen = []
        net.send_call(0, 1, lambda: seen.append(events.now))
        events.run()
        assert seen == [config.network_cycles + config.ni_cycles]

    def test_receiver_ni_serializes(self):
        events = EventQueue()
        config = SystemConfig()
        net = Interconnect(config, events)
        seen = []
        net.send_call(0, 1, lambda: seen.append(events.now))
        net.send_call(2, 1, lambda: seen.append(events.now))
        events.run()
        first = config.network_cycles + config.ni_cycles
        assert seen == [first, first + config.ni_cycles]

    def test_distinct_receivers_do_not_contend(self):
        events = EventQueue()
        config = SystemConfig()
        net = Interconnect(config, events)
        seen = []
        net.send_call(0, 1, lambda: seen.append(events.now))
        net.send_call(0, 2, lambda: seen.append(events.now))
        events.run()
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("path", ["send", "send_call"])
    def test_send_call_matches_reference_delivery(self, path):
        """The product delivery path models the reference's latencies,
        NI contention, and ordering — for both reference paths."""
        config = SystemConfig()
        ref_events = ReferenceEventQueue()
        ref_net = ReferenceInterconnect(config, ref_events)
        events = EventQueue()
        net = Interconnect(config, events)
        ref_seen, seen = [], []

        def record(tag):
            ref_seen.append((tag, ref_events.now))

        def ref_send(src, dst, tag):
            if path == "send":
                ref_net.send(src, dst, lambda: record(tag))
            else:
                ref_net.send_call(src, dst, record, tag)

        for src, dst, tag in ((3, 3, "local"), (0, 1, "a"), (2, 1, "b")):
            ref_send(src, dst, tag)
            net.send_call(
                src, dst, lambda tag: seen.append((tag, events.now)), tag
            )

        ref_events.run()
        events.run()
        assert seen == ref_seen
        assert net.messages_sent == ref_net.messages_sent == 2


class TestBarrier:
    def test_releases_only_when_all_arrive(self):
        events = EventQueue()
        config = SystemConfig(num_nodes=4)
        barrier = BarrierManager(4, config, events)
        released = []
        for p in range(3):
            barrier.arrive(p, lambda p=p: released.append(p))
        events.run()
        assert released == []
        barrier.arrive(3, lambda: released.append(3))
        events.run()
        assert sorted(released) == [0, 1, 2, 3]

    def test_barrier_is_reusable(self):
        events = EventQueue()
        config = SystemConfig(num_nodes=2)
        barrier = BarrierManager(2, config, events)
        log = []
        barrier.arrive(0, lambda: log.append("r1"))
        barrier.arrive(1, lambda: log.append("r1"))
        events.run()
        barrier.arrive(0, lambda: log.append("r2"))
        barrier.arrive(1, lambda: log.append("r2"))
        events.run()
        assert log == ["r1", "r1", "r2", "r2"]


class TestLocks:
    def test_fifo_grant_order(self):
        events = EventQueue()
        config = SystemConfig()
        locks = LockManager(config, events)
        log = []
        locks.acquire(1, 0, lambda: log.append(0))
        locks.acquire(1, 1, lambda: log.append(1))
        locks.acquire(1, 2, lambda: log.append(2))
        events.run()
        assert log == [0]
        locks.release(1, 0)
        events.run()
        locks.release(1, 1)
        events.run()
        assert log == [0, 1, 2]

    def test_release_by_non_holder_rejected(self):
        events = EventQueue()
        locks = LockManager(SystemConfig(), events)
        locks.acquire(1, 0, lambda: None)
        events.run()
        with pytest.raises(RuntimeError):
            locks.release(1, 5)

    def test_independent_locks(self):
        events = EventQueue()
        locks = LockManager(SystemConfig(), events)
        log = []
        locks.acquire(1, 0, lambda: log.append("l1"))
        locks.acquire(2, 1, lambda: log.append("l2"))
        events.run()
        assert sorted(log) == ["l1", "l2"]
        assert locks.holder_of(1) == 0
        assert locks.holder_of(2) == 1
