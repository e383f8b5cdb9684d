"""Timing-level home directory: the protocol engine of one node.

Each home node owns the directory entries for its blocks and processes
requests one-at-a-time per block (queued FIFO otherwise), running the
full-map write-invalidate protocol of Figure 1 with Table 1 latencies:

* a directory/memory access costs ``local_access_cycles``;
* invalidations, writebacks, and data replies traverse the
  :class:`~repro.network.interconnect.Interconnect` (constant network
  latency plus NI serialization at the receiver);
* a remote fill costs another memory access at the requester.

When a speculation engine is attached (FR-DSM / SWI-DSM), the home asks
it for advice at the marked points and executes ordinary protocol
operations in response — speculative sends and early recalls — exactly
as Section 4.2 prescribes (no new protocol states).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.common.types import BlockId, DirectoryState, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.sim.caches import CacheState, SpeculativeEntry

_EXCLUSIVE = DirectoryState.EXCLUSIVE
_UPGRADE = MessageKind.UPGRADE
_CACHE_SHARED = CacheState.SHARED
_CACHE_EXCLUSIVE = CacheState.EXCLUSIVE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


@dataclass(slots=True)
class MemRequest:
    """A memory request travelling from a processor to a home.

    ``on_done`` is invoked as ``on_done(*on_done_args)`` when the reply
    retires.  Processors pass a prebound method plus its arguments, so
    retiring a request allocates nothing (a zero-argument closure with
    empty ``on_done_args`` works too).
    """

    kind: str  # 'read' | 'write' | 'swi-recall'
    block: BlockId
    requester: NodeId
    on_done: Callable | None = None
    on_done_args: tuple = ()


class HomeDirectory:
    """Directory controller for all blocks homed at one node.

    No closures: each protocol hop is a prebound method scheduled as a
    ``(handler, args)`` event, and so is each transaction-level
    continuation.  A write joins its invalidation acks and writeback on
    one ``[remaining, req, data]`` list carried as an event argument; a
    read's completion after a writeback is :meth:`_complete_read` with
    its arguments.  Hops that only forward (a sharer's or owner's
    memory access, the writeback's memory update, a retirement) inline
    the calendar queue's bucket insert, as :meth:`Interconnect.send_call`
    does.  Each hop stays its own event at its own place in its cycle's
    FIFO bucket: that order is the simulator's tie-order contract
    (``docs/performance.md``).
    """

    def __init__(self, node: NodeId, machine: "Machine") -> None:
        self.node = node
        self._m = machine
        self._entries: dict[BlockId, BlockDirectory] = {}
        self._busy: set[BlockId] = set()
        self._queues: dict[BlockId, deque[MemRequest]] = {}
        # Prebind the per-event handlers once: an attribute fetch is an
        # allocation-free lookup, while ``self._method`` in a hot path
        # builds a fresh bound method per event.  Likewise flatten the
        # ``self._m.<component>.<attr>`` chases into direct references;
        # all of them are fixed for the life of the machine
        # (Machine.__init__ builds engines and nodes before homes for
        # exactly this reason).
        self._handlers = {
            "read": self._do_read,
            "write": self._do_write,
            "swi-recall": self._do_swi_recall,
        }
        self._complete_read_fn = self._complete_read
        self._write_ack_fn = self._write_ack
        self._swi_recalled_fn = self._swi_recalled
        self._deliver_reply_fn = self._deliver_reply
        self._inv_at_sharer_fn = self._inv_at_sharer
        self._inv_after_access_fn = self._inv_after_access
        self._inv_ack_at_home_fn = self._inv_ack_at_home
        self._recall_at_owner_fn = self._recall_at_owner
        self._recall_after_access_fn = self._recall_after_access
        self._recall_writeback_at_home_fn = self._recall_writeback_at_home
        self._deliver_spec_fn = self._deliver_spec
        self._q = machine.events
        self._send_call = machine.net.send_call
        self._local_access = machine.config.local_access_cycles
        self._machine_nodes = machine._nodes
        self._engine = engine = machine.engine_for(node)
        #: The engine when it runs the migratory-write extension.
        self._migratory = (
            engine if engine is not None and engine.migratory_enabled else None
        )
        self._spec_sent_key = {"fr": "spec_sent_fr", "swi": "spec_sent_swi"}
        self._counters = machine.stats._counters
        #: Request kind -> (``req_<kind>`` counter name, the machine's
        #: distinct-block set for the kind), created at a kind's first
        #: request so a kind never requested gets no counters.
        self._request_counts: dict[MessageKind, tuple[str, set[BlockId]]] = {}

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def entry(self, block: BlockId) -> BlockDirectory:
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockDirectory()
        return entry

    def request(self, req: MemRequest) -> None:
        """Start ``req`` now if its block is idle, else queue it (FIFO).

        An idle block has nothing queued (:meth:`_finish` starts the
        next queued request before the block goes idle), so an idle
        block's request starts at once: the directory lookup and memory
        access, then the transaction handler for its kind.
        """
        block = req.block
        if block in self._busy:
            queue = self._queues.get(block)
            if queue is None:
                queue = self._queues[block] = deque()
            queue.append(req)
            return
        self._busy.add(block)
        event = (self._handlers[req.kind], (req,))
        q = self._q
        time = q.now + self._local_access
        buckets = q._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [event]
            heappush(q._times, time)
        else:
            bucket.append(event)
        q._size += 1

    def _finish(self, block: BlockId) -> None:
        self._busy.discard(block)
        queue = self._queues.get(block)
        if queue:
            self.request(queue.popleft())

    def _count_request(self, kind: MessageKind, block: BlockId) -> None:
        """Count one serviced request, per kind and per block touched.

        Distinct-block counts separate a few hot blocks ping-ponging from
        genuinely wide sharing; they surface in ``RunResult.counters`` as
        ``req_<kind>_blocks`` next to the per-kind request totals.
        """
        counted = self._request_counts.get(kind)
        if counted is None:
            counted = self._request_counts[kind] = (
                f"req_{kind.value}",
                self._m._request_blocks.setdefault(kind.value, set()),
            )
        self._counters[counted[0]] += 1
        counted[1].add(block)

    # ------------------------------------------------------------------
    # transaction dispatch
    # ------------------------------------------------------------------
    def _do_read(self, req: MemRequest) -> None:
        block = req.block
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockDirectory()
        requester = req.requester
        # Inlined entry.has_valid_copy(requester) — no frozenset built
        # per read request.
        if (
            requester == entry.owner
            if entry.state is _EXCLUSIVE
            else requester in entry.sharers
        ):
            # The requester was granted a speculative copy while this
            # request was in flight; just supply the data (the node
            # dropped the speculative message — Section 4.2).
            self._reply_data(req, exclusive=False)
            return
        transition = entry.read(requester)
        self._count_request(transition.request, block)
        engine = self._engine
        if engine is None:
            fr_targets = None
            migratory = False
        else:
            fr_targets = engine.observe_read(block, requester)
            # Migratory-write extension: a read predicted to be followed
            # by the same processor's upgrade is granted exclusively.
            migratory = (
                self._migratory is not None
                and engine.predicts_migratory_writer(block, requester)
                and entry.holders() == frozenset({requester})
            )
        owner = transition.writeback_from
        if owner is not None:
            self._recall_writable(
                block,
                owner,
                self._complete_read_fn,
                (req, entry, fr_targets, migratory),
            )
        else:
            self._complete_read(req, entry, fr_targets, migratory)

    def _complete_read(
        self,
        req: MemRequest,
        entry: BlockDirectory,
        fr_targets: frozenset[NodeId] | None,
        migratory: bool,
    ) -> None:
        """Grant the read: exclusively when predicted migratory, else
        shared after forwarding FR's speculative copies."""
        if migratory and entry.promote_sole_sharer(req.requester):
            self._engine.record_migratory_grant(req.block, req.requester)
            self._reply_data(req, exclusive=True)
            return
        if fr_targets:
            self._forward_spec(req.block, fr_targets, "fr")
        self._reply_data(req, exclusive=False)

    def _do_write(self, req: MemRequest) -> None:
        block = req.block
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockDirectory()
        requester = req.requester
        if entry.state is _EXCLUSIVE and entry.owner == requester:
            # Stale request (the copy was granted while in flight).
            self._reply_data(req, exclusive=True)
            return
        transition = entry.write(requester)
        kind = transition.request
        assert kind is not None
        self._count_request(kind, block)
        engine = self._engine
        if engine is not None:
            engine.observe_write(block, kind, requester)
        data = kind is not _UPGRADE
        invalidated = transition.invalidated
        owner = transition.writeback_from
        if not invalidated and owner is None:
            self._reply_data(req, exclusive=True, data=data)
            return
        # One join for every ack and the writeback: [remaining, req, data].
        join = [len(invalidated) + (owner is not None), req, data]
        for sharer in invalidated:
            # A read-only invalidation; the sharer acks to the home.
            self._send_call(
                self.node, sharer, self._inv_at_sharer_fn, block, sharer, join
            )
        if owner is not None:
            self._recall_writable(block, owner, self._write_ack_fn, (join,))

    def _write_ack(self, join: list) -> None:
        """One invalidation ack or the writeback reached the home; the
        last one grants the write."""
        join[0] -= 1
        if join[0] == 0:
            self._reply_data(join[1], exclusive=True, data=join[2])

    # ------------------------------------------------------------------
    # SWI: early recall of a writable copy
    # ------------------------------------------------------------------
    def _do_swi_recall(self, req: MemRequest) -> None:
        """Process a done-writing hint from the writer's node.

        The hint advises recalling the writer's previous block.  It is
        ignored when the block already moved on (not exclusive at the
        writer any more) or when the block's write pattern entry is
        suppressed after an earlier premature invalidation.
        """
        entry = self.entry(req.block)
        engine = self._engine
        if (
            engine is None
            or entry.state is not _EXCLUSIVE
            or entry.owner != req.requester
            or not engine.swi_allowed(req.block)
        ):
            self._finish(req.block)
            return
        recall = entry.recall()
        assert recall.writeback_from == req.requester
        self._recall_writable(
            req.block, req.requester, self._swi_recalled_fn, (req.block, req.requester)
        )

    def _swi_recalled(self, block: BlockId, writer: NodeId) -> None:
        """The early recall's writeback is in memory: push the predicted
        readers their copies and retire the hint."""
        targets = self._engine.swi_invalidated(block, writer)
        self._forward_spec(block, targets, origin="swi")
        self._finish(block)

    # ------------------------------------------------------------------
    # protocol sub-operations
    # ------------------------------------------------------------------
    def _inv_at_sharer(self, block: BlockId, sharer: NodeId, join: list) -> None:
        q = self._q
        time = q.now + self._local_access
        buckets = q._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._inv_after_access_fn, (block, sharer, join))]
            heappush(q._times, time)
        else:
            bucket.append((self._inv_after_access_fn, (block, sharer, join)))
        q._size += 1

    def _inv_after_access(self, block: BlockId, sharer: NodeId, join: list) -> None:
        node = self._machine_nodes[sharer]
        node.cache._state.pop(block, None)  # invalidate, inlined
        spec_entry = node.remote_cache._entries.pop(block, None)  # evict
        self._send_call(
            sharer,
            self.node,
            self._inv_ack_at_home_fn,
            block,
            sharer,
            spec_entry,
            join,
        )

    def _inv_ack_at_home(
        self, block: BlockId, sharer: NodeId, spec_entry, join: list
    ) -> None:
        if spec_entry is not None and not spec_entry.referenced:
            engine = self._engine
            if engine is not None:
                engine.spec_feedback(block, sharer, used=False)
        self._write_ack(join)

    def _recall_writable(
        self, block: BlockId, owner: NodeId, done: Callable, done_args: tuple
    ) -> None:
        """Invalidate + writeback the writable copy, update memory, then
        run ``done(*done_args)``."""
        migratory = self._migratory
        if migratory is not None:
            # A recalled migratory grant that was never written to is a
            # demotion (the grantee would have been happy with a
            # read-only copy).
            migratory.migratory_recalled(block, owner)
        self._send_call(
            self.node, owner, self._recall_at_owner_fn, block, owner, done, done_args
        )

    def _recall_at_owner(
        self, block: BlockId, owner: NodeId, done: Callable, done_args: tuple
    ) -> None:
        q = self._q
        time = q.now + self._local_access
        args = (block, owner, done, done_args)
        buckets = q._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._recall_after_access_fn, args)]
            heappush(q._times, time)
        else:
            bucket.append((self._recall_after_access_fn, args))
        q._size += 1

    def _recall_after_access(
        self, block: BlockId, owner: NodeId, done: Callable, done_args: tuple
    ) -> None:
        self._machine_nodes[owner].cache._state.pop(block, None)  # invalidate
        self._send_call(
            owner, self.node, self._recall_writeback_at_home_fn, done, done_args
        )

    def _recall_writeback_at_home(self, done: Callable, done_args: tuple) -> None:
        # Memory update with the written-back data.
        q = self._q
        time = q.now + self._local_access
        buckets = q._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(done, done_args)]
            heappush(q._times, time)
        else:
            bucket.append((done, done_args))
        q._size += 1

    def _reply_data(
        self, req: MemRequest, exclusive: bool, data: bool = True
    ) -> None:
        """Send the reply; the transaction retires on delivery."""
        self._send_call(
            self.node, req.requester, self._deliver_reply_fn, req, exclusive, data
        )

    def _deliver_reply(
        self, req: MemRequest, exclusive: bool, data: bool
    ) -> None:
        """The reply reaches the requester: the transaction retires."""
        requester = req.requester
        block = req.block
        # set_state inlined: replies always grant a valid state.
        self._machine_nodes[requester].cache._state[block] = (
            _CACHE_EXCLUSIVE if exclusive else _CACHE_SHARED
        )
        on_done = req.on_done
        if on_done is not None:
            q = self._q
            time = q.now
            if data and requester != self.node:
                time += self._local_access  # the remote fill
            buckets = q._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [(on_done, req.on_done_args)]
                heappush(q._times, time)
            else:
                bucket.append((on_done, req.on_done_args))
            q._size += 1
        self._finish(block)

    # ------------------------------------------------------------------
    # speculative forwarding
    # ------------------------------------------------------------------
    def _forward_spec(
        self, block: BlockId, targets: frozenset[NodeId], origin: str
    ) -> None:
        engine = self._engine
        if engine is None or not targets:
            return
        entry = self.entry(block)
        stat_key = self._spec_sent_key[origin]
        for target in sorted(targets):
            if not entry.grant_speculative_copy(target):
                continue
            engine.record_spec_sent(block, target, origin)
            self._counters[stat_key] += 1
            self._send_call(
                self.node, target, self._deliver_spec_fn, block, target, origin
            )

    def _deliver_spec(self, block: BlockId, target: NodeId, origin: str) -> None:
        node = self._machine_nodes[target]
        if node.processor._outstanding == block:  # request in flight
            # Race with an in-flight request: drop the speculative
            # message (Section 4.2).
            engine = self._engine
            if engine is not None:
                engine.spec_feedback(block, target, used=False, raced=True)
            return
        if node.cache._state.get(block) is not None:  # can_read, inlined
            return
        node.remote_cache._entries[block] = SpeculativeEntry(origin=origin)
