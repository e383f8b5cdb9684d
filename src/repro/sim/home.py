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
from typing import TYPE_CHECKING, Callable

from heapq import heappush

from repro.common.types import BlockId, DirectoryState, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.sim.caches import CacheState, SpeculativeEntry

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

    No per-event closures: each protocol hop is a prebound method
    scheduled as a ``(handler, args)`` event through
    :meth:`Interconnect.send_call` / :meth:`EventQueue.call`.
    Transaction-level continuations (a write's ack join, a read's
    post-writeback completion) are still closures: they are
    per-request, not per-event, and each request spawns several events.
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
        self._do_read_fn = self._do_read
        self._do_write_fn = self._do_write
        self._do_swi_recall_fn = self._do_swi_recall
        self._deliver_reply_fn = self._deliver_reply
        self._inv_at_sharer_fn = self._inv_at_sharer
        self._inv_after_access_fn = self._inv_after_access
        self._inv_ack_at_home_fn = self._inv_ack_at_home
        self._recall_at_owner_fn = self._recall_at_owner
        self._recall_after_access_fn = self._recall_after_access
        self._recall_writeback_at_home_fn = self._recall_writeback_at_home
        self._deliver_spec_fn = self._deliver_spec
        self._ev_call = machine.events.call
        self._q = machine.events
        self._send_call = machine.net.send_call
        self._local_access = machine.config.local_access_cycles
        self._machine_nodes = machine._nodes
        self._engine = machine.engine_for(node)
        self._spec_sent_key = {"fr": "spec_sent_fr", "swi": "spec_sent_swi"}
        self._stats_bump = machine.stats.bump

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def entry(self, block: BlockId) -> BlockDirectory:
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockDirectory()
        return entry

    def request(self, req: MemRequest) -> None:
        block = req.block
        queue = self._queues.get(block)
        if queue is None:
            queue = self._queues[block] = deque()
        queue.append(req)
        if block not in self._busy:
            self._begin_next(block)

    def _begin_next(self, block: BlockId) -> None:
        queue = self._queues.get(block)
        if not queue:
            return
        self._busy.add(block)
        req = queue.popleft()
        # Resolve the transaction handler at intake, so the scheduled
        # event calls it directly.
        kind = req.kind
        if kind == "read":
            handler = self._do_read_fn
        elif kind == "write":
            handler = self._do_write_fn
        elif kind == "swi-recall":
            handler = self._do_swi_recall_fn
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request kind {kind!r}")
        # Directory lookup + memory access (inlined calendar insert).
        q = self._q
        time = q.now + self._local_access
        buckets = q._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(handler, (req,))]
            heappush(q._times, time)
        else:
            bucket.append((handler, (req,)))
        q._size += 1

    def _finish(self, block: BlockId) -> None:
        self._busy.discard(block)
        self._begin_next(block)

    # ------------------------------------------------------------------
    # transaction dispatch
    # ------------------------------------------------------------------
    def _do_read(self, req: MemRequest) -> None:
        entry = self.entry(req.block)
        requester = req.requester
        # Inlined entry.has_valid_copy(requester) — no frozenset built
        # per read request.
        if (
            requester == entry.owner
            if entry.state is DirectoryState.EXCLUSIVE
            else requester in entry.sharers
        ):
            # The requester was granted a speculative copy while this
            # request was in flight; just supply the data (the node
            # dropped the speculative message — Section 4.2).
            self._reply_data(req, exclusive=False)
            return
        transition = entry.read(req.requester)
        self._m.count_request(transition.request, req.block)
        engine = self._engine
        fr_targets: frozenset[NodeId] = frozenset()
        migratory = False
        if engine is not None:
            fr_targets = engine.observe_read(req.block, req.requester)
            # Migratory-write extension: a read predicted to be followed
            # by the same processor's upgrade is granted exclusively.
            migratory = engine.predicts_migratory_writer(
                req.block, req.requester
            ) and entry.holders() == frozenset({req.requester})

        def complete() -> None:
            if migratory and entry.promote_sole_sharer(req.requester):
                engine.record_migratory_grant(req.block, req.requester)
                self._reply_data(req, exclusive=True)
                return
            self._forward_spec(req.block, fr_targets, origin="fr")
            self._reply_data(req, exclusive=False)

        if transition.writeback_from is not None:
            self._recall_writable(req.block, transition.writeback_from, complete)
        else:
            complete()

    def _do_write(self, req: MemRequest) -> None:
        entry = self.entry(req.block)
        if (
            entry.state is DirectoryState.EXCLUSIVE
            and entry.owner == req.requester
        ):
            # Stale request (the copy was granted while in flight).
            self._reply_data(req, exclusive=True)
            return
        transition = entry.write(req.requester)
        kind = transition.request
        assert kind is not None
        self._m.count_request(kind, req.block)
        engine = self._engine
        if engine is not None:
            engine.observe_write(req.block, kind, req.requester)

        outstanding = len(transition.invalidated) + (
            1 if transition.writeback_from is not None else 0
        )

        def complete() -> None:
            self._reply_data(req, exclusive=True, data=kind is not MessageKind.UPGRADE)

        if outstanding == 0:
            complete()
            return
        remaining = [outstanding]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                complete()

        for sharer in transition.invalidated:
            self._invalidate_sharer(req.block, sharer, one_done)
        if transition.writeback_from is not None:
            self._recall_writable(req.block, transition.writeback_from, one_done)

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
            or entry.state is not DirectoryState.EXCLUSIVE
            or entry.owner != req.requester
            or not engine.swi_allowed(req.block)
        ):
            self._finish(req.block)
            return
        recall = entry.recall()
        assert recall.writeback_from == req.requester

        def after_writeback() -> None:
            targets = engine.swi_invalidated(req.block, req.requester)
            self._forward_spec(req.block, targets, origin="swi")
            self._finish(req.block)

        self._recall_writable(req.block, req.requester, after_writeback)

    # ------------------------------------------------------------------
    # protocol sub-operations
    # ------------------------------------------------------------------
    def _invalidate_sharer(
        self, block: BlockId, sharer: NodeId, on_ack: Callable[[], None]
    ) -> None:
        """Send a read-only invalidation; collect the ack."""
        self._send_call(
            self.node, sharer, self._inv_at_sharer_fn, block, sharer, on_ack
        )

    def _inv_at_sharer(
        self, block: BlockId, sharer: NodeId, on_ack: Callable[[], None]
    ) -> None:
        self._ev_call(
            self._local_access, self._inv_after_access_fn, block, sharer, on_ack
        )

    def _inv_after_access(
        self, block: BlockId, sharer: NodeId, on_ack: Callable[[], None]
    ) -> None:
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
            on_ack,
        )

    def _inv_ack_at_home(
        self, block: BlockId, sharer: NodeId, spec_entry, on_ack
    ) -> None:
        if spec_entry is not None and not spec_entry.referenced:
            engine = self._engine
            if engine is not None:
                engine.spec_feedback(block, sharer, used=False)
        on_ack()

    def _recall_writable(
        self, block: BlockId, owner: NodeId, done: Callable[[], None]
    ) -> None:
        """Invalidate + writeback the writable copy, then update memory."""
        engine = self._engine
        if engine is not None:
            # A recalled migratory grant that was never written to is a
            # demotion (the grantee would have been happy with a
            # read-only copy).
            engine.migratory_recalled(block, owner)
        self._send_call(
            self.node, owner, self._recall_at_owner_fn, block, owner, done
        )

    def _recall_at_owner(
        self, block: BlockId, owner: NodeId, done: Callable[[], None]
    ) -> None:
        self._ev_call(
            self._local_access, self._recall_after_access_fn, block, owner, done
        )

    def _recall_after_access(
        self, block: BlockId, owner: NodeId, done: Callable[[], None]
    ) -> None:
        self._machine_nodes[owner].cache._state.pop(block, None)  # invalidate
        self._send_call(owner, self.node, self._recall_writeback_at_home_fn, done)

    def _recall_writeback_at_home(self, done: Callable[[], None]) -> None:
        # Memory update with the written-back data.
        self._ev_call(self._local_access, done)

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
        requester = req.requester
        block = req.block
        # set_state inlined: replies always grant a valid state.
        self._machine_nodes[requester].cache._state[block] = (
            CacheState.EXCLUSIVE if exclusive else CacheState.SHARED
        )
        fill = (
            self._local_access if data and requester != self.node else 0
        )
        if req.on_done is not None:
            self._ev_call(fill, req.on_done, *req.on_done_args)
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
            self._stats_bump(stat_key)
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
