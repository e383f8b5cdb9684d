"""Timing-level home directory (reference oracle): the protocol engine
of one node.

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

This closure-based home is the frozen baseline the product
:class:`repro.sim.home.HomeDirectory` is gated against; every protocol
hop allocates a closure and goes through the reference event queue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.common.types import BlockId, DirectoryState, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.sim.home import MemRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class ReferenceHomeDirectory:
    """Directory controller for all blocks homed at one node."""

    def __init__(self, node: NodeId, machine: "Machine") -> None:
        self.node = node
        self._m = machine
        self._entries: dict[BlockId, BlockDirectory] = {}
        self._busy: set[BlockId] = set()
        self._queues: dict[BlockId, deque[MemRequest]] = {}

    def entry(self, block: BlockId) -> BlockDirectory:
        if block not in self._entries:
            self._entries[block] = BlockDirectory()
        return self._entries[block]

    # ------------------------------------------------------------------
    # request intake and per-block serialization
    # ------------------------------------------------------------------
    def request(self, req: MemRequest) -> None:
        self._queues.setdefault(req.block, deque()).append(req)
        if req.block not in self._busy:
            self._begin_next(req.block)

    def _begin_next(self, block: BlockId) -> None:
        queue = self._queues.get(block)
        if not queue:
            return
        self._busy.add(block)
        req = queue.popleft()
        # Directory lookup + memory access.
        self._m.events.schedule(
            self._m.config.local_access_cycles, lambda: self._dispatch(req)
        )

    def _finish(self, block: BlockId) -> None:
        self._busy.discard(block)
        self._begin_next(block)

    # ------------------------------------------------------------------
    # transaction dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, req: MemRequest) -> None:
        if req.kind == "read":
            self._do_read(req)
        elif req.kind == "write":
            self._do_write(req)
        elif req.kind == "swi-recall":
            self._do_swi_recall(req)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request kind {req.kind!r}")

    def _do_read(self, req: MemRequest) -> None:
        entry = self.entry(req.block)
        if entry.has_valid_copy(req.requester):
            # The requester was granted a speculative copy while this
            # request was in flight; just supply the data (the node
            # dropped the speculative message — Section 4.2).
            self._reply_data(req, exclusive=False)
            return
        transition = entry.read(req.requester)
        self._m.count_request(transition.request, req.block)
        engine = self._m.engine_for(self.node)
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
        engine = self._m.engine_for(self.node)
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
        engine = self._m.engine_for(self.node)
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

        def at_sharer() -> None:
            def after_access() -> None:
                node = self._m.node(sharer)
                node.cache.invalidate(block)
                spec_entry = node.remote_cache.evict(block)

                def at_home() -> None:
                    if spec_entry is not None and not spec_entry.referenced:
                        engine = self._m.engine_for(self.node)
                        if engine is not None:
                            engine.spec_feedback(block, sharer, used=False)
                    on_ack()

                self._m.net.send(sharer, self.node, at_home)

            self._m.events.schedule(
                self._m.config.local_access_cycles, after_access
            )

        self._m.net.send(self.node, sharer, at_sharer)

    def _recall_writable(
        self, block: BlockId, owner: NodeId, done: Callable[[], None]
    ) -> None:
        """Invalidate + writeback the writable copy, then update memory."""
        engine = self._m.engine_for(self.node)
        if engine is not None:
            # A recalled migratory grant that was never written to is a
            # demotion (the grantee would have been happy with a
            # read-only copy).
            engine.migratory_recalled(block, owner)

        def at_owner() -> None:
            def after_access() -> None:
                self._m.node(owner).cache.invalidate(block)

                def at_home() -> None:
                    # Memory update with the written-back data.
                    self._m.events.schedule(
                        self._m.config.local_access_cycles, done
                    )

                self._m.net.send(owner, self.node, at_home)

            self._m.events.schedule(
                self._m.config.local_access_cycles, after_access
            )

        self._m.net.send(self.node, owner, at_owner)

    def _reply_data(
        self, req: MemRequest, exclusive: bool, data: bool = True
    ) -> None:
        """Send the reply; the transaction retires on delivery."""
        from repro.sim.caches import CacheState

        def deliver() -> None:
            node = self._m.node(req.requester)
            node.cache.set_state(
                req.block,
                CacheState.EXCLUSIVE if exclusive else CacheState.SHARED,
            )
            fill = (
                self._m.config.local_access_cycles
                if data and req.requester != self.node
                else 0
            )
            if req.on_done is not None:
                self._m.events.schedule(fill, req.on_done)
            self._finish(req.block)

        self._m.net.send(self.node, req.requester, deliver)

    # ------------------------------------------------------------------
    # speculative forwarding
    # ------------------------------------------------------------------
    def _forward_spec(
        self, block: BlockId, targets: frozenset[NodeId], origin: str
    ) -> None:
        engine = self._m.engine_for(self.node)
        if engine is None or not targets:
            return
        entry = self.entry(block)
        for target in sorted(targets):
            if not entry.grant_speculative_copy(target):
                continue
            engine.record_spec_sent(block, target, origin)
            self._m.stats.bump(f"spec_sent_{origin}")

            def deliver(target: NodeId = target) -> None:
                node = self._m.node(target)
                if node.processor.waiting_for(block):
                    # Race with an in-flight request: drop the
                    # speculative message (Section 4.2).
                    engine.spec_feedback(block, target, used=False, raced=True)
                    return
                if node.cache.can_read(block):
                    return
                node.remote_cache.place(block, origin)

            self._m.net.send(self.node, target, deliver)
