"""Per-block full-map directory state machine.

This is the protocol of Figure 1 in the paper: every block is Idle
(no remote copies), Shared (one or more read-only copies, tracked in a
full-map sharer set), or Exclusive (a single writable copy).  The class
is pure state-transition logic — it reports which coherence messages a
transition generates but attaches no timing, so both the trace-driven
emulator and the event-driven timing simulator can drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import DirectoryState, MessageKind, NodeId

# Module-level aliases: the emulator and the timing home call these
# transitions once per request, and a global load is cheaper than a
# class-attribute lookup through the enum's metaclass.
_IDLE = DirectoryState.IDLE
_SHARED = DirectoryState.SHARED
_EXCLUSIVE = DirectoryState.EXCLUSIVE
_READ = MessageKind.READ
_WRITE = MessageKind.WRITE
_UPGRADE = MessageKind.UPGRADE


class ProtocolError(RuntimeError):
    """An access sequence violated the protocol's assumptions."""


@dataclass(slots=True)
class Transition:
    """Outcome of presenting one request to the directory.

    ``request``    — the request kind the access turned into, or None if
                     the access was satisfied locally (no message).
    ``invalidated``— sharers that received read-only invalidations and
                     will respond with ACK messages.
    ``writeback_from`` — previous exclusive owner forced to write back.
    """

    request: MessageKind | None = None
    invalidated: tuple[NodeId, ...] = ()
    writeback_from: NodeId | None = None

    @property
    def generated_request(self) -> bool:
        return self.request is not None


@dataclass(slots=True)
class BlockDirectory:
    """Directory entry for a single memory block."""

    state: DirectoryState = DirectoryState.IDLE
    sharers: set[NodeId] = field(default_factory=set)
    owner: NodeId | None = None

    def holders(self) -> frozenset[NodeId]:
        """All nodes currently holding a valid copy."""
        if self.state is _EXCLUSIVE:
            assert self.owner is not None
            return frozenset({self.owner})
        return frozenset(self.sharers)

    def has_valid_copy(self, node: NodeId) -> bool:
        return node in self.holders()

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def read(self, reader: NodeId) -> Transition:
        """Present a load by ``reader``; return the protocol actions."""
        if self.state is _IDLE:
            self.state = _SHARED
            self.sharers = {reader}
            return Transition(request=_READ)
        if self.state is _SHARED:
            if reader in self.sharers:
                return Transition()  # cache hit, no message
            self.sharers.add(reader)
            return Transition(request=_READ)
        # EXCLUSIVE
        assert self.owner is not None
        if reader == self.owner:
            return Transition()  # owner hits in its own cache
        previous_owner = self.owner
        self.state = _SHARED
        self.sharers = {reader}
        self.owner = None
        return Transition(
            request=_READ, writeback_from=previous_owner
        )

    def write(self, writer: NodeId) -> Transition:
        """Present a store by ``writer``; return the protocol actions."""
        if self.state is _IDLE:
            self.state = _EXCLUSIVE
            self.owner = writer
            return Transition(request=_WRITE)
        if self.state is _SHARED:
            others = tuple(sorted(self.sharers - {writer}))
            kind = (
                _UPGRADE
                if writer in self.sharers
                else _WRITE
            )
            self.state = _EXCLUSIVE
            self.sharers = set()
            self.owner = writer
            return Transition(request=kind, invalidated=others)
        # EXCLUSIVE
        assert self.owner is not None
        if writer == self.owner:
            return Transition()  # silent upgrade in own cache
        previous_owner = self.owner
        self.owner = writer
        return Transition(
            request=_WRITE, writeback_from=previous_owner
        )

    def recall(self) -> Transition:
        """Invalidate all copies and return the block to Idle.

        Used by Speculative Write-Invalidation: the directory recalls the
        writable copy early.  Recalling a Shared block invalidates the
        read-only copies; recalling an Idle block is a no-op.
        """
        if self.state is _IDLE:
            return Transition()
        if self.state is _SHARED:
            invalidated = tuple(sorted(self.sharers))
            self.state = _IDLE
            self.sharers = set()
            return Transition(invalidated=invalidated)
        assert self.owner is not None
        previous_owner = self.owner
        self.state = _IDLE
        self.owner = None
        return Transition(writeback_from=previous_owner)

    def grant_speculative_copy(self, node: NodeId) -> bool:
        """Record a speculatively forwarded read-only copy.

        Returns False (and changes nothing) when the block is writable
        somewhere or the node already holds a copy — the cases where the
        protocol would not send a speculative copy.
        """
        if self.state is _EXCLUSIVE:
            return False
        if node in self.sharers:
            return False
        self.state = _SHARED
        self.sharers.add(node)
        return True

    def invalidate_sharer(self, node: NodeId) -> None:
        """Drop one sharer (used when a speculative copy is discarded)."""
        self.sharers.discard(node)
        if not self.sharers and self.state is _SHARED:
            self.state = _IDLE

    def promote_sole_sharer(self, node: NodeId) -> bool:
        """Upgrade the block's only sharer to exclusive ownership.

        Used by the migratory-write extension: a read predicted to be
        followed by the same processor's upgrade is granted exclusively,
        executing the upgrade speculatively.  Refused (returning False)
        unless the node is the block's sole holder.
        """
        if self.state is not _SHARED or self.sharers != {node}:
            return False
        self.state = _EXCLUSIVE
        self.owner = node
        self.sharers = set()
        return True
