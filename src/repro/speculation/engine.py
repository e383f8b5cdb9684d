"""FR / SWI speculation controller for one home directory.

One engine instance runs per home node.  It owns that home's VMSP
(history depth one, as in the paper's speculative DSM evaluation) and
the early-write-invalidate table, observes every request the directory
processes, and tells the home which speculative actions to take.  It
never mutates protocol state itself — the home executes ordinary
protocol operations on its advice (Section 4.2: no protocol changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import BlockId, MessageKind, NodeId
from repro.predictors.base import HistoryKey, ReadVector
from repro.predictors.swi import EarlyWriteInvalidateTable
from repro.predictors.vmsp import Vmsp

_READ = MessageKind.READ
#: Returned whenever a request triggers no speculative copy.
_NO_TARGETS: frozenset[NodeId] = frozenset()


@dataclass(slots=True)
class SpeculationStats:
    """Per-home speculation counters (aggregated for Table 5)."""

    fr_sent: int = 0
    fr_used: int = 0
    fr_missed: int = 0
    swi_sent: int = 0
    swi_used: int = 0
    swi_missed: int = 0
    wi_sent: int = 0
    wi_premature: int = 0
    race_dropped: int = 0
    migratory_grants: int = 0
    migratory_upgrades_saved: int = 0
    migratory_demotions: int = 0

    def merge(self, other: "SpeculationStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(slots=True)
class _PendingSwi:
    """An SWI invalidation awaiting its verdict (next request to block)."""

    writer: NodeId
    history: HistoryKey


class SpeculationEngine:
    """Per-home-node FR/SWI decision logic."""

    def __init__(
        self,
        home: NodeId,
        swi_enabled: bool,
        depth: int = 1,
        migratory_enabled: bool = False,
    ) -> None:
        self.home = home
        self.swi_enabled = swi_enabled
        #: Extension beyond the paper (its stated future work): detect
        #: migratory read+upgrade pairs and grant the read exclusively,
        #: executing the predicted upgrade speculatively.
        self.migratory_enabled = migratory_enabled
        self.predictor = Vmsp(depth=depth)
        self.ewi = EarlyWriteInvalidateTable()
        self.stats = SpeculationStats()
        #: (origin, history, predicted token) per outstanding copy.
        self._spec_context: dict[
            tuple[BlockId, NodeId], tuple[str, HistoryKey, object]
        ] = {}
        #: SWI invalidations awaiting confirmation.
        self._pending_swi: dict[BlockId, _PendingSwi] = {}
        #: Migratory exclusive grants awaiting a store from the grantee.
        self._pending_migratory: dict[BlockId, NodeId] = {}

    # ------------------------------------------------------------------
    # request observation
    # ------------------------------------------------------------------
    def observe_read(self, block: BlockId, reader: NodeId) -> frozenset[NodeId]:
        """Observe a read request; return FR forwarding targets.

        The first read of a sequence (empty open run) triggers
        speculation for the rest of the predicted read vector
        (Section 4.1).  Later reads of the same run trigger nothing.
        The VMSP's learn-only ``observe_request`` adds the reader to
        the open run and says whether it opened the run.  Every
        no-target path returns one shared empty frozenset.
        """
        if self._pending_swi:
            self._resolve_swi(block, reader)
        predictor = self.predictor
        if not predictor.observe_request(_READ, reader, block):
            return _NO_TARGETS
        # The run is now exactly {reader}, so the remaining predicted
        # readers already exclude the requester.
        return predictor.predicted_read_vector(block) or _NO_TARGETS

    def observe_write(
        self, block: BlockId, kind: MessageKind, writer: NodeId
    ) -> None:
        """Observe a write/upgrade request arriving at this home."""
        if self._pending_swi:
            self._resolve_swi(block, writer)
        self.predictor.observe_request(kind, writer, block)

    # ------------------------------------------------------------------
    # migratory write speculation (extension; the paper's future work)
    # ------------------------------------------------------------------
    def predicts_migratory_writer(self, block: BlockId, reader: NodeId) -> bool:
        """Whether the reader is predicted to upgrade the block next.

        Migratory sharing appears to a VMSP as a singleton read vector
        followed by a write/upgrade from the *same* processor
        (Section 4.1: "the arrival of the read by the processor may
        readily trigger speculation for the upgrade").  When the open
        run is exactly this reader and the entry after the predicted
        vector names the reader as the next writer, granting the read
        exclusively executes the upgrade speculatively.
        """
        if not self.migratory_enabled:
            return False
        history = self.predictor.current_history(block)
        predicted = self.predictor.predicted_next(block)
        if not isinstance(predicted, ReadVector):
            return False
        if predicted.readers != frozenset({reader}):
            return False
        if self.predictor.confidence(block, history) < 1:
            return False
        follow_key = (history + (predicted,))[-self.predictor.depth :]
        follow = self.predictor._patterns.get(block, {}).get(follow_key)
        return follow is not None and not isinstance(follow, ReadVector) and follow[1] == reader

    def record_migratory_grant(self, block: BlockId, reader: NodeId) -> None:
        self.stats.migratory_grants += 1
        self._pending_migratory[block] = reader

    def migratory_written(self, block: BlockId, writer: NodeId) -> None:
        """The grantee stored to its exclusively granted copy: a win.

        The store never reaches the directory (that is the point), so
        the engine observes the speculatively executed upgrade itself —
        otherwise the block's read runs would never close and the
        pattern tables would decay while speculation hides requests.
        """
        if self._pending_migratory.get(block) != writer:
            return
        del self._pending_migratory[block]
        self.stats.migratory_upgrades_saved += 1
        self.observe_write(block, MessageKind.UPGRADE, writer)

    def migratory_recalled(self, block: BlockId, owner: NodeId) -> None:
        """The grant was recalled before any store: a demotion."""
        if self._pending_migratory.get(block) == owner:
            del self._pending_migratory[block]
            self.stats.migratory_demotions += 1

    def migratory_pending(self, block: BlockId) -> NodeId | None:
        return self._pending_migratory.get(block)

    def swi_allowed(self, block: BlockId) -> bool:
        """Whether an SWI recall of ``block`` may proceed.

        False when SWI is disabled or the block's current write pattern
        entry carries the premature-invalidation suppression bit
        (Section 4.2).
        """
        if not self.swi_enabled:
            return False
        history = self.predictor.current_history(block)
        return not self.ewi.is_suppressed(block, history)

    # ------------------------------------------------------------------
    # SWI lifecycle
    # ------------------------------------------------------------------
    def swi_invalidated(self, block: BlockId, writer: NodeId) -> frozenset[NodeId]:
        """The SWI recall of ``block`` completed; return read targets.

        The writer itself stays a valid target: a producer that re-reads
        its own data later (tomcatv's stencil) appears in the predicted
        read vector and receives a read-only copy back, which is how the
        paper's SWI-DSM speculatively covers the producer's reads too
        (Section 7.4).
        """
        self.stats.wi_sent += 1
        history = self.predictor.current_history(block)
        self._pending_swi[block] = _PendingSwi(writer=writer, history=history)
        return self.predictor.predicted_read_vector(block) or _NO_TARGETS

    def _resolve_swi(self, block: BlockId, requester: NodeId) -> None:
        """The next request for an SWI-recalled block is its verdict."""
        pending = self._pending_swi.pop(block, None)
        if pending is None:
            return
        if requester == pending.writer:
            # The producer came back: the invalidation was premature.
            self.stats.wi_premature += 1
            self.ewi.suppress(block, pending.history)

    # ------------------------------------------------------------------
    # speculative-copy bookkeeping and verification
    # ------------------------------------------------------------------
    def record_spec_sent(
        self, block: BlockId, target: NodeId, origin: str
    ) -> None:
        history = self.predictor.current_history(block)
        predicted = self.predictor.predicted_next(block)
        self._spec_context[(block, target)] = (origin, history, predicted)
        if origin == "swi":
            self.stats.swi_sent += 1
        else:
            self.stats.fr_sent += 1

    def spec_feedback(
        self, block: BlockId, target: NodeId, used: bool, raced: bool = False
    ) -> None:
        """Reference-bit verdict for a speculative copy (Section 4.2)."""
        context = self._spec_context.pop((block, target), None)
        if context is None:
            return
        origin, history, predicted = context
        if raced:
            self.stats.race_dropped += 1
            return
        if used:
            # A consumed copy confirms any pending SWI recall of this
            # block: the producer really was done writing.
            self._pending_swi.pop(block, None)
            # Only now does the pushed reader count as a performed read:
            # learning it at push time would let a mispredicted reader
            # re-enter the learned vector and re-push itself forever.
            self.predictor.observe_speculative_read(block, target)
            if origin == "swi":
                self.stats.swi_used += 1
            else:
                self.stats.fr_used += 1
            return
        if origin == "swi":
            self.stats.swi_missed += 1
        else:
            self.stats.fr_missed += 1
        # Remove the mispredicted sequence from the pattern tables —
        # but only if ordinary learning has not already replaced it.
        self.predictor.remove_entry(block, history, expected=predicted)
