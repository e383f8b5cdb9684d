"""VMSP — the Vector Memory Sharing Predictor (paper Section 3.1).

A full-map protocol lets any number of processors hold read-only copies
simultaneously, so a predictor need only identify *which* processors
read a block — not the order in which their requests happen to arrive.
VMSP therefore folds each read sequence (the reads between two writes)
into a single reader bit-vector token, the way a full-map directory
encodes its sharer list.  Re-ordered reads that would thrash MSP's
pattern tables map to the same vector and predict correctly.

Scoring semantics (per-message, matching Figure 7 / Table 3 accounting):

* an arriving read is CORRECT when the pattern table predicts a vector
  containing that (not yet seen) reader, WRONG when a different token is
  predicted, and UNPREDICTED when the table has no entry;
* the write/upgrade that closes a read sequence first commits the
  observed vector to the tables, then is itself scored against the
  entry keyed by the updated history.
"""

from __future__ import annotations

from repro.common.types import BlockId, Message, MessageKind, NodeId
from repro.predictors.base import (
    DirectoryPredictor,
    Outcome,
    ReadVector,
    Token,
)
from repro.predictors.storage import (
    StorageProfile,
    request_token_bits,
    vmsp_tokens_bits,
)

_READ = MessageKind.READ
#: The open run of a block no read has reached yet.
_NO_READERS: frozenset[NodeId] = frozenset()


class Vmsp(DirectoryPredictor):
    """Two-level predictor with vector-encoded read sequences."""

    name = "VMSP"

    def __init__(self, depth: int = 1) -> None:
        super().__init__(depth=depth)
        self._runs: dict[BlockId, set[NodeId]] = {}

    def observe(self, message: Message) -> Outcome:
        if not message.is_request:
            self.stats.record(Outcome.IGNORED)
            return Outcome.IGNORED
        block = message.block
        if message.kind is MessageKind.READ:
            outcome = self._observe_read(block, message.node)
        else:
            outcome = self._observe_write(block, message.token)
        self.stats.record(outcome)
        return outcome

    def observe_request(self, kind: MessageKind, node: NodeId, block: BlockId) -> bool:
        """Learn one request without scoring it or boxing it in a
        :class:`Message`; return whether it was a read that opened the
        block's run.

        The speculation engine's path: one call per directory
        transaction.  A read joins the block's open run; a write or
        upgrade closes the run and learns its own token in one pass
        (one history read and one history write).  The tables end up
        exactly as :meth:`observe` leaves them — the reference
        speculation engine in ``tests/oracles/`` keeps feeding
        ``observe``, and the equivalence suites gate the two — but
        nothing is scored, so :attr:`stats` does not move.
        """
        if kind is _READ:
            run = self._runs.get(block)
            if run is None:
                self._runs[block] = {node}
                return True
            opened = not run
            run.add(node)
            return opened
        history = self._history.get(block, ())
        run = self._runs.get(block)
        if run:
            vector = ReadVector(frozenset(run))
            self._learn(block, history, vector)
            history = (history + (vector,))[-self.depth :]
            run.clear()
        token = (kind, node)
        self._learn(block, history, token)
        self._history[block] = (history + (token,))[-self.depth :]
        return False

    # ------------------------------------------------------------------
    # reads: scored against the currently predicted vector
    # ------------------------------------------------------------------
    def _observe_read(self, block: BlockId, node: NodeId) -> Outcome:
        history = self._history.get(block, ())
        run = self._runs.setdefault(block, set())
        outcome = self._score_read(block, history, run, node)
        run.add(node)
        return outcome

    def _score_read(
        self,
        block: BlockId,
        history: tuple[Token, ...],
        run: set[NodeId],
        node: NodeId,
    ) -> Outcome:
        if len(history) < self.depth:
            return Outcome.UNPREDICTED
        predicted = self._patterns.get(block, {}).get(history)
        if predicted is None:
            return Outcome.UNPREDICTED
        if isinstance(predicted, ReadVector):
            if node in predicted and node not in run:
                return Outcome.CORRECT
            return Outcome.WRONG
        return Outcome.WRONG  # a write/upgrade was predicted instead

    # ------------------------------------------------------------------
    # writes: close any open run, then standard two-level scoring
    # ------------------------------------------------------------------
    def _observe_write(self, block: BlockId, token: Token) -> Outcome:
        self._close_run(block)
        return self._observe_token(block, token)

    def _close_run(self, block: BlockId) -> None:
        run = self._runs.get(block)
        if not run:
            return
        vector = ReadVector(frozenset(run))
        history = self._history.get(block, ())
        self._learn(block, history, vector)
        self._history[block] = (history + (vector,))[-self.depth :]
        self._runs[block] = set()

    def flush(self) -> None:
        """Commit still-open read runs (end of trace) to the tables."""
        for block in list(self._runs):
            self._close_run(block)

    # ------------------------------------------------------------------
    # speculation support
    # ------------------------------------------------------------------
    def predicted_read_vector(self, block: BlockId) -> frozenset[NodeId] | None:
        """Readers predicted for the block's current/next read sequence.

        Returns the *remaining* predicted readers — the predicted vector
        minus any readers already observed in the open run — or None
        when no vector is predicted or the entry's speculation
        confidence has been exhausted by thrashing.  This is what
        First-Read and SWI speculation forward copies to (Section 4.1).
        """
        predicted = self.predicted_next(block)
        if not isinstance(predicted, ReadVector):
            return None
        history = self._history.get(block, ())
        if self.confidence(block, history) < 1:
            return None
        return frozenset(predicted.readers - self._runs.get(block, _NO_READERS))

    def open_run(self, block: BlockId) -> frozenset[NodeId]:
        """Readers observed since the last write (the open sequence)."""
        return frozenset(self._runs.get(block, set()))

    def observe_speculative_read(self, block: BlockId, node: NodeId) -> None:
        """Record a speculatively *performed* read without scoring it.

        When the home pushes a read-only copy to a predicted reader, the
        reader's request never arrives (it hits the pushed copy
        locally), so the home treats the push as the read itself.  This
        keeps the tables trained while speculation is hiding requests
        (Section 4.2's verification loop corrects the tables when the
        push turns out to be wrong).
        """
        self._runs.setdefault(block, set()).add(node)

    @classmethod
    def storage_profile(cls, num_nodes: int, depth: int) -> StorageProfile:
        # A pattern entry holds depth + 1 alternating tokens (key plus
        # prediction); at depth one that is 18 + 6 bits, because a vector
        # is always followed by a write or upgrade (Section 7.3).
        history_bits = vmsp_tokens_bits(num_nodes, depth)
        prediction_bits = vmsp_tokens_bits(num_nodes, depth + 1) - history_bits
        return StorageProfile(
            history_bits=history_bits,
            pattern_entry_bits=history_bits + prediction_bits,
        )
