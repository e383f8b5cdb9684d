"""The speculation engine's Message-boxed observe path (reference oracle).

The product :class:`repro.speculation.engine.SpeculationEngine` presents
each request to its VMSP once, through the learn-only
``observe_request``, which scores nothing and says whether a read
opened the block's run.  This subclass keeps the original path — one
:class:`~repro.common.types.Message` per request through the scoring
``observe`` and ``open_run`` — so the reference machine exercises the
predictor's other entry points and the equivalence suites prove both
learn the same tables and make the same speculative sends.
"""

from __future__ import annotations

from repro.common.types import BlockId, Message, MessageKind, NodeId
from repro.speculation.engine import SpeculationEngine


class ReferenceSpeculationEngine(SpeculationEngine):
    """Per-home-node FR/SWI decision logic over Message-boxed requests."""

    def observe_read(self, block: BlockId, reader: NodeId) -> frozenset[NodeId]:
        """Observe a read request; return FR forwarding targets.

        The first read of a sequence (empty open run) triggers
        speculation for the rest of the predicted read vector
        (Section 4.1).  Later reads of the same run trigger nothing.
        """
        self._resolve_swi(block, reader)
        first_of_run = not self.predictor.open_run(block)
        self.predictor.observe(
            Message(kind=MessageKind.READ, node=reader, block=block)
        )
        if not first_of_run:
            return frozenset()
        predicted = self.predictor.predicted_read_vector(block)
        if predicted is None:
            return frozenset()
        return frozenset(predicted - {reader})

    def observe_write(
        self, block: BlockId, kind: MessageKind, writer: NodeId
    ) -> None:
        """Observe a write/upgrade request arriving at this home."""
        self._resolve_swi(block, writer)
        self.predictor.observe(Message(kind=kind, node=writer, block=block))
