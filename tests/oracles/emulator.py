"""Message-at-a-time protocol emulation (reference oracle).

The emulator as it was before it wrote int columns: every message is a
:class:`~repro.common.types.Message` paired with its epoch ordinal.
:class:`~repro.protocol.emulator.ProtocolEmulator`'s columns and
``run()`` stream are tested against this class
(``tests/protocol/test_emulator_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.common.rng import DeterministicRng
from repro.common.types import KIND_TO_CODE, Message, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch
from repro.trace.compiled import CompiledTrace


class ReferenceEmulator:
    """Replays block scripts through the directory FSM."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def messages_for(self, script: BlockScript) -> list[Message]:
        """The home-directory message stream for one block."""
        return [message for _epoch, message in self.script_events(script)]

    def script_events(
        self, script: BlockScript
    ) -> list[tuple[int, Message]]:
        """``(epoch_index, message)`` pairs for one block's script.

        Invalidation acknowledgements normally return in full-map order
        — the directory walks its sharer bitmap when sending
        invalidations, and with minimal queueing the responses come back
        in the same order (the paper's barnes discussion, Section 7.1).
        Sharers acquired during a ``racy_acks`` read epoch instead
        acknowledge in a random permutation.
        """
        rng = self._rng.split(f"block-{script.block}")
        directory = BlockDirectory()
        # Sharers that will acknowledge a future invalidation in racy order.
        racy_ack_members: set[NodeId] = set()
        out: list[tuple[int, Message]] = []
        epoch_index = 0

        def emit(kind: MessageKind, node: NodeId) -> None:
            out.append(
                (epoch_index, Message(kind=kind, node=node, block=script.block))
            )

        for epoch_index, epoch in enumerate(script.epochs):
            if isinstance(epoch, ReadEpoch):
                arrival = list(epoch.readers)
                if epoch.racy and len(arrival) > 1:
                    rng.shuffle(arrival)
                for reader in arrival:
                    transition = directory.read(reader)
                    if not transition.generated_request:
                        continue
                    emit(MessageKind.READ, reader)
                    if transition.writeback_from is not None:
                        emit(MessageKind.WRITEBACK, transition.writeback_from)
                    if epoch.racy_acks:
                        racy_ack_members.add(reader)
            elif isinstance(epoch, WriteEpoch):
                transition = directory.write(epoch.writer)
                if not transition.generated_request:
                    continue
                assert transition.request is not None
                emit(transition.request, epoch.writer)
                if transition.writeback_from is not None:
                    emit(MessageKind.WRITEBACK, transition.writeback_from)
                if transition.invalidated:
                    acks = list(transition.invalidated)  # full-map order
                    if racy_ack_members & set(acks) and len(acks) > 1:
                        rng.shuffle(acks)
                    for node in acks:
                        emit(MessageKind.ACK, node)
                racy_ack_members.clear()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown epoch type: {epoch!r}")
        return out

    def run(
        self, scripts: Iterable[BlockScript]
    ) -> Iterator[tuple[int, list[Message]]]:
        """Yield ``(block, messages)`` for every script."""
        for script in scripts:
            yield script.block, self.messages_for(script)

    def compile(
        self, scripts: Iterable[BlockScript], num_nodes: int
    ) -> "CompiledTrace":
        """Compile every script's message stream into one columnar trace.

        The result is bit-equivalent to :meth:`run`: decoding the trace
        (:meth:`~repro.trace.compiled.CompiledTrace.to_messages`) yields
        exactly the messages ``run`` would, in the same block-major
        order.  Races draw from the same per-block RNG streams, so
        compiling and replaying are interchangeable.
        """
        kinds: list[int] = []
        nodes: list[int] = []
        blocks: list[int] = []
        for script in scripts:
            for _epoch, message in self.script_events(script):
                kinds.append(KIND_TO_CODE[message.kind])
                nodes.append(message.node)
                blocks.append(message.block)
        return CompiledTrace.from_columns(
            kinds=kinds, nodes=nodes, blocks=blocks, num_nodes=num_nodes
        )
