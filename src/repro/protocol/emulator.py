"""Trace-driven protocol emulator.

Turns a per-block :class:`~repro.protocol.epochs.BlockScript` into the
sequence of coherence messages the block's home directory observes.  The
sequence includes the three request kinds *and* the acknowledgement
traffic (invalidation ACKs, WRITEBACKs) that a general message predictor
such as Cosmos must also predict — together with the two race effects
the paper identifies:

* read requests inside a racy read epoch arrive in a random permutation
  (perturbs MSP; eliminated by VMSP's reader vectors), and
* invalidation acknowledgements for racy readers return in a random
  permutation (perturbs Cosmos; eliminated by MSP's request filtering).

Races are drawn from a per-block deterministic RNG stream, so results
are reproducible and independent of block iteration order.

One per-block walk emits every message as int columns (kind code,
sender); :meth:`ProtocolEmulator.compile` keeps them as columns and
:meth:`ProtocolEmulator.messages_for` boxes them into
:class:`~repro.common.types.Message` objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.common.rng import DeterministicRng
from repro.common.types import KIND_CODES, KIND_TO_CODE, Message, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch

_UPGRADE_KIND = MessageKind.UPGRADE
_READ = KIND_TO_CODE[MessageKind.READ]
_WRITE = KIND_TO_CODE[MessageKind.WRITE]
_UPGRADE = KIND_TO_CODE[_UPGRADE_KIND]
_ACK = KIND_TO_CODE[MessageKind.ACK]
_WRITEBACK = KIND_TO_CODE[MessageKind.WRITEBACK]


class ProtocolEmulator:
    """Replays block scripts through the directory FSM."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def _walk(self, script: BlockScript, kinds: list[int], nodes: list[int]) -> None:
        """Append one block's message stream to the int columns.

        ``kinds`` receives :data:`~repro.common.types.KIND_TO_CODE`
        codes and ``nodes`` the senders.

        Invalidation acknowledgements normally return in full-map order
        — the directory walks its sharer bitmap when sending
        invalidations, and with minimal queueing the responses come back
        in the same order (the paper's barnes discussion, Section 7.1).
        Sharers acquired during a ``racy_acks`` read epoch instead
        acknowledge in a random permutation.
        """
        rng = self._rng.split(f"block-{script.block}")
        directory = BlockDirectory()
        read, write = directory.read, directory.write
        # Sharers that will acknowledge a future invalidation in racy order.
        racy_ack_members: set[NodeId] = set()
        add_kind, add_node = kinds.append, nodes.append
        for epoch in script.epochs:
            if isinstance(epoch, ReadEpoch):
                arrival = epoch.readers
                if epoch.racy and len(arrival) > 1:
                    arrival = list(arrival)
                    rng.shuffle(arrival)
                for reader in arrival:
                    transition = read(reader)
                    if transition.request is None:
                        continue
                    add_kind(_READ)
                    add_node(reader)
                    if transition.writeback_from is not None:
                        add_kind(_WRITEBACK)
                        add_node(transition.writeback_from)
                    if epoch.racy_acks:
                        racy_ack_members.add(reader)
            elif isinstance(epoch, WriteEpoch):
                transition = write(epoch.writer)
                if transition.request is None:
                    continue
                # an identity test: hashing an enum member runs Python code
                upgrade = transition.request is _UPGRADE_KIND
                add_kind(_UPGRADE if upgrade else _WRITE)
                add_node(epoch.writer)
                if transition.writeback_from is not None:
                    add_kind(_WRITEBACK)
                    add_node(transition.writeback_from)
                if transition.invalidated:
                    acks = list(transition.invalidated)  # full-map order
                    if racy_ack_members & set(acks) and len(acks) > 1:
                        rng.shuffle(acks)
                    kinds.extend([_ACK] * len(acks))
                    nodes.extend(acks)
                racy_ack_members.clear()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown epoch type: {epoch!r}")

    def messages_for(self, script: BlockScript) -> list[Message]:
        """The home-directory message stream for one block."""
        kinds: list[int] = []
        nodes: list[int] = []
        self._walk(script, kinds, nodes)
        block = script.block
        return [
            Message(kind=KIND_CODES[code], node=node, block=block)
            for code, node in zip(kinds, nodes)
        ]

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
        # Imported here so the protocol layer stays importable without
        # pulling numpy in (repro.trace requires it).
        from repro.trace.compiled import CompiledTrace

        kinds: list[int] = []
        nodes: list[int] = []
        blocks: list[int] = []
        for script in scripts:
            before = len(kinds)
            self._walk(script, kinds, nodes)
            blocks.extend([script.block] * (len(kinds) - before))
        return CompiledTrace.from_columns(
            kinds=kinds, nodes=nodes, blocks=blocks, num_nodes=num_nodes
        )
