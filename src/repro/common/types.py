"""Core vocabulary types for the DSM coherence machinery.

The paper (Section 2) distinguishes two families of coherence messages
arriving at a home directory:

* *request* messages — ``READ``, ``WRITE``, and ``UPGRADE`` — issued by a
  processor that wants a copy of a memory block, and
* *acknowledgement* messages — ``ACK`` (response to a read-only
  invalidation) and ``WRITEBACK`` (response to an invalidation of a
  writable copy) — which are always direct consequences of protocol
  actions.

A general message predictor (Cosmos) predicts all five kinds; a Memory
Sharing Predictor only predicts the three request kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NodeId = int
BlockId = int


class AccessKind(enum.Enum):
    """A processor-level memory access, before protocol translation."""

    LOAD = "load"
    STORE = "store"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessKind.{self.name}"


class MessageKind(enum.Enum):
    """Kinds of coherence messages observed at a home directory.

    Members hash by identity (``object.__hash__``, a C slot) instead of
    ``Enum.__hash__``'s Python-level ``hash(self._name_)``: every
    pattern-table key holding a ``(kind, node)`` token hashes its kind.
    Members are singletons compared by identity, so equality is
    unchanged.
    """

    __hash__ = object.__hash__

    READ = "read"
    WRITE = "write"
    UPGRADE = "upgrade"
    ACK = "ack"
    WRITEBACK = "writeback"

    @property
    def is_request(self) -> bool:
        """True for the three memory-request kinds MSPs predict."""
        return self in REQUEST_KINDS

    @property
    def is_ack(self) -> bool:
        """True for protocol acknowledgements (ack / writeback)."""
        return self in ACK_KINDS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MessageKind.{self.name}"


REQUEST_KINDS = frozenset(
    {MessageKind.READ, MessageKind.WRITE, MessageKind.UPGRADE}
)
ACK_KINDS = frozenset({MessageKind.ACK, MessageKind.WRITEBACK})

#: Fixed integer encoding of message kinds: code = index into this
#: tuple.  Codes 0..2 are the request kinds (READ/WRITE/UPGRADE),
#: matching :data:`REQUEST_KINDS`; 3..4 are acknowledgements.
KIND_CODES: tuple[MessageKind, ...] = (
    MessageKind.READ,
    MessageKind.WRITE,
    MessageKind.UPGRADE,
    MessageKind.ACK,
    MessageKind.WRITEBACK,
)

#: kind -> code.
KIND_TO_CODE: dict[MessageKind, int] = {k: i for i, k in enumerate(KIND_CODES)}

#: Codes <= this value are request messages.
MAX_REQUEST_CODE = KIND_TO_CODE[MessageKind.UPGRADE]


@dataclass(frozen=True, slots=True)
class Message:
    """A coherence message as it arrives at a block's home directory.

    ``block`` is the memory block the message concerns and ``node`` the
    processor that sent it.  Messages compare by value so predictors can
    use them directly as pattern-table tokens.
    """

    kind: MessageKind
    node: NodeId
    block: BlockId

    @property
    def is_request(self) -> bool:
        return self.kind.is_request

    @property
    def token(self) -> tuple[MessageKind, NodeId]:
        """The (kind, node) pair used as a predictor token.

        The block id is implicit: history and pattern tables are indexed
        per block, so tokens never need to repeat it.
        """
        return (self.kind, self.node)

    def __str__(self) -> str:
        return f"<{self.kind.value},P{self.node}>@{self.block:#x}"


class DirectoryState(enum.Enum):
    """Stable states of the full-map write-invalidate directory FSM."""

    IDLE = "idle"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DirectoryState.{self.name}"
