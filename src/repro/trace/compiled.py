"""Columnar message traces: the home-directory stream as parallel arrays.

A :class:`CompiledTrace` holds the *entire* message stream a workload
presents to its home directories — every block's sequence, concatenated
block-major — as three parallel numpy columns:

* ``kinds``  — message-kind codes (:data:`KIND_CODES` order),
* ``nodes``  — sending processor ids,
* ``blocks`` — block ids (each block's messages are contiguous).

Compiling the trace once decouples trace *generation* (the Python-loop
protocol emulation) from trace *consumption*: the vectorized predictor
evaluators (:mod:`repro.trace.vectorized`) do batched numpy passes over
the columns, and :meth:`CompiledTrace.to_messages` decodes the identical
per-message stream for the reference predictors — the two views are the
same trace by construction, which is what the equivalence golden tests
lean on.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.common.canonical import canonical_hash
from repro.common.types import KIND_CODES, MAX_REQUEST_CODE, Message

#: Payload column -> the little-endian dtype of its raw bytes.
_PAYLOAD_DTYPES = {"kinds": "<u1", "nodes": "<i4", "blocks": "<i8"}


@dataclass(frozen=True, slots=True, eq=False)
class CompiledTrace:
    """The full home-directory message stream, encoded as columns."""

    kinds: np.ndarray  # uint8 codes into KIND_CODES
    nodes: np.ndarray  # int32 sender ids
    blocks: np.ndarray  # int64 block ids, block-major
    num_nodes: int
    #: Cached segment boundaries; computed lazily by ``block_starts``.
    _starts: list = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    @classmethod
    def from_columns(
        cls,
        kinds: Any,
        nodes: Any,
        blocks: Any,
        num_nodes: int,
    ) -> "CompiledTrace":
        return cls(
            kinds=np.asarray(kinds, dtype=np.uint8),
            nodes=np.asarray(nodes, dtype=np.int32),
            blocks=np.asarray(blocks, dtype=np.int64),
            num_nodes=int(num_nodes),
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def block_starts(self) -> np.ndarray:
        """Index of each block segment's first message (ascending)."""
        if not self._starts:
            if len(self) == 0:
                starts = np.empty(0, dtype=np.int64)
            else:
                change = np.flatnonzero(self.blocks[1:] != self.blocks[:-1]) + 1
                starts = np.concatenate(([0], change))
            self._starts.append(starts)
        return self._starts[0]

    def block_count(self) -> int:
        return int(self.block_starts.shape[0])

    def request_mask(self) -> np.ndarray:
        """Boolean mask selecting the three request kinds."""
        return self.kinds <= MAX_REQUEST_CODE

    # ------------------------------------------------------------------
    # the reference view
    # ------------------------------------------------------------------
    def to_messages(self) -> Iterator[Message]:
        """Decode the identical per-message stream (reference path)."""
        kinds, nodes, blocks = self.kinds, self.nodes, self.blocks
        for i in range(len(self)):
            yield Message(
                kind=KIND_CODES[kinds[i]],
                node=int(nodes[i]),
                block=int(blocks[i]),
            )

    # ------------------------------------------------------------------
    # serialization (the trace-cache payload)
    # ------------------------------------------------------------------
    def as_payload(self) -> dict[str, Any]:
        """A JSON-representable form, loadable by :meth:`from_payload`.

        ``num_nodes`` plus each column as base64 of its raw
        little-endian bytes (``kinds`` ``<u1``, ``nodes`` ``<i4``,
        ``blocks`` ``<i8``).
        """
        payload: dict[str, Any] = {"num_nodes": self.num_nodes}
        for name, dtype in _PAYLOAD_DTYPES.items():
            raw = getattr(self, name).astype(dtype, copy=False).tobytes()
            payload[name] = base64.b64encode(raw).decode("ascii")
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CompiledTrace":
        """Decode :meth:`as_payload`'s form.

        Raises ``ValueError`` (or ``KeyError``/``TypeError``) for a
        payload that is not a whole trace: a non-positive or non-int
        ``num_nodes``, a column that is not base64 of a whole number of
        items, or columns of unequal length.
        """
        num_nodes = payload["num_nodes"]
        if not isinstance(num_nodes, int) or num_nodes < 1:
            raise ValueError(f"num_nodes must be a positive int, not {num_nodes!r}")
        columns = {}
        for name, dtype in _PAYLOAD_DTYPES.items():
            raw = base64.b64decode(payload[name], validate=True)
            if len(raw) % np.dtype(dtype).itemsize:
                raise ValueError(f"column {name!r} holds a partial item")
            columns[name] = np.frombuffer(raw, dtype=dtype)
        if len({column.shape[0] for column in columns.values()}) > 1:
            raise ValueError("trace columns differ in length")
        return cls.from_columns(num_nodes=num_nodes, **columns)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`as_payload`."""
        return canonical_hash(self.as_payload())
