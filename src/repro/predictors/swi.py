"""Speculative Write-Invalidation support tables (paper Sections 4.1-4.2).

SWI predicts that a processor has finished writing a memory block when
the *same processor's next* write (or upgrade) request — to a different
block — is issued.  The table of each processor's last write request
lives on the requester side, in
:meth:`repro.sim.machine.Machine.note_write_issued`: a home sees only
the writes to its own blocks, so only the writer's node sees the next
write to a block homed elsewhere.  That node sends a done-writing hint
to the previous block's home, which may invalidate the writable copy
early and forward the block to the predicted consumers.

To prevent repeated premature invalidations, SWI keeps one bit per
write/upgrade pattern-table entry recording that a previous speculative
invalidation for that write was premature; suppressed entries no longer
trigger (Section 4.2).  Those bits belong to the home's pattern table,
so they are all this module holds.
"""

from __future__ import annotations

from repro.common.types import BlockId
from repro.predictors.base import HistoryKey


class EarlyWriteInvalidateTable:
    """Per-pattern-entry suppression bits of one home's SWI predictor."""

    def __init__(self) -> None:
        self._suppressed: set[tuple[BlockId, HistoryKey]] = set()

    def suppress(self, block: BlockId, history: HistoryKey) -> None:
        """Mark the write pattern entry as previously premature."""
        self._suppressed.add((block, history))

    def is_suppressed(self, block: BlockId, history: HistoryKey) -> bool:
        return (block, history) in self._suppressed

    @property
    def suppressed_count(self) -> int:
        return len(self._suppressed)
