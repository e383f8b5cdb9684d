"""Workload representation shared by all application kernels.

A :class:`Workload` is the bridge between an application kernel and the
two evaluation tiers:

* the **block view** — one :class:`~repro.protocol.epochs.BlockScript`
  per shared block, consumed by the trace-driven protocol emulator for
  the predictor experiments, and
* the **program view** — per-processor operation lists organized into
  barrier-delimited :class:`Phase` objects, consumed by the event-driven
  timing simulator for the speculation experiments.

Application kernels construct both views simultaneously through a
:class:`WorkloadBuilder`, which guarantees they describe the same
logical computation: every ``read``/``write`` call appends both a
processor operation and a block-script event.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.common.rng import DeterministicRng
from repro.common.types import BlockId, NodeId
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch


# ----------------------------------------------------------------------
# processor operations (program view)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Compute:
    """Local computation for a number of processor cycles."""

    cycles: int


@dataclass(frozen=True, slots=True)
class MemRead:
    """A load from a shared block."""

    block: BlockId


@dataclass(frozen=True, slots=True)
class MemWrite:
    """A store to a shared block."""

    block: BlockId


@dataclass(frozen=True, slots=True)
class LockAcquire:
    lock: int


@dataclass(frozen=True, slots=True)
class LockRelease:
    lock: int


Op = Union[Compute, MemRead, MemWrite, LockAcquire, LockRelease]


@dataclass(slots=True)
class Phase:
    """A barrier-delimited region of per-processor operation lists."""

    name: str
    ops: dict[NodeId, list[Op]]
    racy_reads: bool = False
    racy_acks: bool = False

    def ops_for(self, proc: NodeId) -> list[Op]:
        return self.ops.get(proc, [])

    def op_count(self) -> int:
        return sum(len(ops) for ops in self.ops.values())


@dataclass(slots=True)
class Workload:
    """Both views of one application run."""

    name: str
    num_procs: int
    phases: list[Phase] = field(default_factory=list)
    scripts: dict[BlockId, BlockScript] = field(default_factory=dict)
    locks: set[int] = field(default_factory=set)

    def block_scripts(self) -> list[BlockScript]:
        return [self.scripts[b] for b in sorted(self.scripts)]

    def total_ops(self) -> int:
        return sum(phase.op_count() for phase in self.phases)

    def blocks(self) -> list[BlockId]:
        return sorted(self.scripts)


class WorkloadBuilder:
    """Incrementally constructs a :class:`Workload`.

    The builder tracks, per phase and per block, the pending run of read
    accesses so consecutive reads become a single
    :class:`~repro.protocol.epochs.ReadEpoch` whose raciness comes from
    the enclosing phase.  Calls must be made in the application's
    logical dependency order (producer writes before consumer reads of
    the new value), which is the order the block scripts replay.
    """

    def __init__(self, name: str, num_procs: int) -> None:
        if num_procs < 2:
            raise ValueError("workloads need at least two processors")
        self._workload = Workload(name=name, num_procs=num_procs)
        self._phase: Phase | None = None
        # Pending (not yet flushed) read run per block: list of readers.
        self._pending_reads: dict[BlockId, list[NodeId]] = {}
        self._finished = False
        # The ops and epochs are frozen values, so every access appends
        # one shared instance: one MemRead and one MemWrite per block,
        # one WriteEpoch per writer.
        self._read_ops: dict[BlockId, MemRead] = {}
        self._write_ops: dict[BlockId, MemWrite] = {}
        self._write_epochs: dict[NodeId, WriteEpoch] = {}

    @property
    def num_procs(self) -> int:
        return self._workload.num_procs

    # ------------------------------------------------------------------
    # phase structure
    # ------------------------------------------------------------------
    @contextmanager
    def phase(
        self,
        name: str,
        racy_reads: bool = False,
        racy_acks: bool = False,
    ) -> Iterator[None]:
        """Open a barrier-delimited phase; closes (with a barrier) on exit."""
        self._require_open()
        if self._phase is not None:
            raise RuntimeError("phases cannot nest")
        self._phase = Phase(
            name=name,
            ops={p: [] for p in range(self.num_procs)},
            racy_reads=racy_reads,
            racy_acks=racy_acks,
        )
        try:
            yield
        finally:
            self._flush_reads()
            self._workload.phases.append(self._phase)
            self._phase = None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, proc: NodeId, block: BlockId) -> None:
        phase = self._phase
        if phase is None:  # an open phase implies an unfinished builder
            phase = self._current_phase()  # raises the matching error
        op = self._read_ops.get(block)
        if op is None:
            op = self._read_ops[block] = MemRead(block)
        phase.ops[proc].append(op)
        run = self._pending_reads.get(block)
        if run is None:
            self._pending_reads[block] = [proc]
        elif proc not in run:
            run.append(proc)

    def write(self, proc: NodeId, block: BlockId) -> None:
        phase = self._phase
        if phase is None:
            phase = self._current_phase()
        op = self._write_ops.get(block)
        if op is None:
            op = self._write_ops[block] = MemWrite(block)
        phase.ops[proc].append(op)
        if block in self._pending_reads:
            self._flush_reads_for(block)
        epoch = self._write_epochs.get(proc)
        if epoch is None:
            epoch = self._write_epochs[proc] = WriteEpoch(writer=proc)
        self._script(block).append(epoch)

    def compute(self, proc: NodeId, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("compute cycles must be >= 0")
        if cycles == 0:
            return
        self._current_phase().ops[proc].append(Compute(cycles))

    def lock(self, proc: NodeId, lock_id: int) -> None:
        self._current_phase().ops[proc].append(LockAcquire(lock_id))
        self._workload.locks.add(lock_id)

    def unlock(self, proc: NodeId, lock_id: int) -> None:
        self._current_phase().ops[proc].append(LockRelease(lock_id))

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def finish(self) -> Workload:
        self._require_open()
        if self._phase is not None:
            raise RuntimeError("finish() called inside an open phase")
        self._finished = True
        return self._workload

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._finished:
            raise RuntimeError("builder already finished")

    def _current_phase(self) -> Phase:
        self._require_open()
        if self._phase is None:
            raise RuntimeError("operations must be inside a phase")
        return self._phase

    def _script(self, block: BlockId) -> BlockScript:
        script = self._workload.scripts.get(block)
        if script is None:
            script = self._workload.scripts[block] = BlockScript(block=block)
        return script

    def _flush_reads_for(self, block: BlockId) -> None:
        run = self._pending_reads.pop(block, None)
        if not run:
            return
        phase = self._phase
        # Reads may be flushed by a phase boundary after the phase object
        # was already detached; fall back to the last recorded phase.
        if phase is None and self._workload.phases:
            phase = self._workload.phases[-1]
        racy = phase.racy_reads if phase else False
        racy_acks = phase.racy_acks if phase else False
        self._script(block).append(
            ReadEpoch(readers=tuple(run), racy=racy, racy_acks=racy_acks)
        )

    def _flush_reads(self) -> None:
        for block in list(self._pending_reads):
            self._flush_reads_for(block)


# ----------------------------------------------------------------------
# the application interface
# ----------------------------------------------------------------------
class SharedMemoryApp(abc.ABC):
    """One of the paper's Table 2 applications.

    Subclasses implement :meth:`_build`, constructing the workload with
    a :class:`WorkloadBuilder`.  ``iterations`` controls the number of
    outer iterations; ``paper_input`` / ``paper_iterations`` record the
    configuration the paper used (Table 2) for documentation purposes.
    """

    #: Paper name, e.g. "em3d"; set by subclasses.
    name: str = "abstract"
    #: The paper's input data set description (Table 2).
    paper_input: str = ""
    #: The paper's iteration count (Table 2).
    paper_iterations: int = 0

    def __init__(
        self,
        num_procs: int = 16,
        iterations: int | None = None,
        seed: int | str = 1999,
    ) -> None:
        if num_procs < 2:
            raise ValueError("need at least two processors")
        self.num_procs = num_procs
        self.iterations = iterations if iterations is not None else self.default_iterations()
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        self.seed = seed

    @classmethod
    def default_iterations(cls) -> int:
        """Scaled-down default iteration count (paper counts in Table 2)."""
        return 10

    def rng(self, label: str) -> DeterministicRng:
        return DeterministicRng(self.seed, f"{self.name}/{label}")

    def build(self) -> Workload:
        """Construct the workload (deterministic for a given seed)."""
        builder = WorkloadBuilder(self.name, self.num_procs)
        self._build(builder)
        return builder.finish()

    @abc.abstractmethod
    def _build(self, b: WorkloadBuilder) -> None:
        """Emit the kernel's phases into the builder."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_procs={self.num_procs}, "
            f"iterations={self.iterations}, seed={self.seed!r})"
        )
