"""The simulated DSM machine: Base-DSM, FR-DSM, and SWI-DSM variants.

A :class:`Machine` assembles the full system — processors, caches,
homes, interconnect, synchronization, and (for the speculative
variants) one speculation engine per home — runs a workload to
completion, and reports the execution-time breakdown and request /
speculation counters the paper's Figure 9 and Table 5 are built from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.apps.base import Workload
from repro.common.config import SystemConfig
from repro.common.stats import StatSet
from repro.common.types import BlockId, NodeId
from repro.network.interconnect import Interconnect
from repro.sim.address import home_of
from repro.sim.caches import ProcessorCache, RemoteCache
from repro.sim.events import EventQueue
from repro.sim.home import HomeDirectory, MemRequest
from repro.sim.processor import Processor
from repro.sim.sync import BarrierManager, LockManager
from repro.speculation.engine import SpeculationEngine, SpeculationStats


class EventBudgetExhausted(RuntimeError):
    """A bounded :meth:`Machine.run` ran out of its event budget.

    Distinct from the deadlock diagnosis: events were still pending
    when ``max_events`` ran out, so the simulation is merely unfinished
    — re-run with a larger budget.
    """


class MachineMode(enum.Enum):
    """The paper's three system variants plus the future-work extension.

    MIG-DSM adds speculative *write* execution to SWI-DSM: reads whose
    predicted successor is the same processor's upgrade are granted
    exclusively (Section 4.1 identifies migratory sharing as
    trigger-ready; the paper leaves its execution to future work).
    """

    BASE = "Base-DSM"
    FR = "FR-DSM"
    SWI = "SWI-DSM"
    MIG = "MIG-DSM"


@dataclass(slots=True)
class NodeContext:
    """Per-node hardware: processor plus its caching state."""

    cache: ProcessorCache
    remote_cache: RemoteCache
    processor: Processor


@dataclass(slots=True)
class RunResult:
    """Outcome of one simulated run."""

    mode: MachineMode
    cycles: int
    compute_cycles: int
    stall_cycles: int
    sync_cycles: int
    read_requests: int
    write_requests: int
    counters: dict[str, int]
    speculation: SpeculationStats

    @property
    def busy_cycles(self) -> int:
        """Total per-processor time (all buckets)."""
        return self.compute_cycles + self.stall_cycles + self.sync_cycles

    @property
    def request_fraction(self) -> float:
        """Share of processor time spent waiting on memory requests."""
        if self.busy_cycles == 0:
            return 0.0
        return self.stall_cycles / self.busy_cycles


class Machine:
    """A 16-node (configurable) CC-NUMA with optional speculation."""

    def __init__(
        self,
        workload: Workload,
        config: SystemConfig | None = None,
        mode: MachineMode = MachineMode.BASE,
        spec_depth: int = 1,
    ) -> None:
        self.config = config or SystemConfig()
        if workload.num_procs != self.config.num_nodes:
            raise ValueError(
                f"workload built for {workload.num_procs} processors but "
                f"machine has {self.config.num_nodes} nodes"
            )
        self.workload = workload
        self.mode = mode
        #: Events the last :meth:`run` processed.
        self.events_processed = 0
        self._swi_hints = mode in (MachineMode.SWI, MachineMode.MIG)
        self.events = EventQueue()
        self.net = Interconnect(self.config, self.events)
        self.barrier = BarrierManager(
            self.config.num_nodes, self.config, self.events
        )
        self.locks = LockManager(self.config, self.events)
        self.stats = StatSet()
        #: Distinct blocks requested per request kind, filled by the
        #: homes as they count requests (``req_<kind>_blocks``).
        self._request_blocks: dict[str, set[BlockId]] = {}
        #: SWI's last-write table: the block each processor last wrote.
        self._last_written: dict[NodeId, BlockId] = {}
        # Engines and nodes are built before homes so the home
        # directories can cache direct references to both.
        self._engines: list[SpeculationEngine] | None = None
        if mode is not MachineMode.BASE:
            self._engines = [
                SpeculationEngine(
                    n,
                    swi_enabled=mode in (MachineMode.SWI, MachineMode.MIG),
                    depth=spec_depth,
                    migratory_enabled=(mode is MachineMode.MIG),
                )
                for n in range(self.config.num_nodes)
            ]
        self._nodes = [
            NodeContext(
                cache=ProcessorCache(),
                remote_cache=RemoteCache(),
                processor=Processor(n, self, workload.phases),
            )
            for n in range(self.config.num_nodes)
        ]
        self._homes = [
            HomeDirectory(n, self) for n in range(self.config.num_nodes)
        ]
        #: Prebound per-home request handlers for the processors (one
        #: bound method for the life of the run, not one per memory
        #: request).
        self._home_request = [h.request for h in self._homes]

    # ------------------------------------------------------------------
    # component access (used by homes and processors)
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> NodeContext:
        return self._nodes[node_id]

    def home(self, node_id: NodeId) -> HomeDirectory:
        return self._homes[node_id]

    def home_of(self, block: BlockId) -> NodeId:
        return home_of(block, self.config.num_nodes)

    def engine_for(self, node_id: NodeId) -> SpeculationEngine | None:
        if self._engines is None:
            return None
        return self._engines[node_id]

    def note_store_hit(self, pid: NodeId, block: BlockId) -> None:
        """A store hit an exclusively held copy (migratory accounting).

        In MIG-DSM a hit on a migratory-granted copy confirms that the
        speculatively executed upgrade was real; it also stands in for
        the upgrade in the early-write-invalidate chain, so SWI keeps
        recalling the writer's previous blocks.
        """
        if self.mode is not MachineMode.MIG:
            return
        engine = self.engine_for(self.home_of(block))
        if engine is None or engine.migratory_pending(block) != pid:
            return
        engine.migratory_written(block, pid)
        self.note_write_issued(pid, block)

    def note_write_issued(self, pid: NodeId, block: BlockId) -> None:
        """Requester-side early-write-invalidate tracking (Section 4.1).

        The node's DSM hardware sees every outgoing write request of its
        processor (a home sees only the writes to its own blocks, so
        this is the one last-write table).  When the processor writes a
        *different* block than last time, SWI predicts the previous
        block is dead and sends a done-writing hint to that block's
        home, which may recall the writable copy early.
        """
        previous = self._last_written.get(pid)
        self._last_written[pid] = block
        if not self._swi_hints:
            return
        if previous is None or previous == block:
            return
        home = self.home_of(previous)
        hint = MemRequest(kind="swi-recall", block=previous, requester=pid)
        self.net.send_call(pid, home, self._home_request[home], hint)

    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> RunResult:
        """Execute the workload to completion and collect results.

        A bounded run that exhausts ``max_events`` with events still
        pending raises :class:`EventBudgetExhausted`; an empty queue
        with unfinished processors is a genuine deadlock and raises a
        plain ``RuntimeError``.
        """
        for context in self._nodes:
            context.processor.start()
        processed = self.events.run(max_events=max_events)
        self.events_processed = processed
        unfinished = [
            c.processor.pid for c in self._nodes if c.processor.finish_time is None
        ]
        if unfinished:
            if len(self.events):
                # run() only stops with events pending when the budget
                # ran out — the simulation is unfinished, not stuck.
                raise EventBudgetExhausted(
                    f"event budget exhausted after {processed} events: "
                    f"processors {unfinished} still running, "
                    f"{len(self.events)} events pending "
                    f"(re-run with a larger max_events)"
                )
            raise RuntimeError(
                f"simulation ended with stuck processors: {unfinished} "
                f"(deadlock: the event queue drained with work unfinished)"
            )
        return self._collect()

    def _collect(self) -> RunResult:
        cycles = max(c.processor.finish_time or 0 for c in self._nodes)
        stall = sum(c.processor.stall_cycles for c in self._nodes)
        sync = sum(c.processor.sync_cycles for c in self._nodes)
        total = cycles * self.config.num_nodes
        speculation = SpeculationStats()
        if self._engines is not None:
            # Copies never referenced by the end of the run count as
            # misspeculations (their reference bits were never cleared).
            for context in self._nodes:
                for block, _entry in context.remote_cache.unreferenced():
                    engine = self.engine_for(self.home_of(block))
                    if engine is not None:
                        engine.spec_feedback(block, context.processor.pid, used=False)
            for engine in self._engines:
                speculation.merge(engine.stats)
        reads = self.stats["req_read"]
        writes = self.stats["req_write"] + self.stats["req_upgrade"]
        counters = self.stats.as_dict()
        for kind, blocks in self._request_blocks.items():
            counters[f"req_{kind}_blocks"] = len(blocks)
        return RunResult(
            mode=self.mode,
            cycles=cycles,
            compute_cycles=total - stall - sync,
            stall_cycles=stall,
            sync_cycles=sync,
            read_requests=reads,
            write_requests=writes,
            counters=counters,
            speculation=speculation,
        )
