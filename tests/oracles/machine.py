"""The reference machine: :class:`~repro.sim.machine.Machine` wired from
the frozen oracle components.

It runs the same protocol, workload and result collection as the
product machine, but on the heapq event queue, the closure-based home
and processor, the closure-delivering interconnect and the
Message-boxed speculation engine.  The equivalence suites run every
workload on both machines and require bit-identical
:class:`~repro.sim.machine.RunResult`\\ s.
"""

from __future__ import annotations

from repro.apps.base import Workload
from repro.common.config import SystemConfig
from repro.common.types import BlockId, MessageKind
from repro.sim.caches import ProcessorCache, RemoteCache
from repro.sim.machine import Machine, MachineMode, NodeContext
from repro.sim.sync import BarrierManager, LockManager

from tests.oracles.events import ReferenceEventQueue
from tests.oracles.home import ReferenceHomeDirectory
from tests.oracles.interconnect import ReferenceInterconnect
from tests.oracles.processor import ReferenceProcessor
from tests.oracles.speculation import ReferenceSpeculationEngine


class ReferenceMachine(Machine):
    """A :class:`Machine` whose components are all the reference ones."""

    def __init__(
        self,
        workload: Workload,
        config: SystemConfig | None = None,
        mode: MachineMode = MachineMode.BASE,
        spec_depth: int = 1,
    ) -> None:
        # The product constructor validates the arguments and sets up
        # the bookkeeping; every component it built is replaced below.
        super().__init__(workload, config, mode, spec_depth)
        num_nodes = self.config.num_nodes
        self.events = ReferenceEventQueue()
        self.net = ReferenceInterconnect(self.config, self.events)
        self.barrier = BarrierManager(num_nodes, self.config, self.events)
        self.locks = LockManager(self.config, self.events)
        if self._engines is not None:
            self._engines = [
                ReferenceSpeculationEngine(
                    n,
                    swi_enabled=mode in (MachineMode.SWI, MachineMode.MIG),
                    depth=spec_depth,
                    migratory_enabled=(mode is MachineMode.MIG),
                )
                for n in range(num_nodes)
            ]
        self._nodes = [
            NodeContext(
                cache=ProcessorCache(),
                remote_cache=RemoteCache(),
                processor=ReferenceProcessor(n, self, workload.phases),
            )
            for n in range(num_nodes)
        ]
        self._homes = [ReferenceHomeDirectory(n, self) for n in range(num_nodes)]
        self._home_request = [h.request for h in self._homes]

    def count_request(self, kind: MessageKind | None, block: BlockId) -> None:
        """Count one home-serviced request, per kind and per block touched.

        The reference home calls this once per request; the product
        home counts in place (``HomeDirectory._count_request``).
        """
        if kind is None:
            return
        self.stats.bump(f"req_{kind.value}")
        self._request_blocks.setdefault(kind.value, set()).add(block)
