"""Processor model (reference oracle): executes an application program
phase by phase.

Each processor runs its per-phase operation list in order, blocking on
memory requests (one outstanding request at a time), and meets the
other processors at a barrier between phases.  Time is attributed to
three buckets:

* ``stall_cycles``  — waiting on memory requests (the paper's "remote
  request waiting time", including speculative remote-cache fills);
* ``sync_cycles``   — barrier and lock waiting (the paper folds this
  into computation time in Figure 9);
* the remainder is computation.

This closure-based processor is the frozen baseline the product
:class:`repro.sim.processor.Processor` is gated against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import Compute, LockAcquire, LockRelease, MemRead, MemWrite, Phase
from repro.common.types import BlockId, NodeId
from repro.sim.caches import CacheState
from repro.sim.home import MemRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class ReferenceProcessor:
    """One simulated processor executing its program."""

    def __init__(self, pid: NodeId, machine: "Machine", phases: list[Phase]) -> None:
        self.pid = pid
        self._m = machine
        self._phases = phases
        self._phase_index = -1
        self._ops: list = []
        self._op_index = 0
        self._outstanding: BlockId | None = None
        self.stall_cycles = 0
        self.sync_cycles = 0
        self.finish_time: int | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._next_phase()

    def waiting_for(self, block: BlockId) -> bool:
        """True while a request for ``block`` is in flight."""
        return self._outstanding == block

    # ------------------------------------------------------------------
    def _next_phase(self) -> None:
        self._phase_index += 1
        if self._phase_index >= len(self._phases):
            self.finish_time = self._m.events.now
            return
        self._ops = self._phases[self._phase_index].ops_for(self.pid)
        self._op_index = 0
        self._step()

    def _step(self) -> None:
        if self._op_index >= len(self._ops):
            self._barrier()
            return
        op = self._ops[self._op_index]
        self._op_index += 1
        if isinstance(op, Compute):
            self._m.events.schedule(op.cycles, self._step)
        elif isinstance(op, MemRead):
            self._load(op.block)
        elif isinstance(op, MemWrite):
            self._store(op.block)
        elif isinstance(op, LockAcquire):
            self._acquire(op.lock)
        elif isinstance(op, LockRelease):
            self._m.locks.release(op.lock, self.pid)
            self._m.events.schedule(0, self._step)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------
    def _load(self, block: BlockId) -> None:
        node = self._m.node(self.pid)
        if node.cache.can_read(block):
            self._m.stats.bump("cache_hits")
            self._m.events.schedule(self._m.config.cache_hit_cycles, self._step)
            return
        spec = node.remote_cache.consume(block)
        if spec is not None:
            # Speculative hit: a pushed read-only copy is waiting in the
            # remote cache; referencing it verifies the speculation.
            self._m.stats.bump(f"spec_hits_{spec.origin}")
            engine = self._m.engine_for(self._m.home_of(block))
            if engine is not None:
                engine.spec_feedback(block, self.pid, used=True)
            node.cache.set_state(block, CacheState.SHARED)
            started = self._m.events.now

            def filled() -> None:
                self.stall_cycles += self._m.events.now - started
                self._step()

            self._m.events.schedule(self._m.config.local_access_cycles, filled)
            return
        self._issue("read", block)

    def _store(self, block: BlockId) -> None:
        node = self._m.node(self.pid)
        if node.cache.can_write(block):
            self._m.stats.bump("cache_hits")
            self._m.note_store_hit(self.pid, block)
            self._m.events.schedule(self._m.config.cache_hit_cycles, self._step)
            return
        self._issue("write", block)

    def _issue(self, kind: str, block: BlockId) -> None:
        started = self._m.events.now
        self._outstanding = block
        if kind == "write":
            self._m.note_write_issued(self.pid, block)

        def done() -> None:
            self._outstanding = None
            # A granted copy supersedes any stale speculative copy.
            stale = self._m.node(self.pid).remote_cache.evict(block)
            if stale is not None and not stale.referenced:
                engine = self._m.engine_for(self._m.home_of(block))
                if engine is not None:
                    engine.spec_feedback(block, self.pid, used=False, raced=True)
            self.stall_cycles += self._m.events.now - started
            self._step()

        request = MemRequest(kind=kind, block=block, requester=self.pid, on_done=done)
        home = self._m.home_of(block)
        self._m.net.send(
            self.pid, home, lambda: self._m.home(home).request(request)
        )

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _barrier(self) -> None:
        started = self._m.events.now

        def released() -> None:
            self.sync_cycles += self._m.events.now - started
            self._next_phase()

        self._m.barrier.arrive(self.pid, released)

    def _acquire(self, lock: int) -> None:
        started = self._m.events.now

        def granted() -> None:
            self.sync_cycles += self._m.events.now - started
            self._step()

        self._m.locks.acquire(lock, self.pid, granted)
