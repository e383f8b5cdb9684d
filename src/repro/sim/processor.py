"""Processor model: executes an application program phase by phase.

Each processor runs its per-phase operation list in order, blocking on
memory requests (one outstanding request at a time), and meets the
other processors at a barrier between phases.  Time is attributed to
three buckets:

* ``stall_cycles``  — waiting on memory requests (the paper's "remote
  request waiting time", including speculative remote-cache fills);
* ``sync_cycles``   — barrier and lock waiting (the paper folds this
  into computation time in Figure 9);
* the remainder is computation.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING

from repro.apps.base import Compute, LockAcquire, LockRelease, MemRead, MemWrite, Phase
from repro.common.config import HOME_SHIFT
from repro.common.types import BlockId, NodeId
from repro.sim.caches import CacheState
from repro.sim.home import MemRequest

_SHARED = CacheState.SHARED
_EXCLUSIVE = CacheState.EXCLUSIVE
#: Precomputed ``spec_hits_<origin>`` counter names.
_SPEC_HIT_KEYS = {"fr": "spec_hits_fr", "swi": "spec_hits_swi"}

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine, NodeContext


class Processor:
    """One simulated processor executing its program.

    No per-resume closures: every stall-attributed wait (request
    retirement, speculative fill, barrier release, lock grant) passes a
    prebound resume method plus the start cycle as a
    ``(handler, args)`` event.  :meth:`_step` is the one frame per op:
    it dispatches on the op's exact class (reads first, then writes,
    computes, and the rare lock ops) and writes the load and store
    paths out in place — cache hit, speculative hit and the miss issue
    — inlining the calendar queue's bucket insert.  A store miss first
    goes through :meth:`Machine.note_write_issued`, SWI's one
    last-write table.  It reaches directly into the node's cache
    dictionaries (``ProcessorCache._state`` / ``RemoteCache._entries``)
    and the machine's ``StatSet`` counters: friend access that trades
    abstraction for the per-op call frames.
    """

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
        # Prebound per-event handlers (an attribute fetch allocates
        # nothing; ``self._method`` builds a bound method per event)
        # plus flat copies of the per-event ``self._m...`` chases.
        self._step_fn = self._step
        self._spec_fill_done_fn = self._spec_fill_done
        self._request_done_fn = self._request_done
        self._barrier_released_fn = self._barrier_released
        self._lock_granted_fn = self._lock_granted
        self._ev = machine.events
        self._ev_call = machine.events.call
        self._send_call = machine.net.send_call
        self._counters = machine.stats._counters
        self._cache_hit_cycles = machine.config.cache_hit_cycles
        self._local_access = machine.config.local_access_cycles
        self._num_nodes = machine.config.num_nodes
        self._engines = machine._engines
        # Store hits matter only to MIG-DSM (Machine.note_store_hit).
        self._migratory = (
            self._engines is not None and self._engines[0].migratory_enabled
        )
        # Bound in start(): machine._nodes / _home_request are built
        # after the processors themselves.
        self._node: "NodeContext | None" = None
        self._home_request: list | None = None
        self._cstate: dict | None = None
        self._rentries: dict | None = None
        # One reusable request object: the processor blocks on a single
        # outstanding request at a time, and nothing holds the object
        # past reply delivery (events capture the prebound on_done, not
        # the request), so each issue may recycle it in place.
        self._request = MemRequest(
            kind="read", block=0, requester=pid, on_done=self._request_done_fn
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._node = self._m.node(self.pid)
        self._home_request = self._m._home_request
        self._cstate = self._node.cache._state
        self._rentries = self._node.remote_cache._entries
        self._next_phase()

    # ------------------------------------------------------------------
    def _next_phase(self) -> None:
        self._phase_index += 1
        if self._phase_index >= len(self._phases):
            self.finish_time = self._ev.now
            return
        self._ops = self._phases[self._phase_index].ops_for(self.pid)
        self._op_index = 0
        self._step()

    def _step(self) -> None:
        index = self._op_index
        ops = self._ops
        if index >= len(ops):
            self._barrier()
            return
        op = ops[index]
        self._op_index = index + 1
        cls = op.__class__
        if cls is MemRead:
            block = op.block
            if self._cstate.get(block) is not None:  # can_read
                self._counters["cache_hits"] += 1
                delay = self._cache_hit_cycles
            else:
                spec = self._rentries.pop(block, None)  # consume
                if spec is not None:
                    # Speculative hit: a pushed read-only copy is waiting
                    # in the remote cache; referencing it verifies the
                    # speculation.
                    spec.referenced = True
                    self._counters[_SPEC_HIT_KEYS[spec.origin]] += 1
                    engines = self._engines
                    if engines is not None:
                        engines[(block >> HOME_SHIFT) % self._num_nodes].spec_feedback(
                            block, self.pid, used=True
                        )
                    self._cstate[block] = _SHARED
                    self._ev_call(
                        self._local_access, self._spec_fill_done_fn, self._ev.now
                    )
                    return
                kind = "read"
                delay = -1  # a miss
        elif cls is MemWrite:
            block = op.block
            if self._cstate.get(block) is _EXCLUSIVE:  # can_write
                self._counters["cache_hits"] += 1
                if self._migratory:
                    self._m.note_store_hit(self.pid, block)
                delay = self._cache_hit_cycles
            else:
                self._m.note_write_issued(self.pid, block)
                kind = "write"
                delay = -1  # a miss
        elif cls is Compute:
            delay = op.cycles
        elif cls is LockAcquire:
            self._acquire(op.lock)
            return
        elif cls is LockRelease:
            self._m.locks.release(op.lock, self.pid)
            delay = 0
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        queue = self._ev
        if delay < 0:
            # Miss: send the request to the block's home and block until
            # the reply retires it (_request_done).
            self._outstanding = block
            request = self._request
            request.kind = kind
            request.block = block
            request.on_done_args = (block, queue.now)
            home = (block >> HOME_SHIFT) % self._num_nodes
            self._send_call(self.pid, home, self._home_request[home], request)
            return
        # Resume after ``delay`` cycles (the calendar queue's insert).
        time = queue.now + delay
        buckets = queue._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._step_fn, ())]
            heappush(queue._times, time)
        else:
            bucket.append((self._step_fn, ()))
        queue._size += 1

    def _spec_fill_done(self, started: int) -> None:
        self.stall_cycles += self._ev.now - started
        self._step()

    def _request_done(self, block: BlockId, started: int) -> None:
        self._outstanding = None
        # A granted copy supersedes any stale speculative copy.
        stale = self._rentries.pop(block, None)  # evict, inlined
        if stale is not None and not stale.referenced:
            engines = self._engines
            if engines is not None:
                engines[(block >> HOME_SHIFT) % self._num_nodes].spec_feedback(
                    block, self.pid, used=False, raced=True
                )
        self.stall_cycles += self._ev.now - started
        self._step()

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _barrier(self) -> None:
        self._m.barrier.arrive(self.pid, self._barrier_released_fn, self._ev.now)

    def _barrier_released(self, started: int) -> None:
        self.sync_cycles += self._ev.now - started
        self._next_phase()

    def _acquire(self, lock: int) -> None:
        self._m.locks.acquire(lock, self.pid, self._lock_granted_fn, self._ev.now)

    def _lock_granted(self, started: int) -> None:
        self.sync_cycles += self._ev.now - started
        self._step()
