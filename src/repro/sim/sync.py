"""Synchronization primitives of the simulated machine.

Barriers and locks are modeled directly (not through shared-memory
spinning) — the paper folds barrier and lock waiting into computation
time in its Figure 9 breakdown, so only the *duration* of waiting
matters, not its memory traffic.

Both managers accept resume callbacks in the low-allocation
``(handler, *args)`` form — a processor passes a prebound method plus
its arguments (a zero-argument closure works too) — and schedule the
wakeup through :meth:`EventQueue.call`, which preserves FIFO release
order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.common.config import SystemConfig
from repro.common.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import EventQueue


class BarrierManager:
    """A single global sense-reversing barrier."""

    def __init__(
        self, num_procs: int, config: SystemConfig, events: "EventQueue"
    ) -> None:
        self._num_procs = num_procs
        self._config = config
        self._events = events
        self._waiting: list[tuple[Callable, tuple]] = []

    def arrive(self, proc: NodeId, resume: Callable, *args) -> None:
        """Block ``proc``; release everyone once all have arrived."""
        del proc
        self._waiting.append((resume, args))
        if len(self._waiting) < self._num_procs:
            return
        waiters, self._waiting = self._waiting, []
        for resume_fn, resume_args in waiters:
            self._events.call(
                self._config.barrier_release_cycles, resume_fn, *resume_args
            )


class LockManager:
    """FIFO spin locks, granted in request-arrival order."""

    def __init__(self, config: SystemConfig, events: "EventQueue") -> None:
        self._config = config
        self._events = events
        self._holder: dict[int, NodeId] = {}
        self._queues: dict[int, deque[tuple[NodeId, Callable, tuple]]] = {}

    def acquire(
        self, lock: int, proc: NodeId, granted: Callable, *args
    ) -> None:
        if lock not in self._holder:
            self._holder[lock] = proc
            self._events.call(self._config.lock_acquire_cycles, granted, *args)
            return
        self._queues.setdefault(lock, deque()).append((proc, granted, args))

    def release(self, lock: int, proc: NodeId) -> None:
        holder = self._holder.get(lock)
        if holder != proc:
            raise RuntimeError(
                f"P{proc} released lock {lock} held by {holder!r}"
            )
        queue = self._queues.get(lock)
        if queue:
            next_proc, granted, args = queue.popleft()
            self._holder[lock] = next_proc
            self._events.call(self._config.lock_acquire_cycles, granted, *args)
        else:
            del self._holder[lock]

    def holder_of(self, lock: int) -> NodeId | None:
        return self._holder.get(lock)
