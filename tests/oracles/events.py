"""Discrete-event queue for the timing simulator (reference oracle).

This heapq implementation is the frozen semantic baseline the product
calendar queue (:class:`repro.sim.events.EventQueue`) is gated against:
:class:`tests.oracles.machine.ReferenceMachine` runs on it, and the
equivalence suites assert bit-identical results between the two.
"""

from __future__ import annotations

import heapq
from typing import Callable


class ReferenceEventQueue:
    """A time-ordered queue of zero-argument callbacks.

    Ties are broken by insertion order, which keeps the simulation
    deterministic for a fixed workload and seed.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, fn))
        self._sequence += 1

    def at(self, time: int, fn: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (time, self._sequence, fn))
        self._sequence += 1

    # ------------------------------------------------------------------
    # (handler, args) scheduling — the reference implementation
    # ------------------------------------------------------------------
    def call(self, delay: int, handler: Callable, *args) -> None:
        """Schedule ``handler(*args)`` after ``delay`` cycles.

        This is the reference realization of the fast engine's
        low-allocation event representation: with arguments it wraps
        the call in a fresh closure (the reference engine's historical
        per-event cost profile); without arguments it degrades to a
        plain :meth:`schedule`, exactly as the pre-switch call sites
        behaved.  Execution order is identical either way.
        """
        if args:
            self.schedule(delay, lambda: handler(*args))
        else:
            self.schedule(delay, handler)

    def call_at(self, time: int, handler: Callable, *args) -> None:
        """Schedule ``handler(*args)`` at absolute cycle ``time``."""
        if args:
            self.at(time, lambda: handler(*args))
        else:
            self.at(time, handler)

    def insert(self, time: int, handler: Callable, args: tuple) -> None:
        """Packed-arguments insert (see the calendar queue's variant)."""
        if args:
            self.at(time, lambda: handler(*args))
        else:
            self.at(time, handler)

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        The budget is checked *before* each pop: ``run(max_events=0)``
        returns 0 with the queue — and ``now`` — untouched, so a caller
        can use a zero budget as a pure no-op probe.
        """
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be >= 0")
        processed = 0
        while self._heap and (max_events is None or processed < max_events):
            time, _seq, fn = heapq.heappop(self._heap)
            self.now = time
            fn()
            processed += 1
        return processed

    def run_cycle(self) -> int:
        """Process every event of the next pending cycle.

        The same-cycle batch-drain primitive: drains the earliest
        scheduled cycle completely — including events scheduled *onto*
        that cycle while it drains — and returns the number processed
        (0 when the queue is empty).
        """
        if not self._heap:
            return 0
        cycle = self._heap[0][0]
        processed = 0
        while self._heap and self._heap[0][0] == cycle:
            time, _seq, fn = heapq.heappop(self._heap)
            self.now = time
            fn()
            processed += 1
        return processed

    def peek_time(self) -> int | None:
        """Scheduled time of the next event, or None when the queue is
        empty — lets the timing simulator look ahead (e.g. to bound a
        bounded-drain ``run``) without disturbing the heap."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)
