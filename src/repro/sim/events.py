"""Discrete-event queue for the timing simulator: a calendar queue.

Profiling the Figure 9 / Table 5 sweeps shows events *cluster*: a
16-node run schedules 1.5–3 events per distinct cycle (barrier
releases, lock-step compute phases, NI-serialized deliveries), and the
hot handlers are tiny, so queue mechanics and allocation are a large
slice of wall time.  :class:`EventQueue` is therefore a calendar
(bucket) queue keyed by cycle:

* each pending cycle owns one FIFO bucket (a plain list, appended in
  insertion order), so a schedule is an ``O(1)`` list append instead of
  an ``O(log n)`` heap push;
* a small int heap orders only the *distinct* pending cycles (one heap
  entry per bucket, not per event);
* :meth:`run` drains a whole bucket per heap pop — the same-cycle
  batch-drain mode — and events append to the live bucket when they
  schedule work for the current cycle;
* events are ``(handler, args)`` tuples, not closures: the hottest
  paths (interconnect delivery, processor resume, home request
  servicing) schedule a prebound method plus its arguments and never
  allocate a closure or cell object per event.

Ties break by insertion order, ``now`` advances per event, and a zero
budget is a no-op.  The heapq queue this replaced is kept as a frozen
oracle in ``tests/oracles/``; ``tests/sim/test_events_property.py``
replays arbitrary programs against both.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable


class EventQueue:
    """Bucket-per-cycle event queue with FIFO tie order.

    Invariant: every bucket in ``_buckets`` is non-empty, and the
    ``_times`` heap holds exactly one entry per bucket (pushed when the
    bucket is created, popped when it is deleted) — so ``_times[0]`` is
    always the next cycle with pending work and no lazy-deletion sweep
    is ever needed.  The simulator's hottest producers (the
    interconnect, homes and processors) inline the bucket insert of
    :meth:`call`, relying on this invariant.
    """

    __slots__ = ("now", "_buckets", "_times", "_size")

    def __init__(self) -> None:
        self.now = 0
        self._buckets: dict[int, list[tuple[Callable, tuple]]] = {}
        self._times: list[int] = []
        self._size = 0

    def call(self, delay: int, handler: Callable, *args) -> None:
        """Schedule ``handler(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(handler, args)]
            heappush(self._times, time)
        else:
            bucket.append((handler, args))
        self._size += 1

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        The budget is checked before each event, so ``run(max_events=0)``
        is a pure no-op, and a budget exhausted mid-bucket leaves the
        bucket's remaining events (and their FIFO order) intact.
        """
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be >= 0")
        processed = 0
        buckets = self._buckets
        times = self._times
        while times and (max_events is None or processed < max_events):
            time = times[0]
            bucket = buckets[time]
            self.now = time
            i = 0
            try:
                if max_events is None:
                    # Batch drain: one heap pop retires the whole
                    # cycle.  A ``for`` over the live list iterates at
                    # C speed *and* picks up same-cycle events that
                    # handlers append while the bucket drains.
                    for handler, args in bucket:
                        i += 1
                        handler(*args)
                else:
                    limit = max_events - processed
                    while i < len(bucket) and i < limit:
                        handler, args = bucket[i]
                        i += 1
                        handler(*args)
            finally:
                self._size -= i
                if i >= len(bucket):
                    del buckets[time]
                    heappop(times)
                elif i:
                    del bucket[:i]
                processed += i
        return processed

    def __len__(self) -> int:
        return self._size
