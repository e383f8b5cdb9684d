"""Property test: the calendar queue replays any program identically.

Hypothesis generates arbitrary interleavings of scheduling (closures
and packed ``(handler, args)`` events), ``run(max_events)`` and full
drains — including same-cycle ties and events that schedule more
events when they fire.  Each program is interpreted simultaneously
against the product calendar :class:`~repro.sim.events.EventQueue` and
the heapq :class:`~tests.oracles.events.ReferenceEventQueue` it
replaced; after every operation the two must agree on

* the execution log (which event fired, in what order, at what time),
* every return value (events processed) and the queue length,
* the clock ``now``.

This is the microscopic half of the equivalence story: the golden
suite (test_engine_equivalence.py) checks whole simulations; this
checks the queue contract itself, so a future queue change cannot hide
behind workloads that happen not to exercise an ordering corner.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from tests.oracles import ReferenceEventQueue
from tests.strategies import STANDARD_SETTINGS

pytestmark = pytest.mark.property


# ----------------------------------------------------------------------
# program strategy
# ----------------------------------------------------------------------
# An event spec is (delay, style, children): when the event fires it
# logs itself and schedules its children relative to the firing time.
# ``style`` picks how it is planted: a closure or packed args, and on
# the reference queue also its relative/absolute closure APIs.

DELAYS = st.integers(min_value=0, max_value=12)
STYLES = st.sampled_from(["schedule", "at", "call"])

EVENT_SPECS = st.recursive(
    st.tuples(DELAYS, STYLES, st.just(())),
    lambda children: st.tuples(
        DELAYS, STYLES, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=8,
)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("plant"), EVENT_SPECS),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("run_all"), st.just(None)),
    ),
    max_size=30,
)


class Interpreter:
    """Drives one queue through a program, recording everything."""

    def __init__(self, queue) -> None:
        self.queue = queue
        self.log: list[tuple[int, int]] = []
        self._next_id = 0

    def plant(self, spec) -> None:
        delay, style, children = spec
        event_id = self._next_id
        self._next_id += 1
        queue = self.queue

        def fire(eid=event_id, kids=children) -> None:
            self.log.append((eid, queue.now))
            for child in kids:
                self.plant(child)

        if style == "call":  # packed-args API
            queue.call(delay, self._fire_packed, event_id, children)
        elif isinstance(queue, EventQueue):
            queue.call(delay, fire)
        elif style == "schedule":
            queue.schedule(delay, fire)
        else:
            queue.at(queue.now + delay, fire)

    def _fire_packed(self, event_id, children) -> None:
        self.log.append((event_id, self.queue.now))
        for child in children:
            self.plant(child)

    def snapshot(self):
        return (tuple(self.log), self.queue.now, len(self.queue))


@given(program=OPERATIONS)
@STANDARD_SETTINGS
def test_calendar_queue_replays_heapq_reference(program):
    reference = Interpreter(ReferenceEventQueue())
    calendar = Interpreter(EventQueue())

    for op, arg in program:
        for interp in (reference, calendar):
            queue = interp.queue
            if op == "plant":
                interp.plant(arg)
            elif op == "run":
                interp.last = queue.run(max_events=arg)
            else:
                interp.last = queue.run()
        assert getattr(reference, "last", None) == getattr(calendar, "last", None)
        assert reference.snapshot() == calendar.snapshot()

    # Drain whatever remains: final order must match too.
    assert reference.queue.run() == calendar.queue.run()
    assert reference.snapshot() == calendar.snapshot()


@given(program=OPERATIONS)
@STANDARD_SETTINGS
def test_zero_budget_is_noop_on_both_queues(program):
    for factory in (ReferenceEventQueue, EventQueue):
        interp = Interpreter(factory())
        for op, arg in program:
            if op == "plant":
                interp.plant(arg)
        before = interp.snapshot()
        assert interp.queue.run(max_events=0) == 0
        assert interp.snapshot() == before


@given(program=OPERATIONS)
@STANDARD_SETTINGS
def test_exceptions_leave_both_queues_consistent(program):
    """An event that raises mid-drain is consumed on both queues, and
    the remaining events run afterwards in the same order."""
    interps = [Interpreter(ReferenceEventQueue()), Interpreter(EventQueue())]
    for interp in interps:
        for op, arg in program:
            if op == "plant":
                interp.plant(arg)

        def boom():
            raise RuntimeError("boom")

        interp.queue.call(0, boom)
        interp.plant((0, "call", ()))
        with pytest.raises(RuntimeError, match="boom"):
            interp.queue.run()
        interp.queue.run()
    assert interps[0].snapshot() == interps[1].snapshot()
