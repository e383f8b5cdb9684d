"""Property tests: the product timing simulator equals its oracle on
arbitrary workloads, not just the seven paper applications.

Each example drives one randomly generated (deadlock-free) workload
through the product :class:`~repro.sim.machine.Machine` and the
reference :class:`~tests.oracles.machine.ReferenceMachine` and asserts
the RunResults are bit-identical and the event counts equal.  Separate properties pin the corner
semantics: bounded runs raise
:class:`~repro.sim.machine.EventBudgetExhausted` exactly when the
reference does, and deadlocked workloads diagnose a deadlock on both.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.sim.machine import EventBudgetExhausted, Machine, MachineMode
from tests.oracles import ReferenceMachine
from tests.strategies.settings import DETERMINISM_SETTINGS, QUICK_SETTINGS
from tests.strategies.sim import workloads

MODES = st.sampled_from(list(MachineMode))
MACHINES = (Machine, ReferenceMachine)


def build(workload, mode, machine_cls):
    return machine_cls(
        workload,
        config=SystemConfig(num_nodes=workload.num_procs),
        mode=mode,
    )


def run(workload, mode, machine_cls, max_events=None):
    return build(workload, mode, machine_cls).run(max_events=max_events)


@given(workload=workloads(), mode=MODES)
@DETERMINISM_SETTINGS
def test_product_equals_reference_on_random_workloads(workload, mode):
    """A bit-identity property, so it runs at the determinism tier."""
    product = build(workload, mode, Machine)
    reference = build(workload, mode, ReferenceMachine)
    assert dataclasses.asdict(product.run()) == dataclasses.asdict(reference.run())
    # The same events, too: a hop moved within its cycle's FIFO bucket
    # or fused into its sender can leave this example's results equal,
    # but fusing or dropping a hop always changes the count.
    assert product.events_processed == reference.events_processed


@given(workload=workloads(), mode=MODES, budget=st.integers(1, 30))
@QUICK_SETTINGS
def test_bounded_runs_agree_with_reference(workload, mode, budget):
    """A tiny event budget either exhausts on both machines or
    completes identically on both."""
    outcomes = []
    for machine_cls in MACHINES:
        try:
            outcomes.append(
                dataclasses.asdict(run(workload, mode, machine_cls, budget))
            )
        except EventBudgetExhausted:
            outcomes.append("exhausted")
    assert outcomes[0] == outcomes[1]


@given(workload=workloads(max_phases=1), mode=MODES)
@QUICK_SETTINGS
def test_deadlocks_diagnosed_on_both_machines(workload, mode):
    """Grafting a never-released lock contention onto any workload
    deadlocks it; both machines must say so."""
    from repro.apps.base import LockAcquire

    stuck_lock = 99
    first_phase = workload.phases[0]
    first_phase.ops[0].insert(0, LockAcquire(stuck_lock))
    first_phase.ops[1].insert(0, LockAcquire(stuck_lock))
    workload.locks.add(stuck_lock)

    for machine_cls in MACHINES:
        with pytest.raises(RuntimeError, match="deadlock"):
            run(workload, mode, machine_cls)
