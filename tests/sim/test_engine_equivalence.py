"""Golden equivalence suite: the timing simulator vs its oracle.

The product machine (calendar event queue, closure-free home and
processor, allocation-free speculation path) replaced the original
heapq / closure-based simulator only because they are provably the
same simulation.  That original lives on unchanged as
:class:`~tests.oracles.machine.ReferenceMachine`.  This suite runs
**all 7 applications × all 4 machine modes** on both at reduced
iterations and asserts the entire :class:`~repro.sim.machine.RunResult`
— cycles, the time breakdown, request counters, and every speculation
statistic — is bit-identical, and equal to the committed golden
numbers in ``tests/golden/engine_equivalence.json``.

Timing results feed Figure 9 and Table 5 directly, so any divergence
here would silently corrupt paper figures; that is why this suite is
part of the quick CI lane, not an optional extra.
"""

import dataclasses

import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.common.config import SystemConfig
from repro.sim.machine import Machine, MachineMode, RunResult
from tests.golden import check_golden, run_result_record
from tests.oracles import ReferenceMachine

#: Small but non-trivial workloads: every app still exercises barriers,
#: locks (where present), write-invalidation chains, and speculation.
ITERATIONS = 2
NUM_PROCS = 16
SEED = 1999

_WORKLOADS: dict[str, object] = {}
#: Each (app, mode, machine) runs once per module; the equality and
#: golden tests below share its result and event count.
_RUNS: dict[tuple, tuple[RunResult, int]] = {}


def workload_for(app: str):
    """Build each app's workload once for the whole module."""
    if app not in _WORKLOADS:
        _WORKLOADS[app] = make_app(
            app, num_procs=NUM_PROCS, iterations=ITERATIONS, seed=SEED
        ).build()
    return _WORKLOADS[app]


def run_counted(
    app: str, mode: MachineMode, machine_cls=Machine
) -> tuple[RunResult, int]:
    """The run's result and the number of events it processed."""
    machine = machine_cls(
        workload_for(app),
        config=SystemConfig(num_nodes=NUM_PROCS),
        mode=mode,
    )
    result = machine.run()
    return result, machine.events_processed


def run_once(app: str, mode: MachineMode, machine_cls=Machine) -> RunResult:
    return run_counted(app, mode, machine_cls)[0]


def _run_for(app: str, mode: MachineMode, machine_cls) -> tuple[RunResult, int]:
    key = (app, mode, machine_cls)
    if key not in _RUNS:
        _RUNS[key] = run_counted(app, mode, machine_cls)
    return _RUNS[key]


def result_for(app: str, mode: MachineMode, machine_cls=Machine) -> RunResult:
    return _run_for(app, mode, machine_cls)[0]


def events_for(app: str, mode: MachineMode, machine_cls=Machine) -> int:
    return _run_for(app, mode, machine_cls)[1]


def assert_identical(product: RunResult, reference: RunResult) -> None:
    """Field-by-field comparison so a failure names the divergent stat."""
    product_dict = dataclasses.asdict(product)
    ref_dict = dataclasses.asdict(reference)
    for name, ref_value in ref_dict.items():
        assert product_dict[name] == ref_value, (
            f"RunResult.{name} diverged: product={product_dict[name]!r} "
            f"reference={ref_value!r}"
        )
    assert product == reference  # belt and braces: dataclass equality


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize(
    "mode", list(MachineMode), ids=[m.value for m in MachineMode]
)
class TestEngineEquivalence:
    """Product vs oracle, and each against the golden numbers: an edit
    to the oracle alone fails its golden test, not only the equality."""

    def test_run_result_bit_identical(self, app, mode):
        assert_identical(
            result_for(app, mode), result_for(app, mode, ReferenceMachine)
        )

    def test_same_events_processed(self, app, mode):
        """Every protocol hop stays one event: fusing a hop into its
        sender (or dropping one) lowers the product's count even where
        the results happen to agree."""
        assert events_for(app, mode) == events_for(app, mode, ReferenceMachine)

    @pytest.mark.parametrize(
        "machine_cls", [Machine, ReferenceMachine], ids=["product", "reference"]
    )
    def test_matches_golden_numbers(self, app, mode, machine_cls):
        check_golden(
            "engine_equivalence",
            f"{app}/{mode.value}",
            run_result_record(result_for(app, mode, machine_cls)),
        )


@pytest.mark.parametrize(
    "machine_cls", [Machine, ReferenceMachine], ids=["product", "reference"]
)
def test_repeat_run_determinism(machine_cls):
    """The same seed must reproduce the same RunResult, twice over."""
    first = run_once("em3d", MachineMode.SWI, machine_cls)
    second = run_once("em3d", MachineMode.SWI, machine_cls)
    assert_identical(first, second)


def test_run_speculation_equals_reference_machine():
    """The eval-layer entry point runs exactly the simulated machine."""
    from repro.eval.performance import PAPER_MODES, run_speculation

    run = run_speculation("tomcatv", iterations=ITERATIONS)
    workload = make_app(
        "tomcatv", num_procs=NUM_PROCS, iterations=ITERATIONS, seed=SEED
    ).build()
    for mode in PAPER_MODES:
        reference = ReferenceMachine(
            workload, config=SystemConfig(num_nodes=NUM_PROCS), mode=mode
        ).run()
        assert_identical(run.result(mode), reference)
