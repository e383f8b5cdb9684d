"""Ablations of the speculative DSM on the paper's applications.

Each test switches one mechanism off, or varies it, on a reduced-size
paper app (8 iterations, 16 nodes) and checks what the mechanism is
worth.  MIG-DSM on moldyn and unstructured is covered by
``test_migratory_extension.TestMigratoryOnPaperApps``.
"""

import pytest

from repro.apps import make_app
from repro.eval.performance import run_speculation
from repro.predictors.base import DirectoryPredictor
from repro.sim.machine import Machine, MachineMode

ITERATIONS = 8


def test_ablation_confidence_gating(monkeypatch):
    """Without per-entry confidence, ocean's thrashing reduction entries
    spray mispredicted copies under FR-DSM."""
    workload = make_app("ocean", iterations=ITERATIONS).build()
    gated = Machine(workload, mode=MachineMode.FR).run()
    monkeypatch.setattr(DirectoryPredictor, "confidence", lambda self, b, h: 3)
    ungated = Machine(workload, mode=MachineMode.FR).run()
    assert ungated.speculation.fr_missed > gated.speculation.fr_missed


def test_ablation_speculation_history_depth():
    """SWI-DSM helps the alternating app at history depths 1 and 2."""
    workload = make_app("unstructured", iterations=ITERATIONS).build()
    base = Machine(workload, mode=MachineMode.BASE).run()
    for depth in (1, 2):
        run = Machine(workload, mode=MachineMode.SWI, spec_depth=depth).run()
        assert run.cycles / base.cycles < 0.85


@pytest.mark.parametrize("app", ["em3d", "tomcatv"])
def test_ablation_fr_only_vs_swi(app):
    """SWI subsumes FR on the producer/consumer apps."""
    run = run_speculation(app, iterations=ITERATIONS)
    assert run.normalized_time(MachineMode.SWI) <= run.normalized_time(MachineMode.FR)
