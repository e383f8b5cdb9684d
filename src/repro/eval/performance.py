"""Timing-simulator evaluation (Figure 9 and Table 5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.registry import make_app
from repro.common.config import SystemConfig
from repro.sim.machine import Machine, MachineMode, RunResult


#: The three system variants the paper evaluates (Figure 9 / Table 5);
#: MIG-DSM is this reproduction's extension and is benchmarked separately.
PAPER_MODES = (MachineMode.BASE, MachineMode.FR, MachineMode.SWI)


@dataclass(slots=True)
class SpeculationRun:
    """Base / FR / SWI results for one application."""

    app: str
    base: RunResult
    fr: RunResult
    swi: RunResult

    def result(self, mode: MachineMode) -> RunResult:
        return {
            MachineMode.BASE: self.base,
            MachineMode.FR: self.fr,
            MachineMode.SWI: self.swi,
        }[mode]

    # ------------------------------------------------------------------
    # Figure 9 quantities (normalized to Base-DSM)
    # ------------------------------------------------------------------
    def normalized_time(self, mode: MachineMode) -> float:
        return self.result(mode).cycles / self.base.cycles

    def breakdown(self, mode: MachineMode) -> tuple[float, float]:
        """(computation, request-wait) shares of normalized time.

        The paper folds synchronization into computation (Figure 9's
        "comp" includes barrier and lock time).
        """
        run = self.result(mode)
        total = self.normalized_time(mode)
        request = total * run.request_fraction
        return (total - request, request)

    # ------------------------------------------------------------------
    # Table 5 quantities (percentages of Base-DSM request counts)
    # ------------------------------------------------------------------
    def table5_row(self) -> dict[str, float]:
        reads = self.base.read_requests or 1
        writes = self.base.write_requests or 1
        fr_spec = self.fr.speculation
        swi_spec = self.swi.speculation
        return {
            "reads": self.base.read_requests,
            "writes": self.base.write_requests,
            "fr_read_sent": 100.0 * fr_spec.fr_sent / reads,
            "fr_read_miss": 100.0 * fr_spec.fr_missed / reads,
            "swi_fr_read_sent": 100.0 * swi_spec.fr_sent / reads,
            "swi_fr_read_miss": 100.0 * swi_spec.fr_missed / reads,
            "swi_read_sent": 100.0 * swi_spec.swi_sent / reads,
            "swi_read_miss": 100.0 * swi_spec.swi_missed / reads,
            "wi_sent": 100.0 * swi_spec.wi_sent / writes,
            "wi_miss": 100.0 * swi_spec.wi_premature / writes,
        }


def run_speculation(
    app_name: str,
    num_procs: int = 16,
    iterations: int | None = None,
    seed: int | str = 1999,
    config: SystemConfig | None = None,
) -> SpeculationRun:
    """Run one application on all three machine variants."""
    app = make_app(app_name, num_procs=num_procs, iterations=iterations, seed=seed)
    workload = app.build()
    cfg = config or SystemConfig(num_nodes=num_procs)
    results = {}
    for mode in PAPER_MODES:
        results[mode] = Machine(workload, config=cfg, mode=mode).run()
    return SpeculationRun(
        app=app_name,
        base=results[MachineMode.BASE],
        fr=results[MachineMode.FR],
        swi=results[MachineMode.SWI],
    )
