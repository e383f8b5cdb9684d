"""Tests for the MIG-DSM migratory-write extension.

The paper identifies migratory sharing as "trigger-ready" for write
speculation but leaves executing it to future work (Section 4.1).
MIG-DSM grants a read exclusively when the predictor expects the same
processor's upgrade to follow, executing the upgrade speculatively.
"""

import pytest

from repro.apps.base import WorkloadBuilder
from repro.common.config import SystemConfig
from repro.sim.address import AddressSpace
from repro.sim.machine import Machine, MachineMode

CONFIG = SystemConfig(num_nodes=4)


def migratory_workload(iterations=10):
    builder = WorkloadBuilder("mig", 4)
    space = AddressSpace(4)
    blocks = space.alloc(0, 4)
    for _ in range(iterations):
        for visitor in (0, 1, 2):
            with builder.phase(f"visit-{visitor}"):
                for block in blocks:
                    builder.read(visitor, block)
                    builder.write(visitor, block)
    return builder.finish()


def producer_consumer_workload(iterations=10):
    builder = WorkloadBuilder("pc", 4)
    space = AddressSpace(4)
    blocks = space.alloc(0, 4)
    for _ in range(iterations):
        with builder.phase("produce"):
            for block in blocks:
                builder.write(0, block)
        with builder.phase("consume"):
            for block in blocks:
                builder.read(1, block)
                builder.read(2, block)
    return builder.finish()


def run(workload, mode):
    return Machine(workload, config=CONFIG, mode=mode).run()


class TestMigratoryGrants:
    def test_migratory_pattern_earns_exclusive_grants(self):
        result = run(migratory_workload(), MachineMode.MIG)
        assert result.speculation.migratory_grants > 0

    def test_grants_verify_as_saved_upgrades(self):
        result = run(migratory_workload(), MachineMode.MIG)
        spec = result.speculation
        assert spec.migratory_upgrades_saved > 0
        # The static rotation is perfectly predictable: grants rarely
        # get demoted.
        assert spec.migratory_demotions <= spec.migratory_upgrades_saved / 4

    def test_mig_eliminates_upgrade_requests(self):
        workload = migratory_workload()
        swi = run(workload, MachineMode.SWI)
        mig = run(workload, MachineMode.MIG)
        assert mig.write_requests < swi.write_requests

    def test_mig_not_slower_than_swi_on_migratory(self):
        workload = migratory_workload()
        swi = run(workload, MachineMode.SWI)
        mig = run(workload, MachineMode.MIG)
        assert mig.cycles <= swi.cycles

    def test_producer_consumer_triggers_no_grants(self):
        # Two-reader sequences are not migratory: reads stay read-only.
        result = run(producer_consumer_workload(), MachineMode.MIG)
        assert result.speculation.migratory_grants == 0

    def test_other_modes_never_grant(self):
        workload = migratory_workload()
        for mode in (MachineMode.BASE, MachineMode.FR, MachineMode.SWI):
            result = run(workload, mode)
            assert result.speculation.migratory_grants == 0

    def test_mig_runs_are_deterministic(self):
        workload = migratory_workload()
        a = run(workload, MachineMode.MIG)
        b = run(workload, MachineMode.MIG)
        assert a.cycles == b.cycles
        assert a.speculation == b.speculation


class TestMigratoryOnPaperApps:
    @pytest.mark.parametrize("app", ["moldyn", "unstructured"])
    def test_migratory_apps_benefit(self, app):
        from repro.apps import make_app

        workload = make_app(app, iterations=6).build()
        swi = Machine(workload, mode=MachineMode.SWI).run()
        mig = Machine(workload, mode=MachineMode.MIG).run()
        assert mig.speculation.migratory_grants > 0
        assert mig.write_requests <= swi.write_requests
        assert mig.cycles <= 1.05 * swi.cycles

    def test_stencil_app_is_unharmed(self):
        from repro.apps import make_app

        workload = make_app("tomcatv", iterations=6).build()
        swi = Machine(workload, mode=MachineMode.SWI).run()
        mig = Machine(workload, mode=MachineMode.MIG).run()
        # tomcatv's two-reader vectors are not migratory; MIG must
        # behave like SWI within a small tolerance.
        assert mig.cycles == pytest.approx(swi.cycles, rel=0.1)
