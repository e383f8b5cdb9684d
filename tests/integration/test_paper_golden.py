"""The paper at full size: every figure and table, pinned and checked.

One module-scoped fixture regenerates every experiment of
``PAPER_EXPERIMENTS`` once, at paper size, through a cached
``ParallelRunner`` (figure7 and table3, or figure9 and table5, share
their grid points, so each point runs once).  Each experiment's rows
must equal its entry in ``tests/golden/paper.json``; the classes below
assert the paper's claims over the same rows, so a deliberate model
change that moves the golden numbers still has to keep the paper's
shapes.  Regenerate the golden file with ``REPRO_UPDATE_GOLDEN=1`` set.
"""

import pytest

from repro.analytic.model import FIGURE6_SWEEPS
from repro.apps import APP_NAMES
from repro.eval.experiments import PAPER_EXPERIMENTS, PREDICTORS, run_experiment
from repro.harness import ParallelRunner, ResultStore
from repro.sim.machine import MachineMode
from repro.trace import cache
from tests.golden import check_golden

FR, SWI = MachineMode.FR.value, MachineMode.SWI.value


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """``{experiment: rows}`` for every paper experiment, at paper size."""
    root = tmp_path_factory.mktemp("paper")
    # Restored here, not by the autouse ``_isolate_trace_cache``: that
    # fixture is function-scoped and set up after this one, so it would
    # save this tmp dir as the state to restore.
    saved = cache._configured
    cache.configure_trace_cache(root)
    try:
        runner = ParallelRunner(store=ResultStore(root))
        return {name: run_experiment(name, runner=runner) for name in PAPER_EXPERIMENTS}
    finally:
        cache._configured = saved


@pytest.mark.parametrize("name", PAPER_EXPERIMENTS)
def test_matches_golden(paper, name):
    check_golden("paper", name, paper[name])


class TestConfigurationTables:
    def test_table1_system_configuration(self, paper):
        rows = dict(paper["table1"])
        assert rows["Round-trip miss latency"] == "418 cycles"
        assert rows["Number of nodes"] == "16"

    def test_table2_applications(self, paper):
        rows = paper["table2"]
        assert len(rows) == 7
        assert {name for name, _inputs, _iters in rows} == {
            "appbt", "barnes", "em3d", "moldyn", "ocean", "tomcatv", "unstructured",
        }


class TestFigure6:
    def test_panels_and_series(self, paper):
        panels = paper["figure6"]
        assert set(panels) == set(FIGURE6_SWEEPS)
        for series in panels.values():
            for points in series.values():
                assert len(points) == 21

    def test_accuracy_endpoints(self, paper):
        accuracy = paper["figure6"]["accuracy"]
        # Perfect prediction turns the DSM into an SMP: the p=1.0 curve
        # at c=1 reaches the full rtl=4 speedup.
        assert accuracy[1.0][-1][1] == pytest.approx(4.0)
        # Low accuracies slow the machine down at high c.
        assert accuracy[0.1][-1][1] < 1.0


class TestFigure7:
    """MSP beats Cosmos, VMSP beats both (81% -> 86% -> 93%)."""

    def test_mean_accuracy_ordering_and_bands(self, paper):
        rows = paper["figure7"]
        means = {
            p: sum(rows[app][p] for app in APP_NAMES) / len(APP_NAMES)
            for p in PREDICTORS
        }
        assert means["Cosmos"] < means["MSP"] < means["VMSP"]
        assert 75.0 <= means["Cosmos"] <= 87.0
        assert 82.0 <= means["MSP"] <= 92.0
        assert 89.0 <= means["VMSP"] <= 97.0


class TestFigure8:
    def test_history_depth_effects(self, paper):
        rows = paper["figure8"]
        # Depth 2 captures appbt's alternating edge consumers; deeper
        # history recovers unstructured's alternating reductions.
        assert rows["appbt"][2]["VMSP"] >= 99.0
        assert rows["appbt"][2]["MSP"] > rows["appbt"][1]["MSP"]
        assert rows["unstructured"][4]["VMSP"] > rows["unstructured"][1]["VMSP"]
        assert rows["barnes"][4]["Cosmos"] >= rows["barnes"][1]["Cosmos"]


class TestTable3:
    def test_coverage(self, paper):
        rows = paper["table3"]
        for row in rows.values():
            for coverage, correct in row.values():
                assert 0.0 <= correct <= coverage <= 100.0
        # Iterative apps predict most messages; VMSP pays a small
        # learning-speed cost but wins on correctly predicted totals.
        assert rows["em3d"]["MSP"][0] >= 85.0
        assert rows["unstructured"]["VMSP"][1] > rows["unstructured"]["MSP"][1]
        assert rows["barnes"]["VMSP"][1] > rows["barnes"]["Cosmos"][1]


class TestTable4:
    def test_table_growth(self, paper):
        rows = paper["table4"]
        for row in rows.values():
            # MSP needs no more entries than Cosmos; deeper histories
            # never shrink the tables.
            assert row["MSP"]["pte_d1"] <= row["Cosmos"]["pte_d1"] + 1e-9
            assert row["Cosmos"]["pte_d4"] >= row["Cosmos"]["pte_d1"] - 1e-9
        # Cosmos's tables explode with depth on the re-ordering-heavy apps.
        barnes = rows["barnes"]["Cosmos"]
        assert barnes["pte_d4"] > 2 * barnes["pte_d1"]
        unstructured = rows["unstructured"]
        assert unstructured["VMSP"]["pte_d4"] < unstructured["Cosmos"]["pte_d4"] / 2


class TestFigure9:
    def test_fr_and_swi_means(self, paper):
        rows = paper["figure9"]

        def total(app, mode):
            comp, request = rows[app][mode]
            return comp + request

        fr_mean = sum(total(app, FR) for app in APP_NAMES) / len(APP_NAMES)
        swi_mean = sum(total(app, SWI) for app in APP_NAMES) / len(APP_NAMES)
        # FR alone buys ~8% on average, SWI+FR ~12%, and the SWI winners
        # are the producer/consumer applications.
        assert fr_mean < 0.97
        assert swi_mean < fr_mean
        assert total("em3d", SWI) < 0.85
        assert total("unstructured", SWI) < 0.85
        for app in ("appbt", "barnes", "ocean"):
            assert total(app, SWI) >= total(app, FR) - 0.06


class TestTable5:
    def test_speculation_rates(self, paper):
        rows = paper["table5"]
        # em3d: SWI invalidates ~all writes and triggers ~all reads.
        assert rows["em3d"]["wi_sent"] >= 90
        assert rows["em3d"]["swi_read_sent"] >= 80
        # tomcatv: the correction phase halves SWI's write coverage.
        assert 30 <= rows["tomcatv"]["wi_sent"] <= 70
        # SWI fails on appbt/barnes/ocean (producers re-touch their data).
        for app in ("appbt", "barnes", "ocean"):
            assert rows[app]["swi_read_sent"] <= 10
        # unstructured: migratory SWI chains cover most writes.
        assert rows["unstructured"]["wi_sent"] >= 80
        # Write-invalidate misspeculation stays small everywhere.
        for row in rows.values():
            assert row["wi_miss"] <= 25
