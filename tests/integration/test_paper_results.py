"""Reproduction acceptance tests: the paper's headline shapes.

These tests assert the *qualitative* results of Section 7 — who wins,
roughly by how much, and where — on reduced-size runs, so the suite
stays fast while still guarding the reproduction's conclusions.
"""

import pytest

from repro.apps import APP_NAMES
from repro.eval.accuracy import run_predictors
from repro.eval.performance import run_speculation
from repro.sim.machine import MachineMode
from tests.golden import check_golden, predictor_run_record, run_result_record

ACCURACY_ITERS = {
    "appbt": 10, "barnes": 21, "em3d": 20, "moldyn": 16,
    "ocean": 12, "tomcatv": 16, "unstructured": 16,
}
PERF_ITERS = {
    "appbt": 8, "barnes": 10, "em3d": 10, "moldyn": 8,
    "ocean": 8, "tomcatv": 10, "unstructured": 8,
}


@pytest.fixture(scope="module")
def accuracy():
    return {
        app: run_predictors(app, depth=1, iterations=ACCURACY_ITERS[app])
        for app in APP_NAMES
    }


@pytest.fixture(scope="module")
def speculation():
    return {
        app: run_speculation(app, iterations=PERF_ITERS[app])
        for app in APP_NAMES
    }


@pytest.mark.parametrize("app", APP_NAMES)
class TestGoldenNumbers:
    """The fixtures' exact numbers, pinned in tests/golden/."""

    def test_accuracy(self, accuracy, app):
        check_golden(
            "paper_results",
            f"accuracy/{app}",
            {name: predictor_run_record(run) for name, run in accuracy[app].items()},
        )

    def test_speculation(self, speculation, app):
        run = speculation[app]
        check_golden(
            "paper_results",
            f"speculation/{app}",
            {
                mode.value: run_result_record(run.result(mode))
                for mode in (MachineMode.BASE, MachineMode.FR, MachineMode.SWI)
            },
        )


class TestFigure7Shape:
    """MSP beats Cosmos, VMSP beats both (81% -> 86% -> 93%)."""

    def test_mean_accuracy_ordering(self, accuracy):
        means = {
            p: sum(accuracy[a][p].accuracy for a in APP_NAMES) / len(APP_NAMES)
            for p in ("Cosmos", "MSP", "VMSP")
        }
        assert means["Cosmos"] < means["MSP"] < means["VMSP"]

    def test_mean_magnitudes_near_paper(self, accuracy):
        means = {
            p: sum(accuracy[a][p].accuracy for a in APP_NAMES) / len(APP_NAMES)
            for p in ("Cosmos", "MSP", "VMSP")
        }
        assert means["Cosmos"] == pytest.approx(0.81, abs=0.06)
        assert means["MSP"] == pytest.approx(0.86, abs=0.06)
        assert means["VMSP"] == pytest.approx(0.93, abs=0.04)

    def test_vmsp_at_least_87_percent_on_all_but_one(self, accuracy):
        below = [
            app for app in APP_NAMES
            if accuracy[app]["VMSP"].accuracy < 0.85
        ]
        assert len(below) <= 1  # the paper: all but barnes

    def test_em3d_msp_reaches_99(self, accuracy):
        assert accuracy["em3d"]["MSP"].accuracy >= 0.99
        assert accuracy["em3d"]["Cosmos"].accuracy < 0.85

    def test_unstructured_vmsp_rescues_msp(self, accuracy):
        runs = accuracy["unstructured"]
        assert runs["MSP"].accuracy < 0.75
        assert runs["VMSP"].accuracy > 0.85

    def test_cosmos_slightly_beats_msp_on_appbt(self, accuracy):
        runs = accuracy["appbt"]
        assert runs["Cosmos"].accuracy > runs["MSP"].accuracy

    def test_tomcatv_is_fully_predictable(self, accuracy):
        for predictor in ("Cosmos", "MSP", "VMSP"):
            assert accuracy["tomcatv"][predictor].accuracy >= 0.97

    def test_barnes_is_hardest(self, accuracy):
        vmsp = {app: accuracy[app]["VMSP"].accuracy for app in APP_NAMES}
        assert min(vmsp, key=vmsp.get) == "barnes"


class TestFigure8Shape:
    """Deeper history disambiguates alternating patterns."""

    def test_depth_two_fixes_appbt(self):
        shallow = run_predictors("appbt", depth=1, iterations=10)
        deep = run_predictors("appbt", depth=2, iterations=10)
        for predictor in ("MSP", "VMSP"):
            assert deep[predictor].accuracy > shallow[predictor].accuracy
        assert deep["VMSP"].accuracy >= 0.99

    def test_depth_improves_unstructured(self):
        accuracies = [
            run_predictors("unstructured", depth=d, iterations=12)["VMSP"].accuracy
            for d in (1, 2, 4)
        ]
        assert accuracies[0] < accuracies[1] <= accuracies[2] + 0.01
        assert accuracies[2] >= 0.94


class TestTable3Shape:
    def test_high_coverage_for_iterative_apps(self, accuracy):
        for app in ("em3d", "moldyn", "tomcatv", "unstructured"):
            assert accuracy[app]["MSP"].coverage > 0.85

    def test_barnes_coverage_is_lowest(self, accuracy):
        coverage = {app: accuracy[app]["MSP"].coverage for app in APP_NAMES}
        assert min(coverage, key=coverage.get) in ("barnes", "ocean")

    def test_vmsp_learns_slightly_slower(self, accuracy):
        slower = sum(
            accuracy[app]["VMSP"].coverage <= accuracy[app]["MSP"].coverage + 1e-9
            for app in APP_NAMES
        )
        assert slower >= 5  # VMSP's vectors take longer to commit


class TestTable4Shape:
    def test_pattern_table_ordering(self, accuracy):
        for app in APP_NAMES:
            cosmos = accuracy[app]["Cosmos"].average_pte
            msp = accuracy[app]["MSP"].average_pte
            assert msp <= cosmos + 1e-9

    def test_cosmos_explodes_at_depth_four_on_barnes(self):
        shallow = run_predictors("barnes", depth=1, iterations=21)
        deep = run_predictors("barnes", depth=4, iterations=21)
        assert deep["Cosmos"].average_pte > 2.5 * shallow["Cosmos"].average_pte
        # MSP and VMSP grow far more slowly.
        assert deep["VMSP"].average_pte < deep["Cosmos"].average_pte / 2

    def test_msp_storage_roughly_half_of_cosmos(self, accuracy):
        ratios = [
            accuracy[app]["MSP"].overhead_bytes
            / accuracy[app]["Cosmos"].overhead_bytes
            for app in APP_NAMES
        ]
        assert sum(ratios) / len(ratios) < 0.7


class TestFigure9Shape:
    def test_speculation_never_hurts_much(self, speculation):
        for app in APP_NAMES:
            for mode in (MachineMode.FR, MachineMode.SWI):
                assert speculation[app].normalized_time(mode) < 1.06

    def test_swi_best_cases_are_em3d_and_unstructured(self, speculation):
        times = {
            app: speculation[app].normalized_time(MachineMode.SWI)
            for app in APP_NAMES
        }
        best_two = sorted(times, key=times.get)[:2]
        assert set(best_two) <= {"em3d", "unstructured", "moldyn"}

    def test_swi_adds_nothing_for_appbt_barnes_ocean(self, speculation):
        for app in ("appbt", "barnes", "ocean"):
            fr = speculation[app].normalized_time(MachineMode.FR)
            swi = speculation[app].normalized_time(MachineMode.SWI)
            assert swi >= fr - 0.06

    def test_swi_beats_fr_where_paper_says(self, speculation):
        for app in ("em3d", "moldyn", "tomcatv", "unstructured"):
            fr = speculation[app].normalized_time(MachineMode.FR)
            swi = speculation[app].normalized_time(MachineMode.SWI)
            assert swi < fr

    def test_average_improvements_at_least_paper_band(self, speculation):
        fr_mean = sum(
            speculation[a].normalized_time(MachineMode.FR) for a in APP_NAMES
        ) / len(APP_NAMES)
        swi_mean = sum(
            speculation[a].normalized_time(MachineMode.SWI) for a in APP_NAMES
        ) / len(APP_NAMES)
        assert fr_mean <= 0.97  # paper: mean 8% reduction
        assert swi_mean <= 0.92  # paper: mean 12% reduction
        assert swi_mean < fr_mean


class TestTable5Shape:
    def test_em3d_swi_dominates(self, speculation):
        row = speculation["em3d"].table5_row()
        assert row["wi_sent"] >= 90
        assert row["swi_read_sent"] >= 80
        assert row["fr_read_sent"] >= 30  # FR-DSM column

    def test_swi_defeated_on_appbt_barnes_ocean(self, speculation):
        for app in ("appbt", "barnes", "ocean"):
            row = speculation[app].table5_row()
            assert row["swi_read_sent"] <= 10
            assert row["wi_sent"] <= 40

    def test_tomcatv_correction_halves_swi(self, speculation):
        row = speculation["tomcatv"].table5_row()
        assert 30 <= row["wi_sent"] <= 70
        assert row["swi_read_sent"] >= 25

    def test_unstructured_migratory_chains(self, speculation):
        row = speculation["unstructured"].table5_row()
        assert row["wi_sent"] >= 80
        assert row["swi_read_sent"] >= 50

    def test_write_invalidate_misses_are_small(self, speculation):
        for app in APP_NAMES:
            row = speculation[app].table5_row()
            assert row["wi_miss"] <= 25
