"""Tests for the experiment drivers, renderers, and CLI."""

import pytest

from repro.eval.accuracy import run_predictors
from repro.eval.cli import main as cli_main
from repro.eval.experiments import EXPERIMENTS, run_experiment, table1, table2
from repro.eval.performance import run_speculation
from repro.eval.reporting import RENDERERS, render
from repro.eval.performance import PAPER_MODES
from repro.sim.machine import MachineMode


class TestRunPredictors:
    def test_all_three_predictors_trained_on_same_trace(self):
        runs = run_predictors("em3d", depth=1, iterations=6)
        assert set(runs) == {"Cosmos", "MSP", "VMSP"}
        observed = {run.stats.observed + run.stats.ignored for run in runs.values()}
        assert len(observed) == 1  # identical message streams

    def test_depth_recorded(self):
        runs = run_predictors("tomcatv", depth=2, iterations=4)
        assert all(run.depth == 2 for run in runs.values())

    def test_overhead_consistent_with_pte(self):
        runs = run_predictors("em3d", depth=1, iterations=6)
        msp = runs["MSP"]
        assert msp.overhead_bytes == pytest.approx(
            (6 + 12 * msp.average_pte) / 8
        )

    def test_custom_predictor_subset(self):
        runs = run_predictors("ocean", predictors=("VMSP",), iterations=4)
        assert set(runs) == {"VMSP"}


class TestRunSpeculation:
    @pytest.fixture(scope="class")
    def em3d_run(self):
        return run_speculation("em3d", iterations=6)

    def test_all_modes_present(self, em3d_run):
        assert em3d_run.base.mode is MachineMode.BASE
        assert em3d_run.fr.mode is MachineMode.FR
        assert em3d_run.swi.mode is MachineMode.SWI

    def test_base_normalizes_to_one(self, em3d_run):
        assert em3d_run.normalized_time(MachineMode.BASE) == 1.0

    def test_breakdown_sums_to_normalized_time(self, em3d_run):
        for mode in PAPER_MODES:
            comp, request = em3d_run.breakdown(mode)
            assert comp + request == pytest.approx(
                em3d_run.normalized_time(mode)
            )

    def test_table5_row_fields(self, em3d_run):
        row = em3d_run.table5_row()
        assert row["reads"] > 0 and row["writes"] > 0
        for key in ("fr_read_sent", "swi_read_sent", "wi_sent", "wi_miss"):
            assert 0.0 <= row[key] <= 150.0


class TestExperimentDrivers:
    def test_every_experiment_has_a_renderer(self):
        assert set(EXPERIMENTS) == set(RENDERERS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("figure99")

    def test_table1_rows(self):
        rows = dict(table1())
        assert rows["Number of nodes"] == "16"

    def test_table2_rows(self):
        assert len(table2()) == 7

    def test_figure6_fast(self):
        panels = run_experiment("figure6", fast=True)
        assert set(panels) == {"accuracy", "penalty", "fraction", "rtl"}


@pytest.mark.slow
class TestRenderers:
    @pytest.mark.parametrize("name", ["table1", "table2", "figure6"])
    def test_cheap_renderers(self, name):
        text = render(name, fast=True)
        assert text.splitlines()

    def test_figure7_renderer_lists_all_apps(self):
        text = render("figure7", fast=True)
        for app in ("appbt", "unstructured", "mean"):
            assert app in text


class TestCli:
    def test_list_option(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out and "table5" in out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["not-an-experiment"])

    def test_runs_cheap_experiment(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "418 cycles" in out

    def test_jobs_and_cache_flags(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["figure6", "--jobs", "2", "--cache-dir", str(cache)]
        assert cli_main(argv) == 0
        assert "Figure 6" in capsys.readouterr().out
        assert list(cache.glob("analytic/*.json"))

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["figure6", "--no-cache", "--cache-dir", str(cache)]
        assert cli_main(argv) == 0
        assert not cache.exists()

    def test_negative_jobs_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["figure6", "--jobs", "-1", "--cache-dir", str(tmp_path)])


class TestSweepSubcommand:
    def test_arbitrary_grid_prints_json_per_point(self, capsys, tmp_path):
        import json

        argv = [
            "sweep",
            "--kind",
            "analytic",
            "--axis",
            "panel=accuracy,rtl",
            "--set",
            "points=3",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["params"] == {"panel": "accuracy", "points": 3}
        assert first["result"]["series"]

    def test_sweep_reuses_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--kind",
            "analytic",
            "--axis",
            "panel=penalty",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "1 cached" in capsys.readouterr().err

    def test_config_num_nodes_override_sizes_the_workload(self, capsys, tmp_path):
        import json

        argv = [
            "sweep",
            "--kind",
            "speculation",
            "--axis",
            "app=em3d",
            "--set",
            "iterations=4",
            "--set",
            'config={"num_nodes": 4}',
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 0
        point = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert point["params"]["config"] == {"num_nodes": 4}
        assert point["result"]["modes"]["Base-DSM"]["normalized"] == 1.0

    def test_nan_axis_value_treated_as_string(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--kind",
            "selftest",
            "--axis",
            "payload=NaN",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 0
        import json

        point = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert point["params"]["payload"] == "NaN"

    def test_nested_nan_rejected_cleanly(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--kind",
            "selftest",
            "--axis",
            'payload={"x": NaN}',
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 1
        assert "invalid sweep parameters" in capsys.readouterr().err

    def test_legacy_engine_setting_is_an_ordinary_param(self, capsys, tmp_path):
        """There is no engine switch any more: an old ``--set engine=``
        runs the one simulator and is keyed like any parameter no
        runner reads."""
        import json

        base = [
            "sweep",
            "--kind",
            "speculation",
            "--axis",
            "app=em3d",
            "--set",
            "iterations=2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(base + ["--set", "engine=compiled"]) == 0
        legacy = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert cli_main(base) == 0
        plain = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert legacy["params"]["engine"] == "compiled"
        assert legacy["result"] == plain["result"]
        assert legacy["result"]["modes"]["Base-DSM"]["normalized"] == 1.0
        assert len(list(tmp_path.glob("speculation/*.json"))) == 2

    def test_cache_dir_env_var_resolved_at_call_time(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert cli_main(["figure6"]) == 0
        capsys.readouterr()
        assert list((tmp_path / "envcache").glob("analytic/*.json"))

    def test_axis_required(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--kind", "analytic", "--cache-dir", str(tmp_path)])

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "sweep",
                    "--kind",
                    "nope",
                    "--axis",
                    "a=1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )


class TestClaimOptionConflicts:
    """Claims divide a grid through the shared cache, so both surfaces
    refuse them with ``--refresh`` (every worker would recompute every
    point) or ``--no-cache`` (no cache to share)."""

    @pytest.mark.parametrize("flag", ["--refresh", "--no-cache"])
    @pytest.mark.parametrize(
        "surface",
        [["sweep", "--kind", "analytic", "--axis", "panel=accuracy"], ["serve"]],
        ids=["sweep", "serve"],
    )
    def test_claim_dir_conflict_exits_2(self, surface, flag, capsys, tmp_path):
        argv = [
            *surface,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--claim-dir",
            str(tmp_path / "cache" / "claims"),
            flag,
        ]
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert "--claim-dir" in capsys.readouterr().err
