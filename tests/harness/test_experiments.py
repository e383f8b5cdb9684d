"""The paper's experiments executed through the harness.

Includes the PR's acceptance criterion: ``figure8(fast=True)`` run with
four workers is bit-identical to the serial path, and a second cached
run re-executes zero sweep points.
"""

import pytest

from repro.apps.registry import APP_NAMES
from repro.eval.experiments import (
    _EXPERIMENT_SPECS,
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    PAPER_EXPERIMENTS,
    SCALING_NODES,
    accuracy_spec,
    experiment_catalog,
    experiment_spec,
    figure6,
    figure7,
    figure8,
    run_experiment,
    scaling_spec,
    speculation_spec,
)
from repro.harness import ParallelRunner, ResultStore


class TestSpecs:
    def test_accuracy_spec_covers_all_apps_and_depths(self):
        points = accuracy_spec(depths=(1, 2, 4)).points()
        assert len(points) == len(APP_NAMES) * 3
        assert {p["app"] for p in points} == set(APP_NAMES)
        assert all(p["iterations"] >= 4 for p in points)

    def test_fast_scales_iterations_down(self):
        full = {p["app"]: p["iterations"] for p in accuracy_spec(fast=False)}
        fast = {p["app"]: p["iterations"] for p in accuracy_spec(fast=True)}
        assert all(fast[app] <= full[app] for app in APP_NAMES)

    def test_speculation_spec_one_point_per_app(self):
        assert len(speculation_spec().points()) == len(APP_NAMES)

    def test_scaling_spec_covers_all_node_counts(self):
        points = scaling_spec().points()
        assert len(points) == len(APP_NAMES) * len(SCALING_NODES)
        assert {p["num_procs"] for p in points} == set(SCALING_NODES)
        # the same kind as the CLI's `sweep --kind speculation` path:
        assert all(p.kind == "speculation" for p in points)

    def test_scaling_16_node_points_are_figure9_points(self):
        """The scaling grid's 16-node slice IS the Figure 9 grid, so a
        warmed figure9 cache makes a third of scaling32 free."""
        figure9_keys = {p.key for p in speculation_spec().points()}
        slice16 = {
            p.key for p in scaling_spec(nodes=(16,)).points()
        }
        assert slice16 == figure9_keys


class _GridHandedOver(Exception):
    def __init__(self, points):
        super().__init__(len(points))
        self.points = points


class _CapturingRunner:
    """Raises with the points of the first grid it is handed."""

    def run(self, spec):
        raise _GridHandedOver(spec.points())


class TestExperimentGrids:
    @pytest.mark.parametrize("fast", [False, True], ids=["full", "fast"])
    @pytest.mark.parametrize("name", sorted(_EXPERIMENT_SPECS))
    def test_driver_runs_the_declared_grid(self, name, fast):
        """Every driver runs exactly the grid :func:`experiment_spec`
        declares, which is the grid the service's experiment job runs."""
        with pytest.raises(_GridHandedOver) as handed:
            run_experiment(name, fast=fast, runner=_CapturingRunner())
        assert handed.value.points == experiment_spec(name, fast).points()


class TestCatalog:
    def test_paper_beyond_experiments_are_tagged(self):
        assert "scaling32" in EXPERIMENTS
        assert "scaling32" in EXTRA_EXPERIMENTS
        assert "scaling32" not in PAPER_EXPERIMENTS
        assert set(PAPER_EXPERIMENTS) | EXTRA_EXPERIMENTS == set(EXPERIMENTS)

    def test_catalog_covers_every_experiment_with_descriptions(self):
        catalog = {entry["name"]: entry for entry in experiment_catalog()}
        assert set(catalog) == set(EXPERIMENTS)
        assert all(entry["description"] for entry in catalog.values())
        assert catalog["figure9"]["paper"] and not catalog["scaling32"]["paper"]


@pytest.mark.slow
class TestScalingStudy:
    def test_one_scaled_point_through_the_sweep_path(self, tmp_path):
        """A 32-node cell of the scaling grid, run exactly as
        `sweep --kind speculation` would run it (tiny iterations)."""
        from repro.harness import SweepPoint

        point = SweepPoint.make(
            "speculation", {"app": "em3d", "num_procs": 32, "iterations": 3}
        )
        runner = ParallelRunner(store=ResultStore(tmp_path))
        result = runner.run([point])
        modes = result.values[0]["modes"]
        assert modes["Base-DSM"]["normalized"] == 1.0
        assert set(modes) == {"Base-DSM", "FR-DSM", "SWI-DSM"}
        # cached rerun is free and bit-identical:
        again = ParallelRunner(store=ResultStore(tmp_path)).run([point])
        assert again.report.cached == 1
        assert again.values == result.values


class TestFigure6ThroughHarness:
    def test_parallel_identical_to_serial(self):
        serial = figure6(points=7)
        parallel = figure6(points=7, runner=ParallelRunner(jobs=2))
        assert parallel == serial

    def test_cached_identical_and_free(self, tmp_path):
        store = ResultStore(tmp_path)
        warm = ParallelRunner(store=store)
        first = figure6(points=7, runner=warm)
        assert warm.last_report.executed == 4
        second = figure6(points=7, runner=warm)
        assert warm.last_report.executed == 0
        assert warm.last_report.cached == 4
        assert first == second


@pytest.mark.slow
class TestFigure8Acceptance:
    def test_parallel_then_cached_bit_identical_to_serial(self, tmp_path):
        serial = figure8(fast=True)

        store = ResultStore(tmp_path)
        parallel = ParallelRunner(jobs=4, store=store)
        parallel_rows = figure8(fast=True, runner=parallel)
        assert parallel_rows == serial  # same dict, bit-for-bit
        assert parallel.last_report.executed == len(APP_NAMES) * 3
        assert parallel.last_report.cached == 0

        cached = ParallelRunner(jobs=4, store=store)
        cached_rows = figure8(fast=True, runner=cached)
        assert cached_rows == serial
        assert cached.last_report.executed == 0
        assert cached.last_report.cached == len(APP_NAMES) * 3

    def test_cache_shared_across_experiments(self, tmp_path):
        """figure7 is the depth-1 slice of figure8's grid: free if cached."""
        store = ResultStore(tmp_path)
        figure8(fast=True, runner=ParallelRunner(jobs=4, store=store))
        runner = ParallelRunner(store=store)
        rows = figure7(fast=True, runner=runner)
        assert runner.last_report.executed == 0
        assert runner.last_report.cached == len(APP_NAMES)
        assert set(rows) == set(APP_NAMES)
