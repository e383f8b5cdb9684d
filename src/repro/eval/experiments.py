"""One driver per paper table / figure, returning structured rows.

Every grid-shaped experiment (Figures 6-9, Tables 3-5) is declared as a
:class:`~repro.harness.spec.SweepSpec` and executed through the
experiment harness, so passing a :class:`~repro.harness.ParallelRunner`
fans the grid out over worker processes and/or reuses cached points.
With no runner the experiments run serially in-process, exactly as the
hand-written loops they replaced; results are bit-identical either way
because every sweep point is deterministic.
"""

from __future__ import annotations

from typing import Callable

from repro.analytic.model import FIGURE6_SWEEPS
from repro.apps.registry import APP_NAMES, table2_rows
from repro.common.config import SystemConfig, table1_rows
from repro.harness import ParallelRunner, SweepResult, SweepSpec

PREDICTORS = ("Cosmos", "MSP", "VMSP")

#: Iteration counts for the accuracy experiments.  Larger than each
#: app's default so pattern-table reuse (coverage) approaches the
#: paper's long runs while staying fast in Python.
ACCURACY_ITERATIONS = {
    "appbt": 30,
    "barnes": 40,
    "em3d": 40,
    "moldyn": 40,
    "ocean": 24,
    "tomcatv": 40,
    "unstructured": 32,
}

#: Iteration counts for the (slower) timing-simulator experiments.
PERFORMANCE_ITERATIONS = {
    "appbt": 12,
    "barnes": 15,
    "em3d": 16,
    "moldyn": 14,
    "ocean": 12,
    "tomcatv": 16,
    "unstructured": 12,
}

#: The panels of Figure 6, in the analytic model's declaration order.
FIGURE6_PANELS = tuple(FIGURE6_SWEEPS)


def _scale(iterations: dict[str, int], fast: bool) -> dict[str, int]:
    if not fast:
        return iterations
    return {name: max(4, count // 4) for name, count in iterations.items()}


def _run(spec: SweepSpec, runner: ParallelRunner | None) -> SweepResult:
    if runner is not None:
        return runner.run(spec)
    with ParallelRunner() as temporary:
        return temporary.run(spec)


def accuracy_spec(fast: bool = False, depths: tuple[int, ...] = (1,)) -> SweepSpec:
    """The app x depth accuracy grid behind Figures 7-8 / Tables 3-4."""
    iterations = _scale(ACCURACY_ITERATIONS, fast)
    return SweepSpec(
        kind="accuracy",
        axes={"app": APP_NAMES, "depth": list(depths)},
        base={"predictors": PREDICTORS},
        derive=lambda p: {"iterations": iterations[p["app"]]},
    )


def speculation_spec(fast: bool = False) -> SweepSpec:
    """The per-app timing-simulator grid behind Figure 9 / Table 5.

    ``num_procs`` is spelled out (rather than left to the runner's
    default of 16) so these points are literally the 16-node slice of
    the ``scaling32`` grid and the two studies share cache entries.
    """
    iterations = _scale(PERFORMANCE_ITERATIONS, fast)
    return SweepSpec(
        kind="speculation",
        axes={"app": APP_NAMES},
        base={"num_procs": 16},
        derive=lambda p: {"iterations": iterations[p["app"]]},
    )


#: Node counts of the paper-beyond scaling study (16 is the paper's
#: configuration and the comparison anchor).
SCALING_NODES = (16, 32, 64)


def scaling_spec(
    fast: bool = False, nodes: tuple[int, ...] = SCALING_NODES
) -> SweepSpec:
    """The app x node-count grid behind the ``scaling32`` study.

    Each cell goes through the ordinary ``speculation`` runner with a
    ``num_procs`` override — exactly what ``sweep --kind speculation
    --axis num_procs=16,32,64`` produces, so service, CLI sweep, and
    this named experiment all share cache entries.
    """
    iterations = _scale(PERFORMANCE_ITERATIONS, fast)
    return SweepSpec(
        kind="speculation",
        axes={"app": APP_NAMES, "num_procs": list(nodes)},
        derive=lambda p: {"iterations": iterations[p["app"]]},
    )


def figure6_spec(points: int = 21) -> SweepSpec:
    """One analytic-model point per Figure 6 panel, ``points`` samples each."""
    return SweepSpec(
        kind="analytic",
        axes={"panel": list(FIGURE6_PANELS)},
        base={"points": points},
    )


#: The grid each grid-shaped experiment expands to, declared once: the
#: drivers below run these grids (figure6 at its caller's sample count),
#: and the service runs a whole named experiment as one background sweep
#: job over the same points (``GET /v1/experiments/<name>``), so the two
#: paths share cache entries.
_EXPERIMENT_SPECS: dict[str, Callable[[bool], SweepSpec]] = {
    "figure6": lambda fast: figure6_spec(),
    "figure7": accuracy_spec,
    "figure8": lambda fast: accuracy_spec(fast, depths=(1, 2, 4)),
    "table3": accuracy_spec,
    "table4": lambda fast: accuracy_spec(fast, depths=(1, 4)),
    "figure9": speculation_spec,
    "table5": speculation_spec,
    "scaling32": scaling_spec,
}


# ----------------------------------------------------------------------
# configuration tables
# ----------------------------------------------------------------------
def table1(fast: bool = False, runner: ParallelRunner | None = None):
    """Table 1: system configuration parameters."""
    del fast, runner
    return table1_rows(SystemConfig())


def table2(fast: bool = False, runner: ParallelRunner | None = None):
    """Table 2: applications and input data sets."""
    del fast, runner
    return table2_rows()


# ----------------------------------------------------------------------
# analytic model
# ----------------------------------------------------------------------
def figure6(
    fast: bool = False,
    points: int = 21,
    runner: ParallelRunner | None = None,
) -> dict[str, dict]:
    """Figure 6: speedup of a speculative coherent DSM (4 panels)."""
    del fast
    result = _run(figure6_spec(points), runner)
    panels: dict[str, dict] = {}
    for point, value in result.items():
        panels[point["panel"]] = {
            entry["value"]: [(c, s) for c, s in entry["points"]]
            for entry in value["series"]
        }
    return panels


# ----------------------------------------------------------------------
# predictor accuracy / cost
# ----------------------------------------------------------------------
def figure7(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[str, float]]:
    """Figure 7: prediction accuracy per app, depth 1 (percent)."""
    result = _run(experiment_spec("figure7", fast), runner)
    return {
        point["app"]: {
            name: 100.0 * run["accuracy"] for name, run in value["runs"].items()
        }
        for point, value in result.items()
    }


def figure8(fast: bool = False, runner: ParallelRunner | None = None) -> dict:
    """Figure 8: prediction accuracy at history depths 1, 2, 4."""
    result = _run(experiment_spec("figure8", fast), runner)
    rows: dict[str, dict[int, dict[str, float]]] = {}
    for point, value in result.items():
        rows.setdefault(point["app"], {})[point["depth"]] = {
            name: 100.0 * run["accuracy"] for name, run in value["runs"].items()
        }
    return rows


def table3(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[str, tuple[float, float]]]:
    """Table 3: % messages predicted (and correctly predicted), d=1."""
    result = _run(experiment_spec("table3", fast), runner)
    return {
        point["app"]: {
            name: (100.0 * run["coverage"], 100.0 * run["correct_fraction"])
            for name, run in value["runs"].items()
        }
        for point, value in result.items()
    }


def table4(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[str, dict[str, float]]]:
    """Table 4: pattern-table entries per block (d=1, d=4), bytes (d=1)."""
    result = _run(experiment_spec("table4", fast), runner)
    rows: dict[str, dict[str, dict[str, float]]] = {}
    for app in APP_NAMES:
        shallow = result.value(app=app, depth=1)["runs"]
        deep = result.value(app=app, depth=4)["runs"]
        rows[app] = {
            name: {
                "pte_d1": shallow[name]["average_pte"],
                "pte_d4": deep[name]["average_pte"],
                "ovh_d1": shallow[name]["overhead_bytes"],
            }
            for name in PREDICTORS
        }
    return rows


# ----------------------------------------------------------------------
# speculative DSM performance
# ----------------------------------------------------------------------
def figure9(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[str, tuple[float, float]]]:
    """Figure 9: normalized execution time (comp, request) per system."""
    result = _run(experiment_spec("figure9", fast), runner)
    return {
        point["app"]: {
            mode: (entry["comp"], entry["request"])
            for mode, entry in value["modes"].items()
        }
        for point, value in result.items()
    }


def table5(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[str, float]]:
    """Table 5: request counts and speculation/misspeculation rates."""
    result = _run(experiment_spec("table5", fast), runner)
    return {point["app"]: value["table5"] for point, value in result.items()}


# ----------------------------------------------------------------------
# paper-beyond studies
# ----------------------------------------------------------------------
def scaling32(
    fast: bool = False, runner: ParallelRunner | None = None
) -> dict[str, dict[int, dict[str, float]]]:
    """Scaling study: normalized execution time at 16/32/64 nodes.

    Paper-beyond (ROADMAP "wider scenario grids"): reruns the Figure 9
    systems with the node count — and with it the workload
    decomposition — scaled to 32 and 64 nodes.  Rows are
    ``app -> nodes -> {mode: normalized time}``, each node count
    normalized to its own Base-DSM run.
    """
    result = _run(experiment_spec("scaling32", fast), runner)
    rows: dict[str, dict[int, dict[str, float]]] = {}
    for point, value in result.items():
        rows.setdefault(point["app"], {})[point["num_procs"]] = {
            mode: entry["normalized"] for mode, entry in value["modes"].items()
        }
    return rows


EXPERIMENTS: dict[str, Callable] = {
    "table1": table1,
    "table2": table2,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "table3": table3,
    "table4": table4,
    "figure9": figure9,
    "table5": table5,
    "scaling32": scaling32,
}

def experiment_spec(name: str, fast: bool = False) -> SweepSpec | None:
    """The sweep grid behind a named experiment, or None for static tables."""
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise ValueError(f"unknown experiment {name!r} (known: {known})")
    builder = _EXPERIMENT_SPECS.get(name)
    return None if builder is None else builder(fast)


#: Paper-beyond studies: registered and servable like any experiment but
#: excluded from a bare ``repro-paper`` run (which reproduces the paper).
EXTRA_EXPERIMENTS = frozenset({"scaling32"})

#: Experiments a bare ``repro-paper`` invocation regenerates.
PAPER_EXPERIMENTS = tuple(
    name for name in EXPERIMENTS if name not in EXTRA_EXPERIMENTS
)


def experiment_catalog() -> list[dict[str, str | bool]]:
    """Name, one-line description, and provenance of every experiment.

    This is what ``GET /v1/experiments`` serves.
    """
    catalog = []
    for name, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        catalog.append(
            {
                "name": name,
                "description": doc[0] if doc else "",
                "paper": name not in EXTRA_EXPERIMENTS,
            }
        )
    return catalog


def run_experiment(name: str, fast: bool = False, runner: ParallelRunner | None = None):
    """Run one experiment by its paper id (e.g. 'figure7')."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ValueError(f"unknown experiment {name!r} (known: {known})") from None
    return fn(fast=fast, runner=runner)
