"""Point runners: the functions that execute one sweep cell.

A runner takes the concrete parameter dict of a :class:`SweepPoint` and
returns a JSON-representable result — plain dicts with string keys,
lists, numbers — so the same value survives a trip through a worker
process *and* through the on-disk :class:`~repro.harness.store.ResultStore`
bit-for-bit.  Experiment drivers reassemble their paper-shaped rows from
these raw results in the parent process.

Runners are registered by kind in a module-level registry so worker
processes can resolve them by name after importing this module.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

PointRunner = Callable[[dict[str, Any]], Any]


@dataclass(frozen=True, slots=True)
class PointOutcome:
    """One point's value and how it was had: the record a worker
    returns, the runner stores, and sweep reports and the service's
    ``/statz`` count."""

    value: Any
    #: Compute wall seconds — of this execution for fresh points, of the
    #: original execution for cache hits (None on pre-timing entries).
    elapsed_s: float | None
    #: True when the value came from the :class:`ResultStore`.
    cached: bool
    #: Compiled-trace cache events this execution observed (always 0
    #: for cache hits — a cached point never compiles anything).
    trace_hits: int = 0
    trace_misses: int = 0


_RUNNERS: dict[str, PointRunner] = {}


def register_runner(kind: str) -> Callable[[PointRunner], PointRunner]:
    """Class of decorator: ``@register_runner("accuracy")``."""

    def decorate(fn: PointRunner) -> PointRunner:
        if kind in _RUNNERS:
            raise ValueError(f"runner kind {kind!r} already registered")
        _RUNNERS[kind] = fn
        return fn

    return decorate


def get_runner(kind: str) -> PointRunner:
    try:
        return _RUNNERS[kind]
    except KeyError:
        known = ", ".join(sorted(_RUNNERS))
        raise ValueError(f"unknown runner kind {kind!r} (known: {known})") from None


def runner_kinds() -> tuple[str, ...]:
    return tuple(sorted(_RUNNERS))


def execute_point(kind: str, params: Mapping[str, Any]) -> Any:
    """Execute one sweep cell in the current process."""
    return get_runner(kind)(dict(params))


def execute_point_instrumented(
    kind: str, params: Mapping[str, Any]
) -> PointOutcome:
    """Execute one sweep cell, returning its fresh :class:`PointOutcome`.

    The outcome travels back from worker processes and is what the
    runner persists in :class:`~repro.harness.store.ResultStore`
    entries, feeding longest-predicted-first submission and ``/statz``.
    """
    # Lazy import: the trace pipeline pulls numpy in, and the counter
    # snapshot is the only coupling the harness needs.
    from repro.trace.cache import snapshot_counters

    hits_before, misses_before = snapshot_counters()
    started = time.perf_counter()
    value = execute_point(kind, params)
    elapsed = time.perf_counter() - started
    hits_after, misses_after = snapshot_counters()
    return PointOutcome(
        value=value,
        elapsed_s=elapsed,
        cached=False,
        trace_hits=hits_after - hits_before,
        trace_misses=misses_after - misses_before,
    )


# ----------------------------------------------------------------------
# built-in kinds
# ----------------------------------------------------------------------
@register_runner("accuracy")
def run_accuracy_point(params: dict[str, Any]) -> dict[str, Any]:
    """Train predictors on one app trace (Figures 7-8, Tables 3-4).

    Parameters: ``app`` (required), ``depth``, ``iterations``,
    ``predictors``, ``num_procs``, ``seed``, ``race_seed`` — the same
    surface as :func:`repro.eval.accuracy.run_predictors`.
    """
    from repro.eval.accuracy import run_predictors

    runs = run_predictors(
        params["app"],
        depth=int(params.get("depth", 1)),
        predictors=tuple(params.get("predictors", ("Cosmos", "MSP", "VMSP"))),
        num_procs=int(params.get("num_procs", 16)),
        iterations=params.get("iterations"),
        seed=params.get("seed", 1999),
        race_seed=params.get("race_seed", 7),
    )
    return {
        "runs": {
            name: {
                "accuracy": run.accuracy,
                "coverage": run.coverage,
                "correct_fraction": run.correct_fraction,
                "average_pte": run.average_pte,
                "overhead_bytes": run.overhead_bytes,
            }
            for name, run in runs.items()
        }
    }


@register_runner("speculation")
def run_speculation_point(params: dict[str, Any]) -> dict[str, Any]:
    """Run one app on Base/FR/SWI timing simulators (Figure 9, Table 5).

    Parameters: ``app`` (required), ``iterations``, ``num_procs``,
    ``seed``, and optional ``config`` overrides applied on top of the
    default :class:`~repro.common.config.SystemConfig`.
    """
    from repro.common.config import SystemConfig
    from repro.eval.performance import PAPER_MODES, run_speculation

    overrides = dict(params.get("config") or {})
    # A config num_nodes override also sizes the workload, so
    # --set 'config={"num_nodes": N}' works without a separate num_procs.
    num_procs = int(params.get("num_procs", overrides.get("num_nodes", 16)))
    overrides.setdefault("num_nodes", num_procs)
    run = run_speculation(
        params["app"],
        num_procs=num_procs,
        iterations=params.get("iterations"),
        seed=params.get("seed", 1999),
        config=SystemConfig(**overrides),
    )
    modes: dict[str, Any] = {}
    for mode in PAPER_MODES:
        comp, request = run.breakdown(mode)
        result = run.result(mode)
        modes[mode.value] = {
            "comp": comp,
            "request": request,
            "normalized": run.normalized_time(mode),
            "cycles": result.cycles,
        }
    return {"modes": modes, "table5": run.table5_row()}


@register_runner("analytic")
def run_analytic_point(params: dict[str, Any]) -> dict[str, Any]:
    """One Figure 6 panel of the analytic model.

    Parameters: ``panel`` (required), ``points``.
    """
    from repro.analytic.model import figure6_panel

    series = figure6_panel(params["panel"], points=int(params.get("points", 21)))
    return {
        "series": [
            {"value": value, "points": [[c, s] for c, s in pts]}
            for value, pts in series.items()
        ]
    }

