"""Trace-driven predictor evaluation (Figures 7-8, Tables 3-4).

The workload's message stream is compiled once
(:func:`repro.trace.compile_app_trace`, cache-first) and every
predictor is scored with batched numpy passes
(:func:`repro.trace.evaluate_trace`), so one emulation feeds all
predictors and depths.  The scores are bit-identical to feeding every
message through the per-message predictors, the semantic definition
kept as an oracle in ``tests/oracles/`` (``run_predictors_reference``)
and checked by ``tests/trace/test_vectorized.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors import PREDICTOR_CLASSES
from repro.predictors.base import PredictionStats


@dataclass(slots=True)
class PredictorRun:
    """Outcome of training one predictor on one application's trace."""

    app: str
    predictor: str
    depth: int
    stats: PredictionStats
    average_pte: float
    overhead_bytes: float

    @property
    def accuracy(self) -> float:
        return self.stats.accuracy

    @property
    def coverage(self) -> float:
        return self.stats.coverage

    @property
    def correct_fraction(self) -> float:
        return self.stats.correct_fraction


def run_predictors(
    app_name: str,
    depth: int = 1,
    predictors: tuple[str, ...] = ("Cosmos", "MSP", "VMSP"),
    num_procs: int = 16,
    iterations: int | None = None,
    seed: int | str = 1999,
    race_seed: int | str = 7,
) -> dict[str, PredictorRun]:
    """Train the named predictors on one application's directory trace.

    All predictors observe the *same* message stream (including the
    same race outcomes), exactly as the paper compares them.
    """
    from repro.trace import compile_app_trace, evaluate_trace

    trace = compile_app_trace(
        app_name,
        num_procs=num_procs,
        iterations=iterations,
        seed=seed,
        race_seed=race_seed,
    )
    results: dict[str, PredictorRun] = {}
    for name in predictors:
        evaluation = evaluate_trace(trace, name, depth=depth)
        profile = PREDICTOR_CLASSES[name].storage_profile(num_procs, depth)
        results[name] = PredictorRun(
            app=app_name,
            predictor=name,
            depth=depth,
            stats=evaluation.stats,
            average_pte=evaluation.average_pte,
            overhead_bytes=profile.bytes_per_block(evaluation.average_pte),
        )
    return results
