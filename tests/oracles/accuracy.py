"""Per-message predictor evaluation (reference oracle).

Each predictor object observes every message of the emulated directory
trace in Python.  This is the semantic definition the vectorized trace
pipeline behind :func:`repro.eval.accuracy.run_predictors` is tested
against, kept as the executable contract.
"""

from __future__ import annotations

from repro.apps.registry import make_app
from repro.common.rng import DeterministicRng
from repro.eval.accuracy import PredictorRun
from repro.predictors import PREDICTOR_CLASSES, DirectoryPredictor
from repro.protocol.emulator import ProtocolEmulator


def run_predictors_reference(
    app_name: str,
    depth: int = 1,
    predictors: tuple[str, ...] = ("Cosmos", "MSP", "VMSP"),
    num_procs: int = 16,
    iterations: int | None = None,
    seed: int | str = 1999,
    race_seed: int | str = 7,
) -> dict[str, PredictorRun]:
    app = make_app(app_name, num_procs=num_procs, iterations=iterations, seed=seed)
    workload = app.build()
    emulator = ProtocolEmulator(DeterministicRng(race_seed))
    instances: dict[str, DirectoryPredictor] = {
        name: PREDICTOR_CLASSES[name](depth=depth) for name in predictors
    }
    for _block, messages in emulator.run(workload.block_scripts()):
        for message in messages:
            for predictor in instances.values():
                predictor.observe(message)
    results: dict[str, PredictorRun] = {}
    for name, predictor in instances.items():
        flush = getattr(predictor, "flush", None)
        if flush is not None:
            flush()
        average_pte = predictor.average_pattern_entries()
        profile = predictor.storage_profile(num_procs, depth)
        results[name] = PredictorRun(
            app=app_name,
            predictor=name,
            depth=depth,
            stats=predictor.stats,
            average_pte=average_pte,
            overhead_bytes=profile.bytes_per_block(average_pte),
        )
    return results
