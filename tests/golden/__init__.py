"""Committed golden numbers for the timing simulator and the predictors.

The product-vs-oracle suites prove the product engines equal the frozen
baselines in ``tests/oracles/``; they cannot notice an accidental edit
that changes *both*, or the oracle alone.  The JSON files here pin the
absolute numbers: each is the canonical JSON
(:func:`repro.common.canonical.canonical_json`) of results a test
module already computes, keyed by case, and the module asserts its own
results against it, so checking costs no extra simulation.

* ``engine_equivalence.json`` — the full ``RunResult`` of every
  app × machine mode run of ``tests/sim/test_engine_equivalence.py``
  (16 nodes, 2 iterations, seed 1999);
* ``paper_results.json`` — the accuracy and speculation numbers of the
  module fixtures of ``tests/integration/test_paper_results.py``;
* ``paper.json`` — the rows ``run_experiment`` returns for every paper
  experiment at paper size, one entry per name in
  ``PAPER_EXPERIMENTS``, regenerated once by
  ``tests/integration/test_paper_golden.py``.

A deliberate model change regenerates them: run the owning test module
with ``REPRO_UPDATE_GOLDEN=1`` set, then review the JSON diff.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any

from repro.common.canonical import canonical_json

GOLDEN_DIR = Path(__file__).resolve().parent

#: Set to rewrite the golden entries from the current code instead of
#: checking against them.
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"


def run_result_record(result) -> dict[str, Any]:
    """A :class:`~repro.sim.machine.RunResult` as plain JSON data."""
    record = dataclasses.asdict(result)
    record["mode"] = result.mode.value
    return record


def predictor_run_record(run) -> dict[str, Any]:
    """A :class:`~repro.eval.accuracy.PredictorRun` as plain JSON data."""
    return {
        "stats": dataclasses.asdict(run.stats),
        "average_pte": run.average_pte,
        "overhead_bytes": run.overhead_bytes,
    }


def check_golden(name: str, key: str, actual: Any) -> None:
    """Assert ``actual`` equals entry ``key`` of the committed ``<name>.json``.

    Floats compare exactly: canonical JSON writes the ``repr`` of each
    float, which round-trips bit-for-bit.
    """
    path = GOLDEN_DIR / f"{name}.json"
    actual = json.loads(canonical_json(actual))
    if os.environ.get(UPDATE_ENV):
        table = json.loads(path.read_text("utf-8")) if path.exists() else {}
        table[key] = actual
        path.write_text(canonical_json(table) + "\n", encoding="utf-8")
        return
    expected = json.loads(path.read_text("utf-8"))
    assert key in expected, f"{path.name} has no entry {key!r}"
    assert actual == expected[key], (
        f"{path.name}: {key!r} diverged from the golden numbers"
    )
