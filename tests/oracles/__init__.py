"""Frozen reference implementations the product code is tested against.

``src/`` holds one implementation per hot path.  The slower, simpler
implementations they replaced live here, unchanged but for imports and
class names, as executable oracles:

* :class:`~tests.oracles.machine.ReferenceMachine` — the timing
  simulator on the heapq event queue, closure-based home directories
  and processors, closure-delivering interconnect and Message-boxed
  speculation engine;
* :func:`~tests.oracles.accuracy.run_predictors_reference` — predictor
  scoring one message at a time through the per-message predictors;
* :class:`~tests.oracles.emulator.ReferenceEmulator` — the protocol
  emulator building one ``Message`` and bumping one counter per
  message;
* :func:`~tests.oracles.trace.table_join_reference` — the scoring join
  over re-densified group ids;
* :func:`~tests.oracles.sessions.parse_ndjson_events_reference` and
  :func:`~tests.oracles.sessions.prediction_line_reference` — the
  session codec decoding one ``json.loads`` per event line and
  encoding each prediction line as a dict through ``json.dumps``.

Tests compare product against oracle (``tests/sim/``, ``tests/trace/``,
``tests/protocol/``, ``tests/service/``); the golden files in
``tests/golden/`` pin both to absolute numbers.
"""

from tests.oracles.accuracy import run_predictors_reference
from tests.oracles.emulator import ReferenceEmulator
from tests.oracles.events import ReferenceEventQueue
from tests.oracles.interconnect import ReferenceInterconnect
from tests.oracles.machine import ReferenceMachine
from tests.oracles.sessions import (
    parse_ndjson_events_reference,
    prediction_line_reference,
)
from tests.oracles.trace import table_join_reference

__all__ = [
    "ReferenceEmulator",
    "ReferenceEventQueue",
    "ReferenceInterconnect",
    "ReferenceMachine",
    "parse_ndjson_events_reference",
    "prediction_line_reference",
    "run_predictors_reference",
    "table_join_reference",
]
