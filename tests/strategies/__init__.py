"""Hypothesis strategies for property-based tests.

Import from test modules *after* ``pytest.importorskip("hypothesis")``
so the suite degrades to skips when Hypothesis is not installed::

    import pytest

    pytest.importorskip("hypothesis")
    from tests.strategies import DETERMINISM_SETTINGS, block_ids, sweep_points

Re-exports the common strategies and the tiered settings profiles.
"""

from tests.strategies.settings import (
    DETERMINISM_SETTINGS,
    QUICK_SETTINGS,
    STANDARD_SETTINGS,
)
from tests.strategies.sim import block_ids, node_ids, rng_labels, seeds
from tests.strategies.sweeps import sweep_param_dicts, sweep_points
from tests.strategies.wire import http_requests

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "STANDARD_SETTINGS",
    "block_ids",
    "http_requests",
    "node_ids",
    "rng_labels",
    "seeds",
    "sweep_param_dicts",
    "sweep_points",
]
