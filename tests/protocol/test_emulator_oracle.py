"""Property test: the column-writing emulator equals the reference one.

:class:`~repro.protocol.emulator.ProtocolEmulator` walks each block once
and appends int codes to columns; the
:class:`~tests.oracles.emulator.ReferenceEmulator` it replaced builds one
``Message`` per message.  For any block scripts and race seed the two
must agree on ``compile``'s three columns (values and dtypes) and on
the ``(block, messages)`` stream of ``run()``.
"""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.protocol.emulator import ProtocolEmulator
from tests.oracles import ReferenceEmulator
from tests.strategies import DETERMINISM_SETTINGS
from tests.strategies.protocol import SCRIPT_NODES, block_scripts

pytestmark = pytest.mark.property

COLUMNS = ("kinds", "nodes", "blocks")


@DETERMINISM_SETTINGS
@given(scripts=block_scripts(), race_seed=st.integers(0, 2**32))
def test_compile_and_run_equal_the_reference(scripts, race_seed):
    emulator = ProtocolEmulator(DeterministicRng(race_seed))
    reference = ReferenceEmulator(DeterministicRng(race_seed))
    trace = emulator.compile(scripts, num_nodes=SCRIPT_NODES)
    expected = reference.compile(scripts, num_nodes=SCRIPT_NODES)
    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(trace, column), getattr(expected, column), err_msg=column
        )
        assert getattr(trace, column).dtype == getattr(expected, column).dtype

    replaying = ProtocolEmulator(DeterministicRng(race_seed))
    replaying_reference = ReferenceEmulator(DeterministicRng(race_seed))
    assert list(replaying.run(scripts)) == list(replaying_reference.run(scripts))
