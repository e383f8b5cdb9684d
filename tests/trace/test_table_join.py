"""Property test: the packed-key join equals the dense-group join.

:func:`repro.trace.vectorized._table_join` packs each position's block
segment and history into one int64 key and sorts once; the
:func:`~tests.oracles.trace.table_join_reference` it replaced builds
dense group ids with ``np.unique`` after every combine.  Over random
block segments, token widths up to 2**20 and depths 1–4 — wide enough
that the packed key has to be re-densified before it would overflow —
both must return the same entry sources, pattern-entry count and
allocated-block count.
"""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.trace.vectorized import _table_join
from tests.oracles import table_join_reference
from tests.strategies import STANDARD_SETTINGS

pytestmark = pytest.mark.property

WIDEST_TOKEN = (1 << 20) - 1


@st.composite
def join_inputs(draw):
    """``(blocks, tokens, depth)``: contiguous segments of distinct
    block ids, tokens drawn from a small palette of values up to 2**20
    (so histories repeat however wide the tokens are)."""
    palette = draw(
        st.lists(
            st.integers(0, WIDEST_TOKEN), min_size=1, max_size=4, unique=True
        )
    )
    segments = draw(
        st.lists(
            st.lists(st.sampled_from(palette), min_size=1, max_size=12),
            max_size=6,
        )
    )
    ids = draw(
        st.lists(
            st.integers(0, 1 << 40),
            min_size=len(segments),
            max_size=len(segments),
            unique=True,
        )
    )
    blocks = np.repeat(
        np.array(ids, dtype=np.int64), [len(segment) for segment in segments]
    )
    tokens = np.array(
        [token for segment in segments for token in segment], dtype=np.int64
    )
    return blocks, tokens, draw(st.integers(1, 4))


#: Three segments of width-2**20 tokens at depth 4: the fourth fold
#: would pass 2**62, so the key is re-densified first.
WIDE_DEEP = (
    np.repeat(np.arange(3, dtype=np.int64), 6),
    np.tile(np.array([0, WIDEST_TOKEN], dtype=np.int64), 9),
    4,
)


@STANDARD_SETTINGS
@given(case=join_inputs())
@example(case=WIDE_DEEP)
def test_packed_join_equals_dense_group_join(case):
    blocks, tokens, depth = case
    entry_source, pattern_entries, allocated = _table_join(blocks, tokens, depth)
    expected_source, expected_entries, expected_allocated = table_join_reference(
        blocks, tokens, depth
    )
    np.testing.assert_array_equal(entry_source, expected_source)
    assert pattern_entries == expected_entries
    assert allocated == expected_allocated
