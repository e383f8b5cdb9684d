"""Strategies for the protocol emulator's inputs.

A block script is a random sequence of read and write epochs over a
small machine (node ids below 8), so blocks move through every
directory state: racy read arrival, racy acknowledgements, re-reads
that hit, silent owner writes, upgrades and empty read epochs.
"""

from hypothesis import strategies as st

from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch

#: Node ids stay below this, so a few epochs already share a block.
SCRIPT_NODES = 8


def epochs(num_nodes: int = SCRIPT_NODES) -> st.SearchStrategy:
    """One :class:`ReadEpoch` (possibly with no readers) or :class:`WriteEpoch`."""
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    reads = st.builds(
        ReadEpoch,
        readers=st.lists(node, unique=True, max_size=num_nodes).map(tuple),
        racy=st.booleans(),
        racy_acks=st.booleans(),
    )
    writes = st.builds(WriteEpoch, writer=node)
    return st.one_of(reads, writes)


def block_scripts(
    max_blocks: int = 4, max_epochs: int = 12, num_nodes: int = SCRIPT_NODES
) -> st.SearchStrategy[list[BlockScript]]:
    """A few :class:`BlockScript` objects with distinct block ids."""
    script = st.builds(
        BlockScript,
        block=st.integers(min_value=0, max_value=1 << 20),
        epochs=st.lists(epochs(num_nodes), max_size=max_epochs),
    )
    return st.lists(script, max_size=max_blocks, unique_by=lambda s: s.block)
