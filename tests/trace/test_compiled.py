"""CompiledTrace structure, decode fidelity, and serialization."""

import base64

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.common.rng import DeterministicRng
from repro.common.types import MessageKind
from repro.protocol.emulator import ProtocolEmulator
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch
from repro.trace import KIND_CODES, KIND_TO_CODE, CompiledTrace
from tests.oracles import ReferenceEmulator

COLUMNS = ("kinds", "nodes", "blocks")


def _compile(scripts, num_nodes=8, race_seed=7):
    return ProtocolEmulator(DeterministicRng(race_seed)).compile(
        scripts, num_nodes=num_nodes
    )


class TestKindEncoding:
    def test_codes_cover_every_kind(self):
        assert set(KIND_CODES) == set(MessageKind)
        assert [KIND_TO_CODE[k] for k in KIND_CODES] == list(range(len(KIND_CODES)))

    def test_request_codes_are_a_prefix(self):
        """request_mask() relies on requests occupying the low codes."""
        for kind in KIND_CODES:
            if kind.is_request:
                assert KIND_TO_CODE[kind] <= 2
            else:
                assert KIND_TO_CODE[kind] > 2


class TestCompile:
    """compile() against the message-at-a-time ReferenceEmulator."""

    def test_decodes_to_the_identical_message_stream(
        self, producer_consumer_script, migratory_script
    ):
        scripts = [producer_consumer_script, migratory_script]
        trace = _compile(scripts)
        reference = ReferenceEmulator(DeterministicRng(7))
        expected = [
            message
            for _block, messages in reference.run(scripts)
            for message in messages
        ]
        assert list(trace.to_messages()) == expected

    def test_app_columns_match_reference(self):
        workload = make_app("em3d", num_procs=8, iterations=4).build()
        scripts = workload.block_scripts()
        trace = _compile(scripts)
        expected = ReferenceEmulator(DeterministicRng(7)).compile(
            scripts, num_nodes=8
        )
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(trace, column), getattr(expected, column)
            )

    def test_block_starts(self):
        scripts = [
            BlockScript(block=1, epochs=[WriteEpoch(0), ReadEpoch((1, 2))]),
            BlockScript(block=2, epochs=[WriteEpoch(3)]),
        ]
        trace = _compile(scripts)
        # block 1: WRITE(0), then READ(1) + WRITEBACK(0) (the read
        # downgrades the writable copy) and READ(2); block 2: WRITE(3).
        assert trace.blocks.tolist() == [1, 1, 1, 1, 2]
        assert trace.block_starts.tolist() == [0, 4]
        assert trace.block_count() == 2

    def test_empty_trace(self):
        trace = _compile([])
        assert len(trace) == 0
        assert trace.block_count() == 0
        assert list(trace.to_messages()) == []


class TestSerialization:
    def test_payload_round_trip(self):
        workload = make_app("moldyn", num_procs=8, iterations=3).build()
        trace = _compile(workload.block_scripts())
        loaded = CompiledTrace.from_payload(trace.as_payload())
        assert loaded.num_nodes == trace.num_nodes
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(loaded, column), getattr(trace, column)
            )
        assert loaded.content_hash() == trace.content_hash()

    def test_payload_columns_are_raw_little_endian_bytes(self):
        scripts = [BlockScript(block=1, epochs=[WriteEpoch(0), WriteEpoch(1)])]
        trace = _compile(scripts)
        payload = trace.as_payload()
        assert payload["num_nodes"] == 8
        assert set(payload) == {"num_nodes", *COLUMNS}
        for column, dtype in (("kinds", "<u1"), ("nodes", "<i4"), ("blocks", "<i8")):
            raw = base64.b64decode(payload[column])
            np.testing.assert_array_equal(
                np.frombuffer(raw, dtype=dtype), getattr(trace, column)
            )

    def test_empty_trace_round_trips(self):
        loaded = CompiledTrace.from_payload(_compile([]).as_payload())
        assert len(loaded) == 0 and loaded.num_nodes == 8

    def test_content_hash_sees_every_column(self):
        scripts = [BlockScript(block=1, epochs=[WriteEpoch(0), WriteEpoch(1)])]
        base = _compile(scripts)
        for column in COLUMNS:
            mutated = {name: getattr(base, name) for name in COLUMNS}
            changed = mutated[column].copy()
            changed[0] += 1
            mutated[column] = changed
            other = CompiledTrace.from_columns(
                num_nodes=base.num_nodes, **mutated
            )
            assert other.content_hash() != base.content_hash(), column

    def test_compile_is_deterministic(self):
        workload = make_app("barnes", num_procs=8, iterations=3).build()
        first = _compile(workload.block_scripts())
        second = _compile(
            make_app("barnes", num_procs=8, iterations=3).build().block_scripts()
        )
        assert first.content_hash() == second.content_hash()

    def test_race_seed_changes_racy_traces(self):
        scripts = []
        for block in range(8):
            script = BlockScript(block=block)
            for _ in range(6):
                script.append(WriteEpoch(writer=0))
                script.append(ReadEpoch(readers=(1, 2, 3, 4, 5), racy=True))
            scripts.append(script)
        baseline = _compile(scripts, race_seed=7)
        assert _compile(scripts, race_seed=7).content_hash() == baseline.content_hash()
        assert _compile(scripts, race_seed=8).content_hash() != baseline.content_hash()
