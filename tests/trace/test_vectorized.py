"""Golden equivalence: vectorized evaluation ≡ per-message reference.

The contract the trace pipeline ships under: for every trace the
protocol emulator can produce, :func:`repro.trace.evaluate_trace` must
return **bit-identical** accuracy counters (observed / predicted /
correct / ignored) and pattern-table shape (entries, allocated blocks)
to feeding the decoded message stream through the reference predictor
objects.  Accuracy, coverage, and correct-fraction are ratios of those
integers, so integer equality implies float equality.
"""

import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.common.rng import DeterministicRng
from repro.protocol.emulator import ProtocolEmulator
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch
from repro.eval.accuracy import run_predictors
from repro.trace import evaluate_trace, evaluate_trace_reference
from tests.oracles import run_predictors_reference

PREDICTORS = ("Cosmos", "MSP", "VMSP")


def _compile(scripts, num_nodes=8, race_seed=7):
    return ProtocolEmulator(DeterministicRng(race_seed)).compile(
        scripts, num_nodes=num_nodes
    )


def _app_trace(app_name, num_procs=8, iterations=4):
    workload = make_app(app_name, num_procs=num_procs, iterations=iterations).build()
    return _compile(workload.block_scripts(), num_nodes=num_procs)


def assert_equivalent(trace, predictor, depth):
    reference = evaluate_trace_reference(trace, predictor, depth)
    vectorized = evaluate_trace(trace, predictor, depth)
    ref, vec = reference.stats, vectorized.stats
    assert (vec.observed, vec.predicted, vec.correct, vec.ignored) == (
        ref.observed,
        ref.predicted,
        ref.correct,
        ref.ignored,
    ), f"{predictor} d={depth}: counter mismatch"
    assert vectorized.pattern_entries == reference.pattern_entries
    assert vectorized.allocated_blocks == reference.allocated_blocks
    assert vectorized.average_pte == reference.average_pte


class TestGoldenEquivalenceAllApps:
    """The acceptance-criteria matrix: 7 apps x {Cosmos, MSP, VMSP}."""

    @pytest.mark.parametrize("app_name", APP_NAMES)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_depth_one(self, app_name, predictor):
        assert_equivalent(_app_trace(app_name), predictor, depth=1)

    @pytest.mark.parametrize("app_name", ("barnes", "ocean", "appbt"))
    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("depth", (2, 4))
    def test_deeper_histories(self, app_name, predictor, depth):
        assert_equivalent(_app_trace(app_name), predictor, depth=depth)


class TestRunPredictorsOracle:
    """run_predictors ≡ the per-message oracle run_predictors_reference."""

    @pytest.mark.parametrize("app_name", ("em3d", "barnes", "unstructured"))
    def test_bit_identical_to_reference(self, app_name):
        kwargs = dict(num_procs=8, iterations=4, depth=1)
        vectorized = run_predictors(app_name, **kwargs)
        reference = run_predictors_reference(app_name, **kwargs)
        assert vectorized.keys() == reference.keys()
        for name in vectorized:
            vec, ref = vectorized[name], reference[name]
            assert vec.stats == ref.stats
            assert vec.average_pte == ref.average_pte
            assert vec.overhead_bytes == ref.overhead_bytes
            assert vec.accuracy == ref.accuracy
            assert vec.coverage == ref.coverage
            assert vec.correct_fraction == ref.correct_fraction


class TestEdgeCases:
    def test_empty_trace(self):
        trace = _compile([])
        for predictor in PREDICTORS:
            assert_equivalent(trace, predictor, depth=1)

    def test_single_message_blocks(self):
        scripts = [BlockScript(block=b, epochs=[WriteEpoch(b % 4)]) for b in range(6)]
        for predictor in PREDICTORS:
            assert_equivalent(_compile(scripts), predictor, depth=1)

    def test_racy_reads_and_acks(self):
        """Both race permutations (the paper's two perturbations)."""
        scripts = []
        for block in range(4):
            script = BlockScript(block=block)
            for _ in range(8):
                script.append(WriteEpoch(writer=0))
                script.append(
                    ReadEpoch(readers=(1, 2, 3, 4), racy=True, racy_acks=True)
                )
            scripts.append(script)
        trace = _compile(scripts)
        for predictor in PREDICTORS:
            for depth in (1, 2):
                assert_equivalent(trace, predictor, depth)

    def test_trailing_read_run_is_flushed(self):
        """A trace ending mid-read-run exercises VMSP's flush path."""
        script = BlockScript(block=9)
        for _ in range(5):
            script.append(WriteEpoch(writer=0))
            script.append(ReadEpoch(readers=(1, 2)))
        script.append(WriteEpoch(writer=3))
        script.append(ReadEpoch(readers=(1, 2)))  # never closed by a write
        for depth in (1, 2):
            assert_equivalent(_compile([script]), "VMSP", depth)

    def test_migratory_pattern(self, migratory_script):
        for predictor in PREDICTORS:
            assert_equivalent(_compile([migratory_script]), predictor, depth=1)

    def test_depth_exceeding_block_length(self):
        """Blocks shorter than the history depth never predict."""
        scripts = [BlockScript(block=1, epochs=[WriteEpoch(0), WriteEpoch(1)])]
        for predictor in PREDICTORS:
            assert_equivalent(_compile(scripts), predictor, depth=4)

    def test_wide_system_uses_reference_fallback(self):
        """VMSP beyond 64 nodes falls back to the reference path."""
        script = BlockScript(block=1)
        for _ in range(6):
            script.append(WriteEpoch(writer=0))
            script.append(ReadEpoch(readers=(65, 66, 70)))
        trace = _compile([script], num_nodes=72)
        for predictor in PREDICTORS:
            assert_equivalent(trace, predictor, depth=1)

    def test_sixty_four_nodes_stays_vectorized(self):
        """Node id 63 is the last one a uint64 reader bitmask holds."""
        script = BlockScript(block=1)
        for _ in range(6):
            script.append(WriteEpoch(writer=0))
            script.append(ReadEpoch(readers=(1, 62, 63)))
        trace = _compile([script], num_nodes=64)
        for predictor in PREDICTORS:
            assert_equivalent(trace, predictor, depth=1)

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            evaluate_trace(_compile([]), "Oracle")

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            evaluate_trace(_compile([]), "MSP", depth=0)
