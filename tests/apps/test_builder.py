"""Tests for the workload builder (both views must agree)."""

import pytest

from repro.apps.base import (
    Compute,
    LockAcquire,
    LockRelease,
    MemRead,
    MemWrite,
    WorkloadBuilder,
)
from repro.protocol.epochs import ReadEpoch, WriteEpoch


class TestPhases:
    def test_ops_require_open_phase(self):
        builder = WorkloadBuilder("t", 4)
        with pytest.raises(RuntimeError, match="inside a phase"):
            builder.read(0, 1)

    def test_phases_cannot_nest(self):
        builder = WorkloadBuilder("t", 4)
        with pytest.raises(RuntimeError, match="nest"):
            with builder.phase("a"):
                with builder.phase("b"):
                    pass

    def test_finish_inside_phase_rejected(self):
        builder = WorkloadBuilder("t", 4)
        with pytest.raises(RuntimeError):
            with builder.phase("a"):
                builder.finish()

    def test_finished_builder_is_closed(self):
        builder = WorkloadBuilder("t", 4)
        builder.finish()
        with pytest.raises(RuntimeError, match="finished"):
            with builder.phase("late"):
                pass

    def test_every_processor_has_an_op_list(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a"):
            builder.read(0, 1)
        workload = builder.finish()
        phase = workload.phases[0]
        assert set(phase.ops) == {0, 1, 2, 3}
        assert phase.ops_for(3) == []


class TestProgramView:
    def test_ops_in_program_order(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.compute(0, 10)
            builder.read(0, 5)
            builder.write(0, 5)
            builder.lock(0, 1)
            builder.unlock(0, 1)
        workload = builder.finish()
        ops = workload.phases[0].ops_for(0)
        assert [type(op) for op in ops] == [
            Compute,
            MemRead,
            MemWrite,
            LockAcquire,
            LockRelease,
        ]

    def test_zero_compute_is_elided(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.compute(0, 0)
        assert builder.finish().phases[0].ops_for(0) == []

    def test_negative_compute_rejected(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            with pytest.raises(ValueError):
                builder.compute(0, -1)

    def test_locks_are_recorded(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.lock(0, 99)
            builder.unlock(0, 99)
        assert builder.finish().locks == {99}


    def test_accesses_share_one_op_per_block(self):
        """Ops are frozen values, so the builder appends one instance
        per block again instead of building one per access."""
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.read(0, 5)
            builder.read(1, 5)
            builder.write(0, 5)
        with builder.phase("b"):
            builder.read(0, 5)
            builder.write(1, 5)
            builder.read(0, 6)
        phases = builder.finish().phases
        first_read, write = phases[0].ops_for(0)
        assert phases[0].ops_for(1)[0] is first_read
        assert phases[1].ops_for(0)[0] is first_read
        assert phases[1].ops_for(1)[0] is write
        assert phases[1].ops_for(0)[1] == MemRead(6)


class TestBlockView:
    def test_consecutive_reads_form_one_epoch(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a", racy_reads=True, racy_acks=True):
            builder.read(1, 7)
            builder.read(2, 7)
        script = builder.finish().scripts[7]
        assert len(script) == 1
        epoch = script.epochs[0]
        assert isinstance(epoch, ReadEpoch)
        assert epoch.readers == (1, 2)
        assert epoch.racy and epoch.racy_acks

    def test_write_flushes_pending_reads(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a"):
            builder.read(1, 7)
            builder.write(0, 7)
            builder.read(2, 7)
        script = builder.finish().scripts[7]
        assert [type(e) for e in script] == [ReadEpoch, WriteEpoch, ReadEpoch]

    def test_phase_boundary_closes_epochs(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a", racy_reads=True):
            builder.read(1, 7)
        with builder.phase("b"):
            builder.read(2, 7)
        script = builder.finish().scripts[7]
        assert len(script) == 2
        assert script.epochs[0].racy
        assert not script.epochs[1].racy

    def test_duplicate_reader_in_epoch_is_dropped(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a"):
            builder.read(1, 7)
            builder.read(1, 7)
        script = builder.finish().scripts[7]
        assert script.epochs[0].readers == (1,)

    def test_stores_by_one_writer_share_one_epoch(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.write(0, 5)
            builder.write(0, 6)
            builder.write(1, 6)
        scripts = builder.finish().scripts
        (epoch_5,) = scripts[5].epochs
        epoch_6, other = scripts[6].epochs
        assert epoch_5 is epoch_6 and epoch_5 == WriteEpoch(writer=0)
        assert other == WriteEpoch(writer=1)

    def test_blocks_listing_is_sorted(self):
        builder = WorkloadBuilder("t", 4)
        with builder.phase("a"):
            builder.write(0, 9)
            builder.write(0, 3)
        workload = builder.finish()
        assert workload.blocks() == [3, 9]
        assert [s.block for s in workload.block_scripts()] == [3, 9]

    def test_total_ops(self):
        builder = WorkloadBuilder("t", 2)
        with builder.phase("a"):
            builder.read(0, 1)
            builder.compute(1, 5)
        assert builder.finish().total_ops() == 2

    def test_too_few_processors_rejected(self):
        with pytest.raises(ValueError):
            WorkloadBuilder("t", 1)
