"""Tests for SWI's early-write-invalidate table (Sections 4.1-4.2).

Its last-write half is kept per requester by
``Machine.note_write_issued``; its suppression bits per home by
``EarlyWriteInvalidateTable``.
"""

import pytest

from repro.apps.base import WorkloadBuilder
from repro.common.config import SystemConfig
from repro.predictors.swi import EarlyWriteInvalidateTable
from repro.sim.address import AddressSpace
from repro.sim.machine import Machine, MachineMode

NODES = 4


@pytest.fixture
def blocks():
    """One block homed on each node."""
    space = AddressSpace(NODES)
    return [space.alloc_one(home) for home in range(NODES)]


def recording_machine(mode, monkeypatch):
    """A machine whose ``net.send_call`` records instead of sending."""
    builder = WorkloadBuilder("idle", NODES)
    with builder.phase("idle"):
        pass
    machine = Machine(builder.finish(), config=SystemConfig(num_nodes=NODES), mode=mode)
    sent = []
    monkeypatch.setattr(machine.net, "send_call", lambda *args: sent.append(args))
    return machine, sent


def recalls(machine, sent):
    """``(writer, home, recalled block)`` per recorded hint."""
    out = []
    for src, dst, handler, hint in sent:
        assert hint.kind == "swi-recall" and hint.requester == src
        assert dst == machine.home_of(hint.block)
        assert handler == machine.home(dst).request
        out.append((src, dst, hint.block))
    return out


class TestLastWriteTracker:
    def test_first_write_sends_no_hint(self, monkeypatch, blocks):
        machine, sent = recording_machine(MachineMode.SWI, monkeypatch)
        machine.note_write_issued(3, blocks[1])
        assert sent == []

    def test_write_to_a_new_block_recalls_the_previous_one(self, monkeypatch, blocks):
        machine, sent = recording_machine(MachineMode.SWI, monkeypatch)
        machine.note_write_issued(3, blocks[1])
        machine.note_write_issued(3, blocks[2])
        assert recalls(machine, sent) == [(3, 1, blocks[1])]

    def test_rewrite_of_same_block_sends_no_hint(self, monkeypatch, blocks):
        machine, sent = recording_machine(MachineMode.SWI, monkeypatch)
        machine.note_write_issued(3, blocks[1])
        machine.note_write_issued(3, blocks[1])
        assert sent == []
        # The heuristic resumes on the next distinct write.
        machine.note_write_issued(3, blocks[2])
        assert recalls(machine, sent) == [(3, 1, blocks[1])]

    def test_writers_are_tracked_independently(self, monkeypatch, blocks):
        machine, sent = recording_machine(MachineMode.SWI, monkeypatch)
        machine.note_write_issued(1, blocks[0])
        machine.note_write_issued(2, blocks[3])
        assert sent == []
        machine.note_write_issued(1, blocks[2])
        machine.note_write_issued(2, blocks[1])
        assert recalls(machine, sent) == [(1, 0, blocks[0]), (2, 3, blocks[3])]

    def test_fr_machine_sends_no_hint(self, monkeypatch, blocks):
        machine, sent = recording_machine(MachineMode.FR, monkeypatch)
        for block in blocks:
            machine.note_write_issued(3, block)
        assert sent == []


class TestSuppression:
    def test_suppress_round_trip(self):
        table = EarlyWriteInvalidateTable()
        history = (("upgrade", 3),)
        assert not table.is_suppressed(5, history)
        table.suppress(5, history)
        assert table.is_suppressed(5, history)
        assert table.suppressed_count == 1

    def test_suppression_is_per_entry(self):
        table = EarlyWriteInvalidateTable()
        table.suppress(5, (("write", 3),))
        assert not table.is_suppressed(5, (("write", 4),))
        assert not table.is_suppressed(6, (("write", 3),))
