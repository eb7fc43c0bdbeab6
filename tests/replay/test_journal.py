"""Record/replay journal (repro.replay.journal) — DESIGN.md §11.

Entropy is the one real nondeterminism hole (getrandom); everything
else the journal records is a *verification* point that fails fast on
divergence.
"""

import pytest

from repro.errors import ReplayError
from repro.kernel import Kernel
from repro.replay import Journal, record_reference, replay_tier
from repro.soc import build_system
from repro.tools import asmtool

from tests.conftest import LEGS, at_tier

GETRANDOM_SOURCE = r"""
.globl _start
_start:
    li s0, 64            # burn some instructions so there is a
spin:                    # snapshot point before the syscall
    addi s0, s0, -1
    bnez s0, spin
    la a0, buf
    li a1, 8
    li a2, 0
    li a7, 278           # getrandom(buf, 8, 0)
    ecall
    la a0, buf
    ld a1, 0(a0)
    andi a0, a1, 0x7f    # exit code = low entropy bits
    li a7, 93
    ecall
.section .data
buf: .quad 0
"""


@pytest.fixture(scope="module")
def entropy_image(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("journal")
    source = tmp / "rand.s"
    source.write_text(GETRANDOM_SOURCE)
    out = tmp / "rand.rex"
    assert asmtool.main([str(source), "-o", str(out)]) == 0
    from repro.asm import Executable
    return Executable.from_bytes(out.read_bytes())


class TestUnit:
    def test_record_then_replay_consumes_everything(self):
        journal = Journal.recording()
        data = journal.entropy(8)
        journal.syscall(100, 278, 8)
        journal.signal(200, 11, 0x1000)

        replaying = journal.replay()
        assert replaying.entropy(8) == data
        replaying.syscall(100, 278, 8)
        replaying.signal(200, 11, 0x1000)
        replaying.finish()

    def test_each_replay_gets_a_fresh_cursor(self):
        journal = Journal.recording()
        data = journal.entropy(4)
        for _ in range(2):
            replaying = journal.replay()
            assert replaying.entropy(4) == data
            replaying.finish()

    def test_diverging_syscall_result_raises(self):
        journal = Journal.recording()
        journal.syscall(100, 64, 5)
        replaying = journal.replay()
        with pytest.raises(ReplayError, match="diverged"):
            replaying.syscall(100, 64, 6)

    def test_diverging_event_kind_raises(self):
        journal = Journal.recording()
        journal.syscall(100, 64, 5)
        replaying = journal.replay()
        with pytest.raises(ReplayError, match="expected a syscall"):
            replaying.signal(100, 11, 0)

    def test_entropy_length_mismatch_raises(self):
        journal = Journal.recording()
        journal.entropy(8)
        replaying = journal.replay()
        with pytest.raises(ReplayError, match="bytes"):
            replaying.entropy(16)

    def test_extra_event_past_end_raises(self):
        journal = Journal.recording()
        replaying = journal.replay()
        with pytest.raises(ReplayError, match="last journal entry"):
            replaying.syscall(1, 93, 0)

    def test_unconsumed_entries_fail_finish(self):
        journal = Journal.recording()
        journal.syscall(100, 64, 5)
        replaying = journal.replay()
        with pytest.raises(ReplayError, match="unconsumed"):
            replaying.finish()

    def test_file_round_trip(self, tmp_path):
        journal = Journal.recording()
        data = journal.entropy(8)
        journal.syscall(50, 278, 8)
        path = tmp_path / "run.journal"
        journal.save(path)
        replaying = Journal.load(path)
        assert replaying.entropy(8) == data
        replaying.syscall(50, 278, 8)
        replaying.finish()

    def test_replay_without_entries_rejected(self):
        with pytest.raises(ReplayError, match="recorded entries"):
            Journal("replay")


class TestGetrandomReplay:
    """End to end: a program whose exit code *is* entropy replays
    bit-identically because the journal substitutes the recorded bytes."""

    def test_entropy_substitution_makes_replay_identical(self,
                                                         entropy_image):
        reference = record_reference(entropy_image, stop_after=50)
        assert any(e["kind"] == "entropy"
                   for e in reference.journal.entries)
        for tier in LEGS:
            with at_tier(tier):
                run = replay_tier(reference)
            assert run.matches(reference.result), tier
            assert run.exit_code == reference.result.exit_code

    def test_kernel_without_journal_uses_host_entropy(self, entropy_image):
        system = build_system("processor+kernel")
        kernel = Kernel(system)
        process = kernel.create_process(entropy_image, name="rand")
        kernel.run(process)
        assert process.state.value == "exited"

    def test_tampered_journal_detected(self, entropy_image):
        reference = record_reference(entropy_image, stop_after=50)
        exit_entry = next(e for e in reference.journal.entries
                          if e["kind"] == "syscall" and e["number"] == 93)
        exit_entry["result"] = (exit_entry["result"] or 0) ^ 1
        with pytest.raises(ReplayError, match="diverged"):
            replay_tier(reference, "tier1")
