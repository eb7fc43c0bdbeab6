"""Event stream: ring bounding, filters, JSONL round trip, security log."""

import pytest

from repro.kernel.fault import SecurityEvent, SecurityLog
from repro.obs import EventStream, arch_sequence, load_jsonl


def test_ring_bounds_and_counts_drops():
    stream = EventStream(capacity=3)
    for index in range(5):
        stream.emit("tick", index=index)
    assert len(stream) == 3
    assert stream.emitted == 5
    assert stream.dropped == 2
    # The ring keeps the most recent events, not the oldest.
    assert [event["index"] for event in stream] == [2, 3, 4]


def test_since_reads_the_window_the_ring_still_holds():
    stream = EventStream(capacity=3)
    stream.emit("tick", index=0)
    mark = stream.emitted
    assert stream.since(mark) == []
    for index in range(1, 5):
        stream.emit("tick", index=index)
    # Four emitted since the mark; the ring kept the last three.
    assert [event["index"] for event in stream.since(mark)] == [2, 3, 4]
    assert [event["index"] for event in stream.since(4)] == [4]


def test_filters_by_prefix_and_category():
    stream = EventStream()
    stream.emit("jit.compile", pc=4096)
    stream.emit("jit.flush", reason="smc")
    stream.emit("syscall", cat="arch", number=93)
    assert len(stream.events("jit.")) == 2
    assert len(stream.events(cat="arch")) == 1
    assert stream.events("jit.compile")[0]["pc"] == 4096


def test_jsonl_round_trip(tmp_path):
    stream = EventStream()
    stream.emit("syscall", cat="arch", number=93, name="exit")
    stream.emit("jit.compile", pc=4096, instructions=7)
    path = tmp_path / "events.jsonl"
    assert stream.dump_jsonl(path) == 2
    loaded = load_jsonl(path)
    assert loaded == list(stream)


def test_write_through_sink(tmp_path):
    stream = EventStream(capacity=2)
    path = tmp_path / "events.jsonl"
    stream.open_sink(path)
    for index in range(4):
        stream.emit("tick", index=index)
    stream.close_sink()
    # The sink saw everything, including the two the ring dropped.
    assert [e["index"] for e in load_jsonl(path)] == [0, 1, 2, 3]


def test_arch_sequence_strips_host_noise():
    first = EventStream()
    second = EventStream()
    for stream in (first, second):
        stream.emit("syscall", cat="arch", number=93)
        stream.emit("jit.compile", pc=4096)  # sim: tier-dependent
        stream.emit("roload.violation", cat="arch", reason="key_mismatch")
    second.emit("jit.flush", reason="smc")
    # Timestamps differ, sim events differ — the arch subsequence is
    # still identical: that is the cross-tier comparison contract.
    assert arch_sequence(first) == arch_sequence(second)
    assert len(arch_sequence(first)) == 2


def _event(index):
    return SecurityEvent(pid=1, pc=index, fault_address=index,
                         reason="key_mismatch", insn_key=5, page_key=9)


def test_security_log_bounded_with_dropped_counter():
    log = SecurityLog(capacity=2)
    for index in range(5):
        log.append(_event(index))
    assert len(log) == 2
    assert log.total == 5
    assert log.dropped == 3
    # List-like access used throughout the attack suite and tools.
    assert bool(log)
    assert log[0].pc == 3 and log[-1].pc == 4
    assert [event.pc for event in log] == [3, 4]
    assert [event.pc for event in log[:2]] == [3, 4]
    log.clear()
    assert not log and log.dropped == 0


def test_security_log_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SecurityLog(capacity=0)
