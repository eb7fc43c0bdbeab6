"""Tests for the sparse physical memory model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem import PAGE_SIZE, PhysicalMemory


class TestScalarAccess:
    def test_zero_initialised(self):
        mem = PhysicalMemory(1 << 20)
        assert mem.read(0x1234, 8) == 0

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory(1 << 20)
        mem.write(0x100, 8, 0xDEADBEEF_CAFEF00D)
        assert mem.read(0x100, 8) == 0xDEADBEEF_CAFEF00D

    def test_little_endian(self):
        mem = PhysicalMemory(1 << 20)
        mem.write(0x0, 4, 0x11223344)
        assert mem.read(0x0, 1) == 0x44
        assert mem.read(0x3, 1) == 0x11

    def test_value_truncation(self):
        mem = PhysicalMemory(1 << 20)
        mem.write(0x0, 1, 0x1FF)
        assert mem.read(0x0, 1) == 0xFF

    def test_cross_page_access(self):
        mem = PhysicalMemory(1 << 20)
        addr = PAGE_SIZE - 4
        mem.write(addr, 8, 0x1122334455667788)
        assert mem.read(addr, 8) == 0x1122334455667788

    def test_out_of_range(self):
        mem = PhysicalMemory(1 << 20)
        with pytest.raises(MemoryError_):
            mem.read((1 << 20) - 4, 8)
        with pytest.raises(MemoryError_):
            mem.write(1 << 20, 1, 0)

    def test_bad_size_constructor(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(100)
        with pytest.raises(MemoryError_):
            PhysicalMemory(0)

    @given(st.integers(min_value=0, max_value=(1 << 20) - 8),
           st.sampled_from([1, 2, 4, 8]),
           st.integers(min_value=0))
    def test_read_after_write_property(self, addr, size, value):
        mem = PhysicalMemory(1 << 20)
        truncated = value & ((1 << (8 * size)) - 1)
        mem.write(addr, size, value)
        assert mem.read(addr, size) == truncated


class TestBulkAccess:
    def test_bytes_roundtrip_spanning_frames(self):
        mem = PhysicalMemory(1 << 20)
        data = bytes(range(256)) * 40  # > 2 pages
        mem.write_bytes(PAGE_SIZE - 100, data)
        assert mem.read_bytes(PAGE_SIZE - 100, len(data)) == data

    def test_read_unallocated_returns_zeroes(self):
        mem = PhysicalMemory(1 << 20)
        assert mem.read_bytes(0x5000, 64) == bytes(64)

    def test_frame_accounting(self):
        mem = PhysicalMemory(1 << 20)
        assert mem.frame_count() == 0
        mem.write(0, 1, 1)
        mem.write(PAGE_SIZE * 3, 1, 1)
        assert mem.frame_count() == 2
        mem.read(PAGE_SIZE * 7, 8)  # reads do not allocate
        assert mem.frame_count() == 2

    @given(st.binary(min_size=1, max_size=3 * PAGE_SIZE),
           st.integers(min_value=0, max_value=PAGE_SIZE * 4))
    def test_bulk_roundtrip_property(self, data, addr):
        mem = PhysicalMemory(1 << 20)
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data


class TestZeroFrame:
    def test_fresh_frame_exists_and_reads_zero(self):
        mem = PhysicalMemory(1 << 20)
        mem.zero_frame(3 * PAGE_SIZE)
        assert mem.frame_count() == 1
        assert mem.read_bytes(3 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_existing_frame_is_zeroed_in_place(self):
        mem = PhysicalMemory(1 << 20)
        mem.write_bytes(PAGE_SIZE, b"\xff" * PAGE_SIZE)
        frame = mem.frame_map[1]
        mem.zero_frame(PAGE_SIZE)
        assert mem.frame_map[1] is frame
        assert frame == bytes(PAGE_SIZE)

    def test_is_a_host_write(self):
        mem = PhysicalMemory(1 << 20)
        mem.code_frames.add(2)
        mem.written_frames = set()
        mem.zero_frame(5 * PAGE_SIZE)
        assert mem.written_frames == {5} and not mem.code_written
        mem.zero_frame(2 * PAGE_SIZE)
        assert mem.written_frames == {2, 5} and mem.code_written

    def test_shared_copy_on_write_frame_becomes_private_zero(self):
        mem = PhysicalMemory(1 << 20)
        mem.restore_frames_cow({4: b"\x01" * PAGE_SIZE})
        mem.zero_frame(4 * PAGE_SIZE)
        assert mem.read_bytes(4 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert mem.frame_map.shared[4] == b"\x01" * PAGE_SIZE

    @pytest.mark.parametrize("address", [PAGE_SIZE + 8, -PAGE_SIZE,
                                         1 << 20])
    def test_rejects_addresses_that_are_not_frames(self, address):
        mem = PhysicalMemory(1 << 20)
        with pytest.raises(MemoryError_, match="no page frame"):
            mem.zero_frame(address)
