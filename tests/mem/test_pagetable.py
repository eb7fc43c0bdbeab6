"""Tests for Sv39 page-table building and walking."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PageTableError
from repro.mem import (
    PAGE_SIZE,
    FrameAllocator,
    PageTableBuilder,
    PageTableWalker,
    PhysicalMemory,
)
from repro.mem.pagetable import canonical, vpn_fields


@pytest.fixture()
def env():
    mem = PhysicalMemory(64 << 20)
    alloc = FrameAllocator(1 << 20, 32 << 20)
    builder = PageTableBuilder(mem, alloc)
    walker = PageTableWalker(mem)
    return mem, alloc, builder, walker


class TestVpnFields:
    def test_split(self):
        va = (3 << 30) | (5 << 21) | (7 << 12) | 0x123
        assert vpn_fields(va) == (3, 5, 7)

    def test_canonical(self):
        assert canonical(0x0000_0000_1000)
        assert canonical((1 << 38) - 4096)
        assert not canonical(1 << 38)  # bit 38 set but not sign-extended
        assert canonical(0xFFFF_FFC0_0000_0000)  # properly sign-extended


class TestMapWalk:
    def test_simple_mapping(self, env):
        mem, alloc, builder, walker = env
        builder.map_page(0x10000, 0x200000, readable=True, writable=True)
        result = walker.walk(builder.root_ppn, 0x10ABC)
        assert result is not None
        assert result.pte.ppn == 0x200000 >> 12
        assert result.pte.readable and result.pte.writable
        assert result.level == 0
        assert result.accesses == 3  # three-level walk

    def test_unmapped_returns_none(self, env):
        __, __, builder, walker = env
        assert walker.walk(builder.root_ppn, 0xDEAD000) is None

    def test_key_preserved_through_walk(self, env):
        __, __, builder, walker = env
        builder.map_page(0x40000, 0x300000, readable=True, key=111)
        result = walker.walk(builder.root_ppn, 0x40008)
        assert result.pte.key == 111

    def test_non_canonical_walk_fails(self, env):
        __, __, builder, walker = env
        assert walker.walk(builder.root_ppn, 1 << 38) is None

    def test_unaligned_map_rejected(self, env):
        __, __, builder, __ = env
        with pytest.raises(PageTableError):
            builder.map_page(0x1001, 0x2000, readable=True)
        with pytest.raises(PageTableError):
            builder.map_page(0x1000, 0x2001, readable=True)

    def test_remap_overwrites(self, env):
        __, __, builder, walker = env
        builder.map_page(0x5000, 0x100000, readable=True)
        builder.map_page(0x5000, 0x101000, readable=True, writable=True)
        result = walker.walk(builder.root_ppn, 0x5000)
        assert result.pte.ppn == 0x101000 >> 12
        assert result.pte.writable

    def test_unmap(self, env):
        __, __, builder, walker = env
        builder.map_page(0x7000, 0x100000, readable=True)
        assert builder.unmap_page(0x7000)
        assert walker.walk(builder.root_ppn, 0x7000) is None
        assert not builder.unmap_page(0x7000)

    def test_widely_separated_addresses(self, env):
        """Mappings in different VPN[2] regions need distinct subtrees."""
        __, __, builder, walker = env
        va1 = 0x0000_0000_1000
        va2 = 0x0020_0000_0000  # different VPN[2]
        builder.map_page(va1, 0x100000, readable=True, key=1)
        builder.map_page(va2, 0x101000, readable=True, key=2)
        assert walker.walk(builder.root_ppn, va1).pte.key == 1
        assert walker.walk(builder.root_ppn, va2).pte.key == 2


class TestProtection:
    def test_set_protection_changes_key(self, env):
        __, __, builder, walker = env
        builder.map_page(0x9000, 0x100000, readable=True, writable=True)
        builder.set_protection(0x9000, writable=False, key=42)
        pte = walker.walk(builder.root_ppn, 0x9000).pte
        assert not pte.writable
        assert pte.key == 42
        assert pte.is_read_only

    def test_set_protection_keeps_unspecified_fields(self, env):
        __, __, builder, __ = env
        builder.map_page(0xA000, 0x100000, readable=True, executable=True,
                         key=7)
        builder.set_protection(0xA000, key=9)
        pte = builder.lookup(0xA000)
        assert pte.readable and pte.executable and pte.key == 9

    def test_set_protection_unmapped_raises(self, env):
        __, __, builder, __ = env
        with pytest.raises(PageTableError):
            builder.set_protection(0xB000, key=1)

    def test_reserved_combination_rejected(self, env):
        __, __, builder, __ = env
        builder.map_page(0xC000, 0x100000, readable=True, writable=True)
        with pytest.raises(PageTableError):
            builder.set_protection(0xC000, readable=False)


class TestLookupAndIteration:
    def test_lookup_offsets_within_page(self, env):
        __, __, builder, __ = env
        builder.map_page(0xD000, 0x100000, readable=True)
        assert builder.lookup(0xD123) is not None
        assert builder.lookup(0xE000) is None

    def test_mappings_iteration(self, env):
        __, __, builder, __ = env
        vas = [0x1000, 0x2000, 0x200000, 0x40000000]
        for i, va in enumerate(vas):
            builder.map_page(va, 0x100000 + i * PAGE_SIZE, readable=True)
        found = dict(builder.mappings())
        assert set(found) == set(vas)


class TestFrameAllocator:
    def test_alloc_distinct(self):
        alloc = FrameAllocator(0x1000, 0x4000)
        frames = {alloc.alloc() for _ in range(3)}
        assert len(frames) == 3

    def test_exhaustion(self):
        alloc = FrameAllocator(0x1000, 0x3000)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(PageTableError):
            alloc.alloc()

    def test_accounting(self):
        alloc = FrameAllocator(0x1000, 0x10000)
        alloc.alloc()
        alloc.alloc()
        assert alloc.bytes_allocated == 2 * PAGE_SIZE

    def test_alignment_required(self):
        with pytest.raises(PageTableError):
            FrameAllocator(0x1001, 0x4000)


class TestWalkAgainstOracle:
    """Property: the walker agrees with a flat dict oracle of mappings."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=(1 << 26) - 1),
                  st.integers(min_value=0, max_value=1023),
                  st.booleans()),
        min_size=1, max_size=20, unique_by=lambda t: t[0]))
    def test_walker_matches_oracle(self, mappings):
        mem = PhysicalMemory(256 << 20)
        alloc = FrameAllocator(1 << 20, 128 << 20)
        builder = PageTableBuilder(mem, alloc)
        walker = PageTableWalker(mem)
        oracle = {}
        frame = 0x8000000
        for page_index, key, writable in mappings:
            va = page_index << 12
            builder.map_page(va, frame, readable=True, writable=writable,
                             key=key)
            oracle[va] = (frame >> 12, key, writable)
            frame += PAGE_SIZE
        for va, (ppn, key, writable) in oracle.items():
            result = walker.walk(builder.root_ppn, va + 0x7)
            assert result is not None
            assert result.pte.ppn == ppn
            assert result.pte.key == key
            assert result.pte.writable == writable
        # A page just past each mapping must not resolve unless also mapped.
        for va in oracle:
            neighbour = va + PAGE_SIZE
            if neighbour not in oracle:
                assert walker.walk(builder.root_ppn, neighbour) is None


class TestMapPages:
    """A run of pages mapped at once must leave exactly what one
    ``map_page`` per page leaves: the same tables, allocated in the
    same order, and the same PTE words."""

    @staticmethod
    def _build(bulk: bool, start: int, count: int, key: int):
        mem = PhysicalMemory(64 << 20)
        alloc = FrameAllocator(1 << 20, 32 << 20)
        builder = PageTableBuilder(mem, alloc)

        def pages():
            for n in range(count):
                yield start + n * PAGE_SIZE, alloc.alloc()

        flags = dict(readable=True, writable=not key, key=key)
        error = None
        try:
            if bulk:
                builder.map_pages(pages(), **flags)
            else:
                for vaddr, paddr in pages():
                    builder.map_page(vaddr, paddr, **flags)
        except PageTableError as exc:   # a run into non-canonical space
            error = str(exc)
        frames = mem.frame_map
        return error, alloc._next, [(i, bytes(frames[i])) for i in frames]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 26) - 1),
           st.integers(min_value=1, max_value=1100),
           st.sampled_from([0, 5]))
    @example(page=(1 << 26) - 3, count=5, key=0)
    def test_run_equals_page_by_page(self, page, count, key):
        start = page * PAGE_SIZE
        assert self._build(True, start, count, key) == \
            self._build(False, start, count, key)

    def test_run_crossing_a_leaf_table(self, env):
        mem, alloc, builder, walker = env
        start = (2 << 20) - 2 * PAGE_SIZE
        frames = [alloc.alloc() for _ in range(4)]
        builder.map_pages(((start + n * PAGE_SIZE, frame)
                           for n, frame in enumerate(frames)),
                          readable=True)
        for n, frame in enumerate(frames):
            result = walker.walk(builder.root_ppn, start + n * PAGE_SIZE)
            assert result.pte.ppn == frame >> 12

    def test_unaligned_page_rejected(self, env):
        _, _, builder, _ = env
        with pytest.raises(PageTableError, match="page-aligned"):
            builder.map_pages([(0x1000, 0x8000), (0x2004, 0x9000)],
                              readable=True)
