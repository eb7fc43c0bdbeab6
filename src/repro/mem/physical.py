"""Sparse physical memory model.

Backing store is a dict of 4 KiB page frames allocated on first touch, so a
4 GiB address space (Table II: one 4 GiB DDR3 SO-DIMM) costs only what the
workload actually touches. All accesses are little-endian, matching RISC-V.
"""

from __future__ import annotations

from repro.errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class CowFrameMap(dict):
    """Frame store with a shared read-only backing layer (COW forking).

    A :class:`dict` subclass so the interpreter fast paths — which bind
    ``memory._frames`` and issue plain ``frames.get(ppn)`` /
    ``frames[ppn] = fb`` traffic — keep working unchanged: :meth:`get`
    materializes a *private* ``bytearray`` copy of a shared frame on
    first touch, after which the frame behaves exactly like an eagerly
    restored one (JIT memos may pin it, stores mutate it in place).
    The shared dict holds immutable ``bytes`` and is never written, so
    any number of sessions can fork from the same snapshot and share
    it; ``len()``/iteration/membership intentionally reflect only the
    materialized private frames (see ``PhysicalMemory.frame_count``).
    """

    __slots__ = ("shared",)

    def __init__(self, shared: "dict[int, bytes]"):
        super().__init__()
        self.shared = shared

    def get(self, key, default=None):
        frame = dict.get(self, key)
        if frame is not None:
            return frame
        data = self.shared.get(key)
        if data is None:
            return default
        frame = bytearray(data)
        dict.__setitem__(self, key, frame)
        return frame

    def __getitem__(self, key):
        frame = self.get(key)
        if frame is None:
            raise KeyError(key)
        return frame

    def clear(self) -> None:
        """Drop private *and* shared frames (the shared dict itself is
        left untouched — other forks keep reading it)."""
        dict.clear(self)
        self.shared = {}


class PhysicalMemory:
    """Byte-addressable physical memory with sparse page-frame backing."""

    def __init__(self, size: int = 4 << 30):
        if size <= 0 or size & PAGE_MASK:
            raise MemoryError_(f"memory size {size:#x} must be a positive "
                               f"multiple of the page size")
        self.size = size
        self._frames: dict[int, bytearray] = {}
        # Host-write guard (DESIGN.md §8). write/write_bytes/fill and
        # restore_frames are the path of every writer outside the core:
        # the loader, syscalls, page-table edits, attack primitives and
        # fault injection. ``code_frames`` is the core's set of frames
        # holding cached or adopted code (shared by identity); a host
        # write into one raises ``code_written``, which the core turns
        # into a flush before its next dispatch. ``written_frames`` is
        # None during a run; between runs the kernel sets it to a set
        # that collects every frame a host write touches, so the next
        # schedule can tell data writes from page-table edits.
        self.code_frames: "set[int]" = set()
        self.code_written = False
        self.written_frames: "set[int] | None" = None

    # -- frame helpers ------------------------------------------------------

    def _host_write(self, frame_index: int) -> None:
        if frame_index in self.code_frames:
            self.code_written = True
        if self.written_frames is not None:
            self.written_frames.add(frame_index)

    def _frame(self, frame_index: int) -> bytearray:
        frame = self._frames.get(frame_index)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[frame_index] = frame
        return frame

    def frame_count(self) -> int:
        """Number of frames logically present (for memory accounting).

        Under a copy-on-write restore this counts shared frames too —
        a forked machine holds the same logical pages as an eagerly
        restored one, whether or not it has touched them yet.
        """
        frames = self._frames
        shared = getattr(frames, "shared", None)
        if not shared:
            return len(frames)
        return len(frames.keys() | shared.keys())

    def private_frame_count(self) -> int:
        """Frames this machine owns outright — its real memory cost.

        Equal to :meth:`frame_count` on an ordinary machine; on a
        copy-on-write fork it counts only the materialized private
        copies, which is what per-session frame caps meter.
        """
        return len(self._frames)

    @property
    def frame_map(self) -> "dict[int, bytearray]":
        """The live frame-index -> bytearray store (identity-stable).

        Bound by the interpreter fast paths for aligned, in-page accesses
        whose range was proven valid when the translation was cached.
        """
        return self._frames

    # -- scalar access ------------------------------------------------------

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes (1/2/4/8) at ``address`` as an unsigned int."""
        if address < 0 or address + size > self.size:
            raise MemoryError_(f"physical read [{address:#x}+{size}] out of "
                               f"range")
        frame_index = address >> PAGE_SHIFT
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            frame = self._frames.get(frame_index)
            if frame is None:
                return 0
            return int.from_bytes(frame[offset:offset + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def write(self, address: int, size: int, value: int) -> None:
        """Write ``size`` bytes at ``address`` from an unsigned int."""
        if address < 0 or address + size > self.size:
            raise MemoryError_(f"physical write [{address:#x}+{size}] out "
                               f"of range")
        frame_index = address >> PAGE_SHIFT
        offset = address & PAGE_MASK
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if offset + size <= PAGE_SIZE:
            if frame_index in self.code_frames \
                    or self.written_frames is not None:
                self._host_write(frame_index)
            self._frame(frame_index)[offset:offset + size] = data
        else:
            self.write_bytes(address, data)

    # -- bulk access --------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read an arbitrary byte range (may span frames)."""
        if address < 0 or address + length > self.size:
            raise MemoryError_(f"physical read [{address:#x}+{length}] out "
                               f"of range")
        out = bytearray()
        while length:
            frame_index = address >> PAGE_SHIFT
            offset = address & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            frame = self._frames.get(frame_index)
            if frame is None:
                out += bytes(chunk)
            else:
                out += frame[offset:offset + chunk]
            address += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write an arbitrary byte range (may span frames)."""
        if address < 0 or address + len(data) > self.size:
            raise MemoryError_(f"physical write [{address:#x}+{len(data)}] "
                               f"out of range")
        view = memoryview(data)
        while view:
            frame_index = address >> PAGE_SHIFT
            offset = address & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            self._host_write(frame_index)
            self._frame(frame_index)[offset:offset + chunk] = view[:chunk]
            address += chunk
            view = view[chunk:]

    def fill(self, address: int, length: int, byte: int = 0) -> None:
        """Fill a byte range with a constant (used for zeroed mappings)."""
        self.write_bytes(address, bytes([byte]) * length)

    # -- snapshot support ----------------------------------------------------

    def snapshot_frames(self) -> "dict[int, bytes]":
        """Copy out every non-zero frame as immutable bytes.

        All-zero frames are dropped: an unallocated frame reads as zeroes,
        so restoring without them is observationally identical and the
        snapshot stays proportional to the *touched* working set. Shared
        copy-on-write frames not yet touched are included as-is (they
        are already immutable), so a forked machine snapshots to the
        same frame set as an eagerly restored one.
        """
        zero = bytes(PAGE_SIZE)
        out = {index: bytes(frame)
               for index, frame in self._frames.items()
               if frame != zero}
        shared = getattr(self._frames, "shared", None)
        if shared:
            private = self._frames
            for index, data in shared.items():
                if index not in private and data != zero:
                    out[index] = data
        return out

    def _validate_frames(self, frames: "dict[int, bytes]") -> None:
        """Reject snapshots whose frames do not fit this memory's
        geometry — fail closed instead of silently corrupting state."""
        limit = self.size >> PAGE_SHIFT
        for index, data in frames.items():
            if not isinstance(index, int) or isinstance(index, bool) \
                    or index < 0 or index >= limit:
                raise MemoryError_(
                    f"snapshot frame index {index!r} outside the "
                    f"configured geometry (0..{limit - 1})")
            if not isinstance(data, (bytes, bytearray)) \
                    or len(data) != PAGE_SIZE:
                size = len(data) if isinstance(data, (bytes, bytearray)) \
                    else type(data).__name__
                raise MemoryError_(
                    f"snapshot frame {index:#x} is not a {PAGE_SIZE}-byte "
                    f"page ({size})")

    def restore_frames(self, frames: "dict[int, bytes]") -> None:
        """Replace the entire backing store with a snapshot's frames.

        Mutates the existing dict in place: the store is never rebound
        on a live machine, so a reference to :attr:`frame_map` taken
        earlier stays live. Frames are validated
        against the configured geometry first (a malformed frame raises
        :class:`~repro.errors.MemoryError_` before anything is touched).
        """
        self._validate_frames(frames)
        if self.code_frames or self.written_frames is not None:
            for index in self._frames.keys() | frames.keys():
                self._host_write(index)
        self._frames.clear()
        for index, data in frames.items():
            self._frames[index] = bytearray(data)

    def restore_frames_cow(self, shared: "dict[int, bytes]") -> None:
        """Install a snapshot's frames as a shared copy-on-write layer.

        The milliseconds-fork path of ``repro.serve``: no frame data is
        copied here — ``shared`` (immutable snapshot bytes, typically
        ``Snapshot.state["memory"]``) becomes the read layer of a
        :class:`CowFrameMap` and private copies materialize on first
        touch. Unlike :meth:`restore_frames` this **rebinds** the store,
        so it is only valid on a machine that has never run: nothing may
        have bound :attr:`frame_map` yet and no frame may exist.
        """
        if self._frames:
            raise MemoryError_(
                "copy-on-write restore requires an untouched memory "
                f"({len(self._frames)} frames already allocated)")
        self._validate_frames(shared)
        self._frames = CowFrameMap(shared)
