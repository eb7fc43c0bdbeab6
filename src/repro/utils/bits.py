"""Bit-manipulation helpers shared by the ISA, MMU, and cache models.

All values are plain Python ints. Architectural registers are 64-bit and
stored *unsigned* (0 .. 2**64-1); helpers here convert between signed and
unsigned views and extract/deposit bit fields the way hardware description
languages do (inclusive high/low bit indices).
"""

from __future__ import annotations

XLEN = 64
MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def mask(width: int) -> int:
    """Return a mask of ``width`` low bits (``mask(3) == 0b111``)."""
    if width < 0:
        raise ValueError(f"negative mask width {width}")
    return (1 << width) - 1


def bits(value: int, hi: int, lo: int) -> int:
    """Extract the inclusive bit field ``value[hi:lo]`` (HDL-style).

    >>> bits(0b1011_0000, 7, 4)
    11
    """
    if hi < lo:
        raise ValueError(f"bad field [{hi}:{lo}]")
    return (value >> lo) & mask(hi - lo + 1)


def bit(value: int, index: int) -> int:
    """Extract a single bit as 0 or 1."""
    return (value >> index) & 1


def deposit(value: int, hi: int, lo: int, field: int) -> int:
    """Return ``value`` with the inclusive bit field [hi:lo] replaced.

    Raises :class:`ValueError` if ``field`` does not fit.
    """
    width = hi - lo + 1
    if field < 0 or field > mask(width):
        raise ValueError(f"field {field:#x} does not fit in [{hi}:{lo}]")
    cleared = value & ~(mask(width) << lo)
    return cleared | (field << lo)


def sext(value: int, width: int) -> int:
    """Sign-extend the low ``width`` bits of ``value`` to a Python int.

    >>> sext(0xFF, 8)
    -1
    >>> sext(0x7F, 8)
    127
    """
    value &= mask(width)
    sign = 1 << (width - 1)
    return (value ^ sign) - sign


def to_u64(value: int) -> int:
    """Truncate a Python int to the unsigned 64-bit architectural view."""
    return value & MASK64


def to_s64(value: int) -> int:
    """Interpret a 64-bit value as signed."""
    return sext(value, 64)


def to_u32(value: int) -> int:
    """Truncate to unsigned 32 bits."""
    return value & MASK32


def sext32_to_u64(value: int) -> int:
    """Sign-extend a 32-bit result into the unsigned 64-bit register view.

    RV64 word ops (``addw`` etc.) write the sign-extended 32-bit result.
    """
    return to_u64(sext(value, 32))


def is_aligned(value: int, alignment: int) -> bool:
    """True if ``value`` is a multiple of ``alignment`` (a power of two)."""
    return (value & (alignment - 1)) == 0


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def fits_signed(value: int, width: int) -> bool:
    """True if ``value`` is representable as a signed ``width``-bit int."""
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return lo <= value <= hi


def fits_unsigned(value: int, width: int) -> bool:
    """True if ``value`` is representable as an unsigned ``width``-bit int."""
    return 0 <= value <= mask(width)


def split_hi_lo(value: int) -> "tuple[int, int]":
    """Split a signed 32-bit constant into (hi20, lo12) for ``lui``/``addi``.

    The low part is sign-extended by ``addi``, so the high part must
    compensate: ``(hi20 << 12) + sext(lo12, 12) == value`` (mod 2**32).

    >>> hi, lo = split_hi_lo(0x11604)
    >>> ((hi << 12) + sext(lo, 12)) & 0xFFFFFFFF == 0x11604
    True
    """
    value = to_u32(value)
    lo12 = value & 0xFFF
    hi20 = (value >> 12) & 0xFFFFF
    if lo12 >= 0x800:  # addi will sign-extend: bump hi to compensate
        hi20 = (hi20 + 1) & 0xFFFFF
    return hi20, lo12


def popcount(value: int) -> int:
    """Number of set bits."""
    return bin(value & MASK64).count("1")


def clog2(value: int) -> int:
    """Ceiling of log2; number of bits needed to index ``value`` entries.

    >>> clog2(32)
    5
    >>> clog2(33)
    6
    """
    if value <= 0:
        raise ValueError("clog2 requires a positive value")
    return (value - 1).bit_length()
