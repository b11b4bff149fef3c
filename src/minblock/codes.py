"""Prefix-free code for the symbols of a grammar emission.

Symbols live in {-1, 0, 1, 2, ...}: terminals and the two separators (-1, 0)
get a fixed-width codeword, everything above the alphabet gets an open-ended
one.  The two classes hang off the first bits:

* ``0`` + ceil(log2(m+2)) payload bits  -> symbols -1 .. m (value n+1), so
  every fixed codeword is ``fixed_len = ceil(log2(m+2)) + 1`` bits;
* ``10`` + Elias delta code of j        -> symbol m+j for offsets j >= 1,
  which costs floor(log2 j) + 2*floor(log2(floor(log2 j)+1)) + 3 bits.

Fixed codewords all share one length and the delta class is prefix-free and
nondecreasing in j, so the whole code is prefix-free with a Kraft sum below
3/4.

:func:`rank_length` is the one length formula.  Every table that the search,
the emitter and the parser read is built from it once, at import, in one
pass over the open class's length classes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bits import BitReader, BitString, CorruptionError


@dataclass(frozen=True)
class SymbolCode:
    """Code parameters for an alphabet of ``m`` terminal symbols.

    ``m`` is any integer (``operator.index``), kept as an int; anything else
    raises TypeError.
    """

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", operator.index(self.m))
        if not 2 <= self.m < 1 << 32:
            raise ValueError("alphabet size must be between 2 and 2**32 - 1")

    @property
    def fixed_len(self) -> int:
        """Width in bits of the codewords for symbols -1 .. m."""
        return (self.m + 1).bit_length() + 1


def symbol_length(code: SymbolCode, n: int) -> int:
    """Bit length of the codeword of ``n`` without materializing it."""
    n = operator.index(n)
    if n < -1:
        raise ValueError(f"symbol {n} out of domain")
    if n <= code.m:
        return code.fixed_len
    return rank_length(n - code.m)


def rank_length(j: int) -> int:
    """Bit length of the open-class codeword for offset ``j`` >= 1.

    Equals ``symbol_length(code, m + j)`` for any alphabet size.
    """
    j = operator.index(j)
    if j < 1:
        raise ValueError("offset must be >= 1")
    t = j.bit_length() - 1
    return t + 2 * ((t + 1).bit_length() - 1) + 3


def _class_tables():
    """The open class's tables, built in one pass over its 63 length classes.

    Class nbits (1..63) holds the offsets j with ``j.bit_length() == nbits``,
    and all its codewords have one width.  Returns:

    * by class (index nbits - 1), as Python ints: the width, and the total
      width of all offsets below the class (64 entries, the last for all 63
      classes);
    * by codeword width 0..75, as uint64, 0 for a width no class has: the
      number of low bits of j that end the codeword, nbits - 1 (the width
      grows with nbits, so it names the class), and the head every codeword
      of that width adds to j: ``10``, ell zeros and the ell + 1 bits of
      nbits, less the leading 1 of j (0 past 64 bits);
    * by 16-bit window, as uint8: the width of the codeword the window opens
      with, whose bits before the low bits of j fit in 13; 0 for a window
      that opens with ``0`` or ``11``, or with ``10`` and six or more zeros
      (nbits > 63).
    """
    widths, below = [], [0]
    low_bits = np.zeros(rank_length(1 << 62) + 1, dtype=np.uint64)
    heads = np.zeros_like(low_bits)
    window = np.zeros(1 << 16, dtype=np.uint8)
    for nbits in range(1, 64):
        low = nbits - 1
        width = rank_length(1 << low)
        widths.append(width)
        below.append(below[-1] + (width << low))
        low_bits[width] = low
        if width <= 64:
            heads[width] = (2 << (width - 2) | nbits << low) - (1 << low)
        prefix_len = width - low
        start = (0b10 << (prefix_len - 2) | nbits) << (16 - prefix_len)
        window[start : start + (1 << (16 - prefix_len))] = width
    return tuple(widths), tuple(below), low_bits, heads, window


_CLASS_WIDTHS, _CLASS_BELOW, _LOW_BITS, _DELTA_HEADS, _DELTA_WINDOW = _class_tables()


def _rank_length_sum(s: int) -> int:
    """Total width of the codewords of offsets 1..s, for 0 <= s < 2**63."""
    if s < 1:
        return 0
    low = s.bit_length() - 1
    return _CLASS_BELOW[low] + (s + 1 - (1 << low)) * _CLASS_WIDTHS[low]


def _rank_length_table(jmax: int) -> np.ndarray:
    """Vector of open-class codeword lengths for offsets 1..jmax, as uint8.

    The length is constant on each class [2**t, 2**(t+1)), so the table is
    one run of the class width per t.
    """
    jmax = max(jmax, 0)
    classes = jmax.bit_length()
    starts = 1 << np.arange(classes)
    # no length exceeds 75, so one byte holds each
    return np.repeat(np.array(_CLASS_WIDTHS[:classes], dtype=np.uint8),
                     np.minimum(starts, jmax + 1 - starts))


def encode_symbol(code: SymbolCode, n: int, out: BitString | None = None) -> BitString:
    """Append the codeword of ``n`` to ``out`` (a fresh BitString if omitted)."""
    n = operator.index(n)
    if out is None:
        out = BitString()
    if n < -1:
        raise ValueError(f"symbol {n} out of domain")
    if n <= code.m:
        # leading 0 comes for free: n+1 < m+2 <= 2**(fixed_len-1)
        out.append_bits(n + 1, code.fixed_len)
    else:
        j = n - code.m
        nbits = j.bit_length()
        ell = nbits.bit_length() - 1
        out.append_bits(0b10, 2)
        # ell zeros then the (ell+1)-bit binary of nbits
        out.append_bits(nbits, 2 * ell + 1)
        if nbits > 1:
            out.append_bits(j - (1 << (nbits - 1)), nbits - 1)
    return out


def decode_symbol(code: SymbolCode, reader: BitReader) -> int:
    """Read one codeword from ``reader`` and return its symbol."""
    if reader.read_bit() == 0:
        v = reader.read_bits(code.fixed_len - 1)
        if v > code.m + 1:
            raise CorruptionError(f"unassigned fixed codeword {v}")
        return v - 1
    if reader.read_bit() != 0:
        raise CorruptionError("unassigned prefix 11")
    ell = 0
    while reader.read_bit() == 0:
        ell += 1
        if ell > 63:
            raise CorruptionError("offset codeword too long")
    nbits = (1 << ell) | reader.read_bits(ell)
    if nbits > 63:
        raise CorruptionError("offset codeword too long")
    j = 1 if nbits == 1 else (1 << (nbits - 1)) | reader.read_bits(nbits - 1)
    return code.m + j
