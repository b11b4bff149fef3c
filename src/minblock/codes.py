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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitReader, BitString, CorruptionError


@dataclass(frozen=True)
class SymbolCode:
    """Code parameters for an alphabet of ``m`` terminal symbols."""

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", int(self.m))
        if not 2 <= self.m < 1 << 32:
            raise ValueError("alphabet size must be between 2 and 2**32 - 1")

    @property
    def fixed_len(self) -> int:
        """Width in bits of the codewords for symbols -1 .. m."""
        return (self.m + 1).bit_length() + 1

    @property
    def length_bound_constant(self) -> int:
        """Smallest c with |code(m+j)| <= log2 j + 2 log2 log2 j + c, j >= 2.

        For this construction the supremum is attained at j = 2 (6 bits
        against log2 2 = 1), giving c = 5.
        """
        return 5


def symbol_length(code: SymbolCode, n: int) -> int:
    """Bit length of the codeword of ``n`` without materializing it."""
    if n < -1:
        raise ValueError(f"symbol {n} out of domain")
    if n <= code.m:
        return code.fixed_len
    return rank_length(n - code.m)


def rank_length(j: int) -> int:
    """Bit length of the open-class codeword for offset ``j`` >= 1.

    Equals ``symbol_length(code, m + j)`` for any alphabet size.
    """
    if j < 1:
        raise ValueError("offset must be >= 1")
    t = j.bit_length() - 1
    return t + 2 * ((t + 1).bit_length() - 1) + 3


def bit_lengths(x) -> np.ndarray:
    """``int.bit_length`` of each nonnegative integer below 2**53, as int64."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def rank_lengths(j) -> np.ndarray:
    """:func:`rank_length` of each offset in ``j`` (all in 1..2**53), as int64."""
    t = bit_lengths(j) - 1
    return t + 2 * (bit_lengths(t + 1) - 1) + 3


def encode_symbol(code: SymbolCode, n: int, out: BitString | None = None) -> BitString:
    """Append the codeword of ``n`` to ``out`` (a fresh BitString if omitted)."""
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
