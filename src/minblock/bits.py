"""Bit-level plumbing: MSB-first bit strings, a bit reader, and the MBLK frame.

Bits are packed most-significant-bit first within each byte; a partial final
byte is zero padded and the true length in bits travels separately (in the
frame header on disk, or alongside the buffer in memory).
"""

from __future__ import annotations

import operator

MAGIC = b"MBLK"
VERSION = 1
HEADER_LEN = 4 + 1 + 2 + 8


class CodecError(Exception):
    """Base class for malformed encoded input."""


class TruncationError(CodecError):
    """Input ended in the middle of a codeword or frame."""


class CorruptionError(CodecError):
    """Input is well delimited but is not a valid emission."""


class ExpansionLimitError(CodecError):
    """A decoded grammar would expand past the caller's size limit."""


class BitString:
    """Growable bit sequence packed MSB-first into bytes."""

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, right aligned
        self._nacc = 0

    def __len__(self) -> int:
        return 8 * len(self._buf) + self._nacc

    def append_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (big-endian)."""
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        total = self._nacc + width
        buf = self._buf
        while total >= 8:
            total -= 8
            buf.append((acc >> total) & 0xFF)
        self._acc = acc & ((1 << total) - 1)
        self._nacc = total

    def to_bytes(self) -> bytes:
        """Packed bytes; a partial final byte is zero padded on the right."""
        if self._nacc:
            return bytes(self._buf) + bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return bytes(self._buf)

    def to01(self) -> str:
        out = "".join(f"{b:08b}" for b in self._buf)
        if self._nacc:
            out += f"{self._acc:0{self._nacc}b}"
        return out

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "BitString":
        if bit_length < 0 or len(data) < (bit_length + 7) // 8:
            raise ValueError("buffer shorter than the declared bit length")
        bs = cls()
        whole, rest = divmod(bit_length, 8)
        bs._buf = bytearray(data[:whole])
        if rest:
            bs._acc = data[whole] >> (8 - rest)
            bs._nacc = rest
        return bs

    @classmethod
    def from01(cls, s: str) -> "BitString":
        bs = cls()
        for ch in s:
            if ch in "01":
                bs.append_bits(int(ch), 1)
            elif not ch.isspace():
                raise ValueError(f"not a bit: {ch!r}")
        return bs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return len(self) == len(other) and self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash((len(self), self.to_bytes()))

    def __repr__(self) -> str:
        shown = self.to01()
        if len(shown) > 64:
            shown = shown[:61] + "..."
        return f"BitString({len(self)} bits: {shown})"


class BitReader:
    """Single-owner cursor over a BitString."""

    __slots__ = ("_data", "_bitlen", "_pos")

    def __init__(self, bits: BitString):
        self._data = bits.to_bytes()
        self._bitlen = len(bits)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bitlen - self._pos

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as a big-endian unsigned integer."""
        if width == 0:
            return 0
        pos = self._pos
        end = pos + width
        if end > self._bitlen:
            raise TruncationError("bit stream exhausted mid-codeword")
        first = pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        shift = 8 * (last - first) - (pos - 8 * first) - width
        self._pos = end
        return (chunk >> shift) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_bits(1)


def _check_frame_alphabet(m: int) -> int:
    """The alphabet size ``m`` as an int, if the frame header can hold it.

    Any integer type is taken (``operator.index``); anything else raises
    TypeError, and a size outside 2..65535 ValueError.
    """
    m = operator.index(m)
    if not 2 <= m <= 0xFFFF:
        raise ValueError("alphabet size must be between 2 and 65535")
    return m


def pack_frame(m: int, bits: BitString) -> bytes:
    """Serialize a payload: magic, version, alphabet size, bit count, bits."""
    m = _check_frame_alphabet(m)
    return (
        MAGIC
        + bytes([VERSION])
        + m.to_bytes(2, "big")
        + len(bits).to_bytes(8, "big")
        + bits.to_bytes()
    )


def unpack_frame(data: bytes) -> tuple[int, BitString]:
    """Parse a frame produced by :func:`pack_frame`; returns (m, payload)."""
    if len(data) < HEADER_LEN:
        raise TruncationError("frame header truncated")
    if data[:4] != MAGIC:
        raise CorruptionError("bad magic bytes")
    if data[4] != VERSION:
        raise CorruptionError(f"unsupported frame version {data[4]}")
    m = int.from_bytes(data[5:7], "big")
    if m < 2:
        raise CorruptionError(f"invalid alphabet size {m}")
    bitlen = int.from_bytes(data[7:15], "big")
    payload = memoryview(data)[HEADER_LEN:]  # a view: the payload is copied once, below
    need = (bitlen + 7) // 8
    if len(payload) < need:
        raise TruncationError("frame payload truncated")
    if len(payload) > need:
        raise CorruptionError("trailing bytes after the payload")
    if bitlen % 8 and payload[-1] & ((1 << (8 - bitlen % 8)) - 1):
        raise CorruptionError("nonzero padding bits")
    return m, BitString.from_bytes(payload, bitlen)
