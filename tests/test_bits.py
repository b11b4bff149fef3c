"""Bit packing, reader arithmetic, and the MBLK frame format."""

import tracemalloc

import numpy as np
import pytest

from minblock import (
    BitReader,
    BitString,
    CorruptionError,
    TruncationError,
    pack_frame,
    unpack_frame,
)


def test_msb_first_packing():
    bs = BitString()
    bs.append_bits(0b101, 3)
    assert len(bs) == 3
    assert bs.to_bytes() == b"\xa0"  # 101 then zero padding
    bs.append_bits(0b0110, 4)
    assert bs.to_bytes() == b"\xac"  # 1010 110 0
    assert bs.to01() == "1010110"


def test_append_wide_value():
    bs = BitString()
    bs.append_bits(0x1234, 16)
    assert bs.to_bytes() == b"\x12\x34"


def test_from01_and_equality():
    assert BitString.from01("1010 110") == BitString.from01("1010110")
    assert BitString.from01("101") != BitString.from01("1010")
    # any whitespace is skipped, and a string that is all whitespace is empty
    assert BitString.from01("\t1 0\n1101 01\n").to01() == "10110101"
    assert len(BitString.from01(" \n")) == 0


def test_bitstring_domain_errors_hash_and_repr():
    with pytest.raises(ValueError, match="value 4 does not fit in 2 bits"):
        BitString().append_bits(4, 2)
    with pytest.raises(ValueError, match="not a bit: 'x'"):
        BitString.from01("10 x1")
    assert BitString.from01("1") != "1"
    # equal by content while it grows: no hash, which a later append would
    # leave stale in a set
    with pytest.raises(TypeError):
        hash(BitString())
    assert repr(BitString.from01("101")) == "BitString(3 bits: 101)"
    assert repr(BitString.from01("10" * 40)) == f"BitString(80 bits: {'10' * 30}1...)"


def test_reader_reads_across_bytes():
    r = BitReader(BitString.from01("11110000 10101010 11"))
    assert r.read_bits(3) == 0b111
    assert r.read_bits(8) == 0b10000101
    assert r.read_bits(7) == 0b0101011
    assert r.remaining == 0
    with pytest.raises(TruncationError):
        r.read_bit()


def test_from_bytes_partial_byte():
    bs = BitString.from_bytes(b"\xa0", 3)
    assert bs.to01() == "101"
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\xa0", 9)


def test_frame_round_trip():
    payload = BitString.from01("101100100")
    blob = pack_frame(27, payload)
    assert blob[:4] == b"MBLK"
    assert blob[4] == 1
    assert int.from_bytes(blob[5:7], "big") == 27
    assert int.from_bytes(blob[7:15], "big") == 9
    m, bits = unpack_frame(blob)
    assert m == 27
    assert bits == payload


def test_frame_errors():
    payload = BitString.from01("1011")
    blob = pack_frame(2, payload)
    with pytest.raises(TruncationError):
        unpack_frame(blob[:10])
    with pytest.raises(TruncationError):
        unpack_frame(blob[:-1])
    with pytest.raises(CorruptionError):
        unpack_frame(b"XXXX" + blob[4:])
    with pytest.raises(CorruptionError):
        unpack_frame(blob + b"\x00")
    bad_version = blob[:4] + b"\x02" + blob[5:]
    with pytest.raises(CorruptionError):
        unpack_frame(bad_version)
    # nonzero padding bits in the last byte
    corrupted = blob[:-1] + bytes([blob[-1] | 0x01])
    with pytest.raises(CorruptionError):
        unpack_frame(corrupted)
    with pytest.raises(ValueError):
        pack_frame(1, payload)
    # an alphabet below 2, which pack_frame refuses to write
    for m in (0, 1):
        with pytest.raises(CorruptionError, match=f"invalid alphabet size {m}"):
            unpack_frame(blob[:5] + m.to_bytes(2, "big") + blob[7:])


def test_frame_takes_an_alphabet_size_of_any_integer_type():
    payload = BitString.from01("1011")
    assert pack_frame(np.int64(3), payload) == pack_frame(3, payload)
    with pytest.raises(TypeError):  # once an AttributeError after the check
        pack_frame(3.0, payload)


def test_unpack_frame_copies_the_payload_once():
    # a payload of about 600 kB, as large as the frame of a 2**20 corpus
    # prefix; the frame's bytes exist before tracing starts (3.0x before the
    # payload was read through a view)
    rng = np.random.Generator(np.random.Philox(12))
    payload = BitString.from_bytes(rng.bytes(600_000), 8 * 600_000 - 3)
    frame = pack_frame(256, payload)
    tracemalloc.start()
    try:
        m, bits = unpack_frame(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m, bits) == (256, payload)
    assert peak < 1.5 * len(frame)
