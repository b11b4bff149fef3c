"""Grammar model: expansion, encoding, decoding, and shape validation."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minblock import (
    BitReader,
    BitString,
    BlockGrammar,
    CodecError,
    CorruptionError,
    DictionaryGrammar,
    ExpansionLimitError,
    SymbolCode,
    TruncationError,
    compress,
    decode_grammar,
    decode_symbol,
    encode_grammar,
    encode_symbol,
    expand,
    grammar_code_length,
    is_block_shaped,
    permute_characters,
)
from minblock import grammar
from minblock.bits import unpack_frame
from minblock.grammar import _parse, symbol_dtype
from minblock.oracle import encode_by_codeword

from reference import block_shape_error, is_block_shaped_by_rule


def random_grammar(rng, m=None, num_rules=None, cite=None) -> DictionaryGrammar:
    """Random rule table; with ``cite``, each element is a rule with that chance."""
    m = m or int(rng.integers(2, 6))
    num_rules = num_rules or int(rng.integers(1, 6))
    rules = []
    for i in range(1, num_rules + 1):
        width = int(rng.integers(0, 5)) if i == num_rules else int(rng.integers(1, 5))
        if cite is None:
            rules.append(tuple(int(rng.integers(1, m + i)) for _ in range(width)))
        else:
            rules.append(tuple(
                int(rng.integers(m + 1, m + i)) if i > 1 and rng.random() < cite
                else int(rng.integers(1, m + 1))
                for _ in range(width)
            ))
    return DictionaryGrammar(m, tuple(rules))


def decode_by_codeword(code, bits) -> DictionaryGrammar:
    """Reference parser: ``decode_symbol`` once per codeword, checks in reading order."""
    reader = BitReader(bits)
    rules = []
    current = []
    while True:
        n = decode_symbol(code, reader)
        if n == 0:
            rules.append(tuple(current))
            current = []
        elif n == -1:
            if current:
                raise CorruptionError("grammar terminator inside a rule")
            if not rules:
                raise CorruptionError("grammar has no rules")
            break
        else:
            if n >= code.m + len(rules) + 1:
                raise CorruptionError(f"rule element {n} references its own or a later symbol")
            current.append(n)
    if reader.remaining:
        raise CorruptionError("trailing bits after the grammar terminator")
    return DictionaryGrammar(code.m, tuple(rules))


def outcome(decoder, code, bits):
    """The grammar a decoder returns, or the class of the CodecError it raises."""
    try:
        return decoder(code, bits)
    except CodecError as exc:
        return type(exc)


ALPHABETS = (2, 3, 66, 255, 256, 65535)


def test_expand_terminal():
    g = DictionaryGrammar(2, (((1, 2)),))
    assert expand(g).tolist() == [1, 2]


def test_expand_nested():
    g = DictionaryGrammar(2, ((1, 2), (3, 3, 2)))
    assert expand(g).tolist() == [1, 2, 1, 2, 2]


def test_expand_empty_primary():
    g = DictionaryGrammar(2, ((),))
    assert expand(g).tolist() == []


def test_expand_refuses_a_non_block_grammar():
    for rules in (
        ((1, 2), (3, 1), (4, 4)),  # a nonterminal inside a secondary rule
        ((1, 2), (1,), (3, 4)),  # secondary rules of two lengths
        ((1, 2), (3, 1, 3)),  # a terminal among the references
        ((1, 2), (1, 2, 2)),  # terminal runs no shorter than k
        ((), (3, 1)),  # an empty secondary rule
    ):
        g = DictionaryGrammar(2, rules)
        assert not is_block_shaped(g)
        with pytest.raises(ValueError, match="not block shaped"):
            expand(g)


def test_expand_limit_guard():
    # 2**11 references to one block; the doubling grammar is not a block grammar
    g = DictionaryGrammar(2, ((1, 1), (3,) * 2**11))
    assert expand(g).size == 2**12
    with pytest.raises(ExpansionLimitError):
        expand(g, max_len=100)
    doubling = DictionaryGrammar(2, ((1, 1),) + tuple((2 + i, 2 + i) for i in range(1, 11)))
    with pytest.raises(ValueError):
        expand(doubling)


def test_invariant_validation():
    with pytest.raises(ValueError):
        DictionaryGrammar(2, ())  # no primary rule
    with pytest.raises(ValueError):
        DictionaryGrammar(2, ((3,),))  # rule references its own symbol
    with pytest.raises(ValueError):
        DictionaryGrammar(2, ((1, 2), (5,)))  # forward reference
    with pytest.raises(ValueError):
        DictionaryGrammar(2, ((0,),))  # symbols start at 1
    with pytest.raises(TypeError):  # once silently m = 2
        DictionaryGrammar(2.5, ((1, 2),))
    with pytest.raises(TypeError):
        DictionaryGrammar.from_arrays(2.5, [1, 2], [0, 2])
    assert DictionaryGrammar(np.int64(2), ((1, 2),)).m == 2
    with pytest.raises(ValueError, match="above 2"):
        symbol_dtype(2**32)


def test_array_and_tuple_grammars_are_equal():
    rng = np.random.Generator(np.random.Philox(14))
    for _ in range(200):
        g = random_grammar(rng, int(rng.choice(ALPHABETS)), int(rng.integers(1, 12)), cite=0.5)
        h = DictionaryGrammar.from_arrays(g.m, g.symbols.copy(), g.offsets.copy())
        assert h == g and hash(h) == hash(g)
        assert h.rules == g.rules  # built from the arrays
        assert DictionaryGrammar(h.m, h.rules) == h
        assert h.num_rules == len(g.rules)
        for arr in (h.symbols, h.offsets, g.symbols, g.offsets):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[:1] = 1  # read-only
    g = DictionaryGrammar(2, ((1, 2), (3,)))
    assert g != DictionaryGrammar(3, ((1, 2), (3,)))  # m differs
    assert g != DictionaryGrammar(2, ((1,), (2, 3)))  # offsets differ
    assert g != DictionaryGrammar(2, ((1, 2), (2,)))  # symbols differ
    assert g != ((1, 2), (3,))
    assert len({g, DictionaryGrammar.from_arrays(2, [1, 2, 3], [0, 2, 3])}) == 1
    bg = BlockGrammar(base=DictionaryGrammar(2, ((1, 2), (3, 3))), k=2, head_len=0, tail_len=0)
    assert hash(bg) == hash(BlockGrammar(
        base=DictionaryGrammar.from_arrays(2, [1, 2, 3, 3], [0, 2, 4]), k=2, head_len=0,
        tail_len=0,
    ))


@pytest.mark.parametrize(
    "m, rules",
    [
        (2, ((0,),)),  # symbols start at 1
        (2, ((1, 2), (2, -3))),  # negative
        (2, ((1, 2), (4,))),  # rule references its own symbol
        (2, ((1, 2), (1, 5))),  # forward reference
        (2, ((1, 2), (), (1, 0, 7))),  # the first bad element is reported
        (2, ()),  # no primary rule
        (0, ((1,),)),  # no alphabet
    ],
)
def test_both_constructors_reject_the_same_tables(m, rules):
    with pytest.raises(ValueError) as from_tuples:
        DictionaryGrammar(m, rules)
    lengths = [len(rule) for rule in rules]
    with pytest.raises(ValueError) as from_arrays:
        DictionaryGrammar.from_arrays(
            m, [e for rule in rules for e in rule], np.cumsum([0] + lengths)
        )
    assert str(from_arrays.value) == str(from_tuples.value)


def test_constructors_reject_what_no_array_holds():
    # an element beyond int64 is reported as out of range, like any other
    with pytest.raises(ValueError, match=f"references {2**70}"):
        DictionaryGrammar(2, ((1, 2), (2**70,)))
    for symbols, offsets in (
        ([1, 2], [0, 1]),  # offsets end before the symbols
        ([1, 2], [1, 2]),  # offsets do not start at 0
        ([1, 2], [0, 2, 1, 2]),  # offsets fall
        ([[1, 2]], [0, 2]),  # not one dimensional
        ([1, 2], []),  # no offsets at all
    ):
        with pytest.raises(ValueError, match="rule offsets must rise"):
            DictionaryGrammar.from_arrays(2, symbols, offsets)


def test_encode_empty_primary():
    code = SymbolCode(2)
    g = DictionaryGrammar(2, ((),))
    bits = encode_grammar(g)
    assert len(bits) == 2 * code.fixed_len
    assert grammar_code_length(g) == len(bits)


def test_encode_single_primary():
    code = SymbolCode(2)
    g = DictionaryGrammar(2, ((1, 2),))
    assert len(encode_grammar(g)) == 4 * code.fixed_len == 12


def test_encode_nested_21_bits():
    code = SymbolCode(2)
    g = DictionaryGrammar(2, ((1, 2), (3, 3)))
    bits = encode_grammar(g)
    assert len(bits) == 21
    assert grammar_code_length(g) == 21
    assert decode_grammar(code, bits) == g


def test_code_length_matches_encoding_on_random_grammars():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(1000):
        g = random_grammar(rng)
        code = SymbolCode(g.m)
        bits = encode_grammar(g)
        assert grammar_code_length(g) == len(bits)
        back = decode_grammar(code, bits)
        assert back == g


def test_decode_rejects_terminator_alone():
    code = SymbolCode(2)
    bits = encode_symbol(code, -1)
    with pytest.raises(CorruptionError):
        decode_grammar(code, bits)


def test_decode_rejects_terminator_inside_rule():
    code = SymbolCode(2)
    bits = encode_symbol(code, 1)
    encode_symbol(code, -1, bits)
    with pytest.raises(CorruptionError):
        decode_grammar(code, bits)


def test_decode_rejects_forward_reference():
    code = SymbolCode(2)
    # first rule may only reference terminals, but cites symbol 3
    bits = encode_symbol(code, 3)
    encode_symbol(code, 0, bits)
    encode_symbol(code, -1, bits)
    with pytest.raises(CorruptionError):
        decode_grammar(code, bits)


def test_decode_rejects_trailing_garbage():
    code = SymbolCode(2)
    g = DictionaryGrammar(2, ((1,),))
    bits = encode_grammar(g)
    bits.append_bits(1, 1)
    with pytest.raises(CorruptionError):
        decode_grammar(code, bits)


def test_decode_rejects_truncation():
    from minblock import TruncationError

    code = SymbolCode(2)
    g = DictionaryGrammar(2, ((1, 2), (3, 3)))
    full = encode_grammar(g)
    clipped = BitString.from_bytes(full.to_bytes(), len(full) - 4)
    with pytest.raises(TruncationError):
        decode_grammar(code, clipped)


def test_block_grammar_shape():
    base = DictionaryGrammar(2, ((1, 2), (2, 1), (1, 3, 4, 2)))
    bg = BlockGrammar(base=base, k=2, head_len=1, tail_len=1)
    assert bg.base.m == 2 and bg.base.num_rules == 3
    assert expand(base).size == 1 + 2 * 2 + 1
    with pytest.raises(ValueError):
        BlockGrammar(base=base, k=2, head_len=2, tail_len=0)  # run not < k
    bad = DictionaryGrammar(2, ((1, 2), (3, 1)))  # nonterminal inside a rule
    with pytest.raises(ValueError):
        BlockGrammar(base=bad, k=2, head_len=0, tail_len=0)


def test_block_expansion_length_property():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(100):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        num_blocks = int(rng.integers(1, 4))
        rules = [
            tuple(int(rng.integers(1, m + 1)) for _ in range(k))
            for _ in range(num_blocks)
        ]
        head = int(rng.integers(0, k))
        tail = int(rng.integers(0, k))
        p = int(rng.integers(0, 6))
        primary = (
            tuple(int(rng.integers(1, m + 1)) for _ in range(head))
            + tuple(int(m + 1 + rng.integers(0, num_blocks)) for _ in range(p))
            + tuple(int(rng.integers(1, m + 1)) for _ in range(tail))
        )
        bg = BlockGrammar(
            base=DictionaryGrammar(m, tuple(rules) + (primary,)),
            k=k,
            head_len=head,
            tail_len=tail,
        )
        out = expand(bg.base)
        assert out.size == head + p * k + tail


def test_is_block_shaped():
    assert is_block_shaped(DictionaryGrammar(2, ((1, 2, 1),)))  # bare terminal
    assert is_block_shaped(DictionaryGrammar(2, ((1, 2), (3, 3))))
    # head 0, one reference, tail 1 is a legitimate block primary
    assert is_block_shaped(DictionaryGrammar(2, ((1, 2), (3, 1))))
    # mismatched secondary lengths
    assert not is_block_shaped(DictionaryGrammar(2, ((1, 2), (2, 1, 1), (3, 4))))
    # nonterminal inside a secondary rule
    assert not is_block_shaped(DictionaryGrammar(2, ((1, 2), (3, 1), (4,))))
    # all-terminal primary next to rules: fits iff it splits into runs < k
    assert is_block_shaped(DictionaryGrammar(2, ((1, 2), (1, 2))))
    assert not is_block_shaped(DictionaryGrammar(2, ((1, 2), (1, 2, 2))))
    assert not is_block_shaped(DictionaryGrammar(2, ((1,), (1, 2, 2))))


@st.composite
def near_block_grammars(draw):
    """A grammar at or near the block shape, and a (k, head, tail) to check it at.

    Secondary rules are k-blocks, some a symbol short or long or with a
    nonterminal; the primary is terminal runs around references, sometimes
    with a stray terminal among the references or a reference in a run, and
    may be empty or all terminals.
    """
    m = draw(st.sampled_from((2, 3, 66)))
    k = draw(st.integers(1, 4))
    num_blocks = draw(st.integers(0, 4))
    terminals = st.integers(1, m)
    rules = []
    for i in range(1, num_blocks + 1):
        size = draw(st.sampled_from((k, k, k, k - 1, k + 1)))
        rule = draw(st.lists(terminals, min_size=size, max_size=size))
        if rule and i > 1 and draw(st.integers(0, 4)) == 0:
            rule[draw(st.integers(0, size - 1))] = draw(st.integers(m + 1, m + i - 1))
        rules.append(tuple(rule))
    longest = k if draw(st.integers(0, 4)) == 0 else k - 1  # now and then a run too long
    head = draw(st.lists(terminals, max_size=longest))
    refs = draw(st.lists(st.integers(m + 1, m + num_blocks), max_size=4)) if num_blocks else []
    tail = draw(st.lists(terminals, max_size=longest))
    stray = draw(st.sampled_from(("none", "none", "terminal", "reference")))
    if stray == "terminal" and refs:
        refs.insert(draw(st.integers(1, len(refs))), draw(terminals))
    elif stray == "reference" and num_blocks and head + tail:
        runs = draw(st.sampled_from([run for run in (head, tail) if run]))
        runs[draw(st.integers(0, len(runs) - 1))] = m + num_blocks
    g = DictionaryGrammar(m, tuple(rules) + (tuple(head + refs + tail),))
    if draw(st.integers(0, 3)):
        return g, k, len(head), len(tail)
    near = st.sampled_from((-1, 1))
    return g, k + draw(near), len(head) + draw(near), len(tail) + draw(near)


def _block_grammar_error(g, k, head_len, tail_len):
    try:
        BlockGrammar(base=g, k=k, head_len=head_len, tail_len=tail_len)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(near_block_grammars())
@example((DictionaryGrammar(2, ((),)), 1, 0, 0))  # empty primary
@example((DictionaryGrammar(2, ((1, 2, 1),)), 2, 1, 1))  # all-terminal primary
@example((DictionaryGrammar(2, ((1, 2), ())), 2, 0, 0))
@example((DictionaryGrammar(2, ((1, 2), (1, 2))), 2, 1, 1))
@example((DictionaryGrammar(2, ((1, 2), (1, 2, 2))), 2, 1, 1))
@example((DictionaryGrammar(2, ((), (1, 2))), 1, 0, 0))  # empty secondary rule
@example((DictionaryGrammar(2, ((1, 2), (1,))), 2, 1, 1))  # runs longer than the primary
@example((DictionaryGrammar(2, ((1, 2), (3, 3))), 2, 1, 0))  # reference in the head
@example((DictionaryGrammar(2, ((1, 2), (3, 3))), 2, 0, 1))  # reference in the tail
@example((DictionaryGrammar(2, ((1, 2), (3, 1, 3))), 2, 0, 0))  # terminal among references
@example((DictionaryGrammar(2, ((1, 2), (3,))), 0, 0, 0))  # no block length
@example((DictionaryGrammar(2, ((1, 2), (1, 1, 3))), 2, 1, 0))  # head of k terminals
@example((DictionaryGrammar(2, ((1, 2), (3, 2, 2))), 2, 0, 1))  # tail of k terminals
def test_block_shape_checks_match_the_rule_by_rule_checks(case):
    g, k, head_len, tail_len = case
    assert is_block_shaped(g) == is_block_shaped_by_rule(g)
    assert _block_grammar_error(g, k, head_len, tail_len) == block_shape_error(
        g, k, head_len, tail_len
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from(ALPHABETS),
    num_rules=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 40, 70]),
)
def test_array_codec_matches_codeword_loop(seed, m, num_rules):
    # rule IDs j = 1..69 cross the Elias-delta length classes up to 2^6
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_grammar(rng, m, num_rules, cite=0.5)
    code = SymbolCode(m)
    bits = encode_grammar(g)
    assert bits == encode_by_codeword(g)
    assert len(bits) == grammar_code_length(g)
    assert decode_grammar(code, bits) == g


def test_array_codec_rule_ids_past_2_20():
    # 2^20 + 2 empty rules, so the primary may cite j up to 2^20 + 2
    m = 3
    ids = sorted({j for t in range(1, 21) for j in (2**t - 1, 2**t, 2**t + 1)}) + [2**20 + 2]
    rules = ((),) * (2**20 + 2) + (tuple(m + j for j in ids) + (1, 2, 3),)
    g = DictionaryGrammar(m, rules)
    code = SymbolCode(m)
    bits = encode_grammar(g)
    assert bits == encode_by_codeword(g)
    assert decode_grammar(code, bits) == g


DAMAGE = ["prefix", "last", "11", "unassigned", "ell>63", "nbits>63", "forward", "terminator",
          "empty", "trailing"]


def _assert_damage_raises_as_codeword_loop(rng, code, g, kind, where, replace, nbits):
    """Damage the payload of ``g`` near the codeword at ``where`` (a fraction
    of the payload) and check that the decoder fails as the codeword loop."""
    m = code.m
    fl = code.fixed_len
    # the payload, cut at codeword boundaries; the insert may replace a codeword
    words = [encode_symbol(code, e).to01() for rule in g.rules for e in rule + (0,)]
    words.append(encode_symbol(code, -1).to01())
    cut = min(int(where * len(words)), len(words) - 1)
    if kind == "prefix":
        payload = "".join(words)
        bits = payload[: int(where * (len(payload) - 1))]
    elif kind == "last":  # cut inside the terminator
        bits = "".join(words)[: -int(rng.integers(1, fl))]
    elif kind == "empty":
        bits = words[-1]
    else:
        if kind == "11":
            insert = "11" + "0" * int(rng.integers(0, 8))
        elif kind == "unassigned":
            assume(m + 2 < 2 ** (fl - 1))
            insert = format(int(rng.integers(m + 2, 2 ** (fl - 1))), f"0{fl}b")
        elif kind == "ell>63":
            insert = "10" + "0" * 64
        elif kind == "nbits>63":
            insert = "10" + "0" * 6 + "1" + format(int(rng.integers(0, 64)), "06b")
        elif kind == "forward":
            # an offset j of nbits bits: every Elias-delta length class
            j = (1 << (nbits - 1)) + int(rng.integers(0, 1 << (nbits - 1)))
            insert = encode_symbol(code, m + j).to01()
        elif kind == "terminator":
            insert = encode_symbol(code, -1).to01()
        else:
            insert = ""
            words.append("".join(rng.choice(["0", "1"], int(rng.integers(1, 80)))))
        bits = "".join(words[:cut]) + insert + "".join(words[cut + replace :])
    payload = BitString.from01(bits)
    want = outcome(decode_by_codeword, code, payload)
    assert outcome(decode_grammar, code, payload) == want
    if kind in ("prefix", "last"):
        assert want is TruncationError


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from(ALPHABETS),
    kind=st.sampled_from(DAMAGE),
    where=st.floats(0, 1),
    replace=st.booleans(),
    nbits=st.integers(1, 63),
)
@example(seed=0, m=2, kind="forward", where=0.5, replace=False, nbits=63)
def test_array_decoder_raises_as_codeword_loop(seed, m, kind, where, replace, nbits):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_grammar(rng, m, int(rng.integers(1, 20)), cite=0.5)
    _assert_damage_raises_as_codeword_loop(rng, SymbolCode(m), g, kind, where, replace, nbits)


def chunky_grammar(rng, m) -> DictionaryGrammar:
    """Hundreds of terminal blocks, then a primary of thousands of
    references and a long terminal run: a payload of dozens of parse chunks,
    with fixed-width codewords at both ends."""
    k = int(rng.integers(1, 6))
    d = int(rng.integers(200, 500))
    blocks = rng.integers(1, m + 1, (d, k))
    primary = np.concatenate([rng.integers(m + 1, m + d + 1, int(rng.integers(2000, 4000))),
                              rng.integers(1, m + 1, int(rng.integers(1000, 3000)))])
    return DictionaryGrammar.from_arrays(
        m, np.concatenate([blocks.ravel(), primary]),
        np.append(np.arange(0, d * k + 1, k), d * k + primary.size),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from(ALPHABETS),
    kind=st.sampled_from(DAMAGE),
    where=st.floats(0.6, 1),
    replace=st.booleans(),
    nbits=st.integers(1, 63),
)
def test_array_decoder_raises_as_codeword_loop_in_a_late_chunk(seed, m, kind, where, replace,
                                                                nbits):
    rng = np.random.Generator(np.random.Philox(seed))
    g = chunky_grammar(rng, m)
    _assert_damage_raises_as_codeword_loop(rng, SymbolCode(m), g, kind, where, replace, nbits)


def starts_by_codeword(s: str, fl: int) -> tuple[list[int], int]:
    """Reference parse of the 01-string ``s``: codeword starts read one at a
    time from bit 0, and where the reading ends (past the end, or len(s) + 1
    after a start where no codeword can start)."""
    starts, pos = [], 0
    while pos < len(s):
        starts.append(pos)
        window = s[pos : pos + 16].ljust(16, "0")
        if window[0] == "0":
            pos += fl
            continue
        ell = (window[2:] + "1").index("1")  # zeros after 10
        if window[1] == "1" or ell > 5:  # 11, or nbits > 63
            return starts, len(s) + 1
        # 10, ell zeros, the ell + 1 bits of nbits, the nbits - 1 low bits of j
        pos += 2 * ell + 2 + int(window[2 + ell : 3 + 2 * ell], 2)
    return starts, pos


def _parse_payload(bits: BitString, fl: int, chunk_codewords: int):
    data = bits.to_bytes()
    data += bytes(-len(data) % 8 + 32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grammar, "_CHUNK_CODEWORDS", chunk_codewords)
        starts, end = _parse(np.frombuffer(data, ">u8").astype(np.uint64), data, len(bits), fl)
    return starts.tolist(), end


def test_parse_matches_the_codeword_loop():
    # random bits, periodic reference runs, payloads with flipped bits, cut
    # short, written twice or with a run of ones put in: the chunked parse
    # finds the same starts and end
    rng = np.random.Generator(np.random.Philox(15))
    for trial in range(300):
        m = int(rng.choice(ALPHABETS))
        fl = SymbolCode(m).fixed_len
        form = trial % 6
        if form == 0:
            s = "".join(rng.choice(["0", "1"], int(rng.integers(0, 20000))))
        else:
            if form == 1:
                period = int(rng.integers(1, 4))
                refs = np.resize(np.arange(m + 1, m + period + 1), int(rng.integers(1, 3000)))
                g = DictionaryGrammar.from_arrays(
                    m, np.concatenate([np.ones(period, np.int64), refs]),
                    np.append(np.arange(period + 1), period + refs.size),
                )
            else:
                g = chunky_grammar(rng, m)
            s = encode_grammar(g).to01()
            if form == 2:
                chars = list(s)
                for i in rng.integers(0, len(s), int(rng.integers(1, 4))).tolist():
                    chars[i] = "10"[int(chars[i])]
                s = "".join(chars)
            elif form == 3:
                s = s[: int(rng.integers(0, len(s)))]
            elif form == 4:
                s += s
            elif form == 5:
                cut = int(rng.integers(0, len(s)))
                s = s[:cut] + "1" * int(rng.integers(1, 5000)) + s[cut:]
        want = starts_by_codeword(s, fl)
        # chunks as decode_grammar cuts them, and chunks of a few codewords,
        # where most walks cross chunks and many chains stop
        for chunk_codewords in (grammar._CHUNK_CODEWORDS, 3):
            assert _parse_payload(BitString.from01(s), fl, chunk_codewords) == want


@pytest.mark.parametrize("fl", [3, 8])
@pytest.mark.parametrize("ones", [1, 700, 3000])
def test_parse_where_no_chain_finds_a_codeword(fl, ones):
    # chunk 0 holds codewords, and every chain after it only slides
    s = "0" * (128 * fl) + "1" * ones
    for chunk_codewords in (grammar._CHUNK_CODEWORDS, 3):
        assert _parse_payload(BitString.from01(s), fl, chunk_codewords) == starts_by_codeword(s, fl)


def test_fixed_width_payloads_are_parsed_without_a_single_walk(monkeypatch):
    # every chunk start is a codeword start, so every chain is the parse and
    # no walk one codeword at a time is needed, in chunk 0 or any other
    walk = grammar._walk_from
    walks = []

    def counted(*args):
        walks.append(args[2])  # the position the walk starts from
        return walk(*args)

    monkeypatch.setattr(grammar, "_walk_from", counted)
    for m in (2, 3, 256):
        code = SymbolCode(m)
        fl = code.fixed_len
        # bare terminal grammars, from payloads that 128-codeword chunks
        # would hold in one to payloads of over a hundred such chunks
        for n in (1, 5, 100, 1000, 20_000):
            g = DictionaryGrammar.from_arrays(m, np.arange(n) % m + 1, [0, n])
            assert decode_grammar(code, encode_grammar(g)) == g
        for count in (1, 2, 3, 129, 20_000):
            s = "0" * (count * fl)
            for chunk_codewords in (grammar._CHUNK_CODEWORDS, 3):
                got = _parse_payload(BitString.from01(s), fl, chunk_codewords)
                assert got == starts_by_codeword(s, fl)
    assert walks == []


@pytest.mark.parametrize("fl", [3, 8])
@pytest.mark.parametrize("s", ["11", "1" * 9, "11" + "0" * 5000, "1" * 5000, "110" * 3000])
def test_parse_stops_at_bit_0_without_a_codeword_there(fl, s):
    for chunk_codewords in (grammar._CHUNK_CODEWORDS, 3):
        assert _parse_payload(BitString.from01(s), fl, chunk_codewords) == ([0], len(s) + 1)


def test_decodes_at_one_fixed_width_reuse_one_step_table():
    # m = 3 and m = 4 both have 4-bit fixed codewords
    grammar._step_tables.cache_clear()
    for m in (3, 4, 3, 4):
        code = SymbolCode(m)
        g = DictionaryGrammar(m, ((1, 2), (3, m + 1, 1)))
        assert decode_grammar(code, encode_grammar(g)) == g
    assert grammar._step_tables.cache_info()[:2] == (3, 1)  # hits, misses
    table, steps, slide = grammar._step_tables(4)
    assert not table.flags.writeable and not slide.flags.writeable
    assert steps == table.tobytes()


@pytest.mark.parametrize("m", [2, 3, 256])
@pytest.mark.parametrize("period", [1, 2, 3])
def test_decode_of_periodic_references_takes_linear_time(m, period):
    # the payload repeats with a period of a few codewords, so a chain that
    # starts out of step may never meet the parse; the parse then goes on one
    # codeword at a time, at no more than a pass per codeword
    k = 4
    refs = np.resize(np.arange(m + 1, m + period + 1), 1 << 18)
    g = DictionaryGrammar.from_arrays(
        m, np.concatenate([np.arange(period * k) % m + 1, refs]),
        np.append(np.arange(0, period * k + 1, k), period * k + refs.size),
    )
    code = SymbolCode(m)
    bits = encode_grammar(g)
    start = time.perf_counter()
    assert decode_grammar(code, bits) == g
    assert time.perf_counter() - start < 1.0


def test_decode_memory_at_file_size(corpus_symbols):
    # the permuted 2**20 corpus prefix: 7.3M payload bits, 535k codewords
    # (58.4 MB with a length byte per payload bit)
    u = permute_characters(corpus_symbols[0][: 1 << 20], 1)
    m, bits = unpack_frame(compress(u, 66))
    code = SymbolCode(m)
    tracemalloc.start()
    try:
        g = decode_grammar(code, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(expand(g), u)
    assert peak < 48e6


def test_decode_memory_on_a_corrupt_tail():
    # a valid start, then 2 MiB of 0xff: every chain from a chunk in the tail
    # slides one bit per step, and only its codeword starts (none) are kept
    # (32 B per payload bit when each slide was kept as a start, 1.3 with a
    # length byte per payload bit)
    m = 66
    code = SymbolCode(m)
    g = DictionaryGrammar(m, ((1, 2), (3, 4), (m + 1, m + 2) * 500))
    data = encode_grammar(g).to_bytes()[:-2] + b"\xff" * (1 << 21)
    bits = BitString.from_bytes(data, 8 * len(data))
    assert outcome(decode_by_codeword, code, bits) is CorruptionError
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError, match="unassigned prefix 11"):
            decode_grammar(code, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(bits)


@pytest.mark.parametrize("m", [3, 66])
def test_a_payload_corrupt_from_bit_0_ends_the_lockstep(monkeypatch, m):
    # 100 kB of 0xff: chain 0 slides at bit 0, so the parse stops there and
    # the other chains need not walk on (1028 window reads at m = 66, and
    # 516 at m = 3, when every chain slid through its chunk)
    windows = grammar._windows
    reads = []

    def counted(words, pos):
        reads.append(pos.size)
        return windows(words, pos)

    monkeypatch.setattr(grammar, "_windows", counted)
    bits = BitString.from_bytes(b"\xff" * 100_000, 800_000)
    with pytest.raises(CorruptionError, match="unassigned prefix 11"):
        decode_grammar(SymbolCode(m), bits)
    assert len(reads) <= 4


def test_decode_of_the_wide_chain_takes_linear_time():
    # a unary chain of d rules, its top cited d times: 26-bit references
    # that repeat, after delta codewords of every length up to theirs
    m, d = 256, 50_000
    g = DictionaryGrammar(m, ((1,),) + tuple((s,) for s in range(m + 1, m + d))
                          + ((m + d,) * d,))
    code = SymbolCode(m)
    bits = encode_grammar(g)
    start = time.perf_counter()
    assert decode_grammar(code, bits) == g
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "keep, insert, error",
    [
        (8, "11", CorruptionError),
        (8, "0111", CorruptionError),  # m = 3 leaves fixed values 5..7 unassigned
        (-4, "0111", CorruptionError),  # in place of the terminator
        (8, "10" + "0" * 64, CorruptionError),  # ell > 63
        (8, "10" + "0" * 63, TruncationError),  # the zeros run out first
        (8, "10" + "000000" + "1000000", CorruptionError),  # nbits = 64 > 63
        (8, "10" + "000000" + "100", TruncationError),  # nbits cut off
    ],
)
def test_decode_rejects_unassigned_codewords(keep, insert, error):
    code = SymbolCode(3)
    g = DictionaryGrammar(3, ((1, 2), (4, 3)))
    full = encode_grammar(g).to01()
    # the first 8 bits are the codewords of 1 and 2, the last 4 the terminator
    bits = BitString.from01(full[:keep] + insert)
    assert outcome(decode_by_codeword, code, bits) is error
    with pytest.raises(error):
        decode_grammar(code, bits)


def test_expand_limit_counts_the_final_length():
    # head 1, three references to 3-blocks, tail 2: 1 + 3 * 3 + 2 terminals
    g = DictionaryGrammar(2, ((1, 2, 1), (2, 2, 2), (1, 3, 4, 3, 2, 2)))
    assert expand(g, max_len=12).tolist() == [1, 1, 2, 1, 2, 2, 2, 1, 2, 1, 2, 2]
    with pytest.raises(ExpansionLimitError, match="12 terminals"):
        expand(g, max_len=11)


def test_expand_refuses_empty_citations_at_every_level():
    # each level cites the one below 1000 times and all of them expand to
    # nothing; expanded level by level this would be 10**9 then 10**12 symbols
    for depth in (3, 4):
        rules = ((),) + tuple((3 + i,) * 1000 for i in range(depth))
        g = DictionaryGrammar(2, rules + ((3 + depth, 1),))
        with pytest.raises(ValueError, match="not block shaped"):
            expand(g, max_len=1)


def by_rule(g, r, memo=None):
    """Reference expansion: each rule's body with every symbol expanded."""
    memo = {} if memo is None else memo
    if r <= g.m:
        return [r]
    if r not in memo:
        memo[r] = [t for e in g.rules[r - g.m - 1] for t in by_rule(g, e, memo)]
    return memo[r]


def random_block_grammar(rng, m) -> DictionaryGrammar:
    """Random block grammar: a terminal primary alone, or k-blocks (k = 1
    often) and a primary of runs below k around zero or more references."""
    def terminals(size):
        return [int(t) for t in rng.integers(1, m + 1, size)]

    if rng.random() < 0.2:
        return DictionaryGrammar(m, (terminals(int(rng.integers(0, 9))),))
    k = int(rng.choice([1, 1, 2, 3, 5]))
    d = int(rng.integers(1, 6))
    refs = [int(r) for r in rng.integers(m + 1, m + d + 1, int(rng.choice([0, 1, 7, 40])))]
    primary = terminals(int(rng.integers(0, k))) + refs + terminals(int(rng.integers(0, k)))
    return DictionaryGrammar(m, tuple(terminals(k) for _ in range(d)) + (primary,))


def test_expand_matches_the_rule_by_rule_expansion():
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(300):
        m = int(rng.choice(ALPHABETS))
        g = random_block_grammar(rng, m)
        assert is_block_shaped(g)
        want = by_rule(g, m + g.num_rules)
        got = expand(g, max_len=len(want))
        assert got.tolist() == want
        assert got.dtype == symbol_dtype(m)
        if want:
            with pytest.raises(ExpansionLimitError):
                expand(g, max_len=len(want) - 1)


def test_expand_with_empty_and_one_element_rules():
    # empty rules, one-element rules and chains of them, at every level:
    # each grammar either expands as rule by rule or is refused
    rng = np.random.Generator(np.random.Philox(13))
    shaped = 0
    for _ in range(400):
        m = int(rng.choice(ALPHABETS))
        rules = []
        for i in range(1, int(rng.integers(1, 12)) + 1):
            rules.append(tuple(
                int(rng.integers(m + 1, m + i)) if i > 1 and rng.random() < 0.6
                else int(rng.integers(1, m + 1))
                for _ in range(int(rng.choice([0, 1, 1, 2, 3])))
            ))
        g = DictionaryGrammar(m, tuple(rules))
        if is_block_shaped(g):
            shaped += 1
            assert expand(g).tolist() == by_rule(g, m + g.num_rules)
        else:
            with pytest.raises(ValueError, match="not block shaped"):
                expand(g)
    assert 0 < shaped < 400


@pytest.mark.parametrize("chain", ["unary", "binary", "under-a-wide-rule"])
def test_expand_deep_chains_take_linear_time(chain):
    # d rules deep: a chain is not a block grammar, and is refused in time
    # linear in d, before anything is expanded
    d = 50_000
    if chain == "unary":  # (1,), (3,), (4,), ...: expands to [1]
        rules = ((1,),) + tuple((s,) for s in range(3, d + 2))
    elif chain == "binary":  # (1,), (3, 2), (4, 2), ...: expands to 1, 2, 2, ...
        rules = ((1,),) + tuple((s, 2) for s in range(3, d + 2))
    else:  # the unary chain's top, cited d times
        rules = ((1,),) + tuple((s,) for s in range(3, d + 2)) + ((d + 2,) * d,)
    g = DictionaryGrammar(2, rules)
    start = time.perf_counter()
    assert not is_block_shaped(g)
    with pytest.raises(ValueError, match="not block shaped"):
        expand(g)
    assert time.perf_counter() - start < 1.0
