"""Minimal block-grammar compression with universality diagnostics.

The package builds a uniquely decodable code in three layers: a prefix-free
symbol code (:mod:`minblock.codes`), dictionary grammars with a
symbol-by-symbol encoder (:mod:`minblock.grammar`), and an exact search for
the cheapest block grammar (:mod:`minblock.transform`).  On top sit
information measurements (:mod:`minblock.analysis`), data sources
(:mod:`minblock.sources`), and a CLI (:mod:`minblock.cli`).
"""

from .bits import (
    BitReader,
    BitString,
    CodecError,
    CorruptionError,
    ExpansionLimitError,
    TruncationError,
    pack_frame,
    unpack_frame,
)
from .codes import SymbolCode, decode_symbol, encode_symbol, rank_length, symbol_length
from .grammar import (
    BlockGrammar,
    DictionaryGrammar,
    decode_grammar,
    encode_grammar,
    expand,
    grammar_code_length,
    is_block_shaped,
)
from .transform import (
    RankedBlockTable,
    TransformResult,
    block_cost,
    compress,
    decode,
    decompress,
    encode,
    minimal_block_transform,
)
from .analysis import (
    block_entropy,
    empirical_block_distribution,
    hilberg_exponent,
    mi_bound,
    pointwise_mi,
    zipf_check,
)
from .sources import (
    SourceSpec,
    gen_bernoulli,
    gen_markov,
    ingest_corpus,
    permute_characters,
)

__version__ = "0.1.0"

__all__ = [
    "BitReader",
    "BitString",
    "BlockGrammar",
    "CodecError",
    "CorruptionError",
    "DictionaryGrammar",
    "ExpansionLimitError",
    "RankedBlockTable",
    "SourceSpec",
    "SymbolCode",
    "TransformResult",
    "TruncationError",
    "block_cost",
    "block_entropy",
    "compress",
    "decode",
    "decode_grammar",
    "decode_symbol",
    "decompress",
    "empirical_block_distribution",
    "encode",
    "encode_grammar",
    "encode_symbol",
    "expand",
    "gen_bernoulli",
    "gen_markov",
    "grammar_code_length",
    "hilberg_exponent",
    "ingest_corpus",
    "is_block_shaped",
    "mi_bound",
    "minimal_block_transform",
    "pack_frame",
    "permute_characters",
    "pointwise_mi",
    "rank_length",
    "symbol_length",
    "unpack_frame",
    "zipf_check",
]
