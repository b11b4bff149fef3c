"""Brute-force references for the test suite.

Everything here re-derives results the fast paths compute cleverly:
the minimum emission size by enumerating whole grammars and materializing
their bits, and the additive universality bound evaluated from first
principles.  Nothing in this module is needed at run time.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Mapping

from .bits import BitString
from .codes import SymbolCode, encode_symbol
from .grammar import DictionaryGrammar, _symbol_sequence

log = logging.getLogger(__name__)

# caps keeping the exhaustive enumeration tractable: the string length, and
# the distinct blocks of a parse, whose MAX_DISTINCT! identifier assignments
# are enumerated
MAX_N = 10
MAX_DISTINCT = 6


def encode_by_codeword(g: DictionaryGrammar) -> BitString:
    """Reference emitter: ``encode_symbol`` under ``SymbolCode(g.m)`` once per symbol.

    Bit for bit what ``encode_grammar`` emits, one codeword at a time.
    """
    return _encode_rules(SymbolCode(g.m), g.rules)


def _encode_rules(code: SymbolCode, rules) -> BitString:
    """:func:`encode_by_codeword` of a rule table, taken as valid unchecked.

    The enumeration scores its tables, valid by construction, with this
    directly: checking each as a :class:`DictionaryGrammar` costs numpy's
    fixed cost per table.
    """
    out = BitString()
    for rule in rules:
        for e in rule:
            encode_symbol(code, e, out)
        encode_symbol(code, 0, out)
    encode_symbol(code, -1, out)
    return out


def _assignment_rules(m: int, head, blocks, occ_index, tail, perm) -> tuple:
    """Rules of the grammar giving block j the identifier m+1+perm[j]."""
    rules: list[tuple[int, ...]] = [()] * len(blocks)
    for j, block in enumerate(blocks):
        rules[perm[j]] = block
    primary = tuple(head) + tuple(m + 1 + perm[j] for j in occ_index) + tuple(tail)
    return tuple(rules) + (primary,)


def brute_force_min_block(code: SymbolCode, u) -> int:
    """True minimum emission size over every block grammar producing ``u``.

    Enumerates every block length, phase, and identifier permutation, plus
    the bare terminal grammar, and scores each candidate by materializing
    its bits codeword by codeword, as :func:`encode_by_codeword` does
    (deliberately not reusing any closed form from the fast path).  ``u``
    takes the transform's input form, of at most ``MAX_N`` symbols, and no
    parse may have more than ``MAX_DISTINCT`` distinct blocks.
    """
    u = _symbol_sequence(u).tolist()
    n = len(u)
    if n > MAX_N:
        raise ValueError(f"string length {n} exceeds the enumeration budget {MAX_N}")
    m = code.m

    best = len(encode_by_codeword(DictionaryGrammar(m, (tuple(u),))))
    for k in range(1, n + 1):
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            head = u[:l]
            tail = u[l + p * k :]
            parsed = [tuple(u[l + i * k : l + (i + 1) * k]) for i in range(p)]
            blocks = sorted(set(parsed))
            if len(blocks) > MAX_DISTINCT:
                raise ValueError(
                    f"{len(blocks)} distinct blocks exceed the enumeration "
                    f"budget {MAX_DISTINCT}"
                )
            occ_index = [blocks.index(b) for b in parsed]
            for perm in itertools.permutations(range(len(blocks))):
                rules = _assignment_rules(m, head, blocks, occ_index, tail, perm)
                best = min(best, len(_encode_rules(code, rules)))
    return best


def universality_bound(code: SymbolCode, x, k: int, pi: Mapping) -> float:
    """Additive bound that every emission of the transform must respect.

    Returns ``C(n, k) - (1/k) * sum_i log2 pi(block_i)`` over the n-k+1
    overlapping k-blocks of ``x``, where::

        C(k)    = (m**k * (k+1) + 2k + 2) * fixed_len
        C(n, k) = C(k) + (n/k) * (2*log2(k*log2 m) + 5)

    A block of ``x`` with zero probability makes the bound vacuous (+inf).
    ``x`` takes the transform's input form.
    """
    if k < 1:
        raise ValueError("block length must be >= 1")
    x = _symbol_sequence(x).tolist()
    n = len(x)
    if k > n:
        raise ValueError("block length exceeds the string")
    m = code.m
    fl = code.fixed_len
    c_k = (m**k * (k + 1) + 2 * k + 2) * fl
    # 5 is the least c with |code(m + j)| <= log2 j + 2 log2 log2 j + c for
    # j >= 2: the supremum of the left side minus the log terms is at j = 2,
    # a 6-bit codeword against log2 2 = 1 (and log2 log2 2 = 0)
    c_nk = c_k + (n / k) * (2 * math.log2(k * math.log2(m)) + 5)
    total = 0.0
    for i in range(n - k + 1):
        p = float(pi.get(tuple(x[i : i + k]), 0.0))
        if p <= 0.0:
            log.info("zero-probability block at position %d: bound is vacuous", i)
            return math.inf
        total += math.log2(p)
    return c_nk - total / k
