"""Reference implementations used to validate the fast paths.

``reference_min_bits`` walks every (k, l) parse up to k = n with no early
exits, scoring each via the public cost function; it is only usable for
short inputs.  ``is_block_shaped_by_rule`` and ``block_shape_error`` check
the block shape rule by rule on the tuples of ``DictionaryGrammar.rules``,
as the grammar module did before it checked its arrays.
"""

from __future__ import annotations

from minblock.codes import SymbolCode
from minblock.transform import RankedBlockTable, block_cost


def reference_min_bits(code: SymbolCode, u) -> int:
    u = [int(x) for x in u]
    n = len(u)
    best = (n + 2) * code.fixed_len
    for k in range(1, n + 1):
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            tail = (n - l) - p * k
            table = RankedBlockTable.from_parse(u, k, l)
            best = min(best, block_cost(code, table, k, l, tail))
    return best


def is_block_shaped_by_rule(g) -> bool:
    """``is_block_shaped`` on the rule tuples."""
    secondary = g.rules[:-1]
    prim = g.rules[-1]
    if not secondary:
        return not prim or max(prim) <= g.m
    k = len(secondary[0])
    if k < 1 or any(len(r) != k or max(r) > g.m for r in secondary):
        return False
    if not prim or max(prim) <= g.m:
        # nothing but terminal runs; they must split into head and tail < k
        return len(prim) <= 2 * (k - 1)
    head = 0
    while prim[head] <= g.m:
        head += 1
    tail = 0
    while prim[len(prim) - 1 - tail] <= g.m:
        tail += 1
    if head >= k or tail >= k:
        return False
    return min(prim[head : len(prim) - tail]) > g.m


def block_shape_error(g, k: int, head_len: int, tail_len: int) -> str | None:
    """Message of the ValueError ``BlockGrammar(g, k, head_len, tail_len)``
    raises, checked on the rule tuples; None when it accepts."""
    if k < 1:
        return "block length must be >= 1"
    if not (0 <= head_len < k and 0 <= tail_len < k):
        return "terminal runs must be shorter than the block length"
    for i, rule in enumerate(g.rules[:-1], start=1):
        if len(rule) != k or max(rule) > g.m:
            return f"secondary rule {i} is not a terminal {k}-block"
    prim = g.rules[-1]
    if len(prim) < head_len + tail_len:
        return "primary rule shorter than its terminal runs"
    head = prim[:head_len]
    tail = prim[len(prim) - tail_len :]
    mid = prim[head_len : len(prim) - tail_len]
    if head and max(head) > g.m:
        return "head run contains a nonterminal"
    if tail and max(tail) > g.m:
        return "tail run contains a nonterminal"
    if mid and min(mid) <= g.m:
        return "terminal inside the reference run"
    return None
