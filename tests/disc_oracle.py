"""The exact discrepancy scan as gadgets._discrepancy ran it before its
packed column sums stayed in one int: the oracle the sign-mask kernel is
compared with, value and witness.

Each high row subset leaves the int: the packed word is written out as
bytes, bytes.translate splits every biased column sum into its positive and
negative part, and each part is folded and read back with struct.unpack.
"""

import struct
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from liftsim.gadgets import DiscrepancyResult, Rectangle, _mask_to_tuple

# Rows split: the first _LO rows form the subsets scored together in one
# packed word, the remaining rows are walked one subset per step.
_LO = 10
# Column sums are stored biased by 64, one byte each; after bytes.translate a
# byte holds max(c, 0) (_POS) or max(-c, 0) (_NEG).
_BIAS = 64
_POS = bytes(max(c - _BIAS, 0) for c in range(256))
_NEG = bytes(max(_BIAS - c, 0) for c in range(256))


@lru_cache(maxsize=32)
def _discrepancy(b: int, table: Tuple[int, ...]) -> DiscrepancyResult:
    n = 1 << b
    # signed column-sum word of each row: sum over y of (+-1) * 256**y
    row_word = [sum((1 - 2 * table[x * n + y]) << (8 * y) for y in range(n))
                for x in range(n)]
    lo = min(_LO, n)
    count = 1 << lo

    # One n-byte field per low subset L (field L at byte L*n) holding the
    # biased column sums over L: the bias in every field plus, for each low
    # row x, its word in the fields whose L contains x.  |c| <= n keeps every
    # byte in [0, 255] for n <= 64, so adding a high subset's signed word to
    # each field never carries across bytes.
    field = b"\1" + bytes(n - 1)
    rep = int.from_bytes(field * count, "little")
    lo_all = sum(_BIAS << (8 * y) for y in range(n)) * rep
    for x in range(lo):
        run = 1 << x
        member = int.from_bytes((bytes(n * run) + field * run) * (count >> (x + 1)), "little")
        lo_all += row_word[x] * member
    size = count * n
    # Field sums: add byte pairs into 16-bit lanes, then fold lanes (each sum
    # is at most n*n, well inside 16 bits) until lane 0 holds the field total.
    pairs = int.from_bytes(b"\xff\0" * (size // 2), "little")
    folds = [s for s in (16, 32, 64, 128, 256) if s < 8 * n]
    totals = struct.Struct("<" + f"H{n - 2}x" * count).unpack

    def field_sums(raw: bytes, signs: bytes) -> Tuple[int, ...]:
        v = int.from_bytes(raw.translate(signs), "little")
        v = (v & pairs) + ((v >> 8) & pairs)
        for s in folds:
            v += v >> s
        return totals(v.to_bytes(size, "little"))

    # A mask = (h << lo) | L, so h then L ascending is A-mask order and the
    # first index of the best value in the first h reaching it is the
    # smallest maximizing A.
    best, best_a = -1, 0
    for h in range(1 << (n - lo)):
        word = sum(row_word[lo + i] for i in range(n - lo) if h >> i & 1)
        raw = (lo_all + word * rep).to_bytes(size, "little")
        pos, neg = field_sums(raw, _POS), field_sums(raw, _NEG)
        top_pos, top_neg = max(pos), max(neg)
        top = max(top_pos, top_neg)
        if top > best:
            best = top
            first = min(pos.index(top) if top_pos == top else count,
                        neg.index(top) if top_neg == top else count)
            best_a = (h << lo) | first

    # Each A is scored once, so B is built only for the winning A.
    pos_sum = neg_sum = pos_mask = neg_mask = 0
    for y in range(n):
        c = sum(1 - 2 * table[x * n + y] for x in range(n) if best_a >> x & 1)
        if c > 0:
            pos_sum += c
            pos_mask |= 1 << y
        elif c < 0:
            neg_sum -= c
            neg_mask |= 1 << y
    if pos_sum != neg_sum:
        b_mask = pos_mask if pos_sum > neg_sum else neg_mask
    else:
        b_mask = min(pos_mask, neg_mask)
    rect = Rectangle(_mask_to_tuple(best_a), _mask_to_tuple(b_mask))
    return DiscrepancyResult(Fraction(best, n * n), rect)
