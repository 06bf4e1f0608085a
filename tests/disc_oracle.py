"""Earlier forms of the exact discrepancy scan in gadgets._discrepancy: the
oracles the floored kernel is compared with, value and witness.

`skipping_discrepancy` is the kernel as it ran before a side-16 scan started
from a best-response floor: the best so far starts at -1, and a step whose
subadditivity bound cannot beat it is skipped.

`sign_mask_discrepancy` is the kernel as it ran before steps were skipped by
the subadditivity bound: every high row subset's packed word is scored in
the int, and the totals are unpacked only when some field beats the best.

`unpacking_discrepancy` is the kernel as it ran before its packed column
sums stayed in one int: each step's packed word is written out as bytes,
bytes.translate splits every biased column sum into its positive and
negative part, and each part is folded and read back with struct.unpack.

All three visit every A in (A mask) order and keep the first maximizer; the B of
the witness is built by `_witness` for the winning A only.
"""

import struct
from fractions import Fraction
from typing import Tuple

from liftsim.gadgets import DiscrepancyResult, Rectangle, _mask_to_tuple


def _row_words(b: int, table: Tuple[int, ...]):
    n = 1 << b
    # signed column-sum word of each row: sum over y of (+-1) * 256**y
    return n, [sum((1 - 2 * table[x * n + y]) << (8 * y) for y in range(n)) for x in range(n)]


def _witness(n: int, table: Tuple[int, ...], best: int, best_a: int) -> DiscrepancyResult:
    """The result for the winning A: B the columns of the larger of pos and
    neg, or the smaller of the two masks on a tie."""
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


# -- the sign-mask kernel, every step scored ----------------------------------

# The first _SM_LO rows form the low subsets of one packed word; column sums
# sit one byte each, biased by 128, so bit 7 is set exactly when c >= 0.
_SM_LO = 7
_SM_BIAS = 128


def sign_mask_discrepancy(b: int, table: Tuple[int, ...]) -> DiscrepancyResult:
    n, row_word = _row_words(b, table)
    row_sum = [n - 2 * sum(table[x * n:(x + 1) * n]) for x in range(n)]
    lo = min(_SM_LO, n)
    count = 1 << lo
    size = count * n

    # One n-byte field per low subset L (field L at byte L*n) holding the
    # biased column sums over L, and S(L), the signed total over L, in the
    # top 16-bit lane of every field.
    field = b"\1" + bytes(n - 1)
    rep = int.from_bytes(field * count, "little")
    top = rep << (8 * n - 16)
    low = _SM_BIAS * int.from_bytes(b"\1" * size, "little")
    low_sum = 0
    for x in range(lo):
        run = 1 << x
        member = int.from_bytes((bytes(n * run) + field * run) * (count >> (x + 1)), "little")
        low += row_word[x] * member
        low_sum += row_sum[x] * member
    low_sum <<= 8 * n - 16

    # The sign mask keeps max(c, 0) per byte, byte pairs add into 16-bit
    # lanes, and a multiplication leaves each field's P(A) in its top lane;
    # N(A) = P(A) - S(A).  Adding 0x7fff - best to every top lane sets bit 15
    # exactly where a total beats best; only then are the totals unpacked.
    signs = int.from_bytes(b"\x80" * size, "little")
    pairs = int.from_bytes(b"\xff\0" * (size // 2), "little")
    lanes = int.from_bytes(b"\1\0" * (n // 2), "little")
    totals = struct.Struct("<" + f"{n - 2}xH" * count).unpack_from
    above = 0x8000 * top

    # A mask = (h << lo) | L; as h counts up, the high row of its lowest set
    # bit joins A and the high rows below that one leave it.
    steps = [((row_word[x] - sum(row_word[lo:x])) * rep, row_sum[x] - sum(row_sum[lo:x]))
             for x in range(lo, n)]
    v, s_h = low, 0
    best, best_a, over = -1, 0, above
    for h in range(1 << (n - lo)):
        if h:
            word, total = steps[(h & -h).bit_length() - 1]
            v += word
            s_h += total
        sign = v & signs
        pos = v & (sign - (sign >> 7))
        fields = ((pos + (pos >> 8)) & pairs) * lanes
        beat = fields + over
        if not (beat | (beat - low_sum - s_h * top)) & above:
            continue
        neg = fields - low_sum - s_h * top
        pos_t = totals(fields.to_bytes(size + n, "little"))
        neg_t = totals(neg.to_bytes(size + n, "little"))
        max_pos, max_neg = max(pos_t), max(neg_t)
        best = max(max_pos, max_neg)
        first = min(pos_t.index(best) if max_pos == best else count,
                    neg_t.index(best) if max_neg == best else count)
        best_a = (h << lo) | first
        over = (0x7FFF - best) * top
    return _witness(n, table, best, best_a)


# -- the skipping kernel, best so far from -1 ----------------------------------

def skipping_discrepancy(b: int, table: Tuple[int, ...]) -> DiscrepancyResult:
    n, row_word = _row_words(b, table)
    row_sum = [n - 2 * sum(table[x * n:(x + 1) * n]) for x in range(n)]
    lo = min(_SM_LO, n)
    count = 1 << lo
    size = count * n

    field = b"\1" + bytes(n - 1)
    rep = int.from_bytes(field * count, "little")
    top = rep << (8 * n - 16)
    low = _SM_BIAS * int.from_bytes(b"\1" * size, "little")
    low_sum = 0
    for x in range(lo):
        run = 1 << x
        member = int.from_bytes((bytes(n * run) + field * run) * (count >> (x + 1)), "little")
        low += row_word[x] * member
        low_sum += row_sum[x] * member
    low_sum <<= 8 * n - 16

    signs = int.from_bytes(b"\x80" * size, "little")
    pairs = int.from_bytes(b"\xff\0" * (size // 2), "little")
    lanes = int.from_bytes(b"\1\0" * (n // 2), "little")
    totals = struct.Struct("<" + f"{n - 2}xH" * count).unpack_from
    above = 0x8000 * top

    # A step is skipped when max(P(H) + max_p, N(H) + max_n) <= best, max_p
    # and max_n the field maxima of step 0, which is always scored: with
    # best = -1 every field of step 0 beats it.  P(H) is read from one n-byte
    # word of H's biased column sums by the sign mask and % 255.
    steps = []
    for x in range(lo, n):
        word = row_word[x] - sum(row_word[lo:x])
        steps.append((word * rep, word, row_sum[x] - sum(row_sum[lo:x])))
    hsigns = int.from_bytes(b"\x80" * n, "little")
    v, s_h = low, 0
    hv = _SM_BIAS * int.from_bytes(b"\1" * n, "little")
    best, best_a, over = -1, 0, above
    for h in range(1 << (n - lo)):
        if h:
            word, h_word, total = steps[(h & -h).bit_length() - 1]
            v += word
            hv += h_word
            s_h += total
            sign = hv & hsigns
            p_h = (hv & (sign - (sign >> 7))) % 255
            if p_h + max_p <= best and p_h - s_h + max_n <= best:
                continue
        sign = v & signs
        pos = v & (sign - (sign >> 7))
        fields = ((pos + (pos >> 8)) & pairs) * lanes
        beat = fields + over
        if not (beat | (beat - low_sum - s_h * top)) & above:
            continue
        neg = fields - low_sum - s_h * top
        pos_t = totals(fields.to_bytes(size + n, "little"))
        neg_t = totals(neg.to_bytes(size + n, "little"))
        max_pos, max_neg = max(pos_t), max(neg_t)
        if not h:
            max_p, max_n = max_pos, max_neg
        best = max(max_pos, max_neg)
        first = min(pos_t.index(best) if max_pos == best else count,
                    neg_t.index(best) if max_neg == best else count)
        best_a = (h << lo) | first
        over = (0x7FFF - best) * top
    return _witness(n, table, best, best_a)


# -- the unpacking kernel ------------------------------------------------------

# The first _UN_LO rows form the subsets scored together in one packed word.
# Column sums are stored biased by 64, one byte each; after bytes.translate a
# byte holds max(c, 0) (_POS) or max(-c, 0) (_NEG).
_UN_LO = 10
_UN_BIAS = 64
_POS = bytes(max(c - _UN_BIAS, 0) for c in range(256))
_NEG = bytes(max(_UN_BIAS - c, 0) for c in range(256))


def unpacking_discrepancy(b: int, table: Tuple[int, ...]) -> DiscrepancyResult:
    n, row_word = _row_words(b, table)
    lo = min(_UN_LO, n)
    count = 1 << lo

    # One n-byte field per low subset L (field L at byte L*n) holding the
    # biased column sums over L.  |c| <= n keeps every byte in [0, 255] for
    # n <= 64, so adding a high subset's signed word to each field never
    # carries across bytes.
    field = b"\1" + bytes(n - 1)
    rep = int.from_bytes(field * count, "little")
    lo_all = sum(_UN_BIAS << (8 * y) for y in range(n)) * rep
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
    return _witness(n, table, best, best_a)
