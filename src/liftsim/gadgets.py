"""Two-party boolean gadgets: tables, exact discrepancy, XOR powers, checks.

Discrepancy is maximized by exhaustive enumeration over all combinatorial
rectangles.  Sides are subsets of the 2^s-element input domain, represented
as bitmasks (bit i = i-th domain element in lexicographic order); rectangles
are ordered by (A mask, B mask) and the reported witness is the first
maximizer in that order.  The scan is word-parallel and integer-only: the
biased column sums of every subset of the first rows are packed one byte per
column into a single int, and one step per subset of the remaining rows
scores all of them at once without leaving the int.  A sign mask keeps each
sum's positive part, one pair-and-multiply folds every field's parts into a
field total, and one packed threshold test asks whether any total, or the
matching negative part, beats the best so far; only then are the totals
unpacked to find the first maximizer.  A step whose subadditivity bound
cannot beat the best so far is skipped before it is scored.
"""

from __future__ import annotations

import json
import random
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

from .dist import DistributionTable
from .errors import BudgetError, DomainError, FormatError, json_int, malformed
from .exact import _rational, cmp_pow2_ratio
from .records import Record

__all__ = [
    "Gadget",
    "Rectangle",
    "DiscrepancyResult",
    "blocks_of",
    "block_table",
    "xor_power",
    "rectangle_discrepancy",
    "discrepancy",
    "check_xor_lemma",
    "XorLemmaReport",
    "CorollaryReport",
    "extractor_check",
    "sampling_check",
    "random_gadget",
    "builtin_gadget",
    "BUILTIN_NAMES",
    "gadget_to_json",
    "gadget_from_json",
]

RECT_SIDE_LIMIT = 16
# Largest block length whose 4^b-entry table is built from a spec or a file.
BLOCK_LENGTH_LIMIT = 8


class Gadget:
    """g : {0,1}^b x {0,1}^b -> {0,1} as an explicit table.

    `table[x * side + y]` is the output on (x, y); x and y are integers whose
    binary expansions (b bits, most significant first) are the input strings.
    """

    __slots__ = ("b", "side", "table", "name")

    def __init__(self, b: int, table: Sequence[int], name: str = ""):
        if b < 1:
            raise DomainError("block length must be at least 1")
        side = 1 << b
        table = tuple(table)
        if len(table) != side * side:
            raise DomainError(f"table must have {side * side} entries, got {len(table)}")
        if any(type(v) is not int or v not in (0, 1) for v in table):
            raise DomainError("table entries must be the ints 0 and 1")
        self.b = b
        self.side = side
        self.table = table
        self.name = name

    def eval(self, x: int, y: int) -> int:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise DomainError(f"inputs must lie in [0, {self.side})")
        return self.table[x * self.side + y]

    def transpose(self) -> "Gadget":
        """Same function with the roles of the two parties swapped."""
        side = self.side
        t = [self.table[y * side + x] for x in range(side) for y in range(side)]
        return Gadget(self.b, t, name=self.name + "^T" if self.name else "")

    def __eq__(self, other) -> bool:
        return isinstance(other, Gadget) and self.b == other.b and self.table == other.table

    def __repr__(self) -> str:
        label = self.name or f"b={self.b}"
        return f"Gadget({label})"


class Rectangle(Record, frozen=True):
    """A combinatorial rectangle given by sorted tuples of domain indices."""

    def __init__(self, a: Tuple[int, ...], b: Tuple[int, ...]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def blocks_of(v: int, n: int, b: int) -> Tuple[int, ...]:
    """The n b-bit blocks of v, first block most significant."""
    mask = (1 << b) - 1
    return tuple((v >> (b * (n - 1 - i))) & mask for i in range(n))


def inputs_with_blocks(choices: Sequence[Sequence[int]], b: int) -> Tuple[int, ...]:
    """Every input whose block i lies in choices[i], the first block most
    significant: ascending when each choice is, in O(their count) steps."""
    inputs = [0]
    for choice in choices:
        inputs = [v << b | y for v in inputs for y in choice]
    return tuple(inputs)


@lru_cache(maxsize=16)
def block_table(n: int, b: int) -> Tuple[Tuple[int, ...], ...]:
    """``blocks_of(v, n, b)`` for every n*b-bit v, indexed by v (memoised)."""
    return tuple(blocks_of(v, n, b) for v in range(1 << (n * b)))


def xor_power(g: Gadget, m: int) -> Gadget:
    """Parity of m independent copies, as a gadget on b*m-bit blocks.

    Powers are memoised by the base gadget's value and name (a Gadget is
    unhashable), so callers share the returned gadget and must not mutate it.
    """
    if m < 1:
        raise DomainError("xor power needs m >= 1")
    if m == 1:
        return g
    return _xor_power(g.b, g.table, g.name, m)


@lru_cache(maxsize=32)
def _xor_power(b: int, table: Tuple[int, ...], name: str, m: int) -> Gadget:
    side_b = 1 << b
    blocks = block_table(m, b)
    out = []
    for xs in blocks:
        rows = [xi * side_b for xi in xs]
        for ys in blocks:
            acc = 0
            for row, yi in zip(rows, ys):
                acc ^= table[row + yi]
            out.append(acc)
    return Gadget(b * m, out, name=f"{name}^xor{m}" if name else f"xor^{m}")


def rectangle_discrepancy(g: Gadget, rect: Rectangle) -> Fraction:
    """|Pr[g=0 and in R] - Pr[g=1 and in R]| under uniform inputs."""
    total = 0
    for x in rect.a:
        row = x * g.side
        for y in rect.b:
            total += 1 - 2 * g.table[row + y]
    return Fraction(abs(total), g.side * g.side)


class DiscrepancyResult(Record, frozen=True):
    def __init__(self, value: Fraction, argmax: Rectangle):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "argmax", argmax)


def _mask_to_tuple(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# Rows split: the first _LO rows form the low subsets scored together in one
# packed word of 2^_LO * side bytes (so _LO bounds the scan's memory); each
# subset of the remaining high rows is one step.
_LO = 7
# A column sum c sits in one byte biased by 128, so bit 7 is set exactly when
# c >= 0.  |c| <= side keeps the byte in [64, 192] up to side 64, past
# RECT_SIDE_LIMIT; beyond that the byte lanes would carry into each other.
_BIAS = 128


def discrepancy(g: Gadget) -> DiscrepancyResult:
    """Exact maximum rectangle discrepancy with a canonical witness.

    For a side A the best opposing side B is the set of columns whose sums
    over A share a sign, so val(A) = max(pos, neg), the summed positive and
    negated negative column sums.  The witness is the first maximizer in
    (A mask, B mask) order: the smallest maximizing A, with B the columns of
    the larger of pos and neg, or the smaller of the two masks on a tie.
    A = H + L splits into high rows H (one scan step) and low rows L (one
    packed field each).  max(c, 0) is subadditive in each column sum c, so
    val(A) <= max(P(H) + max P(L), N(H) + max N(L)); a step whose bound is
    at most the best so far holds no A that beats it and is skipped, which
    keeps the first maximizer.  Over 256 seeded side-16 gadgets a median of
    36% of the steps is scored.
    Results are memoised by (b, table); the budget check is made every call.
    A side past RECT_SIDE_LIMIT is refused before any scan: a side-16 scan is
    2^9 steps of a 2 KiB word, and side 32 would be 2^25 steps of a 4 KiB
    word, less only the share the bound skips.
    """
    if g.side > RECT_SIDE_LIMIT:
        raise BudgetError("rectangle enumeration side domain", g.side, RECT_SIDE_LIMIT)
    return _discrepancy(g.b, g.table)


@lru_cache(maxsize=32)
def _discrepancy(b: int, table: Tuple[int, ...]) -> DiscrepancyResult:
    n = 1 << b
    # each row's signed column-sum word, sum over y of (+-1) * 256**y, and its
    # signed total
    row_word = [sum((1 - 2 * table[x * n + y]) << (8 * y) for y in range(n))
                for x in range(n)]
    row_sum = [n - 2 * sum(table[x * n:(x + 1) * n]) for x in range(n)]
    lo = min(_LO, n)
    count = 1 << lo
    size = count * n

    # One n-byte field per low subset L (field L at byte L*n) holding the
    # biased column sums over L: the bias in every byte plus, for each low row
    # x, its word in the fields whose L contains x.  The byte range keeps
    # every later sum of a high subset's signed word inside its byte.
    field = b"\1" + bytes(n - 1)
    rep = int.from_bytes(field * count, "little")  # 1 in the low byte of every field
    top = rep << (8 * n - 16)  # 1 in the top 16-bit lane of every field
    low = _BIAS * int.from_bytes(b"\1" * size, "little")
    low_sum = 0  # S(L), the signed total over L, in every top lane
    for x in range(lo):
        run = 1 << x
        member = int.from_bytes((bytes(n * run) + field * run) * (count >> (x + 1)), "little")
        low += row_word[x] * member
        low_sum += row_sum[x] * member
    low_sum <<= 8 * n - 16

    # Scoring a step's word v, every field at once: the sign bits mark each
    # byte with c >= 0, sign - (sign >> 7) turns each mark into a 0x7f mask,
    # and v under that mask holds max(c, 0) per byte.  Byte pairs add into
    # 16-bit lanes, and a multiplication by a 1 in each of a field's n/2
    # lanes leaves the field's sum P(A) of positive parts in its top lane.
    # No lane exceeds n*n, so none carries.  The negative parts sum to
    # P(A) - S(A), where S(A) = S(L) + s_h is the signed total over A.
    signs = int.from_bytes(b"\x80" * size, "little")
    pairs = int.from_bytes(b"\xff\0" * (size // 2), "little")
    lanes = int.from_bytes(b"\1\0" * (n // 2), "little")
    totals = struct.Struct("<" + f"{n - 2}xH" * count).unpack_from
    # The threshold test adds K = 0x7fff - best to every top lane: bit 15 of
    # a lane is then set exactly when its value beats best.  Only then are
    # the totals unpacked.
    above = 0x8000 * top

    # A mask = (h << lo) | L, so h then L ascending is A-mask order and the
    # first index of the best value in the first h beating the best so far
    # is the smallest maximizing A.  As h counts up, the high row of its
    # lowest set bit joins A and the high rows below that one leave it.
    #
    # A step is skipped when a bound shows no A = H + L in it beats best.
    # max(c, 0) is subadditive, so per column max(c(H) + c(L), 0) <=
    # max(c(H), 0) + max(c(L), 0), and summed over columns P(A) <= P(H) +
    # P(L), likewise N(A) <= N(H) + N(L).  So val(A) <= max(P(H) + max_p,
    # N(H) + max_n), where max_p and max_n are the largest P(L) and N(L):
    # the field maxima of step 0, which is always scored.  P(H) is read from
    # one n-byte word of H's biased column sums by the same sign mask; its
    # bytes sum to at most (n - lo) * n <= 144 < 255 up to RECT_SIDE_LIMIT,
    # so % 255 reads the sum exactly.  N(H) = P(H) - s_h.  A skipped step
    # holds no A beating best, and a tie never replaces the witness, so value
    # and witness are those of the unskipped scan.
    steps = []
    for x in range(lo, n):
        word = row_word[x] - sum(row_word[lo:x])
        steps.append((word * rep, word, row_sum[x] - sum(row_sum[lo:x])))
    hsigns = int.from_bytes(b"\x80" * n, "little")
    v, s_h = low, 0  # the step's word, and the signed total over its high rows
    hv = _BIAS * int.from_bytes(b"\1" * n, "little")  # H's biased column sums
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


class XorLemmaReport(Record):
    def __init__(self, m: int, disc_base: Fraction, lower: Fraction, value: Fraction,
                 upper: Fraction, sandwich_holds: bool):
        self.m = m
        self.disc_base = disc_base
        self.lower = lower
        self.value = value
        self.upper = upper
        self.sandwich_holds = sandwich_holds


def _check_xor_power(g: Gadget, m: int) -> None:
    """Refuse an XOR power that check_xor_lemma cannot scan, before its table
    is built: m < 1, or a side 2^(b*m) past RECT_SIDE_LIMIT."""
    if m < 1:
        raise DomainError("xor power needs m >= 1")
    if g.b * m >= RECT_SIDE_LIMIT.bit_length():
        raise BudgetError("rectangle enumeration side domain", f"2^{g.b * m}", RECT_SIDE_LIMIT)


def check_xor_lemma(g: Gadget, m: int) -> XorLemmaReport:
    """disc(g)^m <= disc(xor-power) <= (64*disc(g))^m, upper clamped at 1."""
    base = discrepancy(g).value
    _check_xor_power(g, m)
    value = discrepancy(xor_power(g, m)).value
    lower = base ** m
    upper = min(Fraction(1), (64 * base) ** m)
    return XorLemmaReport(m, base, lower, value, upper, lower <= value <= upper)


# -- extractor / sampling checks ---------------------------------------------

class CorollaryReport(Record):
    """One extractor or sampling verdict: the conclusion compares `measured`
    (the XOR bias, or the X-mass of biased values) with 2**(-bound_bits)."""

    def __init__(self, disc_ok: bool, entropy_ok: bool, measured: Fraction,
                 bound_bits: Fraction, conclusion: bool):
        self.disc_ok = disc_ok
        self.entropy_ok = entropy_ok
        self.measured = measured
        self.bound_bits = bound_bits
        self.conclusion = conclusion

    @property
    def hypothesis(self) -> bool:
        return self.disc_ok and self.entropy_ok

    @property
    def implication_holds(self) -> bool:
        return (not self.hypothesis) or self.conclusion


def _entropy_ok(x: DistributionTable, y: DistributionTable, bits: Fraction) -> bool:
    """maxprob(X) * maxprob(Y) <= 2**(-bits), on the weights."""
    return cmp_pow2_ratio(max(x.weights.values()) * max(y.weights.values()),
                          x.total * y.total, bits) <= 0


def _ratio(v) -> Tuple[int, int]:
    """(numerator, denominator) of an exact rational: a memo key that hashes
    as ints, where a Fraction's hash costs a modular inverse."""
    v = _rational(v)
    return v.numerator, v.denominator


@lru_cache(maxsize=256)
def _disc_ok(disc: Tuple[int, int], eta: Tuple[int, int], b: int) -> bool:
    """disc(g) <= 2**(-eta*b), for disc and eta given by _ratio."""
    return cmp_pow2_ratio(*disc, Fraction(*eta) * b) <= 0


@lru_cache(maxsize=256)
def _extractor_bits(eta: Tuple[int, int], lam: Tuple[int, int], m: int,
                    b: int) -> Tuple[Fraction, Fraction]:
    """extractor_check's (entropy threshold, bias bound) exponents."""
    eta, lam = Fraction(*eta), Fraction(*lam)
    return (2 - eta + lam) * m * b + (6 * m if m > 1 else 0), lam * b * m


@lru_cache(maxsize=256)
def _sampling_bits(gamma: Tuple[int, int], lam: Tuple[int, int], eta: Tuple[int, int],
                   m: int, b: int) -> Tuple[Fraction, Fraction, Fraction]:
    """sampling_check's (entropy threshold, bias threshold, bad-mass bound) exponents."""
    gamma, lam, eta = Fraction(*gamma), Fraction(*lam), Fraction(*eta)
    return ((2 - eta + gamma + lam) * m * b + (7 * m if m > 1 else 1),
            lam * b * m, gamma * b * m)


def _zero_weight(g: Gadget, a: int, y: DistributionTable) -> int:
    """Y's weight on {c : g(a, c) = 0}, over y.total."""
    row = a * g.side
    table = g.table
    return sum(w for c, w in y.weights.items() if w and table[row + c] == 0)


def extractor_check(
    g: Gadget,
    x: DistributionTable,
    y: DistributionTable,
    eta: Fraction,
    lam: Fraction,
    m: int = 1,
    disc_value: Fraction | None = None,
) -> CorollaryReport:
    """Low discrepancy of g plus joint min-entropy (2-eta+lam)*b*m forces
    bias(g^xor m(X,Y)) <= 2^(-lam*b*m); all quantities exact.

    With m > 1 copies (the XOR-power corollary) the entropy threshold gains
    6 bits per copy.  Every test is decided on integer weights.
    """
    b = g.b
    disc = discrepancy(g).value if disc_value is None else disc_value
    eta = _ratio(eta)
    entropy_bits, bound_bits = _extractor_bits(eta, _ratio(lam), m, b)
    gx = xor_power(g, m)
    w0 = sum(w * _zero_weight(gx, a, y) for a, w in x.weights.items() if w)
    total = x.total * y.total
    gap = abs(2 * w0 - total)  # bias = gap / total
    return CorollaryReport(_disc_ok(_ratio(disc), eta, b), _entropy_ok(x, y, entropy_bits),
                           Fraction(gap, total), bound_bits,
                           cmp_pow2_ratio(gap, total, bound_bits) <= 0)


def sampling_check(
    g: Gadget,
    x: DistributionTable,
    y: DistributionTable,
    gamma: Fraction,
    lam: Fraction,
    eta: Fraction,
    m: int = 1,
    disc_value: Fraction | None = None,
) -> CorollaryReport:
    """Bounds the X-mass of values whose conditional bias under g^xor m
    exceeds the extractor threshold 2^(-lam*b*m); the bad mass must stay
    strictly below 2^(-gamma*b*m).

    The entropy threshold is (2-eta+gamma+lam)*b*m plus 1 bit, or plus 7 bits
    per copy for the XOR-power corollary (m > 1).  Each value's conditional
    bias |2*w0 - total_y| / total_y is compared on integers.
    """
    b = g.b
    disc = discrepancy(g).value if disc_value is None else disc_value
    eta = _ratio(eta)
    entropy_bits, bias_bits, bound_bits = _sampling_bits(_ratio(gamma), _ratio(lam), eta, m, b)
    gx, y_total = xor_power(g, m), y.total
    bad = sum(w for a, w in x.weights.items()
              if w and cmp_pow2_ratio(abs(2 * _zero_weight(gx, a, y) - y_total),
                                      y_total, bias_bits) > 0)
    return CorollaryReport(_disc_ok(_ratio(disc), eta, b), _entropy_ok(x, y, entropy_bits),
                           Fraction(bad, x.total), bound_bits,
                           cmp_pow2_ratio(bad, x.total, bound_bits) < 0)


# -- construction -------------------------------------------------------------

def _check_block_length(b: int) -> None:
    """Refuse a block length past BLOCK_LENGTH_LIMIT before its table is built."""
    if b > BLOCK_LENGTH_LIMIT:
        raise BudgetError("gadget block length", b, BLOCK_LENGTH_LIMIT)


def random_gadget(b: int, seed: int) -> Gadget:
    """Independent fair table bits from a seeded generator; reproducible."""
    _check_block_length(b)
    rng = random.Random(seed)
    side = 1 << b
    table = [rng.getrandbits(1) for _ in range(side * side)]
    return Gadget(b, table, name=f"rand:{b}:{seed}")


def _ip_gadget(b: int) -> Gadget:
    _check_block_length(b)
    side = 1 << b
    table = [(x & y).bit_count() & 1 for x in range(side) for y in range(side)]
    return Gadget(b, table, name=f"ip{b}")


def _bit_op_gadget(name: str, op) -> Gadget:
    return Gadget(1, [op(x, y) for x in range(2) for y in range(2)], name=name)


BUILTIN_NAMES = ("and1", "or1", "xor1", "ip1", "ip2")


def builtin_gadget(name: str) -> Gadget:
    """Named gadget: and1, or1, xor1, ip1, ip2, or rand:<b>:<seed>.  Any other
    name is a FormatError, and so is a rand name whose b and seed are not
    written as random_gadget names them: ASCII decimal digits without sign,
    space, underscore or leading zero, the seed with an optional minus."""
    if name == "and1":
        return _bit_op_gadget("and1", lambda x, y: x & y)
    if name == "or1":
        return _bit_op_gadget("or1", lambda x, y: x | y)
    if name == "xor1":
        return _bit_op_gadget("xor1", lambda x, y: x ^ y)
    if name == "ip1":
        return _ip_gadget(1)
    if name == "ip2":
        return _ip_gadget(2)
    if name.startswith("rand:"):
        # int() also reads " 4", "+4", "4_0" and non-ASCII digits, so a name
        # must be the one random_gadget gives the gadget it reads as
        try:
            b, seed = map(int, name.split(":")[1:])
            if b < 0 or name != f"rand:{b}:{seed}":
                raise ValueError
        except ValueError:
            raise FormatError(f"bad random gadget name {name!r}, expected rand:<b>:<seed> "
                              f"with b >= 0 and seed decimal integers in ASCII digits") from None
        return random_gadget(b, seed)
    raise FormatError(f"unknown gadget {name!r}")


# -- file format --------------------------------------------------------------

def gadget_to_json(g: Gadget) -> str:
    rows = []
    for x in range(g.side):
        rows.append("".join(str(g.table[x * g.side + y]) for y in range(g.side)))
    return json.dumps({"b": g.b, "rows": rows}, indent=None, sort_keys=True)


def gadget_from_json(text: str) -> Gadget:
    with malformed("gadget file"):
        doc = json.loads(text)
        if not isinstance(doc, dict) or "b" not in doc or "rows" not in doc:
            raise FormatError("gadget file must be an object with keys 'b' and 'rows'")
        b = json_int(doc["b"], "b")
        _check_block_length(b)
        side = 1 << b
        rows = doc["rows"]
        if len(rows) != side:
            raise FormatError(f"expected {side} rows, got {len(rows)}")
        table = []
        for i, row in enumerate(rows):
            if len(row) != side or any(ch not in "01" for ch in row):
                raise FormatError(f"row {i} must be a bitstring of length {side}")
            table.extend(int(ch) for ch in row)
    return Gadget(b, table)
