import hashlib
import json
import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest

import disc_oracle

from liftsim import gadgets
from liftsim.dist import DistributionTable
from liftsim.errors import BudgetError, DomainError, FormatError, LiftsimError
from liftsim.gadgets import (
    BUILTIN_NAMES,
    DiscrepancyResult,
    Gadget,
    Rectangle,
    block_table,
    blocks_of,
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    extractor_check,
    gadget_from_json,
    gadget_to_json,
    random_gadget,
    rectangle_discrepancy,
    sampling_check,
    xor_power,
)

AND = builtin_gadget("and1")
OR = builtin_gadget("or1")
XOR = builtin_gadget("xor1")
IP2 = builtin_gadget("ip2")


def naive_discrepancy(g):
    """Independent oracle: direct enumeration of every (A, B) subset pair.

    Pairs are visited in (A mask, B mask) order and only a strictly larger
    value replaces the best, so the rectangle returned is the first maximizer
    in that order: the canonical witness `discrepancy` must report.
    """
    n = g.side
    best = F(-1)
    best_rect = None
    for amask in range(1 << n):
        a = tuple(i for i in range(n) if amask >> i & 1)
        for bmask in range(1 << n):
            b = tuple(i for i in range(n) if bmask >> i & 1)
            v = rectangle_discrepancy(g, Rectangle(a, b))
            if v > best:
                best = v
                best_rect = (a, b)
    return best, best_rect


def test_eval_examples():
    assert AND.eval(1, 1) == 1 and AND.eval(1, 0) == 0
    assert XOR.eval(1, 0) == 1 and XOR.eval(1, 1) == 0
    assert IP2.eval(0b11, 0b11) == 0   # 1*1 xor 1*1
    assert IP2.eval(0b11, 0b01) == 1
    with pytest.raises(DomainError):
        AND.eval(2, 0)


def test_gadget_table_entries_must_be_int_bits():
    # entries used to be rounded with int(), so [0.7, 1.2, True, 1] made the
    # table (0, 1, 1, 1)
    assert Gadget(1, [0, 1, 1, 1]).table == (0, 1, 1, 1)
    for entry in (0.7, 1.2, 1.0, True, False, "1", 2, -1, None):
        with pytest.raises(DomainError, match="table entries must be the ints 0 and 1"):
            Gadget(1, [0, 1, entry, 1])
    with pytest.raises(DomainError):
        Gadget(1, [0.7, 1.2, True, 1])


def test_rectangle_discrepancy_examples():
    assert rectangle_discrepancy(AND, Rectangle((), (0, 1))) == 0
    assert rectangle_discrepancy(AND, Rectangle((0, 1), (0, 1))) == F(1, 2)
    assert rectangle_discrepancy(XOR, Rectangle((0,), (0,))) == F(1, 4)


def test_discrepancy_examples():
    assert discrepancy(Gadget(1, [0, 0, 0, 0])).value == 1
    assert discrepancy(XOR).value == F(1, 4)
    assert discrepancy(AND).value == F(1, 2)
    assert discrepancy(OR).value == F(1, 2)
    assert discrepancy(IP2).value == F(5, 16)


def gray_code_discrepancy(g):
    """Reference scan: one Gray-code step per row subset A, column sums kept
    incrementally, B read off the signs of the column sums; the first
    maximizer in (A mask, B mask) order is kept."""
    n = g.side
    rows = [[1 - 2 * g.table[x * n + y] for y in range(n)] for x in range(n)]
    col = [0] * n
    best_num = -1
    best_pair = None
    prev = 0
    for k in range(1 << n):
        gray = k ^ (k >> 1)
        diff = gray ^ prev
        if diff:
            row = rows[diff.bit_length() - 1]
            step = 1 if gray & diff else -1
            for y in range(n):
                col[y] += step * row[y]
        prev = gray
        pos = neg = pos_mask = neg_mask = 0
        for y in range(n):
            c = col[y]
            if c > 0:
                pos += c
                pos_mask |= 1 << y
            elif c < 0:
                neg -= c
                neg_mask |= 1 << y
        if pos > neg:
            val, bmask = pos, pos_mask
        elif neg > pos:
            val, bmask = neg, neg_mask
        else:
            val, bmask = pos, min(pos_mask, neg_mask)
        if val > best_num or (val == best_num and (gray, bmask) < best_pair):
            best_num = val
            best_pair = (gray, bmask)
    a_mask, b_mask = best_pair
    rect = Rectangle(tuple(i for i in range(n) if a_mask >> i & 1),
                     tuple(i for i in range(n) if b_mask >> i & 1))
    return DiscrepancyResult(F(best_num, n * n), rect)


def constant_gadget(b, bit):
    return Gadget(b, [bit] * (1 << (2 * b)), name=f"const{bit}:{b}")


def test_discrepancy_against_naive_oracle():
    # every b=1 table, seeded b=2 tables and constant b=2 tables: value and
    # witness equal the first maximizer over all (A, B) pairs
    gadgets = [AND, OR, XOR, builtin_gadget("ip1"), IP2]
    gadgets += [Gadget(1, [t >> i & 1 for i in range(4)]) for t in range(16)]
    gadgets += [random_gadget(1, s) for s in range(6)]
    gadgets += [random_gadget(2, s) for s in range(4)]
    gadgets += [constant_gadget(2, 0), constant_gadget(2, 1)]
    for g in gadgets:
        fast = discrepancy(g)
        slow_value, slow_rect = naive_discrepancy(g)
        assert fast.value == slow_value
        assert fast.argmax == Rectangle(*slow_rect), g
        # the witness re-evaluates to the maximum
        assert rectangle_discrepancy(g, fast.argmax) == fast.value


def test_discrepancy_matches_gray_code_oracle():
    # exact (value, argmax) equality with the one-subset-per-step scan
    rng = random.Random(11)
    gadgets = [builtin_gadget(name) for name in BUILTIN_NAMES]
    gadgets += [random_gadget(b, s) for b in (1, 2, 3) for s in range(8)]
    # tie-heavy tables: constant, nearly constant, and ip4 = ip2 xor ip2
    gadgets += [constant_gadget(b, bit) for b in (2, 3, 4) for bit in (0, 1)]
    gadgets += [Gadget(b, [int(rng.random() < p) for _ in range(1 << (2 * b))])
                for b in (2, 3) for p in (0.1, 0.9)]
    gadgets.append(xor_power(IP2, 2))
    gadgets += [builtin_gadget(f"rand:4:{s}") for s in (5, 77, 150, 254)]
    for g in gadgets:
        assert discrepancy(g) == gray_code_discrepancy(g), g


def last_step_gadget():
    """A b=4 table whose maximum first appears in the kernel's last step: the
    rows from gadgets._LO on (the high rows) are all 0, so every maximizing A
    holds all of them, while the low rows are seeded bits."""
    rng, lo = random.Random(19), gadgets._LO
    rows = [[rng.getrandbits(1) for _ in range(16)] if x < lo else [0] * 16
            for x in range(16)]
    return Gadget(4, [bit for row in rows for bit in row])


def test_discrepancy_matches_unpacking_oracle():
    # exact DiscrepancyResult equality with the kernel that unpacked every
    # step's field totals (tests/disc_oracle.py)
    rng = random.Random(19)
    cases = [builtin_gadget(name) for name in BUILTIN_NAMES]
    cases += [random_gadget(b, s) for b in (1, 2, 3) for s in range(6)]
    cases += [builtin_gadget(f"rand:4:{s}") for s in range(0, 256, 8)]
    # b=4 tables full of ties: constant, nearly constant, and ip4
    cases += [constant_gadget(4, 0), constant_gadget(4, 1), xor_power(IP2, 2)]
    cases += [Gadget(4, [int(rng.random() < p) for _ in range(256)]) for p in (0.1, 0.9)]
    cases.append(last_step_gadget())
    for g in cases:
        assert gadgets._discrepancy.__wrapped__(g.b, g.table) == \
            disc_oracle.unpacking_discrepancy(g.b, g.table), g
    # its witness holds every high row: the maximum first appears in the
    # last step, after steps that skip the unpack
    high = set(range(gadgets._LO, 16))
    assert high <= set(discrepancy(last_step_gadget()).argmax.a)


def pool_and_power_cases():
    """The 256 gadget_disc_b4 pool gadgets, then ip4, ip3, the side-16 XOR
    powers of the builtins and 16 seeded rand:3 gadgets."""
    cases = [builtin_gadget(f"rand:4:{s}") for s in range(256)]
    cases += [xor_power(IP2, 2), gadgets._ip_gadget(3)]
    cases += [xor_power(builtin_gadget(name), 4) for name in ("and1", "or1", "xor1", "ip1")]
    cases += [random_gadget(3, s) for s in range(16)]
    return cases


def test_discrepancy_matches_sign_mask_oracle_on_the_whole_pool():
    # exact DiscrepancyResult equality with the kernel that scored every
    # step and with the one that skipped steps from a best of -1, without a
    # floor (tests/disc_oracle.py), on every gadget of the pool
    for g in pool_and_power_cases():
        res = gadgets._discrepancy.__wrapped__(g.b, g.table)
        assert res == disc_oracle.sign_mask_discrepancy(g.b, g.table), g
        assert res == disc_oracle.skipping_discrepancy(g.b, g.table), g


def floor_rectangle(g):
    """(W, the rectangle of the best-response floor)."""
    w, a, b = gadgets._response_floor(g.b, g.table)
    return w, Rectangle(gadgets._mask_to_tuple(a), gadgets._mask_to_tuple(b))


def test_floor_is_a_rectangle_and_keeps_the_first_maximizer(monkeypatch):
    # W is |sum of +-1 entries| of the search's own rectangle, so at most
    # the maximum, on every side-16 case (the only side the scan searches)
    for g in (g for g in pool_and_power_cases() if g.side == 16):
        w, rect = floor_rectangle(g)
        assert F(w, 256) == rectangle_discrepancy(g, rect) <= discrepancy(g).value, g
    # g(x, y) = 1 iff x and y share their lowest bit: the maximum 64 is
    # reached at A = the even rows (the first maximizer) and at A = the odd
    # rows, where the search stops
    lowest = Gadget(4, [int((x ^ y) & 1 == 0) for x in range(16) for y in range(16)])
    odd, even = tuple(range(1, 16, 2)), tuple(range(0, 16, 2))
    assert floor_rectangle(lowest) == (64, Rectangle(odd, even))
    # the floors of rand:4:0 and rand:4:6 are 1 and 4 below their maxima
    below = [builtin_gadget("rand:4:0"), builtin_gadget("rand:4:6")]
    assert [256 * discrepancy(g).value - floor_rectangle(g)[0] for g in below] == [1, 4]
    for g in [lowest, *below]:
        res = gadgets._discrepancy.__wrapped__(g.b, g.table)
        assert res == disc_oracle.skipping_discrepancy(g.b, g.table)
        assert res == disc_oracle.unpacking_discrepancy(g.b, g.table)
    assert discrepancy(lowest).argmax == Rectangle(even, even)

    # a side-8 scan (2 steps) runs no search
    def never(b, table):
        raise AssertionError(f"floor searched at b={b}")

    monkeypatch.setattr(gadgets, "_response_floor", never)
    for g in (random_gadget(3, 0), gadgets._ip_gadget(3), IP2):
        assert gadgets._discrepancy.__wrapped__(g.b, g.table) == \
            disc_oracle.skipping_discrepancy(g.b, g.table)


def step_profile(g):
    """Per high-row step h of the side-16 scan, from plain column sums:
    (the largest val(A) over the step's A = H + L, the scan's bound
    max(P(H) + max_p, N(H) + max_n), the best value of the steps before)."""
    n, lo = g.side, gadgets._LO
    rows = [[1 - 2 * g.table[x * n + y] for y in range(n)] for x in range(n)]

    def sums(mask):
        return [sum(rows[x][y] for x in range(n) if mask >> x & 1) for y in range(n)]

    def parts(c):
        return sum(v for v in c if v > 0), -sum(v for v in c if v < 0)

    low = [sums(L) for L in range(1 << lo)]
    max_p = max(parts(c)[0] for c in low)
    max_n = max(parts(c)[1] for c in low)
    out, best = [], -1
    for h in range(1 << (n - lo)):
        high = sums(h << lo)
        p_h, n_h = parts(high)
        top = max(max(parts([a + c for a, c in zip(high, cs)])) for cs in low)
        out.append((top, max(p_h + max_p, n_h + max_n), best))
        best = max(best, top)
    return out


# A b=4 table from a seeded search (row x as an int, bit y = g(x, y)) whose
# winning step's bound is tight: it equals the maximum and beats the best
# before by 1.
TIGHT_ROWS = (0xc1d3, 0x3ce6, 0xbc24, 0x8444, 0x3553, 0x0b1b, 0xefb5, 0xc424,
              0xf0f2, 0xd470, 0xb5e5, 0x9b9e, 0x372e, 0xda1a, 0x3bf0, 0xb847)


def test_skipped_steps_at_the_edges_of_the_bound():
    # % 255 reads P(H) exactly: its bytes sum to at most (n - _LO) * n
    side = gadgets.RECT_SIDE_LIMIT
    assert (side - gadgets._LO) * side < 255
    # parity(x) xor parity(y): a step after the winning one holds a tie of
    # the maximum and is skipped with its bound equal to best
    tie = xor_power(XOR, 4)
    # the winning step's bound is tight and beats the best before it by 1
    tight = Gadget(4, [row >> y & 1 for row in TIGHT_ROWS for y in range(16)])
    for g in (tie, tight):
        profile = step_profile(g)
        assert all(top <= bound for top, bound, _ in profile)  # the bound holds
        final = max(top for top, _, _ in profile)
        res = gadgets._discrepancy.__wrapped__(g.b, g.table)
        win = sum(1 << x for x in res.argmax.a) >> gadgets._LO
        assert res.value == F(final, 256) and profile[win][0] == final
        assert all(top < final for top, _, _ in profile[:win])
        assert res == disc_oracle.sign_mask_discrepancy(g.b, g.table)
        assert res == disc_oracle.unpacking_discrepancy(g.b, g.table)
        if g is tie:
            assert any(row == (final, final, final) for row in profile[win + 1:])
        else:
            assert profile[win] == (final, final, final - 1)


def test_discrepancy_refuses_sides_past_exact_range(monkeypatch):
    # a side past RECT_SIDE_LIMIT (16) is refused before its packed words or
    # its XOR power's table are built: side 128 is far past even the 64 up to
    # which the packed byte lanes are exact, and a power of side 64 is refused
    # as its base's side 4 is scanned
    scan = gadgets._discrepancy

    def checked_scan(b, table):
        assert b <= 4, f"packed scan started at b={b}"
        return scan(b, table)

    def never(g, m):
        raise AssertionError(f"xor_power table built for m={m}")

    monkeypatch.setattr(gadgets, "_discrepancy", checked_scan)
    monkeypatch.setattr(gadgets, "xor_power", never)
    g = random_gadget(7, 1)
    for call in (lambda: discrepancy(g),
                 lambda: check_xor_lemma(g, 1),
                 lambda: check_xor_lemma(random_gadget(2, 1), 3)):
        with pytest.raises(BudgetError) as err:
            call()
        assert err.value.limit == gadgets.RECT_SIDE_LIMIT == 16


# (value, witness) sha256 of discrepancy(rand:4:s), as pinned for the
# gadget_disc_b4 workload in perfbench/golden.json: a change of the witness
# or of its tie rule fails here.
DISC_B4_PINS = {
    0: "2ee6b7c82ab037c7d365b5be97c8f7010481f444f388a3967d0f2c1df85a3ff4",
    1: "f4475fcb257b50f2ad19667bfb60d35171e4df36e2195c69718e0b69579ac5b5",
    2: "3794fbdde3406a4babff15eb893c37ecb4314d3970521cd786046e3c3d323814",
    3: "7330ba61308dab2a1e813b2e4c483733d3820bcd3842626f4aa7423b76d0c51e",
    42: "520759c2d6e4baf957f355d9ce256dd2074a6e53b5cd1d494c48e3c7a8dcd951",
    100: "4fc86e9309f9d430264f19e20d367558934d3339adf099b7dbb13e1177da3cb5",
    200: "47762ff367154ff3ee3fd49ce2bede3170c8d2452de88b160f83645c01fe8a10",
    255: "2891906dddcf0427a308ee2aec312a1395c910bfd82e0281cff11146eff27c66",
}


def test_discrepancy_b4_witness_digests_pinned():
    from liftsim.exact import frac_str
    for s, pinned in DISC_B4_PINS.items():
        res = discrepancy(builtin_gadget(f"rand:4:{s}"))
        text = json.dumps([frac_str(res.value), list(res.argmax.a), list(res.argmax.b)])
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, s


def test_discrepancy_memoised_by_table(monkeypatch):
    gadgets._discrepancy.cache_clear()
    g = random_gadget(3, 4)
    first = discrepancy(g)
    # same table under another name, and the XOR lemma at m=1: no new scan
    assert discrepancy(Gadget(g.b, g.table, name="copy")) is first
    report = check_xor_lemma(g, 1)
    assert report.disc_base == report.value == first.value
    info = gadgets._discrepancy.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # the budget is checked on every call, cached or not
    monkeypatch.setattr(gadgets, "RECT_SIDE_LIMIT", 4)
    with pytest.raises(BudgetError):
        discrepancy(g)


def test_discrepancy_permutation_invariance():
    rng = random.Random(3)
    for seed in range(5):
        g = random_gadget(2, seed)
        base = discrepancy(g).value
        perm = list(range(g.side))
        rng.shuffle(perm)
        table = [g.eval(perm[x], y) for x in range(g.side) for y in range(g.side)]
        assert discrepancy(Gadget(g.b, table)).value == base
        table = [g.eval(x, perm[y]) for x in range(g.side) for y in range(g.side)]
        assert discrepancy(Gadget(g.b, table)).value == base


def test_discrepancy_budget():
    discrepancy(random_gadget(4, 0))  # side 16 is scanned, side 32 refused
    with pytest.raises(BudgetError, match="size 32 exceeds budget 16"):
        discrepancy(random_gadget(5, 0))


def test_rand_names_in_ascii_digits_only():
    # int() reads most of these, which used to load as rand:4:1 or
    # rand:4:10: a rand name is read only as random_gadget writes it
    for name in ("rand: 4:1", "rand:+4:1", "rand:\u0664:1", "rand:4:1_0", "rand:4:\uff11",
                 "rand:04:1", "rand:4:01", "rand:4:-0", "rand:4:1 ", "rand:4:+1",
                 "rand:-1:1", "rand:4", "rand:4:1:2", "rand::1"):
        with pytest.raises(FormatError, match="bad random gadget name"):
            builtin_gadget(name)
    # negative seeds stay allowed
    assert builtin_gadget("rand:2:-3") == random_gadget(2, -3)
    assert builtin_gadget("rand:2:-3").name == "rand:2:-3"
    assert builtin_gadget("rand:4:10").table == random_gadget(4, 10).table


def test_block_length_budget_before_any_table():
    # each construction path refuses a long block before drawing its table
    limit = gadgets.BLOCK_LENGTH_LIMIT
    assert limit >= 6
    for build in (lambda b: random_gadget(b, 1), gadgets._ip_gadget,
                  lambda b: builtin_gadget(f"rand:{b}:1"),
                  lambda b: gadget_from_json(json.dumps({"b": b, "rows": []}))):
        for b in (limit + 1, 40, 10 ** 12):
            with pytest.raises(BudgetError):
                build(b)
    assert gadgets._ip_gadget(6).side == 64  # the b=6 tier still builds


def test_block_table_is_the_product_of_block_values():
    # the block universe: inputs in numeric order are block tuples in
    # product order, first block most significant
    for n in range(1, 4):
        for b in range(1, 4):
            table = block_table(n, b)
            assert table == tuple(product(range(1 << b), repeat=n))
            assert all(blocks_of(v, n, b) == t for v, t in enumerate(table))


def test_xor_power():
    assert xor_power(XOR, 1) is XOR
    g2 = xor_power(XOR, 2)
    # input ((0,1),(1,1)): x = 01, y = 11 -> (0^1) xor (1^1) = 1
    assert g2.eval(0b01, 0b11) == 1
    a2 = xor_power(AND, 2)
    assert a2.eval(0b11, 0b11) == 0   # 1 xor 1
    assert a2.table == IP2.table      # AND xor AND on two blocks is ip2


def fresh_xor_power(g, m):
    """Reference build, one g.eval per copy and cell, never memoised."""
    side = 1 << (g.b * m)
    mask = g.side - 1
    table = []
    for x in range(side):
        for y in range(side):
            acc = 0
            for i in range(m):
                shift = g.b * (m - 1 - i)
                acc ^= g.eval((x >> shift) & mask, (y >> shift) & mask)
            table.append(acc)
    return Gadget(g.b * m, table, name=f"{g.name}^xor{m}" if g.name else f"xor^{m}")


def test_xor_power_memo_equals_fresh_build(monkeypatch):
    import liftsim.gadgets as gadgets

    cases = [(g, m) for g in (AND, OR, XOR, random_gadget(1, 5), Gadget(1, [0, 1, 1, 1]))
             for m in (2, 3)] + [(IP2, 2), (random_gadget(2, 9), 2)]
    for g, m in cases:
        first = xor_power(g, m)
        assert xor_power(g, m) is first  # built once
        ref = fresh_xor_power(g, m)
        assert first == ref and first.name == ref.name
    # ip1 and and1 share a table; each keeps its own name
    assert xor_power(builtin_gadget("ip1"), 2).name == "ip1^xor2"
    assert xor_power(AND, 2).name == "and1^xor2"
    assert xor_power(Gadget(1, XOR.table), 2).name == "xor^2"

    # the checkers report the same on memoised and freshly built powers
    flats = [DistributionTable.uniform(s) for s in ((0, 1, 2), (1, 3), tuple(range(4)))]
    flats.append(DistributionTable.from_weights({0: 3, 1: 0, 2: 1, 3: 4}))
    args = [(g, x, y) for g in (AND, XOR, random_gadget(1, 5)) for x in flats for y in flats]

    def reports():
        return [(extractor_check(g, x, y, F(1, 2), F(1, 4), m=2),
                 sampling_check(g, x, y, F(1, 4), F(1, 4), F(1, 2), m=2))
                for g, x, y in args]

    memoised = reports()
    monkeypatch.setattr(gadgets, "xor_power", fresh_xor_power)
    assert reports() == memoised


def test_check_xor_lemma_examples():
    r = check_xor_lemma(AND, 1)
    assert r.lower == r.value == F(1, 2) and r.sandwich_holds
    r = check_xor_lemma(XOR, 2)
    assert r.lower == F(1, 16) and r.sandwich_holds
    r = check_xor_lemma(AND, 2)
    assert r.lower == F(1, 4) and r.sandwich_holds
    assert r.upper == 1  # clamp


def test_xor_lemma_sandwich_builtin_grid():
    for name in ("and1", "or1", "xor1", "ip1"):
        g = builtin_gadget(name)
        for m in (1, 2, 3):
            assert check_xor_lemma(g, m).sandwich_holds, (name, m)
    assert check_xor_lemma(IP2, 1).sandwich_holds


def test_extractor_check_examples():
    u = DistributionTable.uniform(range(2))
    r = extractor_check(XOR, u, u, F(1, 2), F(1, 2))
    assert r.hypothesis and r.conclusion  # xor of uniforms is unbiased
    pm = DistributionTable.point(0, domain=range(2))
    r = extractor_check(AND, pm, u, F(1, 2), F(1, 2))
    assert not r.hypothesis  # a point mass has zero min-entropy


def test_sampling_check_examples():
    u = DistributionTable.uniform(range(2))
    r = sampling_check(XOR, u, u, F(1, 4), F(1, 4), F(1, 2))
    assert r.measured == 0  # xor against uniform is unbiased for every x
    # AND with lam = 1: bias(AND(0, Y)) = 1 > 2^-1, bias(AND(1, Y)) = 0
    x = DistributionTable({0: F(1, 3), 1: F(2, 3)})
    r = sampling_check(AND, x, u, F(1, 4), F(1), F(1, 2))
    assert r.measured == F(1, 3)


def test_extractor_sampling_implications_exhaustive_b1():
    flats = [DistributionTable.uniform(s)
             for s in [(0,), (1,), (0, 1)]]
    grid = (F(1, 4), F(1, 2))
    for g in (AND, OR, XOR):
        for x in flats:
            for y in flats:
                for eta in grid:
                    for lam in grid:
                        assert extractor_check(g, x, y, eta, lam).implication_holds
                        for gam in grid:
                            assert sampling_check(g, x, y, gam, lam, eta).implication_holds


def test_extractor_sampling_implications_exhaustive_b2():
    # every flat pair over subsets of the 4-element domain, ip2 plus seeded
    # random gadgets; no hypothesis-true/conclusion-false instance exists
    from itertools import combinations
    flats = [DistributionTable.uniform(s)
             for r in range(1, 5) for s in combinations(range(4), r)]
    grid = (F(1, 4), F(1, 2))
    for g in (IP2, random_gadget(2, 1), random_gadget(2, 2)):
        dv = discrepancy(g).value
        for x in flats:
            for y in flats:
                for eta in grid:
                    for lam in grid:
                        r = extractor_check(g, x, y, eta, lam, disc_value=dv)
                        assert r.implication_holds
                        rs = sampling_check(g, x, y, F(1, 4), lam, eta, disc_value=dv)
                        assert rs.implication_holds


def test_xor_corollary_checks_run():
    u = DistributionTable.uniform([(0, 0), (1, 1)])
    u = DistributionTable.uniform(range(4))
    r = extractor_check(XOR, u, u, F(1, 2), F(1, 4), m=2)
    assert r.implication_holds
    rs = sampling_check(XOR, u, u, F(1, 4), F(1, 4), F(1, 2), m=2)
    assert rs.implication_holds


def test_random_gadget_determinism():
    g1 = random_gadget(2, 77)
    g2 = random_gadget(2, 77)
    assert g1.table == g2.table
    assert random_gadget(1, 1).table != random_gadget(1, 2).table or True  # may collide
    assert len(random_gadget(1, 5).table) == 4


def test_gadget_json_roundtrip():
    for g in (AND, IP2, random_gadget(2, 9)):
        assert gadget_from_json(gadget_to_json(g)) == g
    with pytest.raises(LiftsimError):
        gadget_from_json('{"b": 1, "rows": ["01"]}')  # wrong row count
    with pytest.raises(LiftsimError):
        gadget_from_json('{"b": 1, "rows": ["01", "2x"]}')
    with pytest.raises(LiftsimError):
        gadget_from_json("not json")


def test_transpose():
    t = AND.transpose()
    assert t.table == AND.table  # and is symmetric
    g = Gadget(1, [0, 1, 0, 0])
    gt = g.transpose()
    assert gt.eval(1, 0) == g.eval(0, 1) == 1


def test_full_rectangle_discrepancy_is_bias():
    # disc over the full rectangle equals the bias of g on uniform inputs
    for g in (AND, OR, XOR, IP2, random_gadget(2, 3)):
        full = Rectangle(tuple(range(g.side)), tuple(range(g.side)))
        zeros = sum(1 for v in g.table if v == 0)
        ones = len(g.table) - zeros
        assert rectangle_discrepancy(g, full) == F(abs(zeros - ones), len(g.table))
