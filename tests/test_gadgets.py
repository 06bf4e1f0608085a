import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from liftsim.dist import DistributionTable
from liftsim.errors import BudgetError, DomainError, LiftsimError
from liftsim.gadgets import (
    Gadget,
    Rectangle,
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
    """Independent oracle: direct enumeration of every (A, B) subset pair."""
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


def test_discrepancy_against_naive_oracle():
    rng = random.Random(42)
    gadgets = [AND, OR, XOR, builtin_gadget("ip1")]
    gadgets += [random_gadget(1, s) for s in range(6)]
    gadgets += [random_gadget(2, s) for s in range(4)]
    for g in gadgets:
        fast = discrepancy(g)
        slow_value, slow_rect = naive_discrepancy(g)
        assert fast.value == slow_value
        # the witness re-evaluates to the maximum
        assert rectangle_discrepancy(g, fast.argmax) == fast.value


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
    g = random_gadget(3, 0)  # side 8 is fine, but a tighter budget refuses
    with pytest.raises(BudgetError):
        discrepancy(g, side_limit=4)


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
    assert r.bad_mass == 0  # xor against uniform is unbiased for every x
    # AND with lam = 1: bias(AND(0, Y)) = 1 > 2^-1, bias(AND(1, Y)) = 0
    x = DistributionTable({0: F(1, 3), 1: F(2, 3)})
    r = sampling_check(AND, x, u, F(1, 4), F(1), F(1, 2))
    assert r.bad_mass == F(1, 3)


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
