import math
import random
from fractions import Fraction as F

import pytest

from liftsim.exact import (
    cmp_pow2,
    cmp_products,
    exact_log2,
    frac_decimal,
    frac_str,
    log2_bounds,
    parse_frac,
    _cmp_pow2_cleared,
    _floor_log2,
)


def test_cmp_pow2_basics():
    assert cmp_pow2(F(1, 2), F(1)) == 0          # 2^-1 = 1/2
    assert cmp_pow2(F(0), F(5)) == -1            # zero is below any threshold
    assert cmp_pow2(F(1), F(0)) == 0
    assert cmp_pow2(F(3, 4), F(1)) == 1
    # negative exponents: threshold above 1
    assert cmp_pow2(F(1), F(-2)) == -1           # 1 < 2^2


def test_cmp_pow2_fractional_exponent():
    # (1/3)^2 = 1/9 < 1/8 = 2^-3, hence 1/3 < 2^(-3/2)
    assert cmp_pow2(F(1, 3), F(3, 2)) == -1
    # and slightly above the threshold
    assert cmp_pow2(F(36, 100), F(3, 2)) == 1    # 0.36 > 0.3535...
    # exact equality is impossible for non-integer exponents on rationals
    assert cmp_pow2(F(5, 7), F(1, 3)) in (-1, 1)


def _cmp_pow2_old_formula(p, q):
    """The formula cmp_pow2 used before its integer fast path: wrap both
    arguments in Fraction; an integer exponent compares p with the Fraction
    2**(-a), any other clears the root (p**d vs 2**(-a))."""
    p, q = F(p), F(q)
    if p == 0:
        return -1
    a, d = q.numerator, q.denominator
    if d == 1:
        target = F(1, 1 << a) if a >= 0 else F(1 << -a)
        return (p > target) - (p < target)
    rhs = F(1, 1 << a) if a >= 0 else F(1 << -a)
    lhs = p ** d
    return (lhs > rhs) - (lhs < rhs)


def test_cmp_pow2_matches_old_formula_seeded():
    rng = random.Random(2024)
    cases = 0
    for _ in range(3000):
        a = rng.randrange(-40, 41)
        d = rng.choice((1, 1, 1, 2, 3, 7, 64, 65, 1000))
        q = F(a, d)
        if rng.random() < 0.4:
            # on or next to the threshold 2**(-q) when q is an integer
            base = F(1, 1 << a) if a >= 0 else F(1 << -a)
            p = base + rng.choice((0, 0, F(1, 1 << 50), -F(1, 1 << 50)))
        else:
            p = F(rng.randrange(0, 5000), rng.randrange(1, 5000))
        for pp in (p, p.numerator) if p.denominator == 1 else (p,):
            for qq in (q, q.numerator) if d == 1 else (q, str(q)):
                assert cmp_pow2(pp, qq) == _cmp_pow2_old_formula(pp, qq), (pp, qq)
                cases += 1
    assert cases > 3000
    # ints, bools and strings are exact inputs too
    assert cmp_pow2(1, 0) == 0 and cmp_pow2(True, -1) == -1
    assert cmp_pow2("3/8", "3/2") == 1 and cmp_pow2(3, F(-3, 2)) == 1
    # zero is below every threshold, also on the interval path
    assert cmp_pow2(0, F(1, 1000)) == -1 and cmp_pow2(F(0), F(-7, 3)) == -1
    with pytest.raises(ValueError):
        cmp_pow2(-1, 2)


def test_cmp_pow2_interval_path_agrees_with_cleared():
    rng = random.Random(7)
    for _ in range(500):
        p = F(rng.randrange(1, 3000), rng.randrange(1, 3000))
        q = F(rng.randrange(-30, 30), 2 ** rng.randrange(7, 14))
        assert cmp_pow2(p, q) == _cmp_pow2_cleared(p.numerator, p.denominator, q)


def test_exact_log2():
    assert exact_log2(F(8)) == 3
    assert exact_log2(F(1, 4)) == -2
    assert exact_log2(F(3)) is None
    with pytest.raises(ValueError):
        exact_log2(F(0))


def test_log2_bounds_certified():
    rng = random.Random(13)
    for _ in range(300):
        x = F(rng.randrange(1, 10 ** 5), rng.randrange(1, 10 ** 5))
        lo, hi = log2_bounds(x, 25)
        t = math.log2(x)
        assert float(lo) - 1e-6 <= t <= float(hi) + 1e-6
        assert hi - lo <= F(1, 2 ** 22)
    for e in range(-12, 13):
        lo, hi = log2_bounds(F(2) ** e, 8)
        assert lo == hi == e


def _floor_log2_brute(x):
    """floor(log2 x) on integer quotients: floor(x) has bit length floor + 1
    when x >= 1; below 1 it is minus the least k with 2^k * x >= 1, that is
    minus the bit length of ceil(1/x) - 1."""
    a, b = x.numerator, x.denominator
    if a >= b:
        return (a // b).bit_length() - 1
    return -(-(-b // a) - 1).bit_length()


def test_floor_log2_matches_brute_force():
    # one comparison against 2^e, e the bit-length difference, decides the floor
    rng = random.Random(25)

    def draw():
        return rng.randrange(1, 1 << rng.randrange(1, 80))
    xs = [F(draw(), draw()) for _ in range(200_000)]
    tiny = F(1, 1 << 90)
    xs += [F(2) ** e + d for e in range(-69, 70) for d in (-tiny, 0, tiny)]
    assert [_floor_log2(x) for x in xs] == [_floor_log2_brute(x) for x in xs]


def test_cmp_products_mixed_bases():
    # n^2 * Pr >= 4 with n=3, Pr=1/2: 9/2 >= 4
    assert cmp_products(F(1, 2), [(3, F(2))], F(4), []) == 1
    assert cmp_products(F(1, 2), [(3, F(1))], F(4), []) == -1
    assert cmp_products(F(1), [(2, F(3, 2))], F(1), [(2, F(3, 2))]) == 0
    assert cmp_products(F(0), [], F(1), [(2, F(5))]) == -1
    assert cmp_products(F(1), [], F(0), []) == 1
    # fractional exponents on distinct bases
    lhs = math.log2(3) * 0.5
    rhs = math.log2(5) * 0.25
    want = 1 if lhs > rhs else -1
    assert cmp_products(F(1), [(3, F(1, 2))], F(1), [(5, F(1, 4))]) == want


def _cmp_products_old_formula(a, a_pows, b, b_pows=()):
    """cmp_products before it ran on integers: every argument wrapped in
    Fraction, the cleared form raised as Fractions."""
    a, b = F(a), F(b)
    a_pows = [(int(base), F(exp)) for base, exp in a_pows]
    b_pows = [(int(base), F(exp)) for base, exp in b_pows]
    if a == 0 and b == 0:
        return 0
    if a == 0:
        return -1
    if b == 0:
        return 1
    terms = [(base, exp) for base, exp in a_pows if base != 1 and exp != 0]
    terms += [(base, -exp) for base, exp in b_pows if base != 1 and exp != 0]
    ratio = a / b
    denoms = [exp.denominator for _, exp in terms]
    d = math.lcm(*denoms) if denoms else 1
    lhs, rhs = ratio ** d, F(1)
    for base, exp in terms:
        k = int(exp * d)
        if k >= 0:
            lhs *= F(base) ** k
        else:
            rhs *= F(base) ** (-k)
    return (lhs > rhs) - (lhs < rhs)


def test_cmp_products_matches_old_formula_seeded():
    rng = random.Random(2025)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(3000):
        def coef():
            if rng.random() < 0.1:
                return 0
            return F(rng.randrange(1, 500), rng.randrange(1, 500))

        def pows():
            return [(rng.choice((1, 2, 2, 3, 5, 6)),
                     F(rng.randrange(-12, 13), rng.choice((1, 1, 2, 3, 4, 12, 100))))
                    for _ in range(rng.randrange(3))]

        a, a_pows, b, b_pows = coef(), pows(), coef(), pows()
        if rng.random() < 0.3:
            b, b_pows = a, list(a_pows)  # equal sides
            if rng.random() < 0.5:
                b += F(1, 1 << 40)  # and just above
        want = _cmp_products_old_formula(a, a_pows, b, b_pows)
        signs[want] += 1
        # int and str forms of the same values give the same sign
        forms = [(a, a_pows, b, b_pows),
                 (str(a), [(base, str(e)) for base, e in a_pows], str(b), b_pows)]
        if F(a).denominator == 1 == F(b).denominator:
            forms.append((int(a), [(base, e.numerator) if e.denominator == 1 else (base, e)
                                   for base, e in a_pows], int(b), b_pows))
        for args in forms:
            assert cmp_products(*args) == want, args
    assert min(signs.values()) >= 300, signs
    with pytest.raises(ValueError):
        cmp_products(-1, (), 1)
    with pytest.raises(ValueError):
        cmp_products(1, [(0, 1)], 1)


def test_frac_rendering():
    assert frac_str(F(3, 4)) == "3/4"
    assert frac_str(F(5)) == "5"
    assert frac_decimal(F(1, 2)) == "0.5"
    assert frac_decimal(F(0)) == "0"
    assert frac_decimal(F(1, 3)) == "0.333333333333"
    assert frac_decimal(F(1, 10 ** 9)) == "1e-9"
    assert parse_frac("3/8") == F(3, 8)
    assert parse_frac("0.25") == F(1, 4)
