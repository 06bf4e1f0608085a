"""Fraction references for the integer verdict paths.

Each oracle is the Fraction-valued body that an integer path replaced: the
extractor and sampling checks, both Vazirani checks, Fourier inversion, the
Kraft pick and the corpus's per-instance Kraft sweep, the seeded weight draw
and the truncation threshold.  They build every probability, bias and bound
as a Fraction and compare those, so a test that compares an integer path with
its oracle checks the cleared arithmetic against the definition it clears.
"""

import random
from fractions import Fraction as F

from liftsim.dist import DistributionTable, subsets_by_size, xor_bias
from liftsim.errors import DomainError, InvariantError
from liftsim.exact import cmp_pow2, cmp_products
from liftsim.gadgets import CorollaryReport, discrepancy, xor_power
from liftsim.protocols import assert_prefix_free
from liftsim.verify import LemmaInstance, SectionReport, all_prefix_free_codes


def _zero_weight(g, a, y):
    row = a * g.side
    return sum(w for c, w in y.weights.items() if w and g.table[row + c] == 0)


def _entropy_sum_at_least(x, y, bits):
    return cmp_pow2(x.maxprob() * y.maxprob(), bits) <= 0


def oracle_extractor_check(g, x, y, eta, lam, m=1, disc_value=None):
    eta, lam = F(eta), F(lam)
    b = g.b
    disc = discrepancy(g).value if disc_value is None else disc_value
    disc_ok = cmp_pow2(disc, eta * b) <= 0
    entropy_ok = _entropy_sum_at_least(
        x, y, (2 - eta + lam) * m * b + (6 * m if m > 1 else 0))
    gx = xor_power(g, m)
    w0 = sum(w * _zero_weight(gx, a, y) for a, w in x.weights.items() if w)
    total = x.total * y.total
    bv = F(abs(2 * w0 - total), total)
    bound_bits = lam * b * m
    return CorollaryReport(disc_ok, entropy_ok, bv, bound_bits, cmp_pow2(bv, bound_bits) <= 0)


def oracle_sampling_check(g, x, y, gamma, lam, eta, m=1, disc_value=None):
    gamma, lam, eta = F(gamma), F(lam), F(eta)
    b = g.b
    disc = discrepancy(g).value if disc_value is None else disc_value
    disc_ok = cmp_pow2(disc, eta * b) <= 0
    entropy_ok = _entropy_sum_at_least(
        x, y, (2 - eta + gamma + lam) * m * b + (7 * m if m > 1 else 1))
    gx = xor_power(g, m)
    bias_bits = lam * b * m

    def conditional_bias(a):
        return F(abs(2 * _zero_weight(gx, a, y) - y.total), y.total)

    bad = F(sum(w for a, w in x.weights.items()
                if w and cmp_pow2(conditional_bias(a), bias_bits) > 0), x.total)
    bound_bits = gamma * b * m
    return CorollaryReport(disc_ok, entropy_ok, bad, bound_bits, cmp_pow2(bad, bound_bits) < 0)


def oracle_vazirani_uniformity_check(d, m, eps):
    """(hypothesis, conclusion, worst witness) from xor_bias and d.prob."""
    eps = F(eps)
    hypothesis = True
    worst = None
    for coords in subsets_by_size(m, nonempty=True):
        bound = eps * F(1, (2 * m) ** len(coords))
        bv = xor_bias(d, m, coords)
        if bv > bound:
            hypothesis = False
            if worst is None:
                worst = ("bias", coords, bv, bound)
    base = F(1, 1 << m)
    lo, hi = (1 - eps) * base, (1 + eps) * base
    conclusion = True
    for z in range(1 << m):
        p = d.prob(z)
        if not lo <= p <= hi:
            conclusion = False
            if worst is None:
                worst = ("mass", z, p, (lo, hi))
            break
    return hypothesis, conclusion, worst


def oracle_vazirani_minentropy_check(d, m, t):
    hypothesis = True
    worst = None
    for coords in subsets_by_size(m, nonempty=True):
        if len(coords) < t:
            continue
        bound = F(1, (2 * m) ** len(coords))
        bv = xor_bias(d, m, coords)
        if bv > bound:
            hypothesis = False
            worst = ("bias", coords, bv, bound)
            break
    conclusion = d.maxprob() * (1 << (m - 1)) <= m ** t
    return hypothesis, conclusion, worst


def oracle_fourier_inversion(coeffs, m):
    """Sums the Fraction coefficients per z with the character's sign."""
    masses = {}
    for z in range(1 << m):
        v = F(0)
        for coords, c in coeffs.items():
            mask = sum(1 << (m - 1 - i) for i in coords)
            v += -c if (z & mask).bit_count() & 1 else c
        masses[z] = v
    return DistributionTable(masses)


def oracle_kraft_heavy_message(d):
    support = d.support()
    assert_prefix_free(support)
    qualifiers = [w for w in support if d.prob(w) >= F(1, 1 << len(w))]
    if not qualifiers:
        raise InvariantError("no Kraft-heavy message; support cannot be prefix-free")
    return min(qualifiers, key=lambda w: (len(w), w))


def oracle_seeded_distribution(rng, domain, max_weight=16):
    """One rng.randrange(max_weight + 1) per element, redrawn while all are zero."""
    if max_weight < 1:
        raise DomainError("max_weight must be at least 1")
    while True:
        weights = [rng.randrange(max_weight + 1) for _ in domain]
        if any(weights):
            return DistributionTable.from_weights(dict(zip(domain, weights)))


def oracle_section_kraft(seed, max_len, assignments):
    """The corpus's Kraft section, one table and one kraft_heavy_message call
    (with its own prefix-free check) per instance."""
    rep = SectionReport("kraft_heavy_message")
    rng = random.Random(f"{seed}/kraft")
    codes = list(all_prefix_free_codes(max_len))
    rep.info["codes"] = len(codes)
    small = [c for c in codes if max(len(w) for w in c) <= 3]

    def ok(d):
        try:
            w = oracle_kraft_heavy_message(d)
        except Exception:
            return False
        return d.prob(w) >= F(1, 1 << len(w))

    for code in codes:
        d = oracle_seeded_distribution(rng, sorted(code))
        rep.record(LemmaInstance(f"kraft/{'|'.join(code)}", "pass" if ok(d) else "FAIL"))
    for code in small:
        for _ in range(assignments - 1):
            d = oracle_seeded_distribution(rng, sorted(code))
            rep.record(LemmaInstance(f"kraft-small/{'|'.join(code)}",
                                     "pass" if ok(d) else "FAIL"))
    return rep


def oracle_trunc_cmp(params, p_geq):
    exponent = params.eta * params.b / 8
    return cmp_products(p_geq, (), F(1, 16 * params.n * params.b), [(2, -exponent)])
