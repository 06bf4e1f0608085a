"""Fraction references for the integer verdict paths.

Each oracle is the Fraction-valued body that an integer path replaced: the
extractor and sampling checks, both Vazirani checks, Fourier inversion, the
Kraft pick and the corpus's per-instance Kraft sweep, the seeded weight draw
and the truncation threshold.  They build every probability, bias and bound
as a Fraction and compare those, so a test that compares an integer path with
its oracle checks the cleared arithmetic against the definition it clears.
The corpus's extractor/sampling, Fourier and Vazirani sections keep their
per-instance bodies here too, as the oracles of the sections' batch kernels:
one extractor_check and one sampling_check call per instance; one
fourier_coefficient and one xor_bias call per subset and one
fourier_inversion per table; one vazirani_uniformity_check per eps and one
vazirani_minentropy_check per t.  They draw their tables through the
``verify`` module at call time, so a test that patches a draw there patches
it for a section and its oracle alike.
"""

import random
from fractions import Fraction as F

from liftsim import verify
from liftsim.dist import (
    DistributionTable,
    fourier_coefficient,
    fourier_inversion,
    subsets_by_size,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
    xor_bias,
)
from liftsim.errors import DomainError, InvariantError
from liftsim.exact import cmp_pow2, cmp_products, frac_str
from liftsim.gadgets import (
    CorollaryReport,
    builtin_gadget,
    discrepancy,
    extractor_check,
    sampling_check,
    xor_power,
)
from liftsim.protocols import assert_prefix_free
from liftsim.verify import LemmaInstance, SectionReport, all_prefix_free_codes, seeded_support


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


def oracle_section_kraft(seed, max_len, assignments, max_weight=16):
    """The corpus's Kraft section, one table and one kraft_heavy_message call
    (with its own prefix-free check) per instance."""
    rep = SectionReport("kraft_heavy_message")
    rng = random.Random(f"{seed}/kraft")
    codes = list(all_prefix_free_codes(max_len))
    rep.info["codes"] = len(codes)
    small = [c for c in codes if max(len(w) for w in c) <= 3]
    for code in codes:
        oracle_kraft_sweep(rep, rng, code, 1, "kraft", max_weight)
    for code in small:
        oracle_kraft_sweep(rep, rng, code, assignments - 1, "kraft-small", max_weight)
    return rep


def oracle_kraft_sweep(rep, rng, code, draws, label, max_weight=16):
    """`draws` instances of one code: a seeded table on its sorted words, a
    pass iff kraft_heavy_message finds a message of mass at least 2^-len."""

    def ok(d):
        try:
            w = oracle_kraft_heavy_message(d)
        except Exception:
            return False
        return d.prob(w) >= F(1, 1 << len(w))

    for _ in range(draws):
        d = oracle_seeded_distribution(rng, sorted(code), max_weight)
        rep.record(LemmaInstance(f"{label}/{'|'.join(code)}", "pass" if ok(d) else "FAIL"))


def _flat_tables(universe_size):
    for supp in subsets_by_size(universe_size, nonempty=True):
        yield DistributionTable.uniform(supp)


def oracle_section_extractor_sampling(seed, samples_b2=200):
    """The corpus's extractor/sampling section, one extractor_check and one
    sampling_check call per instance, on the grid verify._COROLLARY_GRID."""
    rep_e = SectionReport("discrepancy_extractor")
    rep_s = SectionReport("discrepancy_sampling")
    quarter, half = grid = verify._COROLLARY_GRID
    b1_gadgets = [builtin_gadget(n) for n in ("and1", "or1", "xor1", "ip1")]
    flats1 = list(_flat_tables(2))
    for g in b1_gadgets:
        disc_v = discrepancy(g).value
        for x in flats1:
            for y in flats1:
                for eta in grid:
                    for lam in grid:
                        r = extractor_check(g, x, y, eta, lam, disc_value=disc_v)
                        _record_ext(rep_e, f"b1/{g.name}", r)
                        for gam in grid:
                            rs = sampling_check(g, x, y, gam, lam, eta, disc_value=disc_v)
                            _record_ext(rep_s, f"b1/{g.name}", rs)
    # xor-power corollaries at b=1, two copies, exhaustive flat pairs
    flats2 = list(_flat_tables(4))
    for g in b1_gadgets:
        disc_v = discrepancy(g).value
        for x in flats2:
            for y in flats2:
                r = extractor_check(g, x, y, half, quarter, m=2, disc_value=disc_v)
                _record_ext(rep_e, f"b1-xor2/{g.name}", r)
                rs = sampling_check(g, x, y, quarter, quarter, half, m=2, disc_value=disc_v)
                _record_ext(rep_s, f"b1-xor2/{g.name}", rs)
    # seeded flat pairs at b=2
    rng = random.Random(f"{seed}/extractor-b2")
    ip2 = builtin_gadget("ip2")
    disc_v = discrepancy(ip2).value
    universe = list(range(4))
    for k in range(samples_b2):
        xs = seeded_support(rng, universe)
        ys = seeded_support(rng, universe)
        x = DistributionTable.uniform(xs)
        y = DistributionTable.uniform(ys)
        eta, lam, gam = (rng.choice(grid) for _ in range(3))
        r = extractor_check(ip2, x, y, eta, lam, disc_value=disc_v)
        _record_ext(rep_e, f"b2/{k}", r)
        rs = sampling_check(ip2, x, y, gam, lam, eta, disc_value=disc_v)
        _record_ext(rep_s, f"b2/{k}", rs)
    return [rep_e, rep_s]


def _record_ext(rep, tag, r):
    rep.record(LemmaInstance(tag, _verdict(r.hypothesis, r.conclusion),
                             measured=frac_str(r.measured),
                             bound=f"2^-({frac_str(r.bound_bits)})"))


def oracle_section_fourier(seed, count=1000):
    """The corpus's Fourier section, per subset: the coefficient against
    2^-m times the XOR bias, the empty set's against 2^-m, and the
    inversion of all 2^m coefficients against the table."""
    rep = SectionReport("fourier_bias_identity")
    rng = random.Random(f"{seed}/fourier")
    for k in range(count):
        m = 1 + (k % 4)
        d = verify.seeded_distribution(rng, list(range(1 << m)))
        ok = True
        coeffs = {}
        for coords in subsets_by_size(m):
            coef = fourier_coefficient(d, m, coords)
            coeffs[coords] = coef
            if abs(coef) * (1 << m) != xor_bias(d, m, coords):
                ok = False
            if coords == () and coef != F(1, 1 << m):
                ok = False
        if fourier_inversion(coeffs, m) != d:
            ok = False
        rep.record(LemmaInstance(f"fourier/{k}/m={m}", "pass" if ok else "FAIL"))
    return rep


def oracle_section_vazirani(seed, count=1000):
    """The corpus's Vazirani section, one vazirani_uniformity_check per eps
    and one vazirani_minentropy_check per t on each table."""
    rep = SectionReport("vazirani_checkers")
    rng = random.Random(f"{seed}/vazirani")
    for k in range(count):
        m = 1 + (k % 4)
        if k % 3 == 0:
            d = verify.near_uniform_distribution(rng, m)
        else:
            d = verify.seeded_distribution(rng, list(range(1 << m)))
        for eps in (F(1, 4), F(1, 2), F(1)):
            r = vazirani_uniformity_check(d, m, eps)
            rep.record(LemmaInstance(f"vazirani-uniformity/{k}/m={m}/eps={eps}",
                                     _verdict(r.hypothesis, r.conclusion)))
        for t in (1, 2):
            r = vazirani_minentropy_check(d, m, t)
            rep.record(LemmaInstance(f"vazirani-minentropy/{k}/m={m}/t={t}",
                                     _verdict(r.hypothesis, r.conclusion)))
    return rep


def _verdict(hypothesis, conclusion):
    return "vacuous" if not hypothesis else "pass" if conclusion else "FAIL"


def oracle_trunc_cmp(params, p_geq):
    exponent = params.eta * params.b / 8
    return cmp_products(p_geq, (), F(1, 16 * params.n * params.b), [(2, -exponent)])
