"""The integer verdict paths against the Fraction bodies they replaced.

The oracles live in fraction_oracles.py.  Grids include unreduced ratios,
zero weights, eps > 1 and exponents whose denominator is above 64 (the
interval path of the ratio kernel).
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import liftsim.dist as dist
import liftsim.structure as structure
import liftsim.verify as verify
from fraction_oracles import (
    oracle_extractor_check,
    oracle_fourier_inversion,
    oracle_kraft_heavy_message,
    oracle_kraft_sweep,
    oracle_sampling_check,
    oracle_section_extractor_sampling,
    oracle_section_fourier,
    oracle_section_kraft,
    oracle_section_vazirani,
    oracle_seeded_distribution,
    oracle_trunc_cmp,
    oracle_vazirani_minentropy_check,
    oracle_vazirani_uniformity_check,
)
from liftsim.dist import (
    DistributionTable,
    fourier_coefficient,
    fourier_inversion,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
)
from liftsim.errors import DomainError, InvariantError
from liftsim.exact import cmp_pow2, cmp_pow2_ratio
from liftsim.gadgets import DiscrepancyResult, builtin_gadget, extractor_check, sampling_check
from liftsim.protocols import kraft_heavy_message, kraft_heavy_pick
from liftsim.records import dump_json
from liftsim.dtrees import brute_force_Ddt, parity_problem
from liftsim.gadgets import Gadget
from liftsim.protocols import PLeaf, PNode, ProtocolTree, canonical_protocol
from liftsim.simulate import (
    LiftingParams,
    enumerate_output_distribution,
    ledger_assertions,
    lift_randomized,
)
from liftsim.structure import (
    density_restoring_fix,
    density_restoring_partition,
)
from liftsim.verify import (
    SectionReport,
    _VAZIRANI_EPS,
    _VAZIRANI_T,
    _kraft_sweep,
    _section_extractor_sampling,
    _section_fourier,
    _section_kraft,
    _section_vazirani,
    _weight_stream,
    all_prefix_free_codes,
    seeded_distribution,
    seeded_weights,
)

# exponents on the cleared path and on the interval path (denominator > 64)
Q_GRID = (0, 1, 3, -2, F(1, 2), F(3, 2), F(-7, 3), F(5, 64), F(1, 65), F(-3, 67),
          F(7, 128), F(11, 1000))


def _pow2_reference(p, q):
    """Sign of p - 2**(-q) from Fractions: p**d against 2**(-a) for q = a/d."""
    if p == 0:
        return -1
    a, d = q.numerator, q.denominator
    lhs, rhs = p ** d, F(2) ** -a
    return (lhs > rhs) - (lhs < rhs)


def test_cmp_pow2_ratio_matches_fraction_reference():
    rng = random.Random(11)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(1500):
        q = F(rng.choice(Q_GRID))
        if rng.random() < 0.3 and q.denominator == 1:
            p = F(2) ** -q  # on the threshold
        else:
            p = F(rng.randrange(0, 300), rng.randrange(1, 300))
        c = rng.choice((1, 1, 2, 6, 1 << 20, 10 ** 9 + 7))  # unreduced num/den
        want = _pow2_reference(p, q)
        assert cmp_pow2_ratio(p.numerator * c, p.denominator * c, q) == want, (p, c, q)
        assert cmp_pow2(p, q) == want
        signs[want] += 1
    assert min(signs.values()) >= 30, signs
    assert cmp_pow2_ratio(0, 5, F(1, 65)) == -1 and cmp_pow2_ratio(6, 12, 1) == 0
    for num, den in ((-1, 2), (1, 0), (1, -3)):
        with pytest.raises(ValueError):
            cmp_pow2_ratio(num, den, 1)


def test_cmp_pow2_ratio_builds_a_fraction_only_on_the_interval_path(monkeypatch):
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    qs = (0, 3, -2, F(1, 2), F(5, 64))
    monkeypatch.setattr(F, "__new__", counted)
    for q in qs:
        cmp_pow2_ratio(6, 14, q)
    assert made == []
    interval_q = F(1, 65)
    got = cmp_pow2_ratio(6, 14, interval_q)
    assert made
    monkeypatch.undo()
    assert got == _pow2_reference(F(3, 7), interval_q) == -1


def _weighted(rng, domain, zeros=True):
    """Int weights over the domain, some zero, scaled so they are not reduced."""
    while True:
        weights = [rng.randrange(0 if zeros else 1, 9) for _ in domain]
        if any(weights):
            break
    scale = rng.choice((1, 2, 3))
    return DistributionTable.from_weights({v: w * scale for v, w in zip(domain, weights)})


def test_extractor_and_sampling_match_fraction_oracles():
    rng = random.Random(5)
    params = (F(1, 4), F(1, 2), F(1), F(3, 2), F(1, 67), "1/3")
    cases = [(builtin_gadget(name), m) for name in ("xor1", "and1", "or1", "ip1") for m in (1, 2)]
    cases += [(builtin_gadget(name), 1) for name in ("ip2", "rand:2:3")]
    seen = set()
    for g, m in cases:
        domain = range(1 << (g.b * m))
        for _ in range(60):
            x, y = _weighted(rng, domain), _weighted(rng, domain, zeros=rng.random() < 0.5)
            if rng.random() < 0.3:
                x = DistributionTable.uniform(rng.sample(list(domain), rng.randrange(1, len(domain) + 1)))
            eta, lam, gam = (rng.choice(params) for _ in range(3))
            disc = rng.choice((None, F(1, 3), F(1, 64), 0))
            r = extractor_check(g, x, y, eta, lam, m=m, disc_value=disc)
            assert r == oracle_extractor_check(g, x, y, eta, lam, m=m, disc_value=disc)
            s = sampling_check(g, x, y, gam, lam, eta, m=m, disc_value=disc)
            assert s == oracle_sampling_check(g, x, y, gam, lam, eta, m=m, disc_value=disc)
            seen.add(("e", r.disc_ok, r.entropy_ok, r.conclusion))
            seen.add(("s", s.disc_ok, s.entropy_ok, s.conclusion))
    # every verdict bit of both checks takes both values
    for check, bit in product("es", (1, 2, 3)):
        assert {v[bit] for v in seen if v[0] == check} == {False, True}, (check, bit)
    assert len(seen) >= 12, sorted(seen)


def _vazirani_tables(rng, m):
    cube = list(range(1 << m))
    yield DistributionTable.uniform(cube)
    yield DistributionTable.point(rng.choice(cube), cube)
    yield DistributionTable.from_weights({z: (1 << 24) + rng.randrange(4) for z in cube})
    for _ in range(6):
        yield _weighted(rng, cube)
    # values outside the m-cube fold onto it; missing values have mass 0
    yield _weighted(rng, range(1 << (m + 1)))
    yield _weighted(rng, rng.sample(cube, max(1, len(cube) // 2)))


def test_vazirani_checks_match_fraction_oracles():
    rng = random.Random(9)
    eps_grid = (F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(5), F(1, 3), "3/4")
    seen = set()
    for m in range(1, 5):
        for d in _vazirani_tables(rng, m):
            for eps in eps_grid:
                r = vazirani_uniformity_check(d, m, eps)
                assert (r.hypothesis, r.conclusion, r.worst_witness) == \
                    oracle_vazirani_uniformity_check(d, m, eps), (m, d, eps)
                seen.add(("u", r.hypothesis, r.conclusion, (r.worst_witness or ("",))[0]))
            for t in range(1, m + 1):
                r = vazirani_minentropy_check(d, m, t)
                assert (r.hypothesis, r.conclusion, r.worst_witness) == \
                    oracle_vazirani_minentropy_check(d, m, t), (m, d, t)
                seen.add(("e", r.hypothesis, r.conclusion))
    # (a mass witness would be a counterexample to the lemma: none is reached)
    assert {("u", True, True, ""), ("u", False, False, "bias"), ("u", False, True, "bias")} <= seen
    assert {("e", True, True), ("e", False, True), ("e", False, False)} <= seen


def test_fourier_inversion_matches_fraction_oracle():
    rng = random.Random(3)
    for _ in range(120):
        m = rng.randrange(0, 5)
        d = _weighted(rng, range(1 << m))
        coeffs = {}
        for r in range(m + 1):
            for coords in product(range(m), repeat=r):
                if list(coords) == sorted(set(coords)):
                    coeffs[coords] = fourier_coefficient(d, m, coords)
        got, want = fourier_inversion(coeffs, m), oracle_fourier_inversion(coeffs, m)
        assert (got.domain, got.weights, got.total) == (want.domain, want.weights, want.total)
        assert got == d
        # a perturbed coefficient: a negative mass or a total other than 1
        coords = rng.choice(sorted(coeffs))
        for delta in (F(1, 3), F(-1, 1 << m), F(1, 2)):
            bad = {**coeffs, coords: coeffs[coords] + delta}
            try:
                want = oracle_fourier_inversion(bad, m)
            except DomainError as e:
                with pytest.raises(DomainError) as got_err:
                    fourier_inversion(bad, m)
                assert str(got_err.value) == str(e)
            else:
                got = fourier_inversion(bad, m)
                assert (got.weights, got.total) == (want.weights, want.total)
    # int coefficients are exact inputs too
    assert fourier_inversion({(): 1}, 0).weights == {0: 1}


def test_kraft_section_matches_per_instance_oracle(monkeypatch):
    for seed in (2024, 7, "x", 0, 99):
        for max_len, assignments in ((1, 6), (2, 5), (3, 3), (1, 1), (2, 0), (3, 12), (2, 40)):
            [got] = _section_kraft(seed, max_len, assignments)
            want = oracle_section_kraft(seed, max_len, assignments)
            assert got.to_obj() == want.to_obj()
            assert got.total == want.total > 0
    [got] = _section_kraft(5, 0, 7)
    assert got.to_obj() == oracle_section_kraft(5, 0, 7).to_obj()
    assert (got.total, got.info) == (0, {"codes": 0})
    # at weights in [0, 1] a third of the two-word draws are redrawn
    monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", 1)
    for seed in (2024, 3):
        [got] = _section_kraft(seed, 3, 4)
        assert got.to_obj() == oracle_section_kraft(seed, 3, 4, max_weight=1).to_obj()


@pytest.mark.parametrize("max_weight", [1, 3, 16, 254])
@pytest.mark.parametrize("block_words", [1, 3, verify._KRAFT_BLOCK_WORDS])
def test_weight_stream_draws_what_seeded_weights_draws(max_weight, block_words, monkeypatch):
    # one draw per size, in order, with all-zero redraws, across block refills
    # (one word gives at most one weight, so at one word a block holds less
    # than a draw), at acceptance rates from 1/2 to 255/256 and up to the
    # largest weight a byte table holds
    monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", max_weight)
    monkeypatch.setattr(verify, "_KRAFT_BLOCK_WORDS", block_words)
    sizes = [1 + (k * 7) % 9 for k in range(400)] + [1] * 200 + [16, 2, 40, 1] + [40] * 60
    for seed in (0, 2024, "x/kraft"):
        blocks, ref, raw = _CountingRandom(seed), random.Random(seed), random.Random(seed)
        draw, redraws = _weight_stream(blocks), 0
        for size in sizes:
            want = seeded_weights(ref, size)
            while not any(got := [raw.randrange(max_weight + 1) for _ in range(size)]):
                redraws += 1
            assert got == want
            assert list(draw(size)) == want, (seed, size)
        assert redraws > 0 or max_weight == 254  # there one size-1 draw in 255 is zero
        assert blocks.calls >= 2  # at least one refill, also at the shipped block size


class _CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_kraft_pick_matches_fraction_oracle():
    rng = random.Random(21)
    codes = list(all_prefix_free_codes(3))
    for _ in range(800):
        code = rng.choice(codes)
        scale = rng.choice((1, 2, 5))
        weights = [rng.randrange(0, 6) * scale for _ in code]
        if not any(weights):
            weights[0] = scale
        d = DistributionTable.from_weights(dict(zip(code, weights)))
        want = oracle_kraft_heavy_message(d)
        assert kraft_heavy_message(d) == want
        assert kraft_heavy_pick(d.weights.items(), d.total) == want
    # kraft_heavy_message keeps its per-call prefix-free check
    with pytest.raises(InvariantError):
        kraft_heavy_message(DistributionTable.uniform(["0", "01"]))
    assert kraft_heavy_pick([("0", 1), ("01", 3)], 4) == "01"  # the caller checks prefixes


def test_kraft_sweep_fails_every_draw_of_a_code_that_is_not_prefix_free():
    rep = SectionReport("kraft_heavy_message")
    _kraft_sweep(rep, _weight_stream(random.Random(0)), [("0", "01")], 3, "kraft")
    assert (rep.total, rep.fails) == (3, 3)
    assert rep.counterexamples[0]["instance"] == "kraft/0|01"
    rep = SectionReport("kraft_heavy_message")
    _kraft_sweep(rep, _weight_stream(random.Random(0)), [("0", "10", "11")], 3, "kraft")
    assert (rep.total, rep.passes, rep.counterexamples) == (3, 3, [])
    # a code that is not prefix-free fails every draw with its own name, and
    # its draws are still made: the stream stays in step with seeded_weights
    codes = [("0", "01"), ("0", "10", "11"), ("00", "001", "1"), ("0", "0"),
             ("01", "010", "0101", "1"), ("1",)]
    bad = [code for code in codes if code not in (("0", "10", "11"), ("1",))]
    for draws in (1, 4):
        rep, draw, ref = SectionReport("x"), _weight_stream(random.Random(7)), random.Random(7)
        _kraft_sweep(rep, draw, codes, draws, "kraft-small")
        assert (rep.total, rep.passes, rep.fails) == (6 * draws, 2 * draws, 4 * draws)
        assert rep.counterexamples == [
            {"instance": f"kraft-small/{'|'.join(code)}", "measured": None, "bound": None,
             "detail": ""} for code in bad for _ in range(draws)]
        for code in codes:
            for _ in range(draws):
                seeded_weights(ref, len(code))
        assert list(draw(5)) == seeded_weights(ref, 5)
    # on prefix-free codes the verdicts are the per-instance path's
    codes = list(all_prefix_free_codes(2))
    got, want, rng = SectionReport("x"), SectionReport("x"), random.Random(3)
    _kraft_sweep(got, _weight_stream(random.Random(3)), codes, 3, "kraft")
    for code in codes:
        oracle_kraft_sweep(want, rng, code, 3, "kraft")
    assert got.to_obj() == want.to_obj()


def test_extractor_sampling_section_matches_per_instance_oracle():
    for seed in (2024, 7, "x"):
        for samples_b2 in (0, 20, 200):
            got = _section_extractor_sampling(seed, samples_b2)
            want = oracle_section_extractor_sampling(seed, samples_b2)
            assert [r.to_obj() for r in got] == [r.to_obj() for r in want]
            assert [r.total for r in got] == [1044 + samples_b2, 1188 + samples_b2]


def test_extractor_sampling_section_fails_as_the_oracle_does(monkeypatch):
    # plant FAILs: every gadget claims discrepancy 0, so disc_ok holds at
    # eta = 2, where (eta, lam) = (2, 2) makes and1 and or1 fail the
    # extractor bound and (eta, lam, gamma) = (2, 1/2, 1/2) makes ip2 fail
    # the sampling bound; the counterexamples agree byte for byte
    import fraction_oracles

    zero = DiscrepancyResult(F(0), None)
    for module in (verify, fraction_oracles):
        monkeypatch.setattr(module, "discrepancy", lambda g: zero)
    monkeypatch.setattr(verify, "_COROLLARY_GRID", (F(1, 2), F(2)))
    got = _section_extractor_sampling(2024, 200)
    want = oracle_section_extractor_sampling(2024, 200)
    assert dump_json([r.to_obj() for r in got]) == dump_json([r.to_obj() for r in want])
    assert [r.fails for r in got] == [19, 1]
    assert {c["instance"] for c in got[0].counterexamples} >= {"b1/and1", "b1/or1"}
    assert got[1].counterexamples == [
        {"instance": "b2/33", "measured": "1/2", "bound": "2^-(1)", "detail": ""}]


@pytest.mark.parametrize("seed", [2024, 7, "x", 0])
def test_fourier_and_vazirani_sections_match_per_instance_oracles(seed):
    for count in (0, 1, 7, 50):
        [got] = _section_fourier(seed, count)
        want = oracle_section_fourier(seed, count)
        assert dump_json(got.to_obj()) == dump_json(want.to_obj())
        assert (got.total, got.passes) == (count, count)
        [got] = _section_vazirani(seed, count)
        want = oracle_section_vazirani(seed, count)
        assert dump_json(got.to_obj()) == dump_json(want.to_obj())
        assert got.total == 5 * count and got.fails == 0


def _patched_calls(monkeypatch, name, changes):
    """Patch verify.<name> so that its i-th call (from 0, counted since the
    last reset) returns changes[i](result) for each i in `changes`;
    returns reset."""
    real, calls = getattr(verify, name), []

    def patched(*args):
        result = real(*args)
        calls.append(None)
        change = changes.get(len(calls) - 1)
        return change(result) if change else result

    monkeypatch.setattr(verify, name, patched)
    return calls.clear


@pytest.mark.parametrize("mask", range(4))
def test_fourier_section_fails_a_corrupted_signed_weight(mask, monkeypatch):
    # table 5 is at m=2: one more at any of its four signed weights breaks
    # the identity at that mask (the empty mask's against the total), and
    # one negated nonzero weight keeps every size and breaks the round trip
    def plus_one(signed):
        signed[mask] += 1
        return signed

    def negated(signed):
        nonzero = [s for s, v in enumerate(signed) if v]
        signed[nonzero[mask % len(nonzero)]] *= -1
        return signed

    for change in (plus_one, negated):
        with monkeypatch.context() as patch:
            _patched_calls(patch, "_signed_weights", {5: change})
            [rep] = _section_fourier(2024, 12)
        assert (rep.total, rep.passes, rep.fails) == (12, 11, 1)
        assert [c["instance"] for c in rep.counterexamples] == ["fourier/5/m=2"]


def _swapped(values):
    if len(values) > 2:
        values[1], values[3] = values[3], values[1]
    return values


# Transforms that, applied twice, give 2^m times the input, as Walsh's does,
# and the tables whose section instances they FAIL, as k % 4 (m - 1):
# conjugated by swapping entries 1 and 3 it still maps the empty mask to the
# total, so only the direct parity sums tell it from Walsh's, at m >= 2 (at
# m=1 it swaps nothing); negated it keeps every size, so only the empty
# mask's check against the total tells it, at every m.
SELF_INVERSE = {
    "swapped": (lambda values: _swapped(dist._walsh(_swapped(values))), {1, 2, 3}),
    "negated": (lambda values: [-v for v in dist._walsh(values)], {0, 1, 2, 3}),
}


@pytest.mark.parametrize("transform", sorted(SELF_INVERSE))
def test_fourier_section_fails_a_transform_that_inverts_itself(transform, monkeypatch):
    walsh, failing = SELF_INVERSE[transform]
    monkeypatch.setattr(verify, "_walsh", walsh)
    monkeypatch.setattr(verify, "_signed_weights", lambda d, m: walsh(
        [d.weights.get(z, 0) for z in range(1 << m)]))
    [rep] = _section_fourier(2024, 12)
    assert [c["instance"] for c in rep.counterexamples] == [
        f"fourier/{k}/m={1 + k % 4}" for k in range(12) if k % 4 in failing]


@pytest.mark.parametrize("domain", [(0, 1, 3), (0, 1, 2, 3, 4), (0, 1, 2, 7)])
def test_fourier_section_fails_a_table_off_the_cube(domain, monkeypatch):
    # table 5 (m=2) drawn as it is, then moved onto a domain other than
    # range(4): the kernel and the oracle FAIL it alike, and only it
    def moved(d):
        weights = dict(zip(domain, d.weights.values()))
        return DistributionTable.from_weights({z: weights.get(z, 0) for z in domain})

    reset = _patched_calls(monkeypatch, "seeded_distribution", {5: moved})
    [got] = _section_fourier(2024, 12)
    reset()
    want = oracle_section_fourier(2024, 12)
    assert dump_json(got.to_obj()) == dump_json(want.to_obj())
    assert [c["instance"] for c in got.counterexamples] == ["fourier/5/m=2"]


def test_vazirani_section_fails_as_the_oracle_does(monkeypatch):
    # weights past 2^m fold onto the cube, so a table whose fold is uniform
    # meets every hypothesis while its own masses on range(2^m) are not all
    # near 2^-m: plant one at table 4 (m=1) and one at table 5 (m=2), the
    # third and fourth seeded draws; both sections name the same FAILs
    plants = {2: {0: 1, 1: 1, 2: 1, 3: 1}, 3: {1: 1, 2: 1, 3: 1, 4: 1}}
    reset = _patched_calls(monkeypatch, "seeded_distribution", {
        index: lambda d, w=weights: DistributionTable.from_weights(w)
        for index, weights in plants.items()})
    [got] = _section_vazirani(2024, 12)
    reset()
    want = oracle_section_vazirani(2024, 12)
    assert dump_json(got.to_obj()) == dump_json(want.to_obj())
    assert [c["instance"] for c in got.counterexamples] == [
        "vazirani-uniformity/4/m=1/eps=1/4",
        "vazirani-uniformity/5/m=2/eps=1/4", "vazirani-uniformity/5/m=2/eps=1/2"]
    assert (got.total, got.fails) == (60, 3)


def test_vazirani_section_decides_each_conclusion_on_its_own_weights(monkeypatch):
    # signed weights of a uniform fold make every hypothesis hold, so each
    # verdict is the conclusion's, and the FAILs are those the masses give
    # as Fractions: a mass outside [1 - eps, 1 + eps] * 2^-m, or a largest
    # mass above m^t * 2^-(m-1); table 7 (m=4, the fifth seeded draw) is
    # planted as a point mass, the one table whose t=1 conclusion fails
    monkeypatch.setattr(verify, "_signed_weights",
                        lambda d, m: [d.total] + [0] * ((1 << m) - 1))
    _patched_calls(monkeypatch, "seeded_distribution", {
        4: lambda d: DistributionTable.point(0, range(16))})
    tables = []
    for name in ("seeded_distribution", "near_uniform_distribution"):
        draw = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, draw=draw: tables.append(
            draw(*args)) or tables[-1])
    [rep] = _section_vazirani(2024, 60)
    want = []
    for k, d in enumerate(tables):
        m, base = 1 + (k % 4), F(1, 1 << (1 + (k % 4)))
        for eps in _VAZIRANI_EPS:
            if not all((1 - eps) * base <= d.prob(z) <= (1 + eps) * base for z in range(1 << m)):
                want.append(f"vazirani-uniformity/{k}/m={m}/eps={eps}")
        for t in _VAZIRANI_T:
            if d.maxprob() * (1 << (m - 1)) > m ** t:
                want.append(f"vazirani-minentropy/{k}/m={m}/t={t}")
    assert [c["instance"] for c in rep.counterexamples] == want
    assert (len(tables), rep.total, rep.vacuous, rep.fails) == (60, 300, 0, len(want))
    # FAILs above the upper bound alone (eps = 1 has no lower one), and at t=1
    assert {name.split("/", 3)[3] for name in want} == {"eps=1/4", "eps=1/2", "eps=1", "t=1"}
    assert "vazirani-minentropy/7/m=4/t=1" in want


def test_near_uniform_draws_meet_every_vazirani_hypothesis():
    # the section's every third table is near_uniform_distribution's, so its
    # verdicts are never all vacuous: each such draw meets both hypotheses
    # at every eps and t, and the section passes all five of its instances
    rng = random.Random("near-uniform")
    for k in range(4000):
        m = 1 + k % 4
        d = verify.near_uniform_distribution(rng, m)
        for eps in _VAZIRANI_EPS:
            assert vazirani_uniformity_check(d, m, eps).hypothesis, (k, eps)
        for t in _VAZIRANI_T:
            assert vazirani_minentropy_check(d, m, t).hypothesis, (k, t)
    for seed in (2024, 7):
        for count in (1, 2, 3, 4, 7, 50, 300):
            [rep] = _section_vazirani(seed, count)
            assert rep.passes >= 5 * -(-count // 3), (seed, count)


def test_seeded_distribution_wraps_the_int_draw(monkeypatch):
    for seed in (0, 2024, "x/kraft"):
        for max_weight in (1, 3, 16):
            monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", max_weight)
            for domain in (["0"], ["0", "10", "11"], list(range(7))):
                a, b, c = (random.Random(seed) for _ in range(3))
                weights = seeded_weights(a, len(domain))
                d = seeded_distribution(b, domain)
                assert [d.weights[v] for v in domain] == weights
                assert d == oracle_seeded_distribution(c, domain, max_weight)
                assert a.getstate() == b.getstate() == c.getstate()


def test_trunc_cmp_matches_fraction_oracle():
    rng = random.Random(4)
    signs = set()
    for eta, b, n in product((F(1), F(1, 2), F(3), F(8), F(1, 3)), (1, 2, 4), (2, 3)):
        params = LiftingParams.standard(b=b, n=n, eta=eta)
        threshold = F(2) ** -(eta * b / 8) / (16 * n * b) if (eta * b / 8).denominator == 1 else None
        grid = [F(0), F(1), F(1, 2), threshold] + [
            F(rng.randrange(1, 2000), rng.randrange(1, 200000)) for _ in range(25)]
        for p in grid:
            if p is not None:
                got = params.trunc_cmp(p)
                assert got == oracle_trunc_cmp(params, p), (eta, b, n, p)
                signs.add(got)
    assert signs == {-1, 0, 1}
    # a changed params object reads its new values, not a stale entry
    params = LiftingParams.standard(b=2, n=2)
    p = F(1, 70)
    before = params.trunc_cmp(p)
    params.eta, params.b, params.n = F(8), 1, 2
    assert params.trunc_cmp(p) == oracle_trunc_cmp(params, p) != before


def test_randomized_lifts_unchanged_under_the_fraction_trunc_cmp(monkeypatch):
    ip2 = builtin_gadget("ip2")
    parity2 = canonical_protocol(brute_force_Ddt(parity_problem(2))[1], ip2)
    # the 241-vs-15 split of test_truncation_halt_positive_mass truncates
    parity4 = Gadget(4, [(x ^ y).bit_count() & 1 for x in range(16) for y in range(16)])
    bits = tuple(0 if v < 241 else 1 for v in range(256))
    split = ProtocolTree(2, 4, PNode("A", bits, (PLeaf("big"), PLeaf("small"))))
    runs = [(parity2, ip2, LiftingParams.standard(b=2, n=2, mode="rand"), range(4)),
            (split, parity4, LiftingParams(eta=1, c=2, h=1, b=4, n=2, mode="rand",
                                           delta=F(2)), (0,))]
    signs = []

    def outputs():
        out = []
        for proto, g, params, zs in runs:
            for z in zs:
                out.append(enumerate_output_distribution(proto, g, z, params).weights)
                for seed in range(3):
                    res = lift_randomized(proto, g, z, params, seed=seed)
                    out.append((res.to_json(), ledger_assertions(res, params).ok))
        return out

    kernel = LiftingParams.trunc_cmp

    def traced(self, p_geq):
        signs.append(kernel(self, p_geq))
        return signs[-1]

    monkeypatch.setattr(LiftingParams, "trunc_cmp", traced)
    got = outputs()
    monkeypatch.setattr(LiftingParams, "trunc_cmp", oracle_trunc_cmp)
    assert outputs() == got
    assert {-1, 1} <= set(signs)


def test_density_partition_neither_conditions_nor_projects(monkeypatch):
    """The partition carves its parts out of one set of integer counts: no
    part costs a DistributionTable.condition or a dist.project."""
    rng = random.Random(8)
    tables = []
    for n, b in ((1, 1), (2, 1), (3, 1), (2, 2)):
        universe = list(product(range(1 << b), repeat=n))
        for _ in range(8):
            d = seeded_distribution(rng, universe)
            tables.append((d.condition(d.support()), b))
    calls = {"condition": 0, "project": 0}
    condition, project = DistributionTable.condition, structure.project

    def counted_condition(self, event):
        calls["condition"] += 1
        return condition(self, event)

    def counted_project(d, coords):
        calls["project"] += 1
        return project(d, coords)

    fixes = multi_part = 0
    for d, b in tables:
        for delta in (F(1, 2), F(3, 4), F(1)):
            coords, value, rest = density_restoring_fix(d, delta, b)
            fixes += bool(coords)
            with monkeypatch.context() as m:
                m.setattr(DistributionTable, "condition", counted_condition)
                m.setattr(structure, "project", counted_project)
                m.setattr(dist, "project", counted_project)
                parts = density_restoring_partition(d, delta, b)
            assert (parts[0].coords, parts[0].value) == (coords, value)
            multi_part += len(parts) > 1
    assert calls == {"condition": 0, "project": 0}
    assert fixes > 20 and multi_part > 20
