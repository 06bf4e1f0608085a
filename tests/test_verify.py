import json
import os
import random
import signal
import threading
import time
from fractions import Fraction as F
from itertools import product

import pytest
from lifting_oracles import oracle_section_lifting

import liftsim.gadgets as gadgets
import liftsim.protocols as protocols
import liftsim.simulate as simulate
import liftsim.verify as verify
from liftsim.dist import DistributionTable
from liftsim.dtrees import brute_force_Ddt
from liftsim.errors import BudgetError, DomainError, FormatError, LiftsimError
from liftsim.gadgets import builtin_gadget, discrepancy
from liftsim.protocols import canonical_protocol
from liftsim.records import dump_json
from liftsim.simulate import LiftingParams, enumerate_output_distribution, lift_randomized
from liftsim.structure import DensityPart, Restriction
from liftsim.cli import main as cli_main
from liftsim.verify import (
    SPEC_BUDGETS,
    CorpusSpec,
    SectionReport,
    all_prefix_free_codes,
    check_main_lemma,
    check_multiplicative_uniformity,
    check_uniform_marginals,
    default_corpus_spec,
    run_corpus,
    seeded_distribution,
)

XOR = builtin_gadget("xor1")
AND = builtin_gadget("and1")

SMALL_SPEC = CorpusSpec(
    seed=77,
    fourier={"count": 12},
    vazirani={"count": 12},
    xor_lemma={"gadgets": ["and1", "xor1"], "powers": [1, 2]},
    extractor_sampling={"samples_b2": 6},
    kraft={"max_len": 2, "assignments": 3},
    density={"count": 6},
    claims={"supports": 2},
    structure_lemmas={"count": 3},
    lifting={"gadget": "ip2", "rand_seeds": 1},
)


def test_multiplicative_uniformity_xor_uniform():
    n = 2
    full = DistributionTable.uniform(list(product((0, 1), repeat=n)))
    rho = Restriction.all_free(n)
    inst = check_multiplicative_uniformity(full, full, rho, XOR, 0,
                                           gamma=F(1), eta=F(1, 2), c=F(1))
    # xor of uniforms hits every pattern with probability exactly 2^-|I|
    assert inst.measured == "0"
    assert inst.verdict in ("pass", "vacuous")


def test_multiplicative_uniformity_empty_free():
    n = 2
    full = DistributionTable.uniform(list(product((0, 1), repeat=n)))
    xs = DistributionTable.point((1, 1), domain=full.domain)
    rho = Restriction("11")
    inst = check_multiplicative_uniformity(xs, xs, rho, AND, 0b11,
                                           gamma=F(1), eta=F(1, 2), c=F(1))
    assert inst.measured == "0"  # probability 1 is within every interval


def test_uniform_marginals_checker():
    n = 2
    universe = list(product((0, 1), repeat=n))
    rho = Restriction.all_free(n)
    inst = check_uniform_marginals(universe, universe, rho, XOR, 0b00,
                                   gamma=F(1), eta=F(1, 2), c=F(1))
    # xor fibers are perfectly balanced: both marginals stay uniform
    assert inst.measured == "0"
    with pytest.raises(LiftsimError):
        check_uniform_marginals([(0, 0)], [(0, 0)], rho, AND, 0b11,
                                gamma=F(1), eta=F(1, 2), c=F(1))


def test_main_lemma_checker_xor():
    n = 2
    full = DistributionTable.uniform(list(product((0, 1), repeat=n)))
    rho = Restriction.all_free(n)
    inst = check_main_lemma(full, full, rho, XOR, gamma=F(1), eps=F(1, 2),
                            eta=F(1, 2), c=F(2))
    assert inst.measured == "0"  # nothing is dangerous for xor against uniform
    assert inst.verdict in ("pass", "vacuous")


def test_prefix_free_code_enumeration():
    codes2 = list(all_prefix_free_codes(2))
    # f(k) = f(k-1)^2 + 1 with f(0) = 2 counts antichains per subtree:
    # depth <= 2 gives 5^2 - 1 = 24 nonempty codes over nonempty strings
    assert len(codes2) == 24
    assert len(set(codes2)) == 24
    for code in codes2:
        s = sorted(code)
        for a, b in zip(s, s[1:]):
            assert not b.startswith(a)
    assert sum(1 for _ in all_prefix_free_codes(3)) == 26 ** 2 - 1


@pytest.mark.parametrize("max_len", range(5))
def test_short_codes_are_the_depth_3_enumeration(max_len):
    # the Kraft section's second pass takes all_prefix_free_codes(min(max_len, 3))
    # for the codes of all_prefix_free_codes(max_len) whose words are all of
    # length <= 3: the same codes in the same order, for every max_len a spec allows
    assert SPEC_BUDGETS["kraft.max_len"] == (0, 4)
    short = [c for c in all_prefix_free_codes(max_len) if max(map(len, c)) <= 3]
    assert short == list(all_prefix_free_codes(min(max_len, 3)))


def test_every_code_is_a_tuple_of_sorted_words():
    # the Kraft sweep weights a code's words in their given order and checks
    # prefix-freeness on neighbours, as the per-instance path did on sorted(code)
    for code in all_prefix_free_codes(4):
        assert type(code) is tuple and list(code) == sorted(code), code


def test_seeded_distribution_deterministic():
    d1 = seeded_distribution(random.Random("x"), [0, 1, 2])
    d2 = seeded_distribution(random.Random("x"), [0, 1, 2])
    assert d1 == d2


def test_seeded_distribution_draws_match_randrange(monkeypatch):
    # the inlined rejection loop draws what Random.randrange(max_weight + 1)
    # draws, all-zero redraws included, and leaves the generator in the same state
    for seed in (0, 1, 2024, "x/kraft", 77):
        for max_weight in (1, 2, 3, 7, 16, 31, 100):
            monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", max_weight)
            for size in (1, 2, 12):
                domain = list(range(size))
                ref = random.Random(seed)
                while True:
                    want = [ref.randrange(max_weight + 1) for _ in domain]
                    if any(want):
                        break
                rng = random.Random(seed)
                d = seeded_distribution(rng, domain)
                assert [d.weights[v] for v in domain] == want, (seed, max_weight, size)
                assert rng.getstate() == ref.getstate()


def test_an_empty_seeded_draw_is_refused_before_drawing(monkeypatch):
    # every draw of no weights, or of weights in [0, 0], is all zero, so its
    # redraw loop would never end: each refuses it and leaves the rng as it was
    def refused(call, rng):
        state = rng.getstate()
        with pytest.raises(DomainError):
            call()
        assert rng.getstate() == state

    rng = random.Random(5)
    for count in (0, -1):
        refused(lambda: verify.seeded_weights(rng, count), rng)
    refused(lambda: seeded_distribution(rng, []), rng)
    # a stream refuses before and after its buffer holds weights, and the
    # draws around the refusals are the ones it makes without them
    stream_rng = random.Random(5)
    draw, ref = verify._weight_stream(stream_rng), verify._weight_stream(random.Random(5))
    refused(lambda: draw(0), stream_rng)
    assert draw(3) == ref(3)
    for size in (0, -2):
        refused(lambda: draw(size), stream_rng)
    assert draw(5) == ref(5)
    for max_weight in (0, -1):
        monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", max_weight)
        refused(lambda: verify.seeded_weights(rng, 3), rng)
        refused(lambda: seeded_distribution(rng, [1, 2]), rng)
        refused(lambda: verify._weight_stream(rng)(3), rng)


def test_a_weight_stream_past_a_byte_is_refused_when_built(monkeypatch):
    # a stream holds its weights in bytes, 0xff marking a reject, so past
    # 254 it refuses when it is built, names the limit and draws nothing;
    # seeded_weights still draws such weights, one randrange call each
    rng = random.Random(5)
    for max_weight in (255, 256, 1000):
        monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", max_weight)
        state = rng.getstate()
        with pytest.raises(DomainError, match=f"up to 254, SEED_MAX_WEIGHT is {max_weight}$"):
            verify._weight_stream(rng)
        assert rng.getstate() == state
        ref = random.Random(max_weight)
        want = [ref.randrange(max_weight + 1) for _ in range(2000)]
        assert verify.seeded_weights(random.Random(max_weight), 2000) == want
        assert max(want) > 254
    monkeypatch.setattr(verify, "SEED_MAX_WEIGHT", 254)
    assert list(verify._weight_stream(random.Random(5))(400)) == verify.seeded_weights(
        random.Random(5), 400)


def test_small_corpus_runs_and_is_deterministic():
    rep1 = run_corpus(SMALL_SPEC)
    rep2 = run_corpus(SMALL_SPEC)
    assert rep1.to_json() == rep2.to_json()
    names = [s.name for s in rep1.sections]
    assert "fourier_bias_identity" in names
    assert "claim_biasing_condition" in names
    by_name = {s.name: s for s in rep1.sections}
    # only the small-n biasing-claim counterexamples may fail
    for s in rep1.sections:
        if s.name != "claim_biasing_condition":
            assert s.fails == 0, (s.name, s.counterexamples[:3])
    assert by_name["fourier_bias_identity"].passes == 12
    assert by_name["claim_skewing_condition"].fails == 0


def test_empty_spec_is_empty_success():
    rep = run_corpus(CorpusSpec(seed=1))
    assert rep.ok and rep.sections == []
    assert json.loads(rep.to_json())["sections"] == []


def test_fixture_planted_violation():
    rep = run_corpus(CorpusSpec(seed=1, fixture_planted_violation=True))
    assert not rep.ok
    assert rep.sections[0].fails == 1
    # the counterexample re-verifies: the planted claim is false on recompute
    from liftsim.dist import xor_bias
    assert not (xor_bias(DistributionTable.uniform([0, 1]), 1, (0,)) < 0)


def test_counterexamples_reverify_from_raw_inputs():
    # every emitted counterexample must reproduce when recomputed from its
    # instance coordinates; exercised via the claim-biasing section, whose
    # small-n failures are genuine
    from liftsim.structure import is_biasing, is_dangerous, max_density
    from liftsim.verify import seeded_dense_support
    spec = CorpusSpec(seed=77, claims={"supports": 3})
    rep = run_corpus(spec)
    by_name = {s.name: s for s in rep.sections}
    bias_sec = by_name["claim_biasing_condition"]
    reverified = 0
    # regenerate the same corpus stream and recheck recorded failures
    rng = random.Random("77/claims")
    for gname in ("xor1", "and1", "ip1", "ip2"):
        g = builtin_gadget(gname)
        b = g.b
        universe = list(product(range(1 << b), repeat=2))
        for s_idx in range(3):
            supp = seeded_dense_support(rng, 2, b)
            y = DistributionTable.uniform(supp)
            delta_y = max_density(y, b)[0]
            for eps in (F(1, 4), F(1, 2)):
                for x in universe:
                    tag = f"biasing/{gname}/supp{s_idx}/eps={eps}/x={x}"
                    recorded = any(ce["instance"] == tag
                                   for ce in bias_sec.counterexamples)
                    if recorded:
                        assert not is_biasing(x, y, g, delta_y, eps, F(2), 2).flagged
                        assert is_dangerous(x, y, g, delta_y, eps)
                        reverified += 1
    assert reverified == bias_sec.fails > 0


def test_corpus_spec_json():
    spec = CorpusSpec.from_json('{"seed": 5, "fourier": {"count": 3}}')
    assert spec.seed == 5 and spec.fourier == {"count": 3}
    with pytest.raises(LiftsimError):
        CorpusSpec.from_json('{"nope": 1}')


def test_default_spec_shape():
    spec = default_corpus_spec()
    assert spec.fourier["count"] >= 1000
    assert spec.kraft["max_len"] == 4


def test_shipped_specs_fit_their_budgets():
    # every integer of the shipped spec has a budget, and the budget admits it
    for scale in (1, 10, 1000):
        doc = vars(default_corpus_spec(scale))
        assert vars(CorpusSpec.from_json(json.dumps(doc))) == doc
    assert {f"{section}.{key}" for section, params in vars(default_corpus_spec()).items()
            if isinstance(params, dict) for key, value in params.items()
            if list(verify._ints(value))} == set(verify.SPEC_BUDGETS)


def test_an_empty_section_object_runs_its_job_defaults():
    # a section given {} runs with every param at its job's default, as a
    # section that names some params takes the default for the rest
    [xor] = run_corpus(CorpusSpec.from_json('{"xor_lemma": {}}')).sections
    assert (xor.name, xor.total) == ("xor_lemma_sandwich", 12)  # 4 gadgets x 3 powers
    [fourier] = run_corpus(CorpusSpec.from_json('{"fourier": {}}')).sections
    assert (fourier.name, fourier.total) == ("fourier_bias_identity", 1000)


def test_an_omitted_key_takes_the_job_default_not_the_shipped_size():
    # kraft.assignments defaults to 100 in the job, while the shipped corpus
    # runs 101: the 3 codes of length <= 1 once, then 99 more draws each
    assert default_corpus_spec().kraft["assignments"] == 101
    [kraft] = run_corpus(CorpusSpec.from_json('{"kraft": {"max_len": 1}}')).sections
    assert (kraft.name, kraft.total) == ("kraft_heavy_message", 300)
    assert default_corpus_spec().xor_lemma["extra"] == [["ip2", 1]]


def test_the_fixture_flag_is_a_json_boolean():
    # true plants the FAIL and false runs nothing; any other value is refused
    # with a FormatError before any section runs
    for flag, sections in (("true", ["fixture_planted_violation"]), ("false", [])):
        spec = CorpusSpec.from_json(f'{{"fixture_planted_violation": {flag}}}')
        assert [s.name for s in run_corpus(spec).sections] == sections
    for value in ('"no"', '{"a": 1}', "1", "null", "[]"):
        with pytest.raises(FormatError, match="^corpus spec key 'fixture_planted_violation' "
                                              "must be true or false$"):
            CorpusSpec.from_json(f'{{"fourier": {{"count": 2}}, '
                                 f'"fixture_planted_violation": {value}}}')


# Each refused before any section runs, on the parsed value alone.
OVER_BUDGET = {
    '{"fourier": {"count": 1000000}}': ("fourier.count", 1000000, "0..100000"),
    '{"lifting": {"rand_seeds": 1000000}}': ("lifting.rand_seeds", 1000000, "0..300"),
    '{"kraft": {"max_len": 5}}': ("kraft.max_len", 5, "0..4"),
    '{"density": {"count": -1}}': ("density.count", -1, "0..20000"),
    '{"xor_lemma": {"powers": [1, 0]}}': ("xor_lemma.powers", 0, "1..4"),
    '{"xor_lemma": {"extra": [["ip2", 1180591620717411303424]]}}': (
        "xor_lemma.extra", 2 ** 70, "1..4"),
    '{"fourier": {"count": 5}, "claims": {"supports": 2001}}': ("claims.supports", 2001, "0..2000"),
}


@pytest.mark.parametrize("text", sorted(OVER_BUDGET))
def test_spec_sizes_over_budget_refused(text):
    key, size, limit = OVER_BUDGET[text]
    with pytest.raises(BudgetError) as err:
        CorpusSpec.from_json(text)
    assert (err.value.what, err.value.size, err.value.limit) == (
        f"corpus spec value {key}", size, limit)


def test_xor_lemma_job_count_refused():
    text = json.dumps({"xor_lemma": {"gadgets": ["xor1"] * 251, "powers": [1, 2, 3, 4]}})
    with pytest.raises(BudgetError, match="xor_lemma jobs: size 1004 exceeds budget 1000"):
        CorpusSpec.from_json(text)
    # omitted keys take the section's defaults: 4 gadgets x 3 powers
    spec = CorpusSpec.from_json('{"xor_lemma": {"extra": [["ip2", 1]]}}')
    assert run_corpus(spec).sections[0].total == 13


def test_xor_lemma_side_refused_when_parsed():
    # every job's side 2^(b*m) is checked before any section runs, defaults
    # and extra jobs included, with check_xor_lemma's test b*m >= 5
    for text, job, bits in (
            ('{"fourier": {"count": 50}, "xor_lemma": {"gadgets": ["ip2"], "powers": [3], '
             '"extra": []}}', "ip2 at m=3", 6),
            ('{"xor_lemma": {"extra": [["ip2", 3]]}}', "ip2 at m=3", 6),
            ('{"xor_lemma": {"gadgets": ["rand:5:1"], "powers": [1]}}', "rand:5:1 at m=1", 5)):
        with pytest.raises(BudgetError) as err:
            CorpusSpec.from_json(text)
        assert (err.value.what, err.value.size, err.value.limit) == (
            f"corpus spec xor_lemma side of {job}", f"2^{bits}", 16)
        assert str(err.value) == f"corpus spec xor_lemma side of {job}: size 2^{bits} " \
            "exceeds budget 16"
    # at the budget itself the spec parses: sides 2^4
    for text in ('{"xor_lemma": {"gadgets": ["ip2"], "powers": [2], "extra": [["rand:4:1", 1]]}}',
                 '{"xor_lemma": {"powers": [4]}}'):
        CorpusSpec.from_json(text)


def test_a_changed_job_default_reaches_the_spec_checks(monkeypatch):
    # the parser reads the job's own defaults for the keys a spec leaves out,
    # so a default changed in the job is budgeted and side-checked as given
    row = verify.SECTIONS["xor_lemma"]

    def xor_job(seed, gadgets=("xor1",) * 251, powers=(1, 2, 3, 4), extra=()):
        return verify._section_xor_lemma(seed, gadgets, powers, extra)

    monkeypatch.setattr(row, "job", xor_job)
    with pytest.raises(BudgetError, match="xor_lemma jobs: size 1004 exceeds budget 1000"):
        CorpusSpec.from_json('{"xor_lemma": {}}')
    CorpusSpec.from_json('{"xor_lemma": {"gadgets": ["xor1"]}}')  # 4 jobs
    xor_job.__defaults__ = (("and1",), (1,), (("ip2", 3),))
    with pytest.raises(BudgetError, match=r"^corpus spec xor_lemma side of ip2 at m=3: "):
        CorpusSpec.from_json('{"xor_lemma": {"powers": [2]}}')
    with pytest.raises(FormatError):  # a default gadget name is resolved too
        xor_job.__defaults__ = (("no-such-gadget",), (1,), ())
        CorpusSpec.from_json('{"xor_lemma": {"extra": []}}')
    # and the lifting section's default gadget meets its block-length limit
    lifting = verify.SECTIONS["lifting"]

    def lifting_job(seed, gadget="rand:6:1", rand_seeds=3):
        return verify._section_lifting(seed, gadget, rand_seeds)

    monkeypatch.setattr(lifting, "job", lifting_job)
    with pytest.raises(BudgetError, match="lifting gadget block length: size 6 exceeds"):
        CorpusSpec.from_json('{"lifting": {"rand_seeds": 1}}')
    CorpusSpec.from_json('{"lifting": {"gadget": "ip2"}}')


def test_xor_lemma_side_is_the_gadget_layer_rule(monkeypatch):
    # the spec's side test is gadgets._check_xor_power, the one that
    # `liftsim gadget analyze` and check_xor_lemma apply: a lower side limit
    # there refuses a side-16 job that parses at RECT_SIDE_LIMIT = 16
    text = '{"xor_lemma": {"gadgets": ["ip2"], "powers": [2], "extra": []}}'
    CorpusSpec.from_json(text)
    monkeypatch.setattr(gadgets, "RECT_SIDE_LIMIT", 8)
    with pytest.raises(BudgetError, match=r"^corpus spec xor_lemma side of ip2 at m=2: "
                                          r"size 2\^4 exceeds budget 8$"):
        CorpusSpec.from_json(text)


def test_spec_gadget_names_resolved_when_parsed():
    for text in ('{"lifting": {"gadget": "rand:x:1"}}', '{"lifting": {"gadget": "ip9"}}',
                 '{"xor_lemma": {"gadgets": ["xor1", "rand:-1:1"]}}',
                 '{"xor_lemma": {"extra": [["rand:1", 1]]}}'):
        with pytest.raises(FormatError):
            CorpusSpec.from_json(text)
    # the lifting gadget's block length has its own budget
    with pytest.raises(BudgetError) as err:
        CorpusSpec.from_json('{"lifting": {"gadget": "rand:6:1"}}')
    assert (err.value.size, err.value.limit) == (6, verify.LIFTING_BLOCK_LIMIT) == (6, 5)
    assert CorpusSpec.from_json('{"lifting": {"gadget": "rand:5:1"}}').lifting == {
        "gadget": "rand:5:1"}


def _checked_json(report):
    """report.to_json(), checked byte for byte against json.dumps of its data."""
    text = report.to_json()
    assert text == json.dumps(dict(report.fields_obj(), ok=report.ok), sort_keys=True, indent=2)
    return text


# The scale-10 default corpus report at seed 2024, pinned byte for byte (the
# same digest and FAIL count as the verify_corpus entry of
# perfbench/golden.json).  A refactor that changes any verdict, measured value
# or instance order changes this digest.
SCALE10_REPORT_SHA256 = "58356490abac1a9ad0ed9c1ac3ff8e1d0a2e3d7020c65932b812a88871045ba1"
SCALE10_BIASING_FAILS = 39


def test_default_corpus_report_digest_pinned():
    import hashlib

    spec = default_corpus_spec(scale=10)
    spec.seed = 2024
    report = run_corpus(spec)
    assert hashlib.sha256(_checked_json(report).encode()).hexdigest() == SCALE10_REPORT_SHA256
    fails = {s.name: s.fails for s in report.sections if s.fails}
    assert fails == {"claim_biasing_condition": SCALE10_BIASING_FAILS}


# The full default corpus report (what `liftsim verify --out` writes), pinned
# byte for byte.  It runs the density section at 200 instances against 20 at
# scale 10, so it guards every density verdict and partition the corpus makes.
FULL_REPORT_SHA256 = "8f962e0121e17993704d7d263dd273a6df4813d54646f06b7059354cfb1b4f77"
FULL_BIASING_FAILS = 240


def test_full_default_corpus_report_digest_pinned():
    import hashlib

    report = run_corpus(default_corpus_spec())
    assert hashlib.sha256(_checked_json(report).encode()).hexdigest() == FULL_REPORT_SHA256
    fails = {s.name: s.fails for s in report.sections if s.fails}
    assert fails == {"claim_biasing_condition": FULL_BIASING_FAILS}


def oracle_complexity(p):
    """The protocol walk complexity() made on every call before the tree
    kept its validating walk's result."""

    def go(node, speaker):
        if isinstance(node, protocols.PLeaf):
            return 0, 0
        extra_round = 0 if node.speaker == speaker else 1
        best_c = best_r = 0
        for child in node.children:
            c, r = go(child, node.speaker)
            best_c = max(best_c, c)
            best_r = max(best_r, r)
        return 1 + best_c, extra_round + best_r

    return go(p.root, None)


def test_lifting_section_walks_each_protocol_once(monkeypatch):
    walked = []
    walk = protocols._checked_complexity

    def counted(root, size):
        walked.append(root)
        return walk(root, size)

    built = []
    init = protocols.ProtocolTree.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(protocols, "_checked_complexity", counted)
    monkeypatch.setattr(protocols.ProtocolTree, "__init__", recorded)
    verify._section_lifting(2024)
    # one protocol per shipped problem, walked once when it is built; every
    # later complexity() call reads that walk's result
    assert len(walked) == len(verify.shipped_problems())
    assert [p.root for p in built] == walked
    proto = built[0]
    cost = protocols.complexity(proto)
    assert cost == oracle_complexity(proto)
    object.__setattr__(proto, "root", None)
    assert protocols.complexity(proto) == cost


@pytest.mark.parametrize("gadget", ["ip1", "ip2"])
def test_lifting_section_matches_the_per_seed_oracle(gadget, monkeypatch):
    # The section's one walk per (problem, z) gives the reports of one
    # enumeration plus one lift_randomized walk per seed, and hands the
    # ledger the same runs in the same order; it makes no lift_randomized
    # call and 16 walks, where the oracle makes 16 * (1 + rand_seeds).
    calls = {"walks": 0, "lift_randomized": 0, "ledger": []}
    walk, lift, ledger = simulate._randomized_runs, simulate.lift_randomized, verify.ledger_assertions

    def walked(*args):
        calls["walks"] += 1
        return walk(*args)

    def lifted(*args, **kwargs):
        calls["lift_randomized"] += 1
        return lift(*args, **kwargs)

    def handed(res, params):
        calls["ledger"].append(res.to_json())
        return ledger(res, params)

    monkeypatch.setattr(simulate, "_randomized_runs", walked)
    monkeypatch.setattr(simulate, "lift_randomized", lifted)
    monkeypatch.setattr(verify, "ledger_assertions", handed)

    def run(job, rand_seeds):
        calls.update(walks=0, lift_randomized=0, ledger=[])
        reports = job(2024, gadget, rand_seeds)
        return dump_json([r.to_obj() for r in reports]), dict(calls)

    for rand_seeds in (0, 1, 3, 17):
        want, oracle = run(oracle_section_lifting, rand_seeds)
        got, section = run(verify._section_lifting, rand_seeds)
        assert got == want
        assert section["ledger"] == oracle["ledger"]
        assert len(section["ledger"]) == 16 * (1 + rand_seeds)
        assert (oracle["walks"], oracle["lift_randomized"]) == (16 * (1 + rand_seeds),
                                                                16 * rand_seeds)
        assert (section["walks"], section["lift_randomized"]) == (16, 0)


def test_stored_complexity_leaves_randomized_lifts_unchanged(monkeypatch):
    g = builtin_gadget("ip2")
    params = LiftingParams.standard(b=g.b, n=2, mode="rand")

    def outputs():
        out = []
        for _, problem in verify.shipped_problems():
            proto = canonical_protocol(brute_force_Ddt(problem)[1], g)
            assert protocols.complexity(proto) == oracle_complexity(proto)
            for z in range(4):
                out.append(enumerate_output_distribution(proto, g, z, params).weights)
                out.extend(lift_randomized(proto, g, z, params, seed=sd).to_json()
                           for sd in range(3))
        return out

    got = outputs()
    monkeypatch.setattr(simulate, "complexity", oracle_complexity)
    assert outputs() == got


def test_density_postconditions_fail_on_broken_partitions(monkeypatch):
    # The density section checks the partition it is handed, so each broken
    # partition below trips the one postcondition named.  Halving on block 0
    # is a valid fix-and-carve partition of `skew` at delta = 1 (not the
    # greedy one), and each case breaks one field of it; at delta = 1/2 the
    # same halves of the uniform table break only the entropy bound.
    skew = DistributionTable.from_weights({(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1})
    flat = DistributionTable.uniform(list(product(range(2), repeat=2)))
    left, right = ((0, 0), (0, 1)), ((1, 0), (1, 1))

    def halves(p1=F(2, 3), v2=(1,), p_geq2=F(1, 3), c1=(0,), v1=(0,)):
        return [DensityPart(1, c1, v1, left, p1, F(1)),
                DensityPart(2, (0,), v2, right, 1 - p1, p_geq2)]

    cases = [
        (skew, F(1), halves(), ""),
        (skew, F(1), halves(p_geq2=F(1, 2)), "p_geq mismatch at part 2"),
        (skew, F(1), halves(p1=F(1, 2)), "part 1 probability mismatch"),
        (skew, F(1), halves(v2=(0,)), "part 2 does not fix its block set"),
        (skew, F(1), halves(c1=(), v1=()), "part 1 remainder is not dense"),
        (flat, F(1, 2), halves(p1=F(1, 2), p_geq2=F(1, 2)),
         "part 1 violates the entropy bound"),
        (skew, F(1), halves()[:1] + [DensityPart(2, (0, 1), (1, 0), ((1, 0),), F(1, 6),
                                                 F(1, 3))],
         "parts do not partition the support"),
    ]
    for d, delta, parts, detail in cases:
        monkeypatch.setattr(verify, "density_restoring_partition", lambda *_: parts)
        assert verify._density_postconditions(d, delta, 1) == (not detail, detail)


# -- the corpus split over forked processes ------------------------------------

def _shares(spec, procs=2):
    """The section keys each process runs: share 0 is the caller's."""
    keys = [key for key in verify.SECTIONS
            if isinstance(getattr(spec, key), dict) or getattr(spec, key) is True]
    return [keys[rank::procs] for rank in range(procs)]


@pytest.fixture
def split(monkeypatch, tmp_path):
    """run_corpus over two processes whatever the CPUs, bounded by a 120 s
    alarm.  Afterwards this process has no child left, and no child came back
    out of run_corpus into the test (it would leave a file and exit)."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    caller = os.getpid()

    def run(spec):
        try:
            return run_corpus(spec)
        finally:
            if os.getpid() != caller:
                (tmp_path / f"escaped-{os.getpid()}").touch()
                os._exit(0)

    def timeout(signum, frame):
        raise TimeoutError("run_corpus took over 120 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        yield run
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("escaped-*"))


def _serial(spec, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(verify, "_usable_cpus", lambda: 1)
        return run_corpus(spec)


@pytest.mark.parametrize("scale", [None, 10])
def test_split_corpus_report_is_byte_identical(scale, split, monkeypatch):
    spec = SMALL_SPEC if scale is None else default_corpus_spec(scale=scale)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    text = split(spec).to_json()
    assert forks == [os.getpid()]
    assert _serial(spec, monkeypatch).to_json() == text
    assert len(forks) == 1


def test_a_child_report_is_used_not_run_again(split, monkeypatch, tmp_path):
    # a child's reports come back as their fields (marshal) and are rebuilt
    # here: the caller does not run the child's sections again
    section = verify._section_density
    assert "density" in _shares(SMALL_SPEC)[1]

    def density(seed, count):
        (tmp_path / f"ran-{os.getpid()}").touch()
        return section(seed, count)

    monkeypatch.setattr(verify.SECTIONS["density"], "job", density)
    got = split(SMALL_SPEC)
    ran = [p.name for p in tmp_path.glob("ran-*")]
    assert len(ran) == 1 and ran != [f"ran-{os.getpid()}"]
    assert got.to_json() == _serial(SMALL_SPEC, monkeypatch).to_json()
    assert all(type(s) is SectionReport for s in got.sections)


@pytest.mark.parametrize("case", ["one section", "one cpu", "profiler", "tracer", "thread",
                                  "no fork"])
def test_some_runs_stay_in_one_process(case, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 8)
    assert (verify._process_count(3), verify._process_count(9)) == (3, 8)
    jobs, stop = 1 if case == "one section" else 9, threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "one cpu":
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    elif case == "profiler":
        monkeypatch.setattr(verify.sys, "getprofile", lambda: print)
    elif case == "tracer":
        monkeypatch.setattr(verify.sys, "gettrace", lambda: print)
    elif case == "thread":
        thread.start()
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    try:
        assert verify._process_count(jobs) == 1
    finally:
        stop.set()
    if case == "thread":
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_a_section_error_in_a_child_is_raised_by_the_caller(split, monkeypatch, tmp_path,
                                                          capsys):
    # the child's attempt fails and the caller runs the section again, which
    # raises here what it raises in one process; the CLI exits 2 on it
    assert "density" in _shares(SMALL_SPEC)[1]

    def failing(seed, count):
        (tmp_path / f"ran-{os.getpid()}").touch()
        raise BudgetError("density test instances", count, 0)

    monkeypatch.setattr(verify.SECTIONS["density"], "job", failing)
    with pytest.raises(BudgetError) as got:
        split(SMALL_SPEC)
    ran = sorted(p.name for p in tmp_path.glob("ran-*"))
    assert len(ran) == 2 and f"ran-{os.getpid()}" in ran
    with pytest.raises(BudgetError) as serial:
        _serial(SMALL_SPEC, monkeypatch)
    assert str(got.value) == str(serial.value)

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "fourier": {"count": 2}, "density": {"count": 3}}))
    assert "density" in _shares(CorpusSpec.from_json(spec.read_text()))[1]
    assert cli_main(["verify", str(spec)]) == 2
    want = BudgetError("density test instances", 3, 0)
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("death", ["exit", "kill", "raise", "exit 1 after writing"])
def test_a_child_that_fails_leaves_the_report_unchanged(death, split, monkeypatch, tmp_path):
    # the child's reports count only after a clean exit, so here the caller
    # runs the section again, whatever the child wrote
    want = _serial(SMALL_SPEC, monkeypatch).to_json()
    caller = os.getpid()
    section = verify._section_density
    assert "density" in _shares(SMALL_SPEC)[1]

    def dying(seed, count):
        (tmp_path / f"ran-{os.getpid()}").touch()
        report = section(seed, count)
        if os.getpid() != caller:
            if death == "exit":
                os._exit(1)
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if death == "raise":
                raise BudgetError("density test instances", count, 0)
        return report

    monkeypatch.setattr(verify.SECTIONS["density"], "job", dying)
    if death == "exit 1 after writing":
        monkeypatch.setattr(os, "_exit", lambda status, _exit=os._exit: _exit(1))
    assert split(SMALL_SPEC).to_json() == want
    assert len(list(tmp_path.glob("ran-*"))) == 2
    assert (tmp_path / f"ran-{caller}").exists()


def test_a_failed_fork_leaves_the_report_unchanged(split, monkeypatch):
    # no child is made (the process limit, say): its share runs in the caller
    want = _serial(SMALL_SPEC, monkeypatch).to_json()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert split(SMALL_SPEC).to_json() == want


BIG = SectionReport("big", info={"pad": "x" * (1 << 20)})  # past any pipe buffer


def test_a_report_past_the_pipe_buffer_comes_back(split, monkeypatch):
    spec = CorpusSpec(seed=1, density={"count": 2}, xor_lemma=default_corpus_spec().xor_lemma)
    assert _shares(spec) == [["density"], ["xor_lemma"]]
    monkeypatch.setattr(verify.SECTIONS["xor_lemma"], "job", lambda seed, **_: [BIG])
    got = split(spec)
    assert [s.name for s in got.sections] == ["big", "density_restoring"]
    assert got.to_json() == _serial(spec, monkeypatch).to_json()


@pytest.mark.parametrize("error", [KeyboardInterrupt(), BudgetError("test", 1, 0)])
def test_a_caller_error_kills_and_reaps_a_blocked_child(error, split, monkeypatch):
    # the child has written as much of its report as the pipe holds and
    # waits for a reader when the caller's own section raises: the error
    # leaves run_corpus at once, and the fixture finds no child left
    spec = CorpusSpec(seed=1, density={"count": 2}, xor_lemma=default_corpus_spec().xor_lemma)
    monkeypatch.setattr(verify.SECTIONS["xor_lemma"], "job", lambda seed, **_: [BIG])

    def failing(seed, count):
        time.sleep(0.2)
        raise error

    monkeypatch.setattr(verify.SECTIONS["density"], "job", failing)
    start = time.monotonic()
    with pytest.raises(type(error)):
        split(spec)
    assert time.monotonic() - start < 60
