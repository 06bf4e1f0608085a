import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from scan_oracles import oracle_is_leaking, oracle_is_sparsifying

from liftsim.dist import DistributionTable, align_domains, statistical_distance
from liftsim.dtrees import (
    DLeaf,
    ParallelDecisionTree,
    brute_force_Ddt,
    find_one_problem,
    first_bit_problem,
    index_problem,
    parity_problem,
    run_tree,
    solves,
)
from liftsim.errors import DomainError, LiftsimError
from liftsim import simulate
from liftsim.gadgets import blocks_of, builtin_gadget
from liftsim.protocols import (
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedProtocol,
    canonical_protocol,
    complexity,
    run_protocol,
)
from liftsim.simulate import (
    ERROR_K,
    ERROR_TRUNCATION,
    LiftingParams,
    RoundRecord,
    SimResult,
    certify_transcript,
    compose_eval,
    enumerate_output_distribution,
    enumerate_randomized_protocol,
    extract_parallel_tree,
    ledger_assertions,
    lift_deterministic,
    lift_randomized,
    lift_randomized_protocol,
    reference_distribution,
)
from liftsim.structure import (
    DangerScan,
    density_restoring_partition,
    is_dangerous,
    is_dense,
    max_density,
)

XOR = builtin_gadget("xor1")
IP2 = builtin_gadget("ip2")


def det_params(b, n, **kw):
    return LiftingParams.standard(b=b, n=n, mode="det", **kw)


def rand_params(b, n, **kw):
    return LiftingParams.standard(b=b, n=n, mode="rand", **kw)


def canonical_instance(problem, g):
    _, tree = brute_force_Ddt(problem)
    return canonical_protocol(tree, g)


def test_params_derivations():
    p = det_params(2, 2)
    assert p.eps == F(1, 2)                       # h/(c*eta) = 1/2
    assert p.delta == 1 - p.eta / 4 + p.eps / 2
    assert p.tau == 2 * p.delta - p.eps
    r = rand_params(2, 2, c=F(4))
    assert r.eps == F(1) * 2 / (4 * 1)            # h*log2(c)/(c*eta)
    with pytest.raises(DomainError):
        LiftingParams(eta=1, c=3, h=1, b=1, n=2, mode="rand")
    q = LiftingParams(eta=1, c=3, h=1, b=1, n=2, mode="rand",
                      eps=F(1, 3), nonstandard=True)
    assert q.eps == F(1, 3)
    with pytest.raises(DomainError):
        LiftingParams(eta=1, c=2, h=1, b=1, n=2, mode="det", eps=F(1, 3))


def test_zero_communication_protocol():
    p = ProtocolTree(2, 1, PLeaf("out"))
    params = det_params(1, 2)
    res = lift_deterministic(p, XOR, 0b01, params)
    assert res.status == "done"
    assert res.total_queries == 0 and res.transcript == "" and res.output == "out"
    assert len(res.xset) == 4 and len(res.yset) == 4
    assert certify_transcript(res, p, XOR, 0b01) is not None
    # randomized: never error-halts, zero queries
    rp = rand_params(1, 2)
    dist = enumerate_output_distribution(p, XOR, 0b01, rp)
    assert dist.mass == {"": F(1)}


def test_constant_first_bit_message():
    # Alice's first bit is constant: the chosen message has probability one
    # through that node and the deficiency is unchanged by the message step
    inner = PLeaf("L")
    root = PNode("A", (0,) * 4, (PLeaf("L0"), PLeaf("L1")))
    p = ProtocolTree(2, 1, root)
    params = det_params(1, 2)
    res = lift_deterministic(p, XOR, 0, params)
    assert res.status == "done"
    assert res.rounds[0].p_message == 1
    snaps = res.rounds[0].snapshots
    assert snaps["after_discard"] == snaps["after_message"]


def test_deterministic_end_to_end_certifies():
    problems = [parity_problem(2), index_problem(2), first_bit_problem(2),
                find_one_problem(2)]
    params = det_params(2, 2)
    for problem in problems:
        proto = canonical_instance(problem, IP2)
        _, cap_r = complexity(proto)
        for z in range(4):
            res = lift_deterministic(proto, IP2, z, params)
            assert res.status == "done", (res.status, res.violation)
            assert res.depth <= cap_r
            cert = certify_transcript(res, proto, IP2, z)
            assert cert is not None
            x, y = cert
            assert compose_eval(IP2, x, y, 2) == z
            t, out, _ = run_protocol(proto, x, y)
            assert t == res.transcript and out == res.output
            assert problem.allows(z, res.output)


def test_rectangle_invariant():
    # rand:2:2 is not symmetric, so it tells g(x, y) from g(y, x) when the
    # silent side is conditioned on the gadget outputs.
    for g in (IP2, builtin_gadget("rand:2:2")):
        proto = canonical_instance(parity_problem(2), g)
        params = det_params(2, 2)
        for z in range(4):
            res = lift_deterministic(proto, g, z, params)
            fixed = [(i, int(ch)) for i, ch in enumerate(res.rho) if ch != "*"]
            for x in res.xset:
                for y in res.yset:
                    t, _, _ = run_protocol(proto, x, y)
                    assert t.startswith(res.transcript) or res.transcript.startswith(t)
                    for i, bit in fixed:
                        xi = (x >> (2 * (1 - i))) & 3
                        yi = (y >> (2 * (1 - i))) & 3
                        assert g.eval(xi, yi) == bit


def test_depth_invariant_and_tree_extraction():
    for problem in (parity_problem(2), index_problem(2), find_one_problem(2)):
        proto = canonical_instance(problem, IP2)
        _, cap_r = complexity(proto)
        params = det_params(2, 2)
        tree = extract_parallel_tree(proto, IP2, params)
        assert tree.depth() <= cap_r
        ok, witness = solves(tree, problem)
        assert ok, witness


def test_probability_one_rounds_match_deterministic():
    # a protocol whose every message is certain: the randomized run never
    # accumulates K and follows the deterministic trajectory
    root = PNode("A", (0,) * 4, (PNode("B", (1,) * 4, (PLeaf("x"), PLeaf("y"))),
                                 PLeaf("z")))
    p = ProtocolTree(2, 1, root)
    det = det_params(1, 2)
    rnd = rand_params(1, 2)
    res_d = lift_deterministic(p, XOR, 0, det)
    res_r = lift_randomized(p, XOR, 0, rnd, seed=5)
    assert res_r.k_product == 1
    assert res_r.transcript == res_d.transcript
    dist = enumerate_output_distribution(p, XOR, 0, rnd)
    assert dist.mass == {res_d.transcript: F(1)}


def test_randomized_error_halt_bound():
    params = rand_params(2, 2)
    bound = F(1, 4)
    for problem in (parity_problem(2), index_problem(2), first_bit_problem(2),
                    find_one_problem(2)):
        proto = canonical_instance(problem, IP2)
        for z in range(4):
            dist = enumerate_output_distribution(proto, IP2, z, params)
            assert dist.prob(ERROR_K) < bound


def test_enumeration_matches_sampling_frequencies():
    # spot check: sampled outcomes land in the enumerated support
    proto = canonical_instance(parity_problem(2), IP2)
    params = rand_params(2, 2)
    dist = enumerate_output_distribution(proto, IP2, 0, params)
    support = {k for k in dist.domain if dist.mass[k] > 0}
    for seed in range(20):
        res = lift_randomized(proto, IP2, 0, params, seed=seed)
        key = {"done": res.transcript,
               "error_halt_k": ERROR_K,
               "error_halt_truncation": ERROR_TRUNCATION}.get(res.status)
        assert key in support


def test_randomized_protocol_wrapper():
    proto = canonical_instance(parity_problem(2), IP2)
    params = rand_params(2, 2)
    single = RandomizedProtocol(((F(1), proto),))
    d1 = enumerate_randomized_protocol(single, IP2, 1, params)
    d2 = enumerate_output_distribution(proto, IP2, 1, params)
    a, b = align_domains(d1, d2)
    assert statistical_distance(a, b) == 0
    res = lift_randomized_protocol(single, IP2, 1, params, seed=3)
    assert res.status in ("done", "error_halt_k", "error_halt_truncation")
    # two-component mixture: exact weighted average of outcome masses
    leaf = ProtocolTree(2, 2, PLeaf("only"))
    mix = RandomizedProtocol(((F(1, 2), proto), (F(1, 2), leaf)))
    dm = enumerate_randomized_protocol(mix, IP2, 1, params)
    dl = enumerate_output_distribution(leaf, IP2, 1, params)
    for key in dm.domain:
        assert dm.mass[key] == (d1.prob(key) + dl.prob(key)) / 2


def test_reference_distribution_examples():
    leaf = ProtocolTree(1, 1, PLeaf("o"))
    d = reference_distribution(leaf, XOR, 0)
    assert d.mass == {"": F(1)}
    send_x = ProtocolTree(1, 1, PNode("A", (0, 1), (PLeaf("0"), PLeaf("1"))))
    d = reference_distribution(send_x, XOR, 0)  # fiber {(0,0),(1,1)}
    assert d.mass == {"0": F(1, 2), "1": F(1, 2)}


def test_reference_distribution_empty_fiber():
    from liftsim.gadgets import Gadget
    g0 = Gadget(1, [0, 0, 0, 0])  # constant gadget: z = 1 has no preimage
    p = ProtocolTree(1, 1, PLeaf("o"))
    with pytest.raises(LiftsimError):
        reference_distribution(p, g0, 1)


def test_ledger_assertions_deterministic():
    proto = canonical_instance(parity_problem(2), IP2)
    params = det_params(2, 2)
    for z in range(4):
        res = lift_deterministic(proto, IP2, z, params)
        rep = ledger_assertions(res, params)
        assert rep.deficiency_nonnegative
        assert rep.ok
        # empty-query rounds carry no net-decrease clause
        for rec, rl in zip(res.rounds, rep.rounds):
            if not rec.query_coords:
                assert "net_decrease_det" not in rl.checks
            if rec.p_message == 1:
                snaps = rec.snapshots
                assert snaps["after_discard"][1:] == snaps["after_message"][1:]


def test_ledger_assertions_randomized():
    proto = canonical_instance(index_problem(2), IP2)
    params = rand_params(2, 2)
    for z in range(4):
        for seed in range(3):
            res = lift_randomized(proto, IP2, z, params, seed=seed)
            rep = ledger_assertions(res, params)
            assert rep.ok, rep


def test_ledger_deficiency_clause_fails_on_one_snapshot():
    """deficiency_nonnegative is False as soon as one snapshot of one round
    has 4^(b|free|) * maxp_x * maxp_y < 1.

    No trace the engines make gets there: a marginal over |free| blocks of b
    bits has maxprob >= 2^(-b|free|) on each side, so every snapshot's value
    is >= 1.  The result is built by hand, with a maxprob of 1/32 on 16
    values, and with one snapshot at exactly 1 beside the one below 1, so a
    clause that needs every snapshot below 1 (all for any) would pass it.
    """
    params = det_params(2, 2)
    rec = RoundRecord(1, "A", (0, 1), snapshots={
        "start": (2, F(1, 16), F(1, 16)),  # 4^4 / 256 = 1
        "end": (2, F(1, 32), F(1, 16))})   # 4^4 / 512 = 1/2
    res = SimResult("done", None, "", 0, "**", (), 0, (), (), [rec])
    rep = ledger_assertions(res, params)
    assert not rep.deficiency_nonnegative and not rep.ok
    assert [rl.checks for rl in rep.rounds] == [{}]  # the clause alone decides
    rec.snapshots["end"] = (2, F(1, 16), F(1, 16))
    assert ledger_assertions(res, params).ok


def test_enumeration_branch_budget():
    from liftsim.errors import BudgetError
    proto = canonical_instance(parity_problem(2), IP2)
    params = rand_params(2, 2)
    with pytest.raises(BudgetError):
        enumerate_output_distribution(proto, IP2, 0, params, branch_limit=3)


def test_query_count_bookkeeping():
    # telescoping the ledger: when every round's decrease clause applied,
    # 2^((1-delta-2/b)*b*Q) <= product of per-round increase ratios, which
    # bounds total queries by the communication spent
    from liftsim.exact import cmp_products
    from liftsim.simulate import _dval
    params = det_params(2, 2)
    beta = (1 - params.delta - F(2, 2)) * 2  # (1-delta-2/b)*b
    for problem in (parity_problem(2), index_problem(2), find_one_problem(2)):
        proto = canonical_instance(problem, IP2)
        for z in range(4):
            res = lift_deterministic(proto, IP2, z, params)
            assert res.status == "done"
            rep = ledger_assertions(res, params)
            clauses = [rl.checks.get("net_decrease_det") for rl in rep.rounds
                       if "net_decrease_det" in rl.checks]
            if not all(c is True for c in clauses):
                continue
            total_q = res.total_queries
            inc = F(1)
            for rec in res.rounds:
                inc *= _dval(rec.snapshots["after_message"], 2) \
                    / _dval(rec.snapshots["start"], 2)
            assert cmp_products(inc, (), F(1), [(2, beta * total_q)]) >= 0


def test_trace_json():
    proto = canonical_instance(parity_problem(2), IP2)
    params = det_params(2, 2)
    res = lift_deterministic(proto, IP2, 2, params)
    doc = json.loads(res.to_json())
    assert doc["status"] == "done"
    assert doc["rho"] == "10"
    assert len(doc["rounds"]) == res.depth
    assert doc["rounds"][0]["message"] == res.rounds[0].message
    assert doc["rounds"][0]["p_message"]


def test_k_halt_positive_mass_still_below_bound():
    # One-bit protocol (n=2, b=2) where Alice says 1 only on her last input:
    # that message carries log2(16) = 4 bits of information against a
    # threshold of C + b = 3, so the run halts there.  The exact halt mass
    # 1/16 stays below 2^-b = 1/4.
    from liftsim.gadgets import Gadget
    parity2 = Gadget(2, [(x ^ y).bit_count() & 1 for x in range(4) for y in range(4)])
    bits = tuple(1 if v == 15 else 0 for v in range(16))
    p = ProtocolTree(2, 2, PNode("A", bits, (PLeaf("common"), PLeaf("rare"))))
    params = rand_params(2, 2)
    dist = enumerate_output_distribution(p, parity2, 0b00, params)
    assert dist.prob(ERROR_K) == F(1, 16)
    assert dist.prob("0") == F(15, 16)
    assert dist.prob(ERROR_K) < F(1, 4)
    # a sampled run with some seed reproduces the halt
    statuses = {lift_randomized(p, parity2, 0, params, seed=s).status
                for s in range(60)}
    assert "error_halt_k" in statuses


def test_truncation_halt_positive_mass():
    # Nonstandard delta = 2 makes every set density-violating, so the
    # partition carves one singleton class per free value; a 241-vs-15
    # message split leaves a 1/241 tail class below the truncation threshold
    # (1/8) * 2^(-eta*b/8) / (2nb) ~ 0.0055 at b=4.
    from liftsim.gadgets import Gadget
    parity4 = Gadget(4, [(x ^ y).bit_count() & 1
                         for x in range(16) for y in range(16)])
    bits = tuple(0 if v < 241 else 1 for v in range(256))
    p = ProtocolTree(2, 4, PNode("A", bits, (PLeaf("big"), PLeaf("small"))))
    params = LiftingParams(eta=1, c=2, h=1, b=4, n=2, mode="rand",
                           delta=F(2), nonstandard=True)
    dist = enumerate_output_distribution(p, parity4, 0b00, params)
    assert dist.prob(ERROR_TRUNCATION) == F(1, 256)
    assert dist.prob(ERROR_K) == 0
    assert dist.mass == {"0": F(15, 16), "1": F(15, 256), ERROR_TRUNCATION: F(1, 256)}


def test_step1_violation_leaves_rectangle_unchanged():
    # Bob's bit keeps y in {01, 10}; against that Y every value of Alice's
    # at eps = 1/8, delta = 1/4 is dangerous, so step 1 of round 2 would
    # empty X.  The run stops there and reports X unchanged, both in the
    # snapshot after the failed step and in the final rectangle.
    alice = PNode("A", (0, 0, 1, 1), (PLeaf(0), PLeaf(0)))
    p = ProtocolTree(2, 1, PNode("B", (1, 0, 0, 1), (alice, PLeaf(1))))

    def params(mode):
        return LiftingParams(eta=1, c=2, h=1, b=1, n=2, mode=mode,
                             eps=F(1, 8), delta=F(1, 4), nonstandard=True)

    def assert_step1_violation(res):
        assert res.status == "invariant_violation"
        assert res.violation.startswith("step1")
        rec = res.rounds[1]
        assert rec.index == 2 and rec.discarded_mass == 1
        assert rec.dangerous_values == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert rec.snapshots["after_discard"] == (2, F(1, 4), F(1, 2))
        assert res.xset == (0, 1, 2, 3) and res.yset == (1, 2)

    for z in range(4):
        assert_step1_violation(lift_deterministic(p, XOR, z, params("det")))
        assert_step1_violation(lift_randomized(p, XOR, z, params("rand"), seed=1))
        assert lift_randomized(p, XOR, z, params("rand"), seed=0).status == "done"
        dist = enumerate_output_distribution(p, XOR, z, params("rand"))
        assert dist.mass == {"1": F(1, 2), "<VIOLATION:step1>": F(1, 2)}


def _bits(text):
    return tuple(int(ch) for ch in text)


def test_discard_step_matches_per_value_scans(monkeypatch):
    # Every value the engines classify gets the verdict of the brute-force
    # per-value oracles against the same silent marginal.  In round 2 of the ip2
    # protocol below (found by a seeded search over random two-round
    # protocols), the values (1, 2) and (3, 3) are sparsifying but not
    # leaking, so the sparsifying half of the scan decides part of the trace.
    seen = Counter()

    class Checked(DangerScan):
        def __init__(self, y, g, delta_y, eps, b, coord_limit):
            super().__init__(y, g, delta_y, eps, b, coord_limit)
            self.args = (y, g, delta_y, eps, b, coord_limit)

        def dangerous(self, x_val):
            got = super().dangerous(x_val)
            y, g, delta_y, eps, b, limit = self.args
            leak = oracle_is_leaking(x_val, y, g, limit).flagged
            spars = oracle_is_sparsifying(x_val, y, g, delta_y, eps, b, limit).flagged
            assert got == (leak or spars), x_val
            seen["leaking" if leak else "sparsifying only" if got else "safe"] += 1
            return got

    monkeypatch.setattr(simulate, "DangerScan", Checked)
    p = ProtocolTree(2, 2, PNode("A", _bits("0100000111100101"), (
        PNode("B", _bits("0110011100011000"), (PLeaf(1), PLeaf(0))),
        PNode("B", _bits("0111001000101011"), (PLeaf(1), PLeaf(1))))))
    params = LiftingParams(eta=1, c=2, h=1, b=2, n=2, mode="det",
                           eps=F(1, 4), delta=F(1, 4), nonstandard=True)
    res = lift_deterministic(p, IP2, 0b01, params)
    assert res.status == "done"
    assert {(1, 2), (3, 3)} <= set(res.rounds[1].dangerous_values)
    assert seen["sparsifying only"] == 2
    for z in range(4):
        lift_deterministic(p, IP2, z, params)
    _, tree = brute_force_Ddt(parity_problem(3))
    lift_deterministic(canonical_protocol(tree, IP2), IP2, 0b101, det_params(2, 3))
    assert min(seen.values()) >= 10, seen


def test_shared_engine_cache_matches_fresh_caches(monkeypatch):
    # One engine cache per (gadget, params), held across every run, problem
    # and z, gives exactly the traces, distributions and ledgers of a fresh
    # cache per run and of a cache that keeps nothing (every entry rebuilt
    # at each use), and builds each (side, silent, free) DangerScan once.
    # The canonical protocols speak A first and their mirrors B first, so
    # both sides scan the same (silent, free); rand:2:2 is not symmetric,
    # so the two sides' scans differ.
    built = Counter()

    class Counted(DangerScan):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built["scans"] += 1

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    def keeps_nothing(g, params):
        cache = simulate._EngineCache(g, params)
        for name, value in list(vars(cache).items()):
            if isinstance(value, dict):
                setattr(cache, name, Forgetful())
        return cache

    def mirror(node):
        if isinstance(node, PLeaf):
            return node
        return PNode("B" if node.speaker == "A" else "A", node.bits,
                     tuple(map(mirror, node.children)))

    def runs(protocols, g, det, rnd, det_cache, rnd_cache):
        out = []
        for proto in protocols:
            for z in range(4):
                res = lift_deterministic(proto, g, z, det, cache=det_cache)
                out += [res.to_json(), ledger_assertions(res, det)]
                dist = enumerate_output_distribution(proto, g, z, rnd, cache=rnd_cache)
                out.append((dist, dist.weights, dist.total))
                for seed in range(3):
                    rres = lift_randomized(proto, g, z, rnd, seed=seed, cache=rnd_cache)
                    out += [rres.to_json(), ledger_assertions(rres, rnd)]
        return out

    monkeypatch.setattr(simulate, "DangerScan", Counted)
    det, rnd = det_params(2, 2), rand_params(2, 2)
    for name in ("ip2", "rand:2:2"):
        g = builtin_gadget(name)
        assert (g.transpose() == g) == (name == "ip2")
        canonical = [canonical_instance(problem, g) for problem in (
            parity_problem(2), first_bit_problem(2), find_one_problem(2), index_problem(2))]
        protocols = canonical + [ProtocolTree(2, 2, mirror(p.root)) for p in canonical]
        rebuilt = runs(protocols, g, det, rnd, keeps_nothing(g, det), keeps_nothing(g, rnd))
        built.clear()
        assert runs(protocols, g, det, rnd, None, None) == rebuilt
        fresh_scans = built.pop("scans")
        det_cache, rnd_cache = simulate._EngineCache(g, det), simulate._EngineCache(g, rnd)
        assert runs(protocols, g, det, rnd, det_cache, rnd_cache) == rebuilt
        assert built["scans"] == len(det_cache.contexts) + len(rnd_cache.contexts)
        assert fresh_scans > 10 * built["scans"], (fresh_scans, built)
        assert {side for side, _, _ in rnd_cache.contexts} == {0, 1}


def test_engine_cache_entries_match_direct_computation():
    # Each entry equals what it stands for, asked in a seeded order that
    # revisits (inputs, free) with the side or the density level changed.
    rng = random.Random(3)
    g = builtin_gadget("rand:2:2")
    params = det_params(2, 2)
    cache = simulate._EngineCache(g, params)
    sets = [tuple(sorted(rng.sample(range(16), k))) for k in (1, 3, 6, 16) for _ in range(2)]
    seen = Counter()
    for _ in range(150):
        inputs, free = rng.choice(sets), rng.choice([(0,), (1,), (0, 1)])
        marg = DistributionTable.from_weights(
            Counter(tuple(blocks_of(v, 2, 2)[i] for i in free) for v in inputs))
        got = cache.marginal(inputs, free)
        assert (got.weights, got.total) == (marg.weights, marg.total)
        assert cache.maxprob(inputs, free) == marg.maxprob()
        delta = rng.choice([F(1, 4), F(1, 2), F(1)])
        dense = cache.dense(inputs, free, delta)
        assert dense == is_dense(marg, delta, 2).dense
        assert cache.partition(inputs, free) == density_restoring_partition(marg, params.delta, 2)
        side = rng.randrange(2)
        witness, scan = cache.context(side, inputs, free)
        assert witness == max_density(marg, 2, simulate.DENSITY_WITNESS_BITS)[0]
        gad = g.transpose() if side else g
        for x in product(range(4), repeat=len(free)):
            assert scan.dangerous(x) == is_dangerous(x, marg, gad, witness, params.eps, 2,
                                                     len(free))
        seen["dense" if dense else "not dense"] += 1
    assert min(seen.values()) >= 30, seen


def test_foreign_engine_cache_is_refused():
    # A cache holds scans, partitions and marginals for one gadget and one
    # (eps, delta, b, n); handed to a run with another, it used to be read
    # silently (a different trace for every z on ip2 with a rand:2:5 cache).
    proto = canonical_instance(parity_problem(2), IP2)
    det, rnd = det_params(2, 2), rand_params(2, 2)
    foreign = (simulate._EngineCache(builtin_gadget("rand:2:5"), det),
               simulate._EngineCache(IP2, det_params(2, 2, h=F(1, 2))),
               simulate._EngineCache(IP2, rand_params(2, 2, eta=F(1, 2))))
    for cache in foreign:
        for z in range(4):
            with pytest.raises(DomainError):
                lift_deterministic(proto, IP2, z, det, cache=cache)
            with pytest.raises(DomainError):
                lift_randomized(proto, IP2, z, rnd, cache=cache)
            with pytest.raises(DomainError):
                enumerate_output_distribution(proto, IP2, z, rnd, cache=cache)
    # an equal gadget table and equal (eps, delta, b, n) are accepted
    cache = simulate._EngineCache(builtin_gadget("ip2"), rnd)
    for z in range(4):
        assert lift_deterministic(proto, IP2, z, det, cache=cache).to_json() == \
            lift_deterministic(proto, IP2, z, det).to_json()


def test_fix_on_a_proper_subset_of_the_free_blocks():
    # B's message leaves five inputs; the fix conditions them on block 1
    # alone (the free set is (0, 1)), keeping the three whose block 1 is 3.
    p = ProtocolTree(2, 2, PNode("B", _bits("0000010100011101"), (PLeaf(1), PLeaf(0))))
    params = LiftingParams(eta=1, c=2, h=1, b=2, n=2, mode="det",
                           eps=F(1, 4), delta=F(1, 2), nonstandard=True)
    for z in range(4):
        res = lift_deterministic(p, IP2, z, params)
        rec = res.rounds[0]
        assert (rec.free_before, rec.query_coords, rec.fixed_value) == ((0, 1), (1,), (3,))
        assert rec.snapshots["after_message"][2] == F(1, 5)
        assert rec.snapshots["after_fix"][2] == F(1, 3)
        assert [blocks_of(v, 2, 2) for v in res.yset] == [(1, 3), (2, 3), (3, 3)]
