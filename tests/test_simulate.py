import gc
import hashlib
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
from liftsim import gadgets, simulate, structure
from liftsim.gadgets import blocks_of, builtin_gadget
from liftsim.protocols import (
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedProtocol,
    canonical_protocol,
    complexity,
    message_distribution,
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


def mirror(node):
    """The same tree with the speakers swapped at every node."""
    if isinstance(node, PLeaf):
        return node
    return PNode("B" if node.speaker == "A" else "A", node.bits,
                 tuple(map(mirror, node.children)))


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
                      eps=F(1, 3))
    assert q.eps == F(1, 3)
    assert q.tau == 2 * q.delta - F(1, 3)         # tau is derived, never set
    with pytest.raises(AttributeError):
        q.tau = F(1)


def test_params_refuse_nonpositive_h_and_eps():
    for h in (0, -1):
        with pytest.raises(DomainError, match="eta, c and h must be positive"):
            LiftingParams(eta=1, c=2, h=h, b=1, n=2)
    for eps, text in ((F(0), "0"), (F(-3), "-3"), (F(-1, 2), "-1/2")):
        with pytest.raises(DomainError, match=f"eps must be positive, got {text}$"):
            LiftingParams(eta=1, c=2, h=1, b=1, n=2, eps=eps)
    # derived: h*log2(c)/(c*eta) is 0 at c = 1 and negative below it
    for c, text in ((1, "0"), (F(1, 2), "-2")):
        with pytest.raises(DomainError, match=f"eps must be positive, got {text}$"):
            LiftingParams(eta=1, c=c, h=1, b=1, n=2, mode="rand")


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


def test_enumeration_branch_budget(monkeypatch):
    # The budget counts the protocol nodes the enumeration enters, leaves
    # included: 37 for parity on z = 00 and 19 for find-one on z = 10.  It is
    # read when the walk runs, so a lowered constant is refused cheaply.
    from liftsim.errors import BudgetError
    params = rand_params(2, 2)
    for problem, z, nodes in ((parity_problem(2), 0b00, 37), (find_one_problem(2), 0b10, 19)):
        proto = canonical_instance(problem, IP2)
        for limit in (3, nodes - 1):
            monkeypatch.setattr(simulate, "ENUM_BRANCH_LIMIT", limit)
            with pytest.raises(BudgetError) as err:
                enumerate_output_distribution(proto, IP2, z, params)
            assert (err.value.size, err.value.limit) == (limit + 1, limit)
        monkeypatch.setattr(simulate, "ENUM_BRANCH_LIMIT", nodes)
        enumerate_output_distribution(proto, IP2, z, params)


def test_engine_input_budget():
    # b*n past ENGINE_INPUT_BITS is refused before a side's 2^(b*n) inputs are
    # built; a leaf root keeps both the refused and the accepted instance cheap
    import tracemalloc
    from liftsim.errors import BudgetError
    wide = ProtocolTree(17, 1, PLeaf(0))
    calls = (lambda: lift_deterministic(wide, XOR, 0, det_params(1, 17)),
             lambda: lift_randomized(wide, XOR, 0, rand_params(1, 17)),
             lambda: enumerate_output_distribution(wide, XOR, 0, rand_params(1, 17)))
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.what, err.value.size, err.value.limit) == \
            ("lifting engine input bits", 17, simulate.ENGINE_INPUT_BITS)
        assert peak < 64 * 1024, peak  # a 2^17-tuple alone is 1 MiB
    res = lift_deterministic(ProtocolTree(16, 1, PLeaf(0)), XOR, 0, det_params(1, 16))
    assert (res.status, res.output) == ("done", 0)


def test_randomized_engines_refuse_deterministic_params():
    proto = canonical_instance(parity_problem(2), IP2)
    mix = RandomizedProtocol(((F(1, 2), proto), (F(1, 2), proto)))
    det = det_params(2, 2)
    calls = (lambda: lift_randomized(proto, IP2, 0, det),
             lambda: enumerate_output_distribution(proto, IP2, 0, det),
             lambda: lift_randomized_protocol(mix, IP2, 0, det),
             lambda: enumerate_randomized_protocol(mix, IP2, 0, det))
    for call in calls:
        with pytest.raises(DomainError, match="randomized-mode parameters"):
            call()


def test_step7_violation_leaves_rectangle_unchanged(monkeypatch):
    # No known input empties the silent side when it is conditioned on the
    # gadget outputs, so the branch is forced: every query step reports an
    # empty silent side and changes nothing.  On one-round protocols every
    # run that would have ended with its transcript then ends at step 7,
    # and the K-halt and truncation masses stay where they were.
    from liftsim.gadgets import Gadget
    parity2 = Gadget(2, [(x ^ y).bit_count() & 1 for x in range(4) for y in range(4)])
    parity4 = Gadget(4, [(x ^ y).bit_count() & 1 for x in range(16) for y in range(16)])
    rare = ProtocolTree(2, 2, PNode("A", tuple(1 if v == 15 else 0 for v in range(16)),
                                    (PLeaf("common"), PLeaf("rare"))))
    split = ProtocolTree(2, 4, PNode("A", tuple(0 if v < 241 else 1 for v in range(256)),
                                     (PLeaf("big"), PLeaf("small"))))

    def split_params(mode):
        return LiftingParams(eta=1, c=2, h=1, b=4, n=2, mode=mode, delta=F(2))

    cases = [(rare, parity2, rand_params(2, 2), det_params(2, 2)),
             (split, parity4, split_params("rand"), split_params("det"))]
    expected = []
    for proto, g, rnd, _ in cases:
        moved = Counter()
        for key, prob in enumerate_output_distribution(proto, g, 0, rnd).mass.items():
            moved[key if key.startswith("<") else "<VIOLATION:step7>"] += prob
        expected.append(dict(moved))
    assert expected[0] == {ERROR_K: F(1, 16), "<VIOLATION:step7>": F(15, 16)}
    assert expected[1] == {ERROR_TRUNCATION: F(1, 256), "<VIOLATION:step7>": F(255, 256)}

    before = []

    def emptied(self, rec):
        before.append(self.sets)
        return False

    monkeypatch.setattr(simulate._Engine, "query_and_condition", emptied)
    for (proto, g, rnd, det), want in zip(cases, expected):
        assert enumerate_output_distribution(proto, g, 0, rnd).mass == want
        res = lift_deterministic(proto, g, 0, det)
        assert (res.status, res.violation[:6]) == ("invariant_violation", "step5:")
        assert (res.xset, res.yset) == before[-1]
        for seed in range(3):
            res = lift_randomized(proto, g, 0, rnd, seed=seed)
            assert res.status == "invariant_violation"
            assert res.violation == "step7: conditioning emptied the silent side"
            assert (res.xset, res.yset) == before[-1]
            # Alice's side is cut by the message and the class, Bob's is never conditioned
            assert len(res.xset) < proto.input_size and len(res.yset) == proto.input_size
            assert len(res.rounds) == 1 and "end" not in res.rounds[0].snapshots
            assert ledger_assertions(res, rnd).rounds[0].index == 1


def test_query_count_bookkeeping():
    # telescoping the ledger: when every round's decrease clause applied,
    # 2^((1-delta-2/b)*b*Q) <= product of per-round increase ratios, which
    # bounds total queries by the communication spent
    from liftsim.exact import cmp_products
    from ledger_oracle import _dval
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


# A trace's keys: SimResult's fields but xset, yset and component, plus
# total_queries and final_rectangle; a round's are RoundRecord's fields, its
# snapshots written as deficiency_snapshots.
TRACE_KEYS = ["depth", "final_rectangle", "k_product", "output", "queries", "rho", "rounds",
              "status", "total_queries", "transcript", "violation"]
ROUND_KEYS = ["class_index", "dangerous_values", "deficiency_snapshots", "delta_witness",
              "discarded_mass", "fixed_value", "flags", "free_before", "heavy_value_prob",
              "index", "message", "p_class", "p_geq", "p_message", "query_coords", "speaker",
              "step5_prob"]


def test_trace_keys_pinned():
    proto = canonical_instance(parity_problem(2), IP2)
    det = lift_deterministic(proto, IP2, 2, det_params(2, 2))
    rand = lift_randomized(proto, IP2, 1, rand_params(2, 2), seed=0)
    assert rand.rounds[0].class_index == 2  # the run drew a partition class
    for res in (det, rand):
        doc = json.loads(res.to_json())
        assert sorted(doc) == TRACE_KEYS
        assert sorted(doc["final_rectangle"]) == ["x_size", "y_size"]
        assert len(doc["rounds"]) == 4
        for rnd in doc["rounds"]:
            assert sorted(rnd) == ROUND_KEYS
            for snap in rnd["deficiency_snapshots"].values():
                assert sorted(snap) == ["free", "maxp_x", "maxp_y"]


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
                           delta=F(2))
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
                             eps=F(1, 8), delta=F(1, 4))

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


def _two_rounds():
    """(protocol, params): an ip2 n=2 protocol, found by a seeded search over
    random two-round protocols, whose second round scans a marginal that is
    no product; at z = 01 the values (1, 2) and (3, 3) are sparsifying there
    but not leaking."""
    p = ProtocolTree(2, 2, PNode("A", _bits("0100000111100101"), (
        PNode("B", _bits("0110011100011000"), (PLeaf(1), PLeaf(0))),
        PNode("B", _bits("0111001000101011"), (PLeaf(1), PLeaf(1))))))
    return p, LiftingParams(eta=1, c=2, h=1, b=2, n=2, mode="det", eps=F(1, 4), delta=F(1, 4))


def test_discard_step_matches_per_value_scans(monkeypatch):
    # Every value the engines classify gets the verdict of the brute-force
    # per-value oracles against the same silent marginal.  In round 2 of the ip2
    # protocol below (found by a seeded search over random two-round
    # protocols), the values (1, 2) and (3, 3) are sparsifying but not
    # leaking, so the sparsifying half of the scan decides part of the trace.
    seen = Counter()

    class Checked(DangerScan):
        def __init__(self, y, g, delta_y, eps, *, coord_limit):
            super().__init__(y, g, delta_y, eps, coord_limit=coord_limit)
            self.args = (y, g, delta_y, eps, coord_limit)

        def dangerous_among(self, values):
            got = super().dangerous_among(values)
            assert got <= set(values)
            y, g, delta_y, eps, limit = self.args
            for x_val in values:
                leak = oracle_is_leaking(x_val, y, g, limit).flagged
                spars = oracle_is_sparsifying(x_val, y, g, delta_y, eps, g.b, limit).flagged
                assert (x_val in got) == (leak or spars), x_val
                seen["leaking" if leak else "sparsifying only" if spars else "safe"] += 1
            return got

    monkeypatch.setattr(simulate, "DangerScan", Checked)
    p, params = _two_rounds()
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
    # cache per run and of a cache that keeps nothing (every memoised method
    # replaced by the function it wraps, so each entry is rebuilt at each
    # use), and builds each (side, silent, free) DangerScan once.
    # The canonical protocols speak A first and their mirrors B first, so
    # both sides scan the same (silent, free); rand:2:2 is not symmetric,
    # so the two sides' scans differ.
    built, scanned = Counter(), set()

    class Counted(DangerScan):
        def __init__(self, y, g, *args, **kw):
            super().__init__(y, g, *args, **kw)
            built["scans"] += 1
            scanned.add(g.name)

    def keeps_nothing(g, params):
        cache = simulate._EngineCache(g, params)
        for name, value in list(vars(cache).items()):
            if hasattr(value, "cache_info"):
                setattr(cache, name, value.__wrapped__)
        return cache

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
        scanned.clear()
        assert runs(protocols, g, det, rnd, det_cache, rnd_cache) == rebuilt
        contexts = [cache.context.cache_info() for cache in (det_cache, rnd_cache)]
        assert built["scans"] == sum(info.currsize for info in contexts)
        assert all(info.hits > 0 for info in contexts), contexts
        assert fresh_scans > 10 * built["scans"], (fresh_scans, built)
        assert scanned == {name, name + "^T"}


def test_deterministic_runs_leave_no_reference_cycles():
    # The engine cache's memos and a danger scan's memos hold their owner
    # through a weak proxy, so everything a run builds, its own cache
    # included, is freed when the run returns rather than at the next cyclic
    # collection.  A shared cache still answers after the run that built it,
    # and its first-round scan keeps the closed form the runs read.
    proto = canonical_instance(parity_problem(3), IP2)
    params = det_params(2, 3)
    shared = simulate._EngineCache(IP2, params)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for z in range(8):
            ledger_assertions(lift_deterministic(proto, IP2, z, params), params)
            lift_deterministic(proto, IP2, z, params, cache=shared)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert shared.context.cache_info().hits > 0
    inputs, free = tuple(range(64)), (0, 1, 2)
    scan = shared.context(0, inputs, free)[1]
    assert vars(scan)["_product_form"] is not None
    assert shared.marginal(inputs, free).product_test is not None
    values = shared.marginal(inputs, free).domain
    assert scan.dangerous_among(values) == {
        x for x in values if scan.witness("dangerous", x) is not None}
    assert shared.maxprob(inputs, free) == shared.marginal(inputs, free).maxprob()


def test_randomized_runs_leave_no_reference_cycles():
    # The randomized walk is one loop over an explicit stack of branches, so
    # a sampled run or an enumeration frees what it builds when it returns.
    # A recursive walk generator that referred to itself through its closure
    # left 48 objects in cycles over the four sampled runs below and 32 over
    # the four enumerations.  The scans of a shared cache keep their closed
    # form across runs, and still answer after them.
    proto = canonical_instance(parity_problem(2), IP2)
    params = rand_params(2, 2)
    shared = simulate._EngineCache(IP2, params)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for z in range(4):
            lift_randomized(proto, IP2, z, params, seed=z)
        assert gc.collect() == 0
        for z in range(4):
            enumerate_output_distribution(proto, IP2, z, params)
        assert gc.collect() == 0
        for z in range(4):
            lift_randomized(proto, IP2, z, params, seed=z, cache=shared)
            enumerate_output_distribution(proto, IP2, z, params, cache=shared)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    hits = shared.context.cache_info().hits
    scan = shared.context(0, tuple(range(16)), (0, 1))[1]
    assert shared.context.cache_info().hits == hits + 1
    assert vars(scan)["_product_form"] is not None
    values = list(product(range(4), repeat=2))
    assert scan.dangerous_among(values) == {
        x for x in values if scan.witness("dangerous", x) is not None}


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
        # at levels <= 0 every marginal is dense
        delta = rng.choice([F(-1), F(0), F(1, 4), F(1, 2), F(1)])
        dense = cache.dense(inputs, free, delta)
        assert dense == is_dense(marg, delta, 2).dense
        assert cache.partition(inputs, free) == density_restoring_partition(marg, params.delta, 2)
        side = rng.randrange(2)
        witness, scan = cache.context(side, inputs, free)
        assert witness == max_density(marg, 2, simulate.DENSITY_WITNESS_BITS)[0]
        gad = g.transpose() if side else g
        for x in product(range(4), repeat=len(free)):
            assert scan.dangerous(x) == is_dangerous(x, marg, gad, witness, params.eps)
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
                           eps=F(1, 4), delta=F(1, 2))
    for z in range(4):
        res = lift_deterministic(p, IP2, z, params)
        rec = res.rounds[0]
        assert (rec.free_before, rec.query_coords, rec.fixed_value) == ((0, 1), (1,), (3,))
        assert rec.snapshots["after_message"][2] == F(1, 5)
        assert rec.snapshots["after_fix"][2] == F(1, 3)
        assert [blocks_of(v, 2, 2) for v in res.yset] == [(1, 3), (2, 3), (3, 3)]


RANDOMIZED_PIN = "a034831e9a8146ae99a4adcbd75c7d5f6e4675e9854b08771d012a0575680315"


def test_randomized_engines_pinned():
    # Sampled traces, exact enumerations and mixtures of both randomized
    # engines, hashed: the shipped ip2 n=2 problems for every z, the parity-3
    # ip2 n=3 protocol, and the truncation, K-halt and step-1 protocols of the
    # tests above.  Seed 68 is the first seed whose sampled run of the
    # 241/15 split ends in a truncation halt (none of seeds 0-67 does).
    from liftsim.gadgets import Gadget
    lines, statuses, keys = [], Counter(), set()

    def record(res, params):
        statuses[res.status] += 1
        lines.extend((_checked_json(res), repr((res.xset, res.yset, res.component)),
                      repr(ledger_assertions(res, params))))

    def enumerated(dist):
        keys.update(k for k, w in dist.weights.items() if w)
        lines.append(repr((list(dist.weights.items()), dist.total)))

    def runs(proto, g, params, zs, seeds):
        cache = simulate._EngineCache(g, params)
        for z in zs:
            enumerated(enumerate_output_distribution(proto, g, z, params, cache=cache))
            for seed in seeds:
                record(lift_randomized(proto, g, z, params, seed=seed, cache=cache), params)

    shipped = [canonical_instance(problem, IP2) for problem in (
        parity_problem(2), index_problem(2), first_bit_problem(2), find_one_problem(2))]
    for proto in shipped:
        runs(proto, IP2, rand_params(2, 2), range(4), range(5))
    runs(canonical_instance(parity_problem(3), IP2), IP2, rand_params(2, 3), range(8), (0, 1))
    parity4 = Gadget(4, [(x ^ y).bit_count() & 1 for x in range(16) for y in range(16)])
    split = ProtocolTree(2, 4, PNode("A", tuple(0 if v < 241 else 1 for v in range(256)),
                                     (PLeaf("big"), PLeaf("small"))))
    runs(split, parity4, LiftingParams(eta=1, c=2, h=1, b=4, n=2, mode="rand",
                                       delta=F(2)), (0,), (0, 68))
    parity2 = Gadget(2, [(x ^ y).bit_count() & 1 for x in range(4) for y in range(4)])
    rare = ProtocolTree(2, 2, PNode("A", tuple(1 if v == 15 else 0 for v in range(16)),
                                    (PLeaf("common"), PLeaf("rare"))))
    runs(rare, parity2, rand_params(2, 2), range(4), range(0, 60, 4))
    alice = PNode("A", (0, 0, 1, 1), (PLeaf(0), PLeaf(0)))
    step1 = ProtocolTree(2, 1, PNode("B", (1, 0, 0, 1), (alice, PLeaf(1))))
    runs(step1, XOR, LiftingParams(eta=1, c=2, h=1, b=1, n=2, mode="rand", eps=F(1, 8),
                                   delta=F(1, 4)), range(4), (0, 1))
    mix = RandomizedProtocol(((F(1, 3), shipped[0]), (F(2, 3), shipped[3])))
    for z in range(4):
        enumerated(enumerate_randomized_protocol(mix, IP2, z, rand_params(2, 2)))
        for seed in range(4):
            record(lift_randomized_protocol(mix, IP2, z, rand_params(2, 2), seed=seed),
                   rand_params(2, 2))
    assert set(statuses) == {"done", "error_halt_k", "error_halt_truncation",
                             "invariant_violation"}, statuses
    assert {ERROR_K, ERROR_TRUNCATION, "<VIOLATION:step1>"} <= keys
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == (RANDOMIZED_PIN, 583)


IP3_ENUMERATION_PIN = "7f00759834f06393d35870d8cdbdcf4a452bcb337139f72a469863306a61d6f6"


def test_ip3_enumeration_pinned():
    # The exact enumeration past the corpus's b=2: parity-3 composed with
    # ip3, n=3, z=0, standard randomized parameters.  Every one of the 343
    # runs ends with its own transcript, each of weight 1 over a total of 343
    # (no error mass); the weights are hashed in domain order.
    g = gadgets._ip_gadget(3)
    dist = enumerate_output_distribution(canonical_instance(parity_problem(3), g), g, 0,
                                         rand_params(3, 3))
    items = list(dist.weights.items())
    assert (len(items), dist.total) == (343, 343)
    digest = hashlib.sha256(repr((items, dist.total)).encode()).hexdigest()
    assert digest == IP3_ENUMERATION_PIN


def _det_traces_digest(g, n):
    """(sha256 of the deterministic traces of parity-n composed with g, every
    z in order through one engine cache, that cache)."""
    params = det_params(g.b, n)
    proto = canonical_instance(parity_problem(n), g)
    cache = simulate._EngineCache(g, params)
    traces = [_checked_json(lift_deterministic(proto, g, z, params, cache=cache))
              for z in range(1 << n)]
    return hashlib.sha256("\n".join(traces).encode()).hexdigest(), cache


def _checked_json(res):
    """res.to_json(), checked byte for byte against json.dumps of its trace."""
    text = res.to_json()
    assert text == json.dumps(res.to_obj(), sort_keys=True, indent=2)
    return text


@pytest.mark.parametrize("name, n", [("ip2", 2), ("ip3", 3)])
def test_trace_writer_matches_json_dumps(name, n):
    # the traces of the ip2 n=2 and ip3 n=3 parity lifts, deterministic for
    # every z and sampled for two seeds, as json.dumps writes them
    g = builtin_gadget(name) if name == "ip2" else gadgets._ip_gadget(3)
    proto = canonical_instance(parity_problem(n), g)
    for z in range(1 << n):
        _checked_json(lift_deterministic(proto, g, z, det_params(g.b, n)))
        for seed in (0, 1):
            _checked_json(lift_randomized(proto, g, z, rand_params(g.b, n), seed=seed))


IP2_DET_TRACES_PINS = {
    3: "ac76414f4da8f350fc895c87e588c4536749bb686109aa7b17ad5793578799ab",
    4: "67c248546d07c2fd8709823f80a70de0aa111af4098640ecd0a4ca6d4045aeea",
}


@pytest.mark.parametrize("n", sorted(IP2_DET_TRACES_PINS))
def test_ip2_deterministic_traces_pinned(n):
    # the lift_det_n3 bench workload's traces, and at n=4 a first round with
    # four free coordinates
    assert _det_traces_digest(IP2, n)[0] == IP2_DET_TRACES_PINS[n]


IP4_DET_TRACES_PIN = "7ec992db581b4cc89fca1069ffd83af6d482f1af86313a458baf577783167ce4"


def test_ip4_deterministic_traces_pinned():
    # Parity-3 composed with ip4, n=3.  The first round scans all 16^3 =
    # 4,096 silent inputs.  That Y is uniform, a product, so the lift reads
    # its verdicts in closed form; the table walk over row bitmasks, asked
    # through `witness`, gives the same verdict on every x.
    digest, cache = _det_traces_digest(gadgets._ip_gadget(4), 3)
    hits = cache.context.cache_info().hits
    scan = cache.context(0, tuple(range(4096)), (0, 1, 2))[1]  # the first round's
    assert cache.context.cache_info().hits == hits + 1
    assert len(scan.rows) == 1 << 12
    assert scan._product_form is not None
    verdicts = Counter()
    for x in product(range(16), repeat=3):
        assert scan.dangerous(x) == (scan.witness("dangerous", x) is not None), x
        verdicts[scan.dangerous(x)] += 1
    assert set(verdicts) == {False, True}, verdicts
    assert digest == IP4_DET_TRACES_PIN


IP4_N4_DET_TRACE_PIN = "a75c707af39a71633dff0ea86a08c583ed70efa6f601411f0a30275687f9621a"


def test_ip4_n4_deterministic_trace_pinned():
    # parity-4 composed with ip4, n=4, z=0: the first round's silent side
    # holds all 16^4 = 65,536 inputs.  Its verdicts are read in closed form,
    # so no table is indexed, and conditioning the whole universe builds the
    # kept inputs block by block.  The digest was computed on the table walk,
    # which took about 17 s a run.
    g = gadgets._ip_gadget(4)
    params = det_params(4, 4)
    cache = simulate._EngineCache(g, params)
    res = lift_deterministic(canonical_instance(parity_problem(4), g), g, 0, params, cache=cache)
    scan = cache.context(0, tuple(range(1 << 16)), (0, 1, 2, 3))[1]
    assert scan._product_form is not None and scan.index.cache_info().misses == 0
    assert hashlib.sha256(_checked_json(res).encode()).hexdigest() == IP4_N4_DET_TRACE_PIN


def _round_starts(node, speaker=None):
    """The nodes of a protocol tree where a round begins, in preorder."""
    if isinstance(node, PLeaf):
        return []
    here = [node] if node.speaker != speaker else []
    return here + [start for child in node.children for start in _round_starts(child, node.speaker)]


def round_message(node, v):
    """The per-input oracle of message_distribution: (bits the speaker of
    `node` sends on input v in the round starting there, end node)."""
    cur, msg = node, []
    while isinstance(cur, PNode) and cur.speaker == node.speaker:
        bit = cur.bits[v]
        msg.append(str(bit))
        cur = cur.children[bit]
    return "".join(msg), cur


STEP_CASES = ((IP2, parity_problem(2)), (IP2, parity_problem(3)),
              (gadgets._ip_gadget(3), parity_problem(3)))


def test_message_split_matches_per_input_walks():
    # message_distribution walks each node of a round once with the inputs
    # that reach it.  The oracle walks the round once per input
    # (round_message) and groups the inputs by message in set order, as
    # take_message's filter kept them; the table weighs each message by its
    # inputs, in lexicographic order.  The mirrored protocols put B's rounds
    # first.
    rng = random.Random(15)
    shapes = Counter()
    for g, problem in STEP_CASES:
        proto = canonical_instance(problem, g)
        size = proto.input_size
        for root in (proto.root, mirror(proto.root)):
            starts = _round_starts(root)
            for node in rng.sample(starts, min(10, len(starts))):
                for count in (1, 3, size // 3, size):
                    inputs = tuple(rng.sample(range(size), count))
                    table, parts, ends = message_distribution(node, inputs)
                    want, want_ends = {}, {}
                    for v in inputs:
                        message, end = round_message(node, v)
                        want.setdefault(message, []).append(v)
                        want_ends[message] = end
                    assert {w: list(vs) for w, vs in parts.items()} == want
                    assert all(ends[w] is want_ends[w] for w in want) and ends.keys() == want.keys()
                    assert table.weights == {w: len(want[w]) for w in sorted(want)}
                    assert list(table.weights) == sorted(want) and table.total == len(inputs)
                    shapes[node.speaker, "one message" if len(want) == 1 else "split"] += 1
    assert set(shapes) == {(s, m) for s in "AB" for m in ("one message", "split")}, shapes


def test_preimage_conditioning_matches_per_input_eval():
    # query_and_condition keeps a silent input iff, at each queried
    # coordinate, its block is one the speaker's gadget row of the fixed
    # block maps to the z-bit.  The oracle evaluates the gadget on every input's
    # blocks, with the speaker's block first (the transpose when B speaks);
    # rand:2:2 is the asymmetric gadget.  A step that would empty the silent
    # side leaves it.  The last 30 trials of each case condition the whole
    # universe, which the engine builds as a product of allowed blocks; there
    # selecting one queried coordinate at a time (_select) is a second oracle.
    rng = random.Random(15)
    outcomes = Counter()
    cases = [(g, problem.n) for g, problem in STEP_CASES] + [(builtin_gadget("rand:2:2"), 2)]
    for g, n in cases:
        params = det_params(g.b, n)
        cache = simulate._EngineCache(g, params)
        size = 1 << (g.b * n)
        for trial in range(90):
            side = rng.randrange(2)
            gad = g.transpose() if side else g
            eng = simulate._Engine(ProtocolTree(n, g.b, PLeaf(0)), g, rng.randrange(1 << n),
                                   params, cache)
            whole = trial >= 60
            silent = (tuple(range(size)) if whole
                      else tuple(sorted(rng.sample(range(size), rng.randint(1, size)))))
            eng.sets = (eng.sets[0], silent) if side == 0 else (silent, eng.sets[1])
            coords = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            rec = RoundRecord(1, "AB"[side], tuple(range(n)), query_coords=coords,
                              fixed_value=tuple(rng.randrange(g.side) for _ in coords))
            checks = list(zip(coords, rec.fixed_value, simulate.z_bits(eng.z, n, coords)))
            want = tuple(w for w in silent
                         if all(gad.eval(xb, blocks_of(w, n, g.b)[i]) == bit
                                for i, xb, bit in checks))
            assert eng.query_and_condition(rec) == bool(want)
            assert eng.sets[1 - side] == (want or silent)
            assert rec.step5_prob == F(len(want), len(silent))
            if whole:
                selected = silent
                for i, xb, bit in checks:
                    allowed = {(y,) for y in range(g.side) if gad.table[xb * g.side + y] == bit}
                    selected = simulate._select(selected, simulate._free_keys(n, g.b, (i,)),
                                                allowed)
                assert selected == want
            outcomes[side, "emptied" if not want else "kept all" if want == silent
                     else "cut", whole] += 1
    assert set(outcomes) == {(s, o, whole) for s in (0, 1) for o in ("emptied", "kept all", "cut")
                             for whole in (False, True)}, outcomes


def test_density_is_read_off_one_worst_marginal_per_side(monkeypatch):
    # A lift decides both density questions of a round, the invariant flags
    # and the danger scan's level, from the cache's one worst marginal per
    # (inputs, free): it calls neither is_dense nor max_density, and runs
    # _worst_marginal once per (inputs, free) it asks about.
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("is_dense", "max_density", "_worst_marginal"):
        wrapper = counted(name, getattr(structure, name))
        for module in (structure, simulate):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    params = det_params(2, 3)
    cache = simulate._EngineCache(IP2, params)
    res = lift_deterministic(canonical_instance(parity_problem(3), IP2), IP2, 0b101, params,
                             cache=cache)
    assert res.status == "done" and len(res.rounds) > 1
    assert (calls["is_dense"], calls["max_density"]) == (0, 0)
    asked = cache.worst.cache_info()
    assert calls["_worst_marginal"] == asked.currsize > 0 and asked.hits > 0


def test_product_test_runs_once_per_marginal(monkeypatch):
    # A lift runs the product test once per (inputs, free) it asks about:
    # the result is kept on the marginal's table, and the worst marginal and
    # the danger scan built on that table read the one result, whether the
    # marginal is a product (the whole universe of round one, read in closed
    # form) or not.
    results = Counter()

    def counted(k, rows, total, _test=structure._product_marginals):
        margs = _test(k, rows, total)
        results[margs is not None] += 1
        return margs

    monkeypatch.setattr(structure, "_product_marginals", counted)
    asked = 0
    for proto, params in (_two_rounds(),
                          (canonical_instance(parity_problem(3), IP2), det_params(2, 3))):
        cache = simulate._EngineCache(IP2, params)
        for z in range(1 << proto.n):
            assert lift_deterministic(proto, IP2, z, params, cache=cache).status == "done"
        assert cache.context.cache_info().currsize > 0
        asked += cache.worst.cache_info().currsize
    assert sum(results.values()) == asked
    assert results[True] > 0 and results[False] > 0, results


def test_every_lifting_core_memo_is_reused(monkeypatch):
    # each lru_cache memo of DangerScan and _EngineCache is hit on the scale-10
    # corpus or on one ip2 n=3 parity lift: a memo no traffic reuses only costs.
    # The corpus runs one section at a time, each in this process (run_corpus
    # forks no child for a single section), so every memo here is seen
    from liftsim.verify import CorpusSpec, default_corpus_spec, run_corpus
    made = []
    for cls in (DangerScan, simulate._EngineCache):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made.append(self)
        monkeypatch.setattr(cls, "__init__", init)

    def hits():
        out = Counter()
        for obj in made:
            for name, memo in vars(obj).items():
                if hasattr(memo, "cache_info"):
                    out[type(obj).__name__, name] += memo.cache_info().hits
        made.clear()
        return out

    spec = default_corpus_spec(scale=10)
    for key in CorpusSpec._fields[1:]:
        if getattr(spec, key):
            run_corpus(CorpusSpec(seed=spec.seed, **{key: getattr(spec, key)}))
    corpus = hits()
    proto = canonical_instance(parity_problem(3), IP2)
    lift_deterministic(proto, IP2, 0b101, det_params(2, 3))
    lift = hits()
    memos = set(corpus) | set(lift)
    assert {cls for cls, _ in memos} == {"DangerScan", "_EngineCache"}
    assert [m for m in sorted(memos) if not corpus[m] and not lift[m]] == []
