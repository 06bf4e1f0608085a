"""The deficiency ledger on integers against its Fraction oracle.

`simulate.ledger_assertions` carries each snapshot as an int (num, den) pair
and decides its clauses on ints or with `cmp_pow2_ratio`; the oracle
(`ledger_oracle.ledger_assertions`) is the same ledger on Fractions and
`cmp_products`.  Both must give the same report, `repr` included (the order
of the clause and precondition dicts, and None for a clause left unchecked).
"""

import copy
import random
from collections import Counter
from fractions import Fraction as F

import ledger_oracle

import liftsim.verify as verify
from liftsim import simulate
from liftsim.dtrees import brute_force_Ddt, parity_problem
from liftsim.gadgets import Gadget, builtin_gadget
from liftsim.protocols import PLeaf, PNode, ProtocolTree, canonical_protocol
from liftsim.simulate import LiftingParams, ledger_assertions, lift_deterministic

IP2 = builtin_gadget("ip2")


def _all_runs(proto, g, params, zs):
    """Every run of the randomized walk for each z, each sampled run among them."""
    cache = simulate._EngineCache(g, params)
    return [(res, params) for z in zs
            for _, _, res in simulate._randomized_runs(proto, g, z, params, cache,
                                                       lambda path, probs: range(len(probs)))]


def _traces(monkeypatch):
    """(result, params) of every trace the lifting section hands the ledger,
    every run of the randomized-pin protocols, and parity-3 with ip2 at n=3."""
    traces = []

    def recording(res, params):
        traces.append((res, params))
        return ledger_assertions(res, params)

    monkeypatch.setattr(verify, "ledger_assertions", recording)
    verify._section_lifting(2024)
    rnd2 = LiftingParams.standard(b=2, n=2, mode="rand")
    for _, problem in verify.shipped_problems():
        traces += _all_runs(canonical_protocol(brute_force_Ddt(problem)[1], IP2), IP2, rnd2,
                            range(4))
    parity3 = canonical_protocol(brute_force_Ddt(parity_problem(3))[1], IP2)
    det3 = LiftingParams.standard(b=2, n=3, mode="det")
    traces += [(lift_deterministic(parity3, IP2, z, det3), det3) for z in range(8)]
    traces += _all_runs(parity3, IP2, LiftingParams.standard(b=2, n=3, mode="rand"), range(8))
    parity4 = Gadget(4, [(x ^ y).bit_count() & 1 for x in range(16) for y in range(16)])
    split = ProtocolTree(2, 4, PNode("A", tuple(0 if v < 241 else 1 for v in range(256)),
                                     (PLeaf("big"), PLeaf("small"))))
    traces += _all_runs(split, parity4, LiftingParams(eta=1, c=2, h=1, b=4, n=2, mode="rand",
                                                      delta=F(2)), (0,))
    parity2 = Gadget(2, [(x ^ y).bit_count() & 1 for x in range(4) for y in range(4)])
    rare = ProtocolTree(2, 2, PNode("A", tuple(1 if v == 15 else 0 for v in range(16)),
                                    (PLeaf("common"), PLeaf("rare"))))
    traces += _all_runs(rare, parity2, rnd2, range(4))
    step1 = ProtocolTree(2, 1, PNode("B", (1, 0, 0, 1), (
        PNode("A", (0, 0, 1, 1), (PLeaf(0), PLeaf(0))), PLeaf(1))))
    traces += _all_runs(step1, builtin_gadget("xor1"), LiftingParams(
        eta=1, c=2, h=1, b=1, n=2, mode="rand", eps=F(1, 8), delta=F(1, 4)),
        range(4))
    return traces


def _perturbed(res, rng):
    """A copy of res with seeded changes to its snapshots, probabilities,
    flags, message and query sets (maxprobs stay positive)."""
    out = copy.deepcopy(res)
    for rec in out.rounds:
        for name, (free, mpx, mpy) in list(rec.snapshots.items()):
            if rng.random() < 0.4:
                rec.snapshots[name] = (free, mpx * F(2) ** rng.randint(-12, 12),
                                       mpy * F(rng.randint(1, 9), rng.randint(1, 9)))
        if rng.random() < 0.5:
            rec.p_message = F(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            rec.p_geq = rng.choice((None, F(1, 10 ** 6), F(rng.randint(1, 9), rng.randint(1, 9))))
        if rng.random() < 0.3:
            rec.discarded_mass = F(rng.randint(0, 4), 4)
        if rng.random() < 0.3:
            rec.message = "0" * rng.randint(0, 4)
        if rng.random() < 0.3:
            rec.query_coords = tuple(range(rng.randint(0, 3)))
        for flag in ("kraft_heavy", "heavy_value", "nonleaking_event"):
            if rng.random() < 0.3:
                rec.flags[flag] = rng.random() < 0.5
    return out


CLAUSES = ("discard_increase_le_1_bit", "message_increase_le_len", "message_increase_le_log",
           "steps12_increase_le_log_plus_1", "fix_increase_lt_delta_b_I",
           "partition_increase_bound", "query_decrease_ge_b_I", "net_decrease_det",
           "net_decrease_rand", "net_decrease_rand_alt_delta_reading")
PRECONDITIONS = ("discard_at_most_half", "kraft_heavy", "nonleaking_event", "heavy_value",
                 "trunc_ok", "slack_ok", "deficiency_nonnegative")


def test_integer_ledger_matches_fraction_oracle(monkeypatch):
    # On the traces alone no clause comes out False, so each trace is also
    # perturbed three times (seeded) until every clause and every
    # precondition has come out both True and False.
    traces = _traces(monkeypatch)
    seen = Counter()

    def compare(res, params):
        report = ledger_assertions(res, params)
        assert repr(report) == repr(ledger_oracle.ledger_assertions(res, params))
        seen["deficiency_nonnegative", report.deficiency_nonnegative] += 1
        for rl in report.rounds:
            for name, verdict in {**rl.checks, **rl.preconditions}.items():
                seen[name, verdict] += 1

    for res, params in traces:
        compare(res, params)
    assert len(traces) > 300
    assert not [name for name in CLAUSES if seen[name, False]], seen
    rng = random.Random(15)
    for res, params in traces:
        for _ in range(3):
            compare(_perturbed(res, rng), params)
    assert {name for name, _ in seen} == set(CLAUSES + PRECONDITIONS)
    missing = [(name, verdict) for name in CLAUSES + PRECONDITIONS
               for verdict in (True, False) if not seen[name, verdict]]
    assert not missing, (missing, seen)
