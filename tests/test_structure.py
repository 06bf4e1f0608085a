import gc
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from density_oracles import (
    oracle_density_restoring_choice,
    oracle_density_restoring_partition,
    oracle_density_witness,
)
from fraction_oracles import oracle_seeded_distribution
from scan_oracles import (
    oracle_is_biasing,
    oracle_is_leaking,
    oracle_is_skewing,
    oracle_is_sparsifying,
    oracle_subsets,
)

from liftsim import simulate, structure
from liftsim.dist import DistributionTable, project
from liftsim.dtrees import brute_force_Ddt, parity_problem
from liftsim.errors import BudgetError, DomainError
from liftsim.exact import cmp_pow2, cmp_products, exact_log2
from liftsim.gadgets import Gadget, builtin_gadget, random_gadget
from liftsim.protocols import canonical_protocol
from liftsim.simulate import LiftingParams
from liftsim.structure import (
    SCAN_COORD_LIMIT,
    DangerScan,
    Restriction,
    StructureCertificate,
    StructureRefusal,
    Verdict,
    _density_parts,
    dangerous_probability,
    density_restoring_fix,
    density_restoring_partition,
    is_biasing,
    is_dangerous,
    is_dense,
    is_leaking,
    is_skewing,
    is_sparsifying,
    is_structured,
    max_density,
)

AND = builtin_gadget("and1")
XOR = builtin_gadget("xor1")
IP2 = builtin_gadget("ip2")

U3 = DistributionTable.uniform([(0, 0), (0, 1), (1, 0)])  # b=1, n=2


def rand_block_table(rng, n, b):
    universe = list(product(range(1 << b), repeat=n))
    weights = {t: rng.randrange(9) for t in universe}
    if not any(weights.values()):
        weights[universe[0]] = 1
    d = DistributionTable.from_weights(weights)
    return d.condition(d.support())


def test_restriction():
    r = Restriction("0*1")
    assert r.free() == (1,) and r.fixed() == (0, 2)
    assert r.consistent_with(0b001) and not r.consistent_with(0b101)
    r2 = r.fix((1,), (1,))
    assert r2.cells == "011"
    with pytest.raises(DomainError):
        r2.fix((0,), (0,))
    with pytest.raises(DomainError):
        Restriction("0x1")
    # a coordinate outside [0, n) is refused: -2 used to fix cell 0 of '*1',
    # and 2 raised a raw IndexError
    for i in (-2, -1, 2, 5):
        with pytest.raises(DomainError):
            Restriction("*1").fix((i,), (0,))


def test_is_dense_examples():
    u = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    assert is_dense(u, F(1), 1).dense
    const = DistributionTable.uniform([(0, 0), (0, 1)])
    w = is_dense(const, F(1, 2), 1)
    assert w.violating_set == (0,) and w.witness_maxprob == 1
    w = is_dense(U3, F(1), 1)
    assert w.violating_set == (0,) and w.witness_maxprob == F(2, 3)


def test_max_density_examples():
    u = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    assert max_density(u, 1) == (1, 1)
    pm = DistributionTable.point((0, 0))
    lo, hi = max_density(pm, 1)
    assert lo == 0 and hi <= F(1, 2 ** 20)
    lo, hi = max_density(U3, 1)
    # sup is log2(3/2)/1 = 0.58496...
    assert float(lo) <= 0.5849625 <= float(hi)
    assert hi - lo <= F(1, 2 ** 20)
    # the lower bracket is itself a certified density level
    assert is_dense(U3, lo, 1).dense
    assert not is_dense(U3, hi, 1).dense


def test_is_structured_certificate_and_refusals():
    n, b = 2, 1
    full = DistributionTable.uniform(list(product((0, 1), repeat=n)))
    rho = Restriction.all_free(n)
    cert = is_structured(full, full, rho, F(2), XOR)
    assert isinstance(cert, StructureCertificate)
    assert cert.delta_x == cert.delta_y == 1

    # inconsistent fixed block
    rho_fixed = Restriction("1*")
    xs = DistributionTable.point((0, 0), domain=list(product((0, 1), repeat=2)))
    ys = full
    ref = is_structured(project(xs, (1,)), project(ys, (1,)), rho_fixed, F(1), AND,
                        x_full=xs, y_full=ys)
    assert isinstance(ref, StructureRefusal)
    assert ref.reason == "fixed-block consistency"  # and(0, y) is never 1

    # tau beyond the reachable density sum
    ref = is_structured(U3, full, rho, F(19, 10), XOR)
    assert isinstance(ref, StructureRefusal)
    assert ref.reason == "density sum"

    # certificate re-verification: both sides dense at the emitted levels
    cert = is_structured(U3, full, rho, F(3, 2), XOR)
    assert isinstance(cert, StructureCertificate)
    assert cert.delta_x + cert.delta_y >= F(3, 2)
    assert is_dense(U3, cert.delta_x, 1).dense
    assert is_dense(full, cert.delta_y, 1).dense


def test_certificate_reverification_sweep():
    # every emitted certificate re-verifies: both deltas are exact density
    # levels and their sum reaches tau
    rng = random.Random(41)
    for _ in range(30):
        n, b = rng.choice([(2, 1), (2, 2)])
        x = rand_block_table(rng, n, b)
        y = rand_block_table(rng, n, b)
        g = XOR if b == 1 else IP2
        rho = Restriction.all_free(n)
        for tau in (F(1, 4), F(1, 2), F(1)):
            out = is_structured(x, y, rho, tau, g)
            if isinstance(out, StructureCertificate):
                assert out.delta_x > 0 and out.delta_y > 0
                assert out.delta_x + out.delta_y >= tau
                assert is_dense(x, out.delta_x, b).dense
                assert is_dense(y, out.delta_y, b).dense


def test_density_restoring_fix_examples():
    u = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    coords, value, rest = density_restoring_fix(u, F(1), 1)
    assert coords == () and rest is u

    const0 = DistributionTable.uniform([(0, 0), (0, 1)])
    coords, value, rest = density_restoring_fix(const0, F(1, 2), 1)
    assert 0 in coords
    assert is_dense(rest, F(1, 2), 1).dense

    coords, value, rest = density_restoring_fix(U3, F(1), 1)
    assert coords == (0, 1) and value == (0, 0)  # heaviest, lexicographically first
    assert is_dense(rest, F(1), 1).dense


def test_density_restoring_partition_guarantees():
    rng = random.Random(17)
    deltas = (F(1, 2), F(3, 4), F(1))
    cases = [U3, DistributionTable.point((1, 0), domain=list(product((0, 1), repeat=2)))]
    for _ in range(40):
        n, b = rng.choice([(2, 1), (3, 1), (2, 2)])
        cases.append(rand_block_table(rng, n, b))
    for d in cases:
        k = len(d.domain[0])
        b = 1 if max(max(t) for t in d.support()) < 2 else 2
        maxp = d.maxprob()
        for delta in deltas:
            parts = density_restoring_partition(d, delta, b)
            assert parts[0].p_geq == 1
            p_geqs = [p.p_geq for p in parts]
            assert all(p_geqs[i] > p_geqs[i + 1] for i in range(len(p_geqs) - 1))
            covered = []
            for part in parts:
                covered.extend(part.members)
                cond = d.condition(set(part.members))
                for i, v in zip(part.coords, part.value):
                    assert all(t[i] == v for t in cond.support())
                rest = tuple(i for i in range(k) if i not in part.coords)
                if rest:
                    reduced = project(cond, rest)
                    assert is_dense(reduced, delta, b).dense
                    lhs = reduced.maxprob() * part.p_geq
                else:
                    lhs = part.p_geq
                # cleared entropy bound through p_geq
                assert cmp_products(
                    lhs, (), maxp, [(2, delta * b * len(part.coords))]) <= 0
            assert sorted(covered) == list(d.support())


def _density_sweep():
    """Seeded tables over shapes up to (4, 2) and (3, 3), each with its
    zero-weight rows kept and dropped; the two largest shapes once on the
    full universe and then on seeded sub-supports.  Every other table has
    few distinct weights, so that ties are common.  Yields (table, b)."""
    rng = random.Random(12)
    shapes = {(1, 1): 6, (2, 1): 6, (3, 1): 6, (4, 1): 4, (1, 2): 4, (2, 2): 6,
              (3, 2): 4, (2, 3): 3, (4, 2): 4, (3, 3): 4}
    for (n, b), count in shapes.items():
        universe = list(product(range(1 << b), repeat=n))
        for j in range(count):
            domain = universe
            if len(universe) > 64 and j:
                domain = sorted(rng.sample(universe, rng.randrange(8, 65)))
            d = oracle_seeded_distribution(rng, domain, 2 if j % 2 else 16)
            yield d, b
            yield d.condition(d.support()), b


def test_density_core_matches_reprojecting_oracles():
    deltas = (F(1, 4), F(1, 2), F(3, 4), F(1))
    seen = Counter()
    for d, b in _density_sweep():
        for delta in deltas:
            parts = density_restoring_partition(d, delta, b)
            oracle = oracle_density_restoring_partition(d, delta, b)
            assert [vars(p) for p in parts] == [vars(p) for p in oracle], (d, delta, b)
            choice = parts[0].coords, parts[0].value
            assert choice == oracle_density_restoring_choice(d, delta, b)
            w = is_dense(d, delta, b)
            got = None if w.dense else (w.violating_set, w.witness_maxprob)
            assert got == oracle_density_witness(d, delta, b)
            seen["multi-part" if len(parts) > 1 else "one part"] += 1
            seen["full set" if len(choice[0]) == len(d.domain[0]) else "partial set"] += 1
    assert min(seen.values()) >= 20, seen


def _det_lift_marginals(n):
    """Every free marginal that the deterministic lifts of the parity-n
    protocol with ip2 build, over all z, with the lifts' params."""
    built = []
    marginal = simulate._EngineCache.marginal

    def recorded(cache, inputs, free):
        built.append(marginal(cache, inputs, free))
        return built[-1]

    params = LiftingParams.standard(b=2, n=n)
    proto = canonical_protocol(brute_force_Ddt(parity_problem(n))[1], IP2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate._EngineCache, "marginal", recorded)
        cache = simulate._EngineCache(IP2, params)
        for z in range(1 << n):
            assert simulate.lift_deterministic(proto, IP2, z, params, cache).status == "done"
    return built, params.delta


def test_density_parts_match_the_choice_they_replace():
    # The partition's first class is the deterministic step-3 fix: the
    # oracle's (coords, value), with the oracle's projected probability of
    # that value; each part's p_geq is the weight not yet carved before it.
    cases = [(d, b, delta) for d, b in _density_sweep()
             for delta in (F(1, 4), F(1, 2), F(3, 4), F(1))]
    for n in (3, 4):
        marginals, delta = _det_lift_marginals(n)
        assert len(marginals) >= 4
        cases += [(d, 2, delta) for d in marginals]
    seen = Counter()
    for d, b, delta in cases:
        parts = list(_density_parts(d, delta, b))
        first = parts[0]
        coords, value = oracle_density_restoring_choice(d, delta, b)
        assert (first.coords, first.value) == (coords, value), (d, delta, b)
        assert first.prob == (project(d, coords).prob(value) if coords else 1)
        weights = [sum(d.weights[t] for t in part.members) for part in parts]
        assert [part.p_geq for part in parts] == [
            F(sum(weights[j:]), d.total) for j in range(len(parts))]
        seen["fixed" if coords else "dense"] += 1
        seen["multi-part" if len(parts) > 1 else "one part"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("call", ["is_dense", "max_density", "choice", "partition"])
def test_density_refuses_mixed_length_tuples(call):
    short_last = DistributionTable.uniform([(0, 0), (1,)])
    long_last = DistributionTable.uniform([(0,), (0, 1)])
    three = DistributionTable.uniform([(0,), (0, 1), (1, 1)])
    run = {
        "is_dense": lambda: [is_dense(d, 1, 1) for d in (short_last, long_last)],
        "max_density": lambda: max_density(short_last, 1),
        "choice": lambda: density_restoring_fix(three, F(1, 2), 1),
        "partition": lambda: density_restoring_partition(three, F(1, 2), 1),
    }[call]
    with pytest.raises(DomainError, match="block counts"):
        run()


def test_is_leaking_examples():
    uy = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    for x in product((0, 1), repeat=2):
        assert not is_leaking(x, uy, XOR).flagged
    v = is_leaking((0, 0), uy, AND)
    assert v.flagged  # and(0, y) never outputs 1
    assert not is_leaking((), DistributionTable.point(()), AND).flagged


def test_is_sparsifying_examples():
    uy = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    # eps >= delta_y: the reduced level is <= 0, never sparsifying
    for x in product((0, 1), repeat=2):
        assert not is_sparsifying(x, uy, AND, F(1), F(1)).flagged
    # xor keeps conditioned marginals uniform
    for x in product((0, 1), repeat=2):
        assert not is_sparsifying(x, uy, XOR, F(1), F(1, 4)).flagged
    # single free coordinate: no room for a violating set after conditioning
    y1 = DistributionTable.uniform([(0,), (1,)])
    assert not is_sparsifying((0,), y1, AND, F(1), F(1, 4)).flagged


def test_is_skewing_examples():
    # Exactly uniform conditional outputs have min-entropy |I|, which sits
    # below the threshold |I| - eps*b*|J| - e + 1 precisely when
    # eps*b*|J| + e < 1: the +1 slack makes small eps*b instances skewing
    # even for the xor gadget against uniform inputs.
    uy = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    for x in product((0, 1), repeat=2):
        assert is_skewing(x, uy, XOR, F(1), F(1, 4)).flagged
        assert not is_skewing(x, uy, XOR, F(1), F(1)).flagged
    # at b=2 the slack closes already at eps = 1/2
    uy2 = DistributionTable.uniform(list(product(range(4), repeat=2)))
    for x in ((1, 2), (3, 3)):
        assert not is_skewing(x, uy2, IP2, F(1), F(1, 2)).flagged
    # a collapsed conditional output (and with a zero block) is always skewing
    v = is_skewing((0, 0), uy, AND, F(1), F(1, 8))
    assert v.flagged


def test_is_biasing_examples():
    uy = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    for x in product((0, 1), repeat=2):
        assert not is_biasing(x, uy, XOR, F(1), F(1, 4), F(2), 2).flagged
    # and with x = (0,0): the xor over S={1,2} is constant zero, bias 1
    assert is_biasing((0, 0), uy, AND, F(1), F(1, 4), F(2), 2).flagged
    with pytest.raises(DomainError):
        is_biasing((0,), DistributionTable.uniform([(0,), (1,)]), AND,
                   F(1), F(1, 4), F(2), 1)


def test_dangerous_probability_examples():
    uy = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    ux = DistributionTable.uniform(list(product((0, 1), repeat=2)))
    assert dangerous_probability(ux, uy, XOR, F(1), F(1, 4)) == 0
    # x values with a zero block are leaking for AND; mass 3/4 under uniform
    p = dangerous_probability(ux, uy, AND, F(1), F(1, 4))
    assert p >= F(3, 4)


def test_scan_budget():
    big = DistributionTable.uniform(list(product((0, 1), repeat=4)))
    with pytest.raises(BudgetError):
        is_leaking((0, 0, 0, 0), big, AND)


def test_skewing_condition_claim_exhaustive():
    """dangerous and not leaking implies skewing: exact and unconditional."""
    rng = random.Random(23)
    for gname in ("xor1", "and1", "or1", "ip1", "ip2"):
        g = builtin_gadget(gname)
        b = g.b
        universe = list(product(range(1 << b), repeat=2))
        for _ in range(6):
            supp = sorted(rng.sample(universe, rng.randrange(2, len(universe) + 1)))
            y = DistributionTable.uniform(supp)
            if any(project(y, (i,)).maxprob() == 1 for i in range(2)):
                continue
            delta_y = max_density(y, b)[0]
            for eps in (F(1, 4), F(1, 2)):
                for x in universe:
                    leak = is_leaking(x, y, g).flagged
                    spars = is_sparsifying(x, y, g, delta_y, eps).flagged
                    if spars and not leak:
                        assert is_skewing(x, y, g, delta_y, eps).flagged, (gname, x, supp, eps)


def test_biasing_condition_counterexample_documented():
    """The reverse claim (not biasing => not dangerous) fails at n=2.

    With the AND gadget and Y uniform on {00, 11}, the value x = (0, 1) is
    leaking (AND(0, .) never outputs 1) yet no (S, J, y_J) triple satisfies
    the size bound with a biased conditional XOR: the only candidate at n=2
    is S={1,2} with empty J, whose xor is Y_2 with bias 0.  This is a
    genuine small-n counterexample, kept here as a regression anchor.
    """
    y = DistributionTable.uniform([(0, 0), (1, 1)])
    delta_y = max_density(y, 1)[0]
    assert delta_y == F(1, 2)
    x = (0, 1)
    assert is_leaking(x, y, AND).flagged
    for eps in (F(1, 4), F(1, 2)):
        for c in (F(1, 2), F(2), F(16)):
            assert not is_biasing(x, y, AND, delta_y, eps, c, 2).flagged


# -- oracle sweep: leaking and sparsifying against the brute-force oracles ----

def _weighted_table(rng, universe):
    """Integer weights on the whole universe; zero-weight elements stay in the domain."""
    dense = rng.random() < 0.7
    weights = {t: rng.randrange(1, 4) if dense else rng.randrange(4) for t in universe}
    if not any(weights.values()):
        weights[universe[0]] = 1
    return DistributionTable.from_weights(weights)


# (delta_y, eps): dyadic, non-dyadic (5/12, 2/3) and non-positive (0, -1/6) levels
_LEVELS = ((F(1), F(1, 4)), (F(1, 2), F(1, 4)), (F(2, 3), F(1, 4)),
           (F(1), F(1, 3)), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 2)))


def _per_value(name, x, y, g, *levels):
    """is_<name>(x, y, g, *levels).  Past SCAN_COORD_LIMIT, where is_<name>
    refuses x (checked here, with the unchanged BudgetError), the verdict it
    reads off a DangerScan whose budget is raised to len(x)."""
    call = {"leaking": is_leaking, "sparsifying": is_sparsifying,
            "dangerous": is_dangerous}[name]
    if len(x) <= SCAN_COORD_LIMIT:
        return call(x, y, g, *levels)
    with pytest.raises(BudgetError) as refused:
        call(x, y, g, *levels)
    what = "leaking" if name == "dangerous" else name
    assert (refused.value.what, refused.value.size, refused.value.limit) == \
        (f"{what} scan free coordinates", len(x), SCAN_COORD_LIMIT)
    found = DangerScan(y, g, *(levels or (0, 0)), coord_limit=len(x)).witness(name, x)
    return found is not None if name == "dangerous" else Verdict(found is not None, found)


def test_dangerous_scans_match_oracle():
    rng = random.Random(2)
    gadgets = [builtin_gadget(name) for name in ("xor1", "and1", "ip2")]
    gadgets += [builtin_gadget(f"rand:2:{s}") for s in (3, 8)]
    cases = [(g, k, 3) for g in gadgets for k in range(4)]
    cases += [(g, 4, 4) for g in gadgets if g.b == 1]
    seen = {"leaking": 0, "sparsifying": 0, "safe": 0}
    compared = 0
    for g, k, limit in cases:
        universe = list(product(range(g.side), repeat=k))
        for _ in range(3):
            y = _weighted_table(rng, universe)
            xs = universe if len(universe) <= 8 else rng.sample(universe, 6)
            for x in xs:
                leak = _per_value("leaking", x, y, g)
                assert leak == oracle_is_leaking(x, y, g, limit), (g, x, y)
                for delta_y, eps in _LEVELS:
                    args = (x, y, g, delta_y, eps)
                    spars = _per_value("sparsifying", *args)
                    assert spars == oracle_is_sparsifying(*args, g.b, limit), (g, x, y, delta_y, eps)
                    assert _per_value("dangerous", *args) == (leak.flagged or spars.flagged)
                    seen["leaking" if leak.flagged else
                         "sparsifying" if spars.flagged else "safe"] += 1
                    compared += 1
    # every verdict class is exercised, so agreement is not vacuous
    assert compared > 1500 and min(seen.values()) >= 100, seen


def test_dangerous_scans_reject_out_of_range_values():
    y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    for x in ((4, 0), (0, -1)):
        with pytest.raises(DomainError):
            is_leaking(x, y, IP2)
        with pytest.raises(DomainError):
            is_sparsifying(x, y, IP2, F(1), F(1, 4))
        with pytest.raises(DomainError):
            is_dangerous(x, y, IP2, F(1), F(1, 4))
    y_bad = DistributionTable.uniform([(0, 0), (2, 1)])
    with pytest.raises(DomainError):
        is_leaking((0, 1), y_bad, XOR)


def test_dangerous_scans_reject_a_wrong_length_x():
    # every per-value scan raises DangerScan's error for an x shorter or
    # longer than Y; a short x used to get a verdict, a long one an IndexError
    y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    scan = DangerScan(y, IP2, F(1), F(1, 4))
    levels = (F(1), F(1, 4))
    for x in ((1,), (1, 1, 1)):
        with pytest.raises(DomainError) as want:
            x in scan.dangerous_among((x,))
        assert str(want.value) == f"x has {len(x)} coordinates, Y has 2"
        for call in (lambda: is_leaking(x, y, IP2),
                     lambda: is_sparsifying(x, y, IP2, *levels),
                     lambda: is_skewing(x, y, IP2, *levels),
                     lambda: is_biasing(x, y, IP2, *levels, F(2), 2),
                     lambda: is_dangerous(x, y, IP2, *levels)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(want.value)


# -- the contraction core: DangerScan against the oracles and is_dangerous ----

def _zero_weight_table(rng, universe):
    """Weights in {0, 1, 2} on the whole universe, at least one positive."""
    weights = {t: rng.randrange(3) for t in universe}
    weights[rng.choice(universe)] += 1
    return DistributionTable.from_weights(weights)


def _heavy_table(rng, universe):
    """Weights in [0, 16] on the whole universe, at least one positive: five
    bit-planes of row masks."""
    weights = {t: rng.randrange(17) for t in universe}
    weights[rng.choice(universe)] += 1
    return DistributionTable.from_weights(weights)


def test_danger_scan_matches_oracles():
    rng = random.Random(11)
    gadgets = [builtin_gadget(name) for name in ("xor1", "and1", "ip2", "rand:2:5", "rand:3:4")]
    cases = [(g, k) for g in gadgets for k in range(4) if g.b < 3 or k < 3]
    cases += [(g, 4) for g in gadgets if g.b == 1]
    seen = Counter()
    for g, k in cases:
        universe = list(product(range(g.side), repeat=k))
        limit = max(k, SCAN_COORD_LIMIT)
        for make in (_weighted_table, _zero_weight_table, _heavy_table):
            y = make(rng, universe)
            xs = universe if len(universe) <= 6 else rng.sample(universe, 6)
            for delta_y, eps in _LEVELS[::2] if k == 4 else _LEVELS:
                scan = DangerScan(y, g, delta_y, eps, coord_limit=limit)
                for x in xs:
                    args = (x, y, g, delta_y, eps)
                    leak = scan.witness("leaking", x)
                    spars = scan.witness("sparsifying", x)
                    want_leak = oracle_is_leaking(x, y, g, limit)
                    want_spars = oracle_is_sparsifying(*args, g.b, limit)
                    assert leak == want_leak.witness, (g, x, y)
                    assert spars == want_spars.witness, (g, x, y, delta_y, eps)
                    dangerous = want_leak.flagged or want_spars.flagged
                    assert (x in scan.dangerous_among((x,))) == _per_value("dangerous", *args) == dangerous
                    # the first leaking or sparsifying witness by set
                    found = scan.witness("dangerous", x)
                    assert (found is not None) == dangerous
                    assert found in (None, leak, spars)
                    seen["leaking" if leak else "not leaking"] += 1
                    seen["sparsifying" if spars else "not sparsifying"] += 1
                    seen[f"k={k}"] += 1
    # both values of both flags and every k are exercised, so agreement is not vacuous
    assert min(seen[c] for c in ("leaking", "not leaking", "sparsifying",
                                 "not sparsifying")) >= 100, seen
    assert min(seen[f"k={k}"] for k in range(5)) >= 30, seen


def test_a_temporary_scan_answers():
    # a scan nobody holds answers, and so does its `dangerous_among` kept past it
    y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    want = [is_dangerous(x, y, IP2, F(1), F(1, 4)) for x in y.domain]
    assert [x in DangerScan(y, IP2, F(1), F(1, 4)).dangerous_among((x,)) for x in y.domain] == want
    kept = DangerScan(y, IP2, F(1), F(1, 4)).dangerous_among
    gc.collect()
    assert [x in kept((x,)) for x in y.domain] == want
    assert any(want) and not all(want)


_MALFORMED = {"mixed lengths": ({(0, 1): 1, (2,): 1}, (0, 1), "[1, 2]"),
              "ints": ({0: 1, 1: 1}, (0,), "[-1]")}


@pytest.mark.parametrize("entry", ["DangerScan", "is_leaking", "is_sparsifying", "is_skewing",
                                   "is_biasing", "is_dangerous", "dangerous_probability"])
@pytest.mark.parametrize("malformed", sorted(_MALFORMED))
def test_a_malformed_y_is_refused_before_any_table(entry, malformed, monkeypatch):
    # a Y whose elements are not all tuples of one length is refused as the
    # density functions refuse it, before any table is built; the scans used
    # to return a verdict or raise an IndexError on the mixed lengths, and to
    # raise a TypeError on the ints
    weights, x, lengths = _MALFORMED[malformed]
    y = DistributionTable.from_weights(weights)
    monkeypatch.setattr(DangerScan, "index", lambda scan: pytest.fail("a table was indexed"))
    levels = (F(1), F(1, 4))
    call = {
        "DangerScan": lambda: DangerScan(y, IP2, *levels),
        "is_leaking": lambda: is_leaking(x, y, IP2),
        "is_sparsifying": lambda: is_sparsifying(x, y, IP2, *levels),
        "is_skewing": lambda: is_skewing(x, y, IP2, *levels),
        "is_biasing": lambda: is_biasing(x, y, IP2, *levels, F(2), 2),
        "is_dangerous": lambda: is_dangerous(x, y, IP2, *levels),
        "dangerous_probability": lambda: dangerous_probability(y, y, IP2, *levels),
    }[entry]
    with pytest.raises(DomainError) as got:
        call()
    assert str(got.value) == f"elements of different block counts: {lengths}"


def test_danger_scan_errors_match_the_scans():
    y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    scan = DangerScan(y, IP2, F(1), F(1, 4))
    for x in ((4, 0), (0, -1), (0,), (0, 0, 0)):
        for query in ("leaking", "sparsifying", "dangerous"):
            with pytest.raises(DomainError):
                scan.witness(query, x)
        with pytest.raises(DomainError):
            x in scan.dangerous_among((x,))
    with pytest.raises(DomainError):
        scan.witness("table", (0, 0))
    y_bad = DistributionTable.uniform([(0, 0), (2, 1)])
    with pytest.raises(DomainError):
        DangerScan(y_bad, XOR, F(1), F(1, 4))
    with pytest.raises(DomainError):
        dangerous_probability(y_bad, y_bad, XOR, F(1), F(1, 4))
    # a zero-weight element is not in Y's support, whatever its value
    y_zero = DistributionTable.from_weights({(0, 0): 1, (0, 1): 1, (2, 1): 0})
    for x in product((0, 1), repeat=2):
        assert DangerScan(y_zero, AND, F(1), F(1, 4)).witness("leaking", x) == \
            is_leaking(x, y_zero, AND).witness
    # the budget refusal of is_dangerous, raised when the scan is built
    big = DistributionTable.uniform(list(product((0, 1), repeat=4)))
    with pytest.raises(BudgetError) as got:
        DangerScan(big, AND, F(1), F(1, 4))
    with pytest.raises(BudgetError) as want:
        is_dangerous((0, 0, 0, 0), big, AND, F(1), F(1, 4))
    assert (got.value.what, got.value.size, got.value.limit) == \
        (want.value.what, want.value.size, want.value.limit)
    with pytest.raises(BudgetError):
        dangerous_probability(big, big, AND, F(1), F(1, 4))
    assert DangerScan(big, AND, F(1), F(1, 4), coord_limit=4).witness("leaking", (0, 0, 0, 0))


def test_danger_scan_reads_a_kept_product_test(monkeypatch):
    # A scan of a table whose product test is kept reads k and the value
    # range off its coordinate marginals, built from the same nonzero rows,
    # and walks no row; it refuses what the walk refuses, with the same
    # error, and holds the same rows.  Product and non-product tables of
    # k = 1..4 over values 0..4 (IP2's side is 4), zero rows included.
    def outcome(y):
        try:
            scan = DangerScan(y, IP2, F(1), F(1, 4), coord_limit=3)
        except (BudgetError, DomainError) as exc:
            return type(exc), str(exc)
        return scan.k, scan.rows, [x in scan.dangerous_among((x,)) for x in product(range(4), repeat=scan.k)]

    walks = []
    block_count = structure._block_count
    monkeypatch.setattr(structure, "_block_count",
                        lambda *args, **kw: walks.append(1) or block_count(*args, **kw))
    rng, seen = random.Random(23), Counter()
    for _ in range(300):
        k = rng.choice((1, 2, 2, 3, 3, 4))
        values = [rng.sample(range(4), rng.randrange(1, 4)) for _ in range(k)]
        if rng.random() < 0.2:
            values[-1].append(4)
        if rng.random() < 0.5:  # a product of random marginals
            margs = [{v: rng.randrange(1, 4) for v in vs} for vs in values]
            weights = {t: prod(m[v] for m, v in zip(margs, t)) for t in product(*values)}
        else:
            weights = {t: rng.randrange(0, 3) for t in product(*values)}
            if not any(weights.values()):
                weights[next(iter(weights))] = 1
        weights.setdefault(tuple(rng.randrange(6) for _ in range(k)), 0)
        kept = DistributionTable.from_weights(weights)
        is_product = structure._product_test(kept) is not None
        del walks[:]
        got = outcome(kept)
        assert not (walks and is_product)
        assert got == outcome(DistributionTable.from_weights(weights))
        seen[is_product, got[0] in (BudgetError, DomainError)] += 1
    assert min(seen[p, e] for p in (True, False) for e in (True, False)) >= 10, seen


def _biasing_sweep():
    rng = random.Random(13)
    gadgets = [builtin_gadget(name) for name in ("xor1", "and1", "ip1", "ip2", "rand:2:5")]
    cases = [(g, k, SCAN_COORD_LIMIT) for g in gadgets for k in (2, 3)]
    cases += [(g, 4, 4) for g in gadgets if g.b == 1]
    seen = Counter()
    for g, k, limit in cases:
        universe = list(product(range(g.side), repeat=k))
        for make in (_weighted_table, _weighted_table, _heavy_table):
            y = make(rng, universe)
            xs = universe if len(universe) <= 4 else rng.sample(universe, 4)
            for delta_y, eps in _LEVELS[::2]:
                scan = DangerScan(y, g, delta_y, eps, coord_limit=limit)
                for c, n in product((F(1, 2), F(2), F(16)), (2, 3, 4)):
                    for x in xs:
                        want = oracle_is_biasing(x, y, g, delta_y, eps, g.b, c, n, limit)
                        assert scan.witness("biasing", x, c, n) == want.witness, \
                            (g, x, y, delta_y, eps, c, n)
                        seen["biasing" if want.flagged else "not biasing"] += 1
    # both verdicts are exercised, so agreement is not vacuous
    assert min(seen.values()) >= 100, seen


def test_danger_scan_biasing_matches_is_biasing():
    _biasing_sweep()
    # on the threshold: for S = {0, 1} and the empty J, |w - 2 odd| * 2(2n)^|S|
    # = 2 * 32 = 64 = w, and no other (S, J) passes the size bound: not biasing
    y = DistributionTable.from_weights({(0, 0): 17, (0, 1): 16, (1, 0): 15, (1, 1): 16})
    scan = DangerScan(y, XOR, F(1), F(1, 4))
    for x in product((0, 1), repeat=2):
        assert scan.witness("biasing", x, F(2), 2) is None
        assert not is_biasing(x, y, XOR, F(1), F(1, 4), F(2), 2).flagged
    # at n = 3 the empty J fails the size bound for |S| = 1 and J = {1} passes it
    y = DistributionTable.from_weights({(0, 0): 1, (0, 1): 3, (1, 0): 0, (1, 1): 4})
    assert DangerScan(y, AND, F(1), F(1, 4)).witness("biasing", (1, 0), F(1, 2), 3)
    assert is_biasing((1, 0), y, AND, F(1), F(1, 4), F(1, 2), 3).witness[:2] == ((0,), (1,))
    # the errors of is_biasing: n < 2, then x's length and range
    y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    scan = DangerScan(y, IP2, F(1), F(1, 4))
    for x, n in (((0, 0), 1), ((4, 0), 2), ((0, -1), 2), ((4, 0), 1)):
        with pytest.raises(DomainError) as got:
            scan.witness("biasing", x, F(2), n)
        with pytest.raises(DomainError) as want:
            is_biasing(x, y, IP2, F(1), F(1, 4), F(2), n)
        assert str(got.value) == str(want.value)
    for x in ((0,), (0, 0, 0)):
        with pytest.raises(DomainError):
            scan.witness("biasing", x, F(2), 2)
    big = DistributionTable.uniform(list(product((0, 1), repeat=4)))
    with pytest.raises(BudgetError):
        DangerScan(big, AND, F(1), F(1, 4))
    with pytest.raises(BudgetError):
        is_biasing((0, 0, 0, 0), big, AND, F(1), F(1, 4), F(2), 2)


def test_danger_scan_ip6_mass():
    # b = 6, n = 2, X = Y uniform: the dangerous mass (the 127 values with a
    # zero block), and a sample of the values against the brute-force oracles
    ip6 = Gadget(6, [(x & y).bit_count() & 1 for x in range(64) for y in range(64)])
    u = DistributionTable.uniform(list(product(range(64), repeat=2)))
    assert dangerous_probability(u, u, ip6, F(1), F(1, 2)) == F(127, 4096)
    scan = DangerScan(u, ip6, F(1), F(1, 2))
    for x in [(0, 0), (0, 63), (63, 63)] + random.Random(6).sample(u.domain, 5):
        want = (oracle_is_leaking(x, u, ip6).flagged
                or oracle_is_sparsifying(x, u, ip6, F(1), F(1, 2), 6).flagged)
        assert (x in scan.dangerous_among((x,))) == want, x


# -- table walks over thousands of rows: pinned witnesses ---------------------

LARGE_WALK_PIN = "522f77ef6e59e82c9ead739fc361c3a044eaab63083c362d949954f564c56653"


def test_large_table_walks_pinned():
    # Two seeded non-product Ys: 5,000 rows of the ip4 k=4 universe and 6,000
    # of rand:5:3 at k=3, weights in [1, 4].  Every witness and dangerous verdict
    # of four x each (the last with a zero block) at two levels, hashed.  The
    # digest was computed when a scan over more than 4,096 rows held its table
    # parts as {y_rest: weight} dicts; row bitmasks give the same results.
    rng = random.Random(27)
    ip4 = Gadget(4, [(x & y).bit_count() & 1 for x in range(16) for y in range(16)])
    scans = ("leaking", "sparsifying", "skewing", "biasing", "dangerous")
    results, seen = [], Counter()
    for g, k, rows in ((ip4, 4, 5000), (builtin_gadget("rand:5:3"), 3, 6000)):
        universe = list(product(range(g.side), repeat=k))
        y = DistributionTable.from_weights({t: rng.randint(1, 4)
                                            for t in rng.sample(universe, rows)})
        xs = [tuple(rng.randrange(g.side) for _ in range(k)) for _ in range(3)]
        xs.append((0,) + xs[0][1:])
        for delta_y, eps in ((F(1), F(1, 4)), (F(1, 2), F(1, 4))):
            scan = DangerScan(y, g, delta_y, eps, coord_limit=k)
            assert scan._product_form is None
            for x in xs:
                got = [scan.witness(name, x, *((F(2), 4) if name == "biasing" else ()))
                       for name in scans]
                got.append(x in scan.dangerous_among((x,)))
                results.append((x, delta_y, eps, got))
                for name, found in zip(scans, got):
                    seen[name, found is not None] += 1
    # every scan but biasing both flags and clears some x (with n = 4 the
    # empty J passes the size bound, and sampling noise exceeds 1/(2(2n)^|S|))
    assert all(seen[name, flag] for name in scans[:3] + ("dangerous",) for flag in (True, False))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == LARGE_WALK_PIN


# -- the product closed form against the table walk ----------------------------

def _product_table(rng, g, k, uniform):
    """A seeded product of k coordinate marginals, each on a random nonempty
    set of blocks, uniform or with weights in [1, 5]; every other block
    tuple stays in the domain with weight 0."""
    margs = []
    for _ in range(k):
        support = rng.sample(range(g.side), rng.randint(1, g.side))
        margs.append({y: 1 if uniform else rng.randint(1, 5) for y in support})
    return DistributionTable.from_weights(
        {t: prod(m.get(v, 0) for m, v in zip(margs, t))
         for t in product(range(g.side), repeat=k)})


def _is_product(y):
    """Whether Pr[t] equals the product of t's coordinate marginals at every
    t of the product of their supports, in Fractions."""
    k = len(y.domain[0])
    margs = [project(y, (c,)) for c in range(k)]
    return all(y.prob(t) == prod(m.prob((v,)) for m, v in zip(margs, t))
               for t in product(*(sorted(v for (v,) in m.support()) for m in margs)))


def test_product_form_matches_the_table_walk():
    # On a product Y, DangerScan.dangerous_among reads the closed form: sparsifying
    # for every x iff some coordinate's heaviest block is too heavy (k >= 2),
    # else leaking iff 2^(k+1) * prod_c l_c(x_c) < T^k.  The walk over every
    # (C, pattern, J) is the oracle, asked through `witness` on the same scan;
    # a non-product Y keeps the walk for both.
    rng = random.Random(26)
    ip3 = Gadget(3, [(x & y).bit_count() & 1 for x in range(8) for y in range(8)])
    gadgets = [builtin_gadget(name) for name in ("xor1", "and1", "or1", "ip1", "ip2",
                                                 "rand:1:3", "rand:2:5", "rand:3:4")] + [ip3]
    seen = Counter()
    for g in gadgets:
        for k in (1, 2, 3):
            universe = list(product(range(g.side), repeat=k))
            tables = [_product_table(rng, g, k, uniform) for uniform in (True, False, False)]
            tables += [_weighted_table(rng, universe), _zero_weight_table(rng, universe)]
            for y in tables:
                kind = "product" if _is_product(y) else "not product"
                xs = universe if len(universe) <= 16 else rng.sample(universe, 16)
                for delta_y, eps in _LEVELS[::2] if g is ip3 else _LEVELS:
                    scan = DangerScan(y, g, delta_y, eps)
                    form = scan._product_form
                    assert (form is not None) == (kind == "product"), (g, y)
                    for x in xs:
                        dangerous = x in scan.dangerous_among((x,))
                        assert dangerous == (scan.witness("dangerous", x) is not None), \
                            (g, y, x, delta_y, eps)
                        # on a product Y, which half of the closed form decided
                        why = ("sparse" if form and form[2] else "leaking") if dangerous else "safe"
                        seen[kind, why if form else dangerous] += 1
    # each kind of Y, each verdict on it and each half of the closed form is exercised
    assert len(seen) == 5 and min(seen.values()) >= 100, seen


def test_batch_verdicts_match_the_per_value_ones():
    # DangerScan.dangerous_among returns exactly the values it flags when
    # asked one value at a time of a fresh scan, and the brute-force
    # oracles agree: on product Ys, where the closed form is read once for
    # the batch, and on non-product ones, where each value is asked of
    # `witness`.  dangerous_probability weighs the same set.
    rng = random.Random(30)
    seen = Counter()
    for g in [builtin_gadget(name) for name in ("xor1", "and1", "ip2", "rand:2:5")]:
        for k in (1, 2, 3):
            universe = list(product(range(g.side), repeat=k))
            tables = [_product_table(rng, g, k, uniform) for uniform in (True, False)]
            tables += [_weighted_table(rng, universe), _zero_weight_table(rng, universe)]
            if k > 1:  # all but one block tuple: close to uniform, and no product
                tables.append(DistributionTable.uniform(universe[1:]))
            for y in tables:
                values = universe if len(universe) <= 8 else rng.sample(universe, 8)
                values += values[:2]  # a value asked twice is one member
                x = _weighted_table(rng, universe)
                for delta_y, eps in _LEVELS[::3]:
                    scan = DangerScan(y, g, delta_y, eps)
                    got = scan.dangerous_among(values)
                    fresh = DangerScan(y, g, delta_y, eps)
                    assert got == {v for v in values if v in fresh.dangerous_among((v,))}, (g, y, values)
                    assert got == {v for v in values if oracle_is_leaking(v, y, g).flagged
                                   or oracle_is_sparsifying(v, y, g, delta_y, eps, g.b).flagged}
                    bad = [v for v, w in x.weights.items() if w and v in fresh.dangerous_among((v,))]
                    assert dangerous_probability(x, y, g, delta_y, eps) == \
                        F(sum(map(x.weights.__getitem__, bad)), x.total)
                    seen[scan._product_form is not None,
                         "none" if not got else "all" if got == set(values) else "some"] += 1
    # product and non-product Ys, each with batches flagged in full and in
    # part, and on a product Y batches with nothing flagged (every sampled
    # batch on a non-product Y here holds a dangerous value)
    assert set(seen) == {(True, "all"), (True, "some"), (True, "none"),
                         (False, "all"), (False, "some")}, seen
    assert min(seen.values()) >= 5, seen


def test_batch_verdicts_refuse_a_bad_value_as_dangerous_does():
    # a wrong-length or out-of-range value in a batch is refused with the
    # error a batch of it alone gives it, and the first bad value in the batch is
    # the one refused, on a product Y and on a non-product one
    product_y = DistributionTable.uniform(list(product(range(4), repeat=2)))
    other_y = DistributionTable.uniform([(0, 0), (1, 1), (2, 3), (3, 2), (0, 1)])
    for y in (product_y, other_y):
        scan = DangerScan(y, IP2, F(1), F(1, 4))
        assert (scan._product_form is None) == (y is other_y)
        good = [(0, 0), (3, 3)]
        for bad in ((4, 0), (0, -1), (1,), (1, 1, 1), ()):
            with pytest.raises(DomainError) as want:
                bad in scan.dangerous_among((bad,))
            for values in ([bad], good + [bad], good + [bad, (0, 5)], good + [bad, (2,)]):
                with pytest.raises(DomainError) as got:
                    scan.dangerous_among(values)
                assert str(got.value) == str(want.value), (y, values)
        assert scan.dangerous_among([]) == set()


def test_worst_marginal_of_a_product_is_its_heaviest_singleton():
    # A product table's worst marginal is read off its coordinate marginals
    # (structure._product_marginals) as the heaviest singleton; the
    # enumeration of every coordinate set is the oracle.  Seeded product
    # tables (equal weights or not) and non-product ones: weighted, with
    # zero weights, and equal weights on a support that is no product set.
    rng = random.Random(29)
    seen = Counter()
    for g in (builtin_gadget("xor1"), builtin_gadget("ip2"), builtin_gadget("rand:3:4")):
        for k in (1, 2, 3) if g.side < 8 else (1, 2):
            universe = list(product(range(g.side), repeat=k))
            tables = [_product_table(rng, g, k, uniform) for uniform in (True, False, False)]
            tables += [_weighted_table(rng, universe), _zero_weight_table(rng, universe),
                       DistributionTable.uniform(rng.sample(universe, len(universe) // 2 + 1))]
            for y in tables:
                rows = [(t, w) for t, w in y.weights.items() if w]
                is_product = structure._product_marginals(k, rows, y.total) is not None
                assert is_product == _is_product(y), (g, k, y)
                assert structure._worst_marginal(y) == _oracle_worst_marginal(y, k), (g, k, y)
                seen[is_product, len({w for _, w in rows}) == 1] += 1
    # products with equal and with unequal weights, and non-products of both
    assert len(seen) == 4 and min(seen.values()) >= 3, seen


# -- oracle sweep: skewing and biasing against the brute-force oracles --------

# (delta_y, eps, c): dyadic and non-dyadic levels, eps*b above and below 1
_BIAS_LEVELS = ((F(1), F(1, 4), F(2)), (F(1, 2), F(1, 8), F(1, 2)),
                (F(2, 3), F(1, 3), F(1)), (F(1), F(1), F(16)),
                (F(3, 4), F(1, 16), F(1, 4)), (F(1, 2), F(1), F(4)))


def test_skewing_and_biasing_match_oracle():
    rng = random.Random(6)
    gadgets = [builtin_gadget(name) for name in ("xor1", "and1", "or1", "ip1", "ip2")]
    gadgets += [builtin_gadget(f"rand:2:{s}") for s in (3, 8)]
    gadgets += [builtin_gadget(f"rand:1:{s}") for s in (2, 9)]
    seen = {"skewing": 0, "not skewing": 0, "biasing": 0, "not biasing": 0}
    for g in gadgets:
        for k in (2, 3):
            universe = list(product(range(g.side), repeat=k))
            tables = [DistributionTable.uniform(universe),
                      DistributionTable.uniform(rng.sample(universe, len(universe) // 2))]
            tables += [_weighted_table(rng, universe) for _ in range(2)]
            tables.append(_heavy_table(rng, universe))
            for y in tables:
                for x in rng.sample(universe, min(len(universe), 4)):
                    for delta_y, eps, c in _BIAS_LEVELS:
                        args = (x, y, g, delta_y, eps)
                        skew = is_skewing(*args)
                        assert skew == oracle_is_skewing(*args, g.b), (g, x, y, delta_y, eps)
                        scan = DangerScan(y, g, delta_y, eps)
                        assert scan.witness("skewing", x) == skew.witness, (g, x, y, delta_y, eps)
                        bias = is_biasing(*args, c, 2 + k % 2)
                        assert bias == oracle_is_biasing(*args, g.b, c, 2 + k % 2), (g, x, y, c)
                        seen["skewing" if skew.flagged else "not skewing"] += 1
                        seen["biasing" if bias.flagged else "not biasing"] += 1
    # every verdict class of both scans is exercised, so agreement is not vacuous
    assert min(seen.values()) >= 100, seen


# -- oracle sweep: max_density and is_structured from the worst marginal ------

def oracle_is_dense(x, delta, b):
    delta = F(delta)
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    for coords in oracle_subsets(k):
        p = project(x, coords).maxprob()
        if cmp_pow2(p, delta * b * len(coords)) > 0:
            return False
    return True


def oracle_max_density(x, b, resolution_bits=20):
    """Bisection on delta with one full density scan per step."""
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    if k == 0 or oracle_is_dense(x, F(1), b):
        return F(1), F(1)
    lo, hi = F(0), F(1)
    while hi - lo > F(1, 1 << resolution_bits):
        mid = (lo + hi) / 2
        if oracle_is_dense(x, mid, b):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _oracle_worst_marginal(x, k):
    worst = None
    for coords in oracle_subsets(k):
        p = project(x, coords).maxprob()
        size = len(coords)
        if worst is None or cmp_products(p ** worst[1], (), worst[0] ** size, ()) > 0:
            worst = (p, size)
    return worst


def oracle_is_structured(x, y, rho, tau, g, x_full=None, y_full=None, resolution_bits=20):
    """Re-brackets both densities by bisection on every rung and retries the
    exact supremum after each rung."""
    tau = F(tau)
    b = g.b
    if x_full is not None and y_full is not None:
        for xv in x_full.support():
            for yv in y_full.support():
                for i in rho.fixed():
                    if g.eval(xv[i], yv[i]) != int(rho.cells[i]):
                        return StructureRefusal(
                            "fixed-block consistency",
                            f"g(x_{i}, y_{i}) != rho_{i} on support pair {xv}, {yv}")
    k = len(rho.free())
    if k == 0:
        return StructureCertificate(rho, tau / 2, tau / 2, tau)
    wx, wy = _oracle_worst_marginal(x, k), _oracle_worst_marginal(y, k)
    (px, sx), (py, sy) = wx, wy
    if px == 1 or py == 1:
        return StructureRefusal("density", "a free marginal is constant (density sup is 0)")
    if tau <= 0:
        return StructureCertificate(rho, oracle_max_density(x, b, resolution_bits)[0],
                                    oracle_max_density(y, b, resolution_bits)[0], tau)
    if cmp_pow2(px ** sy * py ** sx, tau * b * sx * sy) > 0:
        return StructureRefusal("density sum", "max densities cannot reach tau")
    for bits in (resolution_bits, resolution_bits + 10, resolution_bits + 20):
        lo_x, _ = oracle_max_density(x, b, bits)
        lo_y, _ = oracle_max_density(y, b, bits)
        if lo_x > 0 and lo_y > 0 and lo_x + lo_y >= tau:
            return StructureCertificate(rho, lo_x, lo_y, tau)
        for other, swap in ((y, False), (x, True)):
            p, s = wy if swap else wx
            log_p = exact_log2(p)
            if log_p is not None:
                d_exact = -log_p / (b * s)
                d_other = tau - d_exact
                if d_exact > 0 and d_other > 0 and oracle_is_dense(other, d_other, b):
                    dx, dy = (d_other, d_exact) if swap else (d_exact, d_other)
                    return StructureCertificate(rho, dx, dy, tau)
    return StructureRefusal(
        "density sum",
        "tau is reachable only in the limit; no rational split found at the "
        f"working resolution 2^-{resolution_bits + 20}")


def test_fixed_block_consistency_names_the_first_pair():
    # the refusal names the first (x, y, i) of the oracle's walk over every
    # support pair; zero-weight elements are not in the support
    x_full = DistributionTable.uniform([(1, 0, 1), (1, 1, 0), (1, 1, 1)])
    y_full = DistributionTable.from_weights({(0, 0, 0): 0, (1, 0, 1): 1, (1, 1, 1): 1})
    rho = Restriction("1*1")
    args = (project(x_full, (1,)), project(y_full, (1,)), rho, F(1), AND)
    ref = is_structured(*args, x_full=x_full, y_full=y_full)
    assert ref == StructureRefusal(
        "fixed-block consistency",
        "g(x_2, y_2) != rho_2 on support pair (1, 1, 0), (1, 0, 1)")
    assert ref == oracle_is_structured(*args, x_full=x_full, y_full=y_full)
    rng = random.Random(17)
    kinds = Counter()
    for _ in range(300):
        n, g = rng.choice((2, 3)), rng.choice((AND, XOR))
        cube = list(product((0, 1), repeat=n))
        x_full, y_full = _weighted_table(rng, cube), _weighted_table(rng, cube)
        rho = Restriction("".join(rng.choice("01**") for _ in range(n)))
        free = rho.free()
        x, y = ((project(x_full, free), project(y_full, free)) if free else
                (DistributionTable.point(()), DistributionTable.point(())))
        got = is_structured(x, y, rho, F(1, 2), g, x_full=x_full, y_full=y_full)
        assert got == oracle_is_structured(x, y, rho, F(1, 2), g, x_full, y_full), (rho, got)
        kinds[getattr(got, "reason", "certificate")] += 1
    assert kinds["fixed-block consistency"] >= 50 and len(kinds) >= 3, kinds


def test_fixed_block_consistency_at_b6():
    # b = 6, n = 2, X = Y uniform: no fixed coordinate, so no pair is walked
    # (16.7 M of them, about 2 s, when they were)
    ip6 = Gadget(6, [(x & y).bit_count() & 1 for x in range(64) for y in range(64)])
    u = DistributionTable.uniform(list(product(range(64), repeat=2)))
    start = time.perf_counter()
    cert = is_structured(u, u, Restriction.all_free(2), F(11, 6), ip6, x_full=u, y_full=u)
    assert time.perf_counter() - start < 0.5
    assert cert == is_structured(u, u, Restriction.all_free(2), F(11, 6), ip6)
    # block 0 fixed to 1 and consistent: x_0 in {1, 3}, y_0 = 1 mod 4
    x_full = DistributionTable.uniform([(a, v) for a in (1, 3) for v in range(64)])
    y_full = DistributionTable.uniform([(a, v) for a in range(1, 64, 4) for v in range(64)])
    args = (project(x_full, (1,)), project(y_full, (1,)), Restriction("1*"), F(3, 2), ip6)
    start = time.perf_counter()
    cert = is_structured(*args, x_full=x_full, y_full=y_full)
    assert time.perf_counter() - start < 0.5
    assert isinstance(cert, StructureCertificate) and cert == is_structured(*args)


def test_max_density_matches_bisection_oracle():
    rng = random.Random(12)
    tables = [DistributionTable.point(()), U3]
    for n, b in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        cube = list(product(range(1 << b), repeat=n))
        tables.append(DistributionTable.uniform(cube))  # 1-dense
        tables.append(DistributionTable.point(cube[-1], domain=cube))  # constant
        # a constant first coordinate
        tables.append(DistributionTable.uniform([t for t in cube if t[0] == 0]))
        for _ in range(60):
            tables.append(rand_block_table(rng, n, b))
            tables.append(DistributionTable.uniform(
                rng.sample(cube, rng.randrange(1, len(cube) + 1))))
    assert len(tables) >= 300
    for d in tables:
        b = 2 if d.domain[0] and max(max(t) for t in d.domain) > 1 else 1
        for bits in (12, 20):
            assert max_density(d, b, bits) == oracle_max_density(d, b, bits), (d, b, bits)


def test_is_structured_matches_oracle(monkeypatch):
    import liftsim.verify as verify

    calls = []

    def recording(*args, **kw):
        calls.append((args, kw))
        return is_structured(*args, **kw)

    monkeypatch.setattr(verify, "is_structured", recording)
    for seed in (2024, 1, 2, 3, 4, 5):
        verify._section_structure_lemmas(seed, count=40)
    monkeypatch.undo()
    # the inputs of test_certificate_reverification_sweep, and tau <= 0
    rng = random.Random(41)
    for _ in range(30):
        n, b = rng.choice([(2, 1), (2, 2)])
        x, y = rand_block_table(rng, n, b), rand_block_table(rng, n, b)
        for tau in (F(1, 4), F(1, 2), F(1), F(0), F(-1, 2)):
            calls.append(((x, y, Restriction.all_free(n), tau, XOR if b == 1 else IP2), {}))
    # an exact-supremum split that a later rung would replace by a dyadic one,
    # and a side whose floor is 0 at the first rung under tau = 0
    half = DistributionTable.uniform([(0, 0), (1, 1)])  # sup is exactly 1/2
    tau = F(1, 2) + max_density(U3, 1)[0] + F(1, 1 << 30)
    assert is_structured(half, U3, Restriction.all_free(2), tau, XOR).delta_x == F(1, 2)
    calls.append(((half, U3, Restriction.all_free(2), tau, XOR), {}))
    near_const = DistributionTable.from_weights({(0, 0): 10 ** 7, (1, 1): 1})
    calls.append(((near_const, U3, Restriction.all_free(2), F(0), XOR), {}))
    assert len(calls) >= 800
    kinds = set()
    for args, kw in calls:
        got = is_structured(*args, **kw)
        want = oracle_is_structured(*args, **kw)
        assert type(got) is type(want) and got == want, (args, got, want)
        kinds.add(getattr(got, "reason", "certificate"))
    assert kinds == {"certificate", "density", "density sum"}, kinds
