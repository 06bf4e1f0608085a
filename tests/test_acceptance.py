"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria and tolerances are pinned here; every expected value is exact
(rational arithmetic), so "tolerance" always means an exact comparison
against a stated rational or dyadic bound.  Criterion 7b asserts an
implication that has genuine small-n counterexamples; it is expected to
fail and is marked xfail(strict) -- see its docstring and the test body
for the concrete counterexample family.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from liftsim.dist import (
    DistributionTable,
    fourier_coefficient,
    fourier_inversion,
    project,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
    xor_bias,
)
from liftsim.dtrees import (
    brute_force_Ddt,
    find_one_problem,
    first_bit_problem,
    index_problem,
    parity_problem,
    solves,
)
from liftsim.gadgets import (
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    extractor_check,
    sampling_check,
)
from liftsim.protocols import canonical_protocol, complexity, kraft_heavy_message, run_protocol
from liftsim.simulate import (
    ERROR_K,
    LiftingParams,
    certify_transcript,
    compose_eval,
    enumerate_output_distribution,
    ledger_assertions,
    lift_deterministic,
    lift_randomized,
)
from liftsim.structure import (
    is_biasing,
    is_dense,
    is_leaking,
    is_skewing,
    is_sparsifying,
    max_density,
)
from liftsim.verify import (
    all_prefix_free_codes,
    default_corpus_spec,
    run_corpus,
    seeded_dense_support,
    seeded_distribution,
    _density_postconditions,
)


def verdict(num: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {detail}")


def rand_table(rng, m):
    return seeded_distribution(rng, list(range(1 << m)))


# -- criterion 1 -----------------------------------------------------------------

def test_criterion_01_fourier_bias_identity():
    """Exact equality |coef(S)| = 2^-m * bias(xor_S) for >= 1000 seeded
    distributions, m <= 4, all 2^m subsets; plus exact inversion; < 30 s."""
    t0 = time.time()
    rng = random.Random("acceptance/fourier")
    checked = 0
    ok = True
    for k in range(1000):
        m = 1 + (k % 4)
        d = rand_table(rng, m)
        coeffs = {}
        for r in range(m + 1):
            for coords in combinations(range(m), r):
                coef = fourier_coefficient(d, m, coords)
                coeffs[coords] = coef
                if abs(coef) * (1 << m) != xor_bias(d, m, coords):
                    ok = False
        if coeffs[()] != F(1, 1 << m):
            ok = False
        full = DistributionTable({z: d.prob(z) for z in range(1 << m)})
        if fourier_inversion(coeffs, m) != full:
            ok = False
        checked += 1
    elapsed = time.time() - t0
    ok = ok and checked >= 1000 and elapsed < 30
    verdict("01 fourier-bias identity", ok,
            f"{checked} distributions, {elapsed:.1f}s")
    assert ok


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_02_vazirani_checkers():
    """Zero hypothesis-true/conclusion-false instances over >= 1000 seeded
    distributions (m <= 4, eps in {1/4,1/2,1}, t in {1,2}); vacuity reported."""
    rng = random.Random("acceptance/vazirani")
    total = vacuous = fails = 0
    from liftsim.verify import near_uniform_distribution
    for k in range(1000):
        m = 1 + (k % 4)
        d = near_uniform_distribution(rng, m) if k % 3 == 0 else rand_table(rng, m)
        for eps in (F(1, 4), F(1, 2), F(1)):
            r = vazirani_uniformity_check(d, m, eps)
            total += 1
            if not r.hypothesis:
                vacuous += 1
            elif not r.conclusion:
                fails += 1
        for t in (1, 2):
            r = vazirani_minentropy_check(d, m, t)
            total += 1
            if not r.hypothesis:
                vacuous += 1
            elif not r.conclusion:
                fails += 1
    ok = fails == 0 and total > vacuous
    verdict("02 vazirani checkers", ok,
            f"{total} instances, vacuity rate {vacuous}/{total}, fails {fails}")
    assert ok


# -- criterion 3 -----------------------------------------------------------------

def test_criterion_03_xor_lemma_sandwich():
    """Exact sandwich disc^m <= disc(xor power) <= (64 disc)^m (clamped) for
    and1/or1/xor1/ip1 at m in {1,2,3} and ip2 at m=1; values archived; < 2 min."""
    t0 = time.time()
    archive = {}
    ok = True
    jobs = [(n, m) for n in ("and1", "or1", "xor1", "ip1") for m in (1, 2, 3)]
    jobs.append(("ip2", 1))
    for name, m in jobs:
        r = check_xor_lemma(builtin_gadget(name), m)
        archive[f"{name}/m{m}"] = (str(r.lower), str(r.value), str(r.upper))
        ok = ok and r.sandwich_holds
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    verdict("03 xor-lemma sandwich", ok, f"{len(jobs)} cases, {elapsed:.1f}s")
    print("   archived exact values:")
    for k, (lo, v, hi) in archive.items():
        print(f"     {k}: {lo} <= {v} <= {hi}")
    assert ok


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_04_extractor_sampling():
    """Zero FAILs for the extractor/sampling lemmas and their xor-power
    corollaries: exhaustive flat pairs at b=1, 200 seeded pairs at b=2,
    parameter grid eta, lambda, gamma in {1/4, 1/2}."""
    grid = (F(1, 4), F(1, 2))
    total = vacuous = fails = 0

    def tally(rep):
        nonlocal total, vacuous, fails
        total += 1
        if not rep.hypothesis:
            vacuous += 1
        elif not rep.conclusion:
            fails += 1

    flats1 = [DistributionTable.uniform(s) for s in ((0,), (1,), (0, 1))]
    for name in ("and1", "or1", "xor1", "ip1"):
        g = builtin_gadget(name)
        dv = discrepancy(g).value
        for x in flats1:
            for y in flats1:
                for eta in grid:
                    for lam in grid:
                        tally(extractor_check(g, x, y, eta, lam, disc_value=dv))
                        for gam in grid:
                            tally(sampling_check(g, x, y, gam, lam, eta, disc_value=dv))
        flats2 = [DistributionTable.uniform(s)
                  for r in range(1, 5) for s in combinations(range(4), r)]
        for x in flats2:
            for y in flats2:
                tally(extractor_check(g, x, y, F(1, 2), F(1, 4), m=2, disc_value=dv))
                tally(sampling_check(g, x, y, F(1, 4), F(1, 4), F(1, 2), m=2,
                                     disc_value=dv))
    rng = random.Random("acceptance/extractor-b2")
    ip2 = builtin_gadget("ip2")
    dv = discrepancy(ip2).value
    for _ in range(200):
        xs = tuple(sorted(rng.sample(range(4), rng.randrange(1, 5))))
        ys = tuple(sorted(rng.sample(range(4), rng.randrange(1, 5))))
        x, y = DistributionTable.uniform(xs), DistributionTable.uniform(ys)
        for eta in grid:
            for lam in grid:
                tally(extractor_check(ip2, x, y, eta, lam, disc_value=dv))
                for gam in grid:
                    tally(sampling_check(ip2, x, y, gam, lam, eta, disc_value=dv))
    ok = fails == 0 and total > vacuous
    verdict("04 extractor/sampling lemmas", ok,
            f"{total} instances, vacuous {vacuous}, fails {fails}")
    assert ok


# -- criterion 5 -----------------------------------------------------------------

def test_criterion_05_kraft():
    """kraft_heavy_message succeeds on every prefix-free code of depth <= 4
    (exhaustive over codes; seeded masses).  The full 458328 x 100 grid is
    beyond pure-Python runtime, so the sweep is tiered: every code once,
    every depth <= 3 code 100 times, and 1000 seeded depth-4 codes 100 times."""
    rng = random.Random("acceptance/kraft")
    checked = 0
    ok = True

    def check(code):
        nonlocal checked, ok
        d = seeded_distribution(rng, sorted(code))
        try:
            w = kraft_heavy_message(d)
        except Exception:
            ok = False
            return
        checked += 1
        if d.mass[w] * (1 << len(w)) < 1:
            ok = False

    deep = []
    for code in all_prefix_free_codes(4):
        check(code)
        if max(len(w) for w in code) == 4:
            deep.append(code)
    for code in all_prefix_free_codes(3):
        for _ in range(99):
            check(code)
    sample_idx = sorted(rng.sample(range(len(deep)), 1000))
    for i in sample_idx:
        for _ in range(99):
            check(deep[i])
    verdict("05 kraft heavy message", ok, f"{checked} (code, masses) instances")
    assert ok


# -- criterion 6 -----------------------------------------------------------------

def test_criterion_06_density_restoring():
    """Fixing postcondition and all three partition guarantees (fixed block,
    dense remainder, exact entropy bound through p_geq) hold for >= 200
    seeded distributions, n <= 3, b <= 2, delta in {1/2, 3/4, 1}."""
    rng = random.Random("acceptance/density")
    shapes = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
    deltas = (F(1, 2), F(3, 4), F(1))
    fails = 0
    total = 0
    for k in range(200):
        n, b = shapes[k % len(shapes)]
        universe = list(product(range(1 << b), repeat=n))
        d = seeded_distribution(rng, universe)
        d = d.condition(d.support())
        delta = deltas[k % 3]
        ok, detail = _density_postconditions(d, delta, b)
        total += 1
        if not ok:
            fails += 1
    ok = fails == 0 and total >= 200
    verdict("06 density-restoring machinery", ok, f"{total} instances, fails {fails}")
    assert ok


# -- criterion 7 -----------------------------------------------------------------

def _claims_corpus():
    rng = random.Random("acceptance/claims")
    for gname in ("xor1", "and1", "ip1", "ip2"):
        g = builtin_gadget(gname)
        b = g.b
        universe = list(product(range(1 << b), repeat=2))
        for s_idx in range(20):
            supp = seeded_dense_support(rng, 2, b)
            y = DistributionTable.uniform(supp)
            delta_y = max_density(y, b)[0]
            for eps in (F(1, 4), F(1, 2)):
                for x in universe:
                    yield gname, g, b, supp, y, delta_y, eps, x


def test_criterion_07a_claim_skewing():
    """dangerous and not leaking implies skewing: exhaustive over all x in
    Lambda^2, gadgets {xor1, and1, ip1, ip2}, 20 seeded dense supports each,
    eps in {1/4, 1/2}; zero FAILs and a nonzero number of exercised cases."""
    exercised = fails = total = 0
    for gname, g, b, supp, y, delta_y, eps, x in _claims_corpus():
        total += 1
        leak = is_leaking(x, y, g).flagged
        spars = is_sparsifying(x, y, g, delta_y, eps).flagged
        if (leak or spars) and not leak:
            exercised += 1
            if not is_skewing(x, y, g, delta_y, eps).flagged:
                fails += 1
    ok = fails == 0 and exercised > 0
    verdict("07a claim: dangerous/non-leaking is skewing", ok,
            f"{total} instances, exercised {exercised}, fails {fails}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The biasing-to-dangerous implication is false at n=2: when the size "
        "bound |S| >= c*eps*|J| + (e+2)/log2(n) is instantiated at n=2, the "
        "empty-J clause only constrains |S| >= 2, so singleton XOR biases are "
        "unconstrained.  Concretely, for the and1 gadget with Y uniform on "
        "{00,11} the value x=(0,1) is leaking (AND(0,.) never outputs 1) yet "
        "not biasing: the only qualifying pair is S={1,2}, J=empty, whose "
        "conditional XOR is Y_2 with bias 0.  The implication's derivation "
        "needs every nonempty S to qualify, which requires n >= 4."),
)
def test_criterion_07b_claim_biasing():
    """not biasing implies not dangerous: same corpus; asserted faithfully
    at its stated strength (zero FAILs, zero vacuity at the corpus level)."""
    exercised = fails = total = 0
    examples = []
    for gname, g, b, supp, y, delta_y, eps, x in _claims_corpus():
        total += 1
        if not is_biasing(x, y, g, delta_y, eps, F(2), 2).flagged:
            exercised += 1
            leak = is_leaking(x, y, g).flagged
            spars = leak or is_sparsifying(x, y, g, delta_y, eps).flagged
            if leak or spars:
                fails += 1
                if len(examples) < 3:
                    examples.append((gname, supp, eps, x))
    ok = fails == 0 and exercised > 0
    verdict("07b claim: non-biasing is non-dangerous", ok,
            f"{total} instances, exercised {exercised}, fails {fails}; "
            f"counterexamples e.g. {examples}")
    assert ok


# -- criteria 8, 9, 10 ------------------------------------------------------------

def _lifting_corpus():
    g = builtin_gadget("ip2")
    problems = [("parity2", parity_problem(2)), ("index2", index_problem(2)),
                ("first_bit2", first_bit_problem(2)), ("find_one2", find_one_problem(2))]
    out = []
    for name, problem in problems:
        depth, tree = brute_force_Ddt(problem)
        proto = canonical_protocol(tree, g)
        out.append((name, problem, depth, proto))
    return g, out


def test_criterion_08_deterministic_end_to_end():
    """Every run either completes with a certified transcript and depth <= r,
    or halts with a named desk-scale violation; shipped relations at n=2
    composed with ip2; < 5 min."""
    t0 = time.time()
    g, corpus = _lifting_corpus()
    params = LiftingParams.standard(b=2, n=2, mode="det")
    runs = certified = named = fails = 0
    for name, problem, depth, proto in corpus:
        _, cap_r = complexity(proto)
        for z in range(4):
            runs += 1
            res = lift_deterministic(proto, g, z, params)
            if res.status == "done":
                cert = certify_transcript(res, proto, g, z)
                if cert is None or res.depth > cap_r:
                    fails += 1
                else:
                    certified += 1
                    x, y = cert
                    assert compose_eval(g, x, y, 2) == z
            elif res.status == "invariant_violation" and res.violation:
                named += 1
            else:
                fails += 1
    elapsed = time.time() - t0
    ok = fails == 0 and runs == 16 and elapsed < 300
    verdict("08 deterministic end-to-end", ok,
            f"{runs} runs: {certified} certified, {named} named violations, "
            f"fails {fails}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_error_halt_bound():
    """Exact K-halt mass of the randomized simulation is strictly below
    2^-b on every criterion-8 instance (unconditional bound)."""
    g, corpus = _lifting_corpus()
    params = LiftingParams.standard(b=2, n=2, mode="rand")
    bound = F(1, 4)
    worst = F(0)
    ok = True
    for name, problem, depth, proto in corpus:
        for z in range(4):
            dist = enumerate_output_distribution(proto, g, z, params)
            mass = dist.prob(ERROR_K)
            worst = max(worst, mass)
            if not mass < bound:
                ok = False
    verdict("09 randomized error-halt bound", ok,
            f"worst exact K-halt mass {worst} < {bound}")
    assert ok


def test_criterion_10_deficiency_ledger():
    """Ledger recomputation over all criterion 8-9 runs: every conditional
    clause holds whenever its recorded preconditions hold; zero unexplained
    mismatches."""
    g, corpus = _lifting_corpus()
    det = LiftingParams.standard(b=2, n=2, mode="det")
    rnd = LiftingParams.standard(b=2, n=2, mode="rand")
    checked = mismatches = 0
    for name, problem, depth, proto in corpus:
        for z in range(4):
            res = lift_deterministic(proto, g, z, det)
            rep = ledger_assertions(res, det)
            checked += 1
            if not rep.ok:
                mismatches += 1
            for seed in range(3):
                rres = lift_randomized(proto, g, z, rnd, seed=seed)
                rrep = ledger_assertions(rres, rnd)
                checked += 1
                if not rrep.ok:
                    mismatches += 1
    ok = mismatches == 0
    verdict("10 deficiency ledger", ok, f"{checked} runs, mismatches {mismatches}")
    assert ok


# -- criterion 11 ------------------------------------------------------------------

def test_criterion_11_oracle_sanity():
    """Ddt(parity, n=3) = 3 and the canonical upper bound C <= Ddt*(b+1)
    holds exactly across the lifting corpus."""
    d3, tree3 = brute_force_Ddt(parity_problem(3))
    ok = d3 == 3 and solves(tree3, parity_problem(3))[0]
    g, corpus = _lifting_corpus()
    details = []
    for name, problem, depth, proto in corpus:
        cap_c, _ = complexity(proto)
        details.append(f"{name}: C={cap_c} <= {depth * 3}")
        if cap_c > depth * (g.b + 1):
            ok = False
    verdict("11 oracle sanity + upper bound", ok,
            f"Ddt(parity3)={d3}; " + "; ".join(details))
    assert ok


# -- criterion 12 ------------------------------------------------------------------

def test_criterion_12_determinism():
    """Byte-identical corpus reports across repeated seeded invocations."""
    spec = default_corpus_spec(scale=10)
    rep1 = run_corpus(spec).to_json()
    rep2 = run_corpus(spec).to_json()
    ok = rep1 == rep2
    verdict("12 determinism", ok, f"report bytes {len(rep1)}, identical={ok}")
    assert ok
