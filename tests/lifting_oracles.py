"""The corpus's lifting section as it ran before its seeded runs rode the
enumeration: one enumerate_output_distribution walk per (problem, z), then
one lift_randomized walk per seed.  It is the oracle of the section's one
walk per (problem, z).

Every helper is read off the ``verify`` and ``simulate`` modules at call
time, so a test that patches one of them there (to count the walks, or to
record what the ledger is handed) patches it for the section and its
oracle alike.
"""

from fractions import Fraction

from liftsim import simulate, verify
from liftsim.exact import frac_str
from liftsim.verify import LemmaInstance, SectionReport


def oracle_section_lifting(seed, gadget="ip2", rand_seeds=3):
    rep_det = SectionReport("lifting_deterministic")
    rep_err = SectionReport("lifting_error_halt")
    rep_led = SectionReport("deficiency_ledger")
    rep_orc = SectionReport("oracle_bounds")
    g = verify.builtin_gadget(gadget)
    b = g.b
    n = 2
    det = simulate.LiftingParams.standard(b=b, n=n, mode="det")
    rnd = simulate.LiftingParams.standard(b=b, n=n, mode="rand")
    det_cache, rnd_cache = simulate._EngineCache(g, det), simulate._EngineCache(g, rnd)

    d3, t3 = verify.brute_force_Ddt(verify.parity_problem(3))
    rep_orc.record(LemmaInstance("oracle/parity3",
                                 "pass" if d3 == 3 else "FAIL",
                                 measured=str(d3), bound="3"))

    for pname, problem in verify.shipped_problems():
        depth, tree = verify.brute_force_Ddt(problem)
        ok, bad = verify.solves(tree, problem)
        proto = verify.canonical_protocol(tree, g)
        cap_c, cap_r = verify.complexity(proto)
        rep_orc.record(LemmaInstance(
            f"oracle/upper-bound/{pname}",
            "pass" if ok and cap_c <= depth * (b + 1) else "FAIL",
            measured=str(cap_c), bound=f"{depth}*(b+1)={depth * (b + 1)}"))
        for z in range(1 << n):
            res = verify.lift_deterministic(proto, g, z, det, cache=det_cache)
            tag = f"det/{pname}/z={z:02b}"
            if res.status == "done":
                cert = verify.certify_transcript(res, proto, g, z)
                ok_run = cert is not None and res.depth <= cap_r
                rep_det.record(LemmaInstance(
                    tag, "pass" if ok_run else "FAIL",
                    detail="no certifying preimage" if cert is None else ""))
            elif res.status == "invariant_violation" and res.violation:
                rep_det.record(LemmaInstance(tag, "pass",
                                             detail=f"violation named: {res.violation}"))
            else:
                rep_det.record(LemmaInstance(tag, "FAIL", detail=str(res.status)))
            led = verify.ledger_assertions(res, det)
            rep_led.record(LemmaInstance(
                f"ledger/{tag}", "pass" if led.ok else "FAIL"))

            dist = simulate.enumerate_output_distribution(proto, g, z, rnd, cache=rnd_cache)
            err_mass = dist.prob(simulate.ERROR_K)
            bound = Fraction(1, 1 << b)
            rep_err.record(LemmaInstance(
                f"rand/{pname}/z={z:02b}", "pass" if err_mass < bound else "FAIL",
                measured=frac_str(err_mass), bound=frac_str(bound)))
            for sd in range(rand_seeds):
                rres = simulate.lift_randomized(proto, g, z, rnd, seed=sd, cache=rnd_cache)
                rled = verify.ledger_assertions(rres, rnd)
                rep_led.record(LemmaInstance(
                    f"ledger/rand/{pname}/z={z:02b}/seed={sd}",
                    "pass" if rled.ok else "FAIL"))
    return [rep_det, rep_err, rep_led, rep_orc]
