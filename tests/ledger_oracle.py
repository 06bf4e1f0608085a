"""The deficiency ledger on Fractions, as simulate.ledger_assertions decided it
before it moved to integers: the oracle its integer clauses are compared with.

Each snapshot's deficiency value is a Fraction and every clause is a
Fraction comparison or a ``cmp_products`` call.
"""

from fractions import Fraction
from typing import Dict, List, Optional

from liftsim.exact import cmp_products
from liftsim.simulate import LedgerReport, LiftingParams, RoundLedger, SimResult


def _dval(snapshot, b: int) -> Fraction:
    free_count, mpx, mpy = snapshot
    return Fraction(mpx.numerator * mpy.numerator << 2 * b * free_count,
                    mpx.denominator * mpy.denominator)


def ledger_assertions(result: SimResult, params: LiftingParams) -> LedgerReport:
    """Recompute every deficiency delta from the trace and check the bounds.

    Deficiency is 2b|free| - H_inf(X_free) - H_inf(Y_free); it is carried in
    the cleared form 4^(b|free|) * maxp_x * maxp_y, computed once per
    snapshot of a round, so every clause is an exact rational comparison.
    Conditional clauses are checked only when their recorded preconditions
    hold; failed preconditions are reported.
    """
    b = params.b
    delta = params.delta
    rounds_out: List[RoundLedger] = []
    nonneg = True
    for rec in result.rounds:
        dvals = {name: _dval(snap, b) for name, snap in rec.snapshots.items()}
        checks: Dict[str, Optional[bool]] = {}
        pre: Dict[str, bool] = {}
        if any(d < 1 for d in dvals.values()):
            nonneg = False
        if "after_discard" in dvals and "start" in dvals:
            d0, d1 = dvals["start"], dvals["after_discard"]
            pre["discard_at_most_half"] = rec.discarded_mass * 2 <= 1
            checks["discard_increase_le_1_bit"] = (
                d1 <= 2 * d0 if pre["discard_at_most_half"] else None)
        if "after_message" in dvals and "after_discard" in dvals:
            d1, d2 = dvals["after_discard"], dvals["after_message"]
            if params.mode == "det":
                pre["kraft_heavy"] = bool(rec.flags.get("kraft_heavy"))
                checks["message_increase_le_len"] = (
                    d2 <= d1 * (1 << len(rec.message)) if pre["kraft_heavy"] else None)
            else:
                checks["message_increase_le_log"] = d2 * rec.p_message <= d1
            if "start" in dvals:
                d0 = dvals["start"]
                if pre.get("discard_at_most_half"):
                    checks["steps12_increase_le_log_plus_1"] = (
                        d2 * rec.p_message <= 2 * d0)
        if rec.query_coords and "after_message" in dvals and "end" in dvals:
            isize = len(rec.query_coords)
            d2 = dvals["after_message"]
            d5 = dvals["end"]
            pre["nonleaking_event"] = bool(rec.flags.get("nonleaking_event"))
            if "after_fix" in dvals:
                d3 = dvals["after_fix"]
                if params.mode == "det":
                    pre["heavy_value"] = bool(rec.flags.get("heavy_value", True))
                    checks["fix_increase_lt_delta_b_I"] = (
                        cmp_products(d3, (), d2, [(2, delta * b * isize)]) < 0
                        if pre["heavy_value"] else None)
                else:
                    checks["partition_increase_bound"] = (
                        cmp_products(d3 * rec.p_geq, (), d2, [(2, delta * b * isize)]) <= 0
                        if rec.p_geq is not None else None)
            if "after_query" in dvals and "after_fix" in dvals:
                d3 = dvals["after_fix"]
                d4 = dvals["after_query"]
                checks["query_decrease_ge_b_I"] = (
                    cmp_products(d4, [(2, Fraction(b * isize))], d3, ()) <= 0)
            if params.mode == "det":
                bound = (1 - delta - Fraction(2, b)) * b * isize
                applicable = pre.get("heavy_value", False) and pre["nonleaking_event"]
                checks["net_decrease_det"] = (
                    cmp_products(d5, [(2, bound)], d2, ()) <= 0 if applicable else None)
            else:
                pre["trunc_ok"] = (
                    rec.p_geq is not None and params.trunc_cmp(rec.p_geq) >= 0)
                # slack: 16nb * 2^(|I|+1) <= 2^((7/c)b|I| + (eta/8)b(|I|-1))
                slack_rhs = (Fraction(7, 1) / params.c) * b * isize \
                    + params.eta * b * (isize - 1) / 8
                pre["slack_ok"] = cmp_products(
                    Fraction(16 * params.n * b * (1 << (isize + 1))), (),
                    Fraction(1), [(2, slack_rhs)]) <= 0
                bound = (1 - delta - params.eta / 8 - 7 / params.c) * b * isize
                applicable = pre["trunc_ok"] and pre["nonleaking_event"] and pre["slack_ok"]
                checks["net_decrease_rand"] = (
                    cmp_products(d5, [(2, bound)], d2, ()) <= 0 if applicable else None)
                delta_alt = 1 - params.eta / 8 + params.eps / 2
                bound_alt = (1 - delta_alt - params.eta / 8 - 7 / params.c) * b * isize
                checks["net_decrease_rand_alt_delta_reading"] = (
                    cmp_products(d5, [(2, bound_alt)], d2, ()) <= 0 if applicable else None)
        rounds_out.append(RoundLedger(rec.index, checks, pre))
    return LedgerReport(rounds_out, nonneg)
