"""Brute-force references for the dangerous-value scans.

Each oracle re-derives one scan's verdict and first witness from its
definition, walking Y's support with Fraction arithmetic (or conditioning and
projecting a DistributionTable) for every candidate in the order the
definitions give.  They share no code with liftsim.structure.DangerScan
beyond DistributionTable, is_dense and the exact comparisons, so tests that
compare the scans with them are cross-checks, not self-comparisons.
"""

from fractions import Fraction as F
from itertools import combinations, product

from liftsim.dist import project
from liftsim.errors import BudgetError, DomainError
from liftsim.exact import cmp_pow2, cmp_products
from liftsim.structure import Verdict, is_dense


def _pattern_prob(g, x_val, y, coords, bits):
    """Walks Y's whole support, evaluating g on every coordinate of coords."""
    weight = sum(w for t, w in y.weights.items()
                 if w and all(g.eval(x_val[i], t[i]) == z for i, z in zip(coords, bits)))
    return F(weight, y.total)


def oracle_subsets(k):
    for r in range(1, k + 1):
        yield from combinations(range(k), r)


def oracle_is_leaking(x_val, y, g, coord_limit=3):
    """Re-walks Y's support with Fraction sums for every (coords, bits)."""
    k = len(x_val)
    if k > coord_limit:
        raise BudgetError("leaking scan free coordinates", k, coord_limit)
    for coords in oracle_subsets(k):
        bound = F(1, 1 << (len(coords) + 1))
        for bits in product((0, 1), repeat=len(coords)):
            if _pattern_prob(g, x_val, y, coords, bits) < bound:
                return Verdict(True, (coords, bits))
    return Verdict(False)


def oracle_is_sparsifying(x_val, y, g, delta_y, eps, b, coord_limit=3):
    """Conditions and projects a DistributionTable for every (coords, bits)."""
    delta_y, eps = F(delta_y), F(eps)
    k = len(x_val)
    if k > coord_limit:
        raise BudgetError("sparsifying scan free coordinates", k, coord_limit)
    level = delta_y - eps
    for coords in oracle_subsets(k):
        rest = tuple(i for i in range(k) if i not in coords)
        for bits in product((0, 1), repeat=len(coords)):
            if _pattern_prob(g, x_val, y, coords, bits) == 0:
                continue
            cond = y.condition(
                lambda t, c=coords, z=bits: all(
                    g.eval(x_val[i], t[i]) == zz for i, zz in zip(c, z)
                )
            )
            if not rest:
                continue
            witness = is_dense(project(cond, rest), level, b)
            if not witness.dense:
                return Verdict(True, (coords, bits, witness.violating_set,
                                      witness.witness_maxprob))
    return Verdict(False)


def oracle_is_skewing(x_val, y, g, delta_y, eps, b, coord_limit=3):
    """Projects Y onto J and conditions on every y_J, evaluating g row by row."""
    delta_y, eps = F(delta_y), F(eps)
    k = len(x_val)
    if k > coord_limit:
        raise BudgetError("skewing scan free coordinates", k, coord_limit)
    for coords_i in oracle_subsets(k):
        others = [i for i in range(k) if i not in coords_i]
        for jsize in range(1, len(others) + 1):
            for coords_j in combinations(others, jsize):
                yj_marg = project(y, coords_j)
                for yj in yj_marg.support():
                    pj = yj_marg.prob(yj)
                    cond = y.condition(
                        lambda t, cj=coords_j, v=yj: all(t[i] == vv for i, vv in zip(cj, v)))
                    out_weight = {}
                    for t, w in cond.weights.items():
                        if w:
                            pat = tuple(g.eval(x_val[i], t[i]) for i in coords_i)
                            out_weight[pat] = out_weight.get(pat, 0) + w
                    maxp = F(max(out_weight.values()), cond.total)
                    q = (F(len(coords_i)) - eps * b * len(coords_j) + 1
                         + delta_y * b * len(coords_j))
                    if cmp_pow2(maxp * pj, q) > 0:
                        return Verdict(True, (coords_i, coords_j, yj, maxp, pj))
    return Verdict(False)


def oracle_is_biasing(x_val, y, g, delta_y, eps, b, c, n, coord_limit=3):
    """Lists every (J, y_J) candidate by projection, then conditions Y on it."""
    delta_y, eps, c = F(delta_y), F(eps), F(c)
    if n < 2:
        raise DomainError("the ambient dimension must be at least 2")
    k = len(x_val)
    if k > coord_limit:
        raise BudgetError("biasing scan free coordinates", k, coord_limit)
    for coords_s in oracle_subsets(k):
        ssize = len(coords_s)
        bias_bound = F(1, 2 * (2 * n) ** ssize)
        others = [i for i in range(k) if i not in coords_s]
        candidates = [((), (), F(1))]
        for jsize in range(1, len(others) + 1):
            for coords_j in combinations(others, jsize):
                yj_marg = project(y, coords_j)
                for yj in yj_marg.support():
                    candidates.append((coords_j, yj, yj_marg.prob(yj)))
        for coords_j, yj, pj in candidates:
            if cmp_products(pj, [(n, F(ssize)), (2, delta_y * b * len(coords_j))],
                            F(4), [(n, c * eps * len(coords_j))]) < 0:
                continue
            cond = y.condition(
                lambda t, cj=coords_j, v=yj: all(t[i] == vv for i, vv in zip(cj, v)))
            w0 = 0
            for t, w in cond.weights.items():
                if w:
                    parity = 0
                    for i in coords_s:
                        parity ^= g.eval(x_val[i], t[i])
                    if parity == 0:
                        w0 += w
            bias_val = F(abs(2 * w0 - cond.total), cond.total)
            if bias_val > bias_bound:
                return Verdict(True, (coords_s, coords_j, yj, bias_val, bias_bound))
    return Verdict(False)
