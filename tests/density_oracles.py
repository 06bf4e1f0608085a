"""Re-projecting references for is_dense and the density-restoring choice
and partition.

These are the former liftsim.structure bodies: every question projects the
residual onto each nonempty coordinate set through dist.project, and every
carved part conditions the residual again.  They share only
DistributionTable, project, subsets_by_size and the exact kernel with the
counts core in liftsim.structure, so comparing the two is a cross-check.
DensityPart is a copy too; compare parts from the two modules field by
field with vars(), since instances of two classes never compare equal.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from liftsim.dist import DistributionTable, project, subsets_by_size
from liftsim.exact import cmp_pow2_ratio


def _marginals(x: DistributionTable):
    """(coords, project(x, coords)) for every nonempty coordinate set, lazily,
    in subsets_by_size order."""
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    for coords in subsets_by_size(k, nonempty=True):
        yield coords, project(x, coords)


def oracle_density_restoring_choice(x: DistributionTable, delta: Fraction, b: int):
    """(coords, value) of density_restoring_fix, without the conditioned
    remainder: ((), ()) when x is delta-dense."""
    delta = Fraction(delta)
    top = None  # the first violating set of the largest size, and its marginal
    for coords, marg in _marginals(x):
        if (top is None or len(coords) > len(top[0])) and cmp_pow2_ratio(
                max(marg.weights.values()), marg.total, delta * b * len(coords)) > 0:
            top = coords, marg
    if top is None:
        return (), ()
    coords, marg = top
    heavy = max(marg.weights.values())
    return coords, min(v for v, w in marg.weights.items() if w == heavy)


@dataclass
class DensityPart:
    index: int                       # 1-based part number j
    coords: Tuple[int, ...]          # I_j
    value: Tuple[int, ...]           # x_j
    members: Tuple[Tuple[int, ...], ...]
    prob: Fraction                   # Pr[X in part j]
    p_geq: Fraction                  # Pr[X in part j or later]


def oracle_density_restoring_partition(
    x: DistributionTable, delta: Fraction, b: int
) -> List[DensityPart]:
    """Greedy fix-and-carve partition of the support into dense slices.

    Every part fixes a block set to a heavy value and leaves the remaining
    coordinates delta-dense; the entropy loss of part j is bounded through
    p_{>=j}, which starts at 1 and strictly decreases.
    """
    parts: List[DensityPart] = []
    residual = x
    p_geq = Fraction(1)
    j = 0
    while True:
        j += 1
        coords, value = oracle_density_restoring_choice(residual, delta, b)
        if coords:
            sel = dict(zip(coords, value))
            members = tuple(
                t for t in residual.support() if all(t[i] == v for i, v in sel.items())
            )
        else:
            members = residual.support()
        prob = Fraction(sum(x.weights[t] for t in members), x.total)
        parts.append(DensityPart(j, coords, value, members, prob, p_geq))
        member_set = set(members)
        remaining = [t for t in residual.support() if t not in member_set]
        if not remaining:
            break
        p_geq -= prob
        residual = residual.condition(set(remaining))
    return parts


def oracle_density_witness(x: DistributionTable, delta: Fraction, b: int):
    """(violating set, its maxprob) of the first violating set in (size, lex)
    order, or None when x is delta-dense."""
    delta = Fraction(delta)
    for coords, marg in _marginals(x):
        heavy = max(marg.weights.values())
        if cmp_pow2_ratio(heavy, marg.total, delta * b * len(coords)) > 0:
            return coords, Fraction(heavy, marg.total)
    return None
