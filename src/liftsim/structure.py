"""Restrictions, density, structure certificates, dangerous-value scans.

Distributions here are block tables: elements are tuples over {0,1}^b, one
entry per coordinate of the set under discussion (the free coordinates, in
the simulation).  All scans are exhaustive with canonical enumeration order
(subsets by size then lexicographically) and exact comparisons; instance
sizes are guarded by explicit budgets.

The leaking and sparsifying scans make one pattern pass per value: each y in
Y's support gets its gadget output pattern against x and an integer weight
over one common total, and every (coordinate set, bit pattern) probability
is a weight sum over those rows.  No scan is pruned.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .dist import DistributionTable, project, subsets_by_size
from .errors import BudgetError, DomainError
from .exact import cmp_pow2, cmp_products, exact_log2
from .gadgets import Gadget

__all__ = [
    "Restriction",
    "DensityWitness",
    "StructureCertificate",
    "StructureRefusal",
    "DensityPart",
    "is_dense",
    "max_density",
    "is_structured",
    "density_restoring_fix",
    "density_restoring_partition",
    "is_leaking",
    "is_sparsifying",
    "is_skewing",
    "is_biasing",
    "is_dangerous",
    "dangerous_probability",
    "SCAN_COORD_LIMIT",
]

SCAN_COORD_LIMIT = 3
DENSITY_RESOLUTION_BITS = 20


class Restriction:
    """A partial assignment in {0,1,*}^n tracking queried coordinates."""

    __slots__ = ("cells",)

    def __init__(self, cells: str):
        if any(ch not in "01*" for ch in cells):
            raise DomainError("restriction cells must be '0', '1' or '*'")
        self.cells = cells

    @classmethod
    def all_free(cls, n: int) -> "Restriction":
        return cls("*" * n)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Restriction) and self.cells == other.cells

    def __repr__(self) -> str:
        return f"Restriction({self.cells!r})"

    def free(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self.cells) if ch == "*")

    def fixed(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self.cells) if ch != "*")

    def fix(self, coords: Sequence[int], bits: Sequence[int]) -> "Restriction":
        cells = list(self.cells)
        for i, bit in zip(coords, bits):
            if cells[i] != "*":
                raise DomainError(f"coordinate {i} is already fixed")
            cells[i] = str(bit)
        return Restriction("".join(cells))

    def consistent_with(self, z: int) -> bool:
        n = len(self.cells)
        return all(
            ch == "*" or int(ch) == ((z >> (n - 1 - i)) & 1)
            for i, ch in enumerate(self.cells)
        )


def _guard(k: int, limit: int, what: str) -> None:
    if k > limit:
        raise BudgetError(what, k, limit)


@dataclass
class DensityWitness:
    delta: Fraction
    violating_set: Optional[Tuple[int, ...]] = None
    witness_maxprob: Optional[Fraction] = None

    @property
    def dense(self) -> bool:
        return self.violating_set is None


def is_dense(x: DistributionTable, delta: Fraction, b: int) -> DensityWitness:
    """Exact check that every projection has min-entropy >= delta*b*|I|.

    Returns the first violating set in (size, lex) order, or a clean witness.
    """
    delta = Fraction(delta)
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    for coords in subsets_by_size(k, nonempty=True):
        p = project(x, coords).maxprob()
        if cmp_pow2(p, delta * b * len(coords)) > 0:
            return DensityWitness(delta, coords, p)
    return DensityWitness(delta)


def max_density(
    x: DistributionTable,
    b: int,
    resolution_bits: int = DENSITY_RESOLUTION_BITS,
) -> Tuple[Fraction, Fraction]:
    """Bracket sup{delta : x is delta-dense} by binary search.

    Membership tests are exact; the returned (lo, hi) satisfy: x is lo-dense,
    and either hi = lo (sup attained exactly) or x is not hi-dense, with
    hi - lo <= 2**-resolution_bits.
    """
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    if k == 0:
        return Fraction(1), Fraction(1)  # vacuously dense at every level
    one = Fraction(1)
    if is_dense(x, one, b).dense:
        return one, one
    lo, hi = Fraction(0), one
    step = Fraction(1, 1 << resolution_bits)
    while hi - lo > step:
        mid = (lo + hi) / 2
        if is_dense(x, mid, b).dense:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class StructureCertificate:
    rho: Restriction
    delta_x: Fraction
    delta_y: Fraction
    tau: Fraction


@dataclass
class StructureRefusal:
    reason: str
    detail: str = ""


def _worst_marginal(x: DistributionTable, k: int):
    """The (maxprob, |I|) pair minimizing log2(1/p)/(b|I|), compared exactly."""
    worst = None
    for coords in subsets_by_size(k, nonempty=True):
        p = project(x, coords).maxprob()
        size = len(coords)
        if worst is None:
            worst = (p, size)
            continue
        wp, ws = worst
        # p^ws > wp^size  <=>  log(1/p)/size < log(1/wp)/ws
        if cmp_products(p ** ws, (), wp ** size, ()) > 0:
            worst = (p, size)
    return worst


def is_structured(
    x: DistributionTable,
    y: DistributionTable,
    rho: Restriction,
    tau: Fraction,
    g: Gadget,
    x_full: Optional[DistributionTable] = None,
    y_full: Optional[DistributionTable] = None,
    resolution_bits: int = DENSITY_RESOLUTION_BITS,
):
    """Search for a structure certificate at threshold tau.

    `x`, `y` are the free-block marginals; when the full-input tables are
    supplied, fixed-block consistency with the gadget is verified as well.
    The density-sum feasibility test is exact; the witnessing split is found
    by bracket refinement (certificate deltas are dyadic rationals).
    """
    tau = Fraction(tau)
    b = g.b
    if x_full is not None and y_full is not None:
        fixed = rho.fixed()
        for xv in x_full.support():
            for yv in y_full.support():
                for i in fixed:
                    if g.eval(xv[i], yv[i]) != int(rho.cells[i]):
                        return StructureRefusal(
                            "fixed-block consistency",
                            f"g(x_{i}, y_{i}) != rho_{i} on support pair {xv}, {yv}",
                        )
    k = len(rho.free())
    if k == 0:
        half = tau / 2
        return StructureCertificate(rho, half, half, tau)
    wx = _worst_marginal(x, k)
    wy = _worst_marginal(y, k)
    (px, sx), (py, sy) = wx, wy
    if px == 1 or py == 1:
        return StructureRefusal("density", "a free marginal is constant (density sup is 0)")
    if tau <= 0:
        # any positive split works; take the bracket floors
        dx = max_density(x, b, resolution_bits)[0]
        dy = max_density(y, b, resolution_bits)[0]
        return StructureCertificate(rho, dx, dy, tau)
    # feasibility: sup_x + sup_y >= tau  <=>  px^sy * py^sx <= 2^(-tau*b*sx*sy)
    feasible = cmp_pow2(px ** sy * py ** sx, tau * b * sx * sy)
    if feasible > 0:
        return StructureRefusal("density sum", "max densities cannot reach tau")
    for bits in (resolution_bits, resolution_bits + 10, resolution_bits + 20):
        lo_x, _ = max_density(x, b, bits)
        lo_y, _ = max_density(y, b, bits)
        if lo_x > 0 and lo_y > 0 and lo_x + lo_y >= tau:
            return StructureCertificate(rho, lo_x, lo_y, tau)
        # exact sup on one side when its worst marginal is a power of two
        for other, swap in ((y, False), (x, True)):
            p, s = wy if swap else wx
            log_p = exact_log2(p)
            if log_p is not None:
                d_exact = -log_p / (b * s)
                d_other = tau - d_exact
                if d_exact > 0 and d_other > 0 and is_dense(other, d_other, b).dense:
                    dx, dy = (d_other, d_exact) if swap else (d_exact, d_other)
                    return StructureCertificate(rho, dx, dy, tau)
    return StructureRefusal(
        "density sum",
        "tau is reachable only in the limit; no rational split found at the "
        f"working resolution 2^-{resolution_bits + 20}",
    )


# -- density restoration -------------------------------------------------------

def density_restoring_fix(x: DistributionTable, delta: Fraction, b: int):
    """Pick a maximal density-violating set and its heavy value.

    Returns (coords, value, conditioned table over the remaining coordinates).
    Tie-breaks: violating set of maximum cardinality, lexicographically first;
    then the heaviest value, lexicographically first.  The conditioned
    remainder is delta-dense (asserted by the caller's tests).
    """
    delta = Fraction(delta)
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    violating = [
        coords
        for coords in subsets_by_size(k, nonempty=True)
        if cmp_pow2(project(x, coords).maxprob(), delta * b * len(coords)) > 0
    ]
    if not violating:
        return (), (), x
    top = max(len(c) for c in violating)
    coords = min(c for c in violating if len(c) == top)
    marg = project(x, coords)
    heavy = max(marg.weights.values())
    value = min(v for v, w in marg.weights.items() if w == heavy)
    rest = tuple(i for i in range(k) if i not in coords)
    sel = dict(zip(coords, value))
    cond = x.condition(lambda t: all(t[i] == v for i, v in sel.items()))
    reduced = project(cond, rest) if rest else DistributionTable.point(())
    return coords, value, reduced


@dataclass
class DensityPart:
    index: int                       # 1-based part number j
    coords: Tuple[int, ...]          # I_j
    value: Tuple[int, ...]           # x_j
    members: Tuple[Tuple[int, ...], ...]
    prob: Fraction                   # Pr[X in part j]
    p_geq: Fraction                  # Pr[X in part j or later]


def density_restoring_partition(
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
        coords, value, _ = density_restoring_fix(residual, delta, b)
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


# -- dangerous values ----------------------------------------------------------

@dataclass
class Verdict:
    flagged: bool
    witness: tuple | None = None


def _pattern_rows(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget):
    """One pass over Y's support for a fixed x: (pattern, weight, y) rows and their total.

    Bit k-1-i of a pattern is g(x_i, y_i); weights and total are Y's own
    integer weights and total, so pattern probabilities are weight sums over
    the total.
    """
    side = g.side
    if any(not 0 <= v < side for v in x_val):
        raise DomainError(f"inputs must lie in [0, {side})")
    cols = [dict(enumerate(g.table[v * side:(v + 1) * side])) for v in x_val]
    rows = []
    for t, w in y.weights.items():  # Y's support, in domain order
        if not w:
            continue
        pat = 0
        for i, col in enumerate(cols):
            bit = col.get(t[i])
            if bit is None:
                raise DomainError(f"inputs must lie in [0, {side})")
            pat = pat << 1 | bit
        rows.append((pat, w, t))
    return rows, y.total


def _cube(coords: Tuple[int, ...], k: int):
    """(bits, pattern) for every assignment to coords, in product order."""
    for bits in product((0, 1), repeat=len(coords)):
        yield bits, sum(z << (k - 1 - i) for i, z in zip(coords, bits))


def is_leaking(
    x_val: Tuple[int, ...],
    y: DistributionTable,
    g: Gadget,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> Verdict:
    """Some output pattern is less than half as likely as uniform would allow."""
    k = len(x_val)
    _guard(k, coord_limit, "leaking scan free coordinates")
    rows, total = _pattern_rows(x_val, y, g)
    hist = [0] * (1 << k)
    for pat, w, _ in rows:
        hist[pat] += w
    for coords in subsets_by_size(k, nonempty=True):
        mask = sum(1 << (k - 1 - i) for i in coords)
        marg: Dict[int, int] = defaultdict(int)
        for pat, w in enumerate(hist):
            marg[pat & mask] += w
        shift = len(coords) + 1
        for bits, pat in _cube(coords, k):
            # Pr[pattern] < 2**-(|S|+1)
            if marg[pat] << shift < total:
                return Verdict(True, (coords, bits))
    return Verdict(False)


def is_sparsifying(
    x_val: Tuple[int, ...],
    y: DistributionTable,
    g: Gadget,
    delta_y: Fraction,
    eps: Fraction,
    b: int,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> Verdict:
    """Conditioning on some output pattern destroys more density than eps allows.

    The witness is (coords, bits, violating set relative to the remaining
    coordinates, its conditioned max-probability), as is_dense reports it.
    """
    delta_y, eps = Fraction(delta_y), Fraction(eps)
    k = len(x_val)
    _guard(k, coord_limit, "sparsifying scan free coordinates")
    level = delta_y - eps
    rows, _ = _pattern_rows(x_val, y, g)
    for coords in subsets_by_size(k, nonempty=True):
        rest = tuple(i for i in range(k) if i not in coords)
        if not rest:
            continue  # nothing left to lose density
        subs = [
            (sub, itemgetter(*(rest[j] for j in sub)), level * b * len(sub))
            for sub in subsets_by_size(len(rest), nonempty=True)
        ]
        mask = sum(1 << (k - 1 - i) for i in coords)
        groups: Dict[int, list] = {}
        for pat, w, t in rows:
            groups.setdefault(pat & mask, []).append((w, t))
        for bits, pat in _cube(coords, k):
            group = groups.get(pat)
            if group is None:
                continue  # cannot condition on a null pattern
            weight = sum(w for w, _ in group)
            for sub, key, q in subs:
                marg: Dict[object, int] = defaultdict(int)
                for w, t in group:
                    marg[key(t)] += w
                p = Fraction(max(marg.values()), weight)
                if cmp_pow2(p, q) > 0:
                    return Verdict(True, (coords, bits, sub, p))
    return Verdict(False)


def is_skewing(
    x_val: Tuple[int, ...],
    y: DistributionTable,
    g: Gadget,
    delta_y: Fraction,
    eps: Fraction,
    b: int,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> Verdict:
    """Conditioning on some Y_J value skews the gadget outputs on I.

    The excess-entropy term of y_J never materializes; the defining identity
    turns the test into: maxprob(g^I(x_I, Y_I) | Y_J = y_J) * Pr[Y_J = y_J]
    > 2**(-|I| + eps*b*|J| - 1 - delta_y*b*|J|).
    """
    delta_y, eps = Fraction(delta_y), Fraction(eps)
    k = len(x_val)
    _guard(k, coord_limit, "skewing scan free coordinates")
    for coords_i in subsets_by_size(k, nonempty=True):
        others = [i for i in range(k) if i not in coords_i]
        for jsize in range(1, len(others) + 1):
            for coords_j in combinations(others, jsize):
                yj_marg = project(y, coords_j)
                for yj in yj_marg.support():
                    pj = yj_marg.prob(yj)
                    cond = y.condition(
                        lambda t, cj=coords_j, v=yj: all(t[i] == vv for i, vv in zip(cj, v))
                    )
                    out_weight: Dict[Tuple[int, ...], int] = {}
                    for t, w in cond.weights.items():
                        if w:
                            pat = tuple(g.eval(x_val[i], t[i]) for i in coords_i)
                            out_weight[pat] = out_weight.get(pat, 0) + w
                    maxp = Fraction(max(out_weight.values()), cond.total)
                    q = (
                        Fraction(len(coords_i))
                        - eps * b * len(coords_j)
                        + 1
                        + delta_y * b * len(coords_j)
                    )
                    if cmp_pow2(maxp * pj, q) > 0:
                        return Verdict(True, (coords_i, coords_j, yj, maxp, pj))
    return Verdict(False)


def is_biasing(
    x_val: Tuple[int, ...],
    y: DistributionTable,
    g: Gadget,
    delta_y: Fraction,
    eps: Fraction,
    b: int,
    c: Fraction,
    n: int,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> Verdict:
    """Some qualifying (S, J, y_J) has a conditional XOR bias above threshold.

    The size bound is tested in the fully cleared form
    n**|S| * 2**(delta_y*b*|J|) * Pr[Y_J = y_J] >= 4 * n**(c*eps*|J|);
    the empty J uses probability 1 and |J| = 0.
    """
    delta_y, eps, c = Fraction(delta_y), Fraction(eps), Fraction(c)
    if n < 2:
        raise DomainError("the ambient dimension must be at least 2")
    k = len(x_val)
    _guard(k, coord_limit, "biasing scan free coordinates")
    for coords_s in subsets_by_size(k, nonempty=True):
        ssize = len(coords_s)
        bias_bound = Fraction(1, 2 * (2 * n) ** ssize)
        others = [i for i in range(k) if i not in coords_s]
        # candidate (J, y_J) pairs, starting with the empty set
        candidates: List[Tuple[Tuple[int, ...], Tuple[int, ...], Fraction]] = [((), (), Fraction(1))]
        for jsize in range(1, len(others) + 1):
            for coords_j in combinations(others, jsize):
                yj_marg = project(y, coords_j)
                for yj in yj_marg.support():
                    candidates.append((coords_j, yj, yj_marg.prob(yj)))
        for coords_j, yj, pj in candidates:
            size_ok = (
                cmp_products(
                    pj,
                    [(n, Fraction(ssize)), (2, delta_y * b * len(coords_j))],
                    Fraction(4),
                    [(n, c * eps * len(coords_j))],
                )
                >= 0
            )
            if not size_ok:
                continue
            if coords_j:
                cond = y.condition(
                    lambda t, cj=coords_j, v=yj: all(t[i] == vv for i, vv in zip(cj, v))
                )
            else:
                cond = y
            w0 = 0
            for t, w in cond.weights.items():
                if w:
                    parity = 0
                    for i in coords_s:
                        parity ^= g.eval(x_val[i], t[i])
                    if parity == 0:
                        w0 += w
            bias_val = Fraction(abs(2 * w0 - cond.total), cond.total)
            if bias_val > bias_bound:
                return Verdict(True, (coords_s, coords_j, yj, bias_val, bias_bound))
    return Verdict(False)


def is_dangerous(
    x_val: Tuple[int, ...],
    y: DistributionTable,
    g: Gadget,
    delta_y: Fraction,
    eps: Fraction,
    b: int,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> bool:
    """Leaking or sparsifying; the set the simulation discards."""
    if is_leaking(x_val, y, g, coord_limit).flagged:
        return True
    return is_sparsifying(x_val, y, g, delta_y, eps, b, coord_limit).flagged


def dangerous_probability(
    x: DistributionTable,
    y: DistributionTable,
    g: Gadget,
    delta_y: Fraction,
    eps: Fraction,
    b: int,
    coord_limit: int = SCAN_COORD_LIMIT,
) -> Fraction:
    """Exact X-mass of dangerous values."""
    weight = 0
    for x_val, w in x.weights.items():
        if w and is_dangerous(x_val, y, g, delta_y, eps, b, coord_limit):
            weight += w
    return Fraction(weight, x.total)
