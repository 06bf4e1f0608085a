"""Restrictions, density, structure certificates, dangerous-value scans.

Distributions here are block tables: elements are tuples over {0,1}^b, one
entry per coordinate of the set under discussion (the free coordinates, in
the simulation).  All scans are exhaustive with canonical enumeration order
(subsets by size then lexicographically) and exact comparisons; instance
sizes are guarded by explicit budgets.

All four dangerous-value scans (leaking, sparsifying, skewing, biasing) make
one pattern pass per value: each y in Y's support gets its gadget output
pattern against x and an integer weight over one common total, and every
probability a scan tests (of a bit pattern, of a Y_J value, of a parity) is
a weight sum over those rows.  No scan is pruned.  DangerScan, the
contraction core, classifies many x against one Y: on each set C it
contracts Y's weights with the gadget's output rows one coordinate at a
time, for every x_C at once, and answers each x's leaking, sparsifying,
dangerous and biasing verdicts by lookups keyed by (C, x_C).  The per-value
scans stay as the witness-returning reference.  Density questions read the
marginals of one lazy generator; max_density and the structure search need
only the worst marginal.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .dist import DistributionTable, project, subsets_by_size
from .errors import BudgetError, DomainError
from .exact import cmp_pow2, cmp_products, exact_log2, log2_bounds
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
    "DangerScan",
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


def _marginals(x: DistributionTable):
    """(coords, project(x, coords)) for every nonempty coordinate set, lazily,
    in subsets_by_size order."""
    k = len(x.domain[0]) if x.domain and isinstance(x.domain[0], tuple) else 0
    for coords in subsets_by_size(k, nonempty=True):
        yield coords, project(x, coords)


def is_dense(x: DistributionTable, delta: Fraction, b: int) -> DensityWitness:
    """Exact check that every projection has min-entropy >= delta*b*|I|.

    Returns the first violating set in (size, lex) order, or a clean witness.
    """
    delta = Fraction(delta)
    for coords, marg in _marginals(x):
        p = marg.maxprob()
        if cmp_pow2(p, delta * b * len(coords)) > 0:
            return DensityWitness(delta, coords, p)
    return DensityWitness(delta)


def _worst_marginal(x: DistributionTable):
    """The (maxprob, |I|) pair minimizing log2(1/p)/(b|I|), compared exactly;
    the first such pair in subsets_by_size order, or None for k = 0."""
    worst = None
    for coords, marg in _marginals(x):
        p, size = marg.maxprob(), len(coords)
        # p^ws > wp^size  <=>  log(1/p)/size < log(1/wp)/ws
        if worst is None or p ** worst[1] > worst[0] ** size:
            worst = (p, size)
    return worst


def _density_bracket(worst, b: int, resolution_bits: int) -> Tuple[Fraction, Fraction]:
    """max_density's bracket from the worst marginal (p, s) alone: for delta >= 0,
    x is delta-dense iff p <= 2**(-delta*b*s), so lo = m/2^r for the largest
    m <= 2^r passing that test, m = floor(2^r * log2(1/p) / (b*s)), and
    hi = lo + 2^-r if m < 2^r.  m is read off certified bounds on log2(p);
    only a candidate the bounds leave open is tested exactly."""
    one = Fraction(1)
    if worst is None:
        return one, one  # k = 0: vacuously dense at every level
    p, s = worst
    if cmp_pow2(p, b * s) <= 0:
        return one, one
    top = 1 << resolution_bits
    lo, hi = log2_bounds(p, resolution_bits + 2)
    floor, m = max(-hi * top // (b * s), 0), min(-lo * top // (b * s), top - 1)
    while m > floor and cmp_pow2(p, Fraction(m * b * s, top)) > 0:
        m -= 1
    return Fraction(m, top), Fraction(m + 1, top)


def max_density(
    x: DistributionTable,
    b: int,
    resolution_bits: int = DENSITY_RESOLUTION_BITS,
) -> Tuple[Fraction, Fraction]:
    """Bracket sup{delta : x is delta-dense}, which is log2(1/p)/(b*s) for the
    worst marginal (p, s), by exact comparisons on that one marginal.

    The returned (lo, hi) satisfy: x is lo-dense, and either hi = lo = 1 (x is
    1-dense or has no coordinates) or x is not hi-dense and
    hi - lo = 2**-resolution_bits.
    """
    return _density_bracket(_worst_marginal(x), b, resolution_bits)


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


def is_structured(
    x: DistributionTable,
    y: DistributionTable,
    rho: Restriction,
    tau: Fraction,
    g: Gadget,
    x_full: Optional[DistributionTable] = None,
    y_full: Optional[DistributionTable] = None,
):
    """Search for a structure certificate at threshold tau.

    `x`, `y` are the free-block marginals; when the full-input tables are
    supplied, fixed-block consistency with the gadget is verified as well.
    The density-sum feasibility test is exact.  The split comes from each
    side's worst marginal: the max_density floors at resolution 2^-R, 2^-(R+10)
    and 2^-(R+20), R = DENSITY_RESOLUTION_BITS, or, tried once after the first
    rung, the exact supremum of a side whose worst marginal is a power of two.
    """
    tau = Fraction(tau)
    b = g.b
    if x_full is not None and y_full is not None and rho.fixed():
        pair = _inconsistent_pair(x_full, y_full, rho, g)
        if pair is not None:
            xv, yv, i = pair
            return StructureRefusal(
                "fixed-block consistency",
                f"g(x_{i}, y_{i}) != rho_{i} on support pair {xv}, {yv}",
            )
    k = len(rho.free())
    if k == 0:
        half = tau / 2
        return StructureCertificate(rho, half, half, tau)
    wx = _worst_marginal(x)
    wy = _worst_marginal(y)
    (px, sx), (py, sy) = wx, wy
    if px == 1 or py == 1:
        return StructureRefusal("density", "a free marginal is constant (density sup is 0)")
    # feasibility: sup_x + sup_y >= tau  <=>  px^sy * py^sx <= 2^(-tau*b*sx*sy);
    # always true for tau <= 0, where the first rung's floors are taken as they are
    feasible = cmp_pow2(px ** sy * py ** sx, tau * b * sx * sy)
    if feasible > 0:
        return StructureRefusal("density sum", "max densities cannot reach tau")
    bits = DENSITY_RESOLUTION_BITS
    for rung in (bits, bits + 10, bits + 20):
        lo_x = _density_bracket(wx, b, rung)[0]
        lo_y = _density_bracket(wy, b, rung)[0]
        if tau <= 0 or (lo_x > 0 and lo_y > 0 and lo_x + lo_y >= tau):
            return StructureCertificate(rho, lo_x, lo_y, tau)
        if rung != bits:
            continue
        # exact sup on one side when its worst marginal is a power of two;
        # it does not depend on the resolution, so it is tried once
        for (p, s), (p_other, s_other), swap in ((wx, wy, False), (wy, wx, True)):
            log_p = exact_log2(p)
            if log_p is not None:
                d_exact = -log_p / (b * s)
                d_other = tau - d_exact
                # the other side is d_other-dense iff its worst marginal is
                if d_exact > 0 and d_other > 0 and cmp_pow2(p_other, d_other * b * s_other) <= 0:
                    dx, dy = (d_other, d_exact) if swap else (d_exact, d_other)
                    return StructureCertificate(rho, dx, dy, tau)
    return StructureRefusal(
        "density sum",
        "tau is reachable only in the limit; no rational split found at the "
        f"working resolution 2^-{bits + 20}",
    )


def _inconsistent_pair(x_full: DistributionTable, y_full: DistributionTable,
                       rho: Restriction, g: Gadget):
    """The first (x, y, i) with g(x_i, y_i) != rho_i, walking the support pairs
    and then the fixed coordinates in order, or None.  Each fixed coordinate is
    first tested on its distinct (x_i, y_i) values; pairs are walked only from
    the first x that has a contradicting y_i, to name the same witness."""
    xs, ys = x_full.support(), y_full.support()
    fixed = [(i, int(rho.cells[i])) for i in rho.fixed()]
    bad = []  # per fixed coordinate: the x_i some support y_i contradicts rho_i with
    for i, bit in fixed:
        y_vals = {yv[i] for yv in ys}
        bad.append({a for a in {xv[i] for xv in xs}
                    if any(g.eval(a, v) != bit for v in y_vals)})
    for xv in xs:
        if any(xv[i] in b for (i, _), b in zip(fixed, bad)):
            for yv in ys:
                for i, bit in fixed:
                    if g.eval(xv[i], yv[i]) != bit:
                        return xv, yv, i
    return None


# -- density restoration -------------------------------------------------------

def density_restoring_fix(x: DistributionTable, delta: Fraction, b: int):
    """Pick a maximal density-violating set and its heavy value.

    Returns (coords, value, conditioned table over the remaining coordinates).
    Tie-breaks: violating set of maximum cardinality, lexicographically first;
    then the heaviest value, lexicographically first.  The conditioned
    remainder is delta-dense (asserted by the caller's tests).
    """
    delta = Fraction(delta)
    top = None  # the first violating set of the largest size, and its marginal
    for coords, marg in _marginals(x):
        if (top is None or len(coords) > len(top[0])) and cmp_pow2(
                marg.maxprob(), delta * b * len(coords)) > 0:
            top = coords, marg
    if top is None:
        return (), (), x
    coords, marg = top
    heavy = max(marg.weights.values())
    value = min(v for v, w in marg.weights.items() if w == heavy)
    k = len(x.domain[0])
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
    the total.  x must have Y's number of coordinates, as DangerScan requires.
    """
    k = len(next(t for t, w in y.weights.items() if w))
    if len(x_val) != k:
        raise DomainError(f"x has {len(x_val)} coordinates, Y has {k}")
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


def _mask(coords: Tuple[int, ...], k: int) -> int:
    """The pattern bits of coords: bit k-1-i for coordinate i."""
    return sum(1 << (k - 1 - i) for i in coords)


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
        mask = _mask(coords, k)
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
        mask = _mask(coords, k)
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


def _slices(rows, coords_j: Tuple[int, ...]):
    """Pattern rows split by their Y value on coords_j, in y_J order:
    (y_J, w_J, [(pattern, weight), ...]); the empty coords_j gives one slice."""
    parts: Dict[tuple, list] = {}
    for pat, w, t in rows:
        parts.setdefault(tuple(t[i] for i in coords_j), []).append((pat, w))
    return [(yj, sum(w for _, w in part), part) for yj, part in sorted(parts.items())]


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
    > 2**(-|I| + eps*b*|J| - 1 - delta_y*b*|J|).  With w_J the weight of
    y_J and maxw its heaviest pattern on I, the product is maxw / total.
    """
    delta_y, eps = Fraction(delta_y), Fraction(eps)
    k = len(x_val)
    _guard(k, coord_limit, "skewing scan free coordinates")
    rows, total = _pattern_rows(x_val, y, g)
    for coords_i in subsets_by_size(k, nonempty=True):
        mask = _mask(coords_i, k)
        for coords_j in subsets_by_size(k, nonempty=True):
            if _mask(coords_j, k) & mask:
                continue  # J must avoid I
            q = len(coords_i) - eps * b * len(coords_j) + 1 + delta_y * b * len(coords_j)
            for yj, wj, part in _slices(rows, coords_j):
                out: Dict[int, int] = defaultdict(int)
                for pat, w in part:
                    out[pat & mask] += w
                maxw = max(out.values())
                if cmp_pow2(Fraction(maxw, total), q) > 0:
                    return Verdict(True, (coords_i, coords_j, yj,
                                          Fraction(maxw, wj), Fraction(wj, total)))
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
    the empty J comes first and uses probability 1 and |J| = 0.  The XOR over
    S of a row is the parity of its pattern bits on S.
    """
    delta_y, eps, c = Fraction(delta_y), Fraction(eps), Fraction(c)
    if n < 2:
        raise DomainError("the ambient dimension must be at least 2")
    k = len(x_val)
    _guard(k, coord_limit, "biasing scan free coordinates")
    rows, total = _pattern_rows(x_val, y, g)
    for coords_s in subsets_by_size(k, nonempty=True):
        ssize = len(coords_s)
        mask = _mask(coords_s, k)
        bias_bound = Fraction(1, 2 * (2 * n) ** ssize)
        for coords_j in subsets_by_size(k):
            if _mask(coords_j, k) & mask:
                continue  # J must avoid S
            a_pows = [(n, ssize), (2, delta_y * b * len(coords_j))]
            b_pows = [(n, c * eps * len(coords_j))]
            for yj, wj, part in _slices(rows, coords_j):
                if cmp_products(Fraction(wj, total), a_pows, 4, b_pows) < 0:
                    continue  # the size bound fails
                odd = sum(w for pat, w in part if (pat & mask).bit_count() & 1)
                bias_val = Fraction(abs(wj - 2 * odd), wj)
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


class DangerScan:
    """The leaking, sparsifying and biasing verdicts of every x against one Y.

    On a coordinate set C the three scans read only Y's weights grouped by
    (x_C, output pattern on C, y_rest), so the verdicts on C are computed for
    every x_C at once and looked up per x, walking the sets in (size, lex)
    order.  Biasing also reads the size bound, which depends only on
    (|S|, |J|, w_J) and is decided once per value of that triple.  Same
    verdicts and errors as is_leaking, is_sparsifying, is_dangerous and
    is_biasing, which stay the witness-returning reference.
    """

    def __init__(self, y: DistributionTable, g: Gadget, delta_y: Fraction,
                 eps: Fraction, b: int, coord_limit: int = SCAN_COORD_LIMIT):
        rows = {t: w for t, w in y.weights.items() if w}
        self.k = k = len(next(iter(rows)))
        _guard(k, coord_limit, "leaking scan free coordinates")
        self.side = side = g.side
        if any(not 0 <= v < side for t in rows for v in t):
            raise DomainError(f"inputs must lie in [0, {side})")
        self.total = y.total
        self.outputs = [g.table[v * side:(v + 1) * side] for v in range(side)]
        self.delta_y, self.eps, self.b = Fraction(delta_y), Fraction(eps), b
        level = (self.delta_y - self.eps) * b
        self._sparsifies = lru_cache(maxsize=None)(
            lambda heavy, weight, size: cmp_pow2(Fraction(heavy, weight), level * size) > 0)
        self._sized = lru_cache(maxsize=None)(self._size_bound)
        self.sets = list(subsets_by_size(k, nonempty=True))
        self.tables = {(): {((), 0): rows}}
        self.verdicts: Dict[tuple, Dict[tuple, int]] = {}
        self.biased: Dict[tuple, set] = {}

    def _table(self, coords: Tuple[int, ...]) -> dict:
        """{(x_C, pattern): {y_rest: weight}} for C = coords: the table of C
        minus its last coordinate c, contracted on c with the gadget's output
        rows for every x_c at once (pattern bits in C order)."""
        table = self.tables.get(coords)
        if table is None:
            prev = self._table(coords[:-1])
            at = coords[-1] - len(coords) + 1  # c's place among y_rest
            table = {}
            for (xs, pat), ws in prev.items():
                split = [(yr[at], yr[:at] + yr[at + 1:], w) for yr, w in ws.items()]
                for xc, out in enumerate(self.outputs):
                    parts: Tuple[dict, dict] = ({}, {})
                    for yc, rest, w in split:
                        part = parts[out[yc]]
                        part[rest] = part.get(rest, 0) + w
                    for bit, part in enumerate(parts):
                        if part:
                            table[xs + (xc,), pat << 1 | bit] = part
            self.tables[coords] = table
        return table

    def _verdicts_on(self, coords: Tuple[int, ...]) -> Dict[tuple, int]:
        """{x_C: bit 0 leaking on C, bit 1 sparsifying on C} for every x_C."""
        found = self.verdicts.get(coords)
        if found is None:
            size, table = len(coords), self._table(coords)
            subs = [(itemgetter(*sub), len(sub))
                    for sub in subsets_by_size(self.k - size, nonempty=True)]
            # fewer than 2^|C| patterns with weight: a null pattern leaks
            found = {xs: int(count < 1 << size)
                     for xs, count in Counter(xs for xs, _ in table).items()}
            for (xs, _), ws in table.items():
                weight = sum(ws.values())
                if weight << (size + 1) < self.total:  # Pr[pattern] < 2**-(|C|+1)
                    found[xs] |= 1
                if not found[xs] & 2 and any(
                        self._sparsifies(_heaviest(ws, key), weight, sub_size)
                        for key, sub_size in subs):
                    found[xs] |= 2
            self.verdicts[coords] = found
        return found

    def _check(self, x_val: Tuple[int, ...]) -> None:
        if len(x_val) != self.k:
            raise DomainError(f"x has {len(x_val)} coordinates, Y has {self.k}")
        if any(not 0 <= v < self.side for v in x_val):
            raise DomainError(f"inputs must lie in [0, {self.side})")

    def _any(self, x_val: Tuple[int, ...], mask: int) -> bool:
        self._check(x_val)
        return any(self._verdicts_on(c)[tuple(map(x_val.__getitem__, c))] & mask
                   for c in self.sets)

    def leaking(self, x_val: Tuple[int, ...]) -> bool:
        return self._any(x_val, 1)

    def sparsifying(self, x_val: Tuple[int, ...]) -> bool:
        return self._any(x_val, 2)

    def dangerous(self, x_val: Tuple[int, ...]) -> bool:
        return self._any(x_val, 3)

    def biasing(self, x_val: Tuple[int, ...], c: Fraction, n: int) -> bool:
        """is_biasing(x_val, y, g, delta_y, eps, b, c, n, coord_limit).flagged."""
        if n < 2:
            raise DomainError("the ambient dimension must be at least 2")
        self._check(x_val)
        c = Fraction(c)
        return any(tuple(map(x_val.__getitem__, s)) in self._biased_on(s, c, n)
                   for s in self.sets)

    def _size_bound(self, c: Fraction, n: int, s_size: int, j_size: int, wj: int) -> bool:
        """is_biasing's size bound on (|S|, |J|, w_J), the same cmp_products call."""
        a_pows = [(n, s_size), (2, self.delta_y * self.b * j_size)]
        b_pows = [(n, c * self.eps * j_size)]
        return cmp_products(Fraction(wj, self.total), a_pows, 4, b_pows) >= 0

    def _biased_on(self, coords: Tuple[int, ...], c: Fraction, n: int) -> set:
        """The x_S, S = coords, with a (J, y_J) that passes the size bound and
        has |w_J - 2*odd| * 2(2n)^|S| > w_J, odd the weight of the rows whose
        pattern on S has odd parity."""
        found = self.biased.get((c, n, coords))
        if found is None:
            size, table = len(coords), self._table(coords)
            scale = 2 * (2 * n) ** size
            rest = tuple(i for i in range(self.k) if i not in coords)
            whole: Dict[tuple, int] = defaultdict(int)  # Y's weight of each y_rest
            for t, w in self.tables[()][(), 0].items():
                whole[tuple(t[i] for i in rest)] += w
            odd: Dict[tuple, Dict[tuple, int]] = {}
            for (xs, pat), ws in table.items():
                acc = odd.setdefault(xs, {})
                if pat.bit_count() & 1:
                    for yr, w in ws.items():
                        acc[yr] = acc.get(yr, 0) + w
            found = set()
            for sub in subsets_by_size(len(rest)):  # J, as places in y_rest
                key = itemgetter(*sub) if sub else lambda yr: ()
                w_j: Dict[object, int] = defaultdict(int)
                for yr, w in whole.items():
                    w_j[key(yr)] += w
                sized = [(yj, wj) for yj, wj in w_j.items()
                         if self._sized(c, n, size, len(sub), wj)]
                if not sized:
                    continue
                for xs, acc in odd.items():
                    if xs in found:
                        continue
                    odd_j: Dict[object, int] = defaultdict(int)
                    for yr, w in acc.items():
                        odd_j[key(yr)] += w
                    if any(abs(wj - 2 * odd_j[yj]) * scale > wj for yj, wj in sized):
                        found.add(xs)
            self.biased[c, n, coords] = found
        return found


def _heaviest(ws: Dict[tuple, int], key) -> int:
    """The largest weight of one key(y_rest) value."""
    marg: Dict[object, int] = defaultdict(int)
    for yr, w in ws.items():
        marg[key(yr)] += w
    return max(marg.values())


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
    scan = DangerScan(y, g, delta_y, eps, b, coord_limit)
    weight = sum(w for x_val, w in x.weights.items() if w and scan.dangerous(x_val))
    return Fraction(weight, x.total)
