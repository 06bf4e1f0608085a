"""Restrictions, density, structure certificates, dangerous-value scans.

Distributions here are block tables: elements are tuples over {0,1}^b, one
entry per coordinate of the set under discussion (the free coordinates, in
the simulation).  All scans are exhaustive with canonical enumeration order
(subsets by size then lexicographically) and exact comparisons; instance
sizes are guarded by explicit budgets.

The four dangerous-value scans (leaking, sparsifying, skewing, biasing) have
one implementation, DangerScan: each is a function of (C, x_C) that reads
Y's weights contracted with the gadget's output rows of x_C and returns its
first witness on the set C; its one query, `witness`, walks the sets C in
(size, lex) order.  What many x reuse is memoised per (C, x_C), so
classifying many x against one Y shares their common work, and the
per-value is_* functions read one scan each.  No scan is pruned.  When Y is
the product of its coordinate marginals, as the whole universe a lift's
first round scans is, the dangerous verdict has a closed form in
per-coordinate weights (DangerScan._product_form), no table is built for
it, and `dangerous_among` reads a whole batch of x off it in one pass.  A
table holds, per output pattern on C, the rows of Y's support with that
pattern as one row bitmask, split by AND and weighed by popcount.  A
popcount reads all of Y's rows, not just the part's, so a walk slows as Y
grows: the dangerous witnesses of 8 x over all 65,536 rows of
ip4 at k=4 take 2.0-2.7 s on a uniform Y and 4.1-4.6 s with weights in
[1, 4] (2 CPUs, Python 3.11.7).  No lift walks a table that large, since the
whole universe its first round scans is a product.  Density questions read
integer counts per coordinate set, which the density-restoring partition
(whose first part is the fix) builds as it reads them and carves down part by
part; max_density and the structure search need the worst one.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, count, product
from math import prod
from typing import Iterator, List, Optional, Sequence, Tuple
from weakref import proxy

from .dist import DistributionTable, _places, _sums, project, subsets_by_size
from .dtrees import z_bits
from .errors import BudgetError, DomainError
from .exact import cmp_pow2, cmp_pow2_ratio, cmp_products, exact_log2, log2_bounds
from .gadgets import Gadget
from .records import Record

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


class Restriction(Record, frozen=True):
    """A partial assignment in {0,1,*}^n tracking queried coordinates."""

    def __init__(self, cells: str):
        if any(ch not in "01*" for ch in cells):
            raise DomainError("restriction cells must be '0', '1' or '*'")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def all_free(cls, n: int) -> "Restriction":
        return cls("*" * n)

    def __len__(self) -> int:
        return len(self.cells)

    def free(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self.cells) if ch == "*")

    def fixed(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self.cells) if ch != "*")

    def fix(self, coords: Sequence[int], bits: Sequence[int]) -> "Restriction":
        cells = list(self.cells)
        for i, bit in zip(coords, bits):
            if not 0 <= i < len(cells):
                raise DomainError(f"coordinate {i} is outside [0, {len(cells)})")
            if cells[i] != "*":
                raise DomainError(f"coordinate {i} is already fixed")
            cells[i] = str(bit)
        return Restriction("".join(cells))

    def consistent_with(self, z: int) -> bool:
        n = len(self.cells)
        return all(ch == "*" or int(ch) == bit
                   for ch, bit in zip(self.cells, z_bits(z, n, range(n))))


def _guard(k: int, limit: int, what: str) -> None:
    if k > limit:
        raise BudgetError(what, k, limit)


class DensityWitness(Record):
    def __init__(self, delta: Fraction, violating_set: Optional[Tuple[int, ...]] = None,
                 witness_maxprob: Optional[Fraction] = None):
        self.delta = delta
        self.violating_set = violating_set
        self.witness_maxprob = witness_maxprob

    @property
    def dense(self) -> bool:
        return self.violating_set is None


def _block_count(x: DistributionTable, tuples: bool = False) -> int:
    """x's block count: k when its elements are all k-tuples, 0 when none is
    a tuple (refused if `tuples`, as a danger scan's Y is); else DomainError
    naming the lengths found, -1 standing for an element that is not a tuple."""
    shapes = {len(t) if isinstance(t, tuple) else -1 for t in x.domain}
    if len(shapes) > 1 or (tuples and -1 in shapes):
        raise DomainError(f"elements of different block counts: {sorted(shapes)}")
    return max(shapes.pop(), 0)


def _marginal_counts(x: DistributionTable, largest_first: bool = False):
    """(k, rows, marginals): x's elements are k-tuples (k = 0 if none is a
    tuple; DomainError if their lengths differ), rows its nonzero (t, w) in
    domain order, and marginals lazily yields (coords, key, {key(t): weight})
    per nonempty coordinate set in (size, lex) order or largest first, one
    pass over the rows list as it is then; key(t) is project's tuple."""
    k, rows = _block_count(x), [(t, w) for t, w in x.weights.items() if w]
    sets = sorted(subsets_by_size(k, nonempty=True), key=len, reverse=largest_first)
    return k, rows, ((c, key, _sums(rows, key)) for c in sets for key in (_places(c),))


def _violation(marginals, total: int, qs: List[Fraction]):
    """(coords, key, value, heavy) of the first marginal whose heaviest count
    is above total * 2^-qs[|coords|], value the least of its heaviest; or None."""
    for coords, key, counts in marginals:
        heavy = max(counts.values())
        if cmp_pow2_ratio(heavy, total, qs[len(coords)]) > 0:
            return coords, key, min(v for v, w in counts.items() if w == heavy), heavy
    return None


def is_dense(x: DistributionTable, delta: Fraction, b: int) -> DensityWitness:
    """Exact check that every projection has min-entropy >= delta*b*|I|.

    Returns the first violating set in (size, lex) order, or a clean witness.
    """
    delta = Fraction(delta)
    k, _, marginals = _marginal_counts(x)
    hit = _violation(marginals, x.total, [delta * b * s for s in range(k + 1)])
    if hit is None:
        return DensityWitness(delta)
    return DensityWitness(delta, hit[0], Fraction(hit[3], x.total))


def _product_marginals(k: int, rows, total: int) -> Optional[List[dict]]:
    """The coordinate marginals m_c ({(v,): weight}, c < k) of a table of
    k-tuples with total T, from its nonzero (t, w) `rows`, when the table is
    their product; else None, and None for k = 0.  It is iff its support has
    prod_c |supp m_c| rows, and so is their product set, and w(t) * T^(k-1)
    == prod_c m_c(t_c) on each row, which holds when every weight is equal."""
    keys = [_places((c,)) for c in range(k)]
    margs = [_sums(rows, key) for key in keys]
    if not k or len(rows) != prod(map(len, margs)):
        return None
    weights = [w for _, w in rows]
    if min(weights) == max(weights):
        return margs
    scale = total ** (k - 1)
    if any(w * scale != prod(m[key(t)] for m, key in zip(margs, keys)) for t, w in rows):
        return None
    return margs


def _product_test(x: DistributionTable) -> Optional[List[dict]]:
    """`_product_marginals` of table x: its coordinate marginals when x is
    their product, else None.  Run once per table and kept on it (its
    `product_test` slot), so every reader of one table shares the one run."""
    try:
        return x.product_test
    except AttributeError:
        k, rows, _ = _marginal_counts(x)
        x.product_test = margs = _product_marginals(k, rows, x.total)
        return margs


def _worst_marginal(x: DistributionTable):
    """The (maxprob, |I|) pair minimizing log2(1/p)/(b|I|), compared exactly;
    the first such pair in subsets_by_size order, or None for k = 0.  On a
    product table the marginal on I has maxprob prod_{c in I} p_c, the p_c
    its singletons', whose log2(1/p)/|I| is their mean: no set beats the
    heaviest singleton, so it alone is read, off x's product test."""
    total, worst = x.total, None  # worst: (heaviest count, |I|)
    margs = _product_test(x)
    if margs is not None:
        return Fraction(max(max(m.values()) for m in margs), total), 1
    for coords, _, counts in _marginal_counts(x)[2]:
        h, s = max(counts.values()), len(coords)
        # p = h/total: p^ws > wp^s  <=>  log(1/p)/s < log(1/wp)/ws
        if worst is None or h ** worst[1] * total ** s > worst[0] ** s * total ** worst[1]:
            worst = (h, s)
    return None if worst is None else (Fraction(worst[0], total), worst[1])


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


class StructureCertificate(Record):
    def __init__(self, rho: Restriction, delta_x: Fraction, delta_y: Fraction, tau: Fraction):
        self.rho = rho
        self.delta_x = delta_x
        self.delta_y = delta_y
        self.tau = tau


class StructureRefusal(Record):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail


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

class DensityPart(Record):
    def __init__(self, index: int, coords: Tuple[int, ...], value: Tuple[int, ...],
                 members: Tuple[Tuple[int, ...], ...], prob: Fraction, p_geq: Fraction):
        self.index = index      # 1-based part number j
        self.coords = coords    # I_j
        self.value = value      # x_j
        self.members = members
        self.prob = prob        # Pr[X in part j]
        self.p_geq = p_geq      # Pr[X in part j or later]


def _density_parts(x: DistributionTable, delta: Fraction, b: int) -> Iterator[DensityPart]:
    """The parts of density_restoring_partition, one at a time: part j fixes a
    maximal density-violating block set of the residual to its heavy value
    (the largest set, lexicographically first; then the heaviest value, least
    first), or is all of the residual once that is delta-dense.  The residual
    is carved in place, so a marginal first read at a later part is built
    already carved; the marginals read before are carved with it."""
    k, residual, unread = _marginal_counts(x, largest_first=True)
    qs = [Fraction(delta) * b * s for s in range(k + 1)]
    read: list = []  # the marginals built so far
    weight = x.total  # the residual's
    for index in count(1):
        hit = _violation(chain(read, (read.append(m) or m for m in unread)), weight, qs)
        if hit is None:
            coords, value, members = (), (), residual[:]
        else:
            coords, key, value, _ = hit
            members = [r for r in residual if key(r[0]) == value]
        carved = sum(w for _, w in members)
        yield DensityPart(index, coords, value, tuple(t for t, _ in members),
                          Fraction(carved, x.total), Fraction(weight, x.total))
        weight -= carved
        if not weight:
            return
        residual[:] = [r for r in residual if key(r[0]) != value]
        for _, marginal_key, counts in read:
            for t, w in members:
                counts[marginal_key(t)] -= w


def density_restoring_fix(x: DistributionTable, delta: Fraction, b: int):
    """The partition's first class, and x conditioned on it.

    Returns (coords, value, conditioned table over the remaining coordinates):
    ((), (), x) when x is delta-dense.  The conditioned remainder is
    delta-dense (asserted by the caller's tests).
    """
    first = next(_density_parts(x, delta, b))
    if not first.coords:
        return (), (), x
    rest = tuple(i for i in range(len(x.domain[0])) if i not in first.coords)
    key = _places(first.coords)
    cond = x.condition(lambda t: key(t) == first.value)
    reduced = project(cond, rest) if rest else DistributionTable.point(())
    return first.coords, first.value, reduced


def density_restoring_partition(
    x: DistributionTable, delta: Fraction, b: int
) -> List[DensityPart]:
    """Greedy fix-and-carve partition of the support into dense slices.

    Every part fixes a block set to a heavy value and leaves the remaining
    coordinates delta-dense; the entropy loss of part j is bounded through
    p_{>=j}, the residual weight before it over the total, which starts at 1
    and strictly decreases.
    """
    return list(_density_parts(x, delta, b))


# -- dangerous values ----------------------------------------------------------

class Verdict(Record):
    def __init__(self, flagged: bool, witness: tuple | None = None):
        self.flagged = flagged
        self.witness = witness


@lru_cache(maxsize=None)
def _others(k: int, coords: Tuple[int, ...]) -> List[tuple]:
    """(J as places among the coordinates outside C, J) for every J avoiding
    C = coords, in (size, lex) order, the empty J first."""
    rest = tuple(i for i in range(k) if i not in coords)
    return [(sub, tuple(rest[i] for i in sub)) for sub in subsets_by_size(len(rest))]


def _check_x(x_val: Tuple[int, ...], k: int, side: int) -> None:
    if len(x_val) != k:
        raise DomainError(f"x has {len(x_val)} coordinates, Y has {k}")
    if any(not 0 <= v < side for v in x_val):
        raise DomainError(f"inputs must lie in [0, {side})")


def _check_ambient(n: int) -> None:
    if n < 2:
        raise DomainError("the ambient dimension must be at least 2")


class DangerScan:
    """The leaking, sparsifying, skewing and biasing scans of every x against one Y.

    Each scan is one function of (C, x_C) that returns its first witness on
    the set C, or None.  It reads one table, Y's weights contracted with the
    gadget's output rows of x_C: {pattern on C: part}, the part being the
    rows of Y's support with that output pattern, built from the table of C
    minus its last coordinate.  A part is a row bitmask, bit i standing for
    the i-th row of Y's support: a child table is one AND and one XOR per
    parent part, and a weight one popcount per bit-plane of Y's weights.  A
    scan reads a part only through its weight, its marginal on a set J of the
    other coordinates (or that marginal's heaviest weight) and the union of
    the odd-parity parts.  `witness`, the one query, walks the sets C in
    (size, lex) order to the first witness, so witnesses come in the order of
    the definitions: C, then patterns in product order, then J in (size, lex)
    order, then y_J sorted; `dangerous` is its predicate, read in closed
    form when Y is a product (`_product_form`), and `dangerous_among` the
    set it flags among many x, the engines' query; it reads Y's product test
    (`_product_test`), run once and kept on Y.  The rows are indexed
    (`index`) when a table is first read, so a scan that only answers
    `dangerous` in closed form builds no mask.  What many x reuse is
    memoised per scan by lru_cache: the index, the tables, the row groups of
    each J (Y's marginals among them), the leaking, biasing and dangerous
    witnesses (a sparsifying one is read only through the dangerous one),
    the sparsifying test and the size bound.  Every memo reaches the scan
    through a weak proxy, so none keeps it alive.
    """

    def __init__(self, y: DistributionTable, g: Gadget, delta_y: Fraction,
                 eps: Fraction, *, coord_limit: int = SCAN_COORD_LIMIT):
        self.y = y
        self.side = side = g.side
        margs = getattr(y, "product_test", None)
        if margs is None:
            self.k = k = _block_count(y, tuples=True)
            values = (v for t in self.rows for v in t)
        else:  # a kept product test: its marginals, of the same rows, hold k and the values
            self.k = k = len(margs)
            values = (v for m in margs for (v,) in m)
        _guard(k, coord_limit, "leaking scan free coordinates")
        if any(not 0 <= v < side for v in values):
            raise DomainError(f"inputs must lie in [0, {side})")
        self.total = y.total
        self.outputs = [g.table[v * side:(v + 1) * side] for v in range(side)]
        self.delta_y, self.eps, self.b = Fraction(delta_y), Fraction(eps), g.b
        self.level = (self.delta_y - self.eps) * g.b
        self.sets = list(subsets_by_size(k, nonempty=True))
        memo, me = lru_cache(maxsize=None), proxy(self)
        for name in ("index", "_table", "_groups", "_sparsifies", "_fits", "_sized",
                     "_leaking", "_biasing", "_dangerous"):
            setattr(self, name, memo(getattr(type(self), name).__get__(me)))

    @cached_property
    def rows(self) -> dict:
        """Y's nonzero rows, {t: weight} in domain order."""
        return {t: w for t, w in self.y.weights.items() if w}

    def index(self) -> None:
        """Build all the rows (`_all`), the rows whose output is 1 under each x
        value at each coordinate (`_ones`, the sum of the coordinate's disjoint
        row groups where it is 1) and the bit-planes of the weights
        (`_planes`, (shift, rows) pairs); run once, by the first `witness`."""
        self._all = (1 << len(self.rows)) - 1
        self._ones = [[sum(rows for (v,), rows in self._groups((c,)).items() if out[v])
                       for out in self.outputs] for c in range(self.k)]
        weights = self.rows.values()
        self._planes = [(s, sum(1 << i for i, w in enumerate(weights) if w >> s & 1))
                        for s in range(max(weights).bit_length())]
        if self._planes == [(0, self._all)]:
            self._weight = int.bit_count  # every weight is 1

    def _table(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> dict:
        """{pattern: mask of its rows} of x_C = xs on C = coords: the table of C
        minus its last coordinate c, split by the rows where x_c's output on c
        is 1 (patterns are bit tuples in C order, in product order)."""
        if not coords:
            return {(): self._all}
        ones, table = self._ones[coords[-1]][xs[-1]], {}
        for pat, m in self._table(coords[:-1], xs[:-1]).items():
            one = m & ones
            zero = m ^ one
            if zero:
                table[pat + (0,)] = zero
            if one:
                table[pat + (1,)] = one
        return table

    def _groups(self, coords_j: Tuple[int, ...]) -> dict:
        """{y_J: mask of the rows with that y_J} over J = coords_j, in one pass
        over the rows."""
        key, groups = _places(coords_j), defaultdict(int)
        for i, t in enumerate(self.rows):
            groups[key(t)] |= 1 << i
        return dict(groups)

    def _weight(self, m: int) -> int:
        return sum((m & rows).bit_count() << s for s, rows in self._planes)

    def _marginal(self, m: int, coords_j: Tuple[int, ...]) -> dict:
        """{y_J: weight} of a part, zeros included for the y_J it misses."""
        weight = self._weight
        return {yj: weight(m & rows) for yj, rows in self._groups(coords_j).items()}

    def _heaviest(self, m: int, coords_j: Tuple[int, ...]) -> int:
        return max(map(self._weight, map(m.__and__, self._groups(coords_j).values())))

    def _odd(self, table: dict) -> int:
        """The union of the parts whose pattern has odd parity (they are disjoint)."""
        return sum(m for pat, m in table.items() if sum(pat) & 1)

    def _sparsifies(self, heavy: int, weight: int, size: int) -> bool:
        """heavy/weight > 2**-((delta_y - eps)*b*size)."""
        return cmp_pow2_ratio(heavy, weight, self.level * size) > 0

    def _fits(self, c: Fraction, n: int, s_size: int, j_size: int, wj: int) -> bool:
        """Biasing's size bound n**|S| * 2**(delta_y*b*|J|) * w_J/total
        >= 4 * n**(c*eps*|J|)."""
        a_pows = [(n, s_size), (2, self.delta_y * self.b * j_size)]
        b_pows = [(n, c * self.eps * j_size)]
        return cmp_products(Fraction(wj, self.total), a_pows, 4, b_pows) >= 0

    def _sized(self, c: Fraction, n: int, s_size: int, coords_j: Tuple[int, ...]) -> List[tuple]:
        """The (y_J, w_J) of Y on J = coords_j, y_J sorted, that pass the size bound."""
        marg = self._marginal(self._all, coords_j)
        return [(yj, wj) for yj, wj in sorted(marg.items())
                if self._fits(c, n, s_size, len(coords_j), wj)]

    def _leaking(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(C, bits) of the first pattern with Pr < 2**-(|C|+1), null ones included."""
        table, weight, total = self._table(coords, xs), self._weight, self.total
        for bits in product((0, 1), repeat=len(coords)):
            part = table.get(bits)
            if part is None or weight(part) << (len(coords) + 1) < total:
                return coords, bits
        return None

    def _sparsifying(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(C, bits, J, p) of the first pattern that, conditioned on, leaves a set J
        of the other coordinates (as places among them) with maxprob
        p > 2**-((delta_y - eps)*b*|J|)."""
        others = _others(self.k, coords)[1:]
        heaviest, sparsifies = self._heaviest, self._sparsifies
        for pat, part in self._table(coords, xs).items():
            weight = self._weight(part)
            for sub, coords_j in others:
                heavy = heaviest(part, coords_j)
                if sparsifies(heavy, weight, len(sub)):
                    return coords, pat, sub, Fraction(heavy, weight)
        return None

    def _skewing(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(I, J, y_J, maxprob of the pattern on I given y_J, Pr[Y_J = y_J]) of
        the first nonempty J avoiding I = coords and y_J with maxprob * Pr[y_J]
        > 2**(-|I| + eps*b*|J| - 1 - delta_y*b*|J|): the defining inequality
        with the excess-entropy term of y_J cleared."""
        table = self._table(coords, xs)
        for sub, coords_j in _others(self.k, coords)[1:]:
            heavy, whole = {}, defaultdict(int)  # per y_J: the heaviest pattern's weight, w_J
            for part in table.values():
                for yj, w in self._marginal(part, coords_j).items():
                    heavy[yj], whole[yj] = max(heavy.get(yj, 0), w), whole[yj] + w
            q = len(coords) + 1 + self.level * len(sub)
            for yj, wj in sorted(whole.items()):
                if cmp_pow2_ratio(heavy[yj], self.total, q) > 0:
                    return (coords, coords_j, yj, Fraction(heavy[yj], wj),
                            Fraction(wj, self.total))
        return None

    def _biasing(self, c: Fraction, n: int,
                 coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(S, J, y_J, bias, bound) of the first J avoiding S = coords (the empty
        J first) and y_J that pass the size bound with bias = |w_J - 2*odd| / w_J
        > bound = 1/(2(2n)^|S|), odd the weight given y_J of the rows whose
        pattern on S has odd parity."""
        scale = 2 * (2 * n) ** len(coords)
        odd = self._odd(self._table(coords, xs))
        for _, coords_j in _others(self.k, coords):
            sized = self._sized(c, n, len(coords), coords_j)
            odd_j = self._marginal(odd, coords_j) if sized else {}
            for yj, wj in sized:
                gap = abs(wj - 2 * odd_j.get(yj, 0))
                if gap * scale > wj:
                    return coords, coords_j, yj, Fraction(gap, wj), Fraction(1, scale)
        return None

    def _dangerous(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """The leaking witness on C, else the sparsifying one."""
        return self._leaking(coords, xs) or self._sparsifying(coords, xs)

    def witness(self, scan: str, x_val: Tuple[int, ...], *args) -> Optional[tuple]:
        """The first witness of `scan` for x, as is_<scan> reports it, or None:
        "leaking", "sparsifying", "skewing", "biasing" (which takes (c, n)), or
        "dangerous", the first leaking or sparsifying witness by set."""
        if scan not in ("leaking", "sparsifying", "skewing", "biasing", "dangerous"):
            raise DomainError(f"unknown scan {scan!r}")
        if scan == "biasing":
            c, n = args
            _check_ambient(n)
            args = Fraction(c), n
        _check_x(x_val, self.k, self.side)
        self.index()
        read = getattr(self, "_" + scan)
        for coords in self.sets:
            found = read(*args, coords, tuple(map(x_val.__getitem__, coords)))
            if found is not None:
                return found
        return None

    @cached_property
    def _product_form(self) -> Optional[tuple]:
        """(light, bound, sparse) when Y is the product of its coordinate
        marginals m_c (`_product_marginals`), else None, T being the total.  The
        part of pattern p on C then weighs T * prod_{c in C} m_c(p_c)/T,
        m_c(p_c) being the weight under m_c of the blocks where x_c's output
        is p_c, and given the part, Y outside C is still the product of its
        marginals.  So dangerous(x) needs no table:
          leaking: (C, p) leaks iff prod_{c in C} 2*m_c(p_c)/T < 1/2.  Each
        factor is least at l_c(x_c) = light[c][x_c], the lighter of x_c's two
        outputs, and is then at most 1, so the least product is the one on
        all k coordinates: x leaks iff 2^(k+1) * prod_c l_c(x_c) < T^k = bound;
          sparsifying: given any part, J's heaviest marginal is
        prod_{j in J} maxw_j/T, which exceeds 2^-(level*|J|) for some J with
        1 <= |J| <= k-1 iff k >= 2 and maxw_j/T > 2^-level for a single j (a
        product of factors each at most 1 is at most 1).  Then `sparse`
        holds, for every x."""
        k, total, margs = self.k, self.total, _product_test(self.y)
        if margs is None:  # k = 0: no set to flag on
            return None
        light = []
        for m in margs:
            ones = [sum(w for (y,), w in m.items() if out[y]) for out in self.outputs]
            light.append([min(w, total - w) for w in ones])
        sparse = k >= 2 and any(self._sparsifies(max(m.values()), total, 1) for m in margs)
        return light, total ** k, sparse

    def dangerous(self, x_val: Tuple[int, ...]) -> bool:
        """Leaking or sparsifying; the set the simulation discards.  Read in
        closed form on a product Y, else off `witness`."""
        if self._product_form is None:
            return self.witness("dangerous", x_val) is not None
        return x_val in self.dangerous_among((x_val,))

    def dangerous_among(self, values) -> set:
        """The dangerous values in the collection `values`.  The first value
        that `dangerous` would refuse is refused with the same error.  On a
        product Y every value is checked at once and the verdicts are read
        off the closed form in one pass; otherwise each value is asked of
        `dangerous`."""
        form = self._product_form
        if form is None:
            return set(filter(self.dangerous, values))
        k, side = self.k, self.side
        if set(map(len, values)) - {k} or values and not (
                min(map(min, values)) >= 0 and max(map(max, values)) < side):
            for x_val in values:  # the first bad value, with its first error
                _check_x(x_val, k, side)
        light, bound, sparse = form
        if sparse:
            return set(values)
        shift = k + 1
        return {x for x in values if prod(map(list.__getitem__, light, x)) << shift < bound}


def _verdict(scan: str, x_val: Tuple[int, ...], y: DistributionTable, g: Gadget,
             delta_y: Fraction, eps: Fraction, *args) -> Verdict:
    """A per-value call: one DangerScan of Y read for x, after the call's checks
    in order: SCAN_COORD_LIMIT on len(x) (a dangerous scan's budget is the
    leaking scan's), Y's elements all tuples of one length, x's length against
    theirs, then the ranges."""
    what = "leaking" if scan == "dangerous" else scan
    _guard(len(x_val), SCAN_COORD_LIMIT, f"{what} scan free coordinates")
    _check_x(x_val, _block_count(y, tuples=True), g.side)
    found = DangerScan(y, g, delta_y, eps).witness(scan, x_val, *args)
    return Verdict(found is not None, found)


def is_leaking(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget) -> Verdict:
    """Some output pattern is less than half as likely as uniform would allow."""
    return _verdict("leaking", x_val, y, g, 0, 0)


def is_sparsifying(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
                   eps: Fraction) -> Verdict:
    """Conditioning on some output pattern destroys more density than eps allows.

    The witness is (coords, bits, violating set relative to the remaining
    coordinates, its conditioned max-probability), as is_dense reports it.
    """
    return _verdict("sparsifying", x_val, y, g, delta_y, eps)


def is_skewing(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
               eps: Fraction) -> Verdict:
    """Conditioning on some Y_J value skews the gadget outputs on I.

    The witness is (I, J, y_J, maxprob(g^I(x_I, Y_I) | Y_J = y_J),
    Pr[Y_J = y_J]).
    """
    return _verdict("skewing", x_val, y, g, delta_y, eps)


def is_biasing(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
               eps: Fraction, c: Fraction, n: int) -> Verdict:
    """Some qualifying (S, J, y_J) has a conditional XOR bias above threshold.

    The size bound is tested in the fully cleared form
    n**|S| * 2**(delta_y*b*|J|) * Pr[Y_J = y_J] >= 4 * n**(c*eps*|J|);
    the empty J comes first and uses probability 1 and |J| = 0.  The witness
    is (S, J, y_J, bias, bound).
    """
    _check_ambient(n)
    return _verdict("biasing", x_val, y, g, delta_y, eps, c, n)


def is_dangerous(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
                 eps: Fraction) -> bool:
    """Leaking or sparsifying; the set the simulation discards."""
    return _verdict("dangerous", x_val, y, g, delta_y, eps).flagged


def dangerous_probability(x: DistributionTable, y: DistributionTable, g: Gadget,
                          delta_y: Fraction, eps: Fraction) -> Fraction:
    """Exact X-mass of dangerous values."""
    scan = DangerScan(y, g, delta_y, eps)
    bad = scan.dangerous_among([x_val for x_val, w in x.weights.items() if w])
    return Fraction(sum(map(x.weights.__getitem__, bad)), x.total)
