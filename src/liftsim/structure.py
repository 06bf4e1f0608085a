"""Restrictions, density, structure certificates, dangerous-value scans.

Distributions here are block tables: elements are tuples over {0,1}^b, one
entry per coordinate of the set under discussion (the free coordinates, in
the simulation).  All scans are exhaustive with canonical enumeration order
(subsets by size then lexicographically) and exact comparisons; instance
sizes are guarded by explicit budgets.

The four dangerous-value scans (leaking, sparsifying, skewing, biasing) have
one implementation, DangerScan: each is a function of (C, x_C) that reads
Y's weights contracted with the gadget's output rows of x_C and returns its
first witness on the set C; a query walks the sets C in (size, lex) order.
Everything is memoised per (C, x_C), so classifying many x against one Y
shares their common work, and the per-value is_* functions read one scan
each.  No scan is pruned.  Density questions read the marginals of one lazy
generator; max_density and the structure search need only the worst
marginal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product
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
            if not 0 <= i < len(cells):
                raise DomainError(f"coordinate {i} is outside [0, {len(cells)})")
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


def _places(places: Tuple[int, ...]):
    """t -> the tuple of t's entries at places, by one C-level getter."""
    if len(places) > 1:
        return itemgetter(*places)
    i = places[0] if places else 0
    return itemgetter(slice(i, i + len(places)))


@lru_cache(maxsize=None)
def _others(k: int, coords: Tuple[int, ...]) -> List[tuple]:
    """(J as places among the coordinates outside C, their getter, J) for
    every J avoiding C = coords, in (size, lex) order, the empty J first."""
    rest = tuple(i for i in range(k) if i not in coords)
    return [(sub, _places(sub), tuple(rest[i] for i in sub))
            for sub in subsets_by_size(len(rest))]


def _sums(items, key) -> Dict[tuple, int]:
    """{key(t): the sum of its w} over the (t, w) items."""
    out: Dict[tuple, int] = defaultdict(int)
    for t, w in items:
        out[key(t)] += w
    return out


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
    gadget's output rows of x_C: {pattern on C: {y_rest: weight}}, built from
    the table of C minus its last coordinate.  `witness` walks the sets C in
    (size, lex) order to the first witness, so witnesses come in the order
    of the definitions: C, then patterns in product order, then J in (size,
    lex) order, then y_J sorted.  Tables, witnesses, Y's marginals and the
    biasing size bound are memoised, so many x share the work of their
    common (C, x_C).
    """

    def __init__(self, y: DistributionTable, g: Gadget, delta_y: Fraction,
                 eps: Fraction, b: int, coord_limit: int = SCAN_COORD_LIMIT):
        self.rows = rows = {t: w for t, w in y.weights.items() if w}
        self.k = k = len(next(iter(rows)))
        _guard(k, coord_limit, "leaking scan free coordinates")
        self.side = side = g.side
        if any(not 0 <= v < side for t in rows for v in t):
            raise DomainError(f"inputs must lie in [0, {side})")
        self.total = y.total
        self.outputs = [g.table[v * side:(v + 1) * side] for v in range(side)]
        self.delta_y, self.eps, self.b = Fraction(delta_y), Fraction(eps), b
        self.level = level = (self.delta_y - self.eps) * b
        self.sets = list(subsets_by_size(k, nonempty=True))
        memo = lru_cache(maxsize=None)
        self._sparsifies = memo(
            lambda heavy, weight, size: cmp_pow2(Fraction(heavy, weight), level * size) > 0)
        self._table, self._split = memo(self._table), memo(self._split)
        self._reads: Dict[tuple, object] = {}

    def _table(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> dict:
        """{pattern: {y_rest: weight}} of x_C = xs on C = coords: the table of C
        minus its last coordinate c, contracted on c with x_c's output row
        (patterns are bit tuples in C order, in product order)."""
        if not coords:
            return {(): self.rows}
        out, table = self.outputs[xs[-1]], {}
        for pat, split in self._split(coords, xs[:-1]):
            parts: Tuple[dict, dict] = ({}, {})
            for yc, rest, w in split:
                part = parts[out[yc]]
                part[rest] = part.get(rest, 0) + w
            for bit, part in enumerate(parts):
                if part:
                    table[pat + (bit,)] = part
        return table

    def _split(self, coords: Tuple[int, ...], prefix: Tuple[int, ...]) -> List[tuple]:
        """The table of (coords[:-1], prefix) as [(pattern, [(y_c, y_rest
        without y_c, weight)])], c = coords[-1]; shared by every x_c."""
        at = coords[-1] - len(coords) + 1  # c's place among y_rest
        return [(pat, [(yr[at], yr[:at] + yr[at + 1:], w) for yr, w in ws.items()])
                for pat, ws in self._table(coords[:-1], prefix).items()]

    def _fits(self, c: Fraction, n: int, s_size: int, j_size: int, wj: int) -> bool:
        """Biasing's size bound n**|S| * 2**(delta_y*b*|J|) * w_J/total
        >= 4 * n**(c*eps*|J|)."""
        a_pows = [(n, s_size), (2, self.delta_y * self.b * j_size)]
        b_pows = [(n, c * self.eps * j_size)]
        return cmp_products(Fraction(wj, self.total), a_pows, 4, b_pows) >= 0

    def _sized(self, c: Fraction, n: int, s_size: int, coords_j: Tuple[int, ...]) -> List[tuple]:
        """The (y_J, w_J) of Y on J = coords_j, y_J sorted, that pass the size bound."""
        marg, fits = _sums(self.rows.items(), _places(coords_j)), self._read("fits")
        return [(yj, wj) for yj, wj in sorted(marg.items())
                if fits(c, n, s_size, len(coords_j), wj)]

    def _leaking(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(C, bits) of the first pattern with Pr < 2**-(|C|+1), null ones included."""
        table = self._table(coords, xs)
        for bits in product((0, 1), repeat=len(coords)):
            ws = table.get(bits)
            if ws is None or sum(ws.values()) << (len(coords) + 1) < self.total:
                return coords, bits
        return None

    def _sparsifying(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(C, bits, J, p) of the first pattern that, conditioned on, leaves a set J
        of the other coordinates (as places among them) with maxprob
        p > 2**-((delta_y - eps)*b*|J|)."""
        for pat, ws in self._table(coords, xs).items():
            weight = sum(ws.values())
            for sub, key, _ in _others(self.k, coords)[1:]:
                heavy = max(_sums(ws.items(), key).values())
                if self._sparsifies(heavy, weight, len(sub)):
                    return coords, pat, sub, Fraction(heavy, weight)
        return None

    def _skewing(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(I, J, y_J, maxprob of the pattern on I given y_J, Pr[Y_J = y_J]) of
        the first nonempty J avoiding I = coords and y_J with maxprob * Pr[y_J]
        > 2**(-|I| + eps*b*|J| - 1 - delta_y*b*|J|): the defining inequality
        with the excess-entropy term of y_J cleared."""
        table = self._table(coords, xs)
        for sub, key, coords_j in _others(self.k, coords)[1:]:
            heavy, whole = {}, defaultdict(int)  # per y_J: the heaviest pattern's weight, w_J
            for ws in table.values():
                for yj, w in _sums(ws.items(), key).items():
                    heavy[yj], whole[yj] = max(heavy.get(yj, 0), w), whole[yj] + w
            q = len(coords) + 1 + self.level * len(sub)
            for yj, wj in sorted(whole.items()):
                if cmp_pow2(Fraction(heavy[yj], self.total), q) > 0:
                    return (coords, coords_j, yj, Fraction(heavy[yj], wj),
                            Fraction(wj, self.total))
        return None

    def _biasing(self, c: Fraction, n: int,
                 coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """(S, J, y_J, bias, bound) of the first J avoiding S = coords (the empty
        J first) and y_J that pass the size bound with bias = |w_J - 2*odd| / w_J
        > bound = 1/(2(2n)^|S|), odd the weight given y_J of the rows whose
        pattern on S has odd parity."""
        scale, sized_on = 2 * (2 * n) ** len(coords), self._read("sized", c, n)
        odd = [ws.items() for pat, ws in self._table(coords, xs).items() if sum(pat) & 1]
        for _, key, coords_j in _others(self.k, coords):
            sized = sized_on(len(coords), coords_j)
            odd_j = _sums(chain.from_iterable(odd), key) if sized else {}
            for yj, wj in sized:
                gap = abs(wj - 2 * odd_j.get(yj, 0))
                if gap * scale > wj:
                    return coords, coords_j, yj, Fraction(gap, wj), Fraction(1, scale)
        return None

    def _dangerous(self, coords: Tuple[int, ...], xs: Tuple[int, ...]) -> Optional[tuple]:
        """The leaking witness on C, else the sparsifying one."""
        return self._read("leaking")(coords, xs) or self._read("sparsifying")(coords, xs)

    def _read(self, name: str, *args):
        """The method _<name> with args bound first, memoised, made at its first
        use: a scan's function of (C, x_C) (biasing's one per (c, n)), or the
        biasing size bound and its sized marginals."""
        read = self._reads.get((name, *args))
        if read is None:
            read = self._reads[name, *args] = lru_cache(maxsize=None)(
                partial(getattr(self, "_" + name), *args))
        return read

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
        read = self._read(scan, *args)
        for coords in self.sets:
            found = read(coords, tuple(map(x_val.__getitem__, coords)))
            if found is not None:
                return found
        return None

    def leaking(self, x_val: Tuple[int, ...]) -> bool:
        return self.witness("leaking", x_val) is not None

    def sparsifying(self, x_val: Tuple[int, ...]) -> bool:
        return self.witness("sparsifying", x_val) is not None

    def skewing(self, x_val: Tuple[int, ...]) -> bool:
        return self.witness("skewing", x_val) is not None

    def biasing(self, x_val: Tuple[int, ...], c: Fraction, n: int) -> bool:
        return self.witness("biasing", x_val, c, n) is not None

    def dangerous(self, x_val: Tuple[int, ...]) -> bool:
        """Leaking or sparsifying; the set the simulation discards."""
        return self.witness("dangerous", x_val) is not None


def _verdict(scan: str, x_val: Tuple[int, ...], y: DistributionTable, g: Gadget,
             delta_y: Fraction, eps: Fraction, b: int, coord_limit: int, *args) -> Verdict:
    """A per-value call: one DangerScan of Y read for x, after the call's checks
    in order: the budget on len(x) (a dangerous scan's is the leaking scan's),
    x's length against Y's, then the ranges."""
    what = "leaking" if scan == "dangerous" else scan
    _guard(len(x_val), coord_limit, f"{what} scan free coordinates")
    _check_x(x_val, len(next(t for t, w in y.weights.items() if w)), g.side)
    found = DangerScan(y, g, delta_y, eps, b, coord_limit).witness(scan, x_val, *args)
    return Verdict(found is not None, found)


def is_leaking(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget,
               coord_limit: int = SCAN_COORD_LIMIT) -> Verdict:
    """Some output pattern is less than half as likely as uniform would allow."""
    return _verdict("leaking", x_val, y, g, 0, 0, g.b, coord_limit)


def is_sparsifying(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
                   eps: Fraction, b: int, coord_limit: int = SCAN_COORD_LIMIT) -> Verdict:
    """Conditioning on some output pattern destroys more density than eps allows.

    The witness is (coords, bits, violating set relative to the remaining
    coordinates, its conditioned max-probability), as is_dense reports it.
    """
    return _verdict("sparsifying", x_val, y, g, delta_y, eps, b, coord_limit)


def is_skewing(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
               eps: Fraction, b: int, coord_limit: int = SCAN_COORD_LIMIT) -> Verdict:
    """Conditioning on some Y_J value skews the gadget outputs on I.

    The witness is (I, J, y_J, maxprob(g^I(x_I, Y_I) | Y_J = y_J),
    Pr[Y_J = y_J]).
    """
    return _verdict("skewing", x_val, y, g, delta_y, eps, b, coord_limit)


def is_biasing(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
               eps: Fraction, b: int, c: Fraction, n: int,
               coord_limit: int = SCAN_COORD_LIMIT) -> Verdict:
    """Some qualifying (S, J, y_J) has a conditional XOR bias above threshold.

    The size bound is tested in the fully cleared form
    n**|S| * 2**(delta_y*b*|J|) * Pr[Y_J = y_J] >= 4 * n**(c*eps*|J|);
    the empty J comes first and uses probability 1 and |J| = 0.  The witness
    is (S, J, y_J, bias, bound).
    """
    _check_ambient(n)
    return _verdict("biasing", x_val, y, g, delta_y, eps, b, coord_limit, c, n)


def is_dangerous(x_val: Tuple[int, ...], y: DistributionTable, g: Gadget, delta_y: Fraction,
                 eps: Fraction, b: int, coord_limit: int = SCAN_COORD_LIMIT) -> bool:
    """Leaking or sparsifying; the set the simulation discards."""
    return _verdict("dangerous", x_val, y, g, delta_y, eps, b, coord_limit).flagged


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
