"""Exact probability tables, min-entropy, statistical distance, Fourier tools.

A :class:`DistributionTable` carries an ordered domain and integer weights
over one integer total: the probability of x is ``weights[x] / total``.
The tables the simulations and scans build are count tables over a
rectangle, or marginals and conditionings of one, so ``project``,
``condition``, ``support`` and ``maxprob`` run on ints; a
:class:`~fractions.Fraction` is built only when a probability leaves the API.  Two element conventions are used
throughout the library:

* boolean cubes {0,1}^m: elements are ints in [0, 2^m); bit i of the string
  (1-indexed, leftmost first in written form) is bit (m-1-i) of the int, so
  numeric order equals lexicographic order on bitstrings;
* block tuples over alphabets like {0,1}^b per coordinate: elements are
  tuples of ints, ordered lexicographically.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .errors import DomainError, NullEventError
from .exact import _rational, cmp_pow2
from .records import Record

__all__ = [
    "DistributionTable",
    "project",
    "statistical_distance",
    "bias",
    "min_entropy_at_least",
    "fourier_coefficient",
    "fourier_inversion",
    "xor_bias",
    "vazirani_uniformity_check",
    "vazirani_minentropy_check",
    "VaziraniReport",
    "check_mixture_weights",
]

ZERO = Fraction(0)

_first = itemgetter(0)


def _integer_weights(values: Mapping) -> Tuple[dict, int]:
    """(int weights in domain order, scale): each exact rational value times
    the lcm `scale` of their denominators, which is 1 when all are ints."""
    items = sorted(values.items(), key=_first)
    scale = 1
    if not all(type(v) is int for _, v in items):
        items = [(k, Fraction(v)) for k, v in items]
        scale = lcm(*(f.denominator for _, f in items))
        items = [(k, f.numerator * (scale // f.denominator)) for k, f in items]
    weights = dict(items)
    if len(weights) != len(items):
        raise DomainError("domain elements must be distinct")
    if weights and min(weights.values()) < 0:
        bad = next(k for k, w in weights.items() if w < 0)
        raise DomainError(f"negative mass at {bad!r}")
    return weights, scale


def _table(weights: dict, total: int) -> "DistributionTable":
    """A table from nonnegative int weights, already in domain order, summing to `total`."""
    d = object.__new__(DistributionTable)
    d.domain = tuple(weights)
    d.weights = weights
    d.total = total
    return d


def check_mixture_weights(weights: Iterable) -> None:
    """Refuse, with a DomainError, mixture weights that are not a probability
    vector: one is negative (zeros are allowed) or they do not sum to 1 exactly."""
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights):
        raise DomainError(f"mixture weights must be nonnegative, got {min(weights)}")
    if sum(weights) != 1:
        raise DomainError(f"mixture weights must sum to 1 exactly, got {sum(weights)}")


class DistributionTable:
    """Exact probability mass function over an ordered finite domain.

    `weights` maps each domain element to an int >= 0 and `total` is their
    (positive) sum.  Two tables are equal when they have the same domain and
    the same probabilities, whatever their totals.
    """

    # product_test: structure._product_test's result, kept once it is run
    __slots__ = ("domain", "weights", "total", "product_test")

    def __init__(self, masses: Mapping):
        """From exact rational masses summing to 1 (ints, Fractions, or
        anything `Fraction` accepts), held over the lcm of their denominators."""
        weights, total = _integer_weights(masses)
        weight_sum = sum(weights.values())
        if weight_sum != total:
            raise DomainError(
                f"masses must sum to 1 exactly, got {Fraction(weight_sum, total)}")
        self.domain = tuple(weights)
        self.weights = weights
        self.total = total

    @classmethod
    def uniform(cls, domain: Iterable) -> "DistributionTable":
        dom = sorted(domain)
        if not dom:
            raise DomainError("uniform distribution needs a nonempty domain")
        weights = dict.fromkeys(dom, 1)
        if len(weights) != len(dom):
            raise DomainError("domain elements must be distinct")
        return _table(weights, len(dom))

    @classmethod
    def point(cls, element, domain: Iterable = ()) -> "DistributionTable":
        return cls.from_weights({**dict.fromkeys(domain, 0), element: 1})

    @classmethod
    def from_weights(cls, weights: Mapping) -> "DistributionTable":
        """The table proportional to nonnegative weights (ints or exact
        rationals); int weights are kept as they are, over their sum."""
        weights, _ = _integer_weights(weights)
        total = sum(weights.values())
        if total <= 0:
            raise DomainError("weights must have positive total")
        return _table(weights, total)

    @classmethod
    def mixture(cls, components: Iterable) -> "DistributionTable":
        """sum_i w_i * d_i over the union of the domains, for (w_i, d_i)
        pairs whose exact weights w_i are mixture weights."""
        parts = [(Fraction(w), d) for w, d in components]
        check_mixture_weights(w for w, _ in parts)
        parts = [(w / d.total, d) for w, d in parts]
        scale = lcm(*(f.denominator for f, _ in parts))
        weights: dict = {}
        for f, d in parts:
            k = f.numerator * (scale // f.denominator)
            for x, w in d.weights.items():
                weights[x] = weights.get(x, 0) + k * w
        return cls.from_weights(weights)

    @property
    def mass(self) -> "_Mass":
        """element -> probability, a read-only view that builds the Fraction
        of an element when it is read."""
        return _Mass(self.weights, self.total)

    def __len__(self) -> int:
        return len(self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionTable) or self.domain != other.domain:
            return False
        t1, t2, w2 = self.total, other.total, other.weights
        return all(w * t2 == w2[x] * t1 for x, w in self.weights.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self.mass.items())
        return f"DistributionTable({{{inner}}})"

    def prob(self, element) -> Fraction:
        return Fraction(self.weights.get(element, 0), self.total)

    def support(self) -> Tuple:
        return tuple(x for x, w in self.weights.items() if w)

    def maxprob(self) -> Fraction:
        return Fraction(max(self.weights.values()), self.total)

    def event_prob(self, event: Callable) -> Fraction:
        return Fraction(sum(w for x, w in self.weights.items() if event(x)), self.total)

    def condition(self, event) -> "DistributionTable":
        """Condition on an event (predicate or collection of elements)."""
        if not callable(event):
            event = set(event).__contains__
        kept = {x: w for x, w in self.weights.items() if event(x)}
        total = sum(kept.values())
        if total == 0:
            raise NullEventError("conditioning on null event")
        return _table(kept, total)


class _Mass(Mapping):
    """A table's probabilities as a read-only Mapping over its weights, in
    domain order; equal to any Mapping with the same items, and written as
    the dict of them is."""

    __slots__ = ("_weights", "_total")

    def __init__(self, weights: dict, total: int):
        self._weights, self._total = weights, total

    def __getitem__(self, x) -> Fraction:
        return Fraction(self._weights[x], self._total)

    def __iter__(self):
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _places(places: Tuple[int, ...]):
    """t -> the tuple of t's entries at places, by one C-level getter."""
    if len(places) > 1:
        return itemgetter(*places)
    i = places[0] if places else 0
    return itemgetter(slice(i, i + len(places)))


def _sums(items, key) -> Dict[tuple, int]:
    """{key(t): the sum of its w} over the (t, w) items."""
    out: Dict[tuple, int] = defaultdict(int)
    for t, w in items:
        out[key(t)] += w
    return out


def project(d: DistributionTable, coords: Sequence[int]) -> DistributionTable:
    """Marginal of a tuple-element table onto the given coordinates (sorted)."""
    out = _sums(d.weights.items(), _places(tuple(sorted(coords))))
    return _table(dict(sorted(out.items(), key=_first)), d.total)


def statistical_distance(d1: DistributionTable, d2: DistributionTable) -> Fraction:
    """Exact total variation distance (half the L1 distance)."""
    if d1.domain != d2.domain:
        raise DomainError("statistical distance requires identical domains")
    t1, t2, w2 = d1.total, d2.total, d2.weights
    return Fraction(sum(abs(w * t2 - w2[x] * t1) for x, w in d1.weights.items()), 2 * t1 * t2)


def align_domains(d1: DistributionTable, d2: DistributionTable):
    """Extend both tables with zero mass onto the union domain."""
    union = sorted(set(d1.domain) | set(d2.domain))
    return tuple(_table({x: d.weights.get(x, 0) for x in union}, d.total) for d in (d1, d2))


def bias(d: DistributionTable) -> Fraction:
    """|Pr[V=0] - Pr[V=1]| for a table over a subset of {0,1}."""
    if not set(d.domain) <= {0, 1}:
        raise DomainError("bias requires a boolean domain")
    return Fraction(abs(d.weights.get(0, 0) - d.weights.get(1, 0)), d.total)


def min_entropy_at_least(d: DistributionTable, q: Fraction) -> bool:
    """True iff every mass is at most 2**(-q), i.e. the min-entropy is >= q."""
    return cmp_pow2(d.maxprob(), Fraction(q)) <= 0


# -- Fourier machinery on {0,1}^m --------------------------------------------

def _parity(z: int, smask: int) -> int:
    return (z & smask).bit_count() & 1


def _coords_to_mask(coords: Iterable[int], m: int) -> int:
    mask = 0
    for i in coords:
        if not 0 <= i < m:
            raise DomainError(f"coordinate {i} outside [0, {m})")
        mask |= 1 << (m - 1 - i)
    return mask


def fourier_coefficient(d: DistributionTable, m: int, coords: Iterable[int]) -> Fraction:
    """Coefficient of the mass function at the character indexed by `coords`.

    The convention is fixed so that |coef| equals 2**(-m) times the bias of
    the XOR of the selected bits, and the empty set gives exactly 2**(-m).
    """
    smask = _coords_to_mask(coords, m)
    signed = sum(-w if _parity(z, smask) else w for z, w in d.weights.items())
    return Fraction(signed, d.total << m)


def _walsh(values: list) -> list:
    """In place: values[s] becomes sum_z values[z] * (-1)**popcount(z & s) for
    every s in [0, 2^m) (the fast Walsh-Hadamard butterfly), on ints."""
    h, size = 1, len(values)
    while h < size:
        for start in range(0, size, 2 * h):
            for i in range(start, start + h):
                a, b = values[i], values[i + h]
                values[i], values[i + h] = a + b, a - b
        h *= 2
    return values


def _signed_weights(d: DistributionTable, m: int) -> list:
    """Per mask s in [0, 2^m): the even-parity minus the odd-parity weight of
    z & s over d, i.e. 2*w0 - total for the XOR of the bits in s."""
    full = (1 << m) - 1
    folded = [0] * (1 << m)
    for z, w in d.weights.items():
        folded[z & full] += w
    return _walsh(folded)


def fourier_inversion(coeffs: Mapping[Tuple[int, ...], Fraction], m: int) -> DistributionTable:
    """Rebuild the mass function from all 2^m coefficients, on integers: each
    coefficient over one lcm of their denominators, summed per z with the
    character's sign."""
    masks = {coords: _coords_to_mask(coords, m) for coords in coeffs}
    coeffs = {coords: _rational(c) for coords, c in coeffs.items()}
    scale = lcm(*(c.denominator for c in coeffs.values()))
    cleared = [0] * (1 << m)
    for coords, c in coeffs.items():
        cleared[masks[coords]] += c.numerator * (scale // c.denominator)
    masses = _walsh(cleared)  # mass of z = masses[z] / scale
    for z, v in enumerate(masses):
        if v < 0:
            raise DomainError(f"negative mass at {z!r}")
    if sum(masses) != scale:
        raise DomainError(f"masses must sum to 1 exactly, got {Fraction(sum(masses), scale)}")
    common = gcd(scale, *masses)
    return _table({z: v // common for z, v in enumerate(masses)}, scale // common)


def xor_bias(d: DistributionTable, m: int, coords: Iterable[int]) -> Fraction:
    """Exact bias of the XOR of the selected bits."""
    smask = _coords_to_mask(coords, m)
    w0 = sum(w for z, w in d.weights.items() if not _parity(z, smask))
    return Fraction(abs(2 * w0 - d.total), d.total)


def subsets_by_size(k: int, nonempty: bool = False):
    """All subsets of range(k) as sorted tuples, ordered by (size, lex)."""
    start = 1 if nonempty else 0
    for r in range(start, k + 1):
        yield from combinations(range(k), r)


class VaziraniReport(Record):
    def __init__(self, hypothesis: bool, conclusion: bool, worst_witness: tuple | None = None):
        self.hypothesis = hypothesis
        self.conclusion = conclusion
        self.worst_witness = worst_witness

    @property
    def implication_holds(self) -> bool:
        return (not self.hypothesis) or self.conclusion


def _biased_set(signed: list, m: int, total: int, eps: Fraction, min_size: int):
    """("bias", S, bias, bound) for the first S with |S| >= min_size, in
    (size, lex) order, whose XOR bias |signed[S]| / total exceeds
    bound = eps * (2m)**(-|S|), decided on integers; None if there is none."""
    num, den = eps.numerator, eps.denominator
    for coords in subsets_by_size(m, nonempty=True):
        if len(coords) < min_size:
            continue
        gap, scale = abs(signed[_coords_to_mask(coords, m)]), (2 * m) ** len(coords)
        if gap * scale * den > num * total:
            return "bias", coords, Fraction(gap, total), eps * Fraction(1, scale)
    return None


def vazirani_uniformity_check(d: DistributionTable, m: int, eps: Fraction) -> VaziraniReport:
    """Small XOR biases force pointwise near-uniformity.

    hypothesis: bias(xor over S) <= eps * (2m)**(-|S|) for every nonempty S;
    conclusion: every point mass lies in [(1-eps), (1+eps)] * 2**(-m).
    Both are decided on integer weights; the witness is built as Fractions.
    """
    eps = Fraction(eps)
    num, den = eps.numerator, eps.denominator
    total = d.total
    worst = _biased_set(_signed_weights(d, m), m, total, eps, 1)
    hypothesis = worst is None
    # (1-eps) * 2**-m <= w/total <= (1+eps) * 2**-m, times den * total * 2**m
    lo, hi = (den - num) * total, (den + num) * total
    conclusion = True
    for z in range(1 << m):
        w = d.weights.get(z, 0)
        if not lo <= (w * den) << m <= hi:
            conclusion = False
            if worst is None:
                base = Fraction(1, 1 << m)
                worst = ("mass", z, Fraction(w, total), ((1 - eps) * base, (1 + eps) * base))
            break
    return VaziraniReport(hypothesis, conclusion, worst)


def vazirani_minentropy_check(d: DistributionTable, m: int, t: int) -> VaziraniReport:
    """Small XOR biases on large sets force high min-entropy.

    hypothesis: bias(xor over S) <= (2m)**(-|S|) for every S with |S| >= t,
    tested as |2*w0 - total| * (2m)**|S| <= total;
    conclusion: min-entropy >= m - t*log2(m) - 1, tested in the cleared form
    maxprob * 2**(m-1) <= m**t (exact integers).
    """
    if t < 1:
        raise DomainError("t must be at least 1")
    total = d.total
    worst = _biased_set(_signed_weights(d, m), m, total, Fraction(1), t)
    conclusion = max(d.weights.values()) << (m - 1) <= m ** t * total
    return VaziraniReport(worst is None, conclusion, worst)
