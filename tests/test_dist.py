import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from liftsim.dist import (
    DistributionTable,
    align_domains,
    bias,
    fourier_coefficient,
    fourier_inversion,
    min_entropy_at_least,
    project,
    statistical_distance,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
    xor_bias,
)
from liftsim.errors import DomainError, NullEventError


def rand_table(rng, m):
    weights = [rng.randrange(17) for _ in range(1 << m)]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return DistributionTable({z: F(w, total) for z, w in enumerate(weights)})


def test_table_invariants():
    with pytest.raises(DomainError):
        DistributionTable({0: F(1, 2), 1: F(1, 3)})
    with pytest.raises(DomainError):
        DistributionTable({0: F(3, 2), 1: F(-1, 2)})
    d = DistributionTable.uniform([2, 0, 1])
    assert d.domain == (0, 1, 2)
    assert sum(d.mass.values()) == 1


def test_condition_examples():
    d = DistributionTable.uniform([0, 1, 2, 3])  # {00,01,10,11}
    c = d.condition(lambda z: z < 2)             # first bit = 0
    assert c == DistributionTable.uniform([0, 1])
    p = DistributionTable.point("x", domain=["x", "y"])
    assert p.condition({"x"}) == DistributionTable.point("x")
    d2 = DistributionTable({"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)})
    c2 = d2.condition({"b", "c"})
    assert c2.mass == {"b": F(1, 2), "c": F(1, 2)}
    with pytest.raises(NullEventError):
        d2.condition(set())


def test_conditioning_preserves_entropy_bound():
    # maxprob(X|E) <= maxprob(X) / Pr[E], exactly, over random events
    rng = random.Random(5)
    for _ in range(200):
        d = rand_table(rng, 3)
        members = [z for z in d.domain if rng.random() < 0.5 and d.mass[z] > 0]
        if not members:
            continue
        pe = sum(d.mass[z] for z in members)
        c = d.condition(set(members))
        assert c.maxprob() <= d.maxprob() / pe


def test_project_examples():
    d = DistributionTable.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert project(d, (0, 1)) == d
    assert project(d, (0,)) == DistributionTable.uniform([(0,), (1,)])
    d2 = DistributionTable({(0, 0): F(1, 2), (0, 1): F(1, 2)})
    assert project(d2, (0,)) == DistributionTable.point((0,))


def test_project_matches_brute_force_marginal():
    # project's key convention: coordinates taken in sorted order whatever
    # order they are given in, one-coordinate keys as 1-tuples, the empty set
    # as (); zero-weight elements keep their keys in the domain, and the
    # total is the input's.
    rng = random.Random(14)
    domain = list(product(range(3), repeat=3))
    for _ in range(40):
        weights = {t: rng.choice((0, 0, 1, 2, 5)) for t in domain}
        weights[rng.choice(domain)] += 1
        d = DistributionTable.from_weights(weights)
        for coords in ((), (1,), (2,), (2, 0), (1, 2, 0), (0, 2), (0, 1, 2)):
            order = sorted(coords)
            brute = {}
            for t, w in weights.items():
                key = tuple(t[i] for i in order)
                brute[key] = brute.get(key, 0) + w
            got = project(d, coords)
            assert got.domain == tuple(sorted(brute))
            assert got.weights == brute and got.total == d.total


def test_projection_entropy_bound():
    # maxprob(X_I) <= |complement alphabet| * maxprob(X), exactly
    rng = random.Random(6)
    doms = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for _ in range(100):
        weights = {t: rng.randrange(1, 9) for t in doms}
        d = DistributionTable.from_weights(weights)
        assert project(d, (0,)).maxprob() <= 2 * d.maxprob()


def test_statistical_distance():
    d1 = DistributionTable.uniform([0, 1])
    assert statistical_distance(d1, d1) == 0
    p0 = DistributionTable.point(0, domain=[0, 1])
    p1 = DistributionTable.point(1, domain=[0, 1])
    assert statistical_distance(p0, p1) == 1
    d2 = DistributionTable({0: F(3, 4), 1: F(1, 4)})
    assert statistical_distance(d2, d1) == F(1, 4)
    with pytest.raises(DomainError):
        statistical_distance(d1, DistributionTable.uniform([0, 1, 2]))
    a, b = align_domains(DistributionTable.point("t"), DistributionTable.point("u"))
    assert statistical_distance(a, b) == 1


def test_bias():
    assert bias(DistributionTable.uniform([0, 1])) == 0
    assert bias(DistributionTable.point(1, domain=[0, 1])) == 1
    assert bias(DistributionTable({0: F(3, 4), 1: F(1, 4)})) == F(1, 2)


def test_min_entropy():
    assert min_entropy_at_least(DistributionTable.uniform(range(4)), F(2))
    assert not min_entropy_at_least(DistributionTable.point(0), F(1, 2))
    # uniform over 3 elements: H_inf = log2(3) > 3/2, so the test passes
    assert min_entropy_at_least(DistributionTable.uniform(range(3)), F(3, 2))
    # and fails at 8/5 since log2(3) = 1.584... < 1.6
    assert not min_entropy_at_least(DistributionTable.uniform(range(3)), F(8, 5))


def test_fourier_examples():
    u = DistributionTable.uniform(range(4))
    assert fourier_coefficient(u, 2, (0,)) == 0
    assert fourier_coefficient(u, 2, (0, 1)) == 0
    assert fourier_coefficient(u, 2, ()) == F(1, 4)
    pm = DistributionTable.point(3, domain=range(4))  # point mass at 11
    assert fourier_coefficient(pm, 2, (0, 1)) == F(1, 4)
    rng = random.Random(11)
    d = rand_table(rng, 3)
    assert fourier_coefficient(d, 3, ()) == F(1, 8)


def test_fourier_identity_and_inversion():
    rng = random.Random(21)
    for _ in range(50):
        m = rng.randrange(1, 5)
        d = rand_table(rng, m)
        coeffs = {}
        for r in range(m + 1):
            for coords in combinations(range(m), r):
                coef = fourier_coefficient(d, m, coords)
                coeffs[coords] = coef
                assert abs(coef) == F(1, 1 << m) * xor_bias(d, m, coords)
        full = DistributionTable({z: d.prob(z) for z in range(1 << m)})
        assert fourier_inversion(coeffs, m) == full


def test_vazirani_uniformity():
    u = DistributionTable.uniform(range(4))
    r = vazirani_uniformity_check(u, 2, F(1, 4))
    assert r.hypothesis and r.conclusion
    pm = DistributionTable.point(0, domain=range(4))
    r = vazirani_uniformity_check(pm, 2, F(1, 2))
    assert not r.hypothesis  # bias(Z_1) = 1 > (1/2)*(1/4)


def test_vazirani_minentropy():
    u = DistributionTable.uniform(range(4))
    r = vazirani_minentropy_check(u, 2, 1)
    assert r.hypothesis and r.conclusion
    # m = 1: the conclusion holds vacuously whatever the distribution
    skew = DistributionTable({0: F(9, 10), 1: F(1, 10)})
    assert vazirani_minentropy_check(skew, 1, 1).conclusion
    # uniform on {z : z_1 = 0}, m=2, t=2: only S={1,2} is checked and its
    # xor is Z_2, unbiased; maxprob 1/2 <= 2^(1-2)*2^2 = 2
    half = DistributionTable.uniform([0, 1])
    half = DistributionTable({0: F(1, 2), 1: F(1, 2), 2: F(0), 3: F(0)})
    r = vazirani_minentropy_check(half, 2, 2)
    assert r.hypothesis and r.conclusion


def test_vazirani_minentropy_refuses_t_below_1():
    # a domain error like every other check in dist, so a LiftsimError
    u = DistributionTable.uniform(range(4))
    for t in (0, -1):
        with pytest.raises(DomainError, match="t must be at least 1"):
            vazirani_minentropy_check(u, 2, t)


def test_vazirani_implications_never_fail():
    rng = random.Random(31)
    for k in range(400):
        m = 1 + k % 4
        d = rand_table(rng, m)
        for eps in (F(1, 4), F(1, 2), F(1)):
            r = vazirani_uniformity_check(d, m, eps)
            assert r.implication_holds
        for t in (1, 2):
            r = vazirani_minentropy_check(d, m, t)
            assert r.implication_holds


# -- the integer core against a Fraction-per-element reference ------------------

class RefTable:
    """One Fraction per element, as the tables were stored before the integer core."""

    def __init__(self, masses):
        self.mass = {k: F(v) for k, v in sorted(masses.items(), key=lambda kv: kv[0])}
        if any(v < 0 for v in self.mass.values()) or sum(self.mass.values()) != 1:
            raise DomainError("not a distribution")

    @classmethod
    def from_weights(cls, weights):
        total = sum(F(w) for w in weights.values())
        return cls({k: F(w) / total for k, w in weights.items()})

    def support(self):
        return tuple(x for x, p in self.mass.items() if p)

    def maxprob(self):
        return max(self.mass.values())

    def prob(self, x):
        return self.mass.get(x, F(0))

    def event_prob(self, event):
        return sum((p for x, p in self.mass.items() if event(x)), F(0))

    def condition(self, event):
        kept = {x: p for x, p in self.mass.items() if event(x)}
        pe = sum(kept.values(), F(0))
        if pe == 0:
            raise NullEventError("null event")
        return RefTable({x: p / pe for x, p in kept.items()})

    def project(self, coords):
        out = {}
        for x, p in self.mass.items():
            key = tuple(x[i] for i in coords)
            out[key] = out.get(key, F(0)) + p
        return RefTable(out)


def _agrees(d, ref):
    return d.domain == tuple(ref.mass) and d.mass == ref.mass and d.total > 0


def _random_case(rng, k):
    """(elements, int weights) over a tuple domain for k = 1..3, an int domain for k = 0."""
    if k:
        universe = list(product(range(rng.choice((2, 3, 4))), repeat=k))
    else:
        universe = list(range(rng.randrange(1, 20)))
    elems = rng.sample(universe, rng.randrange(1, len(universe) + 1))
    weights = [rng.choice((0, 0, 1, 2, 3, 7, 12, 10 ** 9 + 7)) for _ in elems]
    if not any(weights):
        weights[rng.randrange(len(weights))] = rng.randrange(1, 5)
    return elems, weights


def _builds(rng, elems, weights):
    """The same distribution entered three ways: int weights, rational
    weights, and exact masses summing to 1."""
    scale = F(rng.randrange(1, 9), rng.randrange(1, 9))
    total = sum(weights)
    yield dict(zip(elems, weights)), DistributionTable.from_weights(dict(zip(elems, weights)))
    rational = {x: w * scale for x, w in zip(elems, weights)}
    yield rational, DistributionTable.from_weights(rational)
    masses = {x: F(w, total) for x, w in zip(elems, weights)}
    yield masses, DistributionTable(masses)


def test_integer_core_matches_fraction_reference():
    rng = random.Random(4242)
    tables = 0
    for case in range(180):
        k = case % 4
        elems, weights = _random_case(rng, k)
        for raw, d in _builds(rng, elems, weights):
            tables += 1
            ref = RefTable.from_weights(raw)
            assert _agrees(d, ref)
            assert d.support() == ref.support()
            assert d.maxprob() == ref.maxprob()
            for x in list(d.domain) + ["absent"]:
                assert d.prob(x) == ref.prob(x)
            chosen = set(rng.sample(d.domain, rng.randrange(len(d.domain) + 1)))
            assert d.event_prob(chosen.__contains__) == ref.event_prob(chosen.__contains__)
            for event in (chosen, chosen.__contains__):
                if ref.event_prob(chosen.__contains__) == 0:
                    with pytest.raises(NullEventError):
                        d.condition(event)
                else:
                    assert _agrees(d.condition(event), ref.condition(chosen.__contains__))
            u = DistributionTable.uniform(d.domain)
            assert statistical_distance(d, u) == sum(
                abs(p - F(1, len(d))) for p in ref.mass.values()) / 2
            if not k:  # int elements below 20 are points of {0,1}^5
                for coords in ((0,), (1, 4), (0, 2, 3)):
                    mask = sum(1 << (4 - i) for i in coords)
                    p0 = ref.event_prob(lambda z: (z & mask).bit_count() % 2 == 0)
                    assert xor_bias(d, 5, coords) == abs(2 * p0 - 1)
                    assert fourier_coefficient(d, 5, coords) == (2 * p0 - 1) / 32
            if k:
                for r in range(k + 1):
                    for coords in combinations(range(k), r):
                        assert _agrees(project(d, coords), ref.project(coords))
                        # coordinates are taken in sorted order
                        assert project(d, coords[::-1]) == project(d, coords)
    assert tables >= 500


def test_equality_is_by_value_across_totals():
    a = DistributionTable.from_weights({"a": 2, "b": 2})
    b = DistributionTable.from_weights({"a": 1, "b": 1})
    assert (a.total, b.total) == (4, 2)
    assert a == b == DistributionTable.uniform(["a", "b"])
    assert a == DistributionTable({"a": F(1, 2), "b": F(1, 2)})
    assert a != DistributionTable.from_weights({"a": 1, "b": 3})
    assert a != DistributionTable.from_weights({"a": 1, "b": 1, "c": 0})  # other domain
    assert a != {"a": F(1, 2), "b": F(1, 2)}
    # conditioning and projection keep the parent's weights, not a reduced copy
    d = DistributionTable.from_weights({(0, 0): 6, (0, 1): 2, (1, 1): 4})
    assert project(d, (0,)).weights == {(0,): 8, (1,): 4}
    assert project(d, (0,)) == DistributionTable({(0,): F(2, 3), (1,): F(1, 3)})
    assert d.condition({(0, 0), (0, 1)}).total == 8


def test_mass_is_a_computed_view():
    d = DistributionTable.from_weights({0: 3, 1: 1, 2: 0})
    view = d.mass
    assert view == {0: F(3, 4), 1: F(1, 4), 2: F(0)}
    view[0] = F(1)
    assert d.mass == {0: F(3, 4), 1: F(1, 4), 2: F(0)}
    assert d.mass is not d.mass
    assert repr(d) == "DistributionTable({0: 3/4, 1: 1/4, 2: 0})"


def test_mixture_matches_reference():
    rng = random.Random(99)
    for _ in range(50):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            elems, weights = _random_case(rng, rng.randrange(4))
            parts.append(DistributionTable.from_weights(dict(zip(elems, weights))))
        raw = [rng.randrange(1, 6) for _ in parts]
        ws = [F(w, sum(raw)) for w in raw]
        if len({type(d.domain[0]) for d in parts}) > 1:
            continue  # int and tuple elements do not share one ordered domain
        expected = {}
        for w, d in zip(ws, parts):
            for x, p in d.mass.items():
                expected[x] = expected.get(x, F(0)) + w * p
        mixed = DistributionTable.mixture(zip(ws, parts))
        assert _agrees(mixed, RefTable(expected))
    with pytest.raises(DomainError):
        DistributionTable.mixture([(F(1, 2), DistributionTable.point(0))])


def test_invalid_tables_raise():
    with pytest.raises(DomainError):
        DistributionTable({0: F(1, 2), 1: F(-1, 4), 2: F(3, 4)})  # negative mass
    with pytest.raises(DomainError):
        DistributionTable({0: F(1, 2), 1: F(1, 3)})  # sums to 5/6
    with pytest.raises(DomainError):
        DistributionTable({})
    with pytest.raises(DomainError):
        DistributionTable.from_weights({0: 0, 1: 0})
    with pytest.raises(DomainError):
        DistributionTable.from_weights({0: 3, 1: -1})
    with pytest.raises(DomainError):
        DistributionTable.from_weights({0: F(1, 2), 1: F(-1, 3)})
    with pytest.raises(DomainError):
        DistributionTable.uniform([])
    d = DistributionTable.from_weights({0: 1, 1: 0, 2: 1})
    with pytest.raises(NullEventError):
        d.condition({1})
    with pytest.raises(NullEventError):
        d.condition(lambda z: z > 5)
