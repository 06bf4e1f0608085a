"""liftsim's records keep the semantics of the dataclasses they replaced,
and records.dump_json writes JSON data as json.dumps does.

Each record has a ``@dataclass`` twin here with the former fields, defaults,
``frozen`` flag and, for ``LiftingParams``, the former ``__post_init__``
normalisation.  Every constructor call below is made on both sides, and the
two instances must agree on fields, repr and hash, while never comparing
equal to each other (equality holds within one class only).
"""

import copy
import json
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction as F
from typing import Optional

import pytest

from liftsim import dist, dtrees, gadgets, protocols, simulate, structure, verify
from liftsim.exact import exact_log2
from liftsim.records import Record, dump_json


# -- the former dataclasses ------------------------------------------------------

@dataclass
class VaziraniReport:
    hypothesis: bool
    conclusion: bool
    worst_witness: tuple = None


@dataclass(frozen=True)
class DLeaf:
    output: object


@dataclass(frozen=True)
class DNode:
    queries: tuple
    children: tuple


@dataclass(frozen=True)
class ParallelDecisionTree:
    n: int
    root: object


@dataclass(frozen=True)
class RandomizedTree:
    components: tuple


@dataclass(frozen=True)
class Rectangle:
    a: tuple
    b: tuple


@dataclass(frozen=True)
class DiscrepancyResult:
    value: F
    argmax: object


@dataclass
class XorLemmaReport:
    m: int
    disc_base: F
    lower: F
    value: F
    upper: F
    sandwich_holds: bool


@dataclass
class CorollaryReport:
    disc_ok: bool
    entropy_ok: bool
    measured: F
    bound_bits: F
    conclusion: bool


@dataclass(frozen=True)
class PLeaf:
    output: object


@dataclass(frozen=True)
class PNode:
    speaker: str
    bits: tuple
    children: tuple


@dataclass(frozen=True)
class ProtocolTree:
    n: int
    b: int
    root: object


@dataclass(frozen=True)
class RandomizedProtocol:
    components: tuple


@dataclass
class LiftingParams:
    eta: F
    c: F
    h: F
    b: int
    n: int
    mode: str = "det"
    eps: Optional[F] = None
    delta: Optional[F] = None

    def __post_init__(self):
        self.eta, self.c, self.h = F(self.eta), F(self.c), F(self.h)
        if self.eps is None:
            if self.mode == "det":
                self.eps = self.h / (self.c * self.eta)
            else:
                self.eps = self.h * exact_log2(self.c) / (self.c * self.eta)
        self.eps = F(self.eps)
        if self.delta is None:
            self.delta = 1 - self.eta / 4 + self.eps / 2
        self.delta = F(self.delta)


@dataclass
class RoundRecord:
    index: int
    speaker: str
    free_before: tuple
    delta_witness: Optional[F] = None
    dangerous_values: tuple = ()
    discarded_mass: F = F(0)
    message: str = ""
    p_message: F = F(1)
    heavy_value_prob: Optional[F] = None
    class_index: Optional[int] = None
    p_class: Optional[F] = None
    p_geq: Optional[F] = None
    query_coords: tuple = ()
    fixed_value: tuple = ()
    step5_prob: Optional[F] = None
    snapshots: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)


@dataclass
class SimResult:
    status: str
    violation: Optional[str]
    transcript: str
    output: object
    rho: str
    queries: tuple
    depth: int
    xset: tuple
    yset: tuple
    rounds: list
    k_product: Optional[F] = None
    component: Optional[int] = None


@dataclass
class RoundLedger:
    index: int
    checks: dict
    preconditions: dict


@dataclass
class LedgerReport:
    rounds: list
    deficiency_nonnegative: bool


@dataclass
class DensityWitness:
    delta: F
    violating_set: Optional[tuple] = None
    witness_maxprob: Optional[F] = None


@dataclass(frozen=True)
class Restriction:
    cells: str


@dataclass
class StructureCertificate:
    rho: object
    delta_x: F
    delta_y: F
    tau: F


@dataclass
class StructureRefusal:
    reason: str
    detail: str = ""


@dataclass
class DensityPart:
    index: int
    coords: tuple
    value: tuple
    members: tuple
    prob: F
    p_geq: F


@dataclass
class Verdict:
    flagged: bool
    witness: tuple = None


@dataclass
class LemmaInstance:
    instance: str
    verdict: str
    measured: Optional[str] = None
    bound: Optional[str] = None
    detail: str = ""


@dataclass
class SectionReport:
    name: str
    total: int = 0
    passes: int = 0
    vacuous: int = 0
    fails: int = 0
    counterexamples: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class CorpusReport:
    seed: int
    sections: list


@dataclass
class CorpusSpec:
    seed: int = 2024
    fourier: Optional[dict] = None
    vazirani: Optional[dict] = None
    xor_lemma: Optional[dict] = None
    extractor_sampling: Optional[dict] = None
    kraft: Optional[dict] = None
    density: Optional[dict] = None
    claims: Optional[dict] = None
    structure_lemmas: Optional[dict] = None
    lifting: Optional[dict] = None
    fixture_planted_violation: bool = False


@dataclass
class _Section:
    job: object
    shipped: object
    budgets: dict


# -- the same constructor calls on both sides --------------------------------------

P_LEAVES = (protocols.PLeaf(0), protocols.PLeaf(1))
P_NODE = protocols.PNode("A", (0, 1), P_LEAVES)
PROTO = protocols.ProtocolTree(1, 1, P_NODE)
D_NODE = dtrees.DNode((0,), (dtrees.DLeaf(0), dtrees.DLeaf(1)))
TREE = dtrees.ParallelDecisionTree(1, D_NODE)
RECT = gadgets.Rectangle((0, 1), (1,))
ROUND = simulate.RoundRecord(1, "A", (0, 1))
LEDGER = simulate.RoundLedger(1, {"a": True}, {"p": False})

# (library module, twin, [(args, kwargs), ...])
CALLS = [
    (dist, VaziraniReport, [((True, False), {}),
                            ((True, True, ("bias", (0,), F(1, 2), F(1, 4))), {})]),
    (dtrees, DLeaf, [((0,), {}), ((), {"output": "x"})]),
    (dtrees, DNode, [(((0,), (dtrees.DLeaf(0), dtrees.DLeaf(1))), {})]),
    (dtrees, ParallelDecisionTree, [((1, D_NODE), {}), ((), {"n": 0, "root": dtrees.DLeaf(1)})]),
    (dtrees, RandomizedTree, [((((F(1), TREE),),), {}),
                              ((((F(1, 2), TREE), (F(1, 2), TREE)),), {})]),
    (gadgets, Rectangle, [(((0, 1), (1,)), {}), ((), {"a": (), "b": (0,)})]),
    (gadgets, DiscrepancyResult, [((F(1, 4), RECT), {})]),
    (gadgets, XorLemmaReport, [((2, F(1, 4), F(1, 16), F(1, 8), F(1), True), {})]),
    (gadgets, CorollaryReport, [((True, False, F(1, 8), F(3, 2), True), {})]),
    (protocols, PLeaf, [((0,), {}), (("components",), {})]),
    (protocols, PNode, [(("A", (0, 1), P_LEAVES), {}), (("B", (1, 1), P_LEAVES), {})]),
    (protocols, ProtocolTree, [((1, 1, P_NODE), {}), ((2, 1, protocols.PLeaf(3)), {})]),
    (protocols, RandomizedProtocol, [((((F(1, 3), PROTO), (F(2, 3), PROTO)),), {})]),
    (simulate, LiftingParams, [
        ((1, 2, 1, 2, 2), {}),
        ((), {"eta": F(1, 2), "c": 4, "h": 1, "b": 2, "n": 3, "mode": "rand"}),
        ((1, 2, 1, 1, 2, "det", F(1, 3)), {}),
        ((1, 2, 1, 4, 2), {"mode": "rand", "delta": F(2)}),
    ]),
    (simulate, RoundRecord, [
        ((1, "A", (0, 1)), {}),
        ((2, "B", ()), {"message": "01", "p_message": F(1, 2), "class_index": 1,
                        "snapshots": {"start": (0, F(1), F(1))}, "flags": {"f": True}}),
    ]),
    (simulate, SimResult, [
        (("done", None, "01", 0, "10", ((0,),), 1, (0,), (1,), [ROUND]), {}),
        (("error_halt", "K", "", None, "**", (), 0, (), (), []),
         {"k_product": F(3, 2), "component": 1}),
    ]),
    (simulate, RoundLedger, [((1, {"a": True, "b": None}, {"p": False}), {})]),
    (simulate, LedgerReport, [(([LEDGER], True), {})]),
    (structure, DensityWitness, [((F(1, 2),), {}), ((F(1, 2), (0,), F(1, 4)), {})]),
    (structure, Restriction, [(("0*1",), {}), (("",), {})]),
    (structure, StructureCertificate, [
        ((structure.Restriction.all_free(2), F(1), F(1, 2), F(2)), {})]),
    (structure, StructureRefusal, [(("empty",), {}), (("empty", "detail"), {})]),
    (structure, DensityPart, [((1, (0,), (1,), ((1, 0),), F(1, 2), F(1)), {})]),
    (structure, Verdict, [((True,), {}), ((False, ("w", 1)), {})]),
    (verify, LemmaInstance, [(("i", "pass"), {}), (("i", "FAIL", "1/2", "1/4", "d"), {})]),
    (verify, SectionReport, [(("s",), {}), (("s", 3, 1, 1, 1), {"info": {"k": 1}})]),
    (verify, CorpusReport, [((1, [verify.SectionReport("s")]), {})]),
    (verify, CorpusSpec, [((), {}), ((), {"seed": 3, "fourier": {"count": 2}})]),
    (verify, _Section, [((verify._section_fixture, None, {}), {}),
                        ((verify._section_density, max, {"count": (0, 1)}), {})]),
]


def _pairs():
    for module, twin, calls in CALLS:
        cls = getattr(module, twin.__name__)
        for args, kwargs in calls:
            yield cls(*args, **kwargs), twin(*args, **kwargs)


def test_every_record_has_a_twin():
    records = {(module.__name__, name) for module in (dist, dtrees, gadgets, protocols,
                                                      simulate, structure, verify)
               for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, Record)
               and obj.__module__ == module.__name__}
    assert records == {(module.__name__, twin.__name__) for module, twin, _ in CALLS}
    assert len(records) == 29


@pytest.mark.parametrize("record, twin", list(_pairs()),
                         ids=lambda v: type(v).__name__)
def test_record_matches_its_dataclass_twin(record, twin):
    values = tuple(getattr(twin, f.name) for f in fields(twin))
    assert tuple(getattr(record, f.name) for f in fields(twin)) == values
    assert repr(record) == repr(twin)
    # equal within the class, never across classes
    assert record == copy.copy(record) and not record != copy.copy(record)
    assert record != twin and twin != record
    if type(twin).__dataclass_params__.frozen:
        assert hash(record) == hash(twin) == hash(values)
        with pytest.raises(AttributeError):
            setattr(record, fields(twin)[0].name, None)
        with pytest.raises(AttributeError):
            delattr(record, fields(twin)[0].name)
        with pytest.raises(AttributeError):
            record.other = None
    else:
        for obj in (record, twin):
            with pytest.raises(TypeError):
                hash(obj)


def test_defaults_give_each_instance_its_own_container():
    one, two = simulate.RoundRecord(1, "A", ()), simulate.RoundRecord(1, "A", ())
    assert one.snapshots is not two.snapshots and one.flags is not two.flags
    one, two = verify.SectionReport("s"), verify.SectionReport("s")
    assert one.counterexamples is not two.counterexamples and one.info is not two.info


def test_one_field_records_of_two_classes_differ():
    assert protocols.PLeaf(0) != dtrees.DLeaf(0)
    assert protocols.PLeaf(0) != (0,)
    assert protocols.PLeaf(0) == protocols.PLeaf(0)


def test_deepcopy_keeps_a_record_equal():
    g = gadgets.builtin_gadget("ip2")
    problem = dtrees.parity_problem(2)
    proto = protocols.canonical_protocol(dtrees.brute_force_Ddt(problem)[1], g)
    res = simulate.lift_randomized(proto, g, 1, simulate.LiftingParams.standard(
        b=2, n=2, mode="rand"), seed=4)
    assert res.rounds
    twin = copy.deepcopy(res)
    assert twin == res and twin is not res and twin.rounds[0] is not res.rounds[0]
    twin_proto = copy.deepcopy(proto)
    assert twin_proto == proto and hash(twin_proto) == hash(proto)
    assert protocols.complexity(twin_proto) == protocols.complexity(proto)


def test_a_frozen_record_keeps_its_hash(monkeypatch):
    # the shared-part protocol of ip3, n=3 parity: hashing its root reads each
    # distinct node's fields once, not once per occurrence in the expanded tree
    root = protocols.canonical_protocol(dtrees.brute_force_Ddt(dtrees.parity_problem(3))[1],
                                        gadgets._ip_gadget(3)).root
    nodes, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            todo.extend(getattr(node, "children", ()))
    calls, values = [], Record._values
    monkeypatch.setattr(Record, "_values", lambda self: calls.append(1) or values(self))
    first = hash(root)
    assert 0 < len(calls) <= len(nodes)
    assert hash(root) == first and len(calls) <= len(nodes)
    monkeypatch.undo()
    assert first == hash(root._values())


# -- dump_json against json.dumps ------------------------------------------------

# characters json escapes (quote, backslash, controls, DEL is not one), ASCII
# it keeps, and non-ASCII ones: accented, CJK, a line separator, an astral
# emoji and a lone surrogate
_CHARS = ['"', "\\", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f", "/", " ",
          "a", "Z", "0", "\u00e9", "\u65e5", "\u2028", "\U0001f600", "\ud800"]
_INTS = (0, 1, -1, 2 ** 63, -(2 ** 64) - 1, 10 ** 40, -(10 ** 40))


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(4)))


def _random_scalar(rng, kinds):
    kind = rng.choice(("str", "int", "bool", "none"))
    kinds[kind] += 1
    if kind == "str":
        return _random_text(rng)
    if kind == "int":
        return rng.choice((rng.choice(_INTS), rng.randint(-10 ** 30, 10 ** 30)))
    return {"bool": rng.random() < 0.5, "none": None}[kind]


def _random_data(rng, depth, kinds):
    """Seeded JSON data: dicts with str keys, lists and tuples nested to
    `depth`, an empty container possible at every depth, and lists of one
    scalar type (the writer's one-join path) or of bools next to ints."""
    kind = "scalar" if depth == 0 else rng.choice(
        ("scalar", "dict", "list", "tuple", "empty", "ints", "strs", "bools and ints"))
    kinds[kind, depth] += 1
    if kind == "scalar":
        return _random_scalar(rng, kinds)
    if kind == "empty":
        return rng.choice(({}, [], ()))
    if kind == "ints":
        return [rng.choice(_INTS) for _ in range(rng.randint(1, 5))]
    if kind == "strs":
        return tuple(_random_text(rng) for _ in range(rng.randint(1, 5)))
    if kind == "bools and ints":
        return [rng.choice((True, False, 0, 1)) for _ in range(rng.randint(2, 6))]
    items = [_random_data(rng, depth - 1, kinds) for _ in range(rng.randint(1, 4))]
    if kind == "dict":
        return {_random_text(rng): item for item in items}
    return items if kind == "list" else tuple(items)


def test_dump_json_matches_json_dumps_on_seeded_data():
    rng = random.Random(30)
    kinds = Counter()
    for _ in range(400):
        data = _random_data(rng, 4, kinds)
        assert dump_json(data) == json.dumps(data, sort_keys=True, indent=2), data
    # every container kind at every depth, and every scalar kind
    assert min(kinds[kind, depth] for depth in range(1, 5) for kind in (
        "scalar", "dict", "list", "tuple", "empty", "ints", "strs", "bools and ints")) >= 10
    assert min(kinds[kind] for kind in ("str", "int", "bool", "none")) >= 50, kinds


def _stable_repr(data):
    # the repr of a set of str follows the process's hash seed; sort it so
    # the test's name is the same in every run
    if isinstance(data, set):
        return "{" + ", ".join(sorted(map(repr, data))) + "}"
    return repr(data)


@pytest.mark.parametrize("data", [
    1.5, [0, 0.5], {"a": {"b": float("nan")}}, (1, 2.0),
    {1: "one"}, {"a": {None: 1}}, {"a": 1, 2: 3}, {True: 1},
    F(1, 2), {"a", "b"}, b"bytes", [1, {(0,): 3}],
], ids=_stable_repr)
def test_dump_json_refuses_values_outside_its_types(data):
    # a float or a key that is not a str is a TypeError, not text; json.dumps
    # would write 1.5 and the key "1"
    with pytest.raises(TypeError):
        dump_json(data)
