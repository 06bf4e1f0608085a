import random
import sys
from fractions import Fraction as F

import pytest

from liftsim.dist import DistributionTable
from liftsim import gadgets, protocols
from liftsim.dtrees import (
    DLeaf,
    ParallelDecisionTree,
    RandomizedTree,
    brute_force_Ddt,
    find_one_problem,
    first_bit_problem,
    index_problem,
    parity_problem,
    tree_from_json,
)
from liftsim.errors import DomainError, InvariantError, LiftsimError
from liftsim.gadgets import BUILTIN_NAMES, builtin_gadget
from liftsim.protocols import (
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedProtocol,
    assert_prefix_free,
    canonical_protocol,
    complexity,
    kraft_heavy_message,
    message_distribution,
    protocol_from_json,
    protocol_to_json,
    randomized_protocol_from_json,
    randomized_protocol_to_json,
    run_protocol,
)
from liftsim.simulate import compose_eval

from protocol_oracle import checked_complexity as oracle_complexity
from protocol_oracle import canonical_protocol as oracle_protocol

XOR = builtin_gadget("xor1")
IP2 = builtin_gadget("ip2")


def leaf_protocol(n=1, b=1, output="o"):
    return ProtocolTree(n, b, PLeaf(output))


def one_bit_protocol():
    # Alice sends her single input bit (n=1, b=1)
    return ProtocolTree(1, 1, PNode("A", (0, 1), (PLeaf("zero"), PLeaf("one"))))


def test_run_protocol_examples():
    p = leaf_protocol()
    assert run_protocol(p, 0, 0) == ("", "o", [])
    p1 = one_bit_protocol()
    t, out, rounds = run_protocol(p1, 1, 0)
    assert t == "1" and out == "one" and rounds == [("A", "1")]
    with pytest.raises(DomainError):
        run_protocol(p1, 2, 0)


def test_complexity_examples():
    assert complexity(leaf_protocol()) == (0, 0)
    assert complexity(one_bit_protocol()) == (1, 1)
    # Alice announces both bits of her 2-bit input: C=2, r=1
    p = ProtocolTree(1, 2, PNode("A", (0, 0, 1, 1), (
        PNode("A", (0, 1, 0, 1), (PLeaf("00"), PLeaf("01"))),
        PNode("A", (0, 1, 0, 1), (PLeaf("10"), PLeaf("11"))),
    )))
    assert complexity(p) == (2, 1)


def test_message_distribution_and_prefix_freeness():
    # messages 0, 10, 11, 10 for the four inputs of a 2-bit Alice round
    inner = PNode("A", (0, 0, 1, 0), (PLeaf("m10"), PLeaf("m11")))
    root = PNode("A", (0, 1, 1, 1), (PLeaf("m0"), inner))
    ProtocolTree(1, 2, root)  # the round is a valid protocol
    table, senders, ends = message_distribution(root, range(4))
    assert table.mass == {"0": F(1, 4), "10": F(1, 2), "11": F(1, 4)}
    assert senders == {"0": (0,), "10": (1, 3), "11": (2,)}
    assert isinstance(ends["0"], PLeaf) and ends["0"].output == "m0"
    # constant speaker bits on the inputs give a single certain message
    table, senders, _ = message_distribution(root, (0,))
    assert table.mass == {"0": F(1)} and senders == {"0": (0,)}
    for node, inputs in ((root, ()), (PLeaf("m0"), (0,))):
        with pytest.raises(DomainError):
            message_distribution(node, inputs)


def test_assert_prefix_free():
    assert_prefix_free(["0", "10", "11"])
    with pytest.raises(InvariantError):
        assert_prefix_free(["0", "01"])


def test_kraft_heavy_message_examples():
    single = DistributionTable.point("101")
    assert kraft_heavy_message(single) == "101"
    d = DistributionTable({"0": F(1, 2), "10": F(1, 4), "11": F(1, 4)})
    assert kraft_heavy_message(d) == "0"
    d = DistributionTable({"0": F(1, 8), "10": F(7, 16), "11": F(7, 16)})
    assert kraft_heavy_message(d) == "10"


def test_kraft_heavy_message_fuzz():
    rng = random.Random(12)
    for _ in range(300):
        # random prefix-free code: random binary tree leaves, depth <= 4
        code = []

        def grow(prefix, depth):
            if depth == 0 or rng.random() < 0.4:
                code.append(prefix)
                return
            grow(prefix + "0", depth - 1)
            grow(prefix + "1", depth - 1)

        grow("0", 3)
        grow("1", 3)
        weights = {w: rng.randrange(1, 10) for w in code}
        d = DistributionTable.from_weights(weights)
        w = kraft_heavy_message(d)
        assert d.mass[w] * (1 << len(w)) >= 1


def test_canonical_protocol_examples():
    # zero-query tree
    t0 = ParallelDecisionTree(2, DLeaf("c"))
    p0 = canonical_protocol(t0, XOR)
    assert complexity(p0) == (0, 0)
    assert run_protocol(p0, 0, 0)[1] == "c"

    # one query at b=1: C = 2, r = 2
    d, t1 = brute_force_Ddt(first_bit_problem(1))
    assert d == 1
    p1 = canonical_protocol(t1, XOR)
    assert complexity(p1) == (2, 2)

    # depth-D tree at block length b: C = D*(b+1), r = 2D
    d2, t2 = brute_force_Ddt(parity_problem(2))
    p2 = canonical_protocol(t2, IP2)
    assert complexity(p2) == (d2 * 3, 2 * d2)


def test_canonical_protocol_solves_composed_problems():
    for n, g in ((2, XOR), (2, IP2), (3, XOR)):
        problem = parity_problem(n)
        _, tree = brute_force_Ddt(problem)
        proto = canonical_protocol(tree, g)
        for x in range(proto.input_size):
            for y in range(proto.input_size):
                _, out, _ = run_protocol(proto, x, y)
                z = compose_eval(g, x, y, n)
                assert problem.allows(z, out)


def _oracle_cases():
    """(label, tree, gadget): every brute-force tree of the shipped problems at
    n <= 3 with each builtin gadget where b*n <= 9, and three special trees."""
    for n in (1, 2, 3):
        for make in (parity_problem, index_problem, first_bit_problem, find_one_problem):
            _, tree = brute_force_Ddt(make(n))
            for name in BUILTIN_NAMES:
                g = builtin_gadget(name)
                if g.b * n <= 9:
                    yield f"{make.__name__}({n})/{name}", tree, g
    yield "leaf-root", ParallelDecisionTree(2, DLeaf("c")), IP2
    # an empty query set at the root and inside, and two coordinates asked at once
    yield "empty-queries", tree_from_json(
        '{"n": 3, "tree": {"queries": [], "children": [{"queries": [2, 0], "children": ['
        '{"leaf": "a"}, {"queries": [], "children": [{"leaf": "b"}]}, '
        '{"queries": [1], "children": [{"leaf": "c"}, {"leaf": "d"}]}, {"leaf": "e"}]}]}}'), IP2
    yield "ip3-parity3", brute_force_Ddt(parity_problem(3))[1], gadgets._ip_gadget(3)


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("label, tree, g", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_canonical_protocol_equals_expanded_oracle(label, tree, g):
    p, q = canonical_protocol(tree, g), oracle_protocol(tree, g)
    assert p == q and complexity(p) == complexity(q)
    assert complexity(p) == oracle_complexity(q.root, q.input_size)
    assert protocol_to_json(p) == protocol_to_json(q)


def _distinct_parts(p: ProtocolTree):
    """Distinct PNode objects and distinct bit-map objects below p's root,
    each shared node walked once."""
    nodes, maps, todo = {}, set(), [p.root]
    while todo:
        node = todo.pop()
        if isinstance(node, PNode) and id(node) not in nodes:
            nodes[id(node)] = node
            maps.add(id(node.bits))
            todo.extend(node.children)
    return len(nodes), len(maps)


def test_canonical_protocol_builds_each_part_once():
    # ip3, n=3, parity: 7 queries of 7 Alice and 8 Bob nodes each (4,095 when
    # every node was built afresh), from n*b Alice maps and n*2^b Bob maps
    g = gadgets._ip_gadget(3)
    p = canonical_protocol(brute_force_Ddt(parity_problem(3))[1], g)
    nodes, maps = _distinct_parts(p)
    assert nodes == 105 and maps <= 3 * 3 + 3 * 8


def _walk_calls(check, root, size):
    """(check's result, the number of calls to the function named walk in
    check's module)."""
    module, calls = check.__code__.co_filename, []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == module:
            calls.append(1)

    sys.setprofile(count)
    try:
        result = check(root, size)
    finally:
        sys.setprofile(None)
    return result, len(calls)


def test_validating_walk_visits_each_distinct_node_once():
    # ip2, n=3, parity: 49 distinct internal nodes; the expanded tree the
    # walk visited before has 511 internal nodes and 512 leaves
    tree, g = brute_force_Ddt(parity_problem(3))[1], IP2
    p, q = canonical_protocol(tree, g), oracle_protocol(tree, g)
    fast = _walk_calls(protocols._checked_complexity, p.root, p.input_size)
    slow = _walk_calls(oracle_complexity, q.root, q.input_size)
    assert fast == (complexity(p), 49) and slow == (complexity(p), 1023)


def test_validating_walk_refuses_short_bit_map_in_shared_subtree():
    # a short bit map two levels down a subtree shared by both children of
    # the root is refused with the message of the expanded walk
    short = PNode("B", (0, 1, 1), (PLeaf(0), PLeaf(1)))
    shared = PNode("B", (0, 1, 1, 0), (PLeaf(2), short))
    root = PNode("A", (0, 0, 1, 1), (shared, shared))
    with pytest.raises(DomainError) as expanded:
        oracle_complexity(root, 4)
    with pytest.raises(DomainError) as err:
        ProtocolTree(1, 2, root)
    assert str(err.value) == str(expanded.value) == "bit map has 3 entries, expected 4"


def test_protocol_json_roundtrip():
    _, tree = brute_force_Ddt(parity_problem(2))
    p = canonical_protocol(tree, IP2)
    text = protocol_to_json(p)
    q = protocol_from_json(text)
    assert protocol_to_json(q) == text
    rp = RandomizedProtocol(((F(1, 2), p), (F(1, 2), p)))
    text2 = randomized_protocol_to_json(rp)
    rp2 = randomized_protocol_from_json(text2)
    assert randomized_protocol_to_json(rp2) == text2
    with pytest.raises(DomainError):
        RandomizedProtocol(((F(1, 2), p),))


def test_mixture_weights_are_a_probability_vector():
    # the weights sum to 1 and none is negative; a zero weight is allowed
    _, tree = brute_force_Ddt(parity_problem(2))
    p = canonical_protocol(tree, IP2)
    t = ParallelDecisionTree(1, DLeaf("0"))
    point, coin = DistributionTable.point(0), DistributionTable.uniform([0, 1])
    for w in ((F(-1, 2), F(3, 2)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))):
        for make in (lambda: DistributionTable.mixture(zip(w, (point, coin))),
                     lambda: RandomizedProtocol(tuple(zip(w, (p, p)))),
                     lambda: RandomizedTree(tuple(zip(w, (t, t))))):
            with pytest.raises(DomainError, match="mixture weights must"):
                make()
    # a loaded file is checked the same way
    text = randomized_protocol_to_json(RandomizedProtocol(((F(1, 2), p), (F(1, 2), p))))
    bad = text.replace('"weight": "1/2"', '"weight": "-1/2"', 1).replace(
        '"weight": "1/2"', '"weight": "3/2"', 1)
    assert bad.count("-1/2") == bad.count("3/2") == 1
    with pytest.raises(LiftsimError, match="nonnegative"):
        randomized_protocol_from_json(bad)
    assert DistributionTable.mixture([(0, point), (1, coin)]) == coin
    assert RandomizedProtocol(((F(0), p), (F(1), p))).components[0][0] == 0
    assert RandomizedTree(((F(0), t), (F(1), t))).components[1][0] == 1
