import json
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from liftsim.dtrees import (
    DTREE_N_LIMIT,
    DLeaf,
    DNode,
    ParallelDecisionTree,
    RandomizedTree,
    SearchProblem,
    answer_index,
    brute_force_Ddt,
    find_one_problem,
    first_bit_problem,
    index_problem,
    parity_problem,
    problem_from_json,
    problem_to_json,
    randomized_error,
    run_tree,
    solves,
    tree_from_json,
    tree_to_json,
    z_bits,
)
from liftsim.errors import BudgetError, DomainError, FormatError
from liftsim.gadgets import builtin_gadget
from liftsim.protocols import canonical_protocol
from liftsim.simulate import LiftingParams, extract_parallel_tree, lift_deterministic
from liftsim.structure import Restriction


def naive_Ddt(problem):
    """Independent minimax oracle: no memo, no witness, different traversal."""

    def depth_of(zs):
        common = set(problem.table[zs[0]])
        for z in zs[1:]:
            common &= problem.table[z]
        if common:
            return 0
        best = None
        queried = {i for i in range(problem.n)}  # all coords allowed repeatedly
        for i in sorted(queried):
            bit = 1 << (problem.n - 1 - i)
            lo = [z for z in zs if not z & bit]
            hi = [z for z in zs if z & bit]
            if not lo or not hi:
                continue
            d = 1 + max(depth_of(lo), depth_of(hi))
            best = d if best is None else min(best, d)
        if best is None:  # every split is degenerate; query any refining coord
            for i in sorted(queried):
                bit = 1 << (problem.n - 1 - i)
                lo = [z for z in zs if not z & bit]
                hi = [z for z in zs if z & bit]
                sub = lo or hi
                if len(sub) < len(zs):
                    return 1 + depth_of(sub)
            raise AssertionError("no common output on a single input")
        return best

    return depth_of(list(range(1 << problem.n)))


def test_run_tree_examples():
    leaf = ParallelDecisionTree(2, DLeaf("a"))
    assert run_tree(leaf, 0b10) == ("a", ())
    node = ParallelDecisionTree(2, DNode((0, 1), tuple(DLeaf(i) for i in range(4))))
    out, queried = run_tree(node, 0b10)
    assert out == 2 and queried == (0, 1)
    # parity tree on two bits
    _, t = brute_force_Ddt(parity_problem(2))
    for z in range(4):
        out, queried = run_tree(t, z)
        assert out == str(z.bit_count() & 1)
        assert len(queried) == 2


def _answers(bits, coords):
    """The answer index of coords on the written bitstring of z."""
    return int("0" + "".join(bits[i] for i in coords), 2)


def test_z_bit_convention_matches_bitstrings():
    # coordinate i of z is character i of format(z, f"0{n}b"), and a query
    # set's answers index a node's children as the binary number they spell
    for n in range(1, 5):
        subsets = [c for r in range(n + 1) for c in combinations(range(n), r)]
        for z in range(1 << n):
            bits = format(z, f"0{n}b")
            for coords in subsets + [c[::-1] for c in subsets]:
                assert z_bits(z, n, coords) == tuple(int(bits[i]) for i in coords)
                assert answer_index(z, n, coords) == _answers(bits, coords)
                node = DNode(coords, tuple(DLeaf(i) for i in range(1 << len(coords))))
                assert run_tree(ParallelDecisionTree(n, node), z) == (_answers(bits, coords), coords)
            for cells in product("01*", repeat=n):
                agrees = all(c in ("*", bit) for c, bit in zip(cells, bits))
                assert Restriction("".join(cells)).consistent_with(z) == agrees


def test_extracted_tree_branches_on_bitstrings():
    g = builtin_gadget("xor1")
    for n in range(1, 5):
        _, tree = brute_force_Ddt(find_one_problem(n))
        proto = canonical_protocol(tree, g)
        params = LiftingParams.standard(b=g.b, n=n, mode="det")
        extracted = extract_parallel_tree(proto, g, params)
        for z in range(1 << n):
            bits, node, queries = format(z, f"0{n}b"), extracted.root, []
            while isinstance(node, DNode):
                queries.append(node.queries)
                node = node.children[_answers(bits, node.queries)]
            res = lift_deterministic(proto, g, z, params)
            assert (node.output, tuple(queries)) == (res.output, res.queries)


def test_solves_examples():
    n = 2
    const_ok = SearchProblem(n, ("a",), [frozenset({0})] * 4)
    tree = ParallelDecisionTree(n, DLeaf("a"))
    assert solves(tree, const_ok) == (True, None)
    par = parity_problem(n)
    ok, witness = solves(ParallelDecisionTree(n, DLeaf("0")), par)
    assert not ok and witness is not None


def test_randomized_error_examples():
    n = 1
    par = parity_problem(n)
    _, t = brute_force_Ddt(par)
    rt = RandomizedTree(((F(1), t),))
    assert randomized_error(rt, par) == 0
    t0 = ParallelDecisionTree(n, DLeaf("0"))
    t1 = ParallelDecisionTree(n, DLeaf("1"))
    rt = RandomizedTree(((F(1, 2), t0), (F(1, 2), t1)))
    assert randomized_error(rt, par) == F(1, 2)
    # a relation never satisfied by the tree's outputs
    bad = SearchProblem(n, ("0", "1", "none"), [frozenset({2})] * 2)
    rt = RandomizedTree(((F(1), t0),))
    assert randomized_error(rt, bad) == 1


def test_brute_force_examples():
    assert brute_force_Ddt(parity_problem(3))[0] == 3
    assert brute_force_Ddt(first_bit_problem(3))[0] == 1
    const = SearchProblem(2, ("x",), [frozenset({0})] * 4)
    d, t = brute_force_Ddt(const)
    assert d == 0 and isinstance(t.root, DLeaf)
    assert brute_force_Ddt(index_problem(2))[0] == 2
    assert brute_force_Ddt(find_one_problem(2))[0] == 2


def test_run_tree_query_count_bounded_by_complexity():
    for problem in (parity_problem(3), index_problem(2), find_one_problem(3)):
        _, tree = brute_force_Ddt(problem)
        cap = tree.query_complexity()
        for z in range(1 << problem.n):
            _, queried = run_tree(tree, z)
            assert len(queried) <= cap


def test_brute_force_matches_naive_oracle():
    rng = random.Random(8)
    problems = [parity_problem(2), parity_problem(3), index_problem(2),
                first_bit_problem(2), find_one_problem(2), find_one_problem(3)]
    for _ in range(25):
        n = rng.choice((2, 3))
        outs = ("p", "q", "r")
        table = []
        for z in range(1 << n):
            size = rng.randrange(1, 4)
            table.append(frozenset(rng.sample(range(3), size)))
        problems.append(SearchProblem(n, outs, table))
    for problem in problems:
        d, tree = brute_force_Ddt(problem)
        assert d == naive_Ddt(problem)
        ok, _ = solves(tree, problem)
        assert ok
        assert tree.query_complexity() <= d


def test_brute_force_budget():
    with pytest.raises(BudgetError) as err:
        brute_force_Ddt(parity_problem(DTREE_N_LIMIT + 1))
    assert (err.value.size, err.value.limit) == (DTREE_N_LIMIT + 1, DTREE_N_LIMIT)


def test_problem_json_roundtrip():
    for p in (parity_problem(2), find_one_problem(3), index_problem(2)):
        text = problem_to_json(p)
        q = problem_from_json(text)
        assert problem_to_json(q) == text
    with pytest.raises(DomainError):
        SearchProblem(1, ("a",), [frozenset(), frozenset({0})])


def test_problem_from_json_rejects_keys_that_are_not_distinct_n_bit_strings():
    good = {"00": [0], "01": [0], "10": [0], "11": [0]}
    assert problem_from_json(json.dumps({"n": 2, "outputs": ["a"], "table": good})).n == 2
    trivial = SearchProblem(0, ("a",), [frozenset({0})])
    assert problem_to_json(problem_from_json(problem_to_json(trivial))) == problem_to_json(trivial)
    # "1" and "0010" were read as inputs 01 and 10
    tables = [{"00": [0], "1": [0], "0010": [0], "11": [0]},
              {**good, "011": [0]}, {**good, " 01": [0]}, {**good, "+1": [0]}, {**good, "": [0]}]
    for table in tables:
        with pytest.raises(FormatError, match="is not a 2-bit string"):
            problem_from_json(json.dumps({"n": 2, "outputs": ["a"], "table": table}))
    # a repeated key named its input twice; the last one silently won
    text = '{"n": 1, "outputs": ["a", "b"], "table": {"0": [0], "1": [0], "1": [1]}}'
    with pytest.raises(FormatError, match="duplicate key '1'"):
        problem_from_json(text)


def test_tree_json_roundtrip():
    _, t = brute_force_Ddt(parity_problem(3))
    text = tree_to_json(t)
    t2 = tree_from_json(text)
    assert tree_to_json(t2) == text
    for z in range(8):
        assert run_tree(t, z) == run_tree(t2, z)
