"""Parallel decision trees, search problems, and a brute-force optimum finder.

Inputs z in {0,1}^n are integers; coordinate i (0-based) is bit (n-1-i), so
numeric order on inputs equals lexicographic order on bitstrings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .dist import check_mixture_weights
from .errors import BudgetError, DomainError, FormatError, json_int, malformed
from .records import Record

__all__ = [
    "DLeaf",
    "DNode",
    "ParallelDecisionTree",
    "SearchProblem",
    "RandomizedTree",
    "z_bits",
    "answer_index",
    "run_tree",
    "solves",
    "randomized_error",
    "brute_force_Ddt",
    "parity_problem",
    "index_problem",
    "first_bit_problem",
    "find_one_problem",
    "problem_to_json",
    "problem_from_json",
    "tree_to_json",
    "tree_from_json",
]

DTREE_N_LIMIT = 4


class DLeaf(Record, frozen=True):
    def __init__(self, output: object):
        object.__setattr__(self, "output", output)


class DNode(Record, frozen=True):
    def __init__(self, queries: Tuple[int, ...], children: Tuple[object, ...]):
        object.__setattr__(self, "queries", queries)    # sorted coordinate set queried in parallel
        object.__setattr__(self, "children", children)  # 2^{|queries|} children, indexed by answers


class ParallelDecisionTree(Record, frozen=True):
    def __init__(self, n: int, root: object):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "root", root)

    def depth(self) -> int:
        def go(node) -> int:
            if isinstance(node, DLeaf):
                return 0
            return 1 + max(go(c) for c in node.children)

        return go(self.root)

    def query_complexity(self) -> int:
        def go(node) -> int:
            if isinstance(node, DLeaf):
                return 0
            return len(node.queries) + max(go(c) for c in node.children)

        return go(self.root)


def z_bits(z: int, n: int, coords: Sequence[int]) -> Tuple[int, ...]:
    """The bits of the n-bit input z at coords, in their order."""
    return tuple((z >> (n - 1 - i)) & 1 for i in coords)


def answer_index(z: int, n: int, coords: Sequence[int]) -> int:
    """The answers of z to the queries coords as a child index: the binary
    number they spell, first query most significant."""
    idx = 0
    for bit in z_bits(z, n, coords):
        idx = (idx << 1) | bit
    return idx


def run_tree(tree: ParallelDecisionTree, z: int):
    """Deterministic descent; returns (output, tuple of queried coordinates)."""
    if not 0 <= z < (1 << tree.n):
        raise DomainError(f"input must be an {tree.n}-bit value")
    node = tree.root
    queried = []
    while isinstance(node, DNode):
        queried.extend(node.queries)
        node = node.children[answer_index(z, tree.n, node.queries)]
    return node.output, tuple(queried)


class SearchProblem:
    """Relation from {0,1}^n to a finite output set; every input has a solution."""

    __slots__ = ("n", "outputs", "table")

    def __init__(self, n: int, outputs: Sequence, table: Sequence[frozenset]):
        self.n = n
        self.outputs = tuple(outputs)
        table = tuple(frozenset(s) for s in table)
        if len(table) != 1 << n:
            raise DomainError(f"table must cover all {1 << n} inputs")
        for z, s in enumerate(table):
            if not s:
                raise DomainError(f"empty solution set at input {z:0{n}b}")
            if not s <= set(range(len(self.outputs))):
                raise DomainError("table entries must index into the output list")
        self.table = table

    def allows(self, z: int, output) -> bool:
        try:
            idx = self.outputs.index(output)
        except ValueError:
            return False
        return idx in self.table[z]


def solves(tree: ParallelDecisionTree, problem: SearchProblem):
    """Exhaustive check; returns (True, None) or (False, first bad input)."""
    if tree.n != problem.n:
        raise DomainError("dimension mismatch")
    for z in range(1 << problem.n):
        out, _ = run_tree(tree, z)
        if not problem.allows(z, out):
            return False, z
    return True, None


class RandomizedTree(Record, frozen=True):
    def __init__(self, components: Tuple[Tuple[Fraction, ParallelDecisionTree], ...]):
        object.__setattr__(self, "components", components)
        check_mixture_weights(w for w, _ in components)


def randomized_error(rt: RandomizedTree, problem: SearchProblem) -> Fraction:
    """Exact worst-case failure probability over inputs."""
    worst = Fraction(0)
    for z in range(1 << problem.n):
        fail = Fraction(0)
        for w, tree in rt.components:
            out, _ = run_tree(tree, z)
            if not problem.allows(z, out):
                fail += w
        worst = max(worst, fail)
    return worst


def brute_force_Ddt(problem: SearchProblem):
    """Exact deterministic query complexity with a witnessing serial tree.

    Memoized minimax over restrictions (subcubes of consistent inputs).
    Tie-breaks: smallest queried coordinate, then smallest output index, so
    the witness tree is canonical.
    """
    n = problem.n
    if n > DTREE_N_LIMIT:
        raise BudgetError("decision tree search dimension", n, DTREE_N_LIMIT)
    memo: Dict[Tuple[int, int], Tuple[int, object]] = {}
    full = (1 << n) - 1

    def consistent(fixed_mask: int, fixed_bits: int):
        return [z for z in range(1 << n) if (z & fixed_mask) == fixed_bits]

    def best(fixed_mask: int, fixed_bits: int) -> Tuple[int, object]:
        key = (fixed_mask, fixed_bits)
        if key in memo:
            return memo[key]
        zs = consistent(fixed_mask, fixed_bits)
        common = frozenset(problem.table[zs[0]])
        for z in zs[1:]:
            common &= problem.table[z]
        if common:
            result = (0, DLeaf(problem.outputs[min(common)]))
        else:
            best_depth, best_node = None, None
            for i in range(n):
                bit = 1 << (n - 1 - i)
                if fixed_mask & bit:
                    continue
                d0, t0 = best(fixed_mask | bit, fixed_bits)
                d1, t1 = best(fixed_mask | bit, fixed_bits | bit)
                d = 1 + max(d0, d1)
                if best_depth is None or d < best_depth:
                    best_depth, best_node = d, DNode((i,), (t0, t1))
            result = (best_depth, best_node)
        memo[key] = result
        return result

    depth, root = best(0, 0)
    return depth, ParallelDecisionTree(n, root)


# -- shipped relations ---------------------------------------------------------

def parity_problem(n: int) -> SearchProblem:
    outputs = ("0", "1")
    table = [frozenset({z.bit_count() & 1}) for z in range(1 << n)]
    return SearchProblem(n, outputs, table)


def first_bit_problem(n: int) -> SearchProblem:
    outputs = ("0", "1")
    table = [frozenset(z_bits(z, n, (0,))) for z in range(1 << n)]
    return SearchProblem(n, outputs, table)


def index_problem(n: int = 2) -> SearchProblem:
    """First bit is an address selecting which coordinate to output."""
    outputs = ("0", "1")
    table = []
    for z in range(1 << n):
        addr = z_bits(z, n, (0,))[0]
        table.append(frozenset(z_bits(z, n, (min(addr, n - 1),))))
    return SearchProblem(n, outputs, table)


def find_one_problem(n: int) -> SearchProblem:
    """Report the position of any 1, or bottom on the all-zero input."""
    outputs = tuple(str(i + 1) for i in range(n)) + ("none",)
    table = []
    for z in range(1 << n):
        ones = {i for i, bit in enumerate(z_bits(z, n, range(n))) if bit}
        table.append(frozenset(ones) if ones else frozenset({n}))
    return SearchProblem(n, outputs, table)


# -- file formats ----------------------------------------------------------------

def problem_to_json(p: SearchProblem) -> str:
    table = {
        format(z, f"0{p.n}b"): sorted(p.table[z])
        for z in range(1 << p.n)
    }
    return json.dumps({"n": p.n, "outputs": list(p.outputs), "table": table}, sort_keys=True)


def _unique_keys(pairs) -> dict:
    """json.loads object hook: the object as a dict, refusing a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise FormatError(f"duplicate key {key!r}")
        out[key] = value
    return out


def problem_from_json(text: str) -> SearchProblem:
    """Parse a search problem; its table keys must be distinct n-bit strings,
    as problem_to_json writes them."""
    with malformed("search problem file"):
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        n, keys = json_int(doc["n"], "n"), doc["table"]
        if n < 0:
            raise FormatError(f"n must be nonnegative, got {n}")
        if len(keys).bit_length() <= n:  # checked before the 2^n-entry table is built
            raise FormatError(f"table has {len(keys)} keys, fewer than the 2^{n} inputs")
        outputs = doc["outputs"]
        if not isinstance(outputs, list):
            raise FormatError(f"outputs must be a list, got {outputs!r}")
        table = [frozenset()] * (1 << n)
        for key, vals in keys.items():
            # the key problem_to_json writes: n binary digits (one "0" at n = 0)
            if not key or key.strip("01") or format(int(key, 2), f"0{n}b") != key:
                raise FormatError(f"table key {key!r} is not a {n}-bit string")
            table[int(key, 2)] = frozenset(json_int(v, "output index") for v in vals)
    return SearchProblem(n, outputs, table)


def _tree_node_to_obj(node):
    if isinstance(node, DLeaf):
        return {"leaf": node.output}
    return {
        "queries": list(node.queries),
        "children": [_tree_node_to_obj(c) for c in node.children],
    }


def tree_to_json(tree: ParallelDecisionTree) -> str:
    return json.dumps({"n": tree.n, "tree": _tree_node_to_obj(tree.root)}, sort_keys=True)


def _tree_node_from_obj(obj, n: int):
    if "leaf" in obj:
        return DLeaf(obj["leaf"])
    queries = tuple(json_int(q, "query") for q in obj["queries"])
    if any(not 0 <= q < n for q in queries) or len(set(queries)) != len(queries):
        raise FormatError(f"decision tree node queries {list(queries)} are not "
                          f"distinct coordinates in [0, {n})")
    children = tuple(_tree_node_from_obj(c, n) for c in obj["children"])
    if len(children) != 1 << len(queries):
        raise FormatError("decision tree node degree does not match its query set")
    return DNode(queries, children)


def tree_from_json(text: str) -> ParallelDecisionTree:
    with malformed("decision tree file"):
        doc = json.loads(text)
        n = json_int(doc["n"], "n")
        return ParallelDecisionTree(n, _tree_node_from_obj(doc["tree"], n))
