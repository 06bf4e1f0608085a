"""Bit-granular communication protocols over Lambda^n x Lambda^n.

A protocol is a binary tree: each internal node names a speaker and a total
map from that speaker's input to the transmitted bit; leaves carry outputs.
A round is a maximal same-speaker segment of a root-leaf path.  Inputs are
integers in [0, 2^(b*n)) whose binary expansion concatenates the n blocks,
first block most significant (numeric order = lexicographic order).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .dist import DistributionTable, _table, check_mixture_weights
from .dtrees import DLeaf, DNode, ParallelDecisionTree
from .errors import DomainError, FormatError, InvariantError, json_int, malformed
from .gadgets import Gadget, block_table
from .records import Record, dump_json

__all__ = [
    "PLeaf",
    "PNode",
    "ProtocolTree",
    "RandomizedProtocol",
    "run_protocol",
    "message_distribution",
    "assert_prefix_free",
    "kraft_heavy_message",
    "kraft_heavy_pick",
    "canonical_protocol",
    "complexity",
    "protocol_to_json",
    "protocol_from_json",
    "randomized_protocol_to_json",
    "randomized_protocol_from_json",
]


class PLeaf(Record, frozen=True):
    def __init__(self, output: object):
        object.__setattr__(self, "output", output)


class PNode(Record, frozen=True):
    def __init__(self, speaker: str, bits: Tuple[int, ...], children: Tuple[object, object]):
        object.__setattr__(self, "speaker", speaker)    # 'A' or 'B'
        object.__setattr__(self, "bits", bits)          # transmitted bit per speaker input
        object.__setattr__(self, "children", children)  # child 0, child 1


class ProtocolTree(Record, frozen=True):
    def __init__(self, n: int, b: int, root: object):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "root", root)
        # the tree's one walk: complexity(p) reads it, however often it is asked
        object.__setattr__(self, "_complexity", _checked_complexity(root, self.input_size))

    @property
    def input_size(self) -> int:
        return 1 << (self.b * self.n)


def _checked_complexity(root, size: int) -> Tuple[int, int]:
    """Check that every bit map below root has `size` entries; (communication,
    round) complexity of the tree.

    Each distinct internal node is walked once, however many parents share
    it: it keeps its (communication, rounds) with its own round counted as a
    new one, and a parent of the same speaker takes that round back.  Nodes
    are told apart by identity, which the tree holds fixed during the walk.
    """
    costs = {}

    def walk(node: PNode) -> Tuple[int, int]:
        if len(node.bits) != size:
            raise DomainError(
                f"bit map has {len(node.bits)} entries, expected {size}")
        comm = rounds = 0  # a leaf child adds nothing
        for child in node.children:
            if isinstance(child, PNode):
                c, r = costs.get(id(child)) or walk(child)
                comm = max(comm, c)
                rounds = max(rounds, r - (child.speaker == node.speaker))
        cost = costs[id(node)] = (1 + comm, 1 + rounds)
        return cost

    return walk(root) if isinstance(root, PNode) else (0, 0)


def run_protocol(p: ProtocolTree, x: int, y: int):
    """Walk to a leaf; returns (transcript bits, output, round list)."""
    size = p.input_size
    if not (0 <= x < size and 0 <= y < size):
        raise DomainError("inputs out of range for this protocol")
    node = p.root
    transcript: List[str] = []
    rounds: List[Tuple[str, str]] = []
    while isinstance(node, PNode):
        bit = node.bits[x if node.speaker == "A" else y]
        transcript.append(str(bit))
        if rounds and rounds[-1][0] == node.speaker:
            rounds[-1] = (node.speaker, rounds[-1][1] + str(bit))
        else:
            rounds.append((node.speaker, str(bit)))
        node = node.children[bit]
    return "".join(transcript), node.output, rounds


def complexity(p: ProtocolTree) -> Tuple[int, int]:
    """(communication complexity in bits, round complexity), walked when p was built."""
    return p._complexity


def assert_prefix_free(messages: Sequence[str]) -> None:
    seen = sorted(messages)
    for a, b in zip(seen, seen[1:]):
        if b.startswith(a):
            raise InvariantError(f"message set is not prefix-free: {a!r} prefixes {b!r}")


def message_distribution(node: PNode, inputs: Sequence[int]):
    """The messages the speaker of `node` sends in the round starting there,
    on the uniform distribution over `inputs` (each of which must reach
    `node`): (table over message strings, {message: its inputs, in `inputs`
    order}, {message: end node}).  Each node of the round is walked once,
    with the inputs that reach it, zero branch first, so the messages come
    in lexicographic order."""
    if not isinstance(node, PNode):
        raise DomainError("message distribution needs an internal node")
    if not inputs:
        raise DomainError("empty support at this node")
    parts, ends, todo = {}, {}, [(node, "", inputs)]
    while todo:
        cur, msg, vs = todo.pop()
        if isinstance(cur, PNode) and cur.speaker == node.speaker:
            bits = cur.bits
            for bit, part in ((1, [v for v in vs if bits[v]]), (0, [v for v in vs if not bits[v]])):
                if part:  # the one branch is stacked first, so the zero branch is taken first
                    todo.append((cur.children[bit], msg + "01"[bit], part))
        else:
            parts[msg], ends[msg] = tuple(vs), cur
    return _table({w: len(vs) for w, vs in parts.items()}, len(inputs)), parts, ends


def kraft_heavy_message(d: DistributionTable) -> str:
    """Some message w with mass >= 2**(-|w|); canonical pick among qualifiers.

    Existence is a theorem for prefix-free supports, so a miss raises an
    invariant error rather than returning a sentinel.
    """
    assert_prefix_free(d.support())
    heavy = kraft_heavy_pick(d.weights.items(), d.total)
    if heavy is None:
        raise InvariantError("no Kraft-heavy message; support cannot be prefix-free")
    return heavy


def kraft_heavy_pick(weighted: Iterable[Tuple[str, int]], total: int) -> Optional[str]:
    """The shortest, then lexicographically first, message w of the (w, weight)
    pairs with weight * 2**|w| >= total (Pr[w] >= 2**(-|w|) on integers), or
    None.  Prefix-freeness is the caller's to check."""
    best = None
    for w, weight in weighted:
        if weight << len(w) >= total and (best is None or (len(w), w) < (len(best), best)):
            best = w
    return best


def canonical_protocol(tree: ParallelDecisionTree, g: Gadget) -> ProtocolTree:
    """The natural protocol for a composed search problem.

    For every queried coordinate i, Alice announces her block x_i (b bits,
    most significant first) and Bob answers with the gadget output (1 bit);
    leaf labels are copied from the decision tree.

    Each distinct part is built once and shared: Alice's bit map per
    (coordinate, depth), Bob's per (coordinate, block x_i), and the pair of
    subtrees below Bob's answer per (query position, answers so far), which
    all 2^b Bob nodes of a query share, since nothing below the answer
    depends on x_i.  Nodes are frozen, so the result equals the expanded
    tree as a value; no caller may rely on node identity.
    """
    n, b = tree.n, g.b
    blocks = block_table(n, b)
    alice, bob = {}, {}  # bit maps by (coordinate, depth) and by (coordinate, x_i)

    def down(dnode):
        while isinstance(dnode, DNode) and not dnode.queries:  # communicates nothing
            dnode = dnode.children[0]
        if isinstance(dnode, DLeaf):
            return PLeaf(dnode.output)
        return ask(dnode, 0, 0)

    def ask(dnode: DNode, k: int, idx: int):
        # announce dnode.queries[k:]; idx spells the answers so far, first most significant
        if k == len(dnode.queries):
            return down(dnode.children[idx])
        answers = (ask(dnode, k + 1, 2 * idx), ask(dnode, k + 1, 2 * idx + 1))
        return speak(dnode.queries[k], 0, 0, answers)

    def speak(c: int, d: int, xi: int, answers):
        # Alice has sent d bits of x_c, spelling xi; after b of them Bob answers
        if d < b:
            if (c, d) not in alice:
                alice[c, d] = tuple((blk[c] >> (b - 1 - d)) & 1 for blk in blocks)
            return PNode("A", alice[c, d], (speak(c, d + 1, 2 * xi, answers),
                                            speak(c, d + 1, 2 * xi + 1, answers)))
        if (c, xi) not in bob:
            bob[c, xi] = tuple(g.table[xi * g.side + blk[c]] for blk in blocks)
        return PNode("B", bob[c, xi], answers)

    return ProtocolTree(n, b, down(tree.root))


class RandomizedProtocol(Record, frozen=True):
    def __init__(self, components: Tuple[Tuple[Fraction, ProtocolTree], ...]):
        object.__setattr__(self, "components", components)
        check_mixture_weights(w for w, _ in components)
        dims = {(p.n, p.b) for _, p in components}
        if len(dims) > 1:
            raise DomainError(f"components disagree on dimensions: {sorted(dims)}")


# -- file format ---------------------------------------------------------------

def _node_to_obj(node):
    if isinstance(node, PLeaf):
        return {"leaf": node.output}
    return {
        "speaker": node.speaker,
        "bit_map": list(node.bits),
        "children": [_node_to_obj(c) for c in node.children],
    }


def _protocol_to_obj(p: ProtocolTree) -> dict:
    return {"n": p.n, "b": p.b, "tree": _node_to_obj(p.root)}


def protocol_to_json(p: ProtocolTree) -> str:
    return json.dumps(_protocol_to_obj(p), sort_keys=True)


def _leaf_from_obj(output) -> PLeaf:
    """A leaf whose output a run trace can carry: JSON data that
    records.dump_json writes, so no float at any depth (a FormatError)."""
    try:
        dump_json(output)
    except TypeError:
        raise FormatError("leaf output must be a string, an integer, true, false, null, "
                          f"or a list or object of these, got {output!r}") from None
    return PLeaf(output)


def _node_from_obj(obj, size: int):
    if "leaf" in obj:
        return _leaf_from_obj(obj["leaf"])
    speaker = obj["speaker"]
    if speaker not in ("A", "B"):
        raise FormatError(f"speaker must be 'A' or 'B', got {speaker!r}")
    bits = tuple(json_int(v, "bit_map entry") for v in obj["bit_map"])
    if len(bits) != size or any(v not in (0, 1) for v in bits):
        raise FormatError(f"bit_map must list {size} bits")
    children = obj["children"]
    if len(children) != 2:
        raise FormatError("internal nodes need exactly two children")
    return PNode(speaker, bits, tuple(_node_from_obj(c, size) for c in children))


def _protocol_from_obj(doc) -> ProtocolTree:
    n, b = json_int(doc["n"], "n"), json_int(doc["b"], "b")
    return ProtocolTree(n, b, _node_from_obj(doc["tree"], 1 << (b * n)))


def _randomized_protocol_from_obj(doc) -> RandomizedProtocol:
    return RandomizedProtocol(tuple(
        (Fraction(item["weight"]), _protocol_from_obj(item["protocol"]))
        for item in doc["components"]))


def protocol_from_json(text: str) -> ProtocolTree:
    with malformed("protocol file"):
        return _protocol_from_obj(json.loads(text))


def randomized_protocol_to_json(rp: RandomizedProtocol) -> str:
    return json.dumps({"components": [
        {"weight": f"{w.numerator}/{w.denominator}", "protocol": _protocol_to_obj(p)}
        for w, p in rp.components]}, sort_keys=True)


def randomized_protocol_from_json(text: str) -> RandomizedProtocol:
    with malformed("randomized protocol file"):
        return _randomized_protocol_from_obj(json.loads(text))
