"""The canonical protocol as protocols.canonical_protocol built it before it
shared its parts: the oracle the shared builder is compared with.

Every node is built afresh, with its own bit map, so the tree it returns is
the expanded tree that the shared builder must equal as a value.  The
validating walk is kept as protocols._checked_complexity made it before it
walked each shared node once: it visits every node of the expanded tree.
"""

from typing import Tuple

from liftsim.dtrees import DLeaf, DNode, ParallelDecisionTree
from liftsim.errors import DomainError
from liftsim.gadgets import Gadget, block_table
from liftsim.protocols import PLeaf, PNode, ProtocolTree


def canonical_protocol(tree: ParallelDecisionTree, g: Gadget) -> ProtocolTree:
    """The natural protocol for a composed search problem.

    For every queried coordinate i, Alice announces her block x_i (b bits,
    most significant first) and Bob answers with the gadget output (1 bit);
    leaf labels are copied from the decision tree.
    """
    n, b = tree.n, g.b
    size = 1 << (b * n)
    x_blocks = y_blocks = block_table(n, b)

    def _query_chain(dnode: DNode, coords, k: int, partial: Tuple[int, ...]):
        if not coords:  # degenerate pass-through node, communicates nothing
            child = dnode.children[0]
            if isinstance(child, DLeaf):
                return PLeaf(child.output)
            return _query_chain(child, child.queries, 0, ())
        # announce coordinate coords[k]: b Alice bits then one Bob bit
        coord = coords[k]

        def alice_level(depth: int, xi_prefix: int):
            if depth == b:
                row = xi_prefix * g.side
                bits = tuple(g.table[row + y_blocks[v][coord]] for v in range(size))

                def after(zbit: int):
                    new_partial = partial + (zbit,)
                    if k + 1 < len(coords):
                        return _query_chain(dnode, coords, k + 1, new_partial)
                    idx = 0
                    for bitv in new_partial:
                        idx = (idx << 1) | bitv
                    child = dnode.children[idx]
                    if isinstance(child, DLeaf):
                        return PLeaf(child.output)
                    return _query_chain(child, child.queries, 0, ())

                return PNode("B", bits, (after(0), after(1)))
            bits = tuple((x_blocks[v][coord] >> (b - 1 - depth)) & 1 for v in range(size))
            return PNode(
                "A",
                bits,
                (alice_level(depth + 1, xi_prefix << 1),
                 alice_level(depth + 1, (xi_prefix << 1) | 1)),
            )

        return alice_level(0, 0)

    root = tree.root
    if isinstance(root, DLeaf):
        return ProtocolTree(n, b, PLeaf(root.output))
    return ProtocolTree(n, b, _query_chain(root, root.queries, 0, ()))


def checked_complexity(root, size: int) -> Tuple[int, int]:
    """Check that every bit map below root has `size` entries; (communication,
    round) complexity of the tree."""

    def walk(node, speaker) -> Tuple[int, int]:
        if isinstance(node, PLeaf):
            return 0, 0
        if len(node.bits) != size:
            raise DomainError(
                f"bit map has {len(node.bits)} entries, expected {size}")
        s, (zero, one) = node.speaker, node.children
        (c0, r0), (c1, r1) = walk(zero, s), walk(one, s)
        return 1 + (c0 if c0 > c1 else c1), (s != speaker) + (r0 if r0 > r1 else r1)

    return walk(root, None)
