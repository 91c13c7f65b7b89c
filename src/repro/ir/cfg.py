"""CFG analyses: traversal orders, dominators, natural loops.

These serve the verifier (SSA dominance checks), the squeezer (block
ordering) and the expander's loop detection.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable blocks last)."""
    visited: set[int] = set()
    postorder: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(id(block))
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    if func.blocks:
        visit(func.entry)
    order = list(reversed(postorder))
    order.extend(b for b in func.blocks if id(b) not in visited)
    return order


def predecessor_map(func: Function) -> dict[BasicBlock, list[BasicBlock]]:
    """Every block's CFG predecessors, computed in one pass.

    Each list is in block order without duplicates, exactly what
    :meth:`BasicBlock.predecessors` returns for that block; building the
    whole map costs one walk over the terminators instead of one walk per
    query.  Successors outside ``func`` are ignored.
    """
    preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            into = preds.get(succ)
            # a block listed twice as a successor is one predecessor
            if into is not None and (not into or into[-1] is not block):
                into.append(block)
    return preds


class DominatorTree:
    """Immediate-dominator tree, queried by pre/post numbering.

    The tree hangs off a virtual root whose children are the entry and
    every other block without predecessors: each such block dominates
    only what it reaches on its own, never what the entry reaches.
    Blocks the virtual root cannot reach (cycles fed by no root) are
    dominated by every block of the function, the fixpoint the classic
    dataflow formulation converges to for them.
    """

    def __init__(self, blocks, pre: dict, post: dict) -> None:
        self._blocks = frozenset(blocks)
        self._pre = pre
        self._post = post

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when block ``a`` dominates block ``b``."""
        if b not in self._blocks:
            return False
        pre_b = self._pre.get(b)
        if pre_b is None:
            return a in self._blocks
        pre_a = self._pre.get(a)
        return (
            pre_a is not None
            and pre_a <= pre_b
            and self._post[b] <= self._post[a]
        )


def compute_dominators(
    func: Function, pred_fn=None, preds: Optional[dict] = None
) -> DominatorTree:
    """Dominator tree by the Cooper-Harvey-Kennedy iteration.

    ``preds`` is the function's :func:`predecessor_map`, built here when
    the caller has none.  ``pred_fn(block, preds)`` overrides the
    predecessor relation; pass
    :func:`repro.sir.regions.sir_predecessors` to verify SIR functions,
    where a misspeculation handler's predecessors are those of its
    region's entry (Eq. 1 of the paper) even though no branch targets the
    handler.  Edges into the entry are ignored.
    """
    blocks = func.blocks
    if not blocks:
        return DominatorTree((), {}, {})
    plain = predecessor_map(func) if preds is None else preds
    index = {b: i for i, b in enumerate(blocks)}
    root = len(blocks)  # the virtual root
    preds: list[list[int]] = []
    for i, block in enumerate(blocks):
        if i == 0:
            preds.append([root])
            continue
        listed = plain[block] if pred_fn is None else pred_fn(block, plain)
        ids = [index[p] for p in listed if p in index]
        preds.append(ids or [root])
    succs: list[list[int]] = [[] for _ in range(root + 1)]
    for i, ids in enumerate(preds):
        for p in ids:
            succs[p].append(i)

    # postorder from the virtual root
    postorder: list[int] = []
    seen = [False] * (root + 1)
    seen[root] = True
    stack = [(root, 0)]
    while stack:
        node, k = stack[-1]
        children = succs[node]
        if k < len(children):
            stack[-1] = (node, k + 1)
            child = children[k]
            if not seen[child]:
                seen[child] = True
                stack.append((child, 0))
        else:
            postorder.append(node)
            stack.pop()
    rank = [-1] * (root + 1)
    for n, node in enumerate(postorder):
        rank[node] = n

    idom = [-1] * (root + 1)
    idom[root] = root
    order = postorder[-2::-1]  # reverse postorder without the root
    changed = True
    while changed:
        changed = False
        for node in order:
            new = -1
            for p in preds[node]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                a, b = p, new
                while a != b:
                    while rank[a] < rank[b]:
                        a = idom[a]
                    while rank[b] < rank[a]:
                        b = idom[b]
                new = a
            if idom[node] != new:
                idom[node] = new
                changed = True

    # pre/post numbering of the tree
    children: list[list[int]] = [[] for _ in range(root + 1)]
    for node in order:
        children[idom[node]].append(node)
    pre: dict[BasicBlock, int] = {}
    post: dict[BasicBlock, int] = {}
    clock = 0
    stack = [(root, 0)]
    while stack:
        node, k = stack[-1]
        if k == 0 and node != root:
            pre[blocks[node]] = clock
            clock += 1
        if k < len(children[node]):
            stack[-1] = (node, k + 1)
            stack.append((children[node][k], 0))
        else:
            if node != root:
                post[blocks[node]] = clock
                clock += 1
            stack.pop()
    return DominatorTree(blocks, pre, post)


def dominates(dom: DominatorTree, a: BasicBlock, b: BasicBlock) -> bool:
    """True when block ``a`` dominates block ``b``."""
    return dom.dominates(a, b)


class NaturalLoop:
    """A natural loop: header plus body blocks, from a back edge."""

    def __init__(self, header: BasicBlock, blocks: set[BasicBlock]) -> None:
        self.header = header
        self.blocks = blocks

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} size={len(self.blocks)}>"


def find_natural_loops(func: Function) -> list[NaturalLoop]:
    """Find natural loops via back edges (edges into a dominator)."""
    preds = predecessor_map(func)
    dom = compute_dominators(func, preds=preds)
    loops: dict[int, NaturalLoop] = {}
    for block in func.blocks:
        for succ in block.successors():
            if dominates(dom, succ, block):
                # back edge block -> succ; collect the loop body
                loop = loops.get(id(succ))
                if loop is None:
                    loop = NaturalLoop(succ, {succ})
                    loops[id(succ)] = loop
                stack = [block]
                while stack:
                    current = stack.pop()
                    if current in loop.blocks:
                        continue
                    loop.blocks.add(current)
                    stack.extend(preds[current])
    return list(loops.values())


def remove_unreachable_blocks(func: Function) -> int:
    """Delete blocks not reachable from the entry; returns count removed.

    Handler blocks reachable only via misspeculation are *kept*: they are
    reachable through their region's PC+Δ redirection even though no branch
    targets them.  A handler's downstream (CFG_orig) blocks are therefore
    treated as reachable through the handler.
    """
    reachable: set[int] = set()
    worklist = [func.entry] if func.blocks else []
    while worklist:
        block = worklist.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        worklist.extend(block.successors())
        if block.region is not None and block.region.handler is not None:
            worklist.append(block.region.handler)
    removed = 0
    for block in list(func.blocks):
        if id(block) not in reachable:
            for inst in list(block.instructions):
                inst.drop_all_references()
            for succ in block.successors():
                for phi in succ.phis():
                    if block in phi.incoming_blocks:
                        phi.remove_incoming(block)
            func.remove_block(block)
            removed += 1
    return removed
