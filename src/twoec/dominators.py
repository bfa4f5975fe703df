"""Dominator trees of flow graphs, flow-graph bridges, and strong bridges."""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, GraphError, _ensure_strongly_connected

__all__ = ["DominatorTree", "dominator_tree", "flow_bridges", "strong_bridges"]


@dataclass(frozen=True)
class DominatorTree:
    """Immediate-dominator parents plus orderings for ancestor queries.

    All four fields are Python lists indexed by vertex.  `idom[v]` is the
    parent of v in the dominator tree (-1 at the start vertex).
    `pre`/`post` are Euler intervals of the dominator tree itself: u is an
    ancestor of w iff pre[u] <= pre[w] < post[u].  `dfs_order` lists the
    vertices in the preorder of the graph DFS that built the tree, so the
    dominators of w come before w, and the start vertex is `dfs_order[0]`.
    """

    idom: list[int]
    pre: list[int]
    post: list[int]
    dfs_order: list[int]

    def dominators(self, w: int) -> list[int]:
        """Ancestors of w in the dominator tree, inclusive of w."""
        out = [w]
        while self.idom[w] != -1:
            w = self.idom[w]
            out.append(w)
        return out[::-1]

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in range(len(self.idom))]
        for v, p in enumerate(self.idom):
            if p != -1:
                ch[p].append(v)
        return ch


def _dfs(g: Digraph, s: int):
    """The library's preorder DFS: out-edges in edge-id order from s.

    Returns (pre, parent, parent_edge, order): preorder numbers, the tree
    parent and the entering tree edge id of every vertex (-1 at s and at
    unreached vertices, whose pre is -1 too), and the reached vertices in
    preorder.
    """
    n = g.n
    pre = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    order = [s]
    pre[s] = 0
    out_start, out_eids, heads = g.out_lists()
    stack = [(s, out_start[s])]
    cnt = 1
    while stack:
        v, pos = stack[-1]
        if pos < out_start[v + 1]:
            stack[-1] = (v, pos + 1)
            w = heads[pos]
            if pre[w] == -1:
                pre[w] = cnt
                cnt += 1
                parent[w] = v
                parent_edge[w] = out_eids[pos]
                order.append(w)
                stack.append((w, out_start[w]))
        else:
            stack.pop()
    return pre, parent, parent_edge, order


def dominator_tree(g: Digraph, s: int) -> DominatorTree:
    """Dominator tree of the flow graph G(s), via semidominators with path
    compression (semi-NCA)."""
    n = g.n
    if not 0 <= s < n:
        raise GraphError(f"start vertex {s} is out of range for a graph with {n} vertices")
    pre, parent, _, order = _dfs(g, s)
    if len(order) != n:
        raise GraphError("flow graph has a vertex unreachable from the start")

    semi = pre[:]                      # semidominator preorder numbers
    label = list(range(n))             # min-semi vertex on compressed paths
    ancestor = [-1] * n
    in_start, _, tails = g.in_lists()

    def evaluate(v: int) -> int:
        # v comes later in preorder than the vertex being processed, so it
        # is linked already, and compression never unlinks a vertex.
        # Collect the path up to (excluding) the link-forest root.
        chain = []
        r = v
        while ancestor[r] != -1:
            chain.append(r)
            r = ancestor[r]
        # propagate min labels from nearest-to-root downwards
        for i in range(len(chain) - 2, -1, -1):
            x = chain[i]
            up = chain[i + 1]
            if semi[label[up]] < semi[label[x]]:
                label[x] = label[up]
            ancestor[x] = r
        return label[v]

    for w in reversed(order[1:]):
        pw = pre[w]
        best = semi[w]
        for pos in range(in_start[w], in_start[w + 1]):
            u = tails[pos]
            if pre[u] <= pw:
                cand = pre[u]
            else:
                cand = semi[evaluate(u)]
            if cand < best:
                best = cand
        semi[w] = best
        ancestor[w] = parent[w]

    # semi-NCA: ascend from the DFS parent to the semidominator level
    idom = [-1] * n
    for w in order[1:]:
        v = parent[w]
        while pre[v] > semi[w]:
            v = idom[v]
        idom[w] = v

    # Euler intervals of the dominator tree, children in DFS preorder.  As
    # idom(w) precedes w in that order, subtree sizes sum up backwards over
    # it, and forwards each child starts where its previous sibling ends.
    size = [1] * n
    for w in reversed(order[1:]):
        size[idom[w]] += size[w]
    tin = [0] * n
    next_tin = [1] * n                 # where the next child of v starts
    for w in order[1:]:
        u = idom[w]
        tin[w] = next_tin[u]
        next_tin[u] += size[w]
        next_tin[w] = tin[w] + 1

    return DominatorTree(idom=idom, pre=tin, post=[t + z for t, z in zip(tin, size)],
                         dfs_order=order)


def flow_bridges(g: Digraph, dt: DominatorTree) -> set[int]:
    """Edge ids of the bridges of the flow graph G(s), with `dt` its
    dominator tree.

    (u, w) is a bridge iff it is the single edge entering w from outside
    the dominator subtree of w; its tail is then necessarily idom(w).
    """
    s = dt.dfs_order[0]
    tin, tout = dt.pre, dt.post
    in_start, in_eids, tails = g.in_lists()
    bridges: set[int] = set()
    for w in range(g.n):
        if w == s:
            continue
        lo, hi = tin[w], tout[w]
        outside = -1
        count = 0
        for pos in range(in_start[w], in_start[w + 1]):
            if not (lo <= tin[tails[pos]] < hi):
                count += 1
                if count > 1:
                    break
                outside = in_eids[pos]
        if count == 1:
            bridges.add(outside)
    return bridges


def strong_bridges(g: Digraph) -> set[int]:
    """Edges whose removal disconnects the strongly connected digraph `g`.

    Union of the bridges of G(0) and of G^R(0); edge ids are shared between
    a graph and its reverse, so no remapping is needed.
    """
    _ensure_strongly_connected(g)
    return _strong_bridges(g)[0] if g.n > 1 else set()


def _strong_bridges(g: Digraph) -> tuple[set[int], tuple[DominatorTree, DominatorTree]]:
    """`strong_bridges` of a strongly connected graph on 2 or more vertices,
    and the dominator trees of G(0) and G^R(0) they were read from."""
    rev = g.reverse()
    trees = dominator_tree(g, 0), dominator_tree(rev, 0)
    return flow_bridges(g, trees[0]) | flow_bridges(rev, trees[1]), trees
