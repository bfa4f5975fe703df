"""Two independent spanning trees of a flow graph, from a low-high order.

Independence (the two root-to-v paths share only the dominators of v) is
built region by region: for each dominator-tree node u, the graph induces a
"local" flow graph on u and its dominator children, obtained by contracting
every child subtree to its root.  Every child has idom u there, and the
global pair is independent iff inside every local graph the two tree paths
of each child are internally disjoint.  A local graph is passed as u and
a dict `in_arcs` from each child, in order, to the (tail representative,
edge id) arcs that enter it.  A spanning tree is its parent-edge list: the
entering edge id of every vertex, -1 at the root.

Such children admit a *low-high order* (Georgiadis and Tarjan, Dominators,
Directed Bipolar Orders, and Independent Spanning Trees, ICALP 2012; ACM
TALG 2016): every child without an arc from u has an entering arc from an
earlier child and one from a later child.  Blue takes the earlier (or root)
arc and red the later (or root) arc, so blue paths run front to back, red
paths back to front, and the two meet only at u.  Single-entry children are
exactly the flow bridges and share their arc.  `_solve_local` picks both
arcs of a child in one scan over its arcs, keeping the best later arc, the
best two earlier-or-root arcs and the best root arc; when red must take a
root arc that is also blue's best, blue takes the second best.

`_low_high_order` builds the order front to back.  A child is *fed* when it
has an arc from u or from a placed child, and a tree T spans the unplaced
children from u's arcs.  A fed child x with no other fed child below it in T
may come next; its T-parent, u or an unplaced child, gives it a later arc.
The other unplaced children stay reachable from u's arcs through unplaced
children: one cut off by x alone would lie below x in T and be unfed, and
every path from u to it would enter the unplaced children at x or at a fed
child that T reaches without x, so x would dominate it.  T is grown by a
search that expands fed children only when nothing else can grow; by the
same argument the last fed child it expands reaches nothing new, so T has a
fed leaf.  Placing a leaf keeps T spanning; when no fed child is a leaf any
more, one subtree is regrown by the same search.  A placement costs the
child's arcs and a regrowth the arcs of its subtree, and a placement follows
every regrowth, so the worst case is O(k*m) for k children and m arcs, not
the linear bound of Georgiadis and Tarjan's own construction.

When every child has an arc from u, any order is low-high, and
`_low_high_order` returns the children back to front, as the search would,
without building any search state.
"""
from __future__ import annotations

from bisect import bisect_right

from .digraph import Digraph
from .dominators import DominatorTree

__all__ = ["independent_pair"]

_NO_ARC = (True, float("inf"))   # a key above every arc's


def _low_high_order(root: int, in_arcs: dict[int, list[tuple[int, int]]]) -> list[int]:
    """Children of one local graph in low-high order (see the module docstring)."""
    children = list(in_arcs)
    rooted = [any(t == root for t, _ in in_arcs[c]) for c in children]
    if all(rooted):
        # every child is fed and a leaf of T from the start, so the search
        # below would place them back to front
        return children[::-1]
    k = len(children)
    index = {c: i for i, c in enumerate(children)}
    succs: list[list[int]] = [[] for _ in range(k)]
    preds: list[list[int]] = [[] for _ in range(k)]
    for i, c in enumerate(children):
        for t, _ in in_arcs[c]:
            if t != root:
                preds[i].append(index[t])
                succs[index[t]].append(i)

    fed, placed = rooted[:], [False] * k
    parent = [-2] * k            # in T; -1: the root, -2: not in T yet
    kids = [0] * k               # unplaced T-children
    tree_kids: list[list[int]] = [[] for _ in range(k)]
    region = [0] * k             # a search claims the vertices of its region

    def grow(sources: list[tuple[int, int]], label: int) -> None:
        active: list[int] = []
        held: list[int] = []
        for v, p in sources:
            parent[v] = p
            if p >= 0:
                kids[p] += 1
                tree_kids[p].append(v)
            (held if fed[v] else active).append(v)
        while active or held:
            v = active.pop() if active else held.pop()
            for w in succs[v]:
                if region[w] == label and parent[w] == -2:
                    parent[w] = v
                    kids[v] += 1
                    tree_kids[v].append(w)
                    (held if fed[w] else active).append(w)

    grow([(i, -1) for i in range(k) if rooted[i]], 0)
    order: list[int] = []
    fed_stack = [i for i in range(k) if rooted[i]]
    ready = fed_stack[:]
    regrowths = 0
    while len(order) < k:
        while ready and (placed[ready[-1]] or not fed[ready[-1]] or kids[ready[-1]]):
            ready.pop()
        if not ready:
            # no fed leaf: regrow the subtree of the most recently fed child
            while placed[fed_stack[-1]]:
                fed_stack.pop()
            regrowths += 1
            top = fed_stack[-1]
            region[top] = regrowths
            sub = [top]
            for v in sub:
                for w in tree_kids[v]:
                    if parent[w] == v and not placed[w] and region[w] != regrowths:
                        region[w] = regrowths
                        sub.append(w)
            if parent[top] >= 0:
                kids[parent[top]] -= 1
                ready.append(parent[top])
            sources = []
            for z in sub:
                entry = -1 if rooted[z] else next(
                    (u for u in preds[z] if not placed[u] and region[u] != regrowths), -2)
                if entry != -2:
                    sources.append((z, entry))
            for z in sub:
                parent[z], kids[z], tree_kids[z] = -2, 0, []
            grow(sources, regrowths)
            assert all(parent[z] != -2 for z in sub) and any(
                fed[z] and kids[z] == 0 for z in sub), "local graph is not flat"
            ready.extend(sub)
            continue
        x = ready.pop()
        placed[x] = True
        order.append(x)
        if parent[x] >= 0:
            kids[parent[x]] -= 1
            ready.append(parent[x])
        for w in succs[x]:
            if not placed[w] and not fed[w]:
                fed[w] = True
                fed_stack.append(w)
                ready.append(w)
    return [children[i] for i in order]


def _solve_local(root: int, in_arcs: dict[int, list[tuple[int, int]]],
                 preferred: set[int]) -> dict[int, tuple[int, int]]:
    """Choose (blue, red) entering edge ids per child of one local graph.

    Red takes the best later arc, or else the best root arc; blue the best
    earlier-or-root arc other than red.  The best arc is the least under
    ``(e not in preferred, e)``, so preferred arcs win, then lower ids.
    """
    pos = {v: i for i, v in enumerate(_low_high_order(root, in_arcs))}
    parents: dict[int, tuple[int, int]] = {}
    for v, arcs in in_arcs.items():
        if len(arcs) == 1:
            e = arcs[0][1]
            parents[v] = (e, e)
            continue
        p = pos[v]
        later = first = second = root_arc = _NO_ARC      # keys of the best arcs
        for t, e in arcs:
            key = (e not in preferred, e)
            if t != root and pos[t] > p:
                if key < later:
                    later = key
                continue
            if key < first:
                first, second = key, first
            elif key < second:
                second = key
            if t == root and key < root_arc:
                root_arc = key
        if later < _NO_ARC:
            red, blue = later, first
        else:
            red = root_arc
            blue = second if first == red else first
        # The order leaves v an earlier-or-root and a later-or-root arc; when red
        # takes a root arc, v's other arc is earlier or a parallel root arc.
        assert red < _NO_ARC and blue < _NO_ARC
        parents[v] = (blue[1], red[1])
    return parents


def independent_pair(
    g: Digraph, dt: DominatorTree, preferred: set[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Two independent spanning trees (blue, red) of the flow graph G(s),
    with `dt` its dominator tree, as parent-edge lists.

    The trees share exactly the bridges of the flow graph, so they are also
    maximally edge-disjoint.  `preferred` biases arc choices towards the
    given edge ids where several are valid.
    """
    n = g.n
    s = dt.dfs_order[0]
    preferred = preferred or set()

    idom, tin, tout = dt.idom, dt.pre, dt.post
    children = dt.children()
    # the local graph of every node with children, as its in_arcs
    locals_ = {u: {c: [] for c in ch} for u, ch in enumerate(children) if ch}
    # The children of u in Euler order: the one whose dominator subtree
    # holds a proper descendant t of u is the last one entered by tin[t].
    euler = {u: sorted(ch, key=tin.__getitem__) for u, ch in enumerate(children) if ch}
    euler_tin = {u: [tin[c] for c in ch] for u, ch in euler.items()}

    in_start, in_eids, tails = g.in_lists()
    for h in range(n):
        if h == s:
            continue
        u = idom[h]
        arcs = locals_[u][h]
        lo, hi = in_start[h], in_start[h + 1]
        for t, e in zip(tails[lo:hi], in_eids[lo:hi]):
            # a tail is u or in the dominator subtree of a child of u, and
            # stands for that child; a loop stands for h and is dropped
            if t != u and idom[t] != u:
                # idom(h) dominates every tail of an edge into h
                assert tin[u] <= tin[t] < tout[u], "edge tail outside the idom's subtree"
                t = euler[u][bisect_right(euler_tin[u], tin[t]) - 1]
            if t != h:
                arcs.append((t, e))

    blue = [-1] * n
    red = [-1] * n
    for u, in_arcs in locals_.items():
        for v, (eb, er) in _solve_local(u, in_arcs, preferred).items():
            blue[v] = eb
            red[v] = er
    return blue, red
