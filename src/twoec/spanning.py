"""Two independent spanning trees of a flow graph, from a low-high order.

Independence (the two root-to-v paths share only the dominators of v) is
built region by region: for each dominator-tree node u, the graph induces a
"local" flow graph on u and its dominator children, obtained by contracting
every child subtree to its root.  Every child has idom u there, and the
global pair is independent iff inside every local graph the two tree paths
of each child are internally disjoint.  A spanning tree is its parent-edge
list: the entering edge id of every vertex, -1 at the root.

Every vertex but the root is a child in exactly one local graph, so
`_Locals` keeps all of them as flat per-vertex lists, built in one pass over
the graph's in-arcs: the arcs entering each child, as (tail representative,
edge id) in edge-id order, and the search state below, allocated once per
flow graph.  Preference is read when a local graph is solved, not when it
is built: an arc's key is its edge id e if e is preferred and e + m
otherwise (m the size of the edge-id space), so the least key is the best
arc: preferred arcs win, then lower ids.  `_solve` solves the local graphs
of any set of vertices with the preferred edges of the moment, so one
`_Locals` can serve several flow graphs laid side by side under one root,
each with its own preference: the B certificate solves every H^R of its
reversed first level that way, with the certificate built so far.

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
without touching any search state.
"""
from __future__ import annotations

from bisect import bisect_right

from .digraph import Digraph, GraphError
from .dominators import DominatorTree

__all__ = ["independent_pair"]


class _Locals:
    """Every local graph of one flow graph, as lists indexed by vertex.

    `children[u]` lists the children of u's local graph in vertex order, and
    `tails[v]`/`eids[v]` the arcs entering child v; `m` is the size of the
    edge-id space.  `rooted[v]` is set iff v has an arc from its idom, and
    `searched[u]` iff some child of u has none.  Then come the search state
    of `_low_high_order` (fed, placed, T-parent, unplaced T-children, tree
    kids, region, successors among the children; `label` is the last
    region label handed out), the positions of the children in their
    order, and the two trees.
    """

    __slots__ = ("children", "tails", "eids", "m", "rooted", "searched", "succs", "fed",
                 "placed", "parent", "kids", "tree_kids", "region", "label", "pos",
                 "blue", "red")

    def __init__(self, g: Digraph, dt: DominatorTree):
        n = g.n
        s = dt.dfs_order[0]
        idom, tin, tout = dt.idom, dt.pre, dt.post
        self.children = children = dt.children()
        # The children of u in Euler order: the one whose dominator subtree
        # holds a proper descendant t of u is the last one entered by tin[t].
        euler = [sorted(ch, key=tin.__getitem__) if len(ch) > 1 else ch for ch in children]
        euler_tin = [[tin[c] for c in ch] for ch in euler]

        self.m = len(g.tails)
        self.tails = tails = [[] for _ in range(n)]
        self.eids = eids = [[] for _ in range(n)]
        self.succs = succs = [[] for _ in range(n)]
        self.rooted = rooted = [False] * n
        self.searched = searched = [False] * n
        in_start, in_eids, in_tails = g.in_lists()
        for h in range(n):
            if h == s:
                continue
            u = idom[h]
            ts, es = tails[h], eids[h]
            for i in range(in_start[h], in_start[h + 1]):
                t = in_tails[i]
                if t == u:
                    rooted[h] = True
                else:
                    # a tail is u or in the dominator subtree of a child of
                    # u, and stands for that child; a loop stands for h and
                    # is dropped
                    if idom[t] != u:
                        # idom(h) dominates every tail of an edge into h
                        assert tin[u] <= tin[t] < tout[u], "edge tail outside the idom's subtree"
                        t = euler[u][bisect_right(euler_tin[u], tin[t]) - 1]
                    if t == h:
                        continue
                    succs[t].append(h)
                ts.append(t)
                es.append(in_eids[i])
            if not rooted[h]:
                searched[u] = True

        self.fed = rooted[:]
        self.placed = [False] * n
        self.parent = [-2] * n          # in T; -1: the root, -2: not in T yet
        self.kids = [0] * n             # unplaced T-children
        self.tree_kids = [[] for _ in range(n)]
        self.region = [0] * n           # a search claims the vertices of its region
        self.label = 0
        self.pos = [0] * n
        self.blue = [-1] * n
        self.red = [-1] * n


def _low_high_order(root: int, children: list[int], st: _Locals) -> list[int]:
    """The children of root's local graph in low-high order (see the module
    docstring)."""
    if not st.searched[root]:
        # every child is fed and a leaf of T from the start, so the search
        # below would place them back to front
        return children[::-1]
    fed, placed, parent, kids, tree_kids, region, succs, rooted, tails = (
        st.fed, st.placed, st.parent, st.kids, st.tree_kids, st.region, st.succs,
        st.rooted, st.tails)

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

    fed_stack = [c for c in children if rooted[c]]
    ready = fed_stack[:]
    grow([(c, -1) for c in fed_stack], 0)
    order: list[int] = []
    k = len(children)
    while len(order) < k:
        while ready and (placed[ready[-1]] or not fed[ready[-1]] or kids[ready[-1]]):
            ready.pop()
        if not ready:
            # no fed leaf: regrow the subtree of the most recently fed child
            while placed[fed_stack[-1]]:
                fed_stack.pop()
            st.label += 1
            label = st.label
            top = fed_stack[-1]
            region[top] = label
            sub = [top]
            for v in sub:
                for w in tree_kids[v]:
                    if parent[w] == v and not placed[w] and region[w] != label:
                        region[w] = label
                        sub.append(w)
            if parent[top] >= 0:
                kids[parent[top]] -= 1
                ready.append(parent[top])
            sources = []
            for z in sub:
                parent[z], kids[z], tree_kids[z] = -2, 0, []
                if rooted[z]:
                    sources.append((z, -1))
                    continue
                # an unrooted child's tails are all children
                for t in tails[z]:
                    if not placed[t] and region[t] != label:
                        sources.append((z, t))
                        break
            grow(sources, label)
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
    return order


def _solve_local(root: int, children: list[int], order: list[int], st: _Locals,
                 preferred: set[int]) -> None:
    """Choose the blue and red entering edge ids of every child of root's
    local graph, given their low-high `order`.

    Red takes the best later arc, or else the best root arc; blue the best
    earlier-or-root arc other than red.  The best arc has the least key.
    """
    pos, tails, eids, blue, red, m = st.pos, st.tails, st.eids, st.blue, st.red, st.m
    no_arc = 2 * m                      # a key above every arc's
    for i, v in enumerate(order):
        pos[v] = i
    for v in children:
        es = eids[v]
        if len(es) == 1:
            blue[v] = red[v] = es[0]
            continue
        p = pos[v]
        later = first = second = root_arc = no_arc
        for t, e in zip(tails[v], es):
            key = e if e in preferred else e + m
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
        if later < no_arc:
            r, b = later, first
        else:
            r = root_arc
            b = second if first == r else first
        # The order leaves v an earlier-or-root and a later-or-root arc; when red
        # takes a root arc, v's other arc is earlier or a parallel root arc.
        assert r < no_arc and b < no_arc
        blue[v], red[v] = b % m, r % m     # a key's edge id


def independent_pair(
    g: Digraph, dt: DominatorTree, preferred: set[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Two independent spanning trees (blue, red) of the flow graph G(s),
    with `dt` its dominator tree, as parent-edge lists.

    The trees share exactly the bridges of the flow graph, so they are also
    maximally edge-disjoint.  `preferred` biases arc choices towards the
    given edge ids where several are valid.
    """
    if len(dt.idom) != g.n:
        raise GraphError(f"the dominator tree has {len(dt.idom)} vertices, "
                         f"the graph {g.n}")
    st = _Locals(g, dt)
    _solve(st, range(g.n), preferred or set())
    return st.blue, st.red


def _solve(st: _Locals, vertices, preferred: set[int]) -> None:
    """Choose the blue and red entering edge ids in the local graph of every
    vertex of `vertices`, preferring the edge ids in `preferred`; the
    trees are `st.blue` and `st.red`."""
    for u in vertices:
        children = st.children[u]
        if children:
            _solve_local(u, children, _low_high_order(u, children, st), st, preferred)
