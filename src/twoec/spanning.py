"""Two independent spanning trees of a flow graph, from a low-high order.

Independence (the two root-to-v paths share only the dominators of v) is
built region by region: for each dominator-tree node u, the graph induces a
"local" flow graph on u and its dominator children, obtained by contracting
every child subtree to its root.  Every child has idom u there, and the
global pair is independent iff inside every local graph the two tree paths
of each child are internally disjoint.

Such children admit a *low-high order* (Georgiadis and Tarjan, Dominators,
Directed Bipolar Orders, and Independent Spanning Trees, ICALP 2012; ACM
TALG 2016): every child without an arc from u has an entering arc from an
earlier child and one from a later child.  Blue takes the earlier (or root)
arc and red the later (or root) arc, so blue paths run front to back, red
paths back to front, and the two meet only at u.  Single-entry children are
exactly the flow bridges and share their arc.

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
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .digraph import Digraph, GraphError
from .dominators import DominatorTree, FlowGraph, dominator_tree

__all__ = ["SpanningTree", "TreePair", "independent_pair", "verify_independent"]


@dataclass(frozen=True)
class SpanningTree:
    """Per-vertex entering edge id, a Python list (-1 at the root)."""

    parent_edge: list[int]
    root: int

    def edge_set(self) -> set[int]:
        return {e for e in self.parent_edge if e != -1}

    def path_vertices(self, g: Digraph, v: int) -> list[int]:
        """Vertices on the tree path from the root to v, root first."""
        out = [v]
        guard = 0
        while v != self.root:
            e = self.parent_edge[v]
            if e == -1:
                raise GraphError(f"vertex {v} is not attached to the tree")
            v = g.tail(e)
            out.append(v)
            guard += 1
            if guard > len(self.parent_edge):
                raise GraphError("parent pointers contain a cycle")
        return out[::-1]


@dataclass(frozen=True)
class TreePair:
    blue: SpanningTree
    red: SpanningTree


class _LocalGraph:
    """Contracted flow graph on a dominator-tree node and its children."""

    __slots__ = ("root", "children", "in_arcs")

    def __init__(self, root: int, children: list[int]):
        self.root = root
        self.children = children
        self.in_arcs: dict[int, list[tuple[int, int]]] = {c: [] for c in children}

    def add_arc(self, rep: int, head: int, eid: int) -> None:
        self.in_arcs[head].append((rep, eid))


def _low_high_order(local: _LocalGraph) -> list[int]:
    """Children of one local graph in low-high order (see the module docstring)."""
    root, children = local.root, local.children
    k = len(children)
    index = {c: i for i, c in enumerate(children)}
    succs: list[list[int]] = [[] for _ in range(k)]
    preds: list[list[int]] = [[] for _ in range(k)]
    rooted = [False] * k
    for i, c in enumerate(children):
        for t, _ in local.in_arcs[c]:
            if t == root:
                rooted[i] = True
            else:
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


def _order_valid(local: _LocalGraph, pos: dict[int, int]) -> bool:
    """Linear low-high check: every child without an arc from the root has
    one from an earlier child and one from a later child."""
    for v in local.children:
        tails = [t for t, _ in local.in_arcs[v]]
        if local.root in tails:
            continue
        if not (any(pos[t] < pos[v] for t in tails) and any(pos[t] > pos[v] for t in tails)):
            return False
    return True


def _solve_local(local: _LocalGraph, preferred: set[int]) -> dict[int, tuple[int, int]]:
    """Choose (blue, red) entering edge ids per child of one local graph."""
    root = local.root
    if not local.children:
        return {}

    def pick(arcs: list[tuple[int, int]], exclude: int = -1) -> int:
        ids = [eid for _, eid in arcs if eid != exclude]
        return min(ids, key=lambda e: (e not in preferred, e), default=-1)

    pos = {v: i for i, v in enumerate(_low_high_order(local))}
    parents: dict[int, tuple[int, int]] = {}
    for v in local.children:
        arcs = local.in_arcs[v]
        if len(arcs) == 1:
            e = arcs[0][1]
            parents[v] = (e, e)
            continue
        later = [a for a in arcs if a[0] != root and pos[a[0]] > pos[v]]
        root_arcs = [a for a in arcs if a[0] == root]
        earlier = [a for a in arcs if a[0] != root and pos[a[0]] < pos[v]]
        if later:
            e_red = pick(later)
            e_blue = pick(earlier + root_arcs)
        else:
            e_red = pick(root_arcs)
            e_blue = pick(earlier + root_arcs, exclude=e_red)
        # The order leaves v an earlier-or-root and a later-or-root arc; when red
        # takes a root arc, v's other arc is earlier or a parallel root arc.
        assert e_red >= 0 and e_blue >= 0 and e_red != e_blue
        parents[v] = (e_blue, e_red)
    return parents


def independent_pair(
    fg: FlowGraph,
    dt: DominatorTree | None = None,
    preferred: set[int] | None = None,
) -> TreePair:
    """Two independent spanning trees of the flow graph.

    The trees share exactly the bridges of the flow graph, so they are also
    maximally edge-disjoint.  `preferred` biases arc choices towards the
    given edge ids where several are valid.
    """
    g, s = fg.graph, fg.start
    n = g.n
    if dt is None:
        dt = dominator_tree(fg)
    preferred = preferred or set()

    idom, tin, tout = dt.idom, dt.pre, dt.post
    children = dt.children()
    locals_: dict[int, _LocalGraph] = {
        u: _LocalGraph(u, ch) for u, ch in enumerate(children) if ch
    }
    # The children of u in Euler order: the one whose dominator subtree
    # holds a proper descendant t of u is the last one entered by tin[t].
    euler = {u: sorted(ch, key=tin.__getitem__) for u, ch in enumerate(children) if ch}
    euler_tin = {u: [tin[c] for c in ch] for u, ch in euler.items()}

    in_start, in_eids, tails = g.in_lists()
    for h in range(n):
        if h == s:
            continue
        u = idom[h]
        for pos in range(in_start[h], in_start[h + 1]):
            t = tails[pos]
            if t == h:
                continue
            if t == u:
                rep = u
            else:
                if not (tin[u] <= tin[t] < tout[u]):
                    raise GraphError(
                        "edge tail outside the dominator subtree of the head's idom")
                rep = euler[u][bisect_right(euler_tin[u], tin[t]) - 1]
            if rep != h:
                locals_[u].add_arc(rep, h, in_eids[pos])

    parent_b = [-1] * n
    parent_r = [-1] * n
    for u in sorted(locals_):
        for v, (eb, er) in _solve_local(locals_[u], preferred).items():
            parent_b[v] = eb
            parent_r[v] = er

    return TreePair(blue=SpanningTree(parent_b, s), red=SpanningTree(parent_r, s))


def verify_independent(fg: FlowGraph, pair: TreePair, dt: DominatorTree | None = None) -> bool:
    """Check the normative contract: the two root-to-v paths of every vertex
    intersect exactly in the dominator set of v."""
    g, s = fg.graph, fg.start
    if dt is None:
        dt = dominator_tree(fg)
    for v in range(g.n):
        if v == s:
            continue
        try:
            pb = pair.blue.path_vertices(g, v)
            pr = pair.red.path_vertices(g, v)
        except GraphError:
            return False
        if set(pb) & set(pr) != set(dt.dominators(v)):
            return False
    return True

