"""Canonical decomposition, auxiliary graphs, 2EC blocks/components, condensation."""
from __future__ import annotations

from .digraph import (
    Digraph, GraphError, Partition, _ensure_strongly_connected, induced_subgraph,
    induced_subgraphs, scc,
)
from .dominators import DominatorTree, _strong_bridges, dominator_tree, flow_bridges

__all__ = [
    "aux_graphs", "blocks", "components", "condense", "preservation_violations",
]

_BLOB = -1  # sentinel for the d(r) contraction target


def aux_graphs(g: Digraph, s: int) -> tuple[DominatorTree, list[Digraph]]:
    """The dominator tree of the flow graph G(s) and the contracted
    auxiliary graph of every marked vertex r: s and the bridge heads of
    G(s), in ascending order.

    Deleting the bridges from the dominator tree leaves one tree per marked
    vertex, the canonical decomposition.  Every bridge has its own head, so
    the list has one graph more than G(s) has bridges.  The graph of r keeps
    r's tree and contracts the rest: each marked child subtree into its
    root, everything above r into d(r).  Its local vertices are r's tree
    members in dominator-respecting preorder (r first, so r is local vertex
    0), then its marked children in ascending id order, then d(r) unless r
    is s.  `origin` gives the edge each local edge is associated with, and
    `vertex_origin` the input vertex each ordinary local vertex stands for;
    it is -1 at every contracted vertex.  The one copy of the bridge
    d(r) -> r is the only edge out of d(r).
    """
    dt = dominator_tree(g, s)
    return dt, _contract(g, s, dt)


def _contract(g: Digraph, s: int, dt: DominatorTree, h: Digraph | None = None,
              blocks_only: bool = False) -> list[Digraph]:
    """`aux_graphs(g, s)[1]`, given `dt`; with `h`, h's second level on g = H^R."""
    if h is not None:
        h_vertex, h_edge = h.vertex_origin.tolist(), h.origin.tolist()
        if blocks_only and sum(v >= 0 for v in h_vertex) < 2:
            return []
    idom = dt.idom
    bridge_into = {g.head(e): e for e in flow_bridges(g, dt)}
    marked = sorted({s, *bridge_into})
    tree_id = [0] * g.n                      # the marked root of every vertex
    members: dict[int, list[int]] = {r: [] for r in marked}
    for v in dt.dfs_order:                   # dominator-respecting preorder
        tree_id[v] = v if v in members else tree_id[idom[v]]
        members[tree_id[v]].append(v)
    children: dict[int, list[int]] = {r: [] for r in marked}
    for r in marked:                         # ascending
        if r != s:
            children[tree_id[idom[r]]].append(r)

    # idom(y) dominates every tail x of an edge into y, so x's region lies
    # in the region subtree of y's: the edge climbs from x's region to y's,
    # leaving each region below into its d(r).  The exception is the bridge
    # into y, from idom(y) in the region above, which also enters y's
    # graph from d(y).
    region_edges: dict[int, list[tuple[int, int, int]]] = {r: [] for r in marked}
    for e, (x, y) in zip(g.edge_ids.tolist(), g.edge_pairs()):
        if x == y:
            continue
        if bridge_into.get(y) == e:
            region_edges[y].append((_BLOB, y, e))
            region_edges[tree_id[x]].append((x, y, e))
            continue
        rx, rep = tree_id[x], x
        while rx != tree_id[y]:
            region_edges[rx].append((rep, _BLOB, e))
            rep, rx = rx, tree_id[idom[rx]]
        region_edges[rx].append((rep, y, e))

    result = []
    for r in marked:
        ordinary = members[r]
        vertex_origin = ordinary if h is None else [h_vertex[v] for v in ordinary]
        if blocks_only and sum(v >= 0 for v in vertex_origin) < 2:
            continue
        n_ord = len(ordinary)
        local = {v: i for i, v in enumerate(ordinary + children[r])}
        n = len(local) + (r != s)            # d(r) last
        local[_BLOB] = len(local)

        tails: list[int] = []
        heads: list[int] = []
        orig: list[int] = []
        bridge = -1
        seen_pair: dict[tuple[int, int], int] = {}
        for a, b, e in region_edges[r]:
            la, lb = local[a], local[b]
            if la >= n_ord or lb >= n_ord:
                # contraction-created parallels collapse onto the two
                # smallest original edges; a second copy is kept because
                # double edges are what 2-edge-connectivity can still see
                cnt = seen_pair.get((la, lb), 0)
                if cnt >= 2:
                    continue
                seen_pair[(la, lb)] = cnt + 1
            if a == _BLOB:
                bridge = len(orig)
            tails.append(la)
            heads.append(lb)
            orig.append(e)

        edge_ids = None
        if h is not None:
            orig = [h_edge[e] for e in orig]
            edge_ids = [e for e in range(len(orig)) if e != bridge]
        result.append(Digraph(n, tails, heads, edge_ids=edge_ids, origin=orig,
                              vertex_origin=vertex_origin + [-1] * (n - n_ord)))
    return result


def _decompose(g: Digraph, s: int, blocks_only: bool = False):
    """The two levels of auxiliary graphs of G(s): `aux_graphs(g, s)`, a
    block label per vertex, and an iterator that gives one first-level
    graph h at a time with H^R, the dominator tree of H^R(0), and the
    auxiliary graphs of H^R(0), each with its SCC partition.

    Their maps compose through h into g, so a local vertex is ordinary at
    both levels iff its `vertex_origin` is not -1; `blocks_only` builds only
    the graphs with 2 such vertices or more, the only ones that hold a block
    or a part of n'.  Their `edge_ids` leave out the entering bridge d(r) ->
    r, which `tails`, `heads` and `origin` keep.  The blocks are their SCCs
    without it, restricted to those vertices, and each vertex is ordinary at
    both levels in exactly one graph, so each label is set once, to the
    first such vertex of its SCC, by the time the iterator is exhausted.
    """
    dt, level1 = aux_graphs(g, s)
    label = list(range(g.n))

    def walk():
        for h in level1:
            rev = h.reverse()
            dtr = dominator_tree(rev, 0)
            level2 = [(aux, scc(aux)) for aux in _contract(rev, 0, dtr, h, blocks_only)]
            for aux, part in level2:
                first: dict[int, int] = {}       # class -> its first ordinary vertex
                for c, v in zip(part.comp.tolist(), aux.vertex_origin.tolist()):
                    if v >= 0:
                        label[v] = first.setdefault(c, v)
            yield h, rev, dtr, level2

    return dt, level1, label, walk()


def blocks(g: Digraph) -> Partition:
    """2-edge-connected blocks: vertex classes pairwise joined by two
    edge-disjoint paths in each direction, read off by `_decompose`."""
    _ensure_strongly_connected(g)
    if g.n <= 1:
        return Partition(list(range(g.n)))
    *_, label, walk = _decompose(g, 0)
    for _ in walk:
        pass
    return Partition(label)


def components(g: Digraph) -> Partition:
    """2-edge-connected components via degree peeling and strong-bridge
    removal.

    Every piece is a strongly connected graph that holds whole components.
    A piece is first peeled: every vertex with fewer than 2 out-edges or
    fewer than 2 in-edges inside it (parallel edges counted, loops not) is
    removed, repeatedly, and if any went, the rest is split into SCCs.  The
    peel is exact because in a 2-edge-connected digraph on 2 or more
    vertices every vertex has 2 out- and 2 in-edges (deleting the only one
    would cut it off), so it never removes a vertex of a nontrivial
    component that lies whole in the piece.  Only a piece the peel leaves
    whole gets its strong bridges computed: none means the piece is a
    maximal 2-edge-connected subgraph; otherwise they are deleted and the
    SCCs split the piece.
    """
    return _components(g)[0]


def _components(g: Digraph) -> tuple[Partition, list[tuple[Digraph, tuple]]]:
    """`components(g)`, and each nontrivial component in class order with
    the two dominator trees from `_strong_bridges` that proved it bridgeless.

    Splits keep vertices ascending and edges in id order, so a component's
    graph is numbered as ``induced_subgraph(g, cls)``, with `origin` and
    `vertex_origin` into g; only a bridgeless g keeps its own edge ids.
    """
    _ensure_strongly_connected(g)
    label = list(range(g.n))
    found = []
    queue = [Digraph(g.n, g.tails, g.heads, edge_ids=g.edge_ids,
                     origin=range(len(g.tails)), vertex_origin=range(g.n))] if g.n > 1 else []
    while queue:
        piece = queue.pop()
        kept = _peel(piece)
        if len(kept) < piece.n:
            rest = _within(piece, induced_subgraph(piece, kept))
        else:
            sb, trees = _strong_bridges(piece)    # pieces are SCCs by construction
            if not sb:
                vertices = piece.vertex_origin.tolist()
                for v in vertices:
                    label[v] = vertices[0]
                found.append((piece, trees))
                continue
            rest = piece.subgraph_edges([e for e in piece.edge_ids.tolist() if e not in sb])
        queue += [_within(rest, sub) for sub in induced_subgraphs(rest, scc(rest))]
    found.sort(key=lambda f: int(f[0].vertex_origin[0]))
    return Partition(label), found


def _within(parent: Digraph, sub: Digraph) -> Digraph:
    """`sub`, an induced subgraph of `parent`, with its maps composed with
    the parent's."""
    return Digraph(sub.n, sub.tails, sub.heads, origin=parent.origin[sub.origin],
                   vertex_origin=parent.vertex_origin[sub.vertex_origin])


def _peel(g: Digraph) -> list[int]:
    """The vertices left, ascending, after repeatedly removing every vertex
    with fewer than 2 non-loop out-edges or in-edges among those left."""
    out_start, _, heads = g.out_lists()
    in_start, _, tails = g.in_lists()
    out_deg = [out_start[v + 1] - out_start[v] for v in range(g.n)]
    in_deg = [in_start[v + 1] - in_start[v] for v in range(g.n)]
    for x, y in g.edge_pairs():
        if x == y:
            out_deg[x] -= 1
            in_deg[x] -= 1
    removed = [out_deg[v] < 2 or in_deg[v] < 2 for v in range(g.n)]
    stack = [v for v in range(g.n) if removed[v]]
    while stack:
        v = stack.pop()
        for w in heads[out_start[v]:out_start[v + 1]]:
            if not removed[w]:
                in_deg[w] -= 1
                if in_deg[w] < 2:
                    removed[w] = True
                    stack.append(w)
        for u in tails[in_start[v]:in_start[v + 1]]:
            if not removed[u]:
                out_deg[u] -= 1
                if out_deg[u] < 2:
                    removed[u] = True
                    stack.append(u)
    return [v for v in range(g.n) if not removed[v]]


def condense(g: Digraph, comp: Partition, cap: int) -> Digraph:
    """Multigraph with every class of `comp` contracted to one vertex.

    Loops are dropped and at most `cap` parallel edges are kept per ordered
    pair (the lowest ids); `origin` maps each edge to its id in `g`.
    """
    if len(comp.comp) != g.n:
        raise GraphError("partition does not match the graph")
    label = comp.comp.tolist()
    tails: list[int] = []
    heads: list[int] = []
    origin: list[int] = []
    kept: dict[tuple[int, int], int] = {}        # edges kept per ordered pair
    for e, (x, y) in zip(g.edge_ids.tolist(), g.edge_pairs()):
        a, b = label[x], label[y]
        count = kept.get((a, b), 0)
        if a != b and count < cap:
            kept[a, b] = count + 1
            tails.append(a)
            heads.append(b)
            origin.append(e)
    return Digraph(comp.count, tails, heads, origin=origin)


def preservation_violations(g: Digraph, edge_ids, problem: str) -> list[str]:
    """Mode-appropriate preservation checks of a spanning subgraph.

    `problem` is one of B, C, BC.  Returns human-readable violations; empty
    means the subgraph is strongly connected and preserves the required
    partitions.
    """
    problem = problem.upper()
    if problem not in ("B", "C", "BC"):
        raise ValueError(f"unknown problem {problem!r}")
    sub = g.subgraph_edges(sorted(edge_ids))
    out: list[str] = []
    if g.n > 1 and scc(sub).count != 1:
        out.append("subgraph is not strongly connected")
        return out
    if problem in ("B", "BC") and blocks(sub) != blocks(g):
        out.append("2-edge-connected blocks differ")
    if problem in ("C", "BC") and components(sub) != components(g):
        out.append("2-edge-connected components differ")
    return out
