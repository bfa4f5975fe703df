"""Canonical decomposition, auxiliary graphs, 2EC blocks/components, condensation."""
from __future__ import annotations

from .digraph import (
    Digraph, GraphError, Partition, _ensure_strongly_connected, _first_arcs, _rooted_reverse,
    induced_subgraphs, is_strongly_connected, scc,
)
from .dominators import DominatorTree, _strong_bridges, dominator_tree, flow_bridges

__all__ = [
    "aux_graphs", "blocks", "components", "condense", "preservation_violations",
]

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
    return dt, [h for h, _ in _regions(_contract(g, dt))]


def _contract(g: Digraph, dt: DominatorTree, starts=None, blocks_only: bool = False):
    """The auxiliary graphs of each flow graph of g, given its dominator
    tree `dt`, as one layout `(aux, starts, cuts)`.  Without `starts`, g is
    G(s), one flow graph whose maps lead into g.  With the `starts` of the
    first-level layout, g is `_decompose`'s flow graph C, and each H^R is
    read where it sits in C, its maps composing through C's into the input
    graph: the DFS from z visits z and then each H^R whole, in order, so the
    dominator-respecting preorder of the H^R on vertices v0 to v1 - 1 is
    positions v0 + 1 to v1 of C's DFS order; its edges are C's e0 to
    e1 - 1; and its bridges are C's but the z-arcs, which only enter the
    roots.  `blocks_only` builds only the graphs with 2 or more vertices
    ordinary at both levels, and skips a flow graph with fewer than 2
    ordinary vertices before it contracts anything.

    The layout lays the graphs side by side in one graph `aux`, flow graph
    by flow graph: graph i sits on vertices ``starts[i][0]`` to
    ``starts[i + 1][0] - 1`` and on edges ``starts[i][1]`` to
    ``starts[i + 1][1] - 1``, numbered as it would be alone but for those
    offsets, and `edge_ids` leave out every entering bridge d(r) -> r,
    which `tails`, `heads` and `origin` keep.  The graphs of flow graph j
    sit on vertices ``cuts[j]`` to ``cuts[j + 1] - 1``, a range that is
    empty if it keeps none; a layout that keeps no graph has no vertex.
    """
    idom, order = dt.idom, dt.dfs_order
    ids, g_tails, g_heads = g.edge_ids.tolist(), g.tails.tolist(), g.heads.tolist()
    bridge_into = {g_heads[e]: e for e in flow_bridges(g, dt)}
    if starts is None:                       # G(s), its preorder from position 0
        spans, after_z, vertex_of = [((0, 0), (g.n, len(ids)))], 0, range(g.n)
    else:                                    # each H^R, its preorder after z's
        spans, after_z, vertex_of = zip(starts, starts[1:]), 1, g.vertex_origin.tolist()
    tree_id = [0] * g.n                      # the marked root of every vertex
    local = [0] * g.n                        # its place among its tree's members
    # the graphs go into the layout's lists, each from offset `base` on
    tails: list[int] = []
    heads: list[int] = []
    orig: list[int] = []
    vertex_origin: list[int] = []
    edge_ids: list[int] = []                 # all but the entering bridges
    layout_starts = [(0, 0)]
    cuts: list[int] = []
    for (v0, e0), (v1, e1) in spans:
        cuts.append(len(vertex_origin))
        if blocks_only and sum(v >= 0 for v in vertex_of[v0:v1]) < 2:
            continue
        preorder = order[v0 + after_z:v1 + after_z]
        s = preorder[0]
        marked = sorted({s, *filter(bridge_into.__contains__, preorder)})
        members: dict[int, list[int]] = {r: [] for r in marked}
        for v in preorder:
            tree_id[v] = r = v if v in members else tree_id[idom[v]]
            local[v] = len(members[r])
            members[r].append(v)
        # a marked child's local id in its parent's graph; d(r) comes after
        # r's marked children, so it ends up at top[r]
        as_child: dict[int, int] = {}
        top = {r: len(members[r]) for r in marked}
        for r in marked:                     # ascending
            if r != s:
                p = tree_id[idom[r]]
                as_child[r], top[p] = top[p], top[p] + 1

        # idom(y) dominates every tail x of an edge into y, so x's region
        # lies in the region subtree of y's: the edge climbs from x's region
        # to y's, leaving each region below into its d(r).  The exception is
        # the bridge into y, from idom(y) in the region above, which also
        # enters y's graph from d(y).
        region_edges: dict[int, list[tuple[int, int, int]]] = {r: [] for r in marked}
        for e in ids[e0:e1]:
            x, y = g_tails[e], g_heads[e]
            if x == y:
                continue
            if bridge_into.get(y) == e:
                region_edges[y].append((top[y], 0, e))
                region_edges[tree_id[x]].append((local[x], as_child[y], e))
                continue
            rx, a, ry = tree_id[x], local[x], tree_id[y]
            while rx != ry:
                region_edges[rx].append((a, top[rx], e))
                a, rx = as_child[rx], tree_id[idom[rx]]
            region_edges[rx].append((a, local[y], e))

        for r in marked:
            ordinary = members[r]
            r_vertex = [vertex_of[v] for v in ordinary]
            if blocks_only and sum(v >= 0 for v in r_vertex) < 2:
                continue
            base, contracted, d_r = len(vertex_origin), len(ordinary), top[r]
            seen_pair: dict[tuple[int, int], int] = {}
            for a, b, e in region_edges[r]:
                if a >= contracted or b >= contracted:
                    # contraction-created parallels collapse onto the two
                    # smallest original edges; a second copy is kept because
                    # double edges are what 2-edge-connectivity can still
                    # see.  A dict, not _first_arcs: a block test builds
                    # tiny region graphs by the thousand, and numpy per
                    # region costs more
                    cnt = seen_pair.get((a, b), 0)
                    if cnt >= 2:
                        continue
                    seen_pair[(a, b)] = cnt + 1
                if a != d_r:                 # only the entering bridge leaves d(r)
                    edge_ids.append(len(orig))
                tails.append(base + a)
                heads.append(base + b)
                orig.append(e)
            vertex_origin += r_vertex + [-1] * (d_r + (r != s) - contracted)
            layout_starts.append((len(vertex_origin), len(orig)))
    cuts.append(len(vertex_origin))
    aux = Digraph(len(vertex_origin), tails, heads, edge_ids=edge_ids,
                  origin=orig if starts is None else g.origin[orig],
                  vertex_origin=vertex_origin)
    return aux, layout_starts, cuts


def _regions(layout):
    """Each graph of a layout from `_contract`, whole: numbered as if built
    alone, its entering bridge among its `edge_ids`.  It comes with its
    blocks if the layout comes with `_decompose`'s SCC partition,
    `(aux, starts, cuts, part)`, else with None.  A vertex ordinary at
    both levels keeps its SCC class; every other one (a marked child, d(r),
    or a vertex contracted at the first level) has a single in- or out-edge
    in the strongly connected graph, so it is a block of its own."""
    aux, starts, _, *part = layout
    if part:
        comp, vertex_origin = part[0].comp.tolist(), aux.vertex_origin.tolist()
    for (v0, e0), (v1, e1) in zip(starts, starts[1:]):
        graph = Digraph(v1 - v0, aux.tails[e0:e1] - v0, aux.heads[e0:e1] - v0,
                        origin=aux.origin[e0:e1], vertex_origin=aux.vertex_origin[v0:v1])
        yield graph, (Partition([comp[v] if vertex_origin[v] >= 0 else ~v
                                 for v in range(v0, v1)]) if part else None)


def _decompose(g: Digraph, s: int, blocks_only: bool = False):
    """The two levels of auxiliary graphs of G(s): the dominator tree of
    G(s), its number of bridges, the reversed first level `(flow, flow_dt,
    starts)`, a block label per vertex, and the second level: the auxiliary
    graphs of every H^R(0) as one layout (see `_contract`) with the SCC
    partition of one `scc` call, `(aux, starts, cuts, part)`.

    The reversed first level is one flow graph C, `flow`: the reverse of
    the first-level layout, whose graph i is H^R on vertices ``starts[i][0]``
    to ``starts[i + 1][0] - 1`` and edges ``starts[i][1]`` to
    ``starts[i + 1][1] - 1``, plus a virtual root z, vertex
    ``starts[-1][0]``, with one arc to the root r of each H^R, numbered
    after the layout's edges.  Nothing leads from one H^R into another, so
    one `dominator_tree` from z, `flow_dt`, holds every H^R(r)'s tree below
    the bridge z -> r, and `_contract` reads each H^R where it sits in C;
    no z-arc reaches the second level.  Its graphs of H^R i sit between
    ``cuts[i]`` and ``cuts[i + 1]``.

    H^R carries the maps of H, so the second level's maps compose through
    it into g, and a local vertex is ordinary at both levels iff its
    `vertex_origin` is not -1; `blocks_only` builds only the graphs with 2
    such vertices or more, the only ones that hold a block or a part of n',
    and skips an H^R with fewer than 2 ordinary vertices whole.  The layout
    leaves every entering bridge d(r) -> r out of its `edge_ids`, so its
    SCCs are those of each graph without it, and no SCC spans two graphs.
    The blocks are the SCCs restricted to the vertices ordinary at both
    levels, and each vertex is ordinary at both levels in exactly one
    graph, so each label is set once, to the first such vertex of its SCC.

    Three consumers read those SCCs: `blocks()` returns the labels,
    `certificates._ist_pipeline` covers every SCC of each H^R in its
    phase 3 and returns the labels as g's block partition, and
    `filters._on_aux_graphs` runs its strategy on each second-level graph
    with the blocks that `_regions` reads off the SCCs.  The certificate's
    phase 2 runs over C itself, H^R by H^R, each before its phase 3.
    """
    dt = dominator_tree(g, s)
    aux, starts, _ = _contract(g, dt)
    flow = _rooted_reverse(aux, [v0 for v0, _ in starts[:-1]])
    flow_dt = dominator_tree(flow, aux.n)
    second = _contract(flow, flow_dt, starts, blocks_only)
    part = scc(second[0])
    label = list(range(g.n))
    first: dict[int, int] = {}               # class -> its first ordinary vertex
    for c, v in zip(part.comp.tolist(), second[0].vertex_origin.tolist()):
        if v >= 0:
            label[v] = first.setdefault(c, v)
    return dt, len(starts) - 2, (flow, flow_dt, starts), label, (*second, part)


def blocks(g: Digraph) -> Partition:
    """2-edge-connected blocks: vertex classes pairwise joined by two
    edge-disjoint paths in each direction, read off by `_decompose`."""
    _ensure_strongly_connected(g)
    if g.n <= 1:
        return Partition(list(range(g.n)))
    return Partition(_decompose(g, 0)[3])


def components(g: Digraph) -> Partition:
    """2-edge-connected components via degree peeling and strong-bridge
    removal.

    Every piece is a strongly connected graph that holds whole components.
    A piece is first peeled: every vertex with fewer than 2 out-edges or
    fewer than 2 in-edges inside it (parallel edges counted, loops not) is
    removed, repeatedly.  The peel is exact because in a 2-edge-connected
    digraph on 2 or more vertices every vertex has 2 out- and 2 in-edges
    (deleting the only one would cut it off), so it never removes a vertex
    of a nontrivial component that lies whole in the piece.  Only a piece
    the peel leaves whole gets its strong bridges computed: none means the
    piece is a maximal 2-edge-connected subgraph.  Otherwise the SCCs of
    the edges that the peel or the bridges leave are the next pieces.
    """
    return _components(g)[0]


def _components(g: Digraph) -> tuple[Partition, list[tuple[Digraph, tuple]]]:
    """`components(g)`, and each nontrivial component in class order with
    the two dominator trees from `_strong_bridges` that proved it bridgeless.

    Every piece maps into g itself, not through g's maps: the first piece
    starts the chain and the splits carry it.  Splits keep vertices
    ascending and edges in id order, so a component's graph is numbered as
    ``induced_subgraph(g, cls)``; only a bridgeless g keeps its own edge ids.
    """
    _ensure_strongly_connected(g)
    label = list(range(g.n))
    found = []
    queue = [Digraph(g.n, g.tails, g.heads, edge_ids=g.edge_ids,
                     origin=range(len(g.tails)), vertex_origin=range(g.n))] if g.n > 1 else []
    while queue:
        piece = queue.pop()
        keep = _peel(piece)
        if len(keep) == piece.m:                  # the peel removed no vertex
            sb, trees = _strong_bridges(piece)    # pieces are SCCs by construction
            if not sb:
                vertices = piece.vertex_origin.tolist()
                for v in vertices:
                    label[v] = vertices[0]
                found.append((piece, trees))
                continue
            keep = [e for e in keep if e not in sb]
        rest = piece.subgraph_edges(keep)
        queue += induced_subgraphs(rest, scc(rest))
    found.sort(key=lambda f: int(f[0].vertex_origin[0]))
    return Partition(label), found


def _peel(g: Digraph) -> list[int]:
    """The ids, ascending, of the edges between the vertices left after repeatedly
    removing every vertex with fewer than 2 non-loop out- or in-edges among them."""
    out_start, _, heads = g.out_lists()
    in_start, _, tails = g.in_lists()
    out_deg = [out_start[v + 1] - out_start[v] for v in range(g.n)]
    in_deg = [in_start[v + 1] - in_start[v] for v in range(g.n)]
    pairs = g.edge_pairs()
    for x, y in pairs:
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
    return [e for e, (x, y) in zip(g.edge_ids.tolist(), pairs) if not (removed[x] or removed[y])]


def condense(g: Digraph, comp: Partition, cap: int) -> Digraph:
    """Multigraph with every class of `comp` contracted to one vertex, in
    g's edge-id space: `tails`/`heads` hold the class of every edge's ends,
    and `edge_ids` keep, of g's active edges, all but the loops and, of each
    ordered pair, the first `cap` (the lowest ids).
    """
    if len(comp.comp) != g.n:
        raise GraphError("partition does not match the graph")
    tails, heads, eids = comp.comp[g.tails], comp.comp[g.heads], g.edge_ids
    keep = _first_arcs(tails[eids], heads[eids], cap)
    return Digraph(comp.count, tails, heads, edge_ids=eids[keep])


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
    if not is_strongly_connected(sub):        # kept on sub for blocks(sub)
        out.append("subgraph is not strongly connected")
        return out
    if problem in ("B", "BC") and blocks(sub) != blocks(g):
        out.append("2-edge-connected blocks differ")
    if problem in ("C", "BC") and components(sub) != components(g):
        out.append("2-edge-connected components differ")
    return out
