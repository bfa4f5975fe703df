"""Canonical decomposition, auxiliary graphs, 2EC blocks/components, condensation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import (
    Digraph, GraphError, Partition, _ensure_strongly_connected, delete_edge_view,
    induced_subgraph, scc,
)
from .dominators import DominatorTree, FlowGraph, _strong_bridges, dominator_tree, flow_bridges

__all__ = [
    "CanonicalDecomposition", "AuxGraph",
    "canonical_decomposition", "first_level_aux_graphs",
    "blocks", "components", "condense", "preservation_violations",
]

_BLOB = -1  # sentinel for the d(r) contraction target


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Forest left by deleting the flow-graph bridges from the dominator tree."""

    tree_id: list[int]       # per vertex: the marked root of its tree
    marked: list[int]        # start vertex plus all bridge heads
    bridges: set[int]        # the bridge edge ids that induced the cuts


@dataclass(frozen=True)
class AuxGraph:
    """Contracted auxiliary graph of one marked vertex r.

    Vertices of the parent graph outside r's tree are contracted: each
    marked child subtree into its root, everything above r into d(r).  The
    local vertices are r's tree members in dominator-respecting preorder (r
    first), then its marked children in ascending id order, then d(r)
    unless r is the start vertex.  The maps are Python lists:
    `orig_vertex` gives the vertex each local vertex stands for (idom(r)
    for d(r)), `orig_edge` the edge each local edge is associated with, and
    `is_ordinary` is True exactly at the tree members.  A first-level graph
    maps into its flow graph.  A second-level graph, built on H^R for a
    first-level graph H, maps through H into the input graph, and its
    `is_ordinary` means ordinary at both levels.  `entering_bridge` is the
    local id of the one copy of the bridge d(r) -> r, the only edge out of
    d(r), or -1 at the start vertex.
    """

    graph: Digraph
    root: int                     # local id of r, always 0
    is_ordinary: list[bool]
    orig_vertex: list[int]
    orig_edge: list[int]
    entering_bridge: int


def canonical_decomposition(
    fg: FlowGraph, dt: DominatorTree, bridges: set[int]
) -> CanonicalDecomposition:
    g, s = fg.graph, fg.start
    marked_set = {s} | {g.head(e) for e in bridges}
    tree_id = [0] * g.n
    for v in dt.dfs_order:
        tree_id[v] = v if v in marked_set else tree_id[dt.idom[v]]
    return CanonicalDecomposition(
        tree_id=tree_id, marked=sorted(marked_set), bridges=set(bridges))


def _aux_graphs(fg: FlowGraph, dt: DominatorTree, cd: CanonicalDecomposition,
                h: AuxGraph | None = None, blocks_only: bool = False) -> list[AuxGraph]:
    """The aux graph of every marked vertex.  Given a first-level graph `h`,
    with `fg` its reverse H^R(r), the maps compose through `h`, and
    `blocks_only` keeps just the regions with at least 2 members ordinary
    in `h`."""
    g, s = fg.graph, fg.start
    tree_id, idom = cd.tree_id, dt.idom

    members: dict[int, list[int]] = {r: [] for r in cd.marked}
    for v in dt.dfs_order:                   # dominator-respecting preorder
        members[tree_id[v]].append(v)
    children: dict[int, list[int]] = {r: [] for r in cd.marked}
    for r in cd.marked:                      # ascending
        if r != s:
            children[tree_id[idom[r]]].append(r)

    # idom(y) dominates every tail x of an edge into y, so x's region lies
    # in the region subtree of y's: the edge climbs from x's region to y's,
    # leaving each region below into its d(r).  The exception is the bridge
    # into y, from idom(y) in the region above, which also enters y's
    # graph from d(y).
    bridge_into = {g.head(e): e for e in cd.bridges}
    region_edges: dict[int, list[tuple[int, int, int]]] = {r: [] for r in cd.marked}
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
    for r in cd.marked:
        ordinary = members[r]
        flags = [True] * len(ordinary) if h is None else [h.is_ordinary[v] for v in ordinary]
        if blocks_only and sum(flags) < 2:
            continue
        n_ord = len(ordinary)
        vertices = ordinary + children[r]
        local = {v: i for i, v in enumerate(vertices)}
        local[_BLOB] = len(vertices)
        if r != s:
            vertices.append(idom[r])         # d(r)

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

        if h is not None:
            vertices = [h.orig_vertex[v] for v in vertices]
            orig = [h.orig_edge[e] for e in orig]
        result.append(AuxGraph(
            graph=Digraph(len(vertices), np.asarray(tails, dtype=np.int64),
                          np.asarray(heads, dtype=np.int64)),
            root=0,
            is_ordinary=flags + [False] * (len(vertices) - n_ord),
            orig_vertex=vertices,
            orig_edge=orig,
            entering_bridge=bridge,
        ))
    return result


def first_level_aux_graphs(fg: FlowGraph) -> list[AuxGraph]:
    """One auxiliary graph per marked vertex of the flow graph."""
    dt = dominator_tree(fg)
    return _aux_graphs(fg, dt, canonical_decomposition(fg, dt, flow_bridges(fg, dt)))


def _second_level(h: AuxGraph, blocks_only: bool = False
                  ) -> tuple[FlowGraph, DominatorTree, list[AuxGraph]]:
    """The reverse flow graph H^R(r) of a first-level aux graph, its
    dominator tree, and its auxiliary graphs: the second-level graphs,
    including the root's own, which has no entering bridge.  Their maps are
    composed through `h` into the input graph.  `blocks_only` keeps, in
    order, just the graphs with at least 2 vertices ordinary at both
    levels, the only ones that hold a block or a part of n'; H^R(r) and its
    dominator tree are returned either way."""
    fg = FlowGraph(h.graph.reverse(), h.root)
    dt = dominator_tree(fg)
    if blocks_only and sum(h.is_ordinary) < 2:
        return fg, dt, []
    cd = canonical_decomposition(fg, dt, flow_bridges(fg, dt))
    return fg, dt, _aux_graphs(fg, dt, cd, h, blocks_only)


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def blocks(g: Digraph, s: int = 0) -> Partition:
    """2-edge-connected blocks: vertex classes pairwise joined by two
    edge-disjoint paths in each direction.

    The blocks are read off the strongly connected components of the
    second-level auxiliary graphs: two vertices share a block iff they are
    ordinary at both levels and strongly connected there (after removing
    the entering bridge in bridge-headed graphs).
    """
    _ensure_strongly_connected(g)
    dsu = _DSU(g.n)
    if g.n > 1:
        for h in first_level_aux_graphs(FlowGraph(g, s)):
            for aux in _second_level(h)[2]:
                work = aux.graph if aux.entering_bridge == -1 else delete_edge_view(
                    aux.graph, aux.entering_bridge)
                groups: dict[int, list[int]] = {}
                for c, ordinary, v in zip(scc(work).comp.tolist(), aux.is_ordinary,
                                          aux.orig_vertex):
                    if ordinary:
                        groups.setdefault(c, []).append(v)
                for grp in groups.values():
                    for other in grp[1:]:
                        dsu.union(grp[0], other)
    return Partition(np.asarray([dsu.find(v) for v in range(g.n)], dtype=np.int64))


def components(g: Digraph) -> Partition:
    """2-edge-connected components via iterated strong-bridge removal.

    Repeatedly deletes all strong bridges of each piece and splits it into
    SCCs until every piece is bridgeless; bridgeless pieces are exactly the
    maximal 2-edge-connected subgraphs.
    """
    _ensure_strongly_connected(g)
    label = np.arange(g.n, dtype=np.int64)
    queue: list[tuple[Digraph, np.ndarray]] = [(g, np.arange(g.n, dtype=np.int64))]
    while queue:
        piece, orig = queue.pop()
        if piece.n <= 1:
            continue
        sb = _strong_bridges(piece)    # pieces are SCCs by construction
        if not sb:
            label[orig] = orig.min()
            continue
        keep = np.setdiff1d(piece.edge_ids, np.fromiter(sb, dtype=np.int64))
        rest = piece.subgraph_edges(keep)
        part = scc(rest)
        for cls in part.classes():
            if len(cls) >= 2:
                sub = induced_subgraph(rest, cls)
                queue.append((sub, orig[cls]))
    return Partition(label)


def condense(g: Digraph, comp: Partition, cap: int) -> Digraph:
    """Multigraph with every class of `comp` contracted to one vertex.

    Loops are dropped and at most `cap` parallel edges are kept per ordered
    pair (the lowest ids); `origin` maps each edge to its id in `g`.
    """
    if len(comp.comp) != g.n:
        raise GraphError("partition does not match the graph")
    eids = g.edge_ids
    tails = comp.comp[g.tails[eids]]
    heads = comp.comp[g.heads[eids]]
    pair = tails * comp.count + heads
    order = np.argsort(pair, kind="stable")
    sorted_pair = pair[order]
    rank = np.empty(len(pair), dtype=np.int64)   # place among its pair's edges
    rank[order] = np.arange(len(pair)) - np.searchsorted(sorted_pair, sorted_pair)
    keep = (tails != heads) & (rank < cap)
    return Digraph(comp.count, tails[keep], heads[keep], origin=eids[keep])


def preservation_violations(g: Digraph, edge_ids, problem: str) -> list[str]:
    """Mode-appropriate preservation checks of a spanning subgraph.

    `problem` is one of B, C, BC.  Returns human-readable violations; empty
    means the subgraph is strongly connected and preserves the required
    partitions.
    """
    problem = problem.upper()
    if problem not in ("B", "C", "BC"):
        raise ValueError(f"unknown problem {problem!r}")
    sub = g.subgraph_edges(np.asarray(sorted(edge_ids), dtype=np.int64))
    out: list[str] = []
    if g.n > 1 and scc(sub).count != 1:
        out.append("subgraph is not strongly connected")
        return out
    if problem in ("B", "BC") and blocks(sub) != blocks(g):
        out.append("2-edge-connected blocks differ")
    if problem in ("C", "BC") and components(sub) != components(g):
        out.append("2-edge-connected components differ")
    return out
