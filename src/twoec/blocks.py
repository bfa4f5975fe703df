"""Canonical decomposition, auxiliary graphs, 2EC blocks/components, condensation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import (
    Digraph, GraphError, Partition, _ensure_strongly_connected, induced_subgraph, scc,
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

    tree_id: np.ndarray      # per vertex: the marked root of its tree
    marked: list[int]        # start vertex plus all bridge heads
    bridges: set[int]        # the bridge edge ids that induced the cuts


@dataclass(frozen=True)
class AuxGraph:
    """Contracted auxiliary graph of one marked vertex.

    Vertices of the parent graph outside the marked vertex's tree are
    contracted: each marked child subtree into its root, everything above
    into d(r).  `orig_vertex` holds the represented parent vertex (the tree
    member for ordinary vertices, the contraction target otherwise) and
    `orig_edge` the parent edge each surviving edge is associated with.
    """

    graph: Digraph
    root: int                     # local id of the marked vertex
    is_ordinary: np.ndarray       # bool per local vertex
    orig_vertex: np.ndarray       # local vertex -> parent vertex id
    orig_edge: np.ndarray         # local edge -> parent edge id
    entering_bridge: int          # parent edge id of the bridge into r, -1 at s
    blob: int                     # local id of the d(r) contraction target, -1 at s


def canonical_decomposition(
    fg: FlowGraph, dt: DominatorTree, bridges: set[int]
) -> CanonicalDecomposition:
    g, s = fg.graph, fg.start
    marked_set = {s} | {g.head(e) for e in bridges}
    idom = dt.idom.tolist()
    tree_id = [0] * g.n
    for v in dt.dfs_order.tolist():
        tree_id[v] = v if v in marked_set else tree_id[idom[v]]
    return CanonicalDecomposition(
        tree_id=np.asarray(tree_id, dtype=np.int64), marked=sorted(marked_set),
        bridges=set(bridges))


def _aux_graphs(fg: FlowGraph, dt: DominatorTree, cd: CanonicalDecomposition,
                eligible: list[bool] | None = None) -> list[AuxGraph]:
    """The aux graph of every marked vertex; given the vertex mask `eligible`,
    only of the regions with at least 2 eligible members."""
    g, s = fg.graph, fg.start
    tree_id = cd.tree_id.tolist()
    idom = dt.idom.tolist()

    members: dict[int, list[int]] = {r: [] for r in cd.marked}
    for v in dt.dfs_order.tolist():          # dominator-respecting preorder
        members[tree_id[v]].append(v)

    region_parent: dict[int, int] = {}
    region_depth: dict[int, int] = {s: 0}
    aux_children: dict[int, list[int]] = {r: [] for r in cd.marked}
    for r in cd.marked:
        if r == s:
            continue
        pr = tree_id[idom[r]]
        region_parent[r] = pr
        aux_children[pr].append(r)
    # region depths follow the marked order of dfs discovery
    for v in dt.dfs_order.tolist():
        r = tree_id[v]
        if r != s and r not in region_depth:
            region_depth[r] = region_depth[region_parent[r]] + 1

    bridge_into: dict[int, int] = {g.head(e): e for e in cd.bridges}

    region_edges: dict[int, list[tuple[int, int, int]]] = {r: [] for r in cd.marked}

    def out(region: int, a: int, b: int, e: int) -> None:
        region_edges[region].append((a, b, e))

    for e, (x, y) in zip(g.edge_ids.tolist(), g.edge_pairs()):
        if x == y:
            continue
        rx, ry = tree_id[x], tree_id[y]
        repx, repy = x, y
        while region_depth[rx] > region_depth[ry]:
            out(rx, repx, _BLOB, e)
            repx, rx = rx, region_parent[rx]
        while region_depth[ry] > region_depth[rx]:
            out(ry, _BLOB, repy, e)
            repy, ry = ry, region_parent[ry]
        while rx != ry:
            out(rx, repx, _BLOB, e)
            out(ry, _BLOB, repy, e)
            repx, rx = rx, region_parent[rx]
            repy, ry = ry, region_parent[ry]
        if repx != repy:
            out(rx, repx, repy, e)

    result = []
    for r in cd.marked:
        ordinary = members[r]
        if eligible is not None and sum(eligible[v] for v in ordinary) < 2:
            continue
        aux = sorted(aux_children[r])
        has_blob = r != s
        local: dict[int, int] = {}
        for v in ordinary:
            local[v] = len(local)
        n_ord = len(local)
        for w in aux:
            local[w] = len(local)
        blob = len(local) if has_blob else -1
        n_local = len(local) + (1 if has_blob else 0)

        tails: list[int] = []
        heads: list[int] = []
        orig: list[int] = []
        seen_pair: dict[tuple[int, int], int] = {}
        for a, b, e in region_edges[r]:
            la = blob if a == _BLOB else local[a]
            lb = blob if b == _BLOB else local[b]
            if la == lb:
                continue
            plain = a != _BLOB and b != _BLOB and la < n_ord and lb < n_ord
            if not plain:
                # contraction-created parallels collapse onto the two
                # smallest original edges; a second copy is kept because
                # double edges are what 2-edge-connectivity can still see
                cnt = seen_pair.get((la, lb), 0)
                if cnt >= 2:
                    continue
                seen_pair[(la, lb)] = cnt + 1
            tails.append(la)
            heads.append(lb)
            orig.append(e)

        orig_vertex = np.empty(n_local, dtype=np.int64)
        is_ord = np.zeros(n_local, dtype=bool)
        for v in ordinary:
            orig_vertex[local[v]] = v
            is_ord[local[v]] = True
        for w in aux:
            orig_vertex[local[w]] = w
        if has_blob:
            orig_vertex[blob] = idom[r]

        result.append(AuxGraph(
            graph=Digraph(n_local, np.asarray(tails, dtype=np.int64),
                          np.asarray(heads, dtype=np.int64)),
            root=local[r],
            is_ordinary=is_ord,
            orig_vertex=orig_vertex,
            orig_edge=np.asarray(orig, dtype=np.int64),
            entering_bridge=bridge_into.get(r, -1),
            blob=blob,
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
    including the root's own, which has no entering bridge.  `blocks_only`
    keeps, in order, just the graphs with at least 2 vertices ordinary at
    both levels, the only ones that hold a block or a part of n'; H^R(r)
    and its dominator tree are returned either way."""
    fg = FlowGraph(h.graph.reverse(), h.root)
    dt = dominator_tree(fg)
    eligible = h.is_ordinary.tolist() if blocks_only else None
    if eligible is not None and sum(eligible) < 2:
        return fg, dt, []
    cd = canonical_decomposition(fg, dt, flow_bridges(fg, dt))
    return fg, dt, _aux_graphs(fg, dt, cd, eligible)


def _without_entering_bridge(aux: AuxGraph) -> Digraph:
    """A second-level graph minus the copies of its entering bridge; the
    blocks are read off the SCCs of what is left."""
    if aux.entering_bridge == -1:
        return aux.graph
    return aux.graph.subgraph_edges(np.flatnonzero(aux.orig_edge != aux.entering_bridge))


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
        fg = FlowGraph(g, s)
        for h in first_level_aux_graphs(fg):
            h_ordinary, h_vertex = h.is_ordinary.tolist(), h.orig_vertex.tolist()
            for aux in _second_level(h)[2]:
                comp = scc(_without_entering_bridge(aux)).comp.tolist()
                groups: dict[int, list[int]] = {}
                for c, ordinary, hv in zip(comp, aux.is_ordinary.tolist(),
                                           aux.orig_vertex.tolist()):
                    if ordinary and h_ordinary[hv]:
                        groups.setdefault(c, []).append(h_vertex[hv])
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
