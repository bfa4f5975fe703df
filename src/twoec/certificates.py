"""Sparse certificates and spanning-subgraph approximations.

`ist_b_original` is the plain three-phase block certificate; `ist_b` is the
modified construction whose auxiliary-vertex bookkeeping yields the
4-approximation bound; `ist_bc` lifts either to block-and-component
preservation through the condensed graph; `zni_scss`/`zni_c` are the
cycle-contraction SCSS approximation and its component-preserving variant;
`two_ecss_edt` is the edge-disjoint-spanning-trees 2ECSS 2-approximation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocks import _DSU, _block_sccs, _components, aux_graphs, condense
from .digraph import Digraph, GraphError, _ensure_strongly_connected, induced_subgraphs, scc
from .dominators import _dfs, _strong_bridges
from .spanning import independent_pair

__all__ = [
    "CertificateEdgeList", "CertificateStats",
    "ist_b_original", "ist_b", "two_ecss_edt", "zni_scss", "ist_bc", "zni_c",
]


@dataclass
class CertificateEdgeList:
    """Multiset of inserted original edges, tagged by construction phase."""

    insertions: list[tuple[int, str]]

    def edge_set(self) -> set[int]:
        return {e for e, _ in self.insertions}


@dataclass(frozen=True)
class CertificateStats:
    n: int
    n_prime: int          # vertices in nontrivial blocks
    bridges: int          # bridges of G(s)
    phase1_new: int
    phase2_new: int
    phase3_new: int

    @property
    def total_distinct(self) -> int:
        return self.phase1_new + self.phase2_new + self.phase3_new


def _ist_pipeline(g: Digraph, s: int, modified: bool):
    """The certificate, its statistics, and the block partition of g, which
    phase 3 reads off the second-level SCCs on the way."""
    _ensure_strongly_connected(g)
    inserts: list[tuple[int, str]] = []
    in_l: set[int] = set()
    new = {"P1": 0, "P2": 0, "P3": 0}     # distinct edges first inserted by each phase

    def insert(orig: int, tag: str) -> None:
        inserts.append((orig, tag))
        if orig not in in_l:
            in_l.add(orig)
            new[tag] += 1

    block_dsu = _DSU(g.n)
    dt, level1 = aux_graphs(g, s)

    # Phase 1: two independent spanning trees of G(s)
    for tree in independent_pair(g, dt):
        for e in tree:
            if e != -1:
                insert(e, "P1")

    for h in level1:
        rev = h.graph.reverse()
        dtr, level2 = aux_graphs(rev, 0, h, blocks_only=modified)
        h_edge = h.orig_edge

        # Phase 2: independent trees of the reverse flow graph, reusing edges
        # already chosen where valid
        preferred = {e for e in rev.edge_ids.tolist() if h_edge[e] in in_l}
        blue_edge, red_edge = independent_pair(rev, dtr, preferred=preferred)
        rev_tails = rev.tails.tolist()
        blue_inner = {rev_tails[e] for e in blue_edge if e != -1}   # have a child
        red_inner = {rev_tails[e] for e in red_edge if e != -1}
        for x in range(rev.n):
            if x == 0:                       # the root r
                continue
            eb, er = h_edge[blue_edge[x]], h_edge[red_edge[x]]
            if h.is_ordinary[x] or not modified:
                insert(eb, "P2")
                insert(er, "P2")
                continue
            # auxiliary vertex: a tree edge into a leaf carries no path and
            # may be dropped; if dropped from both trees keep one exit edge
            blue_leaf = x not in blue_inner
            red_leaf = x not in red_inner
            if not blue_leaf:
                insert(eb, "P2")
            if not red_leaf:
                insert(er, "P2")
            if blue_leaf and red_leaf:
                insert(min(eb, er), "P2")

        # Phase 3: strongly connected coverage of every second-level SCC
        for aux in level2:
            work, part = _block_sccs(aux, block_dsu)
            for sub in induced_subgraphs(work, part):
                cls = sub.vertex_origin.tolist()
                both_ord = [v for v in cls if aux.is_ordinary[v]]
                if modified and len(both_ord) <= 1:
                    continue
                sub_origin = sub.origin.tolist()

                def resolve(e_sub: int) -> int:
                    return aux.orig_edge[sub_origin[e_sub]]

                if modified:
                    pref = {e for e in sub.edge_ids.tolist() if resolve(e) in in_l}
                    for e_sub in zni_scss(sub, preferred=pref):
                        insert(resolve(e_sub), "P3")
                else:
                    root = min(both_ord, key=aux.orig_vertex.__getitem__) if both_ord else cls[0]
                    root_local = cls.index(root)
                    # out- and in-DFS trees; sub is strongly connected
                    for graph in (sub, sub.reverse()):
                        _, _, tree_edges, _ = _dfs(graph, root_local)
                        for e_sub in tree_edges:
                            if e_sub != -1:
                                insert(resolve(e_sub), "P3")

    block_part = block_dsu.partition()
    stats = CertificateStats(
        n=g.n, n_prime=block_part.nontrivial_vertices(), bridges=len(level1) - 1,
        phase1_new=new["P1"], phase2_new=new["P2"], phase3_new=new["P3"],
    )
    return CertificateEdgeList(inserts), stats, block_part


def ist_b_original(g: Digraph, s: int = 0) -> CertificateEdgeList:
    """Plain three-phase sparse certificate for the 2EC blocks."""
    return _ist_pipeline(g, s, modified=False)[0]


def ist_b(g: Digraph, s: int = 0) -> tuple[CertificateEdgeList, CertificateStats]:
    """Modified sparse certificate; at most 4(n + n') distinct edges."""
    cert, stats, _ = _ist_pipeline(g, s, modified=True)
    return cert, stats


def two_ecss_edt(c: Digraph) -> set[int]:
    """2-approximate 2ECSS: union of two edge-disjoint spanning trees of
    C(v) and two of C^R(v)."""
    if c.n <= 1:
        return set()
    _ensure_strongly_connected(c)
    bridges, trees = _strong_bridges(c)
    if bridges:
        raise GraphError("input has a strong bridge; 2ECSS needs a 2-edge-connected graph")
    return _two_ecss(c, trees)


def _two_ecss(c: Digraph, trees) -> set[int]:
    """`two_ecss_edt` of a 2-edge-connected `c`, given the dominator trees
    of C(0) and C^R(0)."""
    out: set[int] = set()
    for graph, dt in zip((c, c.reverse()), trees):
        for tree in independent_pair(graph, dt):
            out.update(e for e in tree if e != -1)
    return out


class _ZniFrame:
    __slots__ = ("pending", "entry_edge", "best_idx", "best_edge", "anchor")

    def __init__(self, anchor: int, entry_edge: int, pending: list[list[int]]):
        self.pending = pending          # [vertex, next CSR position]
        self.entry_edge = entry_edge
        self.best_idx: int | None = None
        self.best_edge: int | None = None
        self.anchor = anchor


def _preferred_first(g: Digraph, preferred: set[int]):
    """``g.out_lists()`` with each vertex's slot reordered so that its
    preferred out-edges come first, both parts in id order."""
    start, eids, heads = g.out_lists()
    if not preferred:
        return start, eids, heads
    order: list[int] = []
    for v in range(g.n):
        span = range(start[v], start[v + 1])
        order += [p for p in span if eids[p] in preferred]
        order += [p for p in span if eids[p] not in preferred]
    return start, [eids[p] for p in order], [heads[p] for p in order]


def zni_scss(g: Digraph, preferred: set[int] | None = None) -> set[int]:
    """Cycle-contraction SCSS approximation (5/3 bound for the plain run).

    A DFS over supervertices delays contraction until a vertex has no more
    edges to scan and then closes the longest cycle seen, which avoids the
    wasteful two-cycles of eager contraction.  With `preferred`, strongly
    connected pieces of the preferred subgraph are contracted upfront (their
    internal preferred edges join the output for free) and preferred edges
    are scanned first.
    """
    _ensure_strongly_connected(g)
    preferred = preferred or set()
    if g.n <= 1:
        return set()

    dsu = _DSU(g.n)
    output: set[int] = set()

    if preferred:
        psub = g.subgraph_edges(sorted(preferred))
        part = scc(psub)
        comp, sizes = part.comp.tolist(), part.sizes().tolist()
        p_start, p_eids, p_heads = psub.out_lists()
        for t in range(g.n):
            for pos in range(p_start[t], p_start[t + 1]):
                h = p_heads[pos]
                if comp[t] == comp[h] and sizes[comp[t]] >= 2:
                    dsu.union(t, h)
                    output.add(p_eids[pos])
    # The pre-merged groups, ascending.  A group keeps its representative
    # until it is visited, because contractions only merge visited frames.
    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(dsu.find(v), []).append(v)

    out_start, out_eids, heads = _preferred_first(g, preferred)

    visited = [False] * g.n
    root_pos: dict[int, int] = {}

    # vertices pre-merged with the start vertex 0 belong to frame 0 and must
    # be scanned
    stack = [_ZniFrame(0, -1, [[v, out_start[v]] for v in members[dsu.find(0)]])]
    root_pos[dsu.find(0)] = 0
    for v, _ in stack[0].pending:
        visited[v] = True

    while stack:
        frame = stack[-1]
        my_rep = dsu.find(frame.anchor)
        edge = None                  # a CSR position
        while frame.pending:
            v, pos = frame.pending[-1]
            end = out_start[v + 1]
            while pos < end:
                p = pos
                pos += 1
                if dsu.find(heads[p]) != my_rep:
                    edge = p
                    break
            frame.pending[-1][1] = pos
            if edge is not None:
                break
            frame.pending.pop()
        if edge is None:
            if frame.best_edge is not None:
                # contract the deepest cycle available from this supervertex
                i = frame.best_idx
                closing = frame.best_edge
                merged = stack[i:]
                del stack[i:]
                base = merged[0]
                for fr in merged[1:]:
                    output.add(fr.entry_edge)
                    root_pos.pop(dsu.find(fr.anchor), None)
                output.add(closing)
                root_pos.pop(dsu.find(base.anchor), None)
                pending = []
                best_idx = None
                best_edge = None
                for fr in merged:
                    pending.extend(fr.pending)
                    if fr.best_idx is not None and fr.best_idx < i:
                        if best_idx is None or fr.best_idx < best_idx:
                            best_idx, best_edge = fr.best_idx, fr.best_edge
                    dsu.union(base.anchor, fr.anchor)
                base.pending = pending
                base.best_idx, base.best_edge = best_idx, best_edge
                root_pos[dsu.find(base.anchor)] = i
                stack.append(base)
            else:
                # Only the bottom frame can run out of edges without a cycle.
                # Frames above it never pop, they merge downwards, so every
                # visited vertex sits in a stack frame.  In a strongly
                # connected graph an edge leaves any other frame's
                # supervertex; its head lay in a lower frame, which set
                # best_edge, or started a child that has merged into this one.
                assert len(stack) == 1, "stuck supervertex in a strongly connected graph"
                stack.pop()
        else:
            y = heads[edge]
            ry = dsu.find(y)
            if ry in root_pos:
                idx = root_pos[ry]
                if frame.best_idx is None or idx < frame.best_idx:
                    frame.best_idx = idx
                    frame.best_edge = out_eids[edge]
            else:
                # every visited vertex sits in a stack frame (see above), and
                # each stack frame's representative is in root_pos
                assert not visited[y], "revisiting a finished supervertex"
                # vertices pre-merged with y join the new frame
                grp = members[ry]
                for v in grp:
                    visited[v] = True
                root_pos[ry] = len(stack)
                stack.append(_ZniFrame(y, out_eids[edge], [[v, out_start[v]] for v in grp]))

    # the search reaches every vertex from the start in a strongly connected graph
    assert all(visited), "unvisited vertices after contraction"
    return output


def _condensed(g: Digraph, cap: int) -> tuple[list[tuple[Digraph, set[int]]], Digraph]:
    """Shared prologue of the condensed-graph algorithms.

    Returns the graph of every nontrivial 2EC component of `g`, with
    `origin` into g, and a 2ECSS of it (in the component's edge ids), and
    the condensed multigraph with at most `cap` parallel edges per pair.
    """
    comp, pieces = _components(g)
    return [(sub, _two_ecss(sub, trees)) for sub, trees in pieces], condense(g, comp, cap)


def ist_bc(g: Digraph) -> CertificateEdgeList:
    """Block-and-component-preserving certificate via the condensed graph."""
    pieces, reduced = _condensed(g, cap=2)
    inserts = [(int(sub.origin[e]), "C") for sub, edges in pieces for e in sorted(edges)]
    if reduced.n > 1:
        cert, _ = ist_b(reduced, 0)
        for e_local, tag in cert.insertions:
            inserts.append((int(reduced.origin[e_local]), tag))
    return CertificateEdgeList(inserts)


def zni_c(g: Digraph) -> set[int]:
    """2-approximate component-preserving subgraph: per-component 2ECSS plus
    an SCSS of the simple condensed graph."""
    pieces, reduced = _condensed(g, cap=1)
    out = {int(sub.origin[e]) for sub, edges in pieces for e in edges}
    if reduced.n > 1:
        out |= {int(reduced.origin[e]) for e in zni_scss(reduced)}
    return out
