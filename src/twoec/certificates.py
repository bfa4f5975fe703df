"""Sparse certificates and spanning-subgraph approximations.

`ist_b_original` is the plain three-phase block certificate; `ist_b` is the
modified construction whose auxiliary-vertex bookkeeping yields the
4-approximation bound; `ist_bc` lifts either to block-and-component
preservation through the condensed graph; `zni_scss`/`zni_c` are the
cycle-contraction SCSS approximation and its component-preserving variant;
`two_ecss_edt` is the edge-disjoint-spanning-trees 2ECSS 2-approximation.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .blocks import _components, _decompose, _within, condense
from .digraph import (
    Digraph, GraphError, Partition, _ensure_strongly_connected, induced_subgraphs, scc,
)
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

    dt, level1, block_label, walk = _decompose(g, s, blocks_only=modified)

    # Phase 1: two independent spanning trees of G(s)
    for tree in independent_pair(g, dt):
        for e in tree:
            if e != -1:
                insert(e, "P1")

    for h, rev, dtr, level2 in walk:
        h_vertex, h_edge = h.vertex_origin.tolist(), h.origin.tolist()

        # Phase 2: independent trees of the reverse flow graph, reusing edges
        # already chosen where valid
        preferred = {e for e in rev.edge_ids.tolist() if h_edge[e] in in_l}
        blue_edge, red_edge = independent_pair(rev, dtr, preferred=preferred)
        rev_tails = rev.tails.tolist()
        blue_inner = {rev_tails[e] for e in blue_edge if e != -1}   # have a child
        red_inner = {rev_tails[e] for e in red_edge if e != -1}
        for x in range(1, rev.n):            # every vertex but the root r, 0
            eb, er = h_edge[blue_edge[x]], h_edge[red_edge[x]]
            if h_vertex[x] >= 0 or not modified:
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

        # Phase 3: strongly connected coverage of every second-level SCC,
        # each with its maps composed into the input graph; an SCC needs no
        # strong-connectivity check
        for aux, part in level2:
            for sub in induced_subgraphs(aux, part):
                sub = _within(aux, sub)
                vertex, origin = sub.vertex_origin.tolist(), sub.origin.tolist()
                both_ord = [x for x in vertex if x >= 0]
                if modified and len(both_ord) <= 1:
                    continue
                if modified:
                    pref = {e for e in sub.edge_ids.tolist() if origin[e] in in_l}
                    for e_sub in _zni_scss(sub, pref):
                        insert(origin[e_sub], "P3")
                else:
                    root = vertex.index(min(both_ord)) if both_ord else 0
                    # out- and in-DFS trees; sub is strongly connected
                    for graph in (sub, sub.reverse()):
                        _, _, tree_edges, _ = _dfs(graph, root)
                        for e_sub in tree_edges:
                            if e_sub != -1:
                                insert(origin[e_sub], "P3")

    block_part = Partition(block_label)
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
    __slots__ = ("pending", "entry_edge", "best_idx", "best_edge")

    def __init__(self, entry_edge: int, pending: list[list[int]]):
        self.pending = pending          # [vertex, next CSR position]
        self.entry_edge = entry_edge
        self.best_idx: int | None = None
        self.best_edge: int | None = None


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
    return _zni_scss(g, preferred or set())


def _zni_scss(g: Digraph, preferred: set[int]) -> set[int]:
    """`zni_scss` of a strongly connected `g`.

    Each supervertex is a range of visit numbers, as in Gabow's path-based
    SCC search.  A vertex is numbered when it is visited, a pre-merged group
    as a whole, so the members of each new stack frame get consecutive numbers.
    Only a top segment of the stack ever merges, so frame j holds exactly
    the numbers from ``start[j]`` to ``start[j + 1] - 1``, and a vertex's
    frame is found by bisecting `start` with its number.
    """
    if g.n <= 1:
        return set()

    output: set[int] = set()
    comp = list(range(g.n))              # the pre-merged group of each vertex
    if preferred:
        # the groups are the SCCs of the preferred subgraph; the preferred
        # edges inside a group of 2 or more join the output
        psub = g.subgraph_edges(sorted(preferred))
        part = scc(psub)
        eids = psub.edge_ids
        tail_comp = part.comp[psub.tails[eids]]
        inside = (tail_comp == part.comp[psub.heads[eids]]) & (part.sizes()[tail_comp] >= 2)
        output.update(eids[inside].tolist())
        comp = part.comp.tolist()
    members: dict[int, list[int]] = {}   # each group's vertices, ascending
    for v in range(g.n):
        members.setdefault(comp[v], []).append(v)

    out_start, out_eids, heads = _preferred_first(g, preferred)
    number = [-1] * g.n                  # visit number, -1 while unvisited
    start: list[int] = []                # start[j]: the first number of frame j
    stack: list[_ZniFrame] = []
    visits = 0

    def visit(y: int, entry_edge: int) -> None:
        """Push a frame for y and the vertices pre-merged with it."""
        nonlocal visits
        grp = members[comp[y]]
        start.append(visits)
        for v in grp:
            number[v] = visits
            visits += 1
        stack.append(_ZniFrame(entry_edge, [[v, out_start[v]] for v in grp]))

    # vertices pre-merged with the start vertex 0 belong to frame 0 and must
    # be scanned
    visit(0, -1)
    while stack:
        frame = stack[-1]
        low = start[-1]              # the top supervertex's first number
        edge = None                  # a CSR position
        while frame.pending:
            v, pos = frame.pending[-1]
            end = out_start[v + 1]
            while pos < end:
                p = pos
                pos += 1
                if number[heads[p]] < low:
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
                output.add(frame.best_edge)
                base = stack[i]
                # a frame's best is a frame below it (a merge keeps only
                # those below the base), so the base's own best stays a
                # candidate; keep the first of the least
                for fr in stack[i + 1:]:
                    output.add(fr.entry_edge)
                    base.pending += fr.pending
                    if fr.best_idx is not None and fr.best_idx < i and (
                            base.best_idx is None or fr.best_idx < base.best_idx):
                        base.best_idx, base.best_edge = fr.best_idx, fr.best_edge
                del stack[i + 1:], start[i + 1:]
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
            if number[y] >= 0:
                # every visited vertex sits in a stack frame (see above)
                idx = bisect_right(start, number[y]) - 1
                if frame.best_idx is None or idx < frame.best_idx:
                    frame.best_idx = idx
                    frame.best_edge = out_eids[edge]
            else:
                visit(y, out_eids[edge])

    # the search reaches every vertex from the start in a strongly connected graph
    assert -1 not in number, "unvisited vertices after contraction"
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
        # the condensation of a strongly connected graph is strongly connected
        out |= {int(reduced.origin[e]) for e in _zni_scss(reduced, set())}
    return out
