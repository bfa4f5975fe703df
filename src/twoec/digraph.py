"""Directed multigraph with stable edge ids, subgraph views, and SCC utilities."""
from __future__ import annotations

import numpy as np

__all__ = [
    "GraphError",
    "Digraph",
    "Partition",
    "build",
    "scc",
    "largest_scc",
    "delete_edge_view",
    "induced_subgraph",
    "induced_subgraphs",
]


class GraphError(ValueError):
    """Malformed construction input or an invalid graph argument."""


# Ids and counts are stored as int64, so each must lie below this.
ID_LIMIT = 2**63


def _int64(values) -> np.ndarray:
    """`values` (a list, a range or an int array) as an int64 array."""
    if isinstance(values, range):
        out = np.arange(values.start, values.stop, values.step, dtype=np.int64)
        if len(out) != len(values):     # np.arange's length overflows near 2**63
            raise ValueError(f"no int64 array holds {len(values)} values")
        return out
    return np.asarray(values, dtype=np.int64)


def _csr(n: int, keys: np.ndarray, eids: np.ndarray, ends: np.ndarray):
    """Index the ascending `eids` and their other endpoints `ends[eids]` by
    vertex (or any key below n) `keys[eids]`; within a vertex, edges stay in
    id order because the sort is stable."""
    keys = keys[eids]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    order = eids[np.argsort(keys, kind="stable")]
    return start, order, ends[order]


class Digraph:
    """Immutable directed multigraph over dense 0-based vertex ids.

    A graph is its edge arrays plus whatever adjacency has been read.  Edges
    carry stable integer ids, and `edge_ids` (the active ones) is always
    ascending.  The adjacency is one CSR per direction, built on the first
    ``out_lists()`` or ``in_lists()`` call and kept; ``reverse()`` hands over
    the directions already built.  A subgraph view (``subgraph_edges``,
    ``delete_edge_view``) shares the parent's edge-id space, so ids stay
    meaningful across views.  Graphs rebuilt with a fresh id space
    (``induced_subgraph``, contractions) carry ``origin``, mapping each new
    edge id to the parent graph's edge id, and ``vertex_origin`` likewise.
    A graph read from a file keeps the file's vertex ids in ``vertex_origin``.
    The constructor takes each of these as any int sequence (a list, a range
    or an int64 array) and stores int64 arrays.

    The edges never change after construction, and building a direction is
    idempotent (a race builds equal arrays twice), so instances are safe to
    share between threads.
    """

    __slots__ = ("n", "tails", "heads", "edge_ids", "origin", "vertex_origin", "_out", "_in")

    def __init__(self, n: int, tails, heads, *, edge_ids=None, origin=None,
                 vertex_origin=None):
        self.n = int(n)
        self.tails = _int64(tails)
        self.heads = _int64(heads)
        self.edge_ids = _int64(range(len(tails)) if edge_ids is None else edge_ids)
        self.origin = None if origin is None else _int64(origin)
        self.vertex_origin = None if vertex_origin is None else _int64(vertex_origin)
        self._out = self._in = None

    # -- basic queries ------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def tail(self, e: int) -> int:
        return int(self.tails[e])

    def head(self, e: int) -> int:
        return int(self.heads[e])

    def out_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(start, eids, heads): the out-edges of v sit at positions
        start[v]:start[v + 1] of eids, in id order, with their heads alongside."""
        if self._out is None:
            self._out = _csr(self.n, self.tails, self.edge_ids, self.heads)
        start, eids, heads = self._out
        return start.tolist(), eids.tolist(), heads.tolist()

    def in_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(start, eids, tails), the in-edge counterpart of ``out_lists``."""
        if self._in is None:
            self._in = _csr(self.n, self.heads, self.edge_ids, self.tails)
        start, eids, tails = self._in
        return start.tolist(), eids.tolist(), tails.tolist()

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Active edges as (tail, head) pairs, in edge-id order."""
        eids = self.edge_ids
        return list(zip(self.tails[eids].tolist(), self.heads[eids].tolist()))

    # -- derived graphs -----------------------------------------------------

    def reverse(self) -> "Digraph":
        """Same edge-id space with every edge direction flipped."""
        r = Digraph(self.n, self.heads, self.tails, edge_ids=self.edge_ids,
                    origin=self.origin, vertex_origin=self.vertex_origin)
        r._out, r._in = self._in, self._out
        return r

    def subgraph_edges(self, keep) -> "Digraph":
        """View restricted to the given edge ids, each active in this graph;
        all ids keep their meaning."""
        keep = np.unique(_int64(keep))
        # both arrays ascend, so the last position is the largest one
        pos = np.searchsorted(self.edge_ids, keep)
        if len(keep) and (pos[-1] >= self.m or (self.edge_ids[pos] != keep).any()):
            raise GraphError("edge id not active in this graph")
        return Digraph(self.n, self.tails, self.heads, edge_ids=keep,
                       origin=self.origin, vertex_origin=self.vertex_origin)


def build(n: int, edges, allow_multi: bool = False) -> Digraph:
    """Digraph from an edge list; ids equal list positions.

    Without `allow_multi`, duplicate (tail, head) pairs and self loops are
    rejected.
    """
    tails = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    heads = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    if len(tails) and (tails.min() < 0 or heads.min() < 0 or
                       tails.max() >= n or heads.max() >= n):
        raise GraphError("edge endpoint out of range")
    if not allow_multi:
        if np.any(tails == heads):
            raise GraphError("self loop in a simple graph")
        if len(np.unique(tails * n + heads)) != len(tails):
            raise GraphError("duplicate edge in a simple graph")
    return Digraph(n, tails, heads)


class Partition:
    """Vertex partition with dense, first-occurrence-canonical class ids,
    built from any int sequence of class labels."""

    __slots__ = ("comp", "count")

    def __init__(self, labels):
        remap: dict[int, int] = {}
        self.comp = _int64([remap.setdefault(lab, len(remap)) for lab in labels])
        self.count = len(remap)

    def classes(self) -> list[np.ndarray]:
        out: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.comp.tolist()):
            out[c].append(v)
        return [_int64(c) for c in out]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.comp, minlength=self.count)

    def nontrivial_vertices(self) -> int:
        """How many vertices lie in classes of at least two: n' of a block
        partition."""
        sizes = self.sizes()
        return int(sizes[sizes >= 2].sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.comp, other.comp)

    def __hash__(self):
        return hash(self.comp.tobytes())

    def __repr__(self):
        return f"Partition(count={self.count}, n={len(self.comp)})"


def scc(g: Digraph) -> Partition:
    """Strongly connected components (iterative Tarjan lowlink)."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    out_start, _, heads = g.out_lists()
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, out_start[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, pos = work[-1]
            if pos < out_start[v + 1]:
                work[-1] = (v, pos + 1)
                w = heads[pos]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, out_start[w]))
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return Partition(comp)


def is_strongly_connected(g: Digraph) -> bool:
    return g.n <= 1 or scc(g).count == 1


def _ensure_strongly_connected(g: Digraph) -> None:
    """The precondition of every algorithm that takes a whole input graph."""
    if not is_strongly_connected(g):
        raise GraphError("input graph must be strongly connected")


def induced_subgraph(g: Digraph, vertices) -> Digraph:
    """Subgraph induced on `vertices`, densely renumbered in ascending order.

    Edge ids restart from 0 in old-edge-id order; `origin` and
    `vertex_origin` map back into `g`.
    """
    vertices = np.unique(_int64(vertices))
    if len(vertices) and (vertices[0] < 0 or vertices[-1] >= g.n):
        raise GraphError("vertex id out of range")
    vmap = np.full(g.n, -1, dtype=np.int64)
    vmap[vertices] = np.arange(len(vertices))
    tails = vmap[g.tails[g.edge_ids]]
    heads = vmap[g.heads[g.edge_ids]]
    inside = (tails >= 0) & (heads >= 0)
    return Digraph(
        len(vertices), tails[inside], heads[inside],
        origin=g.edge_ids[inside], vertex_origin=vertices,
    )


def induced_subgraphs(g: Digraph, part: Partition) -> list[Digraph]:
    """``induced_subgraph(g, cls)`` for every class `cls` of `part` with at
    least two vertices, in class order, all built in one O(n + m) pass."""
    if len(part.comp) != g.n:
        raise GraphError("partition does not match the graph")
    comp, eids = part.comp, g.edge_ids
    # the vertices, then the ids of the edges inside a class, grouped by
    # class and ascending within it; local[v] is v's rank in its class
    first, members, member_class = _csr(part.count, comp, np.arange(g.n), comp)
    local = np.empty(g.n, dtype=np.int64)
    local[members] = np.arange(g.n) - first[member_class]
    cls = comp[g.tails[eids]]
    inside = np.flatnonzero(cls == comp[g.heads[eids]])
    edge_first, _, eids = _csr(part.count, cls, inside, eids)
    tails, heads = local[g.tails[eids]], local[g.heads[eids]]
    out = []
    for c in np.flatnonzero(np.diff(first) >= 2).tolist():
        span = slice(edge_first[c], edge_first[c + 1])
        out.append(Digraph(first[c + 1] - first[c], tails[span], heads[span], origin=eids[span],
                           vertex_origin=members[first[c]:first[c + 1]]))
    return out


def largest_scc(g: Digraph) -> Digraph:
    """Induced subgraph on the largest SCC (ties: lowest component id)."""
    if g.n == 0:
        raise GraphError("graph has no vertices")
    part = scc(g)
    sizes = part.sizes()
    target = int(np.argmax(sizes))
    return induced_subgraph(g, np.flatnonzero(part.comp == target))


def delete_edge_view(g: Digraph, e: int) -> Digraph:
    """View of `g` without edge `e`; all other edge ids are unchanged."""
    e = int(e)
    pos = np.searchsorted(g.edge_ids, e)
    if pos >= len(g.edge_ids) or g.edge_ids[pos] != e:
        raise GraphError(f"edge id {e} is not active in this graph")
    return Digraph(
        g.n, g.tails, g.heads,
        edge_ids=np.delete(g.edge_ids, pos),
        origin=g.origin, vertex_origin=g.vertex_origin,
    )
