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


def _distinct(values) -> np.ndarray:
    """The distinct values of an int sequence, ascending: ``np.unique`` by a
    sort.  On numpy 2.4, ``np.unique`` finds int64 ids with a hash table
    that takes 10-60 times as long."""
    out = np.sort(_int64(values))
    first = np.ones(len(out), dtype=bool)
    first[1:] = out[1:] != out[:-1]
    return out[first]


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
    the directions already built.

    Derived graphs follow one id rule.  A view (``subgraph_edges``) and the
    condensed graph (``blocks.condense``) share their input's edge ids.  A
    graph with a fresh id space carries ``origin`` and ``vertex_origin``,
    mapping its edge and vertex ids to those of the graph where its chain of
    maps starts: a graph read from a file (``vertex_origin`` holds the
    file's ids), a first-level auxiliary graph or a component piece.  Views,
    reverses and induced subgraphs (``largest_scc`` too) carry their
    parent's maps, composed where it has any.  An auxiliary graph has
    ``vertex_origin`` -1 at every vertex that stands for a contracted vertex
    set, and a virtual root and its arcs (``_rooted_reverse``) map to -1;
    -1 is never used as an index.  The constructor takes each of these
    as any int sequence (a list, a range or an int64 array) and stores int64
    arrays.

    A graph also keeps whether it is strongly connected once that is known
    (``is_strongly_connected``, ``largest_scc``); ``reverse()`` hands it
    over, and a subgraph view starts without it.

    The edges never change after construction, and building a direction or
    the strong-connectivity answer is idempotent (a race computes equal
    values twice), so instances are safe to share between threads.
    """

    __slots__ = ("n", "tails", "heads", "edge_ids", "origin", "vertex_origin", "_out", "_in",
                 "_strong")

    def __init__(self, n: int, tails, heads, *, edge_ids=None, origin=None,
                 vertex_origin=None):
        self.n = int(n)
        self.tails = _int64(tails)
        self.heads = _int64(heads)
        self.edge_ids = _int64(range(len(tails)) if edge_ids is None else edge_ids)
        self.origin = None if origin is None else _int64(origin)
        self.vertex_origin = None if vertex_origin is None else _int64(vertex_origin)
        self._out = self._in = None
        self._strong = None              # strongly connected? None: not known yet

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
        r._strong = self._strong
        return r

    def subgraph_edges(self, keep) -> "Digraph":
        """View restricted to the given edge ids, each active in this graph;
        all ids keep their meaning."""
        keep = _distinct(keep)
        # both arrays ascend, so the last position is the largest one
        pos = np.searchsorted(self.edge_ids, keep)
        if len(keep) and (pos[-1] >= self.m or (self.edge_ids[pos] != keep).any()):
            raise GraphError("edge id not active in this graph")
        return Digraph(self.n, self.tails, self.heads, edge_ids=keep,
                       origin=self.origin, vertex_origin=self.vertex_origin)


def _rooted_reverse(g: Digraph, targets: list[int]) -> Digraph:
    """The reverse of a graph with maps, every edge active, plus a root:
    vertex g.n, with one arc to each of `targets` in order, numbered after
    g's edges.  The root and its arcs map to -1."""
    k = len(targets)
    return Digraph(g.n + 1, np.concatenate([g.heads, np.full(k, g.n)]),
                   np.concatenate([g.tails, _int64(targets)]),
                   origin=np.concatenate([g.origin, np.full(k, -1)]),
                   vertex_origin=np.append(g.vertex_origin, -1))


def build(n: int, edges, allow_multi: bool = False) -> Digraph:
    """Digraph from an edge list; ids equal list positions.

    Without `allow_multi`, duplicate (tail, head) pairs and self loops are
    rejected.  `n` must be a non-negative integer (numpy ints included).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise GraphError(f"vertex count must be a non-negative integer, not {n!r}")
    tails = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    heads = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    if len(tails) and (tails.min() < 0 or heads.min() < 0 or
                       tails.max() >= n or heads.max() >= n):
        raise GraphError("edge endpoint out of range")
    if not allow_multi:
        if np.any(tails == heads):
            raise GraphError("self loop in a simple graph")
        if not _first_arcs(tails, heads, 1).all():
            raise GraphError("duplicate edge in a simple graph")
    return Digraph(n, tails, heads)


def _file_graph(tails, heads, n: int | None = None) -> tuple[Digraph, int, int]:
    """The simple graph of a file's arcs `tails[i]` -> `heads[i]` (int64
    buffers of the file's vertex ids, in file order), with the number of
    repeated pairs and of loops it drops; of each pair, its first arc keeps
    its place.

    With `n`, the ids are 1..n and vertex v is id v + 1; without, the ids
    that occur are numbered densely in ascending order.  `vertex_origin`
    holds the file's id of every vertex.
    """
    tails = np.frombuffer(tails, dtype=np.int64)
    heads = np.frombuffer(heads, dtype=np.int64)
    if n is None:
        labels, ends = np.unique(np.concatenate([tails, heads]), return_inverse=True)
        n, first_id = len(labels), 0
        tails, heads = ends[:len(tails)], ends[len(tails):]
    else:
        labels, first_id = range(1, n + 1), 1
    keep = _first_arcs(tails, heads, 1)
    loops = int(np.count_nonzero(tails == heads))
    g = Digraph(n, tails[keep] - first_id, heads[keep] - first_id, vertex_origin=labels)
    return g, len(tails) - loops - int(np.count_nonzero(keep)), loops


def _first_arcs(tails: np.ndarray, heads: np.ndarray, cap: int) -> np.ndarray:
    """The mask of the arcs `tails[i]` -> `heads[i]` kept when loops are
    dropped and each ordered pair keeps its first `cap` arcs in the given
    order: the parallel-arc rule of the readers, `build` and `condense`."""
    order = np.lexsort((heads, tails))      # by pair; stable, so in order within one
    ts, hs = tails[order], heads[order]
    pos = np.arange(len(order))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ts[1:] != ts[:-1]) | (hs[1:] != hs[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))    # within its pair
    keep = np.empty(len(order), dtype=bool)
    keep[order] = (rank < cap) & (ts != hs)
    return keep


class Partition:
    """Vertex partition with dense, first-occurrence-canonical class ids,
    built from any int sequence of class labels."""

    __slots__ = ("comp", "count")

    def __init__(self, labels):
        remap: dict[int, int] = {}
        self.comp = _int64([remap.setdefault(lab, len(remap)) for lab in labels])
        self.count = len(remap)

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
    """Strongly connected components (iterative Tarjan lowlink).

    The DFS keeps one next-arc position per vertex.  A vertex's index
    becomes n once its component is popped, so a visited head is on the
    Tarjan stack iff its index is below n: the lowlink takes the minimum
    over all visited heads without an on-stack test.
    """
    n = g.n
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    out_start, _, heads = g.out_lists()
    nxt = out_start[:n]                  # the next out-arc position of each vertex
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            pos, end, lv = nxt[v], out_start[v + 1], low[v]
            while pos < end:
                w = heads[pos]
                pos += 1
                x = index[w]
                if x == -1:
                    break
                if x < lv:
                    lv = x
            else:                        # v is done
                work.pop()
                if lv < index[v]:
                    p = work[-1]
                    if lv < low[p]:
                        low[p] = lv
                else:
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                continue
            nxt[v], low[v] = pos, lv
            index[w] = low[w] = counter
            counter += 1
            stack.append(w)
            work.append(w)
    return Partition(comp)


def is_strongly_connected(g: Digraph) -> bool:
    """Whether g is strongly connected; the answer is kept on g."""
    if g._strong is None:
        g._strong = g.n <= 1 or scc(g).count == 1
    return g._strong


def _ensure_strongly_connected(g: Digraph) -> None:
    """The precondition of every algorithm that takes a whole input graph."""
    if not is_strongly_connected(g):
        raise GraphError("input graph must be strongly connected")


def _induced(g: Digraph, n: int, tails, heads, eids, vertices) -> Digraph:
    """The graph on `n` vertices induced in g on g's edges `eids` and
    `vertices`, with g's maps carried through."""
    return Digraph(n, tails, heads, origin=eids if g.origin is None else g.origin[eids],
                   vertex_origin=vertices if g.vertex_origin is None else g.vertex_origin[vertices])


def induced_subgraph(g: Digraph, vertices) -> Digraph:
    """Subgraph induced on `vertices`, densely renumbered in ascending order.

    Edge ids restart from 0 in old-edge-id order.  `origin` and
    `vertex_origin` map into g, through g's own maps where g has them.
    """
    vertices = _distinct(vertices)
    if len(vertices) and (vertices[0] < 0 or vertices[-1] >= g.n):
        raise GraphError("vertex id out of range")
    vmap = np.full(g.n, -1, dtype=np.int64)
    vmap[vertices] = np.arange(len(vertices))
    tails = vmap[g.tails[g.edge_ids]]
    heads = vmap[g.heads[g.edge_ids]]
    inside = (tails >= 0) & (heads >= 0)
    return _induced(g, len(vertices), tails[inside], heads[inside], g.edge_ids[inside], vertices)


def induced_subgraphs(g: Digraph, part: Partition) -> list[Digraph]:
    """``induced_subgraph(g, cls)``, maps included, for every class `cls` of
    `part` with at least two vertices, in class order, in one O(n + m) pass."""
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
        out.append(_induced(g, first[c + 1] - first[c], tails[span], heads[span], eids[span],
                            members[first[c]:first[c + 1]]))
    return out


def largest_scc(g: Digraph) -> Digraph:
    """Induced subgraph on the largest SCC (ties: lowest component id),
    known to be strongly connected; it carries g's maps, so a loaded file's
    largest SCC keeps the file's vertex ids in `vertex_origin`."""
    if g.n == 0:
        raise GraphError("graph has no vertices")
    part = scc(g)
    top = induced_subgraph(g, np.flatnonzero(part.comp == np.argmax(part.sizes())))
    top._strong = True
    return top

