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
]


class GraphError(ValueError):
    """Malformed construction input or an invalid graph argument."""


def _csr(n: int, keys: np.ndarray, eids: np.ndarray, ends: np.ndarray):
    """Index the ascending `eids` and their other endpoints `ends` by vertex
    key; within a vertex, edges stay in id order because the sort is stable."""
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    order = np.argsort(keys, kind="stable")
    return start, eids[order], ends[order]


class Digraph:
    """Immutable directed multigraph over dense 0-based vertex ids.

    Edges carry stable integer ids, and `edge_ids` (the active ones) is
    always ascending.  The adjacency is one CSR per direction: the out-edges
    of v are ``_out_eids[_out_start[v]:_out_start[v + 1]]`` in id order, with
    their heads at the same positions of ``_out_heads``; ``_in_start``,
    ``_in_eids`` and ``_in_tails`` hold the in-edges likewise.  Loops read
    the adjacency through ``out_lists()`` and ``in_lists()``, which return
    these arrays as Python lists.  A subgraph view (``subgraph_edges``,
    ``delete_edge_view``) shares the parent's edge-id space, so ids stay
    meaningful across views.  Graphs rebuilt with a fresh id space
    (``induced_subgraph``, contractions) carry ``origin``, mapping each new
    edge id to the parent graph's edge id, and ``vertex_origin`` likewise.
    A graph read from a file keeps the file's vertex ids in ``vertex_origin``.

    Instances are never mutated after construction; they are safe to share
    between threads.
    """

    __slots__ = (
        "n", "tails", "heads", "edge_ids", "origin", "vertex_origin",
        "_out_start", "_out_eids", "_out_heads", "_in_start", "_in_eids", "_in_tails",
    )

    def __init__(
        self,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        *,
        edge_ids: np.ndarray | None = None,
        origin: np.ndarray | None = None,
        vertex_origin: np.ndarray | None = None,
        csr: tuple | None = None,
    ):
        self.n = int(n)
        self.tails = tails
        self.heads = heads
        if edge_ids is None:
            edge_ids = np.arange(len(tails), dtype=np.int64)
        self.edge_ids = edge_ids
        self.origin = origin
        self.vertex_origin = vertex_origin
        if csr is None:
            t, h = tails[edge_ids], heads[edge_ids]
            csr = _csr(self.n, t, edge_ids, h) + _csr(self.n, h, edge_ids, t)
        (self._out_start, self._out_eids, self._out_heads,
         self._in_start, self._in_eids, self._in_tails) = csr

    # -- basic queries ------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def tail(self, e: int) -> int:
        return int(self.tails[e])

    def head(self, e: int) -> int:
        return int(self.heads[e])

    def out_ids(self, v: int) -> np.ndarray:
        return self._out_eids[self._out_start[v]:self._out_start[v + 1]]

    def in_ids(self, v: int) -> np.ndarray:
        return self._in_eids[self._in_start[v]:self._in_start[v + 1]]

    def out_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(start, eids, heads): the out-edges of v sit at positions
        start[v]:start[v + 1] of eids, in id order, with their heads alongside."""
        return self._out_start.tolist(), self._out_eids.tolist(), self._out_heads.tolist()

    def in_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(start, eids, tails), the in-edge counterpart of ``out_lists``."""
        return self._in_start.tolist(), self._in_eids.tolist(), self._in_tails.tolist()

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Active edges as (tail, head) pairs, in edge-id order."""
        eids = self.edge_ids
        return list(zip(self.tails[eids].tolist(), self.heads[eids].tolist()))

    # -- derived graphs -----------------------------------------------------

    def reverse(self) -> "Digraph":
        """Same edge-id space with every edge direction flipped."""
        return Digraph(
            self.n, self.heads, self.tails, edge_ids=self.edge_ids,
            origin=self.origin, vertex_origin=self.vertex_origin,
            csr=(self._in_start, self._in_eids, self._in_tails,
                 self._out_start, self._out_eids, self._out_heads),
        )

    def subgraph_edges(self, keep: np.ndarray) -> "Digraph":
        """View restricted to the given edge ids; all ids keep their meaning."""
        keep = np.asarray(keep, dtype=np.int64)
        keep = np.unique(keep)
        if len(keep) and (keep[0] < 0 or keep[-1] >= len(self.tails)):
            raise GraphError("edge id out of range")
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
    """Vertex partition with dense, first-occurrence-canonical class ids."""

    __slots__ = ("comp", "count")

    def __init__(self, labels: np.ndarray):
        comp = np.empty(len(labels), dtype=np.int64)
        remap: dict[int, int] = {}
        for v, lab in enumerate(labels.tolist()):
            comp[v] = remap.setdefault(lab, len(remap))
        self.comp = comp
        self.count = len(remap)

    def classes(self) -> list[np.ndarray]:
        out: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.comp.tolist()):
            out[c].append(v)
        return [np.asarray(c, dtype=np.int64) for c in out]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.comp, minlength=self.count)

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
    return Partition(np.asarray(comp, dtype=np.int64))


def is_strongly_connected(g: Digraph) -> bool:
    return g.n <= 1 or scc(g).count == 1


def _ensure_strongly_connected(g: Digraph) -> None:
    """The precondition of every algorithm that takes a whole input graph."""
    if not is_strongly_connected(g):
        raise GraphError("input graph must be strongly connected")


def induced_subgraph(g: Digraph, vertices: np.ndarray) -> Digraph:
    """Subgraph induced on `vertices`, densely renumbered in ascending order.

    Edge ids restart from 0 in old-edge-id order; `origin` and
    `vertex_origin` map back into `g`.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    vmap = np.full(g.n, -1, dtype=np.int64)
    vmap[vertices] = np.arange(len(vertices))
    tails = vmap[g.tails[g.edge_ids]]
    heads = vmap[g.heads[g.edge_ids]]
    inside = (tails >= 0) & (heads >= 0)
    return Digraph(
        len(vertices), tails[inside], heads[inside],
        origin=g.edge_ids[inside], vertex_origin=vertices,
    )


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
