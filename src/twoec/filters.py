"""Edge-deletion heuristics for 2EC-B and 2EC-B-C, with trivial-edge skipping.

The three strategies process each candidate edge once against the evolving
subgraph: `test2edp` deletes an edge when two edge-disjoint replacement
paths exist, `test2ecb` when the deletion keeps the 2EC blocks (and strong
connectivity), and `hybrid` dispatches between them on block membership.
`filter_b` (2EC-B) and `filter_bc` (2EC-B-C) are the entry points, and
`FilterConfig` alone picks the strategy, the sparse-certificate
preprocessing (on by default) and the second-level aux-graph variant.

A 2EDP test (two edge-disjoint paths) runs two augmenting-path searches,
each a bidirectional BFS from both ends of the edge that stops where the
two sides meet, so it costs about the arcs near the edge, not the working
graph: on road grids the mean is about 200 arc scans per test at n=1529
and at n=3473 (`counters["scans_2edp"]`).  A block test costs one
`blocks()` call on G' - e.  The initial block partition comes from the
certificate's own construction, or from one `blocks()` call without it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .blocks import _decompose, blocks
from .certificates import _condensed, _ist_pipeline
from .digraph import Digraph, GraphError, Partition, _ensure_strongly_connected

__all__ = ["EDGE_ORDERS", "FilterConfig", "FilterReport", "filter_b", "filter_bc"]


# The orders in which a filter can visit its candidate edges.
EDGE_ORDERS = ("input", "reverse", "random")


@dataclass(frozen=True)
class FilterConfig:
    strategy: str = "test2edp"       # test2edp | test2ecb | hybrid
    edge_order: str = "input"        # input | reverse | random
    seed: int = 0
    trivial_skip: bool = True
    on_aux_graphs: bool = False
    certificate: bool = True         # preprocess with the sparse certificate

    def __post_init__(self):
        if self.strategy not in ("test2edp", "test2ecb", "hybrid"):
            raise ValueError(f"unknown filter strategy {self.strategy!r}")
        if self.edge_order not in EDGE_ORDERS:
            raise ValueError(f"unknown edge order {self.edge_order!r}")
        for name, kind in (("seed", int), ("trivial_skip", bool),
                           ("on_aux_graphs", bool), ("certificate", bool)):
            value = getattr(self, name)
            if type(value) is not kind:
                raise ValueError(
                    f"filter option {name!r} must be a {kind.__name__}, not {value!r}")


@dataclass
class FilterReport:
    surviving: set[int]
    decisions: dict[int, str]        # kept-trivial | kept-bridge | kept-needed | deleted
    counters: dict[str, int] = field(default_factory=dict)


class _Working:
    """Filter state of the evolving subgraph G' over the view of its initial
    edges: alive flags, degree counts and per-vertex edge-id lists sliced
    from the view's CSR, with the view's endpoints as lists.

    The 2EDP searches label vertices in flat per-vertex lists allocated
    here once; a search owns the entries equal to its stamp, and a test
    owns the `used` entries equal to its own stamp, so nothing is cleared
    between tests.  `scans` sums the arcs the searches scanned.
    """

    def __init__(self, view: Digraph):
        self.view = view
        self.ids = view.edge_ids.tolist()
        self.tails = view.tails.tolist()
        self.heads = view.heads.tolist()
        self.alive = [False] * len(self.tails)
        for e in self.ids:
            self.alive[e] = True
        out_start, out_eids, _ = view.out_lists()
        in_start, in_eids, _ = view.in_lists()
        out_adj = [out_eids[out_start[v]:out_start[v + 1]] for v in range(view.n)]
        in_adj = [in_eids[in_start[v]:in_start[v + 1]] for v in range(view.n)]
        self.out_deg = [len(adj) for adj in out_adj]
        self.in_deg = [len(adj) for adj in in_adj]
        # by direction: 0 searches forwards over out-arcs, 1 backwards over in-arcs
        self.adj = (out_adj, in_adj)
        self.end = (self.heads, self.tails)
        self.used = [0] * len(self.tails)    # == the test's stamp: carries flow
        self.mark = ([0] * view.n, [0] * view.n)     # == the search's stamp: labelled
        self.parent = ([0] * view.n, [0] * view.n)   # edge id, ~e for a residual reverse arc
        self.stamp = 0
        self.scans = 0

    def delete(self, e: int) -> None:
        self.alive[e] = False
        self.out_deg[self.tails[e]] -= 1
        self.in_deg[self.heads[e]] -= 1

    def without(self, e: int) -> Digraph:
        """View of G' - e."""
        keep = [f for f in self.ids if self.alive[f] and f != e]
        return self.view.subgraph_edges(keep)

    def two_disjoint_paths(self, x: int, y: int, e_skip: int = -1) -> bool:
        """Two edge-disjoint x->y paths avoiding e_skip (unit capacities).

        Each of the two augmentations is a bidirectional BFS over the
        residual arcs; a yes/no answer does not depend on the search order.
        """
        if x == y:
            return True
        alive = self.alive
        skip_alive = e_skip >= 0 and alive[e_skip]
        if skip_alive:                   # e_skip counts as dead during the test
            alive[e_skip] = False
        try:
            self.stamp += 1
            test = self.stamp
            for _ in range(2):
                if not self._augment(x, y, test):
                    return False
            return True
        finally:
            if skip_alive:
                alive[e_skip] = True

    def _augment(self, x: int, y: int, test: int) -> bool:
        """Search one augmenting x->y path and flip its arcs in `used`.

        Direction 0 grows from x over alive, unused out-arcs and used
        in-arcs taken backwards; direction 1 grows from y over the reverse
        of those arcs.  Each step labels one whole level of the smaller
        frontier, until a side labels a vertex of the other.
        """
        self.stamp += 1
        stamp = self.stamp
        self.mark[0][x] = self.mark[1][y] = stamp
        fronts = [[x], [y]]
        while fronts[0] and fronts[1]:
            d = 0 if len(fronts[0]) <= len(fronts[1]) else 1
            fronts[d], meet = self._level(d, fronts[d], stamp, test)
            if meet != -1:
                self._flip(0, meet, x, test)
                self._flip(1, meet, y, test)
                return True
        return False

    def _level(self, d, front, stamp, test):
        """Label the next level of direction d's BFS.  An arc of `adj[d]`
        leads to its `end[d]`, a used arc of `adj[1 - d]` backwards to its
        `end[1 - d]`.  Returns the new frontier and the first vertex the
        other side had labelled, or -1."""
        alive, used = self.alive, self.used
        adj, end, rev_adj, rev_end = self.adj[d], self.end[d], self.adj[1 - d], self.end[1 - d]
        mark, parent, other = self.mark[d], self.parent[d], self.mark[1 - d]
        nxt = []
        scans = 0
        for v in front:
            arcs, rev_arcs = adj[v], rev_adj[v]
            scans += len(arcs) + len(rev_arcs)
            for e in arcs:
                if alive[e] and used[e] != test:
                    w = end[e]
                    if mark[w] != stamp:
                        mark[w] = stamp
                        parent[w] = e
                        if other[w] == stamp:
                            self.scans += scans
                            return nxt, w
                        nxt.append(w)
            for e in rev_arcs:
                if used[e] == test:
                    w = rev_end[e]
                    if mark[w] != stamp:
                        mark[w] = stamp
                        parent[w] = ~e
                        if other[w] == stamp:
                            self.scans += scans
                            return nxt, w
                        nxt.append(w)
        self.scans += scans
        return nxt, -1

    def _flip(self, d, v, root, test):
        """Walk direction d's parent chain from v to its root, putting flow
        on each arc it crossed forwards and taking it off each arc it
        crossed backwards."""
        used, end, rev_end, parent = self.used, self.end[d], self.end[1 - d], self.parent[d]
        while v != root:
            p = parent[v]
            if p >= 0:
                used[p] = test
                v = rev_end[p]
            else:
                used[~p] = 0
                v = end[~p]


def _ordered(edge_ids, cfg: FilterConfig) -> list[int]:
    order = sorted(int(e) for e in edge_ids)
    if cfg.edge_order == "reverse":
        order.reverse()
    elif cfg.edge_order == "random":
        random.Random(cfg.seed).shuffle(order)
    return order


def _run_strategy(view: Digraph, cfg: FilterConfig, blocks0: Partition) -> FilterReport:
    """Shared loop for test2edp / test2ecb / hybrid over the working graph
    `view`, whose block partition is `blocks0`."""
    work = _Working(view)
    sizes = blocks0.sizes().tolist()
    comp_of = blocks0.comp.tolist()

    decisions: dict[int, str] = {}
    # one counter per decision, named like it, besides the two test counts
    counters = {
        "working_edges": len(work.ids), "tested_2edp": 0, "tested_blocks": 0,
        "kept_trivial": 0, "kept_bridge": 0, "kept_needed": 0, "deleted": 0,
    }

    def trivial(e: int) -> bool:
        # e is alive, so both degrees are at least 1: a singleton block's
        # bound of 1 means e is the vertex's only edge that way
        x, y = work.tails[e], work.heads[e]
        return (work.out_deg[x] <= min(sizes[comp_of[x]], 2)
                or work.in_deg[y] <= min(sizes[comp_of[y]], 2))

    for e in _ordered(work.ids, cfg):
        x, y = work.tails[e], work.heads[e]
        if cfg.trivial_skip and trivial(e):
            what = "kept-trivial"
        elif cfg.strategy == "test2edp" or (
                cfg.strategy == "hybrid" and comp_of[x] == comp_of[y]):
            counters["tested_2edp"] += 1
            what = "deleted" if work.two_disjoint_paths(x, y, e_skip=e) else "kept-needed"
        else:
            try:
                # the precondition of blocks() fails iff G' - e is not
                # strongly connected
                what = "deleted" if blocks(work.without(e)) == blocks0 else "kept-needed"
                counters["tested_blocks"] += 1
            except GraphError:
                what = "kept-bridge"
        if what == "deleted":
            work.delete(e)
        decisions[e] = what
        counters[what.replace("-", "_")] += 1

    counters["scans_2edp"] = work.scans
    surviving = {e for e in work.ids if work.alive[e]}
    return FilterReport(surviving=surviving, decisions=decisions, counters=counters)


def _on_aux_graphs(view: Digraph, cfg: FilterConfig) -> FilterReport:
    """Run the strategy inside every second-level auxiliary graph of the
    working graph `view`.

    An edge is deleted only if every auxiliary graph containing it agreed to
    delete it; edges that appear in no second-level graph are kept.
    """
    ids = view.edge_ids.tolist()
    appeared: set[int] = set()
    kept: set[int] = set()
    tested = 0
    if view.n > 1:
        for *_, level2 in _decompose(view, 0)[-1]:
            for aux, _ in level2:
                aux_edge = aux.origin.tolist()
                appeared.update(aux_edge)
                # the strategy filters the entering bridge too, which aux
                # leaves out of its edges
                whole = Digraph(aux.n, aux.tails, aux.heads)
                sub_rep = _run_strategy(whole, cfg, blocks(whole))
                tested += sub_rep.counters["tested_2edp"] + sub_rep.counters["tested_blocks"]
                kept.update(aux_edge[e] for e in sub_rep.surviving)
    surviving = (set(ids) - appeared) | kept
    decisions = {e: ("deleted" if e not in surviving else "kept-needed") for e in ids}
    return FilterReport(
        surviving=surviving,
        decisions=decisions,
        counters={
            "working_edges": len(ids), "aux_appeared": len(appeared),
            "tested_inner": tested, "deleted": len(ids) - len(surviving),
        },
    )


def filter_b(g: Digraph, cfg: FilterConfig = FilterConfig()) -> FilterReport:
    """Block-preserving filter (2EC-B) of a strongly connected digraph.

    The working edges are those of `ist_b`'s certificate, or every edge of
    g without `cfg.certificate`; `cfg.strategy` filters them as one graph,
    or inside each second-level auxiliary graph with `cfg.on_aux_graphs`.
    """
    if cfg.certificate:
        # the certificate keeps the blocks, so g's partition is its own;
        # building it checks that g is strongly connected
        cert, _, part = _ist_pipeline(g, 0, modified=True)
        view = g.subgraph_edges(sorted(cert.edge_set()))
    else:
        _ensure_strongly_connected(g)
        view, part = g, None
    if cfg.on_aux_graphs:
        rep = _on_aux_graphs(view, cfg)
    else:
        rep = _run_strategy(view, cfg, blocks(g) if part is None else part)
    rep.counters["input_edges"] = g.m
    rep.counters["certificate_dropped"] = g.m - view.m
    return rep


def filter_bc(g: Digraph, cfg: FilterConfig = FilterConfig()) -> FilterReport:
    """Block-and-component preserving filter through the condensed graph.

    Components get an edge-disjoint-trees 2ECSS re-minimized by the
    two-edge-disjoint-paths test; the surviving condensed edges come from
    the configured strategy (optionally inside second-level aux graphs).
    """
    pieces, reduced = _condensed(g, cap=2)
    # One run over every component's 2ECSS decides as one run per component
    # did.  Components share no vertex and the view has no edge between two
    # of them, so a 2EDP search never leaves its own component and a
    # deletion in one changes no test in another.  `_condensed` numbers each
    # piece's edges in input-id order, so each component's candidates keep
    # their order.  A 2EC component is one block: the trivial skip's bound
    # min(size, 2) is 2 at every endpoint of a view edge, as with one class
    # per piece, and test2edp reads the partition for nothing else.
    view = g.subgraph_edges(sorted(int(sub.origin[e]) for sub, edges in pieces for e in edges))
    surviving = _run_strategy(view, FilterConfig(), Partition([0] * g.n)).surviving

    decisions: dict[int, str] = {}
    counters = {"component_edges": len(surviving), "input_edges": g.m}
    if reduced.n > 1:
        rep = filter_b(reduced, cfg)
        for e_local, what in rep.decisions.items():
            decisions[int(reduced.origin[e_local])] = what
        surviving |= {int(reduced.origin[e]) for e in rep.surviving}
        for key, val in rep.counters.items():
            counters["condensed_" + key] = val
    return FilterReport(surviving=surviving, decisions=decisions, counters=counters)
