"""Edge-deletion heuristics for 2EC-B and 2EC-B-C, with trivial-edge skipping.

The three strategies process each candidate edge once against the evolving
subgraph: `test2edp` deletes an edge when two edge-disjoint replacement
paths exist, `test2ecb` when the deletion keeps the 2EC blocks (and strong
connectivity), and `hybrid` dispatches between them on block membership.
`filter_b` (2EC-B) and `filter_bc` (2EC-B-C) are the entry points, and
`FilterConfig` alone picks the strategy, the sparse-certificate
preprocessing (on by default) and the second-level aux-graph variant.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .blocks import aux_graphs, blocks
from .certificates import _condensed, ist_b
from .digraph import Digraph, GraphError, _ensure_strongly_connected

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
    from the view's CSR, with the view's endpoints as lists."""

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
        self.out_adj = [out_eids[out_start[v]:out_start[v + 1]] for v in range(view.n)]
        self.in_adj = [in_eids[in_start[v]:in_start[v + 1]] for v in range(view.n)]
        self.out_deg = [len(adj) for adj in self.out_adj]
        self.in_deg = [len(adj) for adj in self.in_adj]

    def delete(self, e: int) -> None:
        self.alive[e] = False
        self.out_deg[self.tails[e]] -= 1
        self.in_deg[self.heads[e]] -= 1

    def without(self, e: int) -> Digraph:
        """View of G' - e."""
        keep = [f for f in self.ids if self.alive[f] and f != e]
        return self.view.subgraph_edges(np.asarray(keep, dtype=np.int64))

    def two_disjoint_paths(self, x: int, y: int, e_skip: int = -1) -> bool:
        """Two edge-disjoint x->y paths avoiding e_skip (unit capacities)."""
        if x == y:
            return True
        alive, tails, heads = self.alive, self.tails, self.heads
        used: set[int] = set()
        for _ in range(2):
            parent: dict[int, tuple[int, int, bool]] = {x: (-1, -1, False)}
            stack = [x]
            reached = False
            while stack and not reached:
                v = stack.pop()
                for e in self.out_adj[v]:
                    if e == e_skip or not alive[e] or e in used:
                        continue
                    w = heads[e]
                    if w not in parent:
                        parent[w] = (v, e, False)
                        if w == y:
                            reached = True
                            break
                        stack.append(w)
                if reached:
                    break
                for e in self.in_adj[v]:
                    if e not in used:
                        continue
                    w = tails[e]
                    if w not in parent:
                        parent[w] = (v, e, True)
                        if w == y:
                            reached = True
                            break
                        stack.append(w)
            if not reached:
                return False
            v = y
            while v != x:
                pv, e, backward = parent[v]
                if backward:
                    used.discard(e)
                else:
                    used.add(e)
                v = pv
        return True


def _ordered(edge_ids, cfg: FilterConfig) -> list[int]:
    order = sorted(int(e) for e in edge_ids)
    if cfg.edge_order == "reverse":
        order.reverse()
    elif cfg.edge_order == "random":
        random.Random(cfg.seed).shuffle(order)
    return order


def _run_strategy(g: Digraph, working_ids, cfg: FilterConfig) -> FilterReport:
    """Shared loop for test2edp / test2ecb / hybrid over a working edge set."""
    work = _Working(g.subgraph_edges(np.asarray(working_ids, dtype=np.int64)))
    blocks0 = blocks(work.view)
    sizes = blocks0.sizes().tolist()
    comp_of = blocks0.comp.tolist()

    decisions: dict[int, str] = {}
    # one counter per decision, named like it, besides the two test counts
    counters = {
        "working_edges": len(work.ids), "tested_2edp": 0, "tested_blocks": 0,
        "kept_trivial": 0, "kept_bridge": 0, "kept_needed": 0, "deleted": 0,
    }

    def trivial(e: int) -> bool:
        x, y = work.tails[e], work.heads[e]
        if sizes[comp_of[x]] >= 2 and work.out_deg[x] <= 2:
            return True
        if sizes[comp_of[y]] >= 2 and work.in_deg[y] <= 2:
            return True
        if sizes[comp_of[x]] == 1 and work.out_deg[x] == 1:
            return True
        if sizes[comp_of[y]] == 1 and work.in_deg[y] == 1:
            return True
        return False

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

    surviving = {e for e in work.ids if work.alive[e]}
    return FilterReport(surviving=surviving, decisions=decisions, counters=counters)


def _on_aux_graphs(g: Digraph, ids: list[int], cfg: FilterConfig) -> FilterReport:
    """Run the strategy inside every second-level auxiliary graph of the
    working graph g[ids].

    An edge is deleted only if every auxiliary graph containing it agreed to
    delete it; edges that appear in no second-level graph are kept.
    """
    work = g.subgraph_edges(np.asarray(ids, dtype=np.int64))
    appeared: set[int] = set()
    kept: set[int] = set()
    tested = 0
    if g.n > 1:
        for h in aux_graphs(work, 0)[1]:
            for aux in aux_graphs(h.graph.reverse(), 0, h)[1]:
                appeared.update(aux.orig_edge)
                sub_rep = _run_strategy(aux.graph, aux.graph.edge_ids, cfg)
                tested += sub_rep.counters["tested_2edp"] + sub_rep.counters["tested_blocks"]
                kept.update(aux.orig_edge[e] for e in sub_rep.surviving)
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
    _ensure_strongly_connected(g)
    ids = sorted(ist_b(g)[0].edge_set()) if cfg.certificate else g.edge_ids.tolist()
    rep = (_on_aux_graphs if cfg.on_aux_graphs else _run_strategy)(g, ids, cfg)
    rep.counters["input_edges"] = g.m
    rep.counters["certificate_dropped"] = g.m - len(ids)
    return rep


def _minimize_two_ecss(g: Digraph, comp_edges: set[int]) -> set[int]:
    """Shrink a per-component 2ECSS with the two-edge-disjoint-paths test."""
    work = _Working(g.subgraph_edges(np.asarray(sorted(comp_edges), dtype=np.int64)))
    for e in work.ids:
        if work.two_disjoint_paths(work.tails[e], work.heads[e], e_skip=e):
            work.delete(e)
    return {e for e in work.ids if work.alive[e]}


def filter_bc(g: Digraph, cfg: FilterConfig = FilterConfig()) -> FilterReport:
    """Block-and-component preserving filter through the condensed graph.

    Components get an edge-disjoint-trees 2ECSS re-minimized by the
    two-edge-disjoint-paths test; the surviving condensed edges come from
    the configured strategy (optionally inside second-level aux graphs).
    """
    pieces, reduced = _condensed(g, cap=2)
    surviving: set[int] = set()
    comp_edge_count = 0
    for sub, edges in pieces:
        minimized = _minimize_two_ecss(sub, edges)
        surviving |= {int(sub.origin[e]) for e in minimized}
        comp_edge_count += len(minimized)

    decisions: dict[int, str] = {}
    counters = {"component_edges": comp_edge_count, "input_edges": g.m}
    if reduced.n > 1:
        rep = filter_b(reduced, cfg)
        for e_local, what in rep.decisions.items():
            decisions[int(reduced.origin[e_local])] = what
        surviving |= {int(reduced.origin[e]) for e in rep.surviving}
        for key, val in rep.counters.items():
            counters["condensed_" + key] = val
    return FilterReport(surviving=surviving, decisions=decisions, counters=counters)
