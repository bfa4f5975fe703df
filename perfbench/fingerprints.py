#!/usr/bin/env python3
"""Reference fingerprints of the workload graphs: built once with networkx,
checked by every benchmark run.

A fingerprint summarises a workload graph's largest strongly connected
component: n, m, the number of strong bridges, and the count and size
multiset of its 2-edge-connected blocks and components.  networkx computes
them independently of twoec: ``k_edge_components(G, 2)`` gives the blocks
and ``k_edge_subgraphs(G, 2)`` the components; a strong bridge is an arc
whose removal leaves G not strongly connected.  This takes 10-30 s per
graph at the workloads' sizes, so it runs once per (workload, graph seed),
never per benchmark run:

    python3 perfbench/fingerprints.py --workload road-mix --graph-seed 1 2

The result is merged into ``perfbench/fingerprints.json``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, graph_arcs  # noqa: E402

FINGERPRINTS = HERE / "fingerprints.json"


def summary(n: int, m: int, bridges: int, block_sizes, comp_sizes) -> dict:
    """The fingerprint: invariant under relabelling."""
    def histogram(sizes) -> dict:
        hist: dict[str, int] = {}
        for size in sorted(sizes, reverse=True):
            hist[str(size)] = hist.get(str(size), 0) + 1
        return {"count": len(sizes), "sizes": hist}
    return {"n": n, "m": m, "strong_bridges": bridges,
            "blocks": histogram(block_sizes), "components": histogram(comp_sizes)}


def committed(workload: str, graph_seed: int) -> dict:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    try:
        return table[workload][str(graph_seed)]
    except KeyError:
        raise SystemExit(
            f"perfbench: no committed fingerprint for {workload} graph seed {graph_seed}; "
            f"build it with perfbench/fingerprints.py") from None


def reference(spec: dict, graph_seed: int) -> dict:
    import networkx as nx

    n, arcs = graph_arcs(spec, graph_seed)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v in arcs if u != v)
    g = g.subgraph(max(nx.strongly_connected_components(g), key=len)).copy()
    bridges = 0
    for u, v in list(g.edges):
        g.remove_edge(u, v)
        bridges += not nx.is_strongly_connected(g)
        g.add_edge(u, v)
    blocks = [len(c) for c in nx.k_edge_components(g, 2)]
    comps = [len(c) for c in nx.k_edge_subgraphs(g, 2)]
    return summary(g.number_of_nodes(), g.number_of_edges(), bridges, blocks, comps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--graph-seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    for gs in args.graph_seed:
        t0 = time.monotonic()
        table.setdefault(args.workload, {})[str(gs)] = reference(WORKLOADS[args.workload], gs)
        print(f"{args.workload} graph seed {gs}: {time.monotonic() - t0:.0f} s", flush=True)
        FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
