"""Test graphs and views that several test modules build, one builder each.

Imported by name: pytest puts this directory on `sys.path` for the test
modules beside it.
"""
import random

import numpy as np

from twoec.digraph import build, largest_scc


def without_edge(g, e: int):
    """View of `g` without edge `e`; all other edge ids keep their meaning."""
    return g.subgraph_edges([f for f in g.edge_ids.tolist() if f != e])


def dense_cert_graph(graph_seed: int = 1):
    """The benchmark's dense-cert graph: the largest SCC of 1400 arcs with
    uniform tail and head over 350 vertices, loops and duplicates dropped."""
    rng = np.random.default_rng(graph_seed)
    tails = rng.integers(0, 350, 1400).tolist()
    heads = rng.integers(0, 350, 1400).tolist()
    return largest_scc(build(350, sorted({(t, h) for t, h in zip(tails, heads) if t != h})))


def stdlib_uniform_digraph(n: int, m: int, seed: int):
    """The largest SCC of m uniform arcs over n vertices drawn with the
    standard library's `random.Random(seed)`, loops and duplicates dropped.
    Not the dense-cert graph, which numpy draws."""
    rng = random.Random(seed)
    arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
    return largest_scc(build(n, sorted((u, v) for u, v in arcs if u != v)))
