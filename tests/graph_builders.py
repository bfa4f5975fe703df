"""Test graphs, views, a reachability search and the Theorem-2 check that
several test modules share, one builder each: among the graphs, the
fixture corpus and seeded 2-edge-connected digraphs.

Imported by name: pytest puts this directory on `sys.path` for the test
modules beside it.
"""
import random

import numpy as np

from twoec.certificates import ist_b
from twoec.digraph import Digraph, build, largest_scc
from twoec.dominators import strong_bridges
from twoec.fixtures import g1, g2, g4, g5, linked_triangles, random_strongly_connected


def reachable(g, s: int) -> set[int]:
    """The vertices of `g` that a path from `s` reaches."""
    out_start, _, heads = g.out_lists()
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for h in heads[out_start[v]:out_start[v + 1]]:
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


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


def ist_b_within_theorem2(g):
    """`ist_b(g)`, checked against Theorem 2: phases 1, 2 and 3 add
    2n - b - 2, at most 2n - b and at most 2n' + 2b distinct edges (b the
    bridges of G(s)), and the certificate has at most 4(n + n') edges."""
    cert, stats = ist_b(g)
    assert stats.phase1_new == 2 * stats.n - stats.bridges - 2
    assert stats.phase2_new <= 2 * stats.n - stats.bridges
    assert stats.phase3_new <= 2 * stats.n_prime + 2 * stats.bridges
    assert len(cert) <= 4 * (stats.n + stats.n_prime)
    return cert, stats


def corpus() -> dict[str, Digraph]:
    return {
        "G1": g1(),
        "G2": g2(),
        "G4": g4(),
        "G5": g5(),
        "linked_triangles": linked_triangles(),
    }


def random_two_edge_connected(rng: random.Random, n: int) -> Digraph:
    """Seeded random 2-edge-connected digraph (no strong bridges) on n >= 3
    vertices; on 2, the only simple strongly connected digraph is the
    2-cycle, whose edges are both strong bridges."""
    if n < 3:
        raise ValueError("need n >= 3")
    m = max(2 * n, min(3 * n, n * (n - 1)))
    for _ in range(120):
        g = random_strongly_connected(rng, n, min(m, n * (n - 1)))
        if not strong_bridges(g):
            return g
        m = min(m + n, n * (n - 1))
    # fall back to the densest simple digraph, which is always 2EC for n >= 3
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])
