"""Canonical test graphs shared by the whole suite, plus seeded generators."""
from __future__ import annotations

import random

from .digraph import Digraph, build, is_strongly_connected, largest_scc
from .dominators import strong_bridges

__all__ = [
    "g1", "g2", "g4", "g5", "linked_triangles", "corpus",
    "random_strongly_connected", "random_two_edge_connected", "road_grid",
]


def g1() -> Digraph:
    """Bidirected triangle: one 2EC block and one 2EC component."""
    return build(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def g2() -> Digraph:
    """Directed 3-cycle: every edge is a strong bridge."""
    return build(3, [(0, 1), (1, 2), (2, 0)])


def g4() -> Digraph:
    """Two 3-cycles a->b->c->a and d->e->f->d joined by c->d and f->a."""
    return build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)])


def g5() -> Digraph:
    """Two-path gadget: u,v = 0,1 joined by two disjoint paths each way.

    The pair {u, v} is 2-edge-connected (one nontrivial block) although
    every 2EC component is a singleton.
    """
    u, v, a, b, c, d = range(6)
    return build(6, [(u, a), (a, v), (u, b), (b, v), (v, c), (c, u), (v, d), (d, u)])


def linked_triangles() -> Digraph:
    """Two bidirected triangles joined by one edge each way.

    The cross edges are strong bridges, so the triangles stay separate
    blocks and components; the condensed graph has two supervertices.
    """
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
             (3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3),
             (0, 3), (3, 0)]
    return build(6, edges)


def corpus() -> dict[str, Digraph]:
    return {
        "G1": g1(),
        "G2": g2(),
        "G4": g4(),
        "G5": g5(),
        "linked_triangles": linked_triangles(),
    }


def random_strongly_connected(rng: random.Random, n: int, m: int | None = None) -> Digraph:
    """Seeded random strongly connected simple digraph.

    Alternates between a rejection-sampled sparse graph and a random
    cycle skeleton plus chords, for structural variety.
    """
    if n == 1:
        return build(1, [])
    if m is None:
        m = rng.randint(n, min(2 * n, n * (n - 1)))
    m = max(n, min(m, n * (n - 1)))
    if rng.random() < 0.5:
        for _ in range(60):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = rng.sample(pairs, m)
            g = build(n, edges)
            if is_strongly_connected(g):
                return g
    # cycle over a random permutation plus random chords
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in edges]
    rng.shuffle(pairs)
    for p in pairs[: max(0, m - n)]:
        edges.add(p)
    return build(n, sorted(edges))


def random_two_edge_connected(rng: random.Random, n: int, tries: int = 120) -> Digraph:
    """Seeded random 2-edge-connected digraph (no strong bridges)."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = max(2 * n, min(3 * n, n * (n - 1)))
    for _ in range(tries):
        g = random_strongly_connected(rng, n, min(m, n * (n - 1)))
        if not strong_bridges(g):
            return g
        m = min(m + n, n * (n - 1))
    # fall back to the densest simple digraph, which is always 2EC for n >= 3
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def road_grid(side: int, p_drop: float, p_two_way: float, seed: int) -> Digraph:
    """Seeded synthetic road network: the largest SCC of a side x side grid.

    Each grid edge is dropped with probability p_drop; a kept edge is
    two-way with probability p_two_way, otherwise one-way in a random
    direction.
    """
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
    for i in range(side):
        for j in range(side):
            u = i * side + j
            nbrs = ([u + 1] if j + 1 < side else []) + ([u + side] if i + 1 < side else [])
            for v in nbrs:
                if rng.random() < p_drop:
                    continue
                if rng.random() < p_two_way:
                    arcs += [(u, v), (v, u)]
                elif rng.random() < 0.5:
                    arcs.append((u, v))
                else:
                    arcs.append((v, u))
    return largest_scc(build(side * side, arcs))
