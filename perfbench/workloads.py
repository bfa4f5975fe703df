"""Seeded synthetic inputs for the benchmark, written as DIMACS files.

A workload fixes a graph family and its parameters.  Two seeds make an
input: the graph seed draws the graph's structure, and the run seed draws
a random relabelling of its vertices and a random order of its arcs.  Every
run seed therefore gives the program a different file for an isomorphic
graph, so the committed fingerprints (which are invariant under
relabelling) check every run, while vertex numbering and arc order, which
steer every DFS and every filter's candidate order, change from seed to
seed.

This module does not import the library under test.
"""
from __future__ import annotations

import random
from pathlib import Path

import numpy as np

# The catalog algorithms every workload runs.
ALGORITHMS = ("ist-b", "test2edp-b", "hybrid-b", "ist-bc", "hybrid-bc", "zni-c")

WORKLOADS: dict[str, dict] = {
    "road-mix": {
        "kind": "road", "side": 18, "p_drop": 0.12, "p_two_way": 0.55,
        "instances": {"ist-b": 10, "test2edp-b": 10, "hybrid-b": 3,
                      "ist-bc": 10, "hybrid-bc": 3, "zni-c": 10},
        "why": "road grid with many small blocks: hybrid's per-candidate blocks() "
               "recomputes dominate",
    },
    "dense-cert": {
        "kind": "uniform", "vertices": 350, "arcs": 1400,
        "instances": {"ist-b": 10, "test2edp-b": 10, "hybrid-b": 4,
                      "ist-bc": 10, "hybrid-bc": 4, "zni-c": 10},
        "why": "uniform random digraph with few bridges and a giant block: the "
               "independent spanning trees of the certificates dominate",
    },
}

DEFAULT_GRAPH_SEED = 1


def road_grid_arcs(side: int, p_drop: float, p_two_way: float, seed: int):
    """Grid road network: drop each grid edge with p_drop, keep it two-way
    with p_two_way, otherwise one-way in a random direction."""
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
    return side * side, arcs


def uniform_arcs(vertices: int, arcs: int, seed: int):
    """`arcs` arcs with uniform tail and head; loops and duplicates included."""
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, vertices, arcs).tolist()
    heads = rng.integers(0, vertices, arcs).tolist()
    return vertices, list(zip(tails, heads))


def graph_arcs(spec: dict, graph_seed: int):
    if spec["kind"] == "road":
        return road_grid_arcs(spec["side"], spec["p_drop"], spec["p_two_way"], graph_seed)
    if spec["kind"] == "uniform":
        return uniform_arcs(spec["vertices"], spec["arcs"], graph_seed)
    raise ValueError(f"unknown graph kind {spec['kind']!r}")


def relabel(n: int, arcs, seed: int):
    """Random vertex permutation and random arc order, drawn from `seed`."""
    rng = random.Random(f"relabel-{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in arcs]
    rng.shuffle(out)
    return out


def write_dimacs(path: Path, n: int, arcs) -> None:
    lines = [f"p sp {n} {len(arcs)}"]
    lines += [f"a {u + 1} {v + 1} 1" for u, v in arcs]
    path.write_text("\n".join(lines) + "\n")


def make_input(spec: dict, graph_seed: int, seed: int, path: Path) -> Path:
    """Write the input file of one run and return its path."""
    n, arcs = graph_arcs(spec, graph_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_dimacs(path, n, relabel(n, arcs, seed))
    return path
