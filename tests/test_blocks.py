import random

import numpy as np
import pytest

from twoec.blocks import (
    _DSU, _second_level, blocks, canonical_decomposition, components, condense,
    first_level_aux_graphs,
)
from twoec.digraph import GraphError, Partition, build, delete_edge_view, largest_scc, scc
from twoec.dominators import FlowGraph, dominator_tree, flow_bridges, strong_bridges
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid,
)
from twoec.oracle import (
    OracleBudget, oracle_blocks, oracle_components, two_edge_connected_pair,
)


def test_canonical_decomposition_fixtures():
    fg = FlowGraph(g1(), 0)
    dt = dominator_tree(fg)
    cd = canonical_decomposition(fg, dt, flow_bridges(fg, dt))
    assert cd.marked == [0]
    assert len(set(cd.tree_id)) == 1

    fg = FlowGraph(g2(), 0)
    dt = dominator_tree(fg)
    cd = canonical_decomposition(fg, dt, flow_bridges(fg, dt))
    assert cd.marked == [0, 1, 2]

    fg = FlowGraph(g4(), 0)
    dt = dominator_tree(fg)
    cd = canonical_decomposition(fg, dt, flow_bridges(fg, dt))
    assert cd.marked == [0, 1, 2, 3, 4, 5]


def test_first_level_aux_graph_g1_is_whole():
    auxes = first_level_aux_graphs(FlowGraph(g1(), 0))
    assert len(auxes) == 1
    a = auxes[0]
    assert all(a.is_ordinary) and a.graph.m == 6


def test_first_level_aux_graph_g2_middle():
    auxes = first_level_aux_graphs(FlowGraph(g2(), 0))
    by_root = {a.orig_vertex[a.root]: a for a in auxes}
    mid = by_root[1]
    assert sum(mid.is_ordinary) == 1
    assert mid.graph.n == 3  # ordinary 1 plus contractions of both sides


def test_aux_graph_size_bound():
    # vertices: n + 2b exactly as published; edges: the full contraction can
    # exceed the m + 2b estimate by escape edges (up to one per region vertex,
    # kept in <= 2 parallel copies), so the provable total is 2(m + n + 3b)
    rng = random.Random(31)
    for _ in range(100):
        g = random_strongly_connected(rng, rng.randint(2, 20))
        fg = FlowGraph(g, 0)
        dt = dominator_tree(fg)
        br = flow_bridges(fg, dt)
        auxes = first_level_aux_graphs(fg)
        total_v = sum(a.graph.n for a in auxes)
        total_e = sum(a.graph.m for a in auxes)
        assert total_v <= g.n + 2 * len(br)
        assert total_e <= 2 * (g.m + g.n + 3 * len(br))


def test_ordinary_vertex_soundness():
    # two ordinary vertices of an aux graph are 2EC there iff 2EC originally
    rng = random.Random(37)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        whole = oracle_blocks(g)
        for a in first_level_aux_graphs(FlowGraph(g, 0)):
            local = oracle_blocks(a.graph) if a.graph.n <= 12 else None
            if local is None:
                continue
            ordinary = [v for v in range(a.graph.n) if a.is_ordinary[v]]
            for i in ordinary:
                for j in ordinary:
                    if i < j:
                        oi, oj = a.orig_vertex[i], a.orig_vertex[j]
                        assert ((local.comp[i] == local.comp[j])
                                == (whole.comp[oi] == whole.comp[oj]))


def test_lemma_strong_bridge_reversal():
    # a strong bridge of a first-level aux graph that is not a bridge of G(s)
    # shows up reversed as a bridge of H^R(r); escape edges into the d(r)
    # contraction target are exempt (their reverse enters the root)
    rng = random.Random(41)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        fg = FlowGraph(g, 0)
        dt = dominator_tree(fg)
        gs_bridges = {int(e) for e in flow_bridges(fg, dt)}
        for h in first_level_aux_graphs(fg):
            if h.graph.n <= 1 or scc(h.graph).count != 1:
                continue
            rev = h.graph.reverse()
            fgr = FlowGraph(rev, h.root)
            rev_bridges = flow_bridges(fgr, dominator_tree(fgr))
            for e in strong_bridges(h.graph, h.root):
                if h.orig_edge[e] in gs_bridges:
                    continue
                if h.entering_bridge != -1 and h.graph.head(e) == h.graph.n - 1:
                    continue
                assert e in rev_bridges


def test_second_level_api():
    auxes = first_level_aux_graphs(FlowGraph(g1(), 0))
    _, _, level2 = _second_level(auxes[0])
    assert [aux.entering_bridge for aux in level2] == [-1]  # H^R(0) has no bridges
    # every second-level graph of a path-like graph has <= 1 ordinary vertex
    g = g2()
    for h in first_level_aux_graphs(FlowGraph(g, 0)):
        fgr, dtr, level2 = _second_level(h)
        assert fgr.graph.m == h.graph.m and fgr.start == h.root
        assert dtr.idom[h.root] == -1
        for aux in level2:
            if aux.entering_bridge != -1:
                assert aux.orig_edge[aux.entering_bridge] in {0, 1, 2}
            assert sum(aux.is_ordinary) <= 1


def test_second_level_contains_g5_block():
    found = False
    for h in first_level_aux_graphs(FlowGraph(g5(), 0)):
        for aux in _second_level(h)[2]:
            part = scc(aux.graph)
            for cls in part.classes():
                orig = {aux.orig_vertex[v] for v in cls.tolist() if aux.is_ordinary[v]}
                if {0, 1} <= orig:
                    found = True
    assert found


def _check_aux_contract(g, aux, reverse: bool) -> None:
    """An edge between two ordinary vertices of `aux` maps to the edge of `g`
    between the vertices they stand for, reversed when `aux` is built on a
    reverse graph; the entering bridge is the only edge out of the last
    local vertex d(r) and enters the root."""
    pairs = g.edge_pairs()
    for e, (t, hd) in enumerate(aux.graph.edge_pairs()):
        if aux.is_ordinary[t] and aux.is_ordinary[hd]:
            ends = (aux.orig_vertex[t], aux.orig_vertex[hd])
            assert pairs[aux.orig_edge[e]] == (ends[::-1] if reverse else ends)
    if aux.entering_bridge != -1:
        assert aux.graph.out_ids(aux.graph.n - 1).tolist() == [aux.entering_bridge]
        assert aux.graph.head(aux.entering_bridge) == aux.root


def test_second_level_maps_into_the_input_graph():
    rng = random.Random(67)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [road_grid(12, 0.12, 0.55, 1)]:
        for h in first_level_aux_graphs(FlowGraph(g, 0)):
            _check_aux_contract(g, h, reverse=False)
            level2 = _second_level(h)[2]
            assert [aux.entering_bridge == -1 for aux in level2] == (
                [True] + [False] * (len(level2) - 1))
            for aux in level2:
                _check_aux_contract(g, aux, reverse=True)


def _both_ordinary(aux) -> list[int]:
    """Local vertices of a second-level graph ordinary at both levels."""
    return [v for v in range(aux.graph.n) if aux.is_ordinary[v]]


def _aux_fields(aux):
    return (aux.orig_edge, aux.orig_vertex, aux.is_ordinary, aux.entering_bridge,
            aux.graph.edge_pairs(), aux.root)


def _blocks_from_kept_graphs(g) -> Partition:
    """Blocks read off only the second-level graphs that `blocks_only` keeps,
    after checking that they are exactly the full list's graphs with at least
    2 vertices ordinary at both levels."""
    dsu = _DSU(g.n)
    for h in first_level_aux_graphs(FlowGraph(g, 0)):
        fgr, dtr, full = _second_level(h)
        fgr_kept, dtr_kept, kept = _second_level(h, blocks_only=True)
        assert fgr_kept.graph.edge_pairs() == fgr.graph.edge_pairs()
        assert fgr_kept.start == fgr.start
        assert dtr_kept.idom == dtr.idom
        want = [aux for aux in full if len(_both_ordinary(aux)) >= 2]
        assert [_aux_fields(a) for a in kept] == [_aux_fields(a) for a in want]
        for aux in kept:
            work = aux.graph
            if aux.entering_bridge != -1:
                work = delete_edge_view(work, aux.entering_bridge)
            comp = scc(work).comp.tolist()
            groups: dict[int, list[int]] = {}
            for v in _both_ordinary(aux):
                groups.setdefault(comp[v], []).append(aux.orig_vertex[v])
            for grp in groups.values():
                for other in grp[1:]:
                    dsu.union(grp[0], other)
    return Partition(np.asarray([dsu.find(v) for v in range(g.n)], dtype=np.int64))


def test_blocks_only_keeps_every_block_random():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(4, 60)
        g = random_strongly_connected(rng, n, rng.choice([None, 3 * n]))
        part = _blocks_from_kept_graphs(g)
        assert part == blocks(g)
        if n <= 30:
            assert part == oracle_blocks(g, OracleBudget(max_pairwise_n=30))


def _uniform_digraph(n: int, m: int, seed: int):
    rng = random.Random(seed)
    arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
    return largest_scc(build(n, sorted((u, v) for u, v in arcs if u != v)))


@pytest.mark.parametrize("make", [
    lambda: road_grid(18, 0.12, 0.55, 1),
    lambda: _uniform_digraph(350, 1400, 1),
], ids=["road-grid-18", "uniform-350-1400"])
def test_blocks_only_keeps_every_block_at_scale(make):
    # the pairwise oracle is quadratic, so at this size every vertex is
    # flow-checked against the first vertex of its block only
    g = make()
    part = _blocks_from_kept_graphs(g)
    assert part == blocks(g)
    nontrivial = [cls.tolist() for cls in part.classes() if len(cls) >= 2]
    assert nontrivial
    for cls in nontrivial:
        for v in cls[1:]:
            assert two_edge_connected_pair(g, cls[0], v)


def test_blocks_fixtures():
    assert blocks(g1()).count == 1
    assert blocks(g2()).count == 3
    part = blocks(g5())
    assert part.comp[0] == part.comp[1]
    assert part.count == 5
    assert blocks(g4()).count == 6


def test_blocks_requires_strongly_connected():
    with pytest.raises(GraphError):
        blocks(build(3, [(0, 1), (1, 2)]))


def test_components_fixtures():
    assert components(g1()).count == 1
    assert components(g5()).count == 6        # blocks vs components difference
    assert components(g4()).count == 6
    part = components(linked_triangles())
    assert part.comp.tolist() == [0, 0, 0, 1, 1, 1]


def test_blocks_and_components_match_oracle():
    rng = random.Random(43)
    for _ in range(150):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        assert blocks(g) == oracle_blocks(g)
        assert components(g) == oracle_components(g)


def test_nontrivial_components_sit_inside_blocks():
    rng = random.Random(47)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        b = blocks(g)
        c = components(g)
        sizes = c.sizes()
        for cls in c.classes():
            if len(cls) >= 2:
                assert len({int(b.comp[v]) for v in cls.tolist()}) == 1


def test_condense_g1_single_supervertex():
    g = g1()
    cond = condense(g, components(g), cap=2)
    assert cond.n == 1
    assert cond.m == 0  # all six edges are loops of the one supervertex


def test_condense_g5_isomorphic():
    g = g5()
    comp = components(g)
    cond = condense(g, comp, cap=2)
    assert cond.n == 6 and cond.m == 8
    assert cond.origin.tolist() == list(range(8))
    mapped = sorted((int(comp.comp[g.tail(e)]), int(comp.comp[g.head(e)])) for e in range(8))
    assert mapped == sorted(cond.edge_pairs())


def test_condense_linked_triangles():
    g = linked_triangles()
    cond = condense(g, components(g), cap=2)
    assert cond.n == 2
    assert cond.m == 2
    assert sorted(cond.origin.tolist()) == [12, 13]
    assert sorted(cond.edge_pairs()) == [(0, 1), (1, 0)]


def test_condense_caps_parallel_edges():
    # three parallel edges 0 -> 1 between the two supervertices of a
    # partition; the lowest ids survive, up to `cap`
    g = build(4, [(0, 2), (2, 0), (1, 3), (3, 1), (0, 1), (2, 3), (0, 3), (3, 0)])
    part = Partition(np.asarray([0, 1, 0, 1]))
    assert condense(g, part, cap=2).origin.tolist() == [4, 5, 7]
    assert condense(g, part, cap=1).origin.tolist() == [4, 7]
    with pytest.raises(GraphError):
        condense(g, Partition(np.asarray([0, 0])), cap=1)
    # loop reference: the first `cap` edges of every ordered pair, no loops
    rng = random.Random(53)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        part = Partition(np.asarray([rng.randrange(4) for _ in range(g.n)]))
        for cap in (1, 2):
            seen: dict = {}
            want = []
            for e, (t, h) in enumerate(g.edge_pairs()):
                pair = (int(part.comp[t]), int(part.comp[h]))
                if pair[0] != pair[1] and seen.get(pair, 0) < cap:
                    seen[pair] = seen.get(pair, 0) + 1
                    want.append(e)
            assert condense(g, part, cap).origin.tolist() == want
