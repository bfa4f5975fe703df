import importlib
import random

import numpy as np
import pytest

from twoec.blocks import _DSU, aux_graphs, blocks, components, condense
from twoec.digraph import (
    Digraph, GraphError, Partition, build, delete_edge_view, induced_subgraph,
    largest_scc, scc,
)
from twoec.dominators import dominator_tree, flow_bridges, strong_bridges
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid,
)
from twoec.oracle import (
    OracleBudget, oracle_blocks, oracle_components, two_edge_connected_pair,
)


def _roots(auxes) -> list[int]:
    """The marked vertex r of every aux graph: local vertex 0."""
    return [a.orig_vertex[0] for a in auxes]


def test_canonical_decomposition_fixtures():
    auxes = aux_graphs(g1(), 0)[1]
    assert _roots(auxes) == [0]
    assert sum(auxes[0].is_ordinary) == g1().n     # one tree holds every vertex

    assert _roots(aux_graphs(g2(), 0)[1]) == [0, 1, 2]
    assert _roots(aux_graphs(g4(), 0)[1]) == [0, 1, 2, 3, 4, 5]


def test_first_level_aux_graph_g1_is_whole():
    auxes = aux_graphs(g1(), 0)[1]
    assert len(auxes) == 1
    a = auxes[0]
    assert all(a.is_ordinary) and a.graph.m == 6


def test_first_level_aux_graph_g2_middle():
    auxes = aux_graphs(g2(), 0)[1]
    by_root = dict(zip(_roots(auxes), auxes))
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
        dt, auxes = aux_graphs(g, 0)
        br = flow_bridges(g, dt)
        assert len(auxes) == len(br) + 1               # every bridge has its own head
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
        for a in aux_graphs(g, 0)[1]:
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
        dt, level1 = aux_graphs(g, 0)
        gs_bridges = flow_bridges(g, dt)
        for h in level1:
            if h.graph.n <= 1 or scc(h.graph).count != 1:
                continue
            rev = h.graph.reverse()
            rev_bridges = flow_bridges(rev, dominator_tree(rev, 0))
            for e in strong_bridges(h.graph):
                if h.orig_edge[e] in gs_bridges:
                    continue
                if h.entering_bridge != -1 and h.graph.head(e) == h.graph.n - 1:
                    continue
                assert e in rev_bridges


def test_second_level_api():
    h = aux_graphs(g1(), 0)[1][0]
    level2 = aux_graphs(h.graph.reverse(), 0, h)[1]
    assert [aux.entering_bridge for aux in level2] == [-1]  # H^R(0) has no bridges
    # every second-level graph of a path-like graph has <= 1 ordinary vertex
    g = g2()
    for h in aux_graphs(g, 0)[1]:
        rev = h.graph.reverse()
        dtr, level2 = aux_graphs(rev, 0, h)
        assert dtr == dominator_tree(rev, 0)
        assert dtr.dfs_order[0] == 0 and dtr.idom[0] == -1
        for aux in level2:
            if aux.entering_bridge != -1:
                assert aux.orig_edge[aux.entering_bridge] in {0, 1, 2}
            assert sum(aux.is_ordinary) <= 1


def test_second_level_contains_g5_block():
    found = False
    for h in aux_graphs(g5(), 0)[1]:
        for aux in aux_graphs(h.graph.reverse(), 0, h)[1]:
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
    local vertex d(r) and enters the root r, local vertex 0."""
    pairs = g.edge_pairs()
    for e, (t, hd) in enumerate(aux.graph.edge_pairs()):
        if aux.is_ordinary[t] and aux.is_ordinary[hd]:
            ends = (aux.orig_vertex[t], aux.orig_vertex[hd])
            assert pairs[aux.orig_edge[e]] == (ends[::-1] if reverse else ends)
    if aux.entering_bridge != -1:
        out_start, out_eids, _ = aux.graph.out_lists()
        d_r = aux.graph.n - 1
        assert out_eids[out_start[d_r]:out_start[d_r + 1]] == [aux.entering_bridge]
        assert aux.graph.head(aux.entering_bridge) == 0


def test_second_level_maps_into_the_input_graph():
    rng = random.Random(67)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [road_grid(12, 0.12, 0.55, 1)]:
        for h in aux_graphs(g, 0)[1]:
            _check_aux_contract(g, h, reverse=False)
            level2 = aux_graphs(h.graph.reverse(), 0, h)[1]
            assert [aux.entering_bridge == -1 for aux in level2] == (
                [True] + [False] * (len(level2) - 1))
            for aux in level2:
                _check_aux_contract(g, aux, reverse=True)


def _both_ordinary(aux) -> list[int]:
    """Local vertices of a second-level graph ordinary at both levels."""
    return [v for v in range(aux.graph.n) if aux.is_ordinary[v]]


def _aux_fields(aux):
    return (aux.orig_edge, aux.orig_vertex, aux.is_ordinary, aux.entering_bridge,
            aux.graph.edge_pairs())


def _blocks_from_kept_graphs(g) -> Partition:
    """Blocks read off only the second-level graphs that `blocks_only` keeps,
    after checking that they are exactly the full list's graphs with at least
    2 vertices ordinary at both levels."""
    dsu = _DSU(g.n)
    for h in aux_graphs(g, 0)[1]:
        rev = h.graph.reverse()
        dtr, full = aux_graphs(rev, 0, h)
        dtr_kept, kept = aux_graphs(rev, 0, h, blocks_only=True)
        assert dtr_kept == dtr
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


def _random_multigraph(rng: random.Random, n: int) -> Digraph:
    """Strongly connected multigraph: a cycle through all n vertices plus
    random arcs (loops allowed), some arcs doubled and some loops added, in
    random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    arcs += rng.sample(arcs, rng.randint(1, len(arcs) // 2 + 1))
    arcs += [(v, v) for v in rng.sample(range(n), rng.randint(0, 2))]
    rng.shuffle(arcs)
    return Digraph(n, [t for t, _ in arcs], [h for _, h in arcs])


def test_components_of_multigraphs_match_oracle():
    # the peel counts parallel edges and ignores loops: vertex 3 has exactly
    # two parallel out-edges and stays in the component, while a loop does
    # not make up for its missing second out-edge
    triangle = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)]
    doubled = triangle + [(3, 0), (3, 0), (1, 3), (2, 3)]
    looped = triangle + [(3, 0), (3, 3), (1, 3), (2, 3)]
    for arcs, want in ((doubled, [0, 0, 0, 0]), (looped, [0, 0, 0, 1])):
        g = Digraph(4, [t for t, _ in arcs], [h for _, h in arcs])
        assert components(g).comp.tolist() == want
        assert components(g) == oracle_components(g)
    assert components(Digraph(0, [], [])).count == 0
    assert components(Digraph(1, [0, 0], [0, 0])).comp.tolist() == [0]
    rng = random.Random(59)
    for _ in range(150):
        g = _random_multigraph(rng, rng.randint(2, 8))
        assert components(g) == oracle_components(g)


def _components_by_bridge_removal(g) -> Partition:
    """Reference 2EC components: delete every strong bridge of each piece
    and split it into SCCs, until every piece is bridgeless."""
    label = list(range(g.n))
    queue = [(g, list(range(g.n)))]
    while queue:
        piece, orig = queue.pop()
        sb = strong_bridges(piece)
        if not sb:
            for v in orig:
                label[v] = min(orig)
            continue
        rest = piece.subgraph_edges([e for e in piece.edge_ids.tolist() if e not in sb])
        for cls in scc(rest).classes():
            if len(cls) >= 2:
                queue.append((induced_subgraph(rest, cls), [orig[v] for v in cls.tolist()]))
    return Partition(label)


def _dense_cert_graph(graph_seed: int):
    """The benchmark's dense-cert graph: the largest SCC of 1400 arcs with
    uniform tail and head over 350 vertices, loops and duplicates dropped."""
    rng = np.random.default_rng(graph_seed)
    tails = rng.integers(0, 350, 1400).tolist()
    heads = rng.integers(0, 350, 1400).tolist()
    return largest_scc(build(350, sorted({(t, h) for t, h in zip(tails, heads) if t != h})))


@pytest.mark.parametrize("make", [
    lambda: road_grid(14, 0.12, 0.55, 1),
    lambda: road_grid(30, 0.12, 0.55, 1),
    lambda: _dense_cert_graph(1),
    lambda: _dense_cert_graph(2),
], ids=["road-grid-14", "road-grid-30", "dense-cert-1", "dense-cert-2"])
def test_components_match_bridge_removal_at_scale(make):
    g = make()
    part = components(g)
    assert part == _components_by_bridge_removal(g)
    assert any(size >= 2 for size in part.sizes().tolist())


def _strong_bridge_passes(monkeypatch, g) -> int:
    """How many strong-bridge computations `components(g)` makes."""
    module = importlib.import_module("twoec.blocks")
    calls = []
    inner = module._strong_bridges
    monkeypatch.setattr(module, "_strong_bridges", lambda h: calls.append(h.n) or inner(h))
    components(g)
    return len(calls)


def test_peeling_spares_strong_bridge_passes(monkeypatch):
    # iterated removal alone makes 12 passes on dense-cert and 233 on the
    # side-60 road grid
    assert _strong_bridge_passes(monkeypatch, _dense_cert_graph(1)) <= 2
    assert _strong_bridge_passes(monkeypatch, road_grid(60, 0.12, 0.55, 1)) < 233 / 2


def test_nontrivial_components_sit_inside_blocks():
    rng = random.Random(47)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        b = blocks(g)
        c = components(g)
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
