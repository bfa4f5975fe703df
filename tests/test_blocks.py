import importlib
import random
import time
from bisect import bisect_right

import numpy as np
import pytest

from twoec import digraph, filters, spanning
from twoec.blocks import (
    _components, _contract, _decompose, _regions, aux_graphs, blocks, components, condense,
    preservation_violations,
)
from twoec.certificates import (
    _condensed, ist_b, ist_b_original, ist_bc, two_ecss_edt, zni_c, zni_scss,
)
from twoec.digraph import (
    Digraph, GraphError, Partition, build, induced_subgraph, is_strongly_connected, scc,
)
from twoec.dominators import dominator_tree, flow_bridges, strong_bridges
from twoec.filters import FilterConfig, filter_b
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid,
)

from graph_builders import corpus, dense_cert_graph, stdlib_uniform_digraph
from oracle import (
    OracleBudget, oracle_blocks, oracle_components, two_edge_connected_pair,
)


def _classes(part: Partition) -> list[np.ndarray]:
    """The vertices of each class of `part`, ascending, in class order."""
    return [np.flatnonzero(part.comp == c) for c in range(part.count)]


def _roots(auxes) -> list[int]:
    """The marked vertex r of every aux graph: local vertex 0."""
    return [int(a.vertex_origin[0]) for a in auxes]


def _ordinary(aux) -> list[int]:
    """The local vertices of `aux` that stand for one input vertex: those
    ordinary at its level, and at the first level too for a second-level
    graph."""
    return [v for v, orig in enumerate(aux.vertex_origin.tolist()) if orig >= 0]


def test_canonical_decomposition_fixtures():
    auxes = aux_graphs(g1(), 0)[1]
    assert _roots(auxes) == [0]
    assert len(_ordinary(auxes[0])) == g1().n     # one tree holds every vertex

    assert _roots(aux_graphs(g2(), 0)[1]) == [0, 1, 2]
    assert _roots(aux_graphs(g4(), 0)[1]) == [0, 1, 2, 3, 4, 5]


def test_first_level_aux_graph_g1_is_whole():
    auxes = aux_graphs(g1(), 0)[1]
    assert len(auxes) == 1
    a = auxes[0]
    assert len(_ordinary(a)) == a.n and a.m == 6


def test_first_level_aux_graph_g2_middle():
    auxes = aux_graphs(g2(), 0)[1]
    by_root = dict(zip(_roots(auxes), auxes))
    mid = by_root[1]
    assert len(_ordinary(mid)) == 1
    assert mid.n == 3  # ordinary 1 plus contractions of both sides


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
        total_v = sum(a.n for a in auxes)
        total_e = sum(a.m for a in auxes)
        assert total_v <= g.n + 2 * len(br)
        assert total_e <= 2 * (g.m + g.n + 3 * len(br))


def test_ordinary_vertex_soundness():
    # two ordinary vertices of an aux graph are 2EC there iff 2EC originally
    rng = random.Random(37)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        whole = oracle_blocks(g)
        for a in aux_graphs(g, 0)[1]:
            local = oracle_blocks(a) if a.n <= 12 else None
            if local is None:
                continue
            ordinary = _ordinary(a)
            for i in ordinary:
                for j in ordinary:
                    if i < j:
                        oi, oj = int(a.vertex_origin[i]), int(a.vertex_origin[j])
                        assert ((local.comp[i] == local.comp[j])
                                == (whole.comp[oi] == whole.comp[oj]))


def test_lemma_strong_bridge_reversal():
    # a strong bridge of a first-level aux graph that is not a bridge of G(s)
    # shows up reversed as a bridge of H^R(r); escape edges into the d(r)
    # contraction target are exempt (their reverse enters the root)
    rng = random.Random(41)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        dt, auxes = aux_graphs(g, 0)
        gs_bridges = flow_bridges(g, dt)
        for h in auxes:
            if h.n <= 1 or scc(h).count != 1:
                continue
            rev = h.reverse()
            rev_bridges = flow_bridges(rev, dominator_tree(rev, 0))
            for e in strong_bridges(h):
                if int(h.origin[e]) in gs_bridges:
                    continue
                if h.vertex_origin[0] != 0 and h.head(e) == h.n - 1:
                    continue
                assert e in rev_bridges


def _left_out(aux) -> list[int]:
    """The edge ids of `aux` that it leaves out of its `edge_ids`."""
    return sorted(set(range(len(aux.origin))) - set(aux.edge_ids.tolist()))


def _entering_bridge(aux) -> list[int]:
    """The edges d(r) -> r of the auxiliary graph of a marked vertex r other
    than the start vertex: from its last local vertex into local vertex 0."""
    pairs = zip(aux.tails.tolist(), aux.heads.tolist())
    return [e for e, p in enumerate(pairs) if p == (aux.n - 1, 0)]


def _per_first_level_graph(second) -> list[list[tuple]]:
    """The graphs of the second-level layout, each with its blocks, grouped
    by the H^R they come from, in C's order: those of H^R i begin between
    ``cuts[i]`` and ``cuts[i + 1]``."""
    _, starts, cuts, _ = second
    regions = list(zip((v0 for v0, _ in starts), _regions(second)))
    return [[r for v0, r in regions if lo <= v0 < hi] for lo, hi in zip(cuts, cuts[1:])]


def test_second_level_api():
    second = _decompose(g1(), 0)[-1]
    assert [_left_out(aux) for aux, _ in _regions(second)] == [[]]   # graphs come whole
    assert _left_out(second[0]) == []                     # H^R(0) has no bridges
    # every second-level graph of a path-like graph has <= 1 ordinary vertex
    g = g2()
    _, _, (flow, flow_dt, starts), _, second = _decompose(g, 0)
    spans = zip(starts, starts[1:])
    for h, ((v0, e0), (v1, e1)), regions in zip(aux_graphs(g, 0)[1], spans,
                                                 _per_first_level_graph(second), strict=True):
        assert _aux_fields(_cut(flow, v0, e0, v1, e1)) == _aux_fields(h.reverse())
        # H^R's part of C's DFS order starts at its root, right below z
        assert flow_dt.dfs_order[v0 + 1] == v0 and flow_dt.idom[v0] == flow.n - 1
        for j, (aux, _) in enumerate(regions):
            assert _left_out(aux) == []
            bridge = [] if j == 0 else _entering_bridge(aux)
            assert [int(aux.origin[e]) for e in bridge] in ([], [0], [1], [2])
            assert len(_ordinary(aux)) <= 1


def _check_layout_leaves_out_the_entering_bridges(layout, roots: list[int]) -> None:
    """The `edge_ids` of a layout leave out exactly the entering bridge of
    each of its graphs but the one of each flow graph's start vertex: the
    graph whose first local vertex stands for ``roots[j]``, among those of
    flow graph j, which begin between ``cuts[j]`` and ``cuts[j + 1]``."""
    aux, starts, cuts = layout[:3]
    assert len(cuts) == len(roots) + 1 and cuts[-1] == aux.n
    tails, heads = aux.tails.tolist(), aux.heads.tolist()
    vertex_origin = aux.vertex_origin.tolist()
    want = []
    for (v0, e0), (v1, e1) in zip(starts, starts[1:]):
        bridge = [e for e in range(e0, e1) if (tails[e], heads[e]) == (v1 - 1, v0)]
        if vertex_origin[v0] != roots[bisect_right(cuts, v0) - 1]:
            assert len(bridge) == 1
            want += bridge
    assert _left_out(aux) == want


def test_layouts_leave_out_exactly_the_entering_bridges():
    rng = random.Random(79)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [g2(), g4(), g5(), road_grid(12, 0.12, 0.55, 1)]:
        dt = dominator_tree(g, 0)
        _check_layout_leaves_out_the_entering_bridges(_contract(g, dt), [0])
        roots = _roots(aux_graphs(g, 0)[1])
        for blocks_only in (False, True):
            _check_layout_leaves_out_the_entering_bridges(_decompose(g, 0, blocks_only)[-1],
                                                          roots)


def test_second_level_contains_g5_block():
    found = False
    for aux, part in _regions(_decompose(g5(), 0)[-1]):
        assert part == blocks(aux)
        for cls in _classes(part):
            orig = {int(aux.vertex_origin[v]) for v in cls.tolist()} - {-1}
            if {0, 1} <= orig:
                found = True
    assert found


def _check_aux_contract(g, aux, second_level: bool, at_start: bool) -> None:
    """An edge between two ordinary vertices of `aux` maps to the edge of `g`
    between the vertices they stand for, reversed at the second level, which
    is built on a reverse graph.  Every edge of `aux` is among its edge ids.
    Unless r is the start vertex, one entering bridge d(r) -> r leaves the
    last local vertex and enters the root, local vertex 0, and it is the
    only edge out of d(r), at both levels."""
    pairs = g.edge_pairs()
    tails, heads = aux.tails.tolist(), aux.heads.tolist()
    origin, vertex_origin = aux.origin.tolist(), aux.vertex_origin.tolist()
    assert len(tails) == len(heads) == len(origin)
    for e in range(len(tails)):
        ends = (vertex_origin[tails[e]], vertex_origin[heads[e]])
        if min(ends) >= 0:
            assert pairs[origin[e]] == (ends[::-1] if second_level else ends)
    assert _left_out(aux) == []
    if at_start:
        return
    d_r = aux.n - 1
    bridge = _entering_bridge(aux)
    out_start, out_eids, _ = aux.out_lists()
    assert len(bridge) == 1
    assert out_eids[out_start[d_r]:out_start[d_r + 1]] == bridge


def test_second_level_maps_into_the_input_graph():
    rng = random.Random(67)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [road_grid(12, 0.12, 0.55, 1)]:
        levels = zip(aux_graphs(g, 0)[1], _per_first_level_graph(_decompose(g, 0)[-1]),
                     strict=True)
        for i, (h, regions) in enumerate(levels):
            _check_aux_contract(g, h, second_level=False, at_start=i == 0)
            for j, (aux, _) in enumerate(regions):
                _check_aux_contract(g, aux, second_level=True, at_start=j == 0)


def _check_second_level_is_aux_graphs_of_rev(g) -> None:
    """The second-level graphs that the walk reads for each first-level
    graph H are `aux_graphs(rev, 0)` of H's reverse rev, with their maps
    composed through rev's."""
    second = _per_first_level_graph(_decompose(g, 0)[-1])
    for h, regions in zip(aux_graphs(g, 0)[1], second, strict=True):
        rev = h.reverse()
        rev_edge, rev_vertex = rev.origin.tolist(), rev.vertex_origin.tolist()
        for want, (got, _) in zip(aux_graphs(rev, 0)[1], regions, strict=True):
            assert got.tails.tolist() == want.tails.tolist()
            assert got.heads.tolist() == want.heads.tolist()
            assert got.edge_ids.tolist() == want.edge_ids.tolist()
            assert got.origin.tolist() == [rev_edge[e] for e in want.origin.tolist()]
            assert got.vertex_origin.tolist() == [rev_vertex[v] if v >= 0 else -1
                                                  for v in want.vertex_origin.tolist()]


def test_second_level_is_aux_graphs_of_rev():
    rng = random.Random(83)
    graphs = list(corpus().values())
    graphs += [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(40)]
    graphs += [_random_multigraph(rng, rng.randint(2, 12)) for _ in range(40)]
    graphs += [road_grid(18, 0.12, 0.55, 1), dense_cert_graph()]
    for g in graphs:
        _check_second_level_is_aux_graphs_of_rev(g)


def _check_one_flow_graph_per_reversed_level(g) -> None:
    """The reversed first level is one flow graph C: the layout's reverse
    plus a virtual root z with one arc, mapped to -1, to each H^R's root.
    C holds each first-level graph H reversed, rev, at its place in the
    layout, and C's one tree holds `dominator_tree(rev, 0)` at offset v0,
    and at v0 + 1 in `pre`, `post` and `dfs_order`, which start at z: the
    DFS visits z, then each H^R whole, in order.  No z-arc reaches a layout
    or a certificate: their edges all map into g."""
    in_g = set(range(len(g.tails)))
    _, _, (flow, flow_dt, starts), _, second = _decompose(g, 0)
    z, layout_edges = starts[-1]
    roots = [v0 for v0, _ in starts[:-1]]
    assert flow.n == z + 1 and flow.m == len(flow.tails) == layout_edges + len(roots)
    assert flow.tails[layout_edges:].tolist() == [z] * len(roots)
    assert flow.heads[layout_edges:].tolist() == roots
    assert flow.origin[layout_edges:].tolist() == [-1] * len(roots)
    assert set(flow.origin[:layout_edges].tolist()) <= in_g
    assert flow_dt.dfs_order[0] == z
    assert [flow_dt.idom[r] for r in roots] == [z] * len(roots)
    spans = zip(starts, starts[1:])
    for ((v0, e0), (v1, e1)), h in zip(spans, aux_graphs(g, 0)[1], strict=True):
        rev = h.reverse()
        assert (rev.n, len(rev.tails)) == (v1 - v0, e1 - e0)
        assert _aux_fields(_cut(flow, v0, e0, v1, e1)) == _aux_fields(rev)
        want = dominator_tree(rev, 0)
        assert [p - v0 for p in flow_dt.idom[v0 + 1:v1]] == want.idom[1:]
        for field in ("pre", "post"):
            assert [t - v0 - 1 for t in getattr(flow_dt, field)[v0:v1]] == getattr(want, field)
        assert [v - v0 for v in flow_dt.dfs_order[v0 + 1:v1 + 1]] == want.dfs_order
        assert set(rev.origin.tolist()) <= in_g
    assert set(second[0].origin.tolist()) <= in_g
    assert ist_b(g)[0] <= in_g
    assert ist_b_original(g) <= in_g


def test_one_flow_graph_per_reversed_first_level():
    rng = random.Random(89)
    graphs = list(corpus().values())
    graphs += [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(40)]
    graphs += [_random_multigraph(rng, rng.randint(2, 12)) for _ in range(40)]
    graphs += [road_grid(18, 0.12, 0.55, 1), dense_cert_graph()]
    for g in graphs:
        _check_one_flow_graph_per_reversed_level(g)


@pytest.mark.parametrize("side", [18, 60])
def test_two_dominator_trees_per_walk(monkeypatch, side):
    # one for G(s) and one for the reversed first level C, however many
    # first-level graphs there are, and one flow_bridges pass on each; the
    # certificate builds the local graphs of G(s) and of C once each
    g = road_grid(side, 0.12, 0.55, 1)
    trees, bridged, locals_built = [], [], []
    for module in ("twoec.blocks", "twoec.dominators"):
        monkeypatch.setattr(importlib.import_module(module), "dominator_tree",
                            lambda h, s: trees.append(h) or dominator_tree(h, s))
        monkeypatch.setattr(importlib.import_module(module), "flow_bridges",
                            lambda h, dt: bridged.append(h) or flow_bridges(h, dt))
    init = spanning._Locals.__init__
    monkeypatch.setattr(spanning._Locals, "__init__",
                        lambda self, h, dt: locals_built.append(h) or init(self, h, dt))
    blocks(g)
    assert len(trees) == 2 and not locals_built
    assert bridged == trees
    trees.clear()
    bridged.clear()
    ist_b(g)
    assert len(trees) == len(locals_built) == 2
    assert bridged == trees
    assert locals_built[0] is g and locals_built[1] is trees[1]
    assert len(aux_graphs(g, 0)[1]) > 50


def _tree_members(g, dt) -> list[list[int]]:
    """The members of each tree of the canonical decomposition of G(s), in
    dominator-respecting preorder, by ascending marked root."""
    heads = {g.head(e) for e in flow_bridges(g, dt)}
    root: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for v in dt.dfs_order:
        root[v] = v if dt.idom[v] == -1 or v in heads else root[dt.idom[v]]
        members.setdefault(root[v], []).append(v)
    return [members[r] for r in sorted(members)]


def test_every_vertex_is_ordinary_in_one_graph_per_level():
    # blocks() labels each vertex from the one second-level graph where it is
    # ordinary at both levels; -1 marks exactly the contracted local vertices:
    # the marked children, d(r), and members contracted at the first level
    rng = random.Random(71)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [road_grid(12, 0.12, 0.55, 1), stdlib_uniform_digraph(350, 1400, 1)]:
        dt, *_, second = _decompose(g, 0)
        level1, level2 = aux_graphs(g, 0)[1], []
        groups = _per_first_level_graph(second)
        for h, regions, members in zip(level1, groups, _tree_members(g, dt), strict=True):
            assert h.vertex_origin.tolist() == members + [-1] * (h.n - len(members))
            h_vertex, rev = h.vertex_origin.tolist(), h.reverse()
            auxes = [aux for aux, _ in regions]
            for aux, members2 in zip(auxes, _tree_members(rev, dominator_tree(rev, 0)),
                                     strict=True):
                want = [h_vertex[v] for v in members2]
                assert aux.vertex_origin.tolist() == want + [-1] * (aux.n - len(want))
            level2 += auxes
        for level in (level1, level2):
            ordinary = [v for aux in level for v in aux.vertex_origin.tolist() if v >= 0]
            assert sorted(ordinary) == list(range(g.n))


def test_each_label_is_the_first_ordinary_vertex_of_its_scc():
    # a block's label is the input vertex of its first layout vertex that
    # is ordinary at both levels; a vertex in no kept graph labels itself
    rng = random.Random(97)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(40)]
    for g in graphs + [road_grid(18, 0.12, 0.55, 1), dense_cert_graph()]:
        for blocks_only in (False, True):
            *_, label, (aux, _, _, part) = _decompose(g, 0, blocks_only)
            vertex = aux.vertex_origin.tolist()
            want = list(range(g.n))
            for cls in _classes(part):
                ordinary = [vertex[x] for x in cls.tolist() if vertex[x] >= 0]
                for v in ordinary:
                    want[v] = ordinary[0]
            assert label == want


def _cut(flow, v0: int, e0: int, v1: int, e1: int) -> Digraph:
    """The graph on vertices v0 to v1 - 1 and edges e0 to e1 - 1 of the
    flow graph C, numbered as if built alone: an H^R where it sits in C."""
    return Digraph(v1 - v0, flow.tails[e0:e1] - v0, flow.heads[e0:e1] - v0,
                   origin=flow.origin[e0:e1], vertex_origin=flow.vertex_origin[v0:v1])


def _aux_fields(aux):
    return (aux.origin.tolist(), aux.vertex_origin.tolist(), aux.n,
            aux.tails.tolist(), aux.heads.tolist(), aux.edge_ids.tolist())


def _blocks_from_kept_graphs(g) -> Partition:
    """The blocks that the walk with `blocks_only` reads off the SCCs of the
    second-level graphs it builds, after checking that they are exactly the
    full walk's graphs with at least 2 vertices ordinary at both levels,
    each under the H^R it comes from.  It skips exactly the H^R with fewer
    than 2 ordinary vertices, on the same flow graph C with the same tree."""
    *_, (flow, flow_dt, starts), _, full_second = _decompose(g, 0)
    *_, (flow_kept, flow_dt_kept, starts_kept), label, kept_second = _decompose(
        g, 0, blocks_only=True)
    assert _aux_fields(flow_kept) == _aux_fields(flow) and starts_kept == starts
    assert flow_dt_kept == flow_dt
    for h, full, kept in zip(aux_graphs(g, 0)[1], _per_first_level_graph(full_second),
                             _per_first_level_graph(kept_second), strict=True):
        kept_h = len(_ordinary(h)) >= 2
        want = [aux for aux, _ in full if kept_h and len(_ordinary(aux)) >= 2]
        assert [_aux_fields(a) for a, _ in kept] == [_aux_fields(a) for a in want]
    return Partition(label)


def test_blocks_only_keeps_every_block_random():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(4, 60)
        g = random_strongly_connected(rng, n, rng.choice([None, 3 * n]))
        part = _blocks_from_kept_graphs(g)
        assert part == blocks(g)
        if n <= 30:
            assert part == oracle_blocks(g, OracleBudget(max_pairwise_n=30))


@pytest.mark.parametrize("make", [
    lambda: road_grid(18, 0.12, 0.55, 1),
    lambda: stdlib_uniform_digraph(350, 1400, 1),
], ids=["road-grid-18", "stdlib-350-1400"])
def test_blocks_only_keeps_every_block_at_scale(make):
    # the pairwise oracle is quadratic, so at this size every vertex is
    # flow-checked against the first vertex of its block only
    g = make()
    part = _blocks_from_kept_graphs(g)
    assert part == blocks(g)
    nontrivial = [cls.tolist() for cls in _classes(part) if len(cls) >= 2]
    assert nontrivial
    for cls in nontrivial:
        for v in cls[1:]:
            assert two_edge_connected_pair(g, cls[0], v)


# Graphs with few and with many first-level graphs (5 to 866)
COUNTED = {
    "g4": g4, "g5": g5,
    "road-12": lambda: road_grid(12, 0.12, 0.55, 1),
    "road-18": lambda: road_grid(18, 0.12, 0.55, 1),
    "road-18-bridged": lambda: road_grid(18, 0.12, 0.2, 1),
    "road-60": lambda: road_grid(60, 0.12, 0.55, 1),
    "road-60-bridged": lambda: road_grid(60, 0.12, 0.2, 1),
}


def test_blocks_builds_no_graph_beyond_the_aux_graphs(monkeypatch):
    # one layout per level and C, the reverse of the first: a blocks() call
    # builds 3 graphs however many first-level graphs there are
    built = []
    init = Digraph.__init__
    for make in COUNTED.values():
        g = make()
        with monkeypatch.context() as patch:
            patch.setattr(Digraph, "__init__",
                          lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
            built.clear()
            blocks(g)
        assert len(built) == 3


@pytest.mark.parametrize("make", COUNTED.values(), ids=COUNTED.keys())
def test_blocks_runs_one_second_level_scc(monkeypatch, make):
    # the whole second level is one layout and one scc call; with
    # blocks_only it holds fewer graphs
    g = make()
    passes = []
    monkeypatch.setattr(importlib.import_module("twoec.blocks"), "scc",
                        lambda h: passes.append(h) or scc(h))
    blocks(g)
    assert len(passes) == 1
    passes.clear()
    kept = _decompose(g, 0, blocks_only=True)[-1]
    assert passes == [kept[0]]
    assert len(kept[1]) < len(_decompose(g, 0)[-1][1])


@pytest.mark.parametrize("side, p_two_way", [(12, 0.55), (18, 0.55), (18, 0.2), (60, 0.55)])
def test_blocks_reads_adjacency_a_constant_number_of_times(monkeypatch, side, p_two_way):
    # out_lists() and in_lists() convert a CSR to lists on every call; a
    # blocks() call makes 7 such calls however many first-level graphs
    # there are
    g = road_grid(side, 0.12, p_two_way, 1)
    calls = []
    for name in ("out_lists", "in_lists"):
        read = getattr(Digraph, name)
        monkeypatch.setattr(Digraph, name,
                            lambda self, read=read: calls.append(self) or read(self))
    blocks(g)
    assert len(calls) == 7


@pytest.mark.parametrize("g, certificate, bridges, phases", [
    (g2(), [0, 1, 2], 2, (2, 1, 0)),
    (build(1, []), [], 0, (0, 0, 0)),
    (build(2, [(0, 1), (1, 0)]), [0, 1], 1, (1, 1, 0)),
], ids=["g2", "one-vertex", "two-cycle"])
def test_a_level_that_keeps_nothing_is_an_empty_layout(g, certificate, bridges, phases):
    # no second-level graph of these has 2 vertices ordinary at both
    # levels, so phase 3 adds no edge
    aux, starts, cuts, part = second = _decompose(g, 0, blocks_only=True)[-1]
    assert (aux.n, len(aux.tails), starts, part.count) == (0, 0, [(0, 0)], 0)
    assert cuts == [0] * (len(aux_graphs(g, 0)[1]) + 1)
    assert list(_regions(second)) == []
    edges, stats = ist_b(g)
    assert sorted(edges) == sorted(ist_b_original(g)) == certificate
    assert (stats.n, stats.n_prime, stats.bridges) == (g.n, 0, bridges)
    assert (stats.phase1_new, stats.phase2_new, stats.phase3_new) == phases


def _check_blocks_read_off_the_walk(g) -> None:
    """Every second-level graph of g with its entering bridge is strongly
    connected, and the aux filters' partition that `_regions` reads off its
    SCCs without the bridge is its blocks."""
    for aux, part in _regions(_decompose(g, 0)[-1]):
        assert is_strongly_connected(aux)
        assert blocks(aux) == part


def test_second_level_blocks_are_read_off_the_walk():
    rng = random.Random(73)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    graphs += [_random_multigraph(rng, rng.randint(2, 12)) for _ in range(60)]
    graphs += [road_grid(18, 0.12, p, 1) for p in (0.2, 0.55, 0.9)]
    for g in graphs:
        view = g.subgraph_edges(sorted(ist_b(g)[0]))
        _check_blocks_read_off_the_walk(g)
        _check_blocks_read_off_the_walk(view)


@pytest.mark.parametrize("strategy, calls", [("test2edp", 0), ("hybrid", 186)])
def test_aux_filter_calls_blocks_only_in_block_tests(monkeypatch, strategy, calls):
    # the second level comes with each graph's starting partition, so the
    # only blocks() calls are hybrid's block tests; this grid has 187 graphs
    seen = []
    monkeypatch.setattr(filters, "blocks", lambda g: seen.append(g) or blocks(g))
    filter_b(road_grid(18, 0.12, 0.55, 1), FilterConfig(strategy=strategy, on_aux_graphs=True))
    assert len(seen) == calls


def test_preservation_check_runs_one_tarjan_pass_on_the_subgraph(monkeypatch):
    g = road_grid(12, 0.12, 0.55, 1)
    edges = ist_bc(g)
    subs, passes = [], []
    subgraph_edges = Digraph.subgraph_edges

    def recording_subgraph_edges(self, *args, **kwargs):
        subs.append(subgraph_edges(self, *args, **kwargs))
        return subs[-1]

    def counting_scc(h):
        passes.append(h)
        return scc(h)

    monkeypatch.setattr(Digraph, "subgraph_edges", recording_subgraph_edges)
    monkeypatch.setattr(digraph, "scc", counting_scc)
    monkeypatch.setattr(importlib.import_module("twoec.blocks"), "scc", counting_scc)
    for problem in ("B", "C", "BC"):
        subs.clear()
        passes.clear()
        assert preservation_violations(g, edges, problem) == []
        assert sum(h is subs[0] for h in passes) == 1


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


_AT_SCALE = pytest.mark.parametrize("make", [
    lambda: road_grid(14, 0.12, 0.55, 1),
    lambda: road_grid(30, 0.12, 0.55, 1),
    lambda: dense_cert_graph(1),
    lambda: dense_cert_graph(2),
], ids=["road-grid-14", "road-grid-30", "dense-cert-1", "dense-cert-2"])


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
        for cls in _classes(scc(rest)):
            if len(cls) >= 2:
                queue.append((induced_subgraph(rest, cls), [orig[v] for v in cls.tolist()]))
    return Partition(label)


@_AT_SCALE
def test_components_match_bridge_removal_at_scale(make):
    g = make()
    part = components(g)
    assert part == _components_by_bridge_removal(g)
    assert any(size >= 2 for size in part.sizes().tolist())


def _strong_bridge_passes(monkeypatch, g) -> int:
    """How many strong-bridge passes `components(g)` makes: every pass,
    the last one on each component too, goes through `_strong_bridges`."""
    module = importlib.import_module("twoec.blocks")
    calls = []
    inner = module._strong_bridges
    with monkeypatch.context() as patch:
        patch.setattr(module, "_strong_bridges", lambda h: calls.append(h.n) or inner(h))
        components(g)
    return len(calls)


def test_peeling_spares_strong_bridge_passes(monkeypatch):
    # iterated removal alone makes 12 passes on dense-cert and 233 on the
    # side-60 road grid; dense-cert has a nontrivial component, whose
    # bridgeless pass must be counted
    assert 1 <= _strong_bridge_passes(monkeypatch, dense_cert_graph(1)) <= 2
    assert _strong_bridge_passes(monkeypatch, road_grid(60, 0.12, 0.55, 1)) < 233 / 2


def _subgraph_scan(monkeypatch, run) -> int:
    """The summed n + m of the graphs that `run()` builds induced subgraphs
    of, through either digraph function, in `blocks` and `certificates`."""
    scanned = []
    with monkeypatch.context() as patch:
        for name in ("twoec.blocks", "twoec.certificates"):
            module = importlib.import_module(name)
            for fn in ("induced_subgraph", "induced_subgraphs"):
                if hasattr(module, fn):
                    inner = getattr(module, fn)
                    patch.setattr(module, fn, lambda g, *rest, inner=inner:
                                  scanned.append(g.n + g.m) or inner(g, *rest))
        run()
    return sum(scanned)


@pytest.mark.parametrize("side", [60, 100])
def test_component_subgraphs_scan_the_parent_a_few_times(monkeypatch, side):
    # one induced subgraph per class of every split scanned 47.5 and 84.9
    # (n + m) in components(), and 143.5 and 323.9 in _condensed
    g = road_grid(side, 0.12, 0.55, 1)
    for run in (lambda: components(g), lambda: _condensed(g, cap=1)):
        assert 0 < _subgraph_scan(monkeypatch, run) <= 6 * (g.n + g.m)


@pytest.mark.slow
def test_component_algorithms_keep_their_side_300_budgets():
    # budgets in dominator-tree passes (dt) on the same graph, so that they
    # do not depend on the machine's speed; each time is the best of a few
    # runs, as noise only adds time
    g = road_grid(300, 0.12, 0.55, 1)

    def best(run, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.process_time()
            run()
            times.append(time.process_time() - start)
        return min(times)

    dt = best(lambda: dominator_tree(g, 0), 3)
    assert best(lambda: components(g), 2) <= 9 * dt
    assert best(lambda: zni_c(g), 2) <= 15 * dt


def _view_with_gaps():
    """A 2-edge-connected graph as a view whose edge ids have gaps: one of
    the three copies of each edge of a bidirected 5-cycle with two chords."""
    cycle = [(v, (v + 1) % 5) for v in range(5)] + [((v + 1) % 5, v) for v in range(5)]
    tripled = build(5, [e for e in cycle + [(0, 2), (2, 4)] for _ in range(3)], allow_multi=True)
    return tripled.subgraph_edges([e for e in range(tripled.m) if e % 3 == 0])


@_AT_SCALE
def test_condensed_2ecss_of_each_component_matches_two_ecss_edt(make):
    _check_condensed_2ecss(make())


def test_condensed_2ecss_of_a_2ec_view_keeps_its_edge_ids():
    # g is its own one component, so the component's edge map spans g's ids
    g = _view_with_gaps()
    _check_condensed_2ecss(g)
    edges, _ = _condensed(g, cap=2)
    [(sub, _)] = _components(g)[1]
    assert components(g).count == 1 and sub.n == g.n
    assert set(edges) <= set(g.edge_ids.tolist()) and max(edges) >= g.m


def test_condensed_2ecss_of_multigraph_components_matches_two_ecss_edt():
    rng = random.Random(61)
    for _ in range(150):
        _check_condensed_2ecss(_random_multigraph(rng, rng.randint(2, 8)))


def _check_condensed_2ecss(g):
    """`_condensed` hands every component with its trees to the 2ECSS: its
    edges must be those of `two_ecss_edt` on the component's own copy, in g's
    edge ids, component by component and ascending within one."""
    classes = [cls for cls in _classes(components(g)) if len(cls) >= 2]
    pieces = _components(g)[1]
    assert len(pieces) == len(classes)
    # without g's own maps (a road grid has them), `origin` points into g
    plain = Digraph(g.n, g.tails, g.heads, edge_ids=g.edge_ids)
    want = []
    for (sub, _), cls in zip(pieces, classes):
        own = induced_subgraph(plain, cls)
        assert sub.vertex_origin.tolist() == cls.tolist()
        want += sorted(int(own.origin[e]) for e in two_ecss_edt(own))
    assert _condensed(g, cap=2)[0] == want


def test_nontrivial_components_sit_inside_blocks():
    rng = random.Random(47)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        b = blocks(g)
        c = components(g)
        for cls in _classes(c):
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
    assert cond.edge_ids.tolist() == list(range(8))
    mapped = sorted((int(comp.comp[g.tail(e)]), int(comp.comp[g.head(e)])) for e in range(8))
    assert mapped == sorted(cond.edge_pairs())


def test_condense_linked_triangles():
    g = linked_triangles()
    cond = condense(g, components(g), cap=2)
    assert cond.n == 2
    assert cond.m == 2
    assert cond.edge_ids.tolist() == [12, 13]
    assert sorted(cond.edge_pairs()) == [(0, 1), (1, 0)]


def test_condense_caps_parallel_edges():
    # three parallel edges 0 -> 1 between the two supervertices of a
    # partition; the lowest ids survive, up to `cap`
    g = build(4, [(0, 2), (2, 0), (1, 3), (3, 1), (0, 1), (2, 3), (0, 3), (3, 0)])
    part = Partition(np.asarray([0, 1, 0, 1]))
    assert condense(g, part, cap=2).edge_ids.tolist() == [4, 5, 7]
    assert condense(g, part, cap=1).edge_ids.tolist() == [4, 7]
    with pytest.raises(GraphError):
        condense(g, Partition(np.asarray([0, 0])), cap=1)
    # loop reference: the first `cap` edges of every ordered pair, no loops,
    # on simple graphs, multigraphs with parallel edges and loops in random
    # order, views whose edge ids have gaps, and a graph with no edges
    rng = random.Random(53)
    graphs = [random_strongly_connected(rng, rng.randint(2, 12)) for _ in range(40)]
    graphs += [_random_multigraph(rng, rng.randint(2, 12)) for _ in range(40)]
    gapped = _view_with_gaps()
    graphs += [gapped, gapped.subgraph_edges(gapped.edge_ids[1::3]), Digraph(3, [], [])]
    for g in graphs:
        part = Partition(np.asarray([rng.randrange(4) for _ in range(g.n)]))
        for cap in (1, 2, 3):
            seen: dict = {}
            want = []
            for e, (t, h) in zip(g.edge_ids.tolist(), g.edge_pairs()):
                pair = (int(part.comp[t]), int(part.comp[h]))
                if pair[0] != pair[1] and seen.get(pair, 0) < cap:
                    seen[pair] = seen.get(pair, 0) + 1
                    want.append(e)
            cond = condense(g, part, cap)
            assert cond.n == part.count and cond.edge_ids.tolist() == want
            assert cond.origin is None and cond.vertex_origin is None
            # g's edge-id space: every edge of g, kept or not, has its classes
            assert cond.tails.tolist() == part.comp[g.tails].tolist()
            assert cond.heads.tolist() == part.comp[g.heads].tolist()


def test_algorithms_on_the_condensed_graph_answer_in_input_ids():
    # the condensed graph shares its input's edge ids, so what ist_b,
    # filter_b and zni_scss return on it are g's edges between two classes
    rng = random.Random(67)
    graphs = [road_grid(18, 0.12, 0.55, 1), dense_cert_graph(1)]
    graphs += [_random_multigraph(rng, rng.randint(4, 10)) for _ in range(30)]
    checked = 0
    for g in graphs:
        part = components(g)
        cond, comp = condense(g, part, 2), part.comp
        if cond.n <= 1:
            continue
        checked += 1
        for e in cond.edge_ids.tolist():
            assert (cond.tail(e), cond.head(e)) == (comp[g.tail(e)], comp[g.head(e)])
        for out in (ist_b(cond)[0], filter_b(cond).surviving, zni_scss(cond)):
            assert out <= set(cond.edge_ids.tolist())
            # read as g's edges and contracted, they strongly connect the classes
            kept = Digraph(cond.n, comp[g.tails], comp[g.heads], edge_ids=sorted(out))
            assert is_strongly_connected(kept)
    assert checked >= 10
