import importlib
import random
import time

import numpy as np
import pytest

from twoec.blocks import _decompose, aux_graphs, blocks, components, condense
from twoec.certificates import _condensed, two_ecss_edt, zni_c
from twoec.digraph import (
    Digraph, GraphError, Partition, build, induced_subgraph, scc,
)
from twoec.dominators import dominator_tree, flow_bridges, strong_bridges
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid,
)
from twoec.oracle import (
    OracleBudget, oracle_blocks, oracle_components, two_edge_connected_pair,
)

from graph_builders import dense_cert_graph, stdlib_uniform_digraph


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
        dt, _, _, walk = _decompose(g, 0)
        gs_bridges = flow_bridges(g, dt)
        for h, rev, dtr, _ in walk:
            if h.n <= 1 or scc(h).count != 1:
                continue
            rev_bridges = flow_bridges(rev, dtr)
            for e in strong_bridges(h):
                if int(h.origin[e]) in gs_bridges:
                    continue
                if h.vertex_origin[0] != 0 and h.head(e) == h.n - 1:
                    continue
                assert e in rev_bridges


def _left_out(aux) -> list[int]:
    """The local edge ids of `aux` that its graph leaves out: the entering
    bridge of a bridge-headed second-level graph, else none."""
    return sorted(set(range(len(aux.origin))) - set(aux.edge_ids.tolist()))


def test_second_level_api():
    [(_, _, _, level2)] = _decompose(g1(), 0)[-1]
    assert [_left_out(aux) for aux, _ in level2] == [[]]  # H^R(0) has no bridges
    # every second-level graph of a path-like graph has <= 1 ordinary vertex
    g = g2()
    for h, rev, dtr, level2 in _decompose(g, 0)[-1]:
        assert _aux_fields(rev) == _aux_fields(h.reverse())
        assert dtr == dominator_tree(rev, 0)
        assert dtr.dfs_order[0] == 0 and dtr.idom[0] == -1
        for aux, _ in level2:
            assert [int(aux.origin[e]) for e in _left_out(aux)] in ([], [0], [1], [2])
            assert len(_ordinary(aux)) <= 1


def test_second_level_contains_g5_block():
    found = False
    for *_, level2 in _decompose(g5(), 0)[-1]:
        for aux, part in level2:
            assert part == scc(aux)
            for cls in _classes(part):
                orig = {int(aux.vertex_origin[v]) for v in cls.tolist()} - {-1}
                if {0, 1} <= orig:
                    found = True
    assert found


def _check_aux_contract(g, aux, second_level: bool, at_start: bool) -> None:
    """An edge between two ordinary vertices of `aux` maps to the edge of `g`
    between the vertices they stand for, reversed at the second level, which
    is built on a reverse graph.  Unless r is the start vertex, one entering
    bridge d(r) -> r leaves the last local vertex and enters the root, local
    vertex 0: at the first level it is the only edge out of d(r), and a
    second-level graph leaves it out, so no edge of the graph leaves d(r)."""
    pairs = g.edge_pairs()
    tails, heads = aux.tails.tolist(), aux.heads.tolist()
    origin, vertex_origin = aux.origin.tolist(), aux.vertex_origin.tolist()
    assert len(tails) == len(heads) == len(origin)
    for e in range(len(tails)):
        ends = (vertex_origin[tails[e]], vertex_origin[heads[e]])
        if min(ends) >= 0:
            assert pairs[origin[e]] == (ends[::-1] if second_level else ends)
    left_out = _left_out(aux)
    if at_start:
        assert left_out == []
        return
    d_r = aux.n - 1
    bridge = [e for e in range(len(tails)) if (tails[e], heads[e]) == (d_r, 0)]
    out_start, out_eids, _ = aux.out_lists()
    assert len(bridge) == 1
    assert left_out == (bridge if second_level else [])
    assert out_eids[out_start[d_r]:out_start[d_r + 1]] == ([] if second_level else bridge)


def test_second_level_maps_into_the_input_graph():
    rng = random.Random(67)
    graphs = [random_strongly_connected(rng, rng.randint(2, 40)) for _ in range(60)]
    for g in graphs + [road_grid(12, 0.12, 0.55, 1)]:
        for i, (h, _, _, level2) in enumerate(_decompose(g, 0)[-1]):
            _check_aux_contract(g, h, second_level=False, at_start=i == 0)
            for j, (aux, _) in enumerate(level2):
                _check_aux_contract(g, aux, second_level=True, at_start=j == 0)


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
        dt, level1, _, walk = _decompose(g, 0)
        level2 = []
        for (h, rev, dtr, auxes), members in zip(walk, _tree_members(g, dt), strict=True):
            assert h.vertex_origin.tolist() == members + [-1] * (h.n - len(members))
            h_vertex = h.vertex_origin.tolist()
            for (aux, _), members2 in zip(auxes, _tree_members(rev, dtr), strict=True):
                want = [h_vertex[v] for v in members2]
                assert aux.vertex_origin.tolist() == want + [-1] * (aux.n - len(want))
            level2 += [aux for aux, _ in auxes]
        for level in (level1, level2):
            ordinary = [v for aux in level for v in aux.vertex_origin.tolist() if v >= 0]
            assert sorted(ordinary) == list(range(g.n))


def _aux_fields(aux):
    return (aux.origin.tolist(), aux.vertex_origin.tolist(), aux.n,
            aux.tails.tolist(), aux.heads.tolist(), aux.edge_ids.tolist())


def _blocks_from_kept_graphs(g) -> Partition:
    """The blocks that the walk with `blocks_only` reads off the SCCs of the
    second-level graphs it builds, after checking that they are exactly the
    full walk's graphs with at least 2 vertices ordinary at both levels."""
    *_, label, kept_walk = _decompose(g, 0, blocks_only=True)
    for (_, _, dtr, full), (_, _, dtr_kept, kept) in zip(
            _decompose(g, 0)[-1], kept_walk, strict=True):
        assert dtr_kept == dtr
        want = [aux for aux, _ in full if len(_ordinary(aux)) >= 2]
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


def test_blocks_builds_no_graph_beyond_the_aux_graphs(monkeypatch):
    # one blocks() call builds each first-level graph, its reverse and each
    # second-level graph, and reads the second-level graphs as built
    built = []
    init = Digraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Digraph, "__init__", counting_init)
    for g in (g4(), g5(), road_grid(12, 0.12, 0.55, 1)):
        built.clear()
        blocks(g)
        in_blocks = len(built)
        built.clear()
        _, level1, _, walk = _decompose(g, 0)
        level2 = [aux for *_, auxes in walk for aux in auxes]
        assert len(built) == 2 * len(level1) + len(level2)
        assert len(level2) > len(level1)          # some graphs have an entering bridge
        assert in_blocks == len(built)


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
    [(sub, edges)], _ = _condensed(g, cap=2)
    assert components(g).count == 1 and sub.n == g.n
    mapped = {int(sub.origin[e]) for e in edges}
    assert mapped <= set(g.edge_ids.tolist()) and max(mapped) >= g.m


def test_condensed_2ecss_of_multigraph_components_matches_two_ecss_edt():
    rng = random.Random(61)
    for _ in range(150):
        _check_condensed_2ecss(_random_multigraph(rng, rng.randint(2, 8)))


def _check_condensed_2ecss(g):
    """`_condensed` hands every component with its trees to the 2ECSS: the
    edges must be those of `two_ecss_edt` on the component's own copy."""
    classes = [cls for cls in _classes(components(g)) if len(cls) >= 2]
    pieces, _ = _condensed(g, cap=2)
    assert len(pieces) == len(classes)
    for (sub, edges), cls in zip(pieces, classes):
        own = induced_subgraph(g, cls)
        assert sub.vertex_origin.tolist() == cls.tolist()
        assert {int(sub.origin[e]) for e in edges} == {
            int(own.origin[e]) for e in two_ecss_edt(own)}


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
