import random

import pytest

from twoec import spanning
from twoec.blocks import first_level_aux_graphs
from twoec.certificates import ist_b
from twoec.digraph import build, delete_edge_view, largest_scc
from twoec.dominators import FlowGraph, dominator_tree, flow_bridges
from twoec.fixtures import g1, g2, g4, random_strongly_connected, road_grid
from twoec.spanning import TreePair, independent_pair, verify_independent


def test_independent_pair_g2_shares_every_edge():
    fg = FlowGraph(g2(), 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert pair.blue.edge_set() == pair.red.edge_set() == {0, 1}
    assert (pair.blue.edge_set() & pair.red.edge_set()) == flow_bridges(fg, dt)


def test_independent_pair_g1_disjoint():
    fg = FlowGraph(g1(), 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert (pair.blue.edge_set() & pair.red.edge_set()) == flow_bridges(fg, dt) == set()


def test_independent_pair_g4_shares_bridges():
    fg = FlowGraph(g4(), 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert (pair.blue.edge_set() & pair.red.edge_set()) == flow_bridges(fg, dt)
    assert len((pair.blue.edge_set() & pair.red.edge_set())) == 5


def test_independent_pair_path_graph():
    g = build(3, [(0, 1), (1, 2)])
    fg = FlowGraph(g, 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert pair.blue.edge_set() == pair.red.edge_set() == {0, 1}
    assert verify_independent(fg, pair, dt)


def test_independent_pair_g1():
    g = g1()
    fg = FlowGraph(g, 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert verify_independent(fg, pair, dt)
    for v in (1, 2):
        shared = set(pair.blue.path_vertices(g, v)) & set(pair.red.path_vertices(g, v))
        assert shared == {0, v}


def test_independent_pair_two_route():
    # s -> a, s -> b, a -> b, b -> a: paths to b intersect in {s, b} only
    g = build(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    fg = FlowGraph(g, 0)
    dt = dominator_tree(fg)
    pair = independent_pair(fg, dt)
    assert verify_independent(fg, pair, dt)
    shared = set(pair.blue.path_vertices(g, 2)) & set(pair.red.path_vertices(g, 2))
    assert shared == {0, 2}


def test_verify_rejects_equal_trees_on_g1():
    g = g1()
    fg = FlowGraph(g, 0)
    dt = dominator_tree(fg)
    tree = independent_pair(fg, dt).blue
    assert not verify_independent(fg, TreePair(tree, tree), dt)


def test_independent_random_graphs():
    rng = random.Random(17)
    for _ in range(400):
        g = random_strongly_connected(rng, rng.randint(2, 50))
        fg = FlowGraph(g, 0)
        dt = dominator_tree(fg)
        pair = independent_pair(fg, dt)
        assert verify_independent(fg, pair, dt)
        bridges = flow_bridges(fg, dt)
        assert (pair.blue.edge_set() & pair.red.edge_set()) == bridges
        distinct = len(pair.blue.edge_set() | pair.red.edge_set())
        assert distinct == 2 * (g.n - 1) - len(bridges)


def _check_orders(monkeypatch) -> list[int]:
    """Check every local order the solver computes; returns their sizes."""
    sizes: list[int] = []
    low_high_order = spanning._low_high_order

    def checked(local):
        order = low_high_order(local)
        assert sorted(order) == sorted(local.children)
        assert spanning._order_valid(local, {v: i for i, v in enumerate(order)})
        sizes.append(len(order))
        return order

    monkeypatch.setattr(spanning, "_low_high_order", checked)
    return sizes


def _flow_graphs(g):
    """G(0), G^R(0) and the reversed first-level aux graphs of G(0), which
    are multigraphs, as ist_b builds them."""
    fg = FlowGraph(g, 0)
    yield fg
    yield FlowGraph(g.reverse(), 0)
    for h in first_level_aux_graphs(fg):
        yield FlowGraph(h.graph.reverse(), h.root)


def test_low_high_orders_random(monkeypatch):
    sizes = _check_orders(monkeypatch)
    rng = random.Random(29)
    multigraphs = 0
    for _ in range(300):
        g = random_strongly_connected(rng, rng.randint(4, 60))
        for fg in _flow_graphs(g):
            arcs = list(zip(fg.graph.tails.tolist(), fg.graph.heads.tolist()))
            multigraphs += len(set(arcs)) < len(arcs)
            dt = dominator_tree(fg)
            pair = independent_pair(fg, dt)
            assert verify_independent(fg, pair, dt)
            again = independent_pair(fg, dt)
            assert again.blue.parent_edge == pair.blue.parent_edge
            assert again.red.parent_edge == pair.red.parent_edge
    assert multigraphs > 0
    assert len(sizes) > 1000


def _uniform_digraph(n: int, m: int, seed: int):
    rng = random.Random(seed)
    arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
    return largest_scc(build(n, sorted((u, v) for u, v in arcs if u != v)))


@pytest.mark.parametrize("make", [
    lambda: road_grid(18, 0.12, 0.55, 1),
    lambda: _uniform_digraph(350, 1400, 1),
], ids=["road-grid-18", "uniform-350-1400"])
def test_independent_pair_at_scale(make, monkeypatch):
    g = make()
    sizes = _check_orders(monkeypatch)
    for fg in (FlowGraph(g, 0), FlowGraph(g.reverse(), 0)):
        dt = dominator_tree(fg)
        assert verify_independent(fg, independent_pair(fg, dt), dt)
    assert max(sizes) >= 200
    cert, stats = ist_b(g)
    assert stats.phase1_new == 2 * stats.n - stats.bridges - 2
    assert stats.phase2_new <= 2 * stats.n - stats.bridges
    assert stats.phase3_new <= 2 * stats.n_prime + 2 * stats.bridges
    assert len(cert.edge_set()) <= 4 * (stats.n + stats.n_prime)


def test_union_tolerates_nonbridge_deletion():
    rng = random.Random(19)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        fg = FlowGraph(g, 0)
        dt = dominator_tree(fg)
        pair = independent_pair(fg, dt)
        union = sorted(pair.blue.edge_set() | pair.red.edge_set())
        bridges = flow_bridges(fg, dt)
        sub = g.subgraph_edges(union)
        for e in union:
            if e in bridges:
                continue
            rest = delete_edge_view(sub, e)
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for e2 in rest.out_ids(v).tolist():
                    h = rest.head(e2)
                    if h not in seen:
                        seen.add(h)
                        stack.append(h)
            assert len(seen) == g.n


def test_determinism():
    rng = random.Random(23)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(2, 15))
        fg = FlowGraph(g, 0)
        a = independent_pair(fg)
        b = independent_pair(fg)
        assert a.blue.parent_edge == b.blue.parent_edge
        assert a.red.parent_edge == b.red.parent_edge

