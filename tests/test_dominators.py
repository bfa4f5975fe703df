import random

import pytest

from twoec.digraph import GraphError, build, scc
from twoec.dominators import _dfs, dominator_tree, flow_bridges, strong_bridges
from twoec.fixtures import g1, g2, g4, g5, random_strongly_connected

from graph_builders import random_two_edge_connected, reachable, without_edge
from oracle import dominators


def _removal_dominates(g, s, u, w):
    """Oracle: u dominates w iff removing u's edges disconnects s from w."""
    if u == w or u == s:
        return True
    keep = [e for e in g.edge_ids.tolist() if g.tail(e) != u and g.head(e) != u]
    return w not in reachable(g.subgraph_edges(keep), s)


def test_dominator_tree_path():
    g = build(3, [(0, 1), (1, 2)])
    dt = dominator_tree(g, 0)
    assert dt.idom == [-1, 0, 1]


def test_dominator_tree_diamondish():
    g = build(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    dt = dominator_tree(g, 0)
    assert dt.idom == [-1, 0, 0]


def test_dominator_chain_g4():
    dt = dominator_tree(g4(), 0)
    assert dt.idom == [-1, 0, 1, 2, 3, 4]


def test_dominator_tree_unreachable_raises():
    g = build(3, [(0, 1)])
    with pytest.raises(GraphError):
        dominator_tree(g, 0)


def test_dominators_match_removal_oracle():
    rng = random.Random(2)
    for _ in range(120):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        dt = dominator_tree(g, 0)
        pre, post = dt.pre, dt.post
        for w in range(g.n):
            doms = set(dominators(dt, w))
            for u in range(g.n):
                truth = _removal_dominates(g, 0, u, w)
                assert (u in doms) == truth
                assert (pre[u] <= pre[w] < post[u]) == truth


def test_dfs_tree_edges():
    pre, parent, parent_edge, order = _dfs(g1(), 0)
    assert parent_edge[0] == parent[0] == -1
    assert len({e for e in parent_edge if e != -1}) == 2
    rng = random.Random(6)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        pre, parent, parent_edge, order = _dfs(g, 0)
        assert sorted(order) == list(range(g.n))
        assert [pre[v] for v in order] == list(range(g.n))
        for w in order[1:]:
            e = parent_edge[w]
            assert (g.tail(e), g.head(e)) == (parent[w], w)
            assert pre[parent[w]] < pre[w]


def test_flow_bridges_path_and_g1():
    g = build(3, [(0, 1), (1, 2)])
    assert flow_bridges(g, dominator_tree(g, 0)) == {0, 1}
    assert flow_bridges(g1(), dominator_tree(g1(), 0)) == set()


def test_flow_bridges_g4():
    g = g4()
    found = flow_bridges(g, dominator_tree(g, 0))
    pairs = sorted((g.tail(e), g.head(e)) for e in found)
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_flow_bridges_match_removal_oracle():
    rng = random.Random(3)
    for _ in range(150):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        found = flow_bridges(g, dominator_tree(g, 0))
        for e in g.edge_ids.tolist():
            assert (len(reachable(without_edge(g, e), 0)) != g.n) == (e in found)


def test_strong_bridges_fixtures():
    assert strong_bridges(g2()) == {0, 1, 2}
    assert strong_bridges(g1()) == set()
    g = g4()
    pairs = sorted((g.tail(e), g.head(e)) for e in strong_bridges(g))
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    assert len(strong_bridges(g5())) == 8


def test_strong_bridges_requires_strongly_connected():
    with pytest.raises(GraphError):
        strong_bridges(build(3, [(0, 1), (1, 2)]))


def test_strong_bridges_match_removal_oracle():
    rng = random.Random(4)
    for _ in range(200):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        found = strong_bridges(g)
        truth = {e for e in g.edge_ids.tolist()
                 if scc(without_edge(g, e)).count > 1}
        assert found == truth


def test_flow_bridges_subset_of_strong_bridges():
    rng = random.Random(5)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        assert flow_bridges(g, dominator_tree(g, 0)) <= strong_bridges(g)


def test_random_two_edge_connected_has_no_strong_bridges():
    # on 2 vertices the only simple strongly connected graph is the 2-cycle,
    # whose two edges are strong bridges
    with pytest.raises(ValueError, match="n >= 3"):
        random_two_edge_connected(random.Random(1), 2)
    for seed in range(6):
        rng = random.Random(seed)
        for n in range(3, 9):
            g = random_two_edge_connected(rng, n)
            assert g.n == n and strong_bridges(g) == set()
