import numpy as np
import pytest

from twoec.digraph import (
    GraphError, build, delete_edge_view, induced_subgraph, largest_scc, scc,
)
from twoec.fixtures import g1, g2, g5


def test_build_cycle():
    g = g2()
    assert g.n == 3 and g.m == 3
    assert g.edge_pairs() == [(0, 1), (1, 2), (2, 0)]


def test_build_bidirected_triangle():
    g = g1()
    assert g.m == 6
    assert sorted(g.edge_pairs()) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        build(2, [(0, 2)])
    with pytest.raises(GraphError):
        build(2, [(0, 0)])
    with pytest.raises(GraphError):
        build(2, [(0, 1), (0, 1)])
    # allowed as multigraph
    g = build(2, [(0, 1), (0, 1), (1, 1), (1, 0)], allow_multi=True)
    assert g.m == 4


def test_adjacency_partitions_edges():
    g = g5()
    out_all = sorted(int(e) for v in range(g.n) for e in g.out_ids(v))
    in_all = sorted(int(e) for v in range(g.n) for e in g.in_ids(v))
    assert out_all == list(range(g.m)) == in_all


def test_reverse_preserves_ids_and_involutes():
    g = g5()
    r = g.reverse()
    for e in g.edge_ids.tolist():
        assert g.tail(e) == r.head(e) and g.head(e) == r.tail(e)
    rr = r.reverse()
    assert rr.edge_pairs() == g.edge_pairs()


def test_reverse_preserves_scc():
    g = g5()
    assert scc(g) == scc(g.reverse())


def test_scc_counts():
    assert scc(g2()).count == 1
    two = build(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (6, 0)])
    assert scc(two).count == 3
    assert scc(g5()).count == 1


def test_largest_scc_extracts_and_renumbers():
    g = build(4, [(0, 1), (1, 2), (2, 0)])  # extra isolated vertex 3
    top = largest_scc(g)
    assert top.n == 3 and top.m == 3
    assert scc(top).count == 1
    assert top.vertex_origin.tolist() == [0, 1, 2]
    assert top.origin.tolist() == [0, 1, 2]
    # already strongly connected graph maps onto itself
    same = largest_scc(g2())
    assert same.edge_pairs() == g2().edge_pairs()


def test_delete_edge_view_keeps_ids():
    g = g2()
    v = delete_edge_view(g, 0)
    assert v.m == 2
    assert v.edge_ids.tolist() == [1, 2]
    assert scc(v).count == 3
    assert v.tail(1) == 1 and v.head(1) == 2
    with pytest.raises(GraphError):
        delete_edge_view(v, 0)
    # G1 stays strongly connected after any single deletion
    for e in range(6):
        assert scc(delete_edge_view(g1(), e)).count == 1


def test_delete_edge_view_g5_breaks_connectivity():
    # every G5 edge is a strong bridge, so any single deletion disconnects
    g = g5()
    for e in range(8):
        assert scc(delete_edge_view(g, e)).count > 1


def test_induced_subgraph_origin():
    g = g5()
    sub = induced_subgraph(g, np.asarray([0, 1, 2]))
    for e in sub.edge_ids.tolist():
        oe = int(sub.origin[e])
        assert g.tail(oe) == int(sub.vertex_origin[sub.tail(e)])
        assert g.head(oe) == int(sub.vertex_origin[sub.head(e)])


def _lists_reference(n, ids, ends):
    """(start, eids, other ends) of a CSR, from a loop over `ends[e] = (key, other)`."""
    start, eids, others = [0], [], []
    for v in range(n):
        for e in ids:
            if ends[e][0] == v:
                eids.append(e)
                others.append(ends[e][1])
        start.append(len(eids))
    return start, eids, others


def _check_lists(graph, pairs):
    ids = graph.edge_ids.tolist()
    assert graph.out_lists() == _lists_reference(graph.n, ids, {e: pairs[e] for e in ids})
    assert graph.in_lists() == _lists_reference(
        graph.n, ids, {e: pairs[e][::-1] for e in ids})


def test_views_match_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 40))
        pairs = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)]
        g = build(n, pairs, allow_multi=True)
        view = g.subgraph_edges(np.flatnonzero(rng.random(g.m) < 0.6))
        ids = view.edge_ids.tolist()
        for v in range(n):
            assert view.out_ids(v).tolist() == [e for e in ids if pairs[e][0] == v]
            assert view.in_ids(v).tolist() == [e for e in ids if pairs[e][1] == v]
        _check_lists(view, pairs)
        _check_lists(view.reverse(), [(h, t) for t, h in pairs])
        keep = sorted({int(x) for x in rng.integers(0, n, n // 2 + 1)})
        sub = induced_subgraph(view, np.asarray(keep))
        inside = [e for e in ids if pairs[e][0] in keep and pairs[e][1] in keep]
        assert sub.origin.tolist() == inside
        sub_pairs = [(keep.index(pairs[e][0]), keep.index(pairs[e][1])) for e in inside]
        assert sub.edge_pairs() == sub_pairs
        _check_lists(sub, sub_pairs)
