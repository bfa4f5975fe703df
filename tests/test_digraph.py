import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import twoec
from twoec.digraph import (
    Digraph, GraphError, Partition, build, induced_subgraph, induced_subgraphs, largest_scc,
    scc,
)
from twoec.bench import run_algorithm
from twoec.blocks import blocks, components
from twoec.dominators import strong_bridges
from twoec.fixtures import g1, g2, g4, g5, road_grid
from twoec.io import load_graph

from graph_builders import without_edge


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


def test_build_rejects_a_bad_vertex_count():
    for n in (-1, 2.5, "2", None):
        with pytest.raises(GraphError, match="vertex count"):
            build(n, [])
    g = build(np.int32(2), [(0, 1), (1, 0)])
    assert g.n == 2 and type(g.n) is int
    assert build(0, []).n == 0


def test_build_duplicate_check_holds_beyond_int64_products():
    # tail * n + head wraps around int64 here, and (2**32, 3) and (1, 2)
    # would collide under it
    n = 2**32 + 1
    g = build(n, [(2**32, 3), (1, 2)])
    assert g.n == n and g.edge_pairs() == [(2**32, 3), (1, 2)]
    with pytest.raises(GraphError, match="duplicate edge"):
        build(n, [(2**32, 3), (1, 2), (2**32, 3)])


def test_adjacency_partitions_edges():
    g = g5()
    out_start, out_eids, _ = g.out_lists()
    in_start, in_eids, _ = g.in_lists()
    out_all = sorted(e for v in range(g.n) for e in out_eids[out_start[v]:out_start[v + 1]])
    in_all = sorted(e for v in range(g.n) for e in in_eids[in_start[v]:in_start[v + 1]])
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


def test_a_loaded_largest_scc_is_checked_without_tarjan(tmp_path, monkeypatch):
    """`largest_scc` marks its result strongly connected, so the analysis
    and a certificate on it run no `scc` on the graph itself."""
    grid = road_grid(8, 0.12, 0.55, 1)
    path = tmp_path / "grid.gr"
    path.write_text("".join([f"p sp {grid.n} {grid.m}\n"] +
                            [f"a {u + 1} {v + 1} 1\n" for u, v in grid.edge_pairs()]))
    calls = []

    def counting_scc(h):
        calls.append(h)
        return scc(h)

    for name, mod in list(sys.modules.items()):
        if name.startswith("twoec") and getattr(mod, "scc", None) is scc:
            monkeypatch.setattr(mod, "scc", counting_scc)
    g = largest_scc(load_graph(path))
    assert len(calls) == 1                 # largest_scc's own, on the loaded graph
    strong_bridges(g)
    blocks(g)
    components(g)
    run_algorithm("ist-b", g)
    assert [h for h in calls if h is g] == []


def test_a_view_of_a_marked_graph_is_checked_again():
    # the hybrid filter's block test relies on blocks() rejecting G' - e
    g = largest_scc(g5())
    blocks(g)
    view = without_edge(g, 0)           # every edge of G5 is a strong bridge
    for h in (view, view.reverse()):
        with pytest.raises(GraphError, match="strongly connected"):
            blocks(h)


def test_subgraph_edges_without_one_edge_keeps_ids():
    g = g2()
    v = without_edge(g, 0)
    assert v.m == 2
    assert v.edge_ids.tolist() == [1, 2]
    assert scc(v).count == 3
    assert v.tail(1) == 1 and v.head(1) == 2
    with pytest.raises(GraphError):
        v.subgraph_edges([0, 1])
    # G1 stays strongly connected after any single deletion
    for e in range(6):
        assert scc(without_edge(g1(), e)).count == 1


def test_subgraph_edges_without_one_g5_edge_breaks_connectivity():
    # every G5 edge is a strong bridge, so any single deletion disconnects
    g = g5()
    for e in range(8):
        assert scc(without_edge(g, e)).count > 1


def test_views_reject_ids_outside_the_graph():
    # edges 2 and 3 exist in g1 but are not active in the first view
    with pytest.raises(GraphError):
        g1().subgraph_edges([0, 1]).subgraph_edges([2, 3])
    with pytest.raises(GraphError):
        g1().subgraph_edges([6])
    for vertices in ([-1, 0], [7]):
        with pytest.raises(GraphError):
            induced_subgraph(g4(), vertices)


def test_induced_subgraph_origin():
    g = g5()
    sub = induced_subgraph(g, np.asarray([0, 1, 2]))
    for e in sub.edge_ids.tolist():
        oe = int(sub.origin[e])
        assert g.tail(oe) == int(sub.vertex_origin[sub.tail(e)])
        assert g.head(oe) == int(sub.vertex_origin[sub.head(e)])


def _split_cases():
    """(graph, partition) pairs: a multigraph with parallel edges and loops,
    a view of it with id gaps, the SCCs of road grids with and without their
    strong bridges, and seeded random multigraphs with random labels."""
    g = build(6, [(0, 1), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2),
                  (5, 5), (4, 0), (1, 2), (2, 4), (4, 3)], allow_multi=True)
    view = g.subgraph_edges([0, 2, 3, 4, 6, 8, 9, 12, 13])
    yield g, Partition([0, 0, 1, 1, 1, 2])
    yield g, scc(g)
    yield view, Partition([0, 0, 1, 1, 1, 2])
    yield view, scc(view)
    for side in (14, 30):
        grid = road_grid(side, 0.12, 0.55, 1)
        sb = strong_bridges(grid)
        rest = grid.subgraph_edges([e for e in grid.edge_ids.tolist() if e not in sb])
        yield grid, scc(grid)
        yield rest, scc(rest)
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 40))
        pairs = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)]
        h = build(n, pairs, allow_multi=True)
        h = h.subgraph_edges(np.flatnonzero(rng.random(h.m) < 0.7))
        yield h, Partition(rng.integers(0, max(1, n // 2), n).tolist())


def test_induced_subgraphs_match_induced_subgraph_per_class():
    for g, part in _split_cases():
        classes = [np.flatnonzero(part.comp == c) for c in range(part.count)]
        want = [induced_subgraph(g, cls) for cls in classes if len(cls) >= 2]
        got = induced_subgraphs(g, part)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.n == b.n and a.edge_pairs() == b.edge_pairs()
            assert a.edge_ids.tolist() == b.edge_ids.tolist()
            assert a.origin.tolist() == b.origin.tolist()
            assert a.vertex_origin.tolist() == b.vertex_origin.tolist()


def test_induced_subgraphs_carry_the_parent_maps():
    # each graph gets maps of its own, as a loaded file's largest SCC or a
    # component piece has; its pieces map through them
    rng = np.random.default_rng(13)
    for g, part in _split_cases():
        plain = Digraph(g.n, g.tails, g.heads, edge_ids=g.edge_ids)
        mapped = Digraph(g.n, g.tails, g.heads, edge_ids=g.edge_ids,
                         origin=rng.permutation(len(g.tails)) + 1000,
                         vertex_origin=rng.permutation(g.n) * 7 + 3)
        classes = [np.flatnonzero(part.comp == c) for c in range(part.count)]
        classes = [cls for cls in classes if len(cls) >= 2]
        got = induced_subgraphs(mapped, part)
        assert len(got) == len(classes)
        for a, cls in zip(got, classes):
            own, b = induced_subgraph(plain, cls), induced_subgraph(mapped, cls)
            assert a.origin.tolist() == b.origin.tolist() == mapped.origin[own.origin].tolist()
            assert (a.vertex_origin.tolist() == b.vertex_origin.tolist()
                    == mapped.vertex_origin[cls].tolist())


def test_induced_subgraphs_of_trivial_partitions():
    g = g5()
    assert induced_subgraphs(g, Partition(range(g.n))) == []
    assert induced_subgraphs(Digraph(0, [], []), Partition([])) == []
    for labels in ([0] * (g.n - 1), [0] * (g.n + 1)):
        with pytest.raises(GraphError, match="partition"):
            induced_subgraphs(g, Partition(labels))


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
        _check_lists(view, pairs)
        _check_lists(view.reverse(), [(h, t) for t, h in pairs])
        keep = sorted({int(x) for x in rng.integers(0, n, n // 2 + 1)})
        sub = induced_subgraph(view, np.asarray(keep))
        inside = [e for e in ids if pairs[e][0] in keep and pairs[e][1] in keep]
        assert sub.origin.tolist() == inside
        sub_pairs = [(keep.index(pairs[e][0]), keep.index(pairs[e][1])) for e in inside]
        assert sub.edge_pairs() == sub_pairs
        _check_lists(sub, sub_pairs)


def _fresh_graphs():
    """Graphs with no adjacency read yet: a multigraph with parallel edges
    both ways, a loop and a vertex without edges, views of it, and graphs
    with no vertices or no edges."""
    g = build(5, [(0, 1), (0, 1), (1, 0), (1, 2), (2, 0), (2, 0), (3, 3), (2, 3), (3, 1)],
              allow_multi=True)
    return [g, g.subgraph_edges([0, 2, 4, 5, 8]), without_edge(g, 1),
            induced_subgraph(g, np.asarray([0, 1, 2])), g.subgraph_edges([]),
            build(0, []), build(3, [])]


def _reference(graph):
    ids = graph.edge_ids.tolist()
    ends = {e: (graph.tail(e), graph.head(e)) for e in ids}
    return (_lists_reference(graph.n, ids, ends),
            _lists_reference(graph.n, ids, {e: ends[e][::-1] for e in ids}))


def test_adjacency_does_not_depend_on_the_read_order():
    for out_first, in_first in zip(_fresh_graphs(), _fresh_graphs()):
        out_lists = out_first.out_lists()
        in_lists = in_first.in_lists()
        assert ((out_lists, out_first.in_lists()) == (in_first.out_lists(), in_lists)
                == _reference(out_first))


@pytest.mark.parametrize("reversed_first", [False, True])
@pytest.mark.parametrize("reads", [(), ("out_lists",), ("in_lists",), ("out_lists", "in_lists")])
def test_reverse_swaps_the_directions(reads, reversed_first):
    # g has built none, one or both directions, before or after it is reversed
    for g in _fresh_graphs():
        if reversed_first:
            r = g.reverse()
        for name in reads:
            getattr(g, name)()
        if not reversed_first:
            r = g.reverse()
        assert r.out_lists() == g.in_lists()
        assert r.in_lists() == g.out_lists()
        assert r.reverse().out_lists() == g.out_lists()
        assert (g.out_lists(), g.in_lists()) == _reference(g)


def test_threads_sharing_a_graph_read_the_same_adjacency():
    # a direction is built without a lock, so threads may build it at once;
    # each must still read the one adjacency, in either order
    ref = road_grid(18, 0.12, 0.55, 1)
    expected = (ref.out_lists(), ref.in_lists())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = ref.subgraph_edges(ref.edge_ids)
            results = []

            def read(out_first):
                if out_first:
                    out = shared.out_lists()
                    results.append((out, shared.in_lists()))
                else:
                    inn = shared.in_lists()
                    results.append((shared.out_lists(), inn))

            threads = [threading.Thread(target=read, args=(i % 2 == 0,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)


# Every int field of a graph, each given as a range so that it can also be
# handed over as a list or an int64 array.
_FIELDS = {"tails": range(0, 5), "heads": range(5, 0, -1), "edge_ids": range(0, 5, 2),
           "origin": range(10, 15), "vertex_origin": range(1, 7)}
_KINDS = {"range": lambda r: r, "list": list,
          "array": lambda r: np.arange(r.start, r.stop, r.step, dtype=np.int64)}


def _stored(graph):
    """The int fields of `graph` as lists (each checked to be an int64
    array), its edge pairs and both adjacency directions."""
    fields = [getattr(graph, name) for name in _FIELDS]
    assert all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in fields)
    return [a.tolist() for a in fields], graph.edge_pairs(), graph.out_lists(), graph.in_lists()


def _graph(as_kind):
    fields = {name: as_kind(r) for name, r in _FIELDS.items()}
    return Digraph(6, fields.pop("tails"), fields.pop("heads"), **fields)


@pytest.mark.parametrize("kind", _KINDS)
def test_digraph_stores_int64_arrays_from_any_int_sequence(kind):
    as_kind = _KINDS[kind]
    g, ref = _graph(as_kind), _graph(_KINDS["array"])
    assert g.edge_pairs() == [(0, 5), (2, 3), (4, 1)]
    views = [lambda x: x, Digraph.reverse, lambda x: x.subgraph_edges(as_kind(range(2, 5, 2))),
             lambda x: without_edge(x, 2),
             lambda x: induced_subgraph(x, as_kind(range(1, 6)))]
    for view in views:
        assert _stored(view(g)) == _stored(view(ref))
    default_ids = Digraph(4, as_kind(range(3)), as_kind(range(1, 4)))
    assert default_ids.edge_ids.dtype == np.int64
    assert default_ids.edge_ids.tolist() == [0, 1, 2]
    assert default_ids.edge_pairs() == [(0, 1), (1, 2), (2, 3)]


def test_partition_stores_int64_arrays_from_any_int_sequence():
    for labels in ([8, 6, 4], range(8, 2, -2), np.asarray([8, 6, 4])):
        p = Partition(labels)
        assert p.comp.dtype == np.int64 and p.comp.tolist() == [0, 1, 2]
        assert p.count == 3 and p.nontrivial_vertices() == 0
    for labels in ([7, 7, 2, 9, 2], np.asarray([7, 7, 2, 9, 2])):
        p = Partition(labels)
        assert p.comp.dtype == np.int64 and p.comp.tolist() == [0, 0, 1, 2, 1]
        assert p.count == 3 and p.sizes().tolist() == [2, 2, 1]
        assert [np.flatnonzero(p.comp == c).tolist() for c in range(p.count)] == [
            [0, 1], [2, 4], [3]]
        assert p.nontrivial_vertices() == 4
        same = Partition(np.asarray([0, 0, 1, 2, 1]))
        assert p == same and hash(p) == hash(same)
    assert Partition([]).count == 0 and Partition([]).comp.dtype == np.int64


def test_only_digraph_imports_numpy():
    # digraph.py alone knows that graphs and partitions are stored as arrays
    importers = set()
    for path in Path(twoec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.name)
    assert importers == {"digraph.py"}
