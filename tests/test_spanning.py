import collections
import random

import pytest

from twoec import spanning
from twoec.blocks import _decompose
from twoec.certificates import ist_b
from twoec.digraph import build
from twoec.dominators import dominator_tree, flow_bridges
from twoec.fixtures import g1, g2, g4, random_strongly_connected, road_grid
from twoec.spanning import independent_pair, verify_independent

from graph_builders import reachable, stdlib_uniform_digraph, without_edge


def _edges(tree):
    return {e for e in tree if e != -1}


def _path_vertices(g, tree, v):
    """Vertices on the tree path from the root to v."""
    out = [v]
    while tree[v] != -1:
        v = g.tail(tree[v])
        out.append(v)
    return out[::-1]


def test_independent_pair_g2_shares_every_edge():
    g = g2()
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert _edges(blue) == _edges(red) == {0, 1}
    assert (_edges(blue) & _edges(red)) == flow_bridges(g, dt)


def test_independent_pair_g1_disjoint():
    g = g1()
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert (_edges(blue) & _edges(red)) == flow_bridges(g, dt) == set()


def test_independent_pair_g4_shares_bridges():
    g = g4()
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert (_edges(blue) & _edges(red)) == flow_bridges(g, dt)
    assert len((_edges(blue) & _edges(red))) == 5


def test_independent_pair_path_graph():
    g = build(3, [(0, 1), (1, 2)])
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert _edges(blue) == _edges(red) == {0, 1}
    assert verify_independent(g, blue, red, dt)


def test_independent_pair_g1():
    g = g1()
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert verify_independent(g, blue, red, dt)
    for v in (1, 2):
        shared = set(_path_vertices(g, blue, v)) & set(_path_vertices(g, red, v))
        assert shared == {0, v}


def test_independent_pair_two_route():
    # s -> a, s -> b, a -> b, b -> a: paths to b intersect in {s, b} only
    g = build(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert verify_independent(g, blue, red, dt)
    shared = set(_path_vertices(g, blue, 2)) & set(_path_vertices(g, red, 2))
    assert shared == {0, 2}


def test_verify_rejects_equal_trees_on_g1():
    g = g1()
    dt = dominator_tree(g, 0)
    tree = independent_pair(g, dt)[0]
    assert not verify_independent(g, tree, tree, dt)


def test_verify_rejects_detached_vertex_and_parent_cycle():
    # edges 0 (0, 1), 1 (0, 2), 2 (1, 2), 3 (2, 1)
    g = build(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    dt = dominator_tree(g, 0)
    blue, red = independent_pair(g, dt)
    assert verify_independent(g, blue, red, dt)
    detached = [-1, 0, -1]
    cycle = [-1, 3, 2]
    misdirected = [-1, 0, 0]            # edge 0 enters 1, not 2
    for bad in (detached, cycle, misdirected):
        assert not verify_independent(g, bad, red, dt)
        assert not verify_independent(g, blue, bad, dt)


def test_independent_random_graphs():
    rng = random.Random(17)
    for _ in range(400):
        g = random_strongly_connected(rng, rng.randint(2, 50))
        dt = dominator_tree(g, 0)
        blue, red = independent_pair(g, dt)
        assert verify_independent(g, blue, red, dt)
        bridges = flow_bridges(g, dt)
        assert (_edges(blue) & _edges(red)) == bridges
        distinct = len(_edges(blue) | _edges(red))
        assert distinct == 2 * (g.n - 1) - len(bridges)


def _check_orders(monkeypatch) -> list[int]:
    """Check every local order the solver computes; returns their sizes."""
    sizes: list[int] = []
    low_high_order = spanning._low_high_order

    def checked(root, in_arcs):
        order = low_high_order(root, in_arcs)
        assert sorted(order) == sorted(in_arcs)
        assert spanning._order_valid(root, in_arcs, {v: i for i, v in enumerate(order)})
        sizes.append(len(order))
        return order

    monkeypatch.setattr(spanning, "_low_high_order", checked)
    return sizes


def _flow_graphs(g):
    """G, G^R and the reversed first-level aux graphs of G(0), which are
    multigraphs, as ist_b builds them; each flow graph starts at 0."""
    yield g
    yield g.reverse()
    yield from (rev for _, rev, _, _ in _decompose(g, 0, blocks_only=True)[-1])


def test_low_high_orders_random(monkeypatch):
    sizes = _check_orders(monkeypatch)
    rng = random.Random(29)
    multigraphs = 0
    for _ in range(300):
        g = random_strongly_connected(rng, rng.randint(4, 60))
        for flow in _flow_graphs(g):
            arcs = list(zip(flow.tails.tolist(), flow.heads.tolist()))
            multigraphs += len(set(arcs)) < len(arcs)
            dt = dominator_tree(flow, 0)
            blue, red = independent_pair(flow, dt)
            assert verify_independent(flow, blue, red, dt)
            again = independent_pair(flow, dt)
            assert again[0] == blue
            assert again[1] == red
    assert multigraphs > 0
    assert len(sizes) > 1000


@pytest.mark.parametrize("make", [
    lambda: road_grid(18, 0.12, 0.55, 1),
    lambda: stdlib_uniform_digraph(350, 1400, 1),
], ids=["road-grid-18", "stdlib-350-1400"])
def test_independent_pair_at_scale(make, monkeypatch):
    g = make()
    sizes = _check_orders(monkeypatch)
    for flow in (g, g.reverse()):
        dt = dominator_tree(flow, 0)
        assert verify_independent(flow, *independent_pair(flow, dt), dt)
    assert max(sizes) >= 200
    cert, stats = ist_b(g)
    assert stats.phase1_new == 2 * stats.n - stats.bridges - 2
    assert stats.phase2_new <= 2 * stats.n - stats.bridges
    assert stats.phase3_new <= 2 * stats.n_prime + 2 * stats.bridges
    assert len(cert.edge_set()) <= 4 * (stats.n + stats.n_prime)


def _three_list_rule(root, in_arcs, preferred, cases):
    """The arc choice as it was first written, kept as the reference for the
    one-scan choice: three arc lists per child and a keyed `min` over each.
    Counts in `cases` which rule each child took."""
    def pick(arcs, exclude=-1):
        ids = [eid for _, eid in arcs if eid != exclude]
        return min(ids, key=lambda e: (e not in preferred, e), default=-1)

    pos = {v: i for i, v in enumerate(spanning._low_high_order(root, in_arcs))}
    parents = {}
    for v, arcs in in_arcs.items():
        if len(arcs) == 1:
            cases["single"] += 1
            parents[v] = (arcs[0][1], arcs[0][1])
            continue
        later = [a for a in arcs if a[0] != root and pos[a[0]] > pos[v]]
        root_arcs = [a for a in arcs if a[0] == root]
        earlier = [a for a in arcs if a[0] != root and pos[a[0]] < pos[v]]
        if later:
            cases["later"] += 1
            parents[v] = (pick(earlier + root_arcs), pick(later))
        else:
            e_red = pick(root_arcs)
            # red took the best earlier-or-root arc, so blue takes the next
            cases["root, red best" if e_red == pick(earlier + root_arcs) else "root"] += 1
            parents[v] = (pick(earlier + root_arcs, exclude=e_red), e_red)
    return parents


def _local_corpus():
    """The flow graphs of 150 seeded random graphs, with their reversed
    first-level aux graphs, and of the two graphs at scale."""
    rng = random.Random(31)
    for _ in range(150):
        yield from _flow_graphs(random_strongly_connected(rng, rng.randint(4, 60)))
    for g in (road_grid(18, 0.12, 0.55, 1), stdlib_uniform_digraph(350, 1400, 1)):
        yield g
        yield g.reverse()


@pytest.mark.parametrize("share", [0, 3], ids=["none-preferred", "third-preferred"])
def test_one_scan_choice_matches_the_three_list_rule(share, monkeypatch):
    cases = collections.Counter()
    solve_local = spanning._solve_local

    def checked(root, in_arcs, preferred):
        parents = solve_local(root, in_arcs, preferred)
        assert parents == _three_list_rule(root, in_arcs, preferred, cases)
        return parents

    monkeypatch.setattr(spanning, "_solve_local", checked)
    rng = random.Random(37)
    for flow in _local_corpus():
        ids = flow.edge_ids.tolist()
        preferred = set(rng.sample(ids, len(ids) // share)) if share else set()
        dt = dominator_tree(flow, 0)
        assert verify_independent(flow, *independent_pair(flow, dt, preferred), dt)
    # every rule is taken, the exclusion of red from blue's choice too
    assert min(cases[c] for c in ("single", "later", "root", "root, red best")) > 0
    assert sum(cases.values()) > 15000


def test_rooted_local_graphs_come_back_to_front(monkeypatch):
    rooted = []
    low_high_order = spanning._low_high_order

    def checked(root, in_arcs):
        order = low_high_order(root, in_arcs)
        if all(any(t == root for t, _ in arcs) for arcs in in_arcs.values()):
            assert order == list(in_arcs)[::-1]
            assert spanning._order_valid(root, in_arcs, {v: i for i, v in enumerate(order)})
            rooted.append(len(order))
        return order

    monkeypatch.setattr(spanning, "_low_high_order", checked)
    for flow in _local_corpus():
        independent_pair(flow, dominator_tree(flow, 0))
    assert len(rooted) > 1000 and max(rooted) >= 3
    # every child rooted, with arcs between the children besides
    in_arcs = {1: [(0, 0), (3, 5)], 2: [(1, 3), (0, 1)], 3: [(0, 2), (2, 4), (1, 6)]}
    assert spanning._low_high_order(0, in_arcs) == [3, 2, 1]


def test_chorded_reverse_cycle(monkeypatch):
    """The reverse of an n-cycle with chords i -> i + 2: arcs i -> i - 1 and
    i -> i - 2, whose orders regrow a subtree at nearly every placement."""
    n = 300
    g = build(n, [(i, (i - 1) % n) for i in range(n)] + [(i, (i - 2) % n) for i in range(n)])
    sizes = _check_orders(monkeypatch)
    for flow in (g, g.reverse()):
        dt = dominator_tree(flow, 0)
        assert verify_independent(flow, *independent_pair(flow, dt), dt)
    assert sizes == [n - 1, n - 1]          # every vertex is a child of 0


def test_union_tolerates_nonbridge_deletion():
    rng = random.Random(19)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        dt = dominator_tree(g, 0)
        blue, red = independent_pair(g, dt)
        union = sorted(_edges(blue) | _edges(red))
        bridges = flow_bridges(g, dt)
        sub = g.subgraph_edges(union)
        for e in union:
            if e in bridges:
                continue
            assert len(reachable(without_edge(sub, e), 0)) == g.n


def test_determinism():
    rng = random.Random(23)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(2, 15))
        a = independent_pair(g, dominator_tree(g, 0))
        b = independent_pair(g, dominator_tree(g, 0))
        assert a[0] == b[0]
        assert a[1] == b[1]

