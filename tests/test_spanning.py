import collections
import hashlib
import json
import random

import pytest

from twoec import spanning
from twoec.blocks import _decompose, aux_graphs
from twoec.digraph import GraphError, build
from twoec.dominators import dominator_tree, flow_bridges
from twoec.fixtures import g1, g2, g4, random_strongly_connected, road_grid
from twoec.spanning import independent_pair

from graph_builders import ist_b_within_theorem2, reachable, stdlib_uniform_digraph, without_edge
from oracle import _order_valid, verify_independent


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


def _in_arcs(children, st):
    """One local graph's arcs as `_order_valid` reads them: each child, in
    order, to its (tail representative, edge id) arcs."""
    return {c: list(zip(st.tails[c], st.eids[c])) for c in children}


def _check_orders(monkeypatch) -> list[int]:
    """Check every local order the solver computes; returns their sizes."""
    sizes: list[int] = []
    low_high_order = spanning._low_high_order

    def checked(root, children, st):
        order = low_high_order(root, children, st)
        in_arcs = _in_arcs(children, st)
        assert sorted(order) == sorted(in_arcs)
        assert _order_valid(root, in_arcs, {v: i for i, v in enumerate(order)})
        sizes.append(len(order))
        return order

    monkeypatch.setattr(spanning, "_low_high_order", checked)
    return sizes


def _flow_graphs(g):
    """G, G^R and the reversed first-level aux graphs of G(0), which are
    multigraphs, the graphs H^R of the walk; each flow graph starts at 0."""
    yield g
    yield g.reverse()
    yield from (h.reverse() for h in aux_graphs(g, 0)[1])


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
    ist_b_within_theorem2(g)


def _three_list_rule(root, in_arcs, preferred, order, cases):
    """The arc choice as it was first written, kept as the reference for the
    one-scan choice: three arc lists per child and a keyed `min` over each,
    given the children's low-high `order`.  Counts in `cases` which rule each
    child took."""
    def pick(arcs, exclude=-1):
        ids = [eid for _, eid in arcs if eid != exclude]
        return min(ids, key=lambda e: (e not in preferred, e), default=-1)

    pos = {v: i for i, v in enumerate(order)}
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
    preferred: set[int] = set()          # the current flow graph's

    def checked(root, children, order, st, preferred_now):
        assert preferred_now == preferred
        solve_local(root, children, order, st, preferred_now)
        parents = {v: (st.blue[v], st.red[v]) for v in children}
        assert parents == _three_list_rule(root, _in_arcs(children, st), preferred, order, cases)

    monkeypatch.setattr(spanning, "_solve_local", checked)
    rng = random.Random(37)
    for flow in _local_corpus():
        ids = flow.edge_ids.tolist()
        preferred.clear()
        if share:
            preferred.update(rng.sample(ids, len(ids) // share))
        dt = dominator_tree(flow, 0)
        assert verify_independent(flow, *independent_pair(flow, dt, preferred), dt)
    # every rule is taken, the exclusion of red from blue's choice too
    assert min(cases[c] for c in ("single", "later", "root", "root, red best")) > 0
    assert sum(cases.values()) > 15000


def test_rooted_local_graphs_come_back_to_front(monkeypatch):
    rooted = []
    low_high_order = spanning._low_high_order

    def checked(root, children, st):
        order = low_high_order(root, children, st)
        in_arcs = _in_arcs(children, st)
        if all(any(t == root for t, _ in arcs) for arcs in in_arcs.values()):
            assert order == list(in_arcs)[::-1]
            assert _order_valid(root, in_arcs, {v: i for i, v in enumerate(order)})
            rooted.append(len(order))
        return order

    monkeypatch.setattr(spanning, "_low_high_order", checked)
    for flow in _local_corpus():
        independent_pair(flow, dominator_tree(flow, 0))
    assert len(rooted) > 1000 and max(rooted) >= 3
    # every child rooted, with arcs between the children besides
    in_arcs = {1: [(0, 0), (3, 5)], 2: [(1, 3), (0, 1)], 3: [(0, 2), (2, 4), (1, 6)]}
    arcs = sorted((e, t, v) for v, entering in in_arcs.items() for t, e in entering)
    g = build(4, [(t, v) for _, t, v in arcs])
    st = spanning._Locals(g, dominator_tree(g, 0))
    assert {c: sorted(a) for c, a in _in_arcs([1, 2, 3], st).items()} == {
        c: sorted(a) for c, a in in_arcs.items()}
    assert spanning._low_high_order(0, [1, 2, 3], st) == [3, 2, 1]


def _chorded_reverse_cycle(n):
    """The reverse of an n-cycle with chords i -> i + 2: arcs i -> i - 1 and
    i -> i - 2, whose orders regrow a subtree at nearly every placement."""
    return build(n, [(i, (i - 1) % n) for i in range(n)] + [(i, (i - 2) % n) for i in range(n)])


def test_chorded_reverse_cycle(monkeypatch):
    n = 300
    g = _chorded_reverse_cycle(n)
    sizes = _check_orders(monkeypatch)
    for flow in (g, g.reverse()):
        dt = dominator_tree(flow, 0)
        assert verify_independent(flow, *independent_pair(flow, dt), dt)
    assert sizes == [n - 1, n - 1]          # every vertex is a child of 0


def _pinned_flow_graphs(name):
    """G(0) and G^R(0) of one graph at scale, or the `_flow_graphs` of 40
    seeded random graphs."""
    if name == "random-40":
        rng = random.Random(41)
        for _ in range(40):
            yield from _flow_graphs(random_strongly_connected(rng, rng.randint(4, 60)))
        return
    g = {"road-grid-18": lambda: road_grid(18, 0.12, 0.55, 1),
         "stdlib-350-1400": lambda: stdlib_uniform_digraph(350, 1400, 1),
         "chorded-300": lambda: _chorded_reverse_cycle(300)}[name]()
    yield g
    yield g.reverse()


# sha256 of the (blue, red) pairs of `_pinned_flow_graphs`, with no edges
# preferred and with a seeded third preferred
TREE_PINS = {
    ("road-grid-18", 0): "a7aa0acec385a6e155a5a2313bce75fcd52590e153566be0684d4aba1a06bff0",
    ("road-grid-18", 3): "41dd1bc08dfeebc4097759d180237b2b2957d96875dc4da425531bb02ff8feb1",
    ("stdlib-350-1400", 0): "b4c12cd7284bf407d6f292e4ae13821bcdee20f72a186b82c4a452335bde4f37",
    ("stdlib-350-1400", 3): "aaa57cc033d09e022b8e5dd2db1379d6f8936d7b68e5dbc6943ae182dbfc04d9",
    # every child has one earlier and one later arc, so no choice is left
    ("chorded-300", 0): "b635b7548d8cdeaac1d5ccf15b6490a68670e474f7c410d41297bb3c0b7853c1",
    ("chorded-300", 3): "b635b7548d8cdeaac1d5ccf15b6490a68670e474f7c410d41297bb3c0b7853c1",
    ("random-40", 0): "13033b7af54dc66b23ca82733ee743143a3606687fff58168ade46a7502fe253",
    ("random-40", 3): "b7cfdfb91c3be1a165e5423a56320f77f3f1864829ed7e06af02bfe20180b945",
}


@pytest.mark.parametrize("share", [0, 3], ids=["none-preferred", "third-preferred"])
@pytest.mark.parametrize("name", ["road-grid-18", "stdlib-350-1400", "chorded-300",
                                  "random-40"])
def test_trees_are_pinned(name, share):
    rng = random.Random(43)
    trees = []
    for flow in _pinned_flow_graphs(name):
        ids = flow.edge_ids.tolist()
        preferred = set(rng.sample(ids, len(ids) // share)) if share else set()
        trees.append(independent_pair(flow, dominator_tree(flow, 0), preferred))
    assert hashlib.sha256(json.dumps(trees).encode()).hexdigest() == TREE_PINS[name, share]


def test_graphs_side_by_side_solve_as_alone():
    # the B certificate solves every H^R where it sits in the reversed first
    # level C, with a preference that changes from one H^R to the next; each
    # gets the trees that independent_pair gives it alone, offset by its place
    rng = random.Random(47)
    graphs = [random_strongly_connected(rng, rng.randint(4, 60)) for _ in range(60)]
    solved = 0
    for g in graphs + [road_grid(18, 0.12, 0.55, 1), stdlib_uniform_digraph(350, 1400, 1)]:
        _, _, (flow, flow_dt, starts), _, _ = _decompose(g, 0)
        st = spanning._Locals(flow, flow_dt)
        spans = zip(starts, starts[1:])
        for ((v0, e0), (v1, e1)), h in zip(spans, aux_graphs(g, 0)[1], strict=True):
            rev = h.reverse()
            dtr = dominator_tree(rev, 0)
            share = rng.choice([0, 2, 3])
            local = set(rng.sample(range(e1 - e0), (e1 - e0) // share)) if share else set()
            spanning._solve(st, range(v0, v1), {e + e0 for e in local})
            blue, red = independent_pair(rev, dtr, local)
            assert st.blue[v0 + 1:v1] == [e + e0 for e in blue[1:]]
            assert st.red[v0 + 1:v1] == [e + e0 for e in red[1:]]
            solved += 1
    assert solved > 500


def test_independent_pair_rejects_a_dominator_tree_of_another_size():
    g = build(3, [(0, 1), (1, 2)])
    for other in (build(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), build(2, [(0, 1)])):
        with pytest.raises(GraphError, match=f"dominator tree has {other.n} vertices, the graph 3"):
            independent_pair(g, dominator_tree(other, 0))


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

