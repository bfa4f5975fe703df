import hashlib
import json
import random

import numpy as np
import pytest

from twoec import filters
from twoec.blocks import _components, blocks, preservation_violations
from twoec.certificates import _condensed
from twoec.digraph import Digraph, GraphError, Partition, build, scc
from twoec.filters import FilterConfig, _run_strategy, _Working, filter_b, filter_bc
from twoec.fixtures import g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid

from graph_builders import dense_cert_graph, random_two_edge_connected, without_edge
from oracle import _bfs_flow_at_least_two, oracle_blocks


def test_two_disjoint_paths_pairs():
    G1, G2, G5 = _Working(g1()), _Working(g2()), _Working(g5())
    for x in range(3):
        for y in range(3):
            if x != y:
                assert G1.two_disjoint_paths(x, y)
    assert not G2.two_disjoint_paths(0, 1)
    assert G5.two_disjoint_paths(0, 1)
    cut = g5().subgraph_edges([e for e in range(8) if e != 0])  # drop (u, a)
    assert not _Working(cut).two_disjoint_paths(0, 1)


def test_two_disjoint_paths_matches_the_flow_oracle():
    # every edge skipped in turn, both ways, before and after a random run of
    # deletions; one _Working answers every call, so a stale stamp would show
    rng = random.Random(127)
    answers = {True: 0, False: 0}
    for _ in range(200):
        g = random_strongly_connected(rng, rng.randint(2, 40))
        work = _Working(g)
        for dropped in (0, g.m // 3):
            for e in rng.sample([e for e in work.ids if work.alive[e]], dropped):
                work.delete(e)
            alive = [e for e in work.ids if work.alive[e]]
            current = g.subgraph_edges(np.asarray(alive, dtype=np.int64))
            for e in alive:
                rest = without_edge(current, e)
                x, y = g.tail(e), g.head(e)
                for a, b in ((x, y), (y, x)):
                    got = work.two_disjoint_paths(a, b, e_skip=e)
                    assert got == _bfs_flow_at_least_two(rest, a, b), (g.n, alive, e, a, b)
                    answers[got] += 1
    assert min(answers.values()) > 1000, answers


def test_2edp_scans_per_test_stay_local():
    # timing-free scale check: from side 15 to 40, n grows about 7.5x
    # (205 -> 1529), while the arcs a 2EDP test scans grow far less
    per_test = []
    for side in (15, 40):
        counters = filter_b(road_grid(side, 0.12, 0.55, 1)).counters
        per_test.append(counters["scans_2edp"] / counters["tested_2edp"])
    assert per_test[1] < 2.5 * per_test[0], per_test


# Digests of the decisions and counters of filter_b, without the arc-scan
# counter, as the one-sided DFS search gave them: the 2EDP search and the
# block partition handed over by the certificate must not change a decision.
DECISION_PINS = {
    ("road-grid-18", "test2edp"): "ac2e36a036ca4a57",
    ("road-grid-18", "hybrid"): "e63e19f34122a071",
    ("uniform-350-1400", "test2edp"): "cbe32a02f843b22e",
    ("uniform-350-1400", "hybrid"): "9d3cb5374354ff0a",
}
PIN_GRAPHS = {
    "road-grid-18": lambda: road_grid(18, 0.12, 0.55, 1),
    "uniform-350-1400": dense_cert_graph,
}


@pytest.mark.parametrize("graph,strategy", sorted(DECISION_PINS))
def test_filter_decisions_pinned(graph, strategy):
    rep = filter_b(PIN_GRAPHS[graph](), FilterConfig(strategy=strategy))
    counters = {k: v for k, v in rep.counters.items() if k != "scans_2edp"}
    text = json.dumps([sorted(rep.decisions.items()), sorted(counters.items())])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DECISION_PINS[graph, strategy]


# The same digests for the paths that filter the input graph itself, whole
# or inside its second-level aux graphs, captured before the filters took
# the graph they filter in place of a list of its edge ids.
NO_CERTIFICATE_PINS = {
    ("road-grid-18", "test2edp", False): "6ce2dc283901da77",
    ("road-grid-18", "hybrid", False): "649a93f0430885d2",
    ("road-grid-18", "test2edp", True): "4cc58d4b22bdaf18",
    ("uniform-350-1400", "test2edp", False): "69e1de81cda90b05",
    ("uniform-350-1400", "hybrid", False): "23724e7a23b273ea",
    ("uniform-350-1400", "test2edp", True): "000751e24dff48c8",
}


@pytest.mark.parametrize("graph,strategy,on_aux_graphs", sorted(NO_CERTIFICATE_PINS))
def test_filter_decisions_without_certificate_pinned(graph, strategy, on_aux_graphs):
    cfg = FilterConfig(strategy=strategy, on_aux_graphs=on_aux_graphs, certificate=False)
    rep = filter_b(PIN_GRAPHS[graph](), cfg)
    counters = {k: v for k, v in rep.counters.items() if k != "scans_2edp"}
    text = json.dumps([sorted(rep.decisions.items()), sorted(counters.items())])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == NO_CERTIFICATE_PINS[graph, strategy, on_aux_graphs]


# filter_bc on the same graphs, captured before its per-component 2ECSS
# shrinking became a run of the filter loop: decisions, counters (with the
# arc scans) and surviving edges.
BC_DECISION_PINS = {
    ("road-grid-18", "test2edp"): "e0a5f027ace58297",
    ("road-grid-18", "hybrid"): "196f40923a7cad06",
    ("uniform-350-1400", "test2edp"): "cab7068f631ad837",
    ("uniform-350-1400", "hybrid"): "6f2af4c378cff881",
}


@pytest.mark.parametrize("graph,strategy", sorted(BC_DECISION_PINS))
def test_filter_bc_decisions_pinned(graph, strategy):
    rep = filter_bc(PIN_GRAPHS[graph](), FilterConfig(strategy=strategy))
    text = json.dumps([sorted(rep.decisions.items()), sorted(rep.counters.items()),
                       sorted(rep.surviving)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BC_DECISION_PINS[graph, strategy]


def test_test2edp_fixtures():
    edp = FilterConfig(strategy="test2edp")
    assert filter_b(g1(), edp).surviving == set(range(6))
    assert filter_b(g2(), edp).surviving == set(range(3))
    k4 = build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    out = filter_b(k4, FilterConfig(strategy="test2edp", certificate=False)).surviving
    assert len(out) == 8


def test_test2ecb_fixtures():
    ecb = FilterConfig(strategy="test2ecb")
    assert filter_b(g5(), ecb).surviving == set(range(8))
    assert filter_b(g1(), ecb).surviving == set(range(6))
    out = filter_b(g4(), FilterConfig(strategy="test2ecb", certificate=False)).surviving
    g = g4()
    pairs = sorted((g.tail(e), g.head(e)) for e in out)
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]


def test_hybrid_equals_test2ecb():
    rng = random.Random(73)
    for cfgkw in ({}, {"edge_order": "reverse"}, {"edge_order": "random", "seed": 5}):
        for _ in range(60):
            g = random_strongly_connected(rng, rng.randint(2, 10))
            a = filter_b(g, FilterConfig(strategy="test2ecb", **cfgkw)).surviving
            b = filter_b(g, FilterConfig(strategy="hybrid", **cfgkw)).surviving
            assert a == b


def test_hybrid_equals_test2edp_on_2ec_inputs():
    rng = random.Random(79)
    for _ in range(40):
        g = random_two_edge_connected(rng, rng.randint(3, 8))
        a = filter_b(g, FilterConfig(strategy="hybrid")).surviving
        b = filter_b(g, FilterConfig(strategy="test2edp")).surviving
        assert a == b


def test_filters_preserve_structure():
    rng = random.Random(83)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        for cfg in (FilterConfig(strategy="test2edp"), FilterConfig(strategy="test2ecb"),
                    FilterConfig(strategy="test2edp", on_aux_graphs=True)):
            assert preservation_violations(g, filter_b(g, cfg).surviving, "B") == []
        assert preservation_violations(g, filter_bc(g).surviving, "BC") == []


def test_test2ecb_output_minimal():
    rng = random.Random(89)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 9))
        out = filter_b(g, FilterConfig(strategy="test2ecb")).surviving
        for e in out:
            rest = out - {e}
            assert preservation_violations(g, rest, "B") != []


def test_lemma1_monotonicity():
    # replay the block-test filter; whenever the two-edge-disjoint-paths test
    # would delete an edge, the block-preservation test must agree
    import numpy as np
    from twoec.digraph import scc
    rng = random.Random(109)
    for _ in range(30):
        g = random_strongly_connected(rng, rng.randint(3, 9))
        alive = set(int(e) for e in g.edge_ids.tolist())
        base = blocks(g)
        for e in sorted(alive):
            rest = g.subgraph_edges(np.asarray(sorted(alive - {e}), dtype=np.int64))
            if scc(rest).count != 1:
                continue
            edp_deletes = _Working(rest).two_disjoint_paths(g.tail(e), g.head(e))
            ecb_deletes = blocks(rest) == base
            if edp_deletes:
                assert ecb_deletes
            if ecb_deletes:
                alive.discard(e)


def test_block_test_decisions_replay():
    # replay uncertified test2ecb runs in decision order against scc and the
    # pairwise-flow block oracle
    rng = random.Random(113)
    block_tests = 0
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        base = oracle_blocks(g)
        for skip in (True, False):
            rep = filter_b(g, FilterConfig(
                strategy="test2ecb", certificate=False, trivial_skip=skip))
            current = g
            for e, what in rep.decisions.items():
                if what == "kept-trivial":
                    continue
                rest = without_edge(current, e)
                connected = scc(rest).count == 1
                assert (what == "kept-bridge") == (not connected)
                if connected:
                    block_tests += 1
                    same = oracle_blocks(rest) == base
                    assert what == ("deleted" if same else "kept-needed")
                if what == "deleted":
                    current = rest
            assert set(current.edge_ids.tolist()) == rep.surviving
    assert block_tests > 100


def test_block_tests_call_blocks_only_on_strongly_connected_graphs(monkeypatch):
    # a candidate whose deletion leaves G' - e not strongly connected is kept
    # as a bridge without a blocks() call, so blocks() runs once per counted
    # block test, besides the one call for the starting partition
    seen = []
    monkeypatch.setattr(filters, "blocks", lambda g: seen.append(g) or blocks(g))
    rng = random.Random(127)
    kept_bridge = 0
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(2, 12))
        seen.clear()
        rep = filter_b(g, FilterConfig(strategy="test2ecb", certificate=False,
                                       trivial_skip=False))
        assert len(seen) == rep.counters["tested_blocks"] + 1
        kept_bridge += rep.counters["kept_bridge"]
    assert kept_bridge > 0


def test_trivial_edges():
    # edges pinned by a low-degree endpoint are kept untested
    def trivial(g):
        rep = filter_b(g, FilterConfig(strategy="test2edp", certificate=False))
        return {e for e, what in rep.decisions.items() if what == "kept-trivial"}

    assert trivial(g1()) == set(range(6))
    assert trivial(g2()) == set(range(3))
    G4 = g4()
    chord = next(e for e in range(8) if (G4.tail(e), G4.head(e)) == (2, 0))
    assert chord not in trivial(G4)


def test_report_covers_every_working_edge():
    g = g4()
    rep = filter_b(g, FilterConfig(strategy="test2ecb", certificate=False))
    assert sorted(rep.decisions) == list(range(8))
    assert set(rep.decisions.values()) <= {
        "kept-trivial", "kept-bridge", "kept-needed", "deleted"}
    assert rep.surviving == {e for e, d in rep.decisions.items() if d != "deleted"}


def test_aux_variant_fixture_values():
    aux = FilterConfig(strategy="test2edp", on_aux_graphs=True)
    assert preservation_violations(g1(), filter_b(g1(), aux).surviving, "B") == []
    assert filter_b(g2(), aux).surviving == set(range(3))


# the road-mix and dense-cert graphs of the benchmark, n = 311 and 335
_AUX_AT_SCALE = (lambda: road_grid(18, 0.12, 0.55, 1), dense_cert_graph)


def test_aux_variant_never_smaller_guarantees():
    rng = random.Random(101)
    for _ in range(30):
        g = random_strongly_connected(rng, rng.randint(3, 12))
        out = filter_b(g, FilterConfig(strategy="test2edp", on_aux_graphs=True)).surviving
        assert preservation_violations(g, out, "B") == []
    for make in _AUX_AT_SCALE:
        g = make()
        for strategy in ("test2edp", "hybrid"):
            out = filter_b(g, FilterConfig(strategy=strategy, on_aux_graphs=True)).surviving
            assert preservation_violations(g, out, "B") == [], strategy


def test_filter_bc_fixtures():
    assert filter_bc(g1()).surviving == set(range(6))
    assert filter_bc(g5()).surviving == set(range(8))
    out = filter_bc(linked_triangles()).surviving
    assert out == set(range(14))


def _ring_of_multigraphs(rng: random.Random, k: int) -> Digraph:
    """k 2-edge-connected pieces, each with some arcs doubled, joined in a
    ring by single arcs, so that the pieces are the 2EC components.  Vertex
    and edge ids are shuffled, so the components interleave in both."""
    sizes = [rng.randint(3, 12) for _ in range(k)]
    starts = [sum(sizes[:i]) for i in range(k)]
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    arcs = []
    for first, size in zip(starts, sizes):
        piece = random_two_edge_connected(rng, size)
        inner = [(perm[first + t], perm[first + h])
                 for t, h in zip(piece.tails.tolist(), piece.heads.tolist())]
        arcs += inner + rng.sample(inner, rng.randint(1, len(inner) // 2))
    arcs += [(perm[starts[i]], perm[starts[(i + 1) % k]]) for i in range(k)]
    rng.shuffle(arcs)
    return Digraph(len(perm), [t for t, _ in arcs], [h for _, h in arcs])


def test_filter_bc_minimizes_components_as_one_run_each():
    # filter_bc minimizes all components in one run; with a search that
    # crossed into another component, or candidates out of their order, its
    # survivors would differ from one run per component under a one-class
    # partition
    rng = random.Random(131)
    graphs = [road_grid(30, 0.12, 0.55, 1), dense_cert_graph()]
    graphs += [_ring_of_multigraphs(rng, rng.randint(2, 6)) for _ in range(6)]
    split = deleted = 0
    for g in graphs:
        edges = set(_condensed(g, cap=2)[0])
        pieces = _components(g)[1]
        inside, expected = set(), set()
        for sub, _ in pieces:
            origin = sub.origin.tolist()
            own = [e for e in sub.edge_ids.tolist() if origin[e] in edges]
            run = _run_strategy(sub.subgraph_edges(own), FilterConfig(), Partition([0] * sub.n))
            inside.update(origin[e] for e in sub.edge_ids.tolist())
            expected |= {origin[e] for e in run.surviving}
            deleted += run.counters["deleted"]
        rep = filter_bc(g)
        assert rep.surviving & inside == expected
        assert rep.counters["component_edges"] == len(expected)
        split += len(pieces) >= 2
    assert split >= 6 and deleted > 0


def test_filter_bc_aux_mode():
    rng = random.Random(103)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(3, 10))
        cfg = FilterConfig(strategy="hybrid", on_aux_graphs=True)
        assert preservation_violations(g, filter_bc(g, cfg).surviving, "BC") == []
    for make in _AUX_AT_SCALE:
        g = make()
        for strategy in ("test2edp", "hybrid"):
            cfg = FilterConfig(strategy=strategy, on_aux_graphs=True)
            assert preservation_violations(g, filter_bc(g, cfg).surviving, "BC") == [], strategy


def test_filters_reject_disconnected():
    # every path: with and without the certificate, on and off the aux graphs
    g = build(3, [(0, 1), (1, 2)])
    for run in (filter_b, filter_bc):
        for certificate in (True, False):
            for on_aux_graphs in (False, True):
                cfg = FilterConfig(certificate=certificate, on_aux_graphs=on_aux_graphs)
                with pytest.raises(GraphError, match="must be strongly connected"):
                    run(g, cfg)


def test_edge_order_variants_stay_valid():
    rng = random.Random(107)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(3, 9))
        for order, seed in (("input", 0), ("reverse", 0), ("random", 3)):
            cfg = FilterConfig(strategy="test2edp", edge_order=order, seed=seed)
            assert preservation_violations(g, filter_b(g, cfg).surviving, "B") == []


def test_filter_config_rejects_unknown_values():
    with pytest.raises(ValueError, match="'bogus'"):
        FilterConfig(strategy="bogus")
    with pytest.raises(ValueError, match="'sideways'"):
        FilterConfig(edge_order="sideways")
    with pytest.raises(ValueError, match="^filter option 'seed' must be an integer, not '7'$"):
        FilterConfig(seed="7")
    with pytest.raises(ValueError, match="^filter option 'certificate' must be a boolean, not 1$"):
        FilterConfig(certificate=1)
    with pytest.raises(ValueError, match="'seed'.*True"):
        FilterConfig(seed=True)
    for name, value in (("certificate", "false"), ("trivial_skip", "no"),
                        ("on_aux_graphs", 1)):
        with pytest.raises(ValueError, match=f"'{name}'.*{value!r}"):
            FilterConfig(**{name: value})


@pytest.mark.parametrize("on_aux_graphs", [False, True])
@pytest.mark.parametrize("strategy", ["test2edp", "test2ecb", "hybrid"])
def test_config_selects_the_tests_run(strategy, on_aux_graphs):
    g = random_strongly_connected(random.Random(3), 12, 30)
    rep = filter_b(g, FilterConfig(strategy=strategy, on_aux_graphs=on_aux_graphs))
    if on_aux_graphs:
        assert "tested_inner" in rep.counters and "tested_2edp" not in rep.counters
        return
    runs = {"test2edp": {"tested_2edp"}, "test2ecb": {"tested_blocks"},
            "hybrid": {"tested_2edp", "tested_blocks"}}[strategy]
    for kind in ("tested_2edp", "tested_blocks"):
        assert (rep.counters[kind] > 0) == (kind in runs), kind
