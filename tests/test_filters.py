import random

import pytest

from twoec.blocks import blocks, preservation_violations
from twoec.digraph import GraphError, build, delete_edge_view, scc
from twoec.filters import (
    FilterConfig, aux_variant_filter, filter_bc, hybrid_filter, two_edge_disjoint,
)
from twoec.filters import test2ecb_filter as ecb_filter
from twoec.filters import test2edp_filter as edp_filter
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected,
    random_two_edge_connected,
)
from twoec.oracle import oracle_blocks


def test_two_edge_disjoint_pairs():
    G1, G2, G5 = g1(), g2(), g5()
    for x in range(3):
        for y in range(3):
            if x != y:
                assert two_edge_disjoint(G1, x, y)
    assert not two_edge_disjoint(G2, 0, 1)
    assert two_edge_disjoint(G5, 0, 1)
    cut = G5.subgraph_edges([e for e in range(8) if e != 0])  # drop (u, a)
    assert not two_edge_disjoint(cut, 0, 1)


def test_test2edp_fixtures():
    assert edp_filter(g1()).surviving == set(range(6))
    assert edp_filter(g2()).surviving == set(range(3))
    k4 = build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    out = edp_filter(k4, FilterConfig(certificate=False)).surviving
    assert len(out) == 8


def test_test2ecb_fixtures():
    assert ecb_filter(g5()).surviving == set(range(8))
    assert ecb_filter(g1()).surviving == set(range(6))
    out = ecb_filter(g4(), FilterConfig(certificate=False)).surviving
    g = g4()
    pairs = sorted((g.tail(e), g.head(e)) for e in out)
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]


def test_hybrid_equals_test2ecb():
    rng = random.Random(73)
    for cfgkw in ({}, {"edge_order": "reverse"}, {"edge_order": "random", "seed": 5}):
        for _ in range(60):
            g = random_strongly_connected(rng, rng.randint(2, 10))
            a = ecb_filter(g, FilterConfig(strategy="test2ecb", **cfgkw)).surviving
            b = hybrid_filter(g, FilterConfig(strategy="hybrid", **cfgkw)).surviving
            assert a == b


def test_hybrid_equals_test2edp_on_2ec_inputs():
    rng = random.Random(79)
    for _ in range(40):
        g = random_two_edge_connected(rng, rng.randint(3, 8))
        a = hybrid_filter(g).surviving
        b = edp_filter(g).surviving
        assert a == b


def test_filters_preserve_structure():
    rng = random.Random(83)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        assert preservation_violations(g, edp_filter(g).surviving, "B") == []
        assert preservation_violations(g, ecb_filter(g).surviving, "B") == []
        assert preservation_violations(g, aux_variant_filter(g).surviving, "B") == []
        assert preservation_violations(g, filter_bc(g).surviving, "BC") == []


def test_test2ecb_output_minimal():
    rng = random.Random(89)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 9))
        out = ecb_filter(g).surviving
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
            edp_deletes = two_edge_disjoint(rest, g.tail(e), g.head(e))
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
            rep = ecb_filter(g, FilterConfig(certificate=False, trivial_skip=skip))
            current = g
            for e, what in rep.decisions.items():
                if what == "kept-trivial":
                    continue
                rest = delete_edge_view(current, e)
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


def test_trivial_edges():
    # edges pinned by a low-degree endpoint are kept untested
    def trivial(g):
        rep = edp_filter(g, FilterConfig(certificate=False))
        return {e for e, what in rep.decisions.items() if what == "kept-trivial"}

    assert trivial(g1()) == set(range(6))
    assert trivial(g2()) == set(range(3))
    G4 = g4()
    chord = next(e for e in range(8) if (G4.tail(e), G4.head(e)) == (2, 0))
    assert chord not in trivial(G4)


def test_trivial_skip_neutrality():
    rng = random.Random(97)
    corpus = [g1(), g2(), g4(), g5(), linked_triangles()]
    for i, g in enumerate(corpus + [random_strongly_connected(rng, rng.randint(3, 10))
                                    for _ in range(30)]):
        for strat, fn in (("test2edp", edp_filter),
                          ("test2ecb", ecb_filter),
                          ("hybrid", hybrid_filter)):
            on = fn(g, FilterConfig(strategy=strat, trivial_skip=True))
            off = fn(g, FilterConfig(strategy=strat, trivial_skip=False))
            assert on.surviving == off.surviving
            tested_on = on.counters["tested_2edp"] + on.counters["tested_blocks"]
            tested_off = off.counters["tested_2edp"] + off.counters["tested_blocks"]
            assert tested_on <= tested_off


def test_report_covers_every_working_edge():
    g = g4()
    rep = ecb_filter(g, FilterConfig(certificate=False))
    assert sorted(rep.decisions) == list(range(8))
    assert set(rep.decisions.values()) <= {
        "kept-trivial", "kept-bridge", "kept-needed", "deleted"}
    assert rep.surviving == {e for e, d in rep.decisions.items() if d != "deleted"}


def test_aux_variant_fixture_values():
    assert preservation_violations(g1(), aux_variant_filter(g1()).surviving, "B") == []
    assert aux_variant_filter(g2()).surviving == set(range(3))


def test_aux_variant_never_smaller_guarantees():
    rng = random.Random(101)
    for _ in range(30):
        g = random_strongly_connected(rng, rng.randint(3, 12))
        out = aux_variant_filter(g).surviving
        assert preservation_violations(g, out, "B") == []


def test_filter_bc_fixtures():
    assert filter_bc(g1()).surviving == set(range(6))
    assert filter_bc(g5()).surviving == set(range(8))
    out = filter_bc(linked_triangles()).surviving
    assert out == set(range(14))


def test_filter_bc_aux_mode():
    rng = random.Random(103)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(3, 10))
        cfg = FilterConfig(strategy="hybrid", on_aux_graphs=True)
        assert preservation_violations(g, filter_bc(g, cfg).surviving, "BC") == []


def test_filters_reject_disconnected():
    g = build(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        edp_filter(g)


def test_edge_order_variants_stay_valid():
    rng = random.Random(107)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randint(3, 9))
        for order, seed in (("input", 0), ("reverse", 0), ("random", 3)):
            cfg = FilterConfig(strategy="test2edp", edge_order=order, seed=seed)
            assert preservation_violations(g, edp_filter(g, cfg).surviving, "B") == []
