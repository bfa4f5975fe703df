import random

import pytest

from twoec.blocks import preservation_violations
from twoec.digraph import GraphError, build
from twoec.fixtures import g1, g2, g5, random_strongly_connected
from twoec.oracle import (
    OracleBudget, gadget_family, gadget_minimal_witness, oracle_blocks,
    oracle_components, oracle_min_subgraph, two_edge_connected_pair,
)


def test_pairwise_definition():
    G5 = g5()
    assert two_edge_connected_pair(G5, 0, 1)
    assert not two_edge_connected_pair(G5, 0, 2)
    assert two_edge_connected_pair(g1(), 0, 2)


def test_oracle_blocks_fixtures():
    assert oracle_blocks(g1()).count == 1
    assert oracle_blocks(g2()).count == 3
    part = oracle_blocks(g5())
    assert part.comp[0] == part.comp[1] and part.count == 5


def test_oracle_components_fixtures():
    assert oracle_components(g1()).count == 1
    assert oracle_components(g5()).count == 6


def test_budget_guard():
    big = random_strongly_connected(random.Random(1), 13)
    with pytest.raises(GraphError):
        oracle_blocks(big, OracleBudget(max_pairwise_n=12))


def test_min_subgraph_fixtures():
    assert oracle_min_subgraph(g1(), "SCSS")[0] == 3
    assert oracle_min_subgraph(g5(), "2EC-B")[0] == 8
    k4 = build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert oracle_min_subgraph(k4, "2ECSS", OracleBudget(max_m=30))[0] == 8


def test_min_subgraph_witness_is_valid_and_deterministic():
    size, w1 = oracle_min_subgraph(g5(), "2EC-B")
    _, w2 = oracle_min_subgraph(g5(), "2EC-B")
    assert w1 == w2 and len(w1) == size


def test_min_subgraph_respects_block_lower_bound():
    # smallest 2EC-B has at least n + n' edges
    rng = random.Random(3)
    budget = OracleBudget(max_exhaustive_n=6, max_m=20)
    for _ in range(25):
        g = random_strongly_connected(rng, rng.randint(2, 6), None)
        if g.m > 20:
            continue
        part = oracle_blocks(g)
        sizes = part.sizes()
        nprime = sum(1 for c in part.comp.tolist() if sizes[c] >= 2)
        size, _ = oracle_min_subgraph(g, "2EC-B", budget)
        assert size >= g.n + nprime


def test_gadget_counts():
    g = gadget_family(4)
    assert g.n == 8 and g.m == 6 * 8 - 21
    from twoec.blocks import blocks, components
    b = blocks(g)
    assert b.comp.tolist()[:4] == [0, 0, 0, 0] and b.count == 5
    c = components(g)
    assert c.comp.tolist()[:4] == [0, 0, 0, 0] and c.count == 5


def test_gadget_rejects_small_k():
    with pytest.raises(GraphError):
        gadget_family(3)


def test_gadget_minimal_witness():
    g = gadget_family(4)
    wit = gadget_minimal_witness(4)
    assert len(wit) == 3 * 8 - 9
    assert preservation_violations(g, wit, "B") == []
    for e in wit:
        rest = [x for x in wit if x != e]
        assert preservation_violations(g, rest, "B") != []


def test_gadget_scales():
    g = gadget_family(6)
    assert g.n == 10 and g.m == 6 * 10 - 21
    from twoec.blocks import blocks
    part = blocks(g)
    assert part.comp.tolist()[:6] == [0] * 6 and part.count == 5
    wit = gadget_minimal_witness(6)
    assert len(wit) == 3 * 10 - 9
    assert preservation_violations(g, wit, "B") == []
