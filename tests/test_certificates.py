import random

import pytest

from twoec.blocks import blocks, components, preservation_violations
from twoec.certificates import (
    ist_b, ist_b_original, ist_bc, two_ecss_edt, zni_c, zni_scss,
)
from twoec.digraph import GraphError, build, scc
from twoec.fixtures import (
    g1, g2, g4, g5, linked_triangles, random_strongly_connected,
    random_two_edge_connected, road_grid,
)
from twoec.oracle import OracleBudget, oracle_min_subgraph


def test_ist_b_original_fixtures():
    assert ist_b_original(g2()).edge_set() == {0, 1, 2}
    assert ist_b_original(g5()).edge_set() == set(range(8))
    out = ist_b_original(g1()).edge_set()
    assert len(out) <= 6
    assert preservation_violations(g1(), out, "B") == []


def test_ist_b_fixtures_and_bounds():
    cert, stats = ist_b(g2())
    assert cert.edge_set() == {0, 1, 2}
    assert stats.total_distinct <= 4 * (stats.n + stats.n_prime) == 12

    cert, stats = ist_b(g5())
    assert cert.edge_set() == set(range(8))
    assert stats.n == 6 and stats.n_prime == 2


def test_ist_b_root_invariance_of_correctness():
    rng = random.Random(53)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        for root in range(min(g.n, 3)):
            cert, _ = ist_b(g, root)
            assert preservation_violations(g, cert.edge_set(), "B") == []


def test_ist_b_phase_counts_random():
    rng = random.Random(59)
    for _ in range(150):
        g = random_strongly_connected(rng, rng.randint(2, 30))
        cert, stats = ist_b(g)
        assert stats.phase1_new == 2 * stats.n - stats.bridges - 2
        assert stats.phase2_new <= 2 * stats.n - stats.bridges
        assert stats.phase3_new <= 2 * stats.n_prime + 2 * stats.bridges
        assert stats.total_distinct <= 4 * (stats.n + stats.n_prime)
        assert stats.total_distinct == len(cert.edge_set())
        # n' really is the nontrivial-block vertex count
        part = blocks(g)
        sizes = part.sizes()
        k = sum(1 for c in part.comp.tolist() if sizes[c] >= 2)
        assert stats.n_prime == k


def test_certificates_preserve_blocks():
    rng = random.Random(61)
    for _ in range(120):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        for cert in (ist_b(g)[0], ist_b_original(g)):
            assert preservation_violations(g, cert.edge_set(), "B") == []


def test_two_ecss_edt():
    assert two_ecss_edt(g1()) == set(range(6))
    c4 = build(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    assert two_ecss_edt(c4) == set(range(8))
    k4 = build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    out = two_ecss_edt(k4)
    assert 8 <= len(out) <= 12
    sub = k4.subgraph_edges(sorted(out))
    from twoec.dominators import strong_bridges
    assert scc(sub).count == 1 and not strong_bridges(sub)


def test_two_ecss_edt_rejects_bridges():
    with pytest.raises(GraphError):
        two_ecss_edt(g2())


def test_zni_scss_fixtures():
    assert len(zni_scss(g2())) == 3
    out = zni_scss(g1())
    assert len(out) in (3, 4)
    assert scc(g1().subgraph_edges(sorted(out))).count == 1
    # preferring a directed 3-cycle returns exactly that cycle
    cycle = {0, 2, 5}  # (0,1), (1,2), (2,0)
    assert zni_scss(g1(), preferred=cycle) == cycle


def test_zni_scss_preferred_road_grid():
    # 2 % of the edges preferred: each new frame looks its pre-merged group
    # up instead of scanning every vertex
    g = road_grid(60, 0.12, 0.55, 1)
    preferred = set(random.Random(3).sample(g.edge_ids.tolist(), g.m // 50))
    out = zni_scss(g, preferred=preferred)
    assert out <= set(g.edge_ids.tolist())
    assert scc(g.subgraph_edges(sorted(out))).count == 1
    part = scc(g.subgraph_edges(sorted(preferred)))
    sizes = part.sizes()
    inside = {e for e in preferred if part.comp[g.tail(e)] == part.comp[g.head(e)]
              and sizes[part.comp[g.tail(e)]] >= 2}
    assert inside and inside <= out


def test_zni_scss_rejects_disconnected():
    with pytest.raises(GraphError):
        zni_scss(build(3, [(0, 1), (1, 2)]))


def test_zni_ratio_small():
    rng = random.Random(67)
    budget = OracleBudget(max_exhaustive_n=8, max_m=40)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(2, 8), None)
        if g.m > 40:
            continue
        out = zni_scss(g)
        assert scc(g.subgraph_edges(sorted(out))).count == 1
        best, _ = oracle_min_subgraph(g, "SCSS", budget)
        assert len(out) <= (5 * best + 2) // 3


def test_ist_bc_fixtures():
    assert ist_bc(g1()).edge_set() == two_ecss_edt(g1())
    assert ist_bc(g5()).edge_set() == set(range(8))
    out = ist_bc(linked_triangles()).edge_set()
    assert preservation_violations(linked_triangles(), out, "BC") == []
    assert out == set(range(14))  # both triangles need all 6; both cross bridges stay


def test_ist_bc_and_zni_c_preserve():
    rng = random.Random(71)
    for _ in range(100):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        assert preservation_violations(g, ist_bc(g).edge_set(), "BC") == []
        assert preservation_violations(g, zni_c(g), "C") == []


def test_zni_c_fixtures():
    assert len(zni_c(g2())) == 3
    assert len(zni_c(g1())) == 6
    out = zni_c(g5())
    assert len(out) >= 6
    assert preservation_violations(g5(), out, "C") == []


def test_certificate_multigraph_input():
    # parallel edges must survive the pipeline (condensed graphs are multi)
    g = build(2, [(0, 1), (0, 1), (1, 0), (1, 0)], allow_multi=True)
    cert, stats = ist_b(g)
    sub = g.subgraph_edges(sorted(cert.edge_set()))
    assert scc(sub).count == 1
    assert blocks(sub) == blocks(g)
