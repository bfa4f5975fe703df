import hashlib
import random

import pytest

from twoec import certificates
from twoec.blocks import blocks, preservation_violations
from twoec.certificates import (
    CertificateStats, _ist_pipeline, _preferred_first, ist_b, ist_b_original, ist_bc,
    two_ecss_edt, zni_c, zni_scss,
)
from twoec.digraph import GraphError, build, scc
from twoec.dominators import dominator_tree, flow_bridges
from twoec.fixtures import g1, g2, g4, g5, linked_triangles, random_strongly_connected, road_grid

from graph_builders import dense_cert_graph, ist_b_within_theorem2
from oracle import OracleBudget, oracle_min_subgraph


def test_ist_b_original_fixtures():
    assert ist_b_original(g2()) == {0, 1, 2}
    assert ist_b_original(g5()) == set(range(8))
    out = ist_b_original(g1())
    assert len(out) <= 6
    assert preservation_violations(g1(), out, "B") == []


def test_ist_b_fixtures_and_bounds():
    cert, stats = ist_b(g2())
    assert cert == {0, 1, 2}
    assert len(cert) <= 4 * (stats.n + stats.n_prime) == 12

    cert, stats = ist_b(g5())
    assert cert == set(range(8))
    assert stats.n == 6 and stats.n_prime == 2


# ist_b on the two graphs of tests/test_catalog_outputs.py: its statistics,
# and the size and a digest of its sorted edge set.  The edge-set pins there
# cannot see n' nor how the edges split among the phases.
CERTIFICATE_PINS = {
    "road-grid-12": (
        lambda: road_grid(12, 0.12, 0.55, 1),
        CertificateStats(n=130, n_prime=81, bridges=32,
                         phase1_new=226, phase2_new=43, phase3_new=0),
        269, "469fb282355fa8d5"),
    "random-40-120": (
        lambda: random_strongly_connected(random.Random(5), 40, 120),
        CertificateStats(n=40, n_prime=25, bridges=7,
                         phase1_new=71, phase2_new=20, phase3_new=0),
        91, "c881a24c2f3106da"),
}


@pytest.mark.parametrize("graph", sorted(CERTIFICATE_PINS))
def test_ist_b_certificate_pinned(graph):
    make, stats, count, digest = CERTIFICATE_PINS[graph]
    cert, got = ist_b(make())
    assert got == stats
    assert len(cert) == count
    assert _edges_digest(cert) == digest


# The same two graphs: ist_b from the last vertex, and ist_b_original from
# the first and the last vertex.
LAST_VERTEX_PINS = {
    "road-grid-12": (CertificateStats(n=130, n_prime=81, bridges=28,
                                      phase1_new=230, phase2_new=43, phase3_new=0),
                     273, "d6ac062577314561"),
    "random-40-120": (CertificateStats(n=40, n_prime=25, bridges=7,
                                       phase1_new=71, phase2_new=17, phase3_new=0),
                      88, "641e06b23740fb53"),
}
ORIGINAL_PINS = {
    ("road-grid-12", "first"): (299, "93475b73a0d49288"),
    ("road-grid-12", "last"): (296, "ba7d68b8f2076d2b"),
    ("random-40-120", "first"): (102, "daa229b89ccdecd3"),
    ("random-40-120", "last"): (101, "04c36193460235e7"),
}


def _edges_digest(edges) -> str:
    text = ",".join(map(str, sorted(edges)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("graph", sorted(LAST_VERTEX_PINS))
def test_ist_b_certificate_pinned_at_last_vertex(graph):
    g = CERTIFICATE_PINS[graph][0]()
    stats, count, digest = LAST_VERTEX_PINS[graph]
    cert, got = ist_b(g, g.n - 1)
    assert got == stats
    assert len(cert) == count
    assert _edges_digest(cert) == digest


@pytest.mark.parametrize("graph,start", sorted(ORIGINAL_PINS))
def test_ist_b_original_certificate_pinned(graph, start):
    g = CERTIFICATE_PINS[graph][0]()
    count, digest = ORIGINAL_PINS[graph, start]
    cert = ist_b_original(g, 0 if start == "first" else g.n - 1)
    assert len(cert) == count
    assert _edges_digest(cert) == digest


def test_pipeline_partition_is_the_blocks():
    # phase 3's second-level SCCs, restricted to vertices ordinary at both
    # levels, are the blocks that filter_b hands to its test loop
    rng = random.Random(59)
    corpus = [g1(), g2(), g4(), g5(), linked_triangles(), road_grid(18, 0.12, 0.55, 1)]
    corpus += [random_strongly_connected(rng, rng.randint(1, 14)) for _ in range(80)]
    for g in corpus:
        for modified in (True, False):
            assert _ist_pipeline(g, 0, modified)[2] == blocks(g)


def test_ist_b_root_invariance_of_correctness():
    rng = random.Random(53)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        for root in range(min(g.n, 3)):
            cert, _ = ist_b(g, root)
            assert preservation_violations(g, cert, "B") == []


def test_start_vertex_out_of_range():
    for g in (g1(), build(1, [])):
        for s in (-1, g.n):
            for run in (dominator_tree, ist_b, ist_b_original):
                with pytest.raises(GraphError, match=f"start vertex {s} is out of range"):
                    run(g, s)


def test_ist_b_phase_counts_random():
    rng = random.Random(59)
    for _ in range(150):
        g = random_strongly_connected(rng, rng.randint(2, 30))
        cert, stats = ist_b_within_theorem2(g)
        assert stats.phase1_new + stats.phase2_new + stats.phase3_new == len(cert)
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
            assert preservation_violations(g, cert, "B") == []


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


def test_two_ecss_edt_rejects_a_bridge_of_the_reverse_flow_graph():
    # edge 8 (3, 0) is the one strong bridge: a bridge of G^R(0) but not of G(0)
    g = build(4, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (1, 3), (2, 3), (3, 0)])
    rev = g.reverse()
    assert flow_bridges(g, dominator_tree(g, 0)) == set()
    assert flow_bridges(rev, dominator_tree(rev, 0)) == {8}
    with pytest.raises(GraphError, match="strong bridge"):
        two_ecss_edt(g)


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


# zni_scss at scale, plain and with a third of the edges preferred: the
# size and a digest of the sorted output, as the union-find version gave them.
ZNI_PINS = {
    ("road-grid-60", "plain"): (4160, "e9f97b6c9f827500"),
    ("road-grid-60", "preferred"): (4592, "46d94f7194b4d43d"),
    ("dense-cert", "plain"): (409, "d11b04a7614e2304"),
    ("dense-cert", "preferred"): (449, "d6f03e80111d789f"),
}
ZNI_GRAPHS = {"road-grid-60": lambda: road_grid(60, 0.12, 0.55, 1),
              "dense-cert": dense_cert_graph}


@pytest.mark.parametrize("graph,run", sorted(ZNI_PINS))
def test_zni_scss_pinned_at_scale(graph, run):
    g = ZNI_GRAPHS[graph]()
    preferred = None
    if run == "preferred":
        preferred = set(random.Random(3).sample(g.edge_ids.tolist(), g.m // 3))
    out = sorted(zni_scss(g, preferred=preferred))
    count, digest = ZNI_PINS[graph, run]
    assert len(out) == count
    assert hashlib.sha256(",".join(map(str, out)).encode()).hexdigest()[:16] == digest


def test_preferred_first_reorders_each_slot():
    g = road_grid(8, 0.12, 0.55, 1)
    assert _preferred_first(g, set()) == g.out_lists()
    preferred = set(random.Random(5).sample(g.edge_ids.tolist(), g.m // 3))
    start, eids, heads = _preferred_first(g, preferred)
    plain_start, plain_eids, _ = g.out_lists()
    assert start == plain_start
    for v in range(g.n):
        slot = eids[start[v]:start[v + 1]]
        ids = plain_eids[start[v]:start[v + 1]]
        assert slot == sorted(e for e in ids if e in preferred) + sorted(
            e for e in ids if e not in preferred)
        assert heads[start[v]:start[v + 1]] == [g.head(e) for e in slot]


def test_zni_scss_rejects_disconnected():
    with pytest.raises(GraphError):
        zni_scss(build(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("make", [
    lambda: road_grid(12, 0.12, 0.55, 1), dense_cert_graph,
], ids=["road-grid-12", "dense-cert"])
def test_one_strong_connectivity_check_per_certificate(make, monkeypatch):
    """`ist_b` checks its input once and `zni_c` leaves the check to
    `components`: the zni_scss runs inside them get strongly connected graphs."""
    checked, cores = [], []
    check, core = certificates._ensure_strongly_connected, certificates._zni_scss

    def counting_check(g):
        checked.append(g.n)
        check(g)

    def counting_core(g, preferred):
        cores.append(g.n)
        return core(g, preferred)

    monkeypatch.setattr(certificates, "_ensure_strongly_connected", counting_check)
    monkeypatch.setattr(certificates, "_zni_scss", counting_core)
    g = make()
    for calls in (1, 2):
        ist_b(g)
        assert len(checked) == calls
    assert cores                        # phase 3 ran zni_scss
    checked.clear()
    cores.clear()
    zni_c(g)
    assert checked == [] and len(cores) == 1
    assert zni_scss(g) and len(checked) == 1


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
    assert ist_bc(g1()) == two_ecss_edt(g1())
    assert ist_bc(g5()) == set(range(8))
    out = ist_bc(linked_triangles())
    assert preservation_violations(linked_triangles(), out, "BC") == []
    assert out == set(range(14))  # both triangles need all 6; both cross bridges stay


def test_ist_bc_and_zni_c_preserve():
    rng = random.Random(71)
    for _ in range(100):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        assert preservation_violations(g, ist_bc(g), "BC") == []
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
    sub = g.subgraph_edges(sorted(cert))
    assert scc(sub).count == 1
    assert blocks(sub) == blocks(g)
