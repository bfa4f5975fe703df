"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Rome99 reproduction
needs the DIMACS file at data/rome99.gr (or $TWOEC_DATA/rome99.gr); it is
skipped when the dataset has not been fetched.
"""
import os
import random
import time
from pathlib import Path

import pytest

from twoec.bench import ALGORITHMS, lower_bound, run_algorithm
from twoec.blocks import blocks, components, preservation_violations
from twoec.certificates import two_ecss_edt, zni_scss
from twoec.digraph import largest_scc, scc
from twoec.dominators import strong_bridges
from twoec.filters import FilterConfig, filter_b
from twoec.fixtures import g1, g2, g4, g5, random_strongly_connected, road_grid
from twoec.io import load_graph

from graph_builders import corpus, ist_b_within_theorem2, random_two_edge_connected, without_edge
from oracle import (
    OracleBudget, gadget_family, gadget_minimal_witness, oracle_blocks,
    oracle_components, oracle_min_subgraph, two_edge_connected_pair,
)


FIXTURES = {"G1": g1(), "G2": g2(), "G4": g4(), "G5": g5()}


def _dataset(name: str) -> Path:
    root = Path(os.environ.get("TWOEC_DATA", "data"))
    return root / name


def test_oracle_equivalence():
    """Criterion 1: blocks/components/strong bridges match brute-force oracles."""
    t0 = time.time()
    rng = random.Random(20240)
    graphs = list(FIXTURES.items())
    for i in range(500):
        n = rng.randint(2, 10)
        m = rng.randint(n, min(20, n * (n - 1)))
        graphs.append((f"rand{i}", random_strongly_connected(rng, n, m)))
    for name, g in graphs:
        assert blocks(g) == oracle_blocks(g), name
        assert components(g) == oracle_components(g), name
        truth = {e for e in g.edge_ids.tolist()
                 if scc(without_edge(g, e)).count > 1}
        assert strong_bridges(g) == truth, name
    elapsed = time.time() - t0
    assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"
    print(f"\n[PASS] oracle equivalence on {len(graphs)} graphs in {elapsed:.1f}s")


def test_theorem2_bounds():
    """Criterion 2: ist_b edge counts respect the 4(n+n') bound and the
    per-phase budgets 2n-b-2 / 2n-b / 2n'+2b."""
    rng = random.Random(20241)
    graphs = list(FIXTURES.values())
    graphs += [random_strongly_connected(rng, rng.randint(2, 50)) for _ in range(400)]
    for g in graphs:
        ist_b_within_theorem2(g)
    print(f"\n[PASS] Theorem-2 bounds on {len(graphs)} graphs, zero violations")


def test_preservation_suite():
    """Criterion 3: every catalog algorithm preserves the structure its
    problem demands, on the full corpus."""
    cases = dict(corpus())
    cases["gadget4"] = gadget_family(4)
    checked = 0
    for gname, g in cases.items():
        for algo, problem in ALGORITHMS.items():
            out = run_algorithm(algo, g)
            violations = preservation_violations(g, out, problem)
            assert violations == [], (gname, algo, violations)
            checked += 1
    print(f"\n[PASS] preservation: {checked} algorithm/graph cells, zero violations")


def test_hybrid_equivalences():
    """Criterion 4: Hybrid == Test2ECB everywhere; Hybrid == Test2EDP on
    2-edge-connected inputs (Lemma 1)."""
    rng = random.Random(20242)
    for i in range(200):
        g = random_strongly_connected(rng, rng.randint(2, 10))
        cfg_kw = {"edge_order": ("input", "reverse", "random")[i % 3], "seed": i}
        a = filter_b(g, FilterConfig(strategy="test2ecb", **cfg_kw)).surviving
        b = filter_b(g, FilterConfig(strategy="hybrid", **cfg_kw)).surviving
        assert a == b, i
    for i in range(60):
        g = random_two_edge_connected(rng, rng.randint(3, 8))
        a = filter_b(g, FilterConfig(strategy="hybrid")).surviving
        b = filter_b(g, FilterConfig(strategy="test2edp")).surviving
        assert a == b, i
    print("\n[PASS] Hybrid==Test2ECB on 200 graphs; Hybrid==Test2EDP on 60 2EC graphs")


def test_approximation_spot_checks():
    """Criterion 5: zni_scss within 5/3 of the exhaustive SCSS minimum and
    two_ecss_edt within 2x of the exhaustive 2ECSS minimum, n <= 6."""
    t0 = time.time()
    rng = random.Random(20243)
    budget = OracleBudget(max_exhaustive_n=8, max_m=40)
    zni_checked = edt_checked = 0
    graphs = [g for g in FIXTURES.values() if g.n <= 6] + [
        random_strongly_connected(rng, rng.randint(2, 6)) for _ in range(250)]
    for g in graphs:
        if g.m > 40:
            continue
        out = zni_scss(g)
        best, _ = oracle_min_subgraph(g, "SCSS", budget)
        assert 3 * len(out) <= 5 * best, (g.edge_pairs(), len(out), best)
        zni_checked += 1
    for _ in range(120):
        g = random_two_edge_connected(rng, rng.randint(3, 6))
        if g.m > 40:
            continue
        out = two_ecss_edt(g)
        best, _ = oracle_min_subgraph(g, "2ECSS", budget)
        assert len(out) <= 2 * best, (g.edge_pairs(), len(out), best)
        edt_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"spot checks took {elapsed:.0f}s"
    print(f"\n[PASS] approximation: {zni_checked} SCSS + {edt_checked} 2ECSS checks "
          f"in {elapsed:.1f}s, zero violations")


def test_gadget_counts():
    """Criterion 6: k=4 gadget has exhaustive 2EC-B minimum 2n-4 = 12 and a
    certified minimal solution of size 3n-9 = 15."""
    g = gadget_family(4)
    budget = OracleBudget(max_exhaustive_n=8, max_m=30)
    size, witness = oracle_min_subgraph(g, "2EC-B", budget)
    assert size == 2 * g.n - 4 == 12
    assert preservation_violations(g, witness, "B") == []
    wit = gadget_minimal_witness(4)
    assert len(wit) == 3 * g.n - 9 == 15
    assert preservation_violations(g, wit, "B") == []
    for e in wit:
        assert preservation_violations(g, [x for x in wit if x != e], "B") != []
    print("\n[PASS] gadget k=4: minimum 12, certified minimal solution 15")


@pytest.mark.skipif(not _dataset("rome99.gr").exists(),
                    reason="Rome99 dataset not fetched (data/rome99.gr)")
def test_rome99_reproduction():
    """Criterion 7: Rome99 structural counts exactly; quality-ratio windows."""
    g = largest_scc(load_graph(_dataset("rome99.gr"), "dimacs"))
    assert (g.n, g.m) == (3353, 8859)
    bstar = len(strong_bridges(g))
    assert bstar == 1474
    block_part = blocks(g)
    comp_part = components(g)
    lb_b = lower_bound("B", g, block_part, comp_part)
    lb_c = lower_bound("C", g, block_part, comp_part)
    assert abs(lb_b - 1.75) <= 0.005, lb_b
    assert abs(lb_c - 1.67) <= 0.005, lb_c
    windows = {"ist-b": 1.60, "test2edp-b": 1.35, "hybrid-b": 1.30}
    for algo, cap in windows.items():
        out = run_algorithm(algo, g)
        q = (len(out) / g.n) / lb_b
        assert 1.0 <= q <= cap, (algo, q)
        print(f"  rome99 {algo}: q = {q:.3f} (window <= {cap})")
    print(f"\n[PASS] Rome99: n=3353 m=8859 b*=1474, bounds {lb_b:.3f}/{lb_c:.3f}, q in windows")


def test_blocks_match_the_pair_definition_at_rome99_scale():
    """Rome99 stand-in, checked without blocks(): on a road grid of Rome99's
    size, blocks() puts a sampled vertex pair in one block iff the pair has
    two edge-disjoint paths each way.  The pairs are both ends of 1000
    seeded edges and 1000 seeded random pairs."""
    t0 = time.time()
    g = road_grid(60, 0.12, 0.55, 1)
    assert g.n == 3473
    comp = blocks(g).comp.tolist()
    rng = random.Random(60)
    pairs = [(g.tail(e), g.head(e)) for e in rng.sample(g.edge_ids.tolist(), 1000)]
    pairs += [tuple(rng.sample(range(g.n), 2)) for _ in range(1000)]
    together = 0
    for u, v in pairs:
        same = comp[u] == comp[v]
        assert two_edge_connected_pair(g, u, v) == same, (u, v)
        together += same
    assert 0 < together < len(pairs)
    print(f"\n[PASS] road grid n={g.n} m={g.m}: blocks() agrees on {len(pairs)} pairs, "
          f"{together} in one block, in {time.time() - t0:.1f}s")


def test_trivial_skip_neutrality():
    """Criterion 8: the trivial-edge heuristic changes no output, only
    reduces the number of expensive tests."""
    cases = list(corpus().values())
    for seed, count in ((20244, 40), (97, 30)):
        rng = random.Random(seed)
        cases += [random_strongly_connected(rng, rng.randint(3, 10)) for _ in range(count)]
    reduced_somewhere = False
    for g in cases:
        for strat in ("test2edp", "test2ecb", "hybrid"):
            on = filter_b(g, FilterConfig(strategy=strat, trivial_skip=True))
            off = filter_b(g, FilterConfig(strategy=strat, trivial_skip=False))
            assert on.surviving == off.surviving, strat
            t_on = on.counters["tested_2edp"] + on.counters["tested_blocks"]
            t_off = off.counters["tested_2edp"] + off.counters["tested_blocks"]
            assert t_on <= t_off
            if t_on < t_off:
                reduced_somewhere = True
    assert reduced_somewhere
    print(f"\n[PASS] trivial-skip neutrality on {len(cases)} graphs x 3 strategies")
