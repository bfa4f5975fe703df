"""The deletion heuristics and their relationships.

Runs the two-edge-disjoint-paths test, the block-preservation test, and the
hybrid on the same inputs, showing that the hybrid reproduces the block test
exactly while usually running far fewer expensive checks, and that the
trivial-edge skip changes nothing but the work done.
"""
import random

from twoec import FilterConfig, filter_b
from twoec.fixtures import g4, random_strongly_connected

g = g4()
edp, ecb, hyb = (filter_b(g, FilterConfig(strategy=s, certificate=False))
                 for s in ("test2edp", "test2ecb", "hybrid"))
print("two linked 3-cycles (8 edges):")
print(f"  test2edp keeps {len(edp.surviving)}, test2ecb keeps {len(ecb.surviving)}, "
      f"hybrid keeps {len(hyb.surviving)}")
print(f"  hybrid == test2ecb: {hyb.surviving == ecb.surviving}")
print(f"  the two chords were deleted by the block test: "
      f"{sorted((g.tail(e), g.head(e)) for e in set(range(8)) - ecb.surviving)}")

rng = random.Random(4)
print("\ntrivial-edge skip saves tests without changing results:")
for _ in range(3):
    g = random_strongly_connected(rng, 12, 30)
    on = filter_b(g, FilterConfig(strategy="hybrid", trivial_skip=True))
    off = filter_b(g, FilterConfig(strategy="hybrid", trivial_skip=False))
    assert on.surviving == off.surviving
    t_on = on.counters["tested_2edp"] + on.counters["tested_blocks"]
    t_off = off.counters["tested_2edp"] + off.counters["tested_blocks"]
    print(f"  n={g.n} m={g.m}: {t_off} tests -> {t_on} with the skip")
