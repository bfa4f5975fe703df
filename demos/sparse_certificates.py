"""Sparse certificates: sizes, phase counts, and the 4(n + n') guarantee."""
import random

from twoec import ist_b, ist_b_original, ist_bc, preservation_violations
from twoec.fixtures import g5, linked_triangles, random_strongly_connected

for name, g in [("two-path gadget", g5()), ("linked triangles", linked_triangles())]:
    cert, stats = ist_b(g)
    print(f"{name}: m={g.m} -> certificate {len(cert)} edges "
          f"(phases {stats.phase1_new}/{stats.phase2_new}/{stats.phase3_new}, "
          f"cap 4(n+n')={4 * (stats.n + stats.n_prime)})")
    assert preservation_violations(g, cert, "B") == []

rng = random.Random(0)
print("\nrandom graphs, certificate size vs the input:")
for _ in range(5):
    g = random_strongly_connected(rng, 40, 160)
    cert, stats = ist_b(g)
    orig = ist_b_original(g)
    bc = ist_bc(g)
    print(f"  n={g.n} m={g.m}: ist-b {len(cert)}, "
          f"ist-b-original {len(orig)}, ist-bc {len(bc)}")
    assert preservation_violations(g, cert, "B") == []
    assert preservation_violations(g, bc, "BC") == []
print("\nall certificates preserved their structures")
