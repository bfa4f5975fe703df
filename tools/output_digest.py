"""Digest every output that a design change must keep identical.

Usage:
    python tools/output_digest.py --src <checkout>/src [--detail]
    python tools/output_digest.py --compare BASE HEAD

Imports the `twoec` package from the given source directory and prints one
JSON line: a digest per graph (with --detail, one per output and graph).
Two checkouts keep the same outputs iff their lines are equal.  --compare
reads two files of --detail lines, prints each differing `graph: key` (or
`all outputs equal`) and exits 1 if any output differs.

The graphs are the road grids of side 12 and 18, the bridge-heavy road
grid of side 18 with `p_two_way` 0.2 (117 vertices in 77 first-level
graphs, most of them tiny), the dense-cert graph (a uniform
350-vertex/1400-arc digraph, largest SCC), 20 seeded random strongly
connected graphs and 20 seeded strongly connected multigraphs with
parallel edges and loops.  Per graph it covers:
- the output edge set of each of the 14 catalog algorithms;
- the `blocks` and `components` partitions;
- the edge sets of `ist_b` and `ist_b_original` and the statistics of
  `ist_b`, at the first and at the last vertex;
- the (blue, red) trees of `independent_pair` on G(0) and G^R(0), with no
  edges preferred and with a seeded third preferred;
- the tails, heads, edge ids, origin and vertex_origin of every
  first-level auxiliary graph of G(0) and of G^R(0) (`aux_graphs`), and of
  every second-level graph: `aux_graphs(h.reverse(), 0)` of each
  first-level graph h;
- the decisions, counters and surviving edges of `filter_b` and
  `filter_bc` for `test2edp` and `hybrid`, on and off the aux graphs, and
  under each of `FILTER_VARIANTS`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _graphs():
    import numpy as np
    from twoec.digraph import build, largest_scc
    from twoec.fixtures import random_strongly_connected, road_grid

    yield "road-grid-12", road_grid(12, 0.12, 0.55, 1)
    yield "road-grid-18", road_grid(18, 0.12, 0.55, 1)
    yield "road-grid-18-bridged", road_grid(18, 0.12, 0.2, 1)
    rng = np.random.default_rng(1)
    tails = rng.integers(0, 350, 1400).tolist()
    heads = rng.integers(0, 350, 1400).tolist()
    yield "dense-cert", largest_scc(
        build(350, sorted({(t, h) for t, h in zip(tails, heads) if t != h})))
    for seed in range(20):
        r = random.Random(seed)
        yield f"random-{seed}", random_strongly_connected(r, r.randint(2, 60))
    for seed in range(20):
        r = random.Random(1000 + seed)
        base = random_strongly_connected(r, r.randint(2, 12))
        edges = base.edge_pairs()
        edges += r.sample(edges, r.randint(1, len(edges)))          # parallel copies
        edges += [(v, v) for v in r.sample(range(base.n), r.randint(1, base.n))]
        r.shuffle(edges)
        yield f"multi-{seed}", build(base.n, edges, allow_multi=True)


# Non-default filter configurations, besides the strategy/aux grid above.
FILTER_VARIANTS = {
    "no-certificate": {"certificate": False},
    "no-trivial-skip": {"trivial_skip": False},
    "random-3": {"edge_order": "random", "seed": 3},
    "test2ecb": {"strategy": "test2ecb"},
    "aux-no-certificate": {"on_aux_graphs": True, "certificate": False},
    "aux-random-3": {"on_aux_graphs": True, "edge_order": "random", "seed": 3},
}


def _fields(h) -> list[list[int]]:
    return [h.tails.tolist(), h.heads.tolist(), h.edge_ids.tolist(), h.origin.tolist(),
            h.vertex_origin.tolist()]


def _outputs(g) -> dict[str, object]:
    from dataclasses import asdict

    from twoec.bench import ALGORITHMS, run_algorithm
    from twoec.blocks import aux_graphs, blocks, components
    from twoec.certificates import ist_b, ist_b_original
    from twoec.dominators import dominator_tree
    from twoec.filters import FilterConfig, filter_b, filter_bc
    from twoec.spanning import independent_pair

    out: dict[str, object] = {}
    for name in sorted(ALGORITHMS):
        out[f"catalog/{name}"] = sorted(run_algorithm(name, g))
    out["blocks"] = blocks(g).comp.tolist()
    out["components"] = components(g).comp.tolist()
    for s in sorted({0, g.n - 1}):
        cert, stats = ist_b(g, s)
        out[f"ist_b/{s}"] = [sorted(cert), asdict(stats)]
        out[f"ist_b_original/{s}"] = sorted(ist_b_original(g, s))
    rng = random.Random(7)
    for label, flow in (("G", g), ("GR", g.reverse())):
        dt = dominator_tree(flow, 0)
        ids = flow.edge_ids.tolist()
        preferred = set(rng.sample(ids, len(ids) // 3))
        out[f"independent_pair/{label}"] = [independent_pair(flow, dt),
                                            independent_pair(flow, dt, preferred)]
        level1 = aux_graphs(flow, 0)[1]
        out[f"aux_graphs/{label}"] = [_fields(h) for h in level1]
        out[f"second_level/{label}"] = [[_fields(a) for a in aux_graphs(h.reverse(), 0)[1]]
                                        for h in level1]
    configs = {f"{strategy}/aux={aux}": {"strategy": strategy, "on_aux_graphs": aux}
               for strategy in ("test2edp", "hybrid") for aux in (False, True)}
    configs.update(FILTER_VARIANTS)
    for run in (filter_b, filter_bc):
        for label, options in configs.items():
            rep = run(g, FilterConfig(**options))
            out[f"{run.__name__}/{label}"] = [
                sorted(rep.decisions.items()), sorted(rep.counters.items()),
                sorted(rep.surviving)]
    return out


def _compare(base_path, head_path) -> int:
    """Print each `graph: key` whose digest differs between two --detail
    outputs, or `all outputs equal`; 1 if any differs, else 0."""
    base, head = (json.loads(Path(path).read_text()) for path in (base_path, head_path))
    # one tool wrote both, so both hold the same graphs and keys
    differ = [f"{graph}: {key}" for graph in sorted(base) for key in sorted(base[graph])
              if base[graph][key] != head[graph][key]]
    print("\n".join(differ) or "all outputs equal")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--src", help="source directory holding twoec/")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                      help="two files of --detail output to compare")
    ap.add_argument("--detail", action="store_true", help="one digest per output")
    args = ap.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import twoec
    if src not in Path(twoec.__file__).resolve().parents:
        sys.exit(f"twoec was imported from {twoec.__file__}, not from {src}")

    result = {}
    for name, g in _graphs():
        outs = _outputs(g)
        result[name] = ({k: _digest(v) for k, v in outs.items()} if args.detail
                        else _digest(outs))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
