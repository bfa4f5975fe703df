"""Command-line front end: analyze, sparsify, bench, verify.

Vertices are read and written in the input file's own ids: 1-based for
DIMACS, as written for SNAP.  Exit codes: 0 ok, 1 input error, 2
verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .bench import ALGORITHMS, run_algorithm, run_experiment
from .blocks import blocks, components, preservation_violations
from .digraph import Digraph, GraphError, largest_scc
from .dominators import strong_bridges
from .filters import EDGE_ORDERS
from .io import FORMATS, load_graph, read_pairs


def _load(args) -> tuple[Digraph, list[int]]:
    """Largest SCC of the input file and the file's id of each of its vertices."""
    top = largest_scc(load_graph(args.graph, args.format))
    return top, top.vertex_origin.tolist()


def _analyze(args) -> int:
    g, _ = _load(args)
    bstar = len(strong_bridges(g))
    block_part = blocks(g)
    comp_part = components(g)
    print(f"largest SCC: n={g.n} m={g.m}")
    print(f"strong bridges: {bstar}")
    for label, part in (("block", block_part), ("component", comp_part)):
        hist = Counter(int(s) for s in part.sizes().tolist())
        text = " ".join(f"{size}:{cnt}" for size, cnt in sorted(hist.items()))
        print(f"{label} size histogram: {text}")
    return 0


def _sparsify(args) -> int:
    expected = ALGORITHMS[args.algo]
    if args.problem and args.problem != expected:
        print(f"error: {args.algo} solves 2EC-{expected}, not 2EC-{args.problem}",
              file=sys.stderr)
        return 1
    g, ids = _load(args)
    out = run_algorithm(
        args.algo, g,
        order=args.order, seed=args.seed,
        certificate=not args.no_cert, trivial_skip=not args.no_trivial_skip,
    )
    lines = sorted((ids[g.tail(e)], ids[g.head(e)]) for e in out)
    sink = open(args.output, "w") if args.output else sys.stdout
    try:
        for t, h in lines:
            print(f"{t} {h}", file=sink)
    finally:
        if args.output:
            sink.close()
    return 0


def _bench(args) -> int:
    with open(args.config, encoding="utf-8-sig") as fh:
        config = json.load(fh)
    reports = run_experiment(config, args.output)
    print(f"wrote {len(reports)} rows to {args.output}")
    return 0


def _verify(args) -> int:
    g, ids = _load(args)
    with open(args.subgraph, encoding="utf-8-sig") as fh:
        pairs = read_pairs(fh)
    index = {(ids[g.tail(e)], ids[g.head(e)]): e for e in g.edge_ids.tolist()}
    edges = []
    for p in pairs:
        if p not in index:
            print(f"error: edge {p} not present in the graph", file=sys.stderr)
            return 1
        edges.append(index[p])
    violations = preservation_violations(g, edges, args.problem)
    if violations:
        for v in violations:
            print(f"FAIL: {v}")
        return 2
    print("OK: subgraph preserves the required structure")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="twoec")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="largest-SCC stats, bridges, histograms")
    pa.add_argument("graph")
    pa.add_argument("--format", default="auto", choices=FORMATS)
    pa.set_defaults(fn=_analyze)

    ps = sub.add_parser("sparsify", help="run one algorithm, print surviving edges")
    ps.add_argument("graph")
    ps.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    ps.add_argument("--problem", choices=["B", "C", "BC"])
    ps.add_argument("--order", default="input", choices=EDGE_ORDERS)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--no-cert", action="store_true",
                    help="skip the sparse-certificate preprocessing")
    ps.add_argument("--no-trivial-skip", action="store_true")
    ps.add_argument("--format", default="auto", choices=FORMATS)
    ps.add_argument("-o", "--output")
    ps.set_defaults(fn=_sparsify)

    pb = sub.add_parser("bench", help="run an experiment config, emit CSV")
    pb.add_argument("--config", required=True)
    pb.add_argument("-o", "--output", default="bench.csv")
    pb.set_defaults(fn=_bench)

    pv = sub.add_parser("verify", help="check a subgraph preserves structure")
    pv.add_argument("graph")
    pv.add_argument("subgraph")
    pv.add_argument("--problem", default="B", choices=["B", "C", "BC"])
    pv.add_argument("--format", default="auto", choices=FORMATS)
    pv.set_defaults(fn=_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
