"""Benchmark harness: algorithm registry, quality ratios, timing, CSV."""
from __future__ import annotations

import csv
import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .blocks import blocks, components
from .certificates import ist_b, ist_b_original, ist_bc, zni_c
from .digraph import Digraph, Partition, largest_scc
from .dominators import strong_bridges
from .filters import (
    EDGE_ORDERS, FilterConfig, aux_variant_filter, filter_bc, hybrid_filter,
    test2ecb_filter, test2edp_filter,
)
from .io import load_graph

log = logging.getLogger("twoec.bench")

__all__ = ["ALGORITHMS", "QualityReport", "run_algorithm", "lower_bound",
           "run_experiment", "write_csv"]

CSV_COLUMNS = ["dataset", "algorithm", "problem", "n", "m", "bstar",
               "edges_out", "delta_avg", "lower_bound", "q", "seconds"]


def _cfg(strategy: str, opts: dict, **extra) -> FilterConfig:
    return FilterConfig(
        strategy=strategy,
        edge_order=opts.get("order", "input"),
        seed=opts.get("seed", 0),
        trivial_skip=opts.get("trivial_skip", True),
        certificate=opts.get("certificate", True),
        **extra,
    )


# The algorithm catalog: name -> (problem it solves, runner(g, opts)).  The
# runners look the library functions up when called, so a wrapper installed
# on this module (a tracer, a profiler) sees every call.
_CATALOG = {
    "ist-b-original": ("B", lambda g, o: ist_b_original(g).edge_set()),
    "ist-b": ("B", lambda g, o: ist_b(g)[0].edge_set()),
    "test2edp-b": ("B", lambda g, o: test2edp_filter(g, _cfg("test2edp", o)).surviving),
    "test2ecb-b": ("B", lambda g, o: test2ecb_filter(g, _cfg("test2ecb", o)).surviving),
    "hybrid-b": ("B", lambda g, o: hybrid_filter(g, _cfg("hybrid", o)).surviving),
    "test2edp-b-aux": ("B", lambda g, o: aux_variant_filter(g, _cfg("test2edp", o)).surviving),
    "hybrid-b-aux": ("B", lambda g, o: aux_variant_filter(g, _cfg("hybrid", o)).surviving),
    "ist-bc": ("BC", lambda g, o: ist_bc(g).edge_set()),
    "test2edp-bc": ("BC", lambda g, o: filter_bc(g, _cfg("test2edp", o)).surviving),
    "test2ecb-bc": ("BC", lambda g, o: filter_bc(g, _cfg("test2ecb", o)).surviving),
    "hybrid-bc": ("BC", lambda g, o: filter_bc(g, _cfg("hybrid", o)).surviving),
    "test2edp-bc-aux": ("BC", lambda g, o: filter_bc(
        g, _cfg("test2edp", o, on_aux_graphs=True)).surviving),
    "hybrid-bc-aux": ("BC", lambda g, o: filter_bc(
        g, _cfg("hybrid", o, on_aux_graphs=True)).surviving),
    "zni-c": ("C", lambda g, o: zni_c(g)),
}

# Table of algorithms: name -> problem it solves.
ALGORITHMS: dict[str, str] = {name: problem for name, (problem, _) in _CATALOG.items()}


def run_algorithm(name: str, g: Digraph, **opts) -> set[int]:
    """Run one catalog algorithm on a strongly connected digraph.

    Options: order (input|reverse|random), seed, trivial_skip, certificate.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return _CATALOG[name][1](g, opts)


def lower_bound(problem: str, g: Digraph,
                block_part: Partition | None = None,
                comp_part: Partition | None = None) -> float:
    """(n + k) / n where k counts vertices in nontrivial blocks (B, BC) or
    nontrivial components (C)."""
    problem = problem.upper()
    if problem in ("B", "BC"):
        part = block_part if block_part is not None else blocks(g)
    elif problem == "C":
        part = comp_part if comp_part is not None else components(g)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    sizes = part.sizes()
    k = sum(1 for c in part.comp.tolist() if sizes[c] >= 2)
    return (g.n + k) / g.n


@dataclass(frozen=True)
class QualityReport:
    dataset: str
    algorithm: str
    problem: str
    n: int
    m: int
    bstar: int
    edges_out: int
    delta_avg: float
    lower_bound: float
    q: float
    seconds: float


def run_experiment(config: dict, out_csv: str | Path | None = None) -> list[QualityReport]:
    """Run algorithm x dataset cells per the experiment protocol.

    Per cell the largest SCC is extracted once, the algorithm runs
    `runs` times (timing includes certificate preprocessing and, for the
    BC/C problems, component computation), output sizes must agree across
    runs for deterministic configs, and the mean CPU time is reported.
    """
    for key in ("datasets", "algorithms"):
        if key not in config:
            raise ValueError(f"experiment config has no {key!r} key")
    for algo in config["algorithms"]:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; choose from {sorted(ALGORITHMS)}")
    for i, ds in enumerate(config["datasets"]):
        if not isinstance(ds, dict) or not {"name", "path"} <= ds.keys():
            raise ValueError(f"dataset entry {i} needs 'name' and 'path' keys")
    runs = config.get("runs", 1)
    if type(runs) is not int or runs < 1:
        raise ValueError(
            f"experiment config key 'runs' must be a positive integer, not {runs!r}")
    if config.get("order", "input") not in EDGE_ORDERS:
        raise ValueError(f"experiment config key 'order' must be one of "
                         f"{', '.join(EDGE_ORDERS)}, not {config['order']!r}")
    opts = {k: config[k] for k in ("order", "seed", "trivial_skip", "certificate")
            if k in config}
    reports: list[QualityReport] = []
    for ds in config["datasets"]:
        name, path = ds["name"], ds["path"]
        if not Path(path).exists():
            log.warning("dataset %s missing at %s; skipped", name, path)
            continue
        g = largest_scc(load_graph(path, ds.get("format", "auto")))
        bstar = len(strong_bridges(g))
        block_part = blocks(g)
        comp_part = components(g)
        for algo in config["algorithms"]:
            problem = ALGORITHMS[algo]
            sizes = []
            times = []
            for _ in range(runs):
                t0 = time.process_time()
                out = run_algorithm(algo, g, **opts)
                times.append(time.process_time() - t0)
                sizes.append(len(out))
            if opts.get("order", "input") != "random" and len(set(sizes)) != 1:
                raise RuntimeError(f"nondeterministic output size for {algo} on {name}")
            edges_out = int(statistics.median(sizes))
            lb = lower_bound(problem, g, block_part, comp_part)
            delta = edges_out / g.n
            reports.append(QualityReport(
                dataset=name, algorithm=algo, problem=problem,
                n=g.n, m=g.m, bstar=bstar, edges_out=edges_out,
                delta_avg=delta, lower_bound=lb, q=delta / lb,
                seconds=sum(times) / len(times),
            ))
    if out_csv is not None:
        write_csv(reports, out_csv)
    return reports


def write_csv(reports: list[QualityReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in reports:
            w.writerow([
                r.dataset, r.algorithm, r.problem, r.n, r.m, r.bstar, r.edges_out,
                repr(r.delta_avg), repr(r.lower_bound), repr(r.q), repr(r.seconds),
            ])

