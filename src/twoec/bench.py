"""Benchmark harness: algorithm registry, quality ratios, timing, CSV."""
from __future__ import annotations

import csv
import logging
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from .blocks import blocks, components
from .certificates import ist_b, ist_b_original, ist_bc, zni_c
from .digraph import Digraph, GraphError, Partition, largest_scc
from .dominators import strong_bridges
from .filters import EDGE_ORDERS, FilterConfig, filter_b, filter_bc
from .io import FORMATS, load_graph

log = logging.getLogger("twoec.bench")

__all__ = ["ALGORITHMS", "QualityReport", "run_algorithm", "lower_bound",
           "run_experiment", "write_csv"]

_OPTIONS = ("order", "seed", "trivial_skip", "certificate")
_CONFIG_KEYS = ("datasets", "algorithms", "runs") + _OPTIONS
_DATASET_KEYS = ("name", "path", "format")


def _cfg(opts: dict) -> FilterConfig:
    """The filter configuration of `run_algorithm`'s options, checked."""
    return FilterConfig(
        edge_order=opts.get("order", "input"),
        seed=opts.get("seed", 0),
        trivial_skip=opts.get("trivial_skip", True),
        certificate=opts.get("certificate", True),
    )


# The algorithm catalog: name -> (problem it solves, runner(g, cfg)).  The
# runners look the library functions up when called, so a wrapper installed
# on this module (a tracer, a profiler) sees every call.
_CATALOG = {
    "ist-b-original": ("B", lambda g, c: ist_b_original(g)),
    "ist-b": ("B", lambda g, c: ist_b(g)[0]),
    "test2edp-b": ("B", lambda g, c: filter_b(g, replace(c, strategy="test2edp")).surviving),
    "test2ecb-b": ("B", lambda g, c: filter_b(g, replace(c, strategy="test2ecb")).surviving),
    "hybrid-b": ("B", lambda g, c: filter_b(g, replace(c, strategy="hybrid")).surviving),
    "test2edp-b-aux": ("B", lambda g, c: filter_b(
        g, replace(c, strategy="test2edp", on_aux_graphs=True)).surviving),
    "hybrid-b-aux": ("B", lambda g, c: filter_b(
        g, replace(c, strategy="hybrid", on_aux_graphs=True)).surviving),
    "ist-bc": ("BC", lambda g, c: ist_bc(g)),
    "test2edp-bc": ("BC", lambda g, c: filter_bc(g, replace(c, strategy="test2edp")).surviving),
    "test2ecb-bc": ("BC", lambda g, c: filter_bc(g, replace(c, strategy="test2ecb")).surviving),
    "hybrid-bc": ("BC", lambda g, c: filter_bc(g, replace(c, strategy="hybrid")).surviving),
    "test2edp-bc-aux": ("BC", lambda g, c: filter_bc(
        g, replace(c, strategy="test2edp", on_aux_graphs=True)).surviving),
    "hybrid-bc-aux": ("BC", lambda g, c: filter_bc(
        g, replace(c, strategy="hybrid", on_aux_graphs=True)).surviving),
    "zni-c": ("C", lambda g, c: zni_c(g)),
}

# Table of algorithms: name -> problem it solves.
ALGORITHMS: dict[str, str] = {name: problem for name, (problem, _) in _CATALOG.items()}


def run_algorithm(name: str, g: Digraph, **opts) -> set[int]:
    """Run one catalog algorithm on a strongly connected digraph.

    Options, checked for every algorithm and read by the deletion filters:
    order (input|reverse|random), seed (int), trivial_skip, certificate (bool).
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    for key in opts:
        if key not in _OPTIONS:
            raise ValueError(f"unknown option {key!r}; choose from {', '.join(_OPTIONS)}")
    cfg = _cfg(opts)
    if g.n == 0:
        raise GraphError("graph has no vertices")
    return _CATALOG[name][1](g, cfg)


def lower_bound(problem: str, g: Digraph,
                block_part: Partition | None = None,
                comp_part: Partition | None = None) -> float:
    """(n + k) / n where k counts vertices in nontrivial blocks (B, BC) or
    nontrivial components (C)."""
    problem = problem.upper()
    if g.n == 0:
        raise GraphError("graph has no vertices")
    if problem in ("B", "BC"):
        part = block_part if block_part is not None else blocks(g)
    elif problem == "C":
        part = comp_part if comp_part is not None else components(g)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return (g.n + part.nontrivial_vertices()) / g.n


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
    BC/C problems, component computation), every run must output the same
    edge set (the random order is seeded, so every config is
    deterministic), and the mean CPU time is reported.
    """
    if not isinstance(config, dict):
        raise ValueError(f"experiment config must be a JSON object, not {config!r}")
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown experiment config key {key!r}; "
                             f"choose from {', '.join(_CONFIG_KEYS)}")
    for key in ("datasets", "algorithms"):
        if key not in config:
            raise ValueError(f"experiment config has no {key!r} key")
        if not isinstance(config[key], list):
            raise ValueError(
                f"experiment config key {key!r} must be a list, not {config[key]!r}")
    for algo in config["algorithms"]:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; choose from {sorted(ALGORITHMS)}")
    for i, ds in enumerate(config["datasets"]):
        if not isinstance(ds, dict) or not {"name", "path"} <= ds.keys():
            raise ValueError(f"dataset entry {i} needs 'name' and 'path' keys")
        for key in ds:
            if key not in _DATASET_KEYS:
                raise ValueError(f"dataset entry {i} has unknown key {key!r}; "
                                 f"choose from {', '.join(_DATASET_KEYS)}")
        if not isinstance(ds["path"], str):
            raise ValueError(f"dataset entry {i} key 'path' must be a string, "
                             f"not {ds['path']!r}")
        if ds.get("format", "auto") not in FORMATS:
            raise ValueError(f"dataset entry {i} key 'format' must be one of "
                             f"{', '.join(FORMATS)}, not {ds['format']!r}")
    runs = config.get("runs", 1)
    if type(runs) is not int or runs < 1:
        raise ValueError(
            f"experiment config key 'runs' must be a positive integer, not {runs!r}")
    if config.get("order", "input") not in EDGE_ORDERS:
        raise ValueError(f"experiment config key 'order' must be one of "
                         f"{', '.join(EDGE_ORDERS)}, not {config['order']!r}")
    opts = {k: config[k] for k in _OPTIONS if k in config}
    _cfg(opts)  # rejects a mistyped seed, trivial_skip or certificate
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
            outputs = []
            times = []
            for _ in range(runs):
                t0 = time.process_time()
                outputs.append(run_algorithm(algo, g, **opts))
                times.append(time.process_time() - t0)
            if any(out != outputs[0] for out in outputs):
                raise RuntimeError(f"nondeterministic output for {algo} on {name}: "
                                   f"the runs gave different edge sets")
            edges_out = len(outputs[0])
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
        w.writerow(f.name for f in fields(QualityReport))
        w.writerows(astuple(r) for r in reports)

