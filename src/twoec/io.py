"""Dataset readers: DIMACS shortest-path files and SNAP edge lists."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .digraph import Digraph, GraphError

log = logging.getLogger("twoec.io")

__all__ = ["ParseStats", "read_dimacs", "read_snap", "load_graph"]


@dataclass(frozen=True)
class ParseStats:
    vertices: int
    edges: int
    duplicates_dropped: int
    loops_dropped: int


def _dedup(labels: np.ndarray, pairs: list[tuple[int, int]]) -> tuple[Digraph, ParseStats]:
    """Graph over len(labels) vertices whose `vertex_origin` holds the
    file's own id of every vertex."""
    n = len(labels)
    seen: set[tuple[int, int]] = set()
    tails: list[int] = []
    heads: list[int] = []
    dups = loops = 0
    for t, h in pairs:
        if t == h:
            loops += 1
            continue
        if (t, h) in seen:
            dups += 1
            continue
        seen.add((t, h))
        tails.append(t)
        heads.append(h)
    g = Digraph(n, np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64),
                vertex_origin=labels)
    stats = ParseStats(n, len(tails), dups, loops)
    if dups or loops:
        log.info("ingestion dropped %d duplicate arcs and %d loops", dups, loops)
    return g, stats


def read_dimacs(stream) -> tuple[Digraph, ParseStats]:
    """DIMACS .gr reader: 'c' comments, 'p sp n m', 'a u v w' 1-based arcs.

    Weights are parsed and discarded; duplicate arcs and loops are dropped
    with counts recorded.  Vertex v stands for the file's vertex v + 1.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: second problem line")
            if len(parts) < 4:
                raise GraphError(f"line {lineno}: malformed problem line")
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: non-integer vertex count") from exc
            if n < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
        elif parts[0] == "a":
            if n is None:
                raise GraphError(f"line {lineno}: arc before problem line")
            if len(parts) < 3:
                raise GraphError(f"line {lineno}: malformed arc line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"line {lineno}: endpoint outside 1..{n}")
            pairs.append((u - 1, v - 1))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing problem line")
    return _dedup(np.arange(1, n + 1, dtype=np.int64), pairs)


def read_snap(stream) -> tuple[Digraph, ParseStats]:
    """SNAP edge-list reader: '#' comments, whitespace-separated 'u v' pairs.

    Vertex ids may be arbitrary non-negative integers and are densely
    renumbered in sorted order; `vertex_origin` keeps the file's ids.
    """
    raw_pairs: list[tuple[int, int]] = []
    ids: set[int] = set()
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer token") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        raw_pairs.append((u, v))
        ids.add(u)
        ids.add(v)
    labels = sorted(ids)
    remap = {old: new for new, old in enumerate(labels)}
    return _dedup(np.asarray(labels, dtype=np.int64),
                  [(remap[u], remap[v]) for u, v in raw_pairs])


def load_graph(path: str | Path, fmt: str = "auto") -> Digraph:
    """Load a graph file, sniffing DIMACS vs SNAP when `fmt` is 'auto'."""
    if fmt not in ("auto", "dimacs", "snap"):
        raise GraphError(f"unknown format {fmt!r}")
    path = Path(path)
    if fmt == "auto":
        if path.suffix in (".gr", ".dimacs"):
            fmt = "dimacs"
        elif path.suffix in (".txt", ".snap", ".edges"):
            fmt = "snap"
        else:
            with path.open() as fh:
                for line in fh:
                    s = line.strip()
                    if not s:
                        continue
                    fmt = "dimacs" if s[0] in "cpa" else "snap"
                    break
                else:
                    fmt = "snap"
    with path.open() as fh:
        return (read_dimacs if fmt == "dimacs" else read_snap)(fh)[0]
