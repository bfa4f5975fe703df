"""Dataset readers: DIMACS shortest-path files and SNAP edge lists."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .digraph import ID_LIMIT, Digraph, GraphError

log = logging.getLogger("twoec.io")

__all__ = ["FORMATS", "ParseStats", "read_dimacs", "read_pairs", "read_snap", "load_graph"]

# The values of `load_graph`'s `fmt`; "auto" sniffs the other two.
FORMATS = ("auto", "dimacs", "snap")


@dataclass(frozen=True)
class ParseStats:
    vertices: int
    edges: int
    duplicates_dropped: int
    loops_dropped: int


def _dedup(labels, pairs: list[tuple[int, int]]) -> tuple[Digraph, ParseStats]:
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
    g = Digraph(n, tails, heads, vertex_origin=labels)
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
    n_line = 0                               # the problem line's number
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
            if n >= ID_LIMIT:
                raise GraphError(f"line {lineno}: vertex count {n} is 2**63 or more")
            n_line = lineno
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
    try:
        return _dedup(range(1, n + 1), pairs)
    except (ValueError, MemoryError) as exc:    # no array holds n labels
        raise GraphError(f"line {n_line}: vertex count {n} is too large") from exc


def read_pairs(stream) -> list[tuple[int, int]]:
    """The `(u, v)` pairs of an edge list: '#' comments, whitespace-separated
    'u v' lines (further tokens ignored), ids in 0..2**63 - 1."""
    pairs: list[tuple[int, int]] = []
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
        if not (0 <= u < ID_LIMIT and 0 <= v < ID_LIMIT):
            raise GraphError(f"line {lineno}: vertex id outside 0..2**63 - 1")
        pairs.append((u, v))
    return pairs


def read_snap(stream) -> tuple[Digraph, ParseStats]:
    """SNAP edge-list reader: '#' comments, whitespace-separated 'u v' pairs.

    Vertex ids may be arbitrary non-negative integers and are densely
    renumbered in sorted order; `vertex_origin` keeps the file's ids.
    """
    raw_pairs = read_pairs(stream)
    labels = sorted({v for pair in raw_pairs for v in pair})
    remap = {old: new for new, old in enumerate(labels)}
    return _dedup(labels, [(remap[u], remap[v]) for u, v in raw_pairs])


def load_graph(path: str | Path, fmt: str = "auto") -> Digraph:
    """Load a graph file, sniffing DIMACS vs SNAP when `fmt` is 'auto'."""
    if fmt not in FORMATS:
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
