"""Dataset readers: DIMACS shortest-path files and SNAP edge lists."""
from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .digraph import ID_LIMIT, Digraph, GraphError, _file_graph

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


# Lines converted at a time.  A block's endpoint strings are the only
# Python objects the readers keep per line; the endpoints themselves go
# into int64 arrays.
BLOCK_LINES = 8192


def _blocks(stream, lineno: int):
    """(number of its first line, its lines) for every run of BLOCK_LINES
    lines of `stream`, numbered from `lineno`."""
    while block := list(islice(stream, BLOCK_LINES)):
        yield lineno, block
        lineno += len(block)


def _endpoints(tokens: list[str], lo: int, hi: int) -> array | None:
    """`tokens` as an int64 array if each one is an integer in lo..hi (a
    range inside int64)."""
    try:
        values = list(map(int, tokens))
    except ValueError:
        return None
    if values and not (lo <= min(values) and max(values) <= hi):
        return None
    return array("q", values)


def _stats(g: Digraph, dups: int, loops: int) -> tuple[Digraph, ParseStats]:
    if dups or loops:
        log.info("ingestion dropped %d duplicate arcs and %d loops", dups, loops)
    return g, ParseStats(g.n, g.m, dups, loops)


def read_dimacs(stream) -> tuple[Digraph, ParseStats]:
    """DIMACS .gr reader: 'c' comments, 'p sp n m', 'a u v w' 1-based arcs.

    Weights are parsed and discarded; duplicate arcs and loops are dropped
    with counts recorded.  Vertex v stands for the file's vertex v + 1.
    Errors name the first bad line.
    """
    stream = iter(stream)
    for n_line, raw in enumerate(stream, 1):     # up to the problem line
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "a":
            raise GraphError(f"line {n_line}: arc before problem line")
        if parts[0] != "p":
            raise GraphError(f"line {n_line}: unknown record {parts[0]!r}")
        if len(parts) < 4:
            raise GraphError(f"line {n_line}: malformed problem line")
        try:
            n = int(parts[2])
        except ValueError as exc:
            raise GraphError(f"line {n_line}: non-integer vertex count") from exc
        if n < 0:
            raise GraphError(f"line {n_line}: negative vertex count")
        if n >= ID_LIMIT:
            raise GraphError(f"line {n_line}: vertex count {n} is 2**63 or more")
        break
    else:
        raise GraphError("missing problem line")
    tails, heads = array("q"), array("q")
    for first, block in _blocks(stream, n_line + 1):
        us, vs = [], []
        for raw in block:
            parts = raw.split()
            if len(parts) > 2 and parts[0] == "a":
                us.append(parts[1])
                vs.append(parts[2])
            elif parts and not parts[0].startswith("c"):
                break                        # every other record is an error
        else:
            ends = _endpoints(us + vs, 1, n)
            if ends is not None:
                tails += ends[:len(us)]
                heads += ends[len(us):]
                continue
        _check_dimacs_lines(block, first, n)    # raises: the block has a bad line
    try:
        built = _file_graph(tails, heads, n)
    except (ValueError, MemoryError) as exc:    # no array holds n labels
        raise GraphError(f"line {n_line}: vertex count {n} is too large") from exc
    return _stats(*built)


def _check_dimacs_lines(block: list[str], lineno: int, n: int) -> None:
    """Raise the error of the first bad line of a block after the problem
    line, numbered from `lineno`."""
    for lineno, raw in enumerate(block, lineno):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            raise GraphError(f"line {lineno}: second problem line")
        if parts[0] != "a":
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
        if len(parts) < 3:
            raise GraphError(f"line {lineno}: malformed arc line")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer endpoint") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"line {lineno}: endpoint outside 1..{n}")


def _pair_arrays(stream) -> tuple[array, array]:
    """The `u` and `v` columns of an edge list, as ``read_pairs`` reads it."""
    stream = iter(stream)
    tails, heads = array("q"), array("q")
    for first, block in _blocks(stream, 1):
        us, vs = [], []
        for raw in block:
            parts = raw.split()
            if len(parts) > 1 and not parts[0].startswith("#"):
                us.append(parts[0])
                vs.append(parts[1])
            elif parts and not parts[0].startswith("#"):
                break                        # a line of one token
        else:
            ends = _endpoints(us + vs, 0, ID_LIMIT - 1)
            if ends is not None:
                tails += ends[:len(us)]
                heads += ends[len(us):]
                continue
        _check_pair_lines(block, first)         # raises: the block has a bad line
    return tails, heads


def _check_pair_lines(block: list[str], lineno: int) -> None:
    """Raise the error of the first bad line of a block of an edge list,
    numbered from `lineno`."""
    for lineno, raw in enumerate(block, lineno):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer token") from exc
        if not (0 <= u < ID_LIMIT and 0 <= v < ID_LIMIT):
            raise GraphError(f"line {lineno}: vertex id outside 0..2**63 - 1")


def read_pairs(stream) -> list[tuple[int, int]]:
    """The `(u, v)` pairs of an edge list: '#' comments, whitespace-separated
    'u v' lines (further tokens ignored), ids in 0..2**63 - 1."""
    return list(zip(*_pair_arrays(stream)))


def read_snap(stream) -> tuple[Digraph, ParseStats]:
    """SNAP edge-list reader: '#' comments, whitespace-separated 'u v' pairs.

    Vertex ids may be arbitrary non-negative integers and are densely
    renumbered in sorted order; `vertex_origin` keeps the file's ids.
    """
    return _stats(*_file_graph(*_pair_arrays(stream)))


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
            with path.open(encoding="utf-8-sig") as fh:
                for line in fh:
                    s = line.strip()
                    if not s:
                        continue
                    fmt = "dimacs" if s[0] in "cpa" else "snap"
                    break
                else:
                    fmt = "snap"
    with path.open(encoding="utf-8-sig") as fh:
        return (read_dimacs if fmt == "dimacs" else read_snap)(fh)[0]
