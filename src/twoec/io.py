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


def _columns(lines, lineno: int, lead: str, comment: str, lo: int, hi: int,
             check) -> tuple[array, array]:
    """The tail and head columns of the records of the iterator `lines`,
    numbered from `lineno`, read BLOCK_LINES lines at a time.  A record is
    the token `lead`, if any, and two endpoints in lo..hi; a line whose
    first token starts with `comment` is skipped.  ``check(tokens, lineno)``
    raises the error of a bad line; it reads only a block that holds one."""
    tail = 1 if lead else 0
    tails, heads = array("q"), array("q")
    while block := list(islice(lines, BLOCK_LINES)):
        us, vs = [], []
        for raw in block:
            parts = raw.split()
            if len(parts) > tail + 1 and (
                    parts[0] == lead or not lead and parts[0][0] != comment):
                us.append(parts[tail])
                vs.append(parts[tail + 1])
            elif parts and parts[0][0] != comment:
                break                        # neither a record nor a comment
        else:
            ends = _endpoints(us + vs, lo, hi)
            if ends is not None:
                tails += ends[:len(us)]
                heads += ends[len(us):]
                lineno += len(block)
                continue
        for lineno, raw in enumerate(block, lineno):
            check(raw.split(), lineno)      # raises: the block has a bad line
    return tails, heads


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


def _dimacs_line(parts: list[str], lineno: int, n: int | None = None) -> int | None:
    """Raise the error of a split DIMACS line that comes after the problem
    line for `n` vertices, or before any when `n` is None; return the
    vertex count of a problem line."""
    if not parts or parts[0].startswith("c"):
        return None
    if parts[0] == "p":
        if n is not None:
            raise GraphError(f"line {lineno}: second problem line")
        if len(parts) < 4:
            raise GraphError(f"line {lineno}: malformed problem line")
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex count") from exc
        if count < 0:
            raise GraphError(f"line {lineno}: negative vertex count")
        if count >= ID_LIMIT:
            raise GraphError(f"line {lineno}: vertex count {count} is 2**63 or more")
        return count
    if parts[0] != "a":
        raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
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
    return None


def read_dimacs(stream) -> tuple[Digraph, ParseStats]:
    """DIMACS .gr reader: 'c' comments, 'p sp n m', 'a u v w' 1-based arcs.

    Weights are ignored and may be absent; duplicate arcs and loops are
    dropped with counts recorded.  Vertex v stands for the file's vertex v + 1.
    Errors name the first bad line.
    """
    lines = iter(stream)
    for n_line, raw in enumerate(lines, 1):      # up to the problem line
        if (n := _dimacs_line(raw.split(), n_line)) is not None:
            break
    else:
        raise GraphError("missing problem line")
    columns = _columns(lines, n_line + 1, "a", "c", 1, n,
                       lambda parts, lineno: _dimacs_line(parts, lineno, n))
    try:
        built = _file_graph(*columns, n)
    except (ValueError, MemoryError) as exc:    # no array holds n labels
        raise GraphError(f"line {n_line}: vertex count {n} is too large") from exc
    return _stats(*built)


def _pair_line(parts: list[str], lineno: int) -> None:
    """Raise the error of a split edge-list line."""
    if not parts or parts[0].startswith("#"):
        return
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
    return list(zip(*_columns(iter(stream), 1, "", "#", 0, ID_LIMIT - 1, _pair_line)))


def read_snap(stream) -> tuple[Digraph, ParseStats]:
    """SNAP edge-list reader: '#' comments, whitespace-separated 'u v' pairs.

    Vertex ids may be arbitrary non-negative integers and are densely
    renumbered in sorted order; `vertex_origin` keeps the file's ids.
    """
    return _stats(*_file_graph(*_columns(iter(stream), 1, "", "#", 0, ID_LIMIT - 1,
                                         _pair_line)))


def load_graph(path: str | Path, fmt: str = "auto") -> Digraph:
    """Load a graph file, sniffing DIMACS vs SNAP when `fmt` is 'auto'."""
    if fmt not in FORMATS:
        raise GraphError(f"unknown format {fmt!r}")
    path = Path(path)
    if fmt == "auto" and path.suffix in (".gr", ".dimacs"):
        fmt = "dimacs"
    elif fmt == "auto" and path.suffix in (".txt", ".snap", ".edges"):
        fmt = "snap"
    with path.open(encoding="utf-8-sig") as fh:
        if fmt == "auto":       # by the first non-blank line
            first = next((s for s in map(str.lstrip, fh) if s), "")
            fmt = "dimacs" if first[:1] in ("c", "p", "a") else "snap"
            fh.seek(0)
        return (read_dimacs if fmt == "dimacs" else read_snap)(fh)[0]
