"""The block readers of `twoec.io` against a line-at-a-time reference.

The reference below is the reader the block readers replaced, kept as it
was: one tuple per arc, a set of pairs for the duplicates, and every check
made on its own line.  Both read the same seeded files: well-formed ones
with loops, duplicates, comments, tabs, CRLF, blank lines and extra tokens,
and files with one to three faults from every error class at random
places.  Each file must give the same graph and statistics, or the same
error message.
"""
import io
import random

import pytest

from twoec import io as tio
from twoec.digraph import ID_LIMIT, Digraph, GraphError
from twoec.io import ParseStats, read_dimacs, read_pairs, read_snap


# -- the reference readers -----------------------------------------------------

def _dedup(labels, pairs: list[tuple[int, int]]) -> tuple[Digraph, ParseStats]:
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
    return g, ParseStats(n, len(tails), dups, loops)


def ref_read_dimacs(stream) -> tuple[Digraph, ParseStats]:
    n = None
    n_line = 0
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
    except (ValueError, MemoryError) as exc:
        raise GraphError(f"line {n_line}: vertex count {n} is too large") from exc


def ref_read_pairs(stream) -> list[tuple[int, int]]:
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


def ref_read_snap(stream) -> tuple[Digraph, ParseStats]:
    raw_pairs = ref_read_pairs(stream)
    labels = sorted({v for pair in raw_pairs for v in pair})
    remap = {old: new for new, old in enumerate(labels)}
    return _dedup(labels, [(remap[u], remap[v]) for u, v in raw_pairs])


# -- seeded files ------------------------------------------------------------------

SEPARATORS = [" ", " ", " ", "\t", "  ", " \t", "\x0b", " "]
BLANKS = ["", " ", "\t", "  \t "]


def _line(rng, tokens: list[str]) -> str:
    lead = rng.choice(["", "", "", " ", "\t"])
    text = lead + "".join(t + rng.choice(SEPARATORS) for t in tokens[:-1]) + tokens[-1]
    return text + rng.choice(["", "", " ", "\t"]) + rng.choice(["\n", "\n", "\n", "\r\n"])


def _dimacs_faults(rng, n: int) -> list[str]:
    """One line of every error class (given where it lands)."""
    big = rng.choice([2**63, 2**64, 2**63 - 1, 2**62, 10**30])
    return [
        f"p sp {rng.randint(0, 9)} 3\n",                     # a second problem line
        rng.choice(["p sp 5\n", "p\n", "p sp\n"]),           # malformed problem line
        "p sp x 3\n", "p sp 1.5 3\n",                        # non-integer count
        f"p sp -{rng.randint(1, 9)} 0\n",                    # negative count
        f"p sp {2**63 + rng.randint(0, 9)} 1\n",             # count of 2**63 or more
        rng.choice(["a 1\n", "a\n", "a 2\t\n"]),             # malformed arc line
        rng.choice(["a x 2 1\n", "a 1 2.0 1\n", "a 1 0x2 1\n", "a - 2\n"]),
        f"a {rng.choice([0, n + 1, -1, big, -big])} 1 1\n",  # endpoint outside 1..n
        f"a 1 {rng.choice([0, n + 1, -big, big])} 1\n",
        rng.choice(["z 1 2 1\n", "A 1 2 1\n", "ab 1 2\n", "\ufeffp sp 3 0\n", "% x\n"]),
    ]


def _dimacs_file(rng, faults: int, arcs: int) -> str:
    n = rng.randint(0, 12) if rng.random() < 0.9 else rng.randint(13, 400)
    lines = [rng.choice(["c a comment\n", "c\n", "cx y\n"]) for _ in range(rng.randint(0, 2))]
    p_tokens = ["p", "sp", str(n), str(arcs)] + (["extra"] if rng.random() < 0.1 else [])
    lines.append(_line(rng, p_tokens))
    for _ in range(arcs):
        r = rng.random()
        if r < 0.05:
            lines.append(rng.choice(BLANKS) + "\n")
        elif r < 0.1:
            lines.append(rng.choice(["c arc comment\n", "  c indented\n", "c\r\n"]))
        elif n:
            u = rng.randint(1, n)
            v = u if rng.random() < 0.05 else rng.randint(1, n)
            weight = [] if rng.random() < 0.1 else [str(rng.randint(0, 99))]
            extra = ["x", "7"][:rng.randint(0, 2)] if rng.random() < 0.1 else []
            lines.append(_line(rng, ["a", str(u), str(v)] + weight + extra))
    if rng.random() < 0.3 and n:      # repeat some arcs, so duplicates are frequent
        arc_lines = [line for line in lines if line.lstrip().startswith("a")]
        lines += rng.sample(arc_lines, min(len(arc_lines), rng.randint(1, 5)))
    if faults and rng.random() < 0.05:    # no problem line: keep comments and blanks
        return "".join(line for line in lines if line.lstrip()[:1] in ("c", ""))
    for _ in range(faults):
        if rng.random() < 0.1 and len(lines) > 1:
            # an arc before the problem line
            lines.insert(0, f"a 1 1 {rng.randint(0, 9)}\n")
        else:
            lines.insert(rng.randint(0, len(lines)), rng.choice(_dimacs_faults(rng, n)))
    if faults and rng.random() < 0.02:    # a count no array holds
        lines = [f"p sp {rng.choice([2**60, 2**62, 2**63 - 1])} 1\n", "a 1 2 1\n"]
    if lines and rng.random() < 0.2:
        lines[-1] = lines[-1].rstrip("\r\n")     # no newline at the end
    return "".join(lines)


def _snap_faults(rng) -> list[str]:
    big = rng.choice([2**63, 2**64, 10**25])
    return [
        rng.choice(["7\n", "x\n", "1\t\n"]),                       # expected 'u v'
        rng.choice(["x 2\n", "1 y\n", "1.0 2\n", "% 1 2\n", "\ufeff1 2\n"]),
        rng.choice([f"{big} 1\n", f"1 {big}\n", "-1 2\n", f"2 -{big}\n"]),
    ]


def _snap_file(rng, faults: int, arcs: int) -> str:
    ids = [rng.randint(0, 30) for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.2:
        ids += [ID_LIMIT - 1 - rng.randint(0, 3) for _ in range(2)]      # ids near 2**63
    lines = [rng.choice(["# comment\n", "#\n", "#x y z\n"]) for _ in range(rng.randint(0, 2))]
    for _ in range(arcs):
        r = rng.random()
        if r < 0.05:
            lines.append(rng.choice(BLANKS) + "\n")
        elif r < 0.1:
            lines.append(rng.choice(["# arc comment\n", "  # indented\n", "#\r\n"]))
        else:
            u = rng.choice(ids)
            v = u if rng.random() < 0.05 else rng.choice(ids)
            extra = ["1", "w"][:rng.randint(0, 2)] if rng.random() < 0.15 else []
            lines.append(_line(rng, [str(u), str(v)] + extra))
    for _ in range(faults):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_snap_faults(rng)))
    if lines and rng.random() < 0.2:
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _outcome(read, text: str):
    try:
        result = read(io.StringIO(text))
    except GraphError as exc:
        return "error", str(exc)
    if isinstance(result, list):
        return "pairs", result
    g, stats = result
    return g.n, g.edge_pairs(), g.vertex_origin.tolist(), stats


DIMACS = [(read_dimacs, ref_read_dimacs)]
SNAP = [(read_snap, ref_read_snap), (read_pairs, ref_read_pairs)]


def _compare(readers, text: str, faults: int, seed: int) -> None:
    for new, ref in readers:
        want = _outcome(ref, text)
        assert _outcome(new, text) == want, (seed, text)
        assert (want[0] == "error") == (faults > 0), (seed, text)


@pytest.mark.parametrize("fmt", ["dimacs", "snap"])
def test_readers_match_the_reference_on_seeded_files(fmt, monkeypatch):
    """1,200 small files per format, read in blocks of 1 to 64 lines so
    that faults and arcs fall on both sides of block boundaries."""
    make, readers = (_dimacs_file, DIMACS) if fmt == "dimacs" else (_snap_file, SNAP)
    for seed in range(1200):
        rng = random.Random(f"{fmt}-{seed}")
        monkeypatch.setattr(tio, "BLOCK_LINES", rng.choice([1, 2, 3, 5, 8, 64]))
        faults = 0 if seed % 4 == 0 else rng.randint(1, 3)
        _compare(readers, make(rng, faults, rng.randint(0, 40)), faults, seed)


@pytest.mark.parametrize("fmt", ["dimacs", "snap"])
def test_readers_match_the_reference_in_full_size_blocks(fmt):
    """Files of two and a half blocks of the readers' own size, with faults
    around the start of the second block and inside it, among them pairs
    of faults of which the first must be named."""
    block = tio.BLOCK_LINES
    readers = DIMACS if fmt == "dimacs" else SNAP
    for seed in range(16):
        rng = random.Random(f"{fmt}-full-{seed}")
        if fmt == "dimacs":
            lines = ["p sp 50 0\n"] + [f"a {rng.randint(1, 50)} {rng.randint(1, 50)} 1\n"
                                       for _ in range(5 * block // 2)]
        else:
            lines = [f"{rng.randint(0, 2**40)} {rng.randint(0, 2**40)}\n"
                     for _ in range(5 * block // 2)]
        faults = 0 if seed < 2 else rng.randint(1, 3)
        for _ in range(faults):
            at = rng.choice([block - 1, block, block + 1, rng.randint(block, 2 * block)])
            pool = _dimacs_faults(rng, 50) if fmt == "dimacs" else _snap_faults(rng)
            lines.insert(at, rng.choice(pool))
        _compare(readers, "".join(lines), faults, seed)
