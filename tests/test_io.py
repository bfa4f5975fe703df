import io
import re
import tracemalloc

import pytest

from twoec.digraph import GraphError, largest_scc
from twoec.fixtures import _road_grid_arcs
from twoec.io import load_graph, read_dimacs, read_snap


def test_dimacs_basic():
    # weights are ignored: a missing or non-numeric one loads too
    for arcs in ("a 1 2 4\na 2 3 1\na 3 1 7\n", "a 1 2\na 2 3 x\na 3 1 7\n"):
        g = read_dimacs(io.StringIO("c comment\np sp 3 3\n" + arcs))[0]
        assert g.n == 3 and g.edge_pairs() == [(0, 1), (1, 2), (2, 0)]


def test_dimacs_one_based_violation():
    with pytest.raises(GraphError):
        read_dimacs(io.StringIO("p sp 3 1\na 0 2 1\n"))
    with pytest.raises(GraphError):
        read_dimacs(io.StringIO("p sp 3 1\na 1 4 1\n"))


def test_dimacs_malformed():
    with pytest.raises(GraphError):
        read_dimacs(io.StringIO("p sp 3 1\nz 1 2\n"))
    with pytest.raises(GraphError):
        read_dimacs(io.StringIO("a 1 2 1\n"))
    with pytest.raises(GraphError, match="line 2: non-integer vertex count"):
        read_dimacs(io.StringIO("c x\np sp x 3\n"))
    with pytest.raises(GraphError, match="line 1: malformed problem line"):
        read_dimacs(io.StringIO("p sp 3\n"))
    with pytest.raises(GraphError, match="line 3: second problem line"):
        read_dimacs(io.StringIO("p sp 5 1\na 4 5 1\np sp 2 0\n"))
    with pytest.raises(GraphError, match="line 1: negative vertex count"):
        read_dimacs(io.StringIO("p sp -3 0\n"))


def test_dimacs_dedup_and_loops():
    g, stats = read_dimacs(io.StringIO(
        "p sp 3 5\na 1 2 1\na 1 2 2\na 2 2 1\na 2 3 1\na 3 1 1\n"))
    assert g.m == 3
    assert stats.duplicates_dropped == 1 and stats.loops_dropped == 1


def test_snap_basic():
    g = read_snap(io.StringIO("# comment\n0\t1\n1\t0\n"))[0]
    assert g.n == 2 and g.m == 2


def test_snap_loop_dropped():
    g, stats = read_snap(io.StringIO("5 5\n"))
    assert g.n == 1 and g.m == 0
    assert stats.loops_dropped == 1


def test_snap_renumbers_sparse_ids():
    g = read_snap(io.StringIO("10 20\n20 10\n30 10\n"))[0]
    assert g.n == 3
    assert sorted(g.edge_pairs()) == [(0, 1), (1, 0), (2, 0)]


def test_snap_rejects_garbage():
    with pytest.raises(GraphError):
        read_snap(io.StringIO("a b\n"))


def test_load_graph_sniffing(tmp_path):
    d = tmp_path / "a.gr"
    d.write_text("p sp 2 2\na 1 2 1\na 2 1 1\n")
    s = tmp_path / "b.txt"
    s.write_text("0 1\n1 0\n")
    assert load_graph(d).n == 2
    assert load_graph(s).n == 2
    anon = tmp_path / "c.graph"
    anon.write_text("c x\np sp 2 1\na 1 2 1\n")
    assert load_graph(anon).m == 1


def test_load_graph_rejects_unknown_format_before_opening(tmp_path):
    existing = tmp_path / "a.gr"
    existing.write_text("p sp 2 2\na 1 2 1\na 2 1 1\n")
    for path in (tmp_path / "missing.gr", existing):
        with pytest.raises(GraphError, match="unknown format 'bogus'"):
            load_graph(path, "bogus")


def test_largest_scc_of_parsed_file(tmp_path):
    p = tmp_path / "g.gr"
    p.write_text("p sp 4 4\na 1 2 1\na 2 3 1\na 3 1 1\na 3 4 1\n")
    top = largest_scc(load_graph(p))
    assert top.n == 3 and top.m == 3


def test_ids_beyond_int64_name_the_line():
    too_big = 2**63
    for text, line in ((f"0 1\n{too_big} 1\n", 2), (f"1 {too_big}\n", 1), ("-1 0\n", 1)):
        with pytest.raises(GraphError,
                           match=re.escape(f"line {line}: vertex id outside 0..2**63 - 1")):
            read_snap(io.StringIO(text))
    with pytest.raises(GraphError,
                       match=re.escape(f"line 2: vertex count {too_big} is 2**63 or more")):
        read_dimacs(io.StringIO(f"c x\np sp {too_big} 1\n"))
    g = read_snap(io.StringIO(f"{too_big - 1} 0\n0 {too_big - 1}\n"))[0]
    assert g.vertex_origin.tolist() == [0, too_big - 1]
    assert g.edge_pairs() == [(1, 0), (0, 1)]


def test_vertex_count_no_array_holds_names_the_line():
    # counts of 2**60 or more fail on the array's byte size before anything
    # is allocated; at 2**63 - 1, np.arange's own length count overflows
    for n in (2**60, 2**62, 2**63 - 1):
        with pytest.raises(GraphError,
                           match=re.escape(f"line 2: vertex count {n} is too large")):
            read_dimacs(io.StringIO(f"c x\np sp {n} 1\na 1 2 1\n"))


def test_load_graph_skips_a_byte_order_mark(tmp_path):
    # the sniffing pass reads the first line of the suffix-less file
    for name, text in (("a.gr", "p sp 2 2\na 1 2 1\na 2 1 1\n"), ("b.txt", "7 9\n9 7\n"),
                       ("c.graph", "c x\np sp 2 1\na 1 2 1\n")):
        plain, marked = tmp_path / name, tmp_path / "bom" / name
        marked.parent.mkdir(exist_ok=True)
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        want, got = load_graph(plain), load_graph(marked)
        assert got.edge_pairs() == want.edge_pairs()
        assert got.vertex_origin.tolist() == want.vertex_origin.tolist()


def test_read_dimacs_memory_per_arc(tmp_path):
    """The reader keeps the endpoints in int64 arrays, not a tuple per arc:
    its traced peak on a side-120 road grid stays below 200 bytes per arc."""
    arcs = _road_grid_arcs(120, 0.12, 0.55, 1)
    path = tmp_path / "grid.gr"
    path.write_text("".join([f"p sp {120 * 120} {len(arcs)}\n"] +
                            [f"a {u + 1} {v + 1} 1\n" for u, v in arcs]))
    tracemalloc.start()
    try:
        with path.open() as fh:
            g = read_dimacs(fh)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == len(arcs) == 38937
    assert peak / len(arcs) < 200
