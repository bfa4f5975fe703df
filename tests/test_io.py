import io

import pytest

from twoec.digraph import GraphError, largest_scc
from twoec.io import load_graph, read_dimacs, read_snap


def test_dimacs_basic():
    g = read_dimacs(io.StringIO("c comment\np sp 3 3\na 1 2 4\na 2 3 1\na 3 1 7\n"))[0]
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
