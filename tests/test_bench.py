import csv

import pytest

from twoec import bench
from twoec.bench import ALGORITHMS, lower_bound, run_algorithm, run_experiment, write_csv
from twoec.blocks import aux_graphs, blocks, components, preservation_violations
from twoec.certificates import (
    CertificateStats, ist_b, ist_b_original, ist_bc, two_ecss_edt, zni_c, zni_scss,
)
from twoec.digraph import GraphError, Partition, build, largest_scc
from twoec.dominators import dominator_tree, strong_bridges
from twoec.filters import FilterConfig, filter_b, filter_bc
from twoec.fixtures import g2, g4, g5

from graph_builders import corpus


def test_catalog_matches_the_paper_table():
    by_problem = {"B": 0, "BC": 0, "C": 0}
    for problem in ALGORITHMS.values():
        by_problem[problem] += 1
    assert by_problem == {"B": 7, "BC": 6, "C": 1}


def test_lower_bound_values():
    assert lower_bound("B", g2()) == 1.0
    assert lower_bound("C", g2()) == 1.0
    assert lower_bound("B", g5()) == (6 + 2) / 6
    assert lower_bound("C", g5()) == 1.0


def test_lower_bound_of_an_empty_graph_is_an_input_error():
    for problem in ("B", "C", "BC"):
        with pytest.raises(GraphError, match="graph has no vertices"):
            lower_bound(problem, build(0, []))


def test_every_algorithm_rejects_an_empty_graph():
    for algo in ALGORITHMS:
        with pytest.raises(GraphError, match="graph has no vertices"):
            run_algorithm(algo, build(0, []))


def test_library_entry_points_return_empty_results_on_an_empty_graph():
    # the catalog, lower_bound and largest_scc take an input graph and reject
    # this one; the library's entry points answer it, and a start vertex
    # named explicitly must still lie in the graph
    g = build(0, [])
    assert ist_b(g) == (set(), CertificateStats(0, 0, 0, 0, 0, 0))
    for algorithm in (ist_b_original, ist_bc, zni_c, zni_scss, two_ecss_edt, strong_bridges):
        assert algorithm(g) == set()
    assert blocks(g) == components(g) == Partition([])
    for cfg in (FilterConfig(), FilterConfig(certificate=False),
                FilterConfig(strategy="hybrid", on_aux_graphs=True)):
        assert filter_b(g, cfg).surviving == filter_bc(g, cfg).surviving == set()
    with pytest.raises(GraphError, match="graph has no vertices"):
        largest_scc(g)
    for decompose in (dominator_tree, aux_graphs):
        with pytest.raises(GraphError, match="out of range"):
            decompose(g, 0)


def test_run_algorithm_unknown():
    with pytest.raises(ValueError):
        run_algorithm("nope", g2())


def test_run_algorithm_rejects_unknown_options():
    for algo in ALGORITHMS:
        with pytest.raises(ValueError, match="'ordr'"):
            run_algorithm(algo, g4(), ordr="random", certificat=False)


def test_every_algorithm_checks_option_values():
    # the certificates read no option, yet reject a bad value as the filters do
    for algo in ALGORITHMS:
        with pytest.raises(ValueError, match="option 'seed' must be an integer"):
            run_algorithm(algo, g4(), seed="7")
        with pytest.raises(ValueError, match="option 'certificate' must be a boolean"):
            run_algorithm(algo, g4(), certificate="no")
        with pytest.raises(ValueError, match="unknown edge order 'sideways'"):
            run_algorithm(algo, g4(), order="sideways")


def test_every_algorithm_valid_on_corpus():
    for name, g in corpus().items():
        for algo, problem in ALGORITHMS.items():
            out = run_algorithm(algo, g)
            assert preservation_violations(g, out, problem) == [], (name, algo)


def test_experiment_csv_roundtrip(tmp_path):
    gp = tmp_path / "g2.gr"
    gp.write_text("p sp 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n")
    config = {
        "datasets": [{"name": "g2", "path": str(gp)}],
        "algorithms": ["ist-b", "hybrid-b", "zni-c"],
        "runs": 3,
    }
    reports = run_experiment(config)
    assert len(reports) == 3
    for r in reports:
        assert r.edges_out == 3
        assert r.q == pytest.approx(1.0)
        assert r.n == 3 and r.m == 3 and r.bstar == 3
    out = tmp_path / "r.csv"
    write_csv(reports, out)
    header = out.read_text().splitlines()[0]
    assert header == ("dataset,algorithm,problem,n,m,bstar,edges_out,"
                      "delta_avg,lower_bound,q,seconds")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(reports)
    for row, r in zip(rows, reports):
        assert (row["dataset"], row["algorithm"], row["problem"]) == (
            r.dataset, r.algorithm, r.problem)
        assert [int(row[k]) for k in ("n", "m", "bstar", "edges_out")] == [
            r.n, r.m, r.bstar, r.edges_out]
        assert [float(row[k]) for k in ("delta_avg", "lower_bound", "q", "seconds")] == [
            r.delta_avg, r.lower_bound, r.q, r.seconds]


def test_experiment_quality_window_on_corpus(tmp_path):
    gp = tmp_path / "g5.gr"
    lines = ["p sp 6 8"]
    from twoec.fixtures import g5 as mk
    for t, h in mk().edge_pairs():
        lines.append(f"a {t+1} {h+1} 1")
    gp.write_text("\n".join(lines) + "\n")
    config = {
        "datasets": [{"name": "g5", "path": str(gp)}],
        "algorithms": sorted(ALGORITHMS),
        "runs": 1,
    }
    for r in run_experiment(config):
        assert 1.0 <= r.q <= 4.0


def test_missing_dataset_skipped(tmp_path):
    config = {
        "datasets": [{"name": "gone", "path": str(tmp_path / "none.gr")}],
        "algorithms": ["ist-b"],
    }
    assert run_experiment(config) == []


@pytest.mark.parametrize("key, value", [
    ("runs", 0), ("runs", -2), ("runs", "3"), ("runs", True), ("order", "sideways"),
    ("seed", "7"), ("seed", True), ("trivial_skip", "no"), ("certificate", "false"),
    ("path", 5), ("format", "csv"), ("sede", 3), ("trivial-skip", False),
    ("fromat", "snap"),
])
def test_experiment_rejects_bad_runs_and_order(tmp_path, key, value):
    # the dataset paths do not exist: rejecting the config before any
    # dataset is looked at is what makes this a ValueError, not a skip
    datasets = [{"name": "gone", "path": str(tmp_path / "none.gr")}]
    config = {"datasets": datasets, "algorithms": ["ist-b"]}
    if key in ("path", "format", "fromat"):
        # a dataset key, set on the second entry
        datasets.append({"name": "bad", "path": str(tmp_path / "other.gr"), key: value})
    else:
        config[key] = value
    with pytest.raises(ValueError, match=f"'{key}'"):
        run_experiment(config)


def test_experiment_requires_one_output_size_under_every_order(tmp_path, monkeypatch):
    # the random order is seeded, so runs that disagree are a fault there too
    gp = tmp_path / "g2.gr"
    gp.write_text("p sp 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n")
    sizes = iter([2, 3])
    monkeypatch.setattr(bench, "run_algorithm", lambda *a, **o: set(range(next(sizes))))
    config = {"datasets": [{"name": "g2", "path": str(gp)}], "algorithms": ["hybrid-b"],
              "runs": 2, "order": "random"}
    with pytest.raises(RuntimeError, match="nondeterministic output for hybrid-b on g2"):
        run_experiment(config)


def test_experiment_requires_one_edge_set_per_cell(tmp_path, monkeypatch):
    # runs that agree on the output size but not on the edges are caught too
    gp = tmp_path / "g2.gr"
    gp.write_text("p sp 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n")
    config = {"datasets": [{"name": "tri", "path": str(gp)}], "algorithms": ["ist-b"],
              "runs": 3}
    outputs = iter([{0, 1}, {0, 1}, {0, 2}])
    monkeypatch.setattr(bench, "run_algorithm", lambda *a, **o: next(outputs))
    with pytest.raises(RuntimeError, match="nondeterministic output for ist-b on tri: "
                                           "the runs gave different edge sets"):
        run_experiment(config)
    outputs = iter([{0, 2}, {2, 0}, {0, 2}])
    [report] = run_experiment(config)
    assert (report.dataset, report.algorithm, report.edges_out) == ("tri", "ist-b", 2)
