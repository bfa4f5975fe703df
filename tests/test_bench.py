import csv
import json

import pytest

from twoec.bench import ALGORITHMS, lower_bound, run_algorithm, run_experiment, write_csv
from twoec.blocks import preservation_violations
from twoec.fixtures import corpus, g2, g5


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


def test_run_algorithm_unknown():
    with pytest.raises(ValueError):
        run_algorithm("nope", g2())


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
])
def test_experiment_rejects_bad_runs_and_order(tmp_path, key, value):
    # the dataset path does not exist: rejecting the config before any
    # dataset is looked at is what makes this a ValueError, not a skip
    config = {
        "datasets": [{"name": "gone", "path": str(tmp_path / "none.gr")}],
        "algorithms": ["ist-b"],
        key: value,
    }
    with pytest.raises(ValueError, match=f"'{key}'"):
        run_experiment(config)
