import json

from twoec.cli import main


def _write_g1(path):
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    lines = ["p sp 3 6"] + [f"a {t+1} {h+1} 1" for t, h in edges]
    path.write_text("\n".join(lines) + "\n")


def test_analyze(tmp_path, capsys):
    g = tmp_path / "g.gr"
    _write_g1(g)
    assert main(["analyze", str(g)]) == 0
    out = capsys.readouterr().out
    assert "n=3 m=6" in out
    assert "strong bridges: 0" in out


def test_sparsify_and_verify(tmp_path):
    g = tmp_path / "g.gr"
    _write_g1(g)
    sub = tmp_path / "sub.txt"
    assert main(["sparsify", str(g), "--algo", "test2ecb-b", "-o", str(sub)]) == 0
    lines = sub.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines == sorted(lines)
    assert main(["verify", str(g), str(sub), "--problem", "B"]) == 0


def test_snap_ids_round_trip(tmp_path):
    g = tmp_path / "g.txt"
    # bidirected triangle on ids 10/20/30; vertex 5 lies outside the
    # largest SCC and shifts the parser's dense numbering
    g.write_text("5 10\n10 20\n20 10\n20 30\n30 20\n10 30\n30 10\n")
    sub = tmp_path / "sub.txt"
    assert main(["sparsify", str(g), "--algo", "test2ecb-b", "-o", str(sub)]) == 0
    pairs = [tuple(map(int, line.split())) for line in sub.read_text().splitlines()]
    assert sorted(pairs) == [(10, 20), (10, 30), (20, 10), (20, 30), (30, 10), (30, 20)]
    assert main(["verify", str(g), str(sub), "--problem", "B"]) == 0
    local = tmp_path / "local.txt"
    local.write_text("0 1\n1 0\n")
    assert main(["verify", str(g), str(local), "--problem", "B"]) == 1


def test_verify_failure_exit_code(tmp_path):
    g = tmp_path / "g.gr"
    _write_g1(g)
    sub = tmp_path / "sub.txt"
    sub.write_text("1 2\n2 3\n")
    assert main(["verify", str(g), str(sub), "--problem", "B"]) == 2


def test_verify_unknown_edge_is_input_error(tmp_path):
    g = tmp_path / "g.gr"
    _write_g1(g)
    sub = tmp_path / "sub.txt"
    sub.write_text("0 9\n")
    assert main(["verify", str(g), str(sub)]) == 1


def test_sparsify_problem_mismatch(tmp_path):
    g = tmp_path / "g.gr"
    _write_g1(g)
    assert main(["sparsify", str(g), "--algo", "zni-c", "--problem", "B"]) == 1


def test_bench_cli(tmp_path, capsys):
    g = tmp_path / "g.gr"
    _write_g1(g)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "datasets": [{"name": "g1", "path": str(g)}],
        "algorithms": ["ist-b", "zni-c"],
        "runs": 1,
    }))
    out = tmp_path / "out.csv"
    assert main(["bench", "--config", str(cfg), "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2


def test_missing_file_is_input_error(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.gr")]) == 1


def test_malformed_or_empty_input_is_named(tmp_path, capsys):
    cases = {
        "a.gr": ("p sp 5 1\na 4 5 1\np sp 2 0\n", "line 3: second problem line"),
        "b.gr": ("p sp -3 0\n", "line 1: negative vertex count"),
        "c.gr": ("p sp 0 0\n", "graph has no vertices"),
        "d.txt": ("# comments only\n", "graph has no vertices"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_subgraph_line_is_named(tmp_path, capsys):
    g = tmp_path / "g.gr"
    _write_g1(g)
    sub = tmp_path / "sub.txt"
    for text in ("1 2\n2\n", "1 2\nx 3\n"):
        sub.write_text(text)
        assert main(["verify", str(g), str(sub)]) == 1
        assert "line 2:" in capsys.readouterr().err


def test_bench_bad_config_is_input_error(tmp_path, capsys):
    # the dataset is malformed, so an error naming the config shows that the
    # config was checked before anything was loaded
    g = tmp_path / "g.gr"
    g.write_text("p sp -3 0\n")
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cases = [
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b", "nope"]},
         "unknown algorithm 'nope'"),
        ({"algorithms": ["ist-b"]}, "no 'datasets' key"),
        ({"datasets": [{"name": "g", "path": str(g)}]}, "no 'algorithms' key"),
        ({"datasets": [{"name": "x"}], "algorithms": ["ist-b"]},
         "dataset entry 0 needs 'name' and 'path' keys"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"], "runs": 0},
         "key 'runs'"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"],
          "order": "sideways"}, "key 'order'"),
    ]
    for config, message in cases:
        cfg.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not out.exists()
