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


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # editors on Windows save UTF-8 files with a leading U+FEFF
    dimacs, snap = tmp_path / "g.gr", tmp_path / "g.txt"
    _write_g1(dimacs)
    snap.write_text("0 1\n1 0\n1 2\n2 1\n0 2\n2 0\n")
    for path in (dimacs, snap):
        assert main(["analyze", str(path)]) == 0
        plain = capsys.readouterr().out
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == plain
    sub = tmp_path / "sub.txt"
    sub.write_text("\ufeff1 2\n2 1\n1 3\n3 1\n2 3\n3 2\n", encoding="utf-8")
    assert main(["verify", str(dimacs), str(sub)]) == 0
    cfg = tmp_path / "cfg.json"
    config = {"datasets": [{"name": "g1", "path": str(dimacs)}], "algorithms": ["zni-c"]}
    cfg.write_text("\ufeff" + json.dumps(config), encoding="utf-8")
    assert main(["bench", "--config", str(cfg), "-o", str(tmp_path / "out.csv")]) == 0


def test_missing_file_is_input_error(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.gr")]) == 1


def test_malformed_or_empty_input_is_named(tmp_path, capsys):
    cases = {
        "a.gr": ("p sp 5 1\na 4 5 1\np sp 2 0\n", "line 3: second problem line"),
        "b.gr": ("p sp -3 0\n", "line 1: negative vertex count"),
        "c.gr": ("p sp 0 0\n", "graph has no vertices"),
        "d.txt": ("# comments only\n", "graph has no vertices"),
        "e.txt": ("18446744073709551616 1\n1 18446744073709551616\n",
                  "line 1: vertex id outside 0..2**63 - 1"),
        "f.gr": ("p sp 99999999999999999999 1\n",
                 "line 1: vertex count 99999999999999999999 is 2**63 or more"),
        "g.gr": ("c x\np sp 4611686018427387904 0\n",
                 "line 2: vertex count 4611686018427387904 is too large"),
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
    # an id no input file can hold is named as such, not as a missing edge
    for text in ("1 2\n-1 3\n", f"1 2\n1 {2**63}\n"):
        sub.write_text(text)
        assert main(["verify", str(g), str(sub)]) == 1
        assert capsys.readouterr().err == "error: line 2: vertex id outside 0..2**63 - 1\n"


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
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"],
          "certificate": "false"}, "'certificate'"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"],
          "seed": "7"}, "'seed'"),
        ({"datasets": [{"name": "g", "path": 5}], "algorithms": ["ist-b"]},
         "dataset entry 0 key 'path'"),
        ({"datasets": [{"name": "g", "path": str(g)},
                       {"name": "h", "path": str(g), "format": "csv"}],
          "algorithms": ["ist-b"]}, "dataset entry 1 key 'format'"),
        ({"datasets": 5, "algorithms": ["ist-b"]}, "key 'datasets' must be a list"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": 7},
         "key 'algorithms' must be a list"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": "ist-b"},
         "key 'algorithms' must be a list"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"], "sede": 3},
         "unknown experiment config key 'sede'"),
        ({"datasets": [{"name": "g", "path": str(g)}], "algorithms": ["ist-b"],
          "trivial-skip": False}, "unknown experiment config key 'trivial-skip'"),
        ({"datasets": [{"name": "g", "path": str(g), "fromat": "snap"}],
          "algorithms": ["ist-b"]}, "dataset entry 0 has unknown key 'fromat'"),
        (5, "config must be a JSON object"),
        ([], "config must be a JSON object"),
    ]
    for config, message in cases:
        cfg.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not out.exists()
