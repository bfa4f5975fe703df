"""Smoke test of the benchmark at a tiny size: schema, fingerprints and the
failure logic.  No timing gate.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fingerprints  # noqa: E402
import run  # noqa: E402
from workloads import ALGORITHMS  # noqa: E402

TINY = {
    "tiny-road": {"kind": "road", "side": 6, "p_drop": 0.12, "p_two_way": 0.55,
                  "instances": {a: 2 for a in ALGORITHMS} | {"hybrid-b": 1}},
    "tiny-dense": {"kind": "uniform", "vertices": 40, "arcs": 160,
                   "instances": {a: 2 for a in ALGORITHMS}},
}
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def twoec():
    return run.import_library()


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny(request):
    name = request.param
    return name, TINY[name], fingerprints.reference(TINY[name], 1)


def measure(twoec, tiny, trace=False, expected=None):
    name, spec, reference = tiny
    return run.run_workload(twoec, name, spec, expected or reference, seed=3,
                            seconds=0, trace=trace)


def names_and_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONFIG[section]}


def test_timed_run_reports_every_end_to_end_metric(twoec, tiny):
    result, record = measure(twoec, tiny)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record
    assert result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == names_and_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["passes"] >= 2
    assert record["speed"] > 0
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1


def test_traced_run_reports_every_per_layer_metric(twoec, tiny):
    result, record = measure(twoec, tiny, trace=True)
    assert result["correct"], record
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == names_and_units("per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["io.load_graph.calls"] == run.SETUP_REPS * len(record["instances"])
    assert values["io.read_dimacs.calls"] == values["io.load_graph.calls"]
    assert values["certificates.ist_b.calls"] > 0
    assert values["blocks.blocks.calls"] > 0


def test_tracer_restores_the_library(twoec, tiny):
    before = (twoec.blocks, sys.modules["twoec.filters"].blocks,
              twoec.Digraph.subgraph_edges)
    measure(twoec, tiny, trace=True)
    after = (twoec.blocks, sys.modules["twoec.filters"].blocks,
             twoec.Digraph.subgraph_edges)
    assert before == after


def test_wrong_fingerprint_fails(twoec, tiny):
    wrong = json.loads(json.dumps(tiny[2]))
    wrong["strong_bridges"] += 1
    result, _ = measure(twoec, tiny, expected=wrong)
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("defect, message", [
    ("raises", "raised GraphError"),
    ("drops-bridge", "not strongly connected"),
    ("varies", "differs between passes"),
])
def test_bad_outputs_fail(twoec, tiny, defect, message):
    calls: list[bytes] = []

    def run_algorithm(name, g, **opts):
        out = twoec.run_algorithm(name, g, **opts)
        if name == "ist-b":
            # every pass loads the instance again, so key it by content
            calls.append(g.tails.tobytes() + g.heads.tobytes())
            if defect == "raises":
                raise twoec.GraphError("internal error: injected")
            if defect == "drops-bridge" or calls.count(calls[-1]) == 1:
                out = set(out) - {min(twoec.strong_bridges(g))}
        return out

    fake = types.SimpleNamespace(**{k: getattr(twoec, k) for k in dir(twoec)})
    fake.run_algorithm = run_algorithm
    result, record = measure(fake, tiny)
    assert not result["correct"] and result["failed"] >= 1
    failures = [f for i in record["instances"] for f in i["failures"]]
    assert any(f.startswith("ist-b") and message in f for f in failures), failures


def test_inputs_depend_only_on_the_seeds(tmp_path):
    spec = TINY["tiny-road"]
    a = run.make_input(spec, 1, 5, tmp_path / "a.gr").read_text()
    b = run.make_input(spec, 1, 5, tmp_path / "b.gr").read_text()
    c = run.make_input(spec, 1, 6, tmp_path / "c.gr").read_text()
    assert a == b != c


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        CONFIG["command"] + ["--workload", CONFIG["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
