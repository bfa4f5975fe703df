#!/usr/bin/env python3
"""Offline layered benchmark of the twoec library on seeded synthetic graphs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload road-mix --seed 1 --seconds 50 --trace 0

The run writes its input graphs as DIMACS files under ``perfbench/_work``,
deletes them at the end, and drives the library only through its public
API.  With ``--trace 0`` it times setup, the analysis (strong bridges,
blocks, components) and every algorithm, and prints the end-to-end
metrics, scaled to the reference speed of ``calibration.py``.  With
``--trace 1`` it visits each instance once untraced and once traced and
prints the per-layer metrics.  Every output is checked outside the timed
region; the last line of standard output is one JSON object, and the exit
code is 1 when any check failed.
See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REF_S, speed  # noqa: E402
from fingerprints import committed, summary  # noqa: E402
from tracer import LayerTrace, metric_specs  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS, DEFAULT_GRAPH_SEED, WORKLOADS, make_input,
)

WORK = HERE / "_work"
SETUP_REPS = 3


def import_library():
    """Import twoec from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "twoec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library sources not found under {src}")
    sys.path.insert(0, str(src))
    import twoec
    if Path(twoec.__file__).resolve().parent != src / "twoec":
        raise SystemExit(f"perfbench: imported twoec from {twoec.__file__}, not {src}")
    return twoec


def end_to_end_specs() -> list[tuple[str, str]]:
    out = [("setup_s", "s"), ("analyze.cpu_s", "s")]
    for algo in ALGORITHMS:
        out += [(f"{algo}.cpu_s", "s"), (f"{algo}.q", "ratio")]
    out.append(("peak_rss_mb", "MB"))
    return out


def environment(workload: str, spec: dict, graph_seed: int, seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "workload": workload,
        "params": {k: v for k, v in spec.items() if k != "why"},
        "graph_seed": graph_seed, "seed": seed,
    }


class Instance:
    """One input file: its graph, reference partitions and timings."""

    def __init__(self, path: Path):
        self.path = path
        self.g = None
        self.block_part = self.comp_part = None
        self.setup_s: list[float] = []
        self.analyze_s: list[float] = []
        self.algo_s: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
        self.outputs: dict[str, list[frozenset]] = {}   # one per successful call
        self.failures: list[str] = []


class Run:
    """The instances of one run.  Setup and analysis run on all of them;
    algorithm `a` on ``spec["instances"][a]`` of them, evenly spaced so
    that its samples spread over the whole pass.

    Every timed step is bracketed by calibration kernels, and its CPU time
    is kept scaled by REF_S over their mean time, so that the samples are
    CPU seconds at the reference speed whatever the machine's speed was
    while they ran."""

    def __init__(self, twoec, spec: dict, expected: dict, paths: list[Path]):
        self.tw = twoec
        self.expected = expected
        self.instances = [Instance(p) for p in paths]
        k = len(paths)
        self.spots = {a: {j * k // c for j in range(c)} for a, c in spec["instances"].items()}
        self.attempted = 0
        self.speeds: list[float] = []     # every calibration kernel time
        self._before = 0.0                # the last one, before the next step

    def calibrate(self) -> float:
        self._before = speed()
        self.speeds.append(self._before)
        return self._before

    def keep(self, samples: list[float], *dts: float) -> float:
        """Append `dts`, scaled to the reference speed, to `samples`;
        returns their raw sum."""
        before = self._before
        scale = REF_S / ((before + self.calibrate()) / 2)
        samples.extend(dt * scale for dt in dts)
        return sum(dts)

    def algorithms(self, index: int) -> list[str]:
        return [a for a in ALGORITHMS if index in self.spots[a]]

    def runs_of(self, algo: str) -> list[Instance]:
        return [self.instances[i] for i in sorted(self.spots[algo])]

    # -- the three timed steps; each returns its raw CPU seconds ------------

    def setup(self, inst: Instance) -> float:
        dts = []
        for _ in range(SETUP_REPS):
            t0 = time.process_time()
            g = self.tw.largest_scc(self.tw.load_graph(inst.path))
            dts.append(time.process_time() - t0)
        inst.g = g
        return self.keep(inst.setup_s, *dts)

    def analyze(self, inst: Instance) -> float:
        tw, g = self.tw, inst.g
        t0 = time.process_time()
        bridges = tw.strong_bridges(g)
        block_part = tw.blocks(g)
        comp_part = tw.components(g)
        dt = self.keep(inst.analyze_s, time.process_time() - t0)
        self.attempted += 1
        got = summary(g.n, g.m, len(bridges), block_part.sizes().tolist(),
                      comp_part.sizes().tolist())
        if got != self.expected:
            inst.failures.append(f"analyze: fingerprint {got} != committed {self.expected}")
        inst.block_part, inst.comp_part = block_part, comp_part
        return dt

    def sparsify(self, inst: Instance, algo: str) -> float:
        self.attempted += 1
        try:
            t0 = time.process_time()
            out = self.tw.run_algorithm(algo, inst.g)
            dt = time.process_time() - t0
        except Exception as exc:  # every exception is a failed output
            inst.failures.append(f"{algo}: raised {type(exc).__name__}: {exc}")
            return 0.0
        inst.outputs.setdefault(algo, []).append(frozenset(out))
        return self.keep(inst.algo_s[algo], dt)

    # -- checks outside the timed region --------------------------------------

    def check_outputs(self) -> None:
        """A call fails when its output differs from the first call's on the
        same instance, or when that output breaks preservation."""
        for inst in self.instances:
            for algo, outs in inst.outputs.items():
                problem = self.tw.ALGORITHMS[algo]
                bad = "; ".join(self.tw.preservation_violations(inst.g, outs[0], problem))
                for out in outs:
                    if out != outs[0]:
                        inst.failures.append(f"{algo}: output differs between passes")
                    elif bad:
                        inst.failures.append(f"{algo}: {bad}")

    def quality(self, inst: Instance, algo: str) -> tuple[int, float]:
        g = inst.g
        edges_out = len(inst.outputs[algo][0])
        lb = self.tw.lower_bound(self.tw.ALGORITHMS[algo], g, inst.block_part, inst.comp_part)
        return edges_out, edges_out / g.n / lb

    @property
    def failures(self) -> list[str]:
        return [f for inst in self.instances for f in inst.failures]

    # -- the two kinds of run ---------------------------------------------------

    def visit(self, i: int) -> float:
        """Setup, analysis and the algorithms of instance `i`; returns their
        raw CPU seconds, without the calibration kernels."""
        inst = self.instances[i]
        self.calibrate()
        busy = self.setup(inst) + self.analyze(inst)
        for algo in self.algorithms(i):
            busy += self.sparsify(inst, algo)
        return busy

    def timed(self, deadline: float) -> int:
        """Whole passes over every instance, so that each metric's samples
        spread over the whole run: at least two, more while one still fits
        before the deadline.  Returns the number of passes."""
        passes = 0
        while True:
            t0 = time.monotonic()
            for i in range(len(self.instances)):
                self.visit(i)
            passes += 1
            if passes >= 2 and time.monotonic() + (time.monotonic() - t0) > deadline:
                return passes

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        def mean_of_medians(per_inst: list[list[float]]) -> float:
            return statistics.fmean(statistics.median(s) for s in per_inst if s)

        units = dict(end_to_end_specs())
        out = {
            "setup_s": mean_of_medians([i.setup_s for i in self.instances]),
            "analyze.cpu_s": mean_of_medians([i.analyze_s for i in self.instances]),
        }
        for algo in ALGORITHMS:
            runs = self.runs_of(algo)
            if not all(algo in i.outputs for i in runs):
                continue
            out[f"{algo}.cpu_s"] = mean_of_medians([i.algo_s[algo] for i in runs])
            out[f"{algo}.q"] = statistics.fmean(self.quality(i, algo)[1] for i in runs)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {k: (v, units[k]) for k, v in out.items()}

    def record(self) -> dict:
        """The per-instance details printed beside the result."""
        rows = []
        for inst in self.instances:
            algos = {}
            for algo in inst.outputs:
                edges_out, q = self.quality(inst, algo)
                algos[algo] = {"cpu_s": inst.algo_s[algo], "edges_out": edges_out, "q": q}
            rows.append({"file": inst.path.name, "setup_s": inst.setup_s,
                         "analyze_s": inst.analyze_s, "algorithms": algos,
                         "failures": inst.failures})
        return {"fingerprint": self.expected, "instances": rows}


def make_inputs(workload: str, spec: dict, graph_seed: int, seed: int) -> list[Path]:
    """The run's input files: relabellings of one graph drawn from `seed`."""
    k = max(spec["instances"].values())
    return [make_input(spec, graph_seed, seed * k + i,
                       WORK / f"{workload}-g{graph_seed}-s{seed}-{i}.gr")
            for i in range(k)]


def run_workload(twoec, workload: str, spec: dict, expected: dict, seed: int,
                 seconds: float, trace: bool, graph_seed: int = DEFAULT_GRAPH_SEED):
    """Measure one workload; returns (result line, full record)."""
    start = time.monotonic()
    run = Run(twoec, spec, expected, make_inputs(workload, spec, graph_seed, seed))
    if trace:
        # Each instance is visited untraced, then traced, so that both
        # sides of the overhead see the same VM phase.
        untraced = traced = 0.0
        tracer = LayerTrace()
        for i in range(len(run.instances)):
            untraced += run.visit(i)
            with tracer:
                traced += run.visit(i)
        values = tracer.metrics()
        values["trace.overhead_frac"] = traced / untraced - 1
        metrics = {name: (values[name], unit) for name, unit in metric_specs()}
        passes = 2
    else:
        passes = run.timed(start + seconds)
        metrics = run.end_to_end()
    run.check_outputs()
    for inst in run.instances:
        inst.path.unlink()
    failures = run.failures
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": environment(workload, spec, graph_seed, seed), "passes": passes,
              "wall_s": time.monotonic() - start,
              "speed": REF_S / statistics.median(run.speeds), **run.record()}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="draws the relabelling and arc order of every input")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int, default=DEFAULT_GRAPH_SEED,
                    help="draws the graph itself; needs a committed fingerprint")
    args = ap.parse_args(argv)

    twoec = import_library()
    spec = WORKLOADS[args.workload]
    expected = committed(args.workload, args.graph_seed)
    result, record = run_workload(twoec, args.workload, spec, expected, args.seed,
                                  args.seconds, bool(args.trace), args.graph_seed)

    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"passes {record['passes']}  wall {record['wall_s']:.1f} s  "
          f"speed {record['speed']:.3f} x reference")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    for algo in ALGORITHMS:
        rows = [i["algorithms"][algo] for i in record["instances"] if algo in i["algorithms"]]
        if rows:
            print(f"{algo + '.edges_out':40s} "
                  f"{statistics.fmean(r['edges_out'] for r in rows):>14.6g} edges")
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for f in sum((i["failures"] for i in record["instances"]), []):
        print("FAILED " + f)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
