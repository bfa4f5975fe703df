"""Pinned outputs of the 14 catalog algorithms.

Each algorithm is deterministic with its default options, so a change that
keeps the algorithms as they are keeps these edge sets exactly: the size
and a digest of the sorted edge ids of each output are pinned on a road
grid and on a random strongly connected digraph.
"""
import hashlib
import random

import pytest

from twoec.bench import ALGORITHMS, run_algorithm
from twoec.fixtures import random_strongly_connected, road_grid

GRAPHS = {
    "road-grid-12": lambda: road_grid(12, 0.12, 0.55, 1),
    "random-40-120": lambda: random_strongly_connected(random.Random(5), 40, 120),
}

PINNED = {
    "road-grid-12": {
        "ist-b-original": (299, "93475b73a0d49288"),
        "ist-b": (269, "469fb282355fa8d5"),
        "test2edp-b": (247, "f2138b2f63778530"),
        "test2ecb-b": (234, "92d7766d5185d372"),
        "hybrid-b": (234, "92d7766d5185d372"),
        "test2edp-b-aux": (251, "8bfeabc4771a8330"),
        "hybrid-b-aux": (241, "6e240a7325734b0a"),
        "ist-bc": (277, "85a90455324cbd13"),
        "test2edp-bc": (256, "af7ee0551b9559a1"),
        "test2ecb-bc": (244, "22cb990cc1c16c9e"),
        "hybrid-bc": (244, "22cb990cc1c16c9e"),
        "test2edp-bc-aux": (260, "5574de4bc4281138"),
        "hybrid-bc-aux": (252, "54000d8785af13f8"),
        "zni-c": (187, "a84233b74cd9cf13"),
    },
    "random-40-120": {
        "ist-b-original": (102, "daa229b89ccdecd3"),
        "ist-b": (91, "c881a24c2f3106da"),
        "test2edp-b": (76, "a1ffcc876d4fdc0e"),
        "test2ecb-b": (70, "cef77a6cf7b6b0bb"),
        "hybrid-b": (70, "cef77a6cf7b6b0bb"),
        "test2edp-b-aux": (78, "efe7f7212e952bc7"),
        "hybrid-b-aux": (74, "e958b166b465f62a"),
        "ist-bc": (91, "c881a24c2f3106da"),
        "test2edp-bc": (76, "a1ffcc876d4fdc0e"),
        "test2ecb-bc": (70, "cef77a6cf7b6b0bb"),
        "hybrid-bc": (70, "cef77a6cf7b6b0bb"),
        "test2edp-bc-aux": (78, "efe7f7212e952bc7"),
        "hybrid-bc-aux": (74, "e958b166b465f62a"),
        "zni-c": (46, "9bcadb985f72cfcf"),
    },
}


def _digest(edges) -> str:
    return hashlib.sha256(",".join(map(str, sorted(edges))).encode()).hexdigest()[:16]


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_catalog_outputs_pinned(graph):
    g = GRAPHS[graph]()
    assert sorted(PINNED[graph]) == sorted(ALGORITHMS)
    got = {}
    for algo in ALGORITHMS:
        out = run_algorithm(algo, g)
        got[algo] = (len(out), _digest(out))
    assert got == PINNED[graph]
