"""A fixed reference computation that tracks the speed of the machine.

The benchmark runs on shared virtual machines whose speed drifts by tens of
per cent over seconds to minutes, with every timing of a run moving
together.  ``speed()`` times a fixed kernel that does not use the library
under test, made of the same kinds of work the library does: numpy CSR
construction (``lexsort``, ``add.at``, ``cumsum``), per-vertex array
slices turned into lists, and an iterative Tarjan SCC over Python lists.
A change to the library cannot change the kernel's cost, so dividing a
timing by the kernel time measured next to it removes the machine's drift
and keeps every change to the library.

Timings are reported as CPU seconds at the reference speed: raw CPU
seconds times ``REF_S`` / (kernel CPU seconds measured next to them).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU seconds of one kernel() call on the reference machine (2-core
# Intel Xeon VM, CPython 3.11.7, numpy 2.4.6).  Only scales the reported
# timings; any fixed value would do.
REF_S = 0.0060

_N, _M = 1200, 4800
_rng = np.random.default_rng(20150909)
_TAILS = _rng.integers(0, _N, _M)
_HEADS = _rng.integers(0, _N, _M)


def _csr(n: int, keys: np.ndarray, eids: np.ndarray):
    order = np.lexsort((eids, keys))
    counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(counts, keys + 1, 1)
    return np.cumsum(counts), eids[order]


def kernel() -> int:
    """Count the strongly connected components of a fixed random digraph."""
    eids = np.arange(_M, dtype=np.int64)
    start, order = _csr(_N, _TAILS, eids)
    heads = _HEADS.tolist()
    adj = [[heads[e] for e in order[start[v]:start[v + 1]].tolist()] for v in range(_N)]
    index = [-1] * _N
    low = [0] * _N
    on_stack = [False] * _N
    stack: list[int] = []
    count = counter = 0
    for root in range(_N):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                count += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        break
    return count


def speed(reps: int = 5) -> float:
    """Median CPU seconds of `reps` kernel() calls."""
    samples = []
    for _ in range(reps):
        t0 = time.process_time()
        kernel()
        samples.append(time.process_time() - t0)
    return statistics.median(samples)
