"""Outside-in layer trace of the twoec package.

The tracer wraps every public function (the module's ``__all__``) of each
layer module, plus ``Digraph.subgraph_edges``, and rebinds each wrapper in
every ``twoec`` module that imported the function by name.  No source under
``src/`` is edited.  A span stack splits each call's time into self time
and time spent in traced callees.  Counters are read from the values that
``ist_b`` and the filters return.

Spans use ``time.process_time``, the clock of the end-to-end metrics.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "twoec"

# Layer -> the functions whose calls and self time are reported.  Every
# other public function of the module is traced too and counts towards the
# layer's self time.
REPORTED = {
    "io": ["load_graph", "read_dimacs"],
    "digraph": ["scc", "induced_subgraph", "largest_scc", "subgraph_edges"],
    "dominators": ["dominator_tree", "flow_bridges", "strong_bridges"],
    "spanning": ["independent_pair", "edge_prioritized_dfs"],
    "blocks": ["blocks", "components", "first_level_aux_graphs",
               "canonical_decomposition", "condense"],
    "certificates": ["ist_b", "ist_b_original", "ist_bc", "zni_c", "zni_scss",
                     "two_ecss_edt"],
    "filters": ["test2edp_filter", "test2ecb_filter", "hybrid_filter",
                "aux_variant_filter", "filter_bc", "two_edge_disjoint"],
}
CERT_COUNTERS = ["phase1_new", "phase2_new", "phase3_new", "n_prime"]
FILTER_COUNTERS = ["tested_2edp", "tested_blocks", "kept_trivial", "deleted"]


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fns in REPORTED.items():
        out.append((f"{layer}.self_s", "s"))
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out.append(("blocks.blocks.s_per_call", "s"))
    out += [(f"certificates.{c}", "count") for c in CERT_COUNTERS]
    out += [(f"filters.{c}", "count") for c in FILTER_COUNTERS]
    out += [("filters.delete_yield", "ratio"), ("trace.overhead_frac", "ratio")]
    return out


class LayerTrace:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []          # [layer, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in REPORTED:
            mod = mods[f"{PACKAGE}.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._rebind(mod, attr, wrappers[val])
        digraph_cls = mods[f"{PACKAGE}.digraph"].Digraph
        self._rebind(digraph_cls, "subgraph_edges",
                     self._wrap("digraph", "subgraph_edges", digraph_cls.subgraph_edges))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + dt - frame[1]
                self.total_s[key] = self.total_s.get(key, 0.0) + dt
            self._count(layer, name, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _add(self, key: str, val: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(val)

    def _count(self, layer: str, name: str, result) -> None:
        if layer == "certificates" and name == "ist_b":
            for c in CERT_COUNTERS:
                self._add(f"certificates.{c}", getattr(result[1], c))
        elif layer == "filters" and hasattr(result, "counters"):
            # Only the outermost filter call: a nested one's counters are
            # already folded into its caller's report.
            if any(frame[0] == "filters" for frame in self._stack):
                return
            counters = result.counters
            for c in FILTER_COUNTERS:
                self._add(f"filters.{c}",
                          counters.get(c, 0) + counters.get("condensed_" + c, 0))

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, fns in REPORTED.items():
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(prefix))
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.calls.get(key, 0)
                out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
        n_blocks = self.calls.get("blocks.blocks", 0)
        out["blocks.blocks.s_per_call"] = (
            self.total_s["blocks.blocks"] / n_blocks if n_blocks else 0.0)
        for c in CERT_COUNTERS:
            out[f"certificates.{c}"] = self.counters.get(f"certificates.{c}", 0)
        for c in FILTER_COUNTERS:
            out[f"filters.{c}"] = self.counters.get(f"filters.{c}", 0)
        tests = out["filters.tested_2edp"] + out["filters.tested_blocks"]
        out["filters.delete_yield"] = out["filters.deleted"] / tests if tests else 0.0
        return out
