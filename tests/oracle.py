"""Brute-force ground truth: pairwise 2-edge-connectivity, exhaustive minima,
the lower-bound gadget family, and checks of independent spanning trees.

Everything here is deliberately independent of the production algorithms:
flows are a plain BFS Edmonds-Karp, components come from exhaustive subset
search, and bridges from per-edge removal, so oracle and implementation can
cross-validate each other.  `verify_independent` walks the two tree paths
of every vertex and compares them with the dominators of each vertex,
which `dominators` reads off a given dominator tree, and `_order_valid`
checks one local low-high order of `twoec.spanning`.

Imported by name, like `graph_builders`, by the test modules beside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from twoec.digraph import Digraph, GraphError, Partition, build, induced_subgraph, scc
from twoec.dominators import DominatorTree

__all__ = [
    "OracleBudget", "oracle_blocks", "oracle_components", "oracle_min_subgraph",
    "two_edge_connected_pair", "gadget_family", "gadget_minimal_witness",
    "dominators", "verify_independent", "_order_valid",
]


@dataclass(frozen=True)
class OracleBudget:
    max_exhaustive_n: int = 8     # exhaustive subset searches
    max_pairwise_n: int = 12      # pairwise-flow partitions
    max_m: int = 20               # edge budget of the minimum-subgraph search


def _bfs_flow_at_least_two(g: Digraph, src: int, dst: int) -> bool:
    """True iff two edge-disjoint src->dst paths exist (unit capacities)."""
    if src == dst:
        return True
    out_start, out_eids, heads = g.out_lists()
    in_start, in_eids, tails = g.in_lists()
    used = set()
    paths = 0
    for _ in range(2):
        parent: dict[int, tuple[int, int, bool]] = {src: (-1, -1, False)}
        frontier = [src]
        found = False
        while frontier and not found:
            nxt = []
            for v in frontier:
                for pos in range(out_start[v], out_start[v + 1]):
                    e = out_eids[pos]
                    if e in used:
                        continue
                    w = heads[pos]
                    if w not in parent:
                        parent[w] = (v, e, False)
                        if w == dst:
                            found = True
                            break
                        nxt.append(w)
                for pos in range(in_start[v], in_start[v + 1]):
                    e = in_eids[pos]
                    if e not in used:
                        continue
                    w = tails[pos]
                    if w not in parent:
                        parent[w] = (v, e, True)
                        if w == dst:
                            found = True
                            break
                        nxt.append(w)
                if found:
                    break
            frontier = nxt
        if not found:
            return False
        v = dst
        while v != src:
            pv, e, backward = parent[v]
            if backward:
                used.discard(e)
            else:
                used.add(e)
            v = pv
        paths += 1
    return paths >= 2


def two_edge_connected_pair(g: Digraph, u: int, v: int) -> bool:
    """Definition check: two edge-disjoint paths in each direction."""
    return _bfs_flow_at_least_two(g, u, v) and _bfs_flow_at_least_two(g, v, u)


def oracle_blocks(g: Digraph, budget: OracleBudget = OracleBudget()) -> Partition:
    """Block partition from pairwise flow checks."""
    if g.n > budget.max_pairwise_n:
        raise GraphError("oracle budget exceeded")
    n = g.n
    rel = [[False] * n for _ in range(n)]
    for u in range(n):
        rel[u][u] = True
        for v in range(u + 1, n):
            if two_edge_connected_pair(g, u, v):
                rel[u][v] = rel[v][u] = True
    for u in range(n):          # the relation must be transitive on SC graphs
        for v in range(n):
            if rel[u][v]:
                for w in range(n):
                    if rel[v][w] and not rel[u][w]:
                        raise GraphError("2EC relation is not transitive")
    label = list(range(n))
    for u in range(n):
        for v in range(u):
            if rel[u][v]:
                label[u] = label[v]
                break
    return Partition(label)


def _is_two_edge_connected(g: Digraph) -> bool:
    """No strong bridges, by per-edge removal; vacuous for n <= 1."""
    if g.n <= 1:
        return True
    if scc(g).count != 1:
        return False
    ids = g.edge_ids.tolist()
    for i in range(len(ids)):
        if scc(g.subgraph_edges(ids[:i] + ids[i + 1:])).count != 1:
            return False
    return True


def oracle_components(g: Digraph, budget: OracleBudget = OracleBudget()) -> Partition:
    """Maximal vertex sets with 2-edge-connected induced subgraphs."""
    if g.n > max(budget.max_exhaustive_n, 10):
        raise GraphError("oracle budget exceeded")
    n = g.n
    found: list[set[int]] = []
    for size in range(n, 1, -1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if any(sset <= other for other in found):
                continue
            sub = induced_subgraph(g, subset)
            if _is_two_edge_connected(sub):
                for other in found:
                    if other & sset:
                        raise GraphError("overlapping maximal 2EC subgraphs")
                found.append(sset)
    label = list(range(n))
    for cls in found:
        root = min(cls)
        for v in cls:
            label[v] = root
    return Partition(label)


def _requirement_degrees(g: Digraph, requirement: str, budget: OracleBudget):
    n = g.n
    req_in = [1] * n
    req_out = [1] * n
    if requirement == "SCSS":
        pass
    elif requirement == "2ECSS":
        if not _is_two_edge_connected(g):
            raise GraphError("2ECSS requires a 2-edge-connected input")
        req_in = [2] * n
        req_out = [2] * n
    elif requirement in ("2EC-B", "2EC-C", "2EC-B-C"):
        parts = []
        if requirement in ("2EC-B", "2EC-B-C"):
            parts.append(oracle_blocks(g, budget))
        if requirement in ("2EC-C", "2EC-B-C"):
            parts.append(oracle_components(g, budget))
        for part in parts:
            sizes = part.sizes().tolist()
            for v, c in enumerate(part.comp.tolist()):
                if sizes[c] >= 2:
                    req_in[v] = req_out[v] = 2
    else:
        raise ValueError(f"unknown requirement {requirement!r}")
    return req_in, req_out


def oracle_min_subgraph(
    g: Digraph, requirement: str, budget: OracleBudget = OracleBudget()
) -> tuple[int, list[int]]:
    """Minimum-cardinality spanning edge set meeting the requirement.

    Increasing-size enumeration with degree-deficit pruning; the witness is
    the lexicographically smallest (by edge id) among minimum solutions.
    """
    if g.n > budget.max_exhaustive_n or g.m > budget.max_m:
        raise GraphError("oracle budget exceeded")
    n, edges = g.n, g.edge_ids.tolist()
    req_in, req_out = _requirement_degrees(g, requirement, budget)

    target_blocks = oracle_blocks(g, budget) if requirement in ("2EC-B", "2EC-B-C") else None
    target_comps = oracle_components(g, budget) if requirement in ("2EC-C", "2EC-B-C") else None

    def satisfies(chosen: list[int]) -> bool:
        sub = g.subgraph_edges(chosen)
        if n > 1 and scc(sub).count != 1:
            return False
        if requirement == "2ECSS" and not _is_two_edge_connected(sub):
            return False
        if target_blocks is not None and oracle_blocks(sub, budget) != target_blocks:
            return False
        if target_comps is not None and oracle_components(sub, budget) != target_comps:
            return False
        return True

    if n <= 1:
        return 0, []

    tails = [g.tail(e) for e in edges]
    heads = [g.head(e) for e in edges]
    lower = max(sum(req_in), sum(req_out))

    # suffix availability per vertex for pruning
    m = len(edges)
    in_avail = [[0] * n for _ in range(m + 1)]
    out_avail = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        in_avail[i] = in_avail[i + 1][:]
        out_avail[i] = out_avail[i + 1][:]
        in_avail[i][heads[i]] += 1
        out_avail[i][tails[i]] += 1

    for k in range(lower, m + 1):
        chosen: list[int] = []
        in_cnt = [0] * n
        out_cnt = [0] * n

        def deficits() -> int:
            din = sum(max(0, req_in[v] - in_cnt[v]) for v in range(n))
            dout = sum(max(0, req_out[v] - out_cnt[v]) for v in range(n))
            return max(din, dout)

        def search(i: int) -> list[int] | None:
            need = deficits()
            if len(chosen) + need > k or len(chosen) + (m - i) < k:
                return None
            if len(chosen) == k:
                return list(chosen) if need == 0 and satisfies(chosen) else None
            if i == m:
                return None
            for v in range(n):
                if in_cnt[v] + in_avail[i][v] < req_in[v]:
                    return None
                if out_cnt[v] + out_avail[i][v] < req_out[v]:
                    return None
            chosen.append(edges[i])
            in_cnt[heads[i]] += 1
            out_cnt[tails[i]] += 1
            hit = search(i + 1)
            chosen.pop()
            in_cnt[heads[i]] -= 1
            out_cnt[tails[i]] -= 1
            if hit is not None:
                return hit
            return search(i + 1)

        witness = search(0)
        if witness is not None:
            return k, witness
    raise GraphError("no satisfying subgraph exists")


def gadget_family(k: int) -> Digraph:
    """Family with one nontrivial block {x1..xk} (also a component).

    n = k+4 vertices, 6n-21 edges.  The 2EC-B minimum is 2n-4 (a bidirected
    gap-free x-cycle cannot be beaten: nontrivial-block vertices need in- and
    outdegree two), and a minimal solution with 3n-9 edges exists.
    """
    if k < 4:
        raise GraphError("gadget family needs k >= 4")
    xs = list(range(k))
    a, b, c, d = k, k + 1, k + 2, k + 3
    edges: list[tuple[int, int]] = []
    for i in range(k):                       # bidirected x-cycle
        j = (i + 1) % k
        edges.append((xs[i], xs[j]))
        edges.append((xs[j], xs[i]))
    for i in range(k):                       # feeders into the chain
        edges.append((xs[i], a))
    edges.extend([(a, b), (b, c), (c, d)])   # the chain
    for i in range(k):                       # chain back into the block
        edges.append((d, xs[i]))
    for i in range(k):                       # extra chain entries (padding to 6n-21)
        edges.append((xs[i], b))
    for i in range(k):
        edges.append((xs[i], c))
    return build(k + 4, edges)


def gadget_minimal_witness(k: int) -> list[int]:
    """Edge ids of a minimal (not minimum) block-preserving solution, 3n-9 edges.

    One directed x-cycle, all feeders x_i -> a, the chain a->b->c->d, and all
    returns d -> x_i; removing any edge breaks strong connectivity or splits
    the nontrivial block.
    """
    g = gadget_family(k)
    index = {(g.tail(e), g.head(e)): e for e in g.edge_ids.tolist()}
    a, b, c, d = k, k + 1, k + 2, k + 3
    chosen = []
    for i in range(k):
        chosen.append(index[(i, (i + 1) % k)])
    for i in range(k):
        chosen.append(index[(i, a)])
    chosen += [index[(a, b)], index[(b, c)], index[(c, d)]]
    for i in range(k):
        chosen.append(index[(d, i)])
    return sorted(chosen)


def dominators(dt: DominatorTree, w: int) -> list[int]:
    """The ancestors of w in the dominator tree `dt`, w included, from the
    start vertex down."""
    out = [w]
    while dt.idom[w] != -1:
        w = dt.idom[w]
        out.append(w)
    return out[::-1]


def verify_independent(g: Digraph, blue: list[int], red: list[int],
                       dt: DominatorTree) -> bool:
    """Check the normative contract on the flow graph G(s), with `dt` its
    dominator tree, for two parent-edge lists: the two root-to-v paths of
    every vertex intersect exactly in the dominator set of v."""
    s = dt.dfs_order[0]

    def path(tree: list[int], v: int) -> set[int] | None:
        """The vertices on the tree path from s to v; None if it runs into
        a detached vertex, an edge that does not enter its vertex or a
        parent cycle."""
        out = {v}
        while v != s:
            if tree[v] == -1 or g.head(tree[v]) != v:
                return None
            v = g.tail(tree[v])
            if v in out:
                return None
            out.add(v)
        return out

    for v in range(g.n):
        if v == s:
            continue
        pb, pr = path(blue, v), path(red, v)
        if pb is None or pr is None or pb & pr != set(dominators(dt, v)):
            return False
    return True


def _order_valid(root: int, in_arcs: dict[int, list[tuple[int, int]]],
                 pos: dict[int, int]) -> bool:
    """Linear low-high check: every child without an arc from the root has
    one from an earlier child and one from a later child."""
    for v, arcs in in_arcs.items():
        tails = [t for t, _ in arcs]
        if root in tails:
            continue
        if not (any(pos[t] < pos[v] for t in tails) and any(pos[t] > pos[v] for t in tails)):
            return False
    return True
