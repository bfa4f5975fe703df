"""Sparse strongly connected spanning subgraphs that preserve the
2-edge-connected blocks and components of a directed graph."""

from .digraph import (
    Digraph, GraphError, Partition, build, delete_edge_view, induced_subgraph,
    largest_scc, scc,
)
from .dominators import (
    DominatorTree, FlowGraph, dominator_tree, flow_bridges, strong_bridges,
)
from .spanning import (
    SpanningTree, TreePair, edge_prioritized_dfs, independent_pair,
    verify_independent,
)
from .blocks import (
    AuxGraph, CanonicalDecomposition, CondensedGraph, blocks,
    canonical_decomposition, components, condense, expand,
    first_level_aux_graphs, preservation_violations, second_level_aux_graphs,
)
from .certificates import (
    CertificateEdgeList, CertificateStats, ist_b, ist_b_original, ist_bc,
    two_ecss_edt, zni_c, zni_scss,
)
from .filters import (
    FilterConfig, FilterReport, aux_variant_filter, filter_bc, hybrid_filter,
    is_trivial_edge, test2ecb_filter, test2edp_filter, two_edge_disjoint,
)
from .bench import ALGORITHMS, QualityReport, lower_bound, run_algorithm, run_experiment
from .io import load_graph, parse_dimacs, parse_snap

__version__ = "0.1.0"
