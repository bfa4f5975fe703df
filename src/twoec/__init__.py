"""Sparse strongly connected spanning subgraphs that preserve the
2-edge-connected blocks and components of a directed graph."""

from .digraph import (
    Digraph, GraphError, Partition, build, induced_subgraph, largest_scc, scc,
)
from .dominators import DominatorTree, dominator_tree, flow_bridges, strong_bridges
from .spanning import independent_pair
from .blocks import aux_graphs, blocks, components, condense, preservation_violations
from .certificates import (
    CertificateStats, ist_b, ist_b_original, ist_bc, two_ecss_edt, zni_c, zni_scss,
)
from .filters import FilterConfig, FilterReport, filter_b, filter_bc
from .bench import ALGORITHMS, QualityReport, lower_bound, run_algorithm, run_experiment
from .io import load_graph

__version__ = "0.1.0"
