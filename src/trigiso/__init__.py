"""Polynomial-time isomorphism testing for ternary graphs.

Implements the bounded-degree graph isomorphism algorithm of E. Luks (1982)
for graphs of maximum degree three, with the practical refinements that make
it usable: triangle rewriting of size-3 neighbor sets, smooth generating
sequences for all 2-group bookkeeping, color filtering of each tower
level's coset by the recursive solver `cb`, initial invariant tests, and
part-exchange coset restriction.
Includes an adaptation to fully resolved rooted phylogenetic networks
(eNewick in/out), brute-force oracles, and a seeded benchmark harness.
"""

from .coloraut import cb
from .core import (
    AutResult,
    IsoResult,
    aut_e_generators,
    is_isomorphic,
    lift,
)
from .graphs import (
    GraphError,
    GraphFormatError,
    LabeledGraph,
    Splice,
    build_x,
    format_graph_text,
    is_graph_isomorphism,
    parse_graph_text,
    validate,
)
from .harness import (
    BenchRecord,
    bench_csv,
    bench_run,
    bench_summary,
    degree_sequence_graph,
    oracle_aut_e,
    oracle_isomorphic,
    oracle_network_isomorphic,
    random_relabeling,
    random_smooth_2group,
    random_ternary_graph,
)
from .layers import LayerDecomposition, layer_sequence, triangle_gadget
from .perm import (
    Coset,
    Permutation,
    compose,
    coset_union,
    cycle_string,
    enumerate_group,
    group_order,
    inverse,
    smoothness_violations,
)
from .phylo import (
    NetworkError,
    NewickError,
    PhyloNetwork,
    is_network_isomorphism,
    parse_enewick,
    phylo_isomorphic,
    random_network,
    reduce_to_colored,
    reversed_arc_network,
    swap_two_leaf_labels,
    validate_network,
    write_enewick,
)

__version__ = "0.1.0"

__all__ = [
    "AutResult",
    "BenchRecord",
    "Coset",
    "GraphError",
    "GraphFormatError",
    "IsoResult",
    "LabeledGraph",
    "LayerDecomposition",
    "NetworkError",
    "NewickError",
    "Permutation",
    "PhyloNetwork",
    "Splice",
    "aut_e_generators",
    "bench_csv",
    "bench_run",
    "bench_summary",
    "build_x",
    "cb",
    "compose",
    "coset_union",
    "cycle_string",
    "degree_sequence_graph",
    "enumerate_group",
    "format_graph_text",
    "group_order",
    "inverse",
    "is_graph_isomorphism",
    "is_isomorphic",
    "is_network_isomorphism",
    "layer_sequence",
    "lift",
    "oracle_aut_e",
    "oracle_isomorphic",
    "oracle_network_isomorphic",
    "parse_enewick",
    "parse_graph_text",
    "phylo_isomorphic",
    "random_network",
    "random_relabeling",
    "random_smooth_2group",
    "random_ternary_graph",
    "reduce_to_colored",
    "reversed_arc_network",
    "smoothness_violations",
    "swap_two_leaf_labels",
    "triangle_gadget",
    "validate",
    "validate_network",
    "write_enewick",
]
