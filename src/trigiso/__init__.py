"""Polynomial-time isomorphism testing for ternary graphs.

Implements the bounded-degree graph isomorphism algorithm of E. Luks (1982)
for graphs of maximum degree three, with the practical refinements that make
it usable: triangle rewriting of size-3 neighbor sets, smooth generating
sequences for all 2-group bookkeeping, color filtering of each tower
level's coset by the recursive solver `cb`, initial invariant tests, and
part-exchange coset restriction.
Includes an adaptation to fully resolved rooted phylogenetic networks
(eNewick in/out).

The package exports the three decisions (`is_isomorphic`, `aut_e_generators`,
`phylo_isomorphic`) with their results, the graph and network types with
their text formats, validators and errors, and two seeded input generators.
Everything else is imported from its module: the layer tower and its lift
in `layers`, its colour solver in `coloraut`, permutations and 2-groups in
`perm`, the one tower call that every decision makes in `core`, the splice
and the mapping check in `graphs`, the network reduction and test mutations
in `phylo`, and the brute-force oracles and benchmark runner in `harness`.
"""

from .core import AutResult, IsoResult, aut_e_generators, is_isomorphic
from .graphs import (
    GraphError,
    GraphFormatError,
    LabeledGraph,
    format_graph_text,
    parse_graph_text,
    validate,
)
from .harness import random_ternary_graph
from .perm import Permutation, cycle_string
from .phylo import (
    NetworkError,
    NewickError,
    PhyloNetwork,
    parse_enewick,
    phylo_isomorphic,
    random_network,
    validate_network,
    write_enewick,
)

__version__ = "0.1.0"

__all__ = [
    "AutResult",
    "GraphError",
    "GraphFormatError",
    "IsoResult",
    "LabeledGraph",
    "NetworkError",
    "NewickError",
    "Permutation",
    "PhyloNetwork",
    "aut_e_generators",
    "cycle_string",
    "format_graph_text",
    "is_isomorphic",
    "parse_enewick",
    "parse_graph_text",
    "phylo_isomorphic",
    "random_network",
    "random_ternary_graph",
    "validate",
    "validate_network",
    "write_enewick",
]
