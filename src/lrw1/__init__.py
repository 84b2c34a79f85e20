"""Certified recognition of graphs of linear rank-width 1.

The package decides whether a graph has linear rank-width at most 1 and
always emits a checkable certificate: a vertex ordering all of whose prefix
cuts have GF(2) rank at most 1, or a minimal induced obstruction.  The
engine is the canonical split decomposition of distance-hereditary graphs;
brute-force oracles validate every component on small instances.
"""

from .dh import (
    PruningSequence,
    PruningStep,
    is_distance_hereditary,
    non_dh_obstruction,
    pruning_sequence,
    replay_pruning,
)
from .gf2 import cutrank_of_cut, cutrank_of_ordering, rank_of_rows
from .graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    local_complement,
    parse_graph,
    pivot,
    serialize_graph,
    to_graph6,
)
from .recognizer import (
    Certificate,
    ObstructionCertificate,
    OrderingCertificate,
    VerificationResult,
    dh_obstruction_catalog,
    extract_lrw1_obstruction,
    ordering_from_path_tree,
    recognize,
    verify_certificate,
)
from .splitdec import (
    Block,
    Decomposition,
    SplitTree,
    canonical_decomposition_dh,
    decomposition_to_dot,
    side_vertices,
    split_tree,
    split_tree_to_dot,
)

__all__ = [
    "Block",
    "Certificate",
    "Decomposition",
    "Graph",
    "ObstructionCertificate",
    "OrderingCertificate",
    "PruningSequence",
    "PruningStep",
    "SplitTree",
    "VerificationResult",
    "canonical_decomposition_dh",
    "canonical_form",
    "connected_components",
    "cutrank_of_cut",
    "cutrank_of_ordering",
    "decomposition_to_dot",
    "dh_obstruction_catalog",
    "extract_lrw1_obstruction",
    "induced_subgraph",
    "is_distance_hereditary",
    "is_isomorphic_small",
    "local_complement",
    "non_dh_obstruction",
    "ordering_from_path_tree",
    "parse_graph",
    "pivot",
    "pruning_sequence",
    "rank_of_rows",
    "recognize",
    "replay_pruning",
    "serialize_graph",
    "side_vertices",
    "split_tree",
    "split_tree_to_dot",
    "to_graph6",
    "verify_certificate",
]
