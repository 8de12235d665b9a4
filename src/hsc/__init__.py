"""Toolkit for constructing and mechanically verifying subset-regular
hypergraphs that are carried onto their complements by a vertex
permutation.

The package namespace holds the data model, the edge-list I/O and the
construct-and-check entry points; everything else is imported from its
own module (`hsc.construct`, `hsc.hypercore`, `hsc.parity`, `hsc.search`,
`hsc.verify`)."""

from .construct import build_gamma, swap_antimorphism
from .hypercore import Hypergraph, Permutation, read_edge_list, write_edge_list
from .verify import t_subset_regularity, verify_antimorphism, vertex_invariant_k4

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "Permutation",
    "build_gamma",
    "read_edge_list",
    "swap_antimorphism",
    "t_subset_regularity",
    "verify_antimorphism",
    "vertex_invariant_k4",
    "write_edge_list",
]
