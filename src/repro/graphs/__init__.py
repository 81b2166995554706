"""Graph substrate: edge-coloured multigraphs, PO digraphs, lifts, covers,
factor graphs, neighbourhoods and graph families (paper, Section 3).

Everything is backed by the immutable kernel in
:mod:`repro.graphs.kernel`; :class:`ECGraph` and :class:`POGraph` are thin
mutable views over it (see ``docs/graph_kernel.md``)."""

from .kernel import FrozenKernelError, GraphBuilder, GraphKernel
from .multigraph import ECGraph, Edge, ImproperColoringError
from .digraph import POGraph, DiEdge, ImproperPOColoringError
from .neighborhoods import Ball, ball
from .isomorphism import (
    balls_isomorphic,
    canonical_rooted_form,
    ec_isomorphic,
    rooted_isomorphic,
)
from .cover import TruncatedCover, TruncatedCoverPO, universal_cover_ec, universal_cover_po
from .lifts import (
    bipartite_double_cover,
    is_covering_map_ec,
    is_covering_map_po,
    mix,
    random_two_lift,
    unfold_loop,
)
from .factor import factor_graph, factor_graph_po, stable_partition, stable_partition_po
from .loopy import is_k_loopy, is_loopy, loopiness, min_direct_loops
from .ports import po_double_from_ec, po_from_port_numbering, port_numbering_from_po
from .render import ascii_summary, to_dot, witness_pair_to_dot
from .serialize import (
    from_json,
    graph_from_json,
    graph_to_json,
    to_json,
    witness_step_to_json,
)
from . import families

__all__ = [
    "FrozenKernelError",
    "GraphBuilder",
    "GraphKernel",
    "ECGraph",
    "Edge",
    "ImproperColoringError",
    "POGraph",
    "DiEdge",
    "ImproperPOColoringError",
    "Ball",
    "ball",
    "balls_isomorphic",
    "canonical_rooted_form",
    "ec_isomorphic",
    "rooted_isomorphic",
    "TruncatedCover",
    "TruncatedCoverPO",
    "universal_cover_ec",
    "universal_cover_po",
    "bipartite_double_cover",
    "is_covering_map_ec",
    "is_covering_map_po",
    "mix",
    "random_two_lift",
    "unfold_loop",
    "factor_graph",
    "factor_graph_po",
    "stable_partition",
    "stable_partition_po",
    "is_k_loopy",
    "is_loopy",
    "loopiness",
    "min_direct_loops",
    "po_double_from_ec",
    "po_from_port_numbering",
    "port_numbering_from_po",
    "ascii_summary",
    "to_dot",
    "witness_pair_to_dot",
    "from_json",
    "graph_from_json",
    "graph_to_json",
    "to_json",
    "witness_step_to_json",
    "families",
]
