"""pxtmesh: shared mesh protection planning with pre-cross-connected trails."""

from .graph import (
    UNBOUNDED,
    EdgeId,
    Graph,
    GraphError,
    Walk,
    all_shortest_paths,
    classify,
    disjoint,
    distance_sum,
    dump_graph,
    load_graph,
    shortest_path,
)
from .topologies import LARGE_NODE_SETS, TOPOLOGY_NAMES, standard_topology

__version__ = "0.1.0"

__all__ = [
    "UNBOUNDED",
    "EdgeId",
    "Graph",
    "GraphError",
    "Walk",
    "all_shortest_paths",
    "classify",
    "disjoint",
    "distance_sum",
    "dump_graph",
    "load_graph",
    "shortest_path",
    "standard_topology",
    "TOPOLOGY_NAMES",
    "LARGE_NODE_SETS",
    "__version__",
]
