"""Graph substrate: data structure, connectivity, generators and I/O.

The substrate is two-tier: the label-based :class:`Graph` façade over
the integer-indexed bitset :class:`IndexedGraph` core (see
:mod:`repro.graph.core`), with a :class:`NodeInterner` translating user
labels to dense vertex indices at the API boundary.
"""

from repro.graph.components import (
    component_of,
    components_without,
    connected_components,
    full_components,
    is_connected,
    is_separator,
    separates,
)
from repro.graph.core import IndexedGraph, NodeInterner, bit_list, iter_bits
from repro.graph.graph import Edge, Graph, Node, edge_key


def resolve_graph_backend(graph: Graph, backend: str | None = "auto"):
    """Return ``graph`` on the selected core backend.

    ``backend`` is ``"indexed"``, ``"numpy"``, ``"native"`` (compiled C
    kernels, degrading to numpy when the extension cannot be built),
    ``"auto"`` (the packed tier at or above
    :data:`repro.graph.bitset_np.NUMPY_THRESHOLD` nodes, preferring
    native when available) or ``None`` (keep the graph exactly as
    passed).
    """
    if backend is None:
        return graph
    from repro.graph.bitset_np import convert_graph

    return convert_graph(graph, backend)


__all__ = [
    "Graph",
    "Node",
    "Edge",
    "edge_key",
    "IndexedGraph",
    "NodeInterner",
    "iter_bits",
    "bit_list",
    "resolve_graph_backend",
    "connected_components",
    "components_without",
    "component_of",
    "full_components",
    "is_connected",
    "is_separator",
    "separates",
]
