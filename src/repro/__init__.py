"""repro — enumerating minimal triangulations and proper tree decompositions.

A from-scratch Python implementation of

    Nofar Carmeli, Batya Kenig, Benny Kimelfeld, Markus Kröll.
    "Efficiently Enumerating Minimal Triangulations." PODS 2017.

The headline entry points:

>>> from repro import Graph, enumerate_minimal_triangulations
>>> square = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
>>> sorted(t.fill_edges for t in enumerate_minimal_triangulations(square))
[((1, 3),), ((2, 4),)]

See :func:`enumerate_proper_tree_decompositions` for the tree
decomposition view, and the subpackages for the individual substrates
(graphs, chordal-graph theory, SGRs, decompositions, workloads and
experiment harnesses).
"""

from repro.chordal.atoms import atoms, clique_minimal_separators
from repro.chordal.minimal_separators import (
    all_minimal_separators,
    are_crossing,
    are_parallel,
    is_minimal_separator,
    minimal_separators,
)
from repro.chordal.peo import is_chordal
from repro.chordal.sandwich import (
    is_minimal_triangulation,
    minimal_triangulation_sandwich,
)
from repro.chordal.triangulate import (
    Triangulator,
    available_triangulators,
    get_triangulator,
    minimal_triangulation_via,
    register_triangulator,
)
from repro.core.enumerate import (
    count_minimal_triangulations,
    enumerate_minimal_triangulations,
    minimal_triangulation,
)
from repro.core.extend import extend_parallel_set
from repro.core.ranked import (
    best_triangulation,
    enumerate_minimal_triangulations_prioritized,
)
from repro.core.treewidth import min_fill_in_exact, treewidth_exact
from repro.core.triangulation import Triangulation
from repro.decomposition.proper import (
    enumerate_proper_tree_decompositions,
    tree_decompositions_of_triangulation,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine import (
    EnumerationEngine,
    EnumerationJob,
    EnumerationResult,
    available_backends,
)
from repro.graph import resolve_graph_backend
from repro.graph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.sgr.base import ExplicitSGR, SuccinctGraphRepresentation
from repro.sgr.enum_mis import (
    EnumMISStatistics,
    enumerate_maximal_independent_sets,
    merge_statistics,
)
from repro.sgr.separator_graph import MinimalSeparatorSGR

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph
    "Graph",
    "resolve_graph_backend",
    # chordality / separators
    "is_chordal",
    "minimal_separators",
    "all_minimal_separators",
    "is_minimal_separator",
    "are_crossing",
    "are_parallel",
    "is_minimal_triangulation",
    "minimal_triangulation_sandwich",
    # triangulators
    "Triangulator",
    "available_triangulators",
    "get_triangulator",
    "register_triangulator",
    # core enumeration
    "Triangulation",
    "enumerate_minimal_triangulations",
    "count_minimal_triangulations",
    "minimal_triangulation",
    "extend_parallel_set",
    "enumerate_minimal_triangulations_prioritized",
    "best_triangulation",
    "atoms",
    "clique_minimal_separators",
    "Hypergraph",
    "minimal_triangulation_via",
    "treewidth_exact",
    "min_fill_in_exact",
    # SGR framework
    "SuccinctGraphRepresentation",
    "ExplicitSGR",
    "MinimalSeparatorSGR",
    "enumerate_maximal_independent_sets",
    "EnumMISStatistics",
    "merge_statistics",
    # enumeration engine
    "EnumerationEngine",
    "EnumerationJob",
    "EnumerationResult",
    "available_backends",
    # tree decompositions
    "TreeDecomposition",
    "enumerate_proper_tree_decompositions",
    "tree_decompositions_of_triangulation",
]
