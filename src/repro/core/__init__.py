"""The paper's primary contribution: minimal-triangulation enumeration."""

from repro.chordal.triangulate import minimal_triangulation_via
from repro.core.bounds import (
    clique_lower_bound,
    degeneracy_lower_bound,
    min_fill_lower_bound,
    mmd_plus_lower_bound,
    treewidth_lower_bound,
)
from repro.core.enumerate import (
    count_minimal_triangulations,
    enumerate_minimal_triangulations,
    minimal_triangulation,
)
from repro.core.extend import extend_parallel_set
from repro.core.ranked import (
    anytime_min_fill,
    anytime_treewidth,
    best_triangulation,
    enumerate_minimal_triangulations_prioritized,
)
from repro.core.treewidth import min_fill_in_exact, treewidth_exact
from repro.core.triangulation import Triangulation

__all__ = [
    "Triangulation",
    "enumerate_minimal_triangulations",
    "count_minimal_triangulations",
    "minimal_triangulation",
    "extend_parallel_set",
    "enumerate_minimal_triangulations_prioritized",
    "best_triangulation",
    "anytime_treewidth",
    "anytime_min_fill",
    "min_fill_lower_bound",
    "treewidth_lower_bound",
    "degeneracy_lower_bound",
    "mmd_plus_lower_bound",
    "clique_lower_bound",
    "minimal_triangulation_via",
    "treewidth_exact",
    "min_fill_in_exact",
]
