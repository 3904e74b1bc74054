"""Minimal separators: enumeration and the crossing relation (S7–S8).

This module provides the two access algorithms of the separator-graph
SGR (paper Section 3.1.1):

* :func:`minimal_separators` — ``Ams_V``: a polynomial-delay generator
  of all minimal separators, the variation of Berry–Bordat–Cogis shown
  in the paper's Figure 2.  Separators close to single-node
  neighbourhoods seed a queue; popping a separator S and removing
  ``S ∪ N(x)`` for each ``x ∈ S`` reveals new separators as component
  neighbourhoods.  The delay between results is O(|V|³).
* :func:`are_crossing` — ``Ams_E``: S crosses T iff removing S leaves
  nodes of T in at least two connected components (equivalently, S is
  a (u, v)-separator for some u, v ∈ T).  The relation is symmetric
  (Parra–Scheffler / Kloks–Kratsch–Spinrad).

Both run entirely on the bitmask core: separators are single-int masks
while inside the enumeration (so the seen-set hashes machine ints, not
frozensets), and labels are materialised only when a separator is
yielded.  The mask-level variants (:func:`minimal_separator_masks`,
:func:`are_crossing_masks`) are exposed for the SGR layer, which
interns separator masks and memoizes crossing queries on top of them.
Neither branches on the graph-core tier: on a numpy or native core the
component sweeps they call are that core's own primitives.

Conventions
-----------
For a *disconnected* graph the empty set is, by the paper's
definitions, a minimal (u, v)-separator for u and v in different
components; the enumerator therefore yields ``frozenset()`` exactly
once for disconnected inputs.  The empty separator crosses nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

from repro.graph.components import is_separator
from repro.graph.core import IndexedGraph, iter_bits
from repro.graph.graph import Graph, Node

__all__ = [
    "minimal_separators",
    "minimal_separator_masks",
    "all_minimal_separators",
    "are_crossing",
    "are_crossing_masks",
    "are_parallel",
    "is_minimal_separator",
    "is_pairwise_parallel",
    "count_minimal_separators",
]

Separator = frozenset[Node]


def minimal_separator_masks(graph: Graph) -> Iterator[int]:
    """Enumerate ``MinSep(graph)`` as vertex bitmasks (paper Figure 2).

    The mask-level engine behind :func:`minimal_separators`: every
    separator is produced exactly once, as a single int, with the same
    polynomial delay bound.  Deterministic in label order: candidate
    vertices *and* component starts are visited in label-sorted order,
    so the yield order does not depend on node insertion order.
    """
    core = graph.core
    if not core.alive:
        return

    adj = core.adj
    order = graph.sorted_indices()
    ranks = graph.ranks()

    queue: deque[int] = deque()
    seen: set[int] = set()

    def discover(separator: int) -> None:
        if separator not in seen:
            seen.add(separator)
            queue.append(separator)

    # Seeds: neighbourhoods of the components of g \ N[v] for every v.
    for v in order:
        closed = adj[v] | 1 << v
        for component in core.components(closed, order=order):
            discover(core.neighborhood_of_set(component))

    # The empty set is a minimal separator iff the graph is disconnected,
    # in which case it already appeared as a seed (a foreign component
    # has an empty neighbourhood).  A connected graph never seeds it.
    while queue:
        separator = queue.popleft()
        for x in sorted(iter_bits(separator), key=ranks.__getitem__):
            removed = separator | adj[x]
            for component in core.components(removed, order=order):
                discover(core.neighborhood_of_set(component))
        yield separator


def minimal_separators(graph: Graph) -> Iterator[Separator]:
    """Enumerate ``MinSep(graph)`` with polynomial delay (paper Figure 2).

    Yields each minimal separator exactly once, as a frozenset.  The
    generator is lazy: consuming k results costs O(k · |V|³) in the
    worst case regardless of |MinSep|, which is what makes it usable as
    the node iterator of the separator-graph SGR.
    """
    for mask in minimal_separator_masks(graph):
        yield graph.label_set(mask)


def all_minimal_separators(graph: Graph) -> set[Separator]:
    """Return ``MinSep(graph)`` as a set (drains :func:`minimal_separators`)."""
    return set(minimal_separators(graph))


def count_minimal_separators(graph: Graph) -> int:
    """Return ``|MinSep(graph)|``."""
    return sum(1 for __ in minimal_separator_masks(graph))


def are_crossing_masks(core: IndexedGraph, s: int, t: int) -> bool:
    """Mask-level crossing test: is S a (u, v)-separator for u, v ∈ T?"""
    remainder = t & ~s
    if not remainder:
        return False
    touched = 0
    for component in core.components(s):
        if component & remainder:
            touched += 1
            if touched >= 2:
                return True
    return False


def are_crossing(graph: Graph, s: Iterable[Node], t: Iterable[Node]) -> bool:
    """Return whether minimal separators S and T cross (``S ♮ T``).

    S crosses T iff S is a (u, v)-separator for some u, v ∈ T, i.e.
    the nodes of ``T \\ S`` meet at least two connected components of
    ``g \\ S``.  Symmetric for minimal separators.
    """
    return are_crossing_masks(
        graph.core,
        graph.mask_of(set(s), strict=False),
        graph.mask_of(set(t), strict=False),
    )


def are_parallel(graph: Graph, s: Iterable[Node], t: Iterable[Node]) -> bool:
    """Return whether S and T are parallel (non-crossing)."""
    return not are_crossing(graph, s, t)


def is_pairwise_parallel(graph: Graph, separators: Iterable[Iterable[Node]]) -> bool:
    """Return whether every two separators in the collection are parallel."""
    core = graph.core
    masks = [graph.mask_of(set(sep)) for sep in separators]
    for i, s in enumerate(masks):
        for t in masks[i + 1 :]:
            if are_crossing_masks(core, s, t):
                return False
    return True


def is_minimal_separator(graph: Graph, candidate: Iterable[Node]) -> bool:
    """Return whether ``candidate`` is a minimal separator of ``graph``.

    Uses the classical characterisation: S is a minimal separator iff
    ``g \\ S`` has at least two *full* components (components C with
    ``N(C) = S``).  The empty set qualifies exactly when the graph is
    disconnected.
    """
    return is_separator(graph, candidate)
