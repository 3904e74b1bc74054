"""Minimal separators of a chordal graph in (near-)linear time (S9).

Kumar and Madhavan showed that the minimal separators of a chordal
graph can be computed in linear time; the paper's ``Extend`` uses this
as its final step (``ExtractMinSeps``).  We realise the same bound via
the clique forest: by the classical clique-tree theorem, the minimal
separators of a connected chordal graph are exactly the labels
``K_i ∩ K_j`` of the clique-tree edges, and the MCS construction of
:func:`repro.chordal.cliques.mcs_clique_forest` produces those labels
directly.

By the paper's definitions the empty set is additionally a minimal
separator of every *disconnected* graph, so it is included in that
case, keeping this function consistent with the general-purpose
enumerator in :mod:`repro.chordal.minimal_separators`.

The read-off, :func:`forest_separator_masks`, takes any mask clique
forest; ``Extend`` feeds it the forest MCS-M builds while it
triangulates, so h is never scanned a second time.
"""

from __future__ import annotations

from repro.chordal.cliques import clique_forest_masks
from repro.graph.graph import Graph, Node

__all__ = [
    "chordal_separator_masks",
    "forest_separator_masks",
    "minimal_separators_of_chordal",
]


def forest_separator_masks(
    parent: list[int | None], separator_masks: list[int | None]
) -> set[int]:
    """``MinSep(h)`` read off a mask clique forest of a chordal graph h.

    The tree edge labels, plus mask ``0`` (the empty separator) when
    the forest has more than one root, i.e. h is disconnected.  This is
    the ``ExtractMinSeps`` step of ``Extend``.
    """
    separators = {mask for mask in separator_masks if mask is not None}
    if sum(1 for p in parent if p is None) > 1:
        separators.add(0)
    return separators


def chordal_separator_masks(graph: Graph) -> set[int]:
    """``MinSep(graph)`` of a chordal graph, as vertex masks.

    The empty separator of a disconnected graph is mask ``0``.  One
    clique-forest scan, then :func:`forest_separator_masks`, with no
    label translation.

    Raises :class:`~repro.errors.NotChordalError` on non-chordal input.
    """
    __, parent, separator_masks, __ = clique_forest_masks(graph)
    return forest_separator_masks(parent, separator_masks)


def minimal_separators_of_chordal(graph: Graph) -> set[frozenset[Node]]:
    """Return ``MinSep(graph)`` for a chordal ``graph``.

    Raises :class:`~repro.errors.NotChordalError` on non-chordal input.
    A chordal graph has strictly fewer minimal separators than nodes
    (Rose), which is what makes the sets returned here small enough to
    serve as SGR independent sets.
    """
    label_set = graph.label_set
    return {label_set(mask) for mask in chordal_separator_masks(graph)}
