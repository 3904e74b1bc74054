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
"""

from __future__ import annotations

from repro.chordal.cliques import clique_forest_masks
from repro.graph.graph import Graph, Node

__all__ = ["chordal_separator_masks", "minimal_separators_of_chordal"]


def chordal_separator_masks(graph: Graph) -> tuple[set[int], bool]:
    """``MinSep(graph)`` of a chordal graph, at the mask level.

    Returns ``(separator_masks, include_empty)`` where ``include_empty``
    says whether the empty separator of a disconnected graph belongs in
    the set (the empty mask cannot be distinguished from "no separator"
    inside the mask set itself).  This is the ``ExtractMinSeps`` step of
    ``Extend``: working straight off the clique-forest scan skips the
    label translation of every maximal clique, which the enumeration
    inner loop would otherwise pay once per ``Extend`` call.

    Raises :class:`~repro.errors.NotChordalError` on non-chordal input.
    """
    __, parent, separator_masks, __ = clique_forest_masks(graph)
    separators = {mask for mask in separator_masks if mask is not None}
    component_roots = sum(1 for p in parent if p is None)
    return separators, component_roots > 1


def minimal_separators_of_chordal(
    graph: Graph,
    canonical: dict[frozenset[Node], frozenset[Node]] | None = None,
) -> set[frozenset[Node]]:
    """Return ``MinSep(graph)`` for a chordal ``graph``.

    Raises :class:`~repro.errors.NotChordalError` on non-chordal input.
    A chordal graph has strictly fewer minimal separators than nodes
    (Rose), which is what makes the sets returned here small enough to
    serve as SGR independent sets.

    ``canonical`` maps each separator to one shared object: a separator
    equal to one already in the map is returned as that object (and a
    new one is added), so the results of many calls share storage.  The
    set is built in the same insertion order either way, so it iterates
    identically with or without the map.
    """
    masks, include_empty = chordal_separator_masks(graph)
    label_set = graph.label_set
    if canonical is None:
        separators = {label_set(mask) for mask in masks}
    else:
        share = canonical.setdefault
        separators = {share(s, s) for s in map(label_set, masks)}
    if include_empty:
        separators.add(frozenset())
    return separators
