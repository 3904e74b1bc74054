"""The ``Extend`` procedure (system S15; paper Figure 3).

``Extend(g, φ)`` grows a set φ of pairwise-parallel minimal separators
of g into a *maximal* such set:

1. saturate the separators of φ, producing ``g[φ]``;
2. triangulate ``g[φ]`` with any polynomial-time heuristic
   (``Triangulate``);
3. if the heuristic does not guarantee minimality, shrink the result to
   a minimal triangulation of ``g[φ]`` (``MinTriSandwich``);
4. return the minimal separators of the resulting chordal graph h
   (``ExtractMinSeps``, linear time via the clique forest).

Correctness (paper Lemma 4.6) rests on Heggernes' theorem: a minimal
triangulation of ``g[φ]`` is a minimal triangulation of g, its minimal
separator set is a maximal pairwise-parallel family, and it contains φ.

Extend runs on vertex masks, the separator form of the whole
enumeration pipeline (:func:`extend_separator_masks`): separators go in
and come out as int masks over g's vertex indices, and the empty
separator of a disconnected graph is mask ``0``.
:func:`extend_parallel_set` is the label-level public entry point, a
thin translation around the mask-level function.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.chordal.chordal_separators import chordal_separator_masks
from repro.chordal.sandwich import minimal_triangulation_sandwich
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.graph.graph import Graph, Node

__all__ = ["extend_parallel_set", "minimal_triangulation_via"]

Separator = frozenset[Node]

# ExtractMinSeps is called through this module-level name because the
# benchmark's span tracer (perfbench/spans.py) times the
# ``clique_forest`` layer by wrapping
# ``repro.core.extend.minimal_separators_of_chordal``.
minimal_separators_of_chordal = chordal_separator_masks


def minimal_triangulation_via(
    graph: Graph, triangulator: str | Triangulator
) -> Graph:
    """Return a minimal triangulation of ``graph`` using ``triangulator``.

    Runs the heuristic and, when it does not guarantee minimality,
    applies the sandwich step.  This is steps 1–2 of ``Extend`` for
    φ = ∅ and is also useful standalone.
    """
    method = get_triangulator(triangulator)
    filled, __ = method.triangulate(graph)
    if not method.guarantees_minimal:
        filled, __ = minimal_triangulation_sandwich(graph, filled)
    return filled


def extend_separator_masks(
    graph: Graph,
    separator_masks: Iterable[int],
    triangulator: str | Triangulator = "mcs_m",
) -> set[int]:
    """Extend pairwise-parallel separator masks to a maximal family.

    The mask-level ``Extend``: ``MinSep(h)`` for a minimal
    triangulation h of ``g[φ]``, as vertex masks of ``graph``.  The
    input is trusted, as in the paper.
    """
    # Saturate g[φ] on a scratch copy that keeps the graph-core
    # backend, so a numpy-backed input runs the whole pipeline —
    # saturation, the heuristic, the clique-forest scan — on the
    # packed kernels.
    saturated = graph.copy()
    core = saturated.core
    for mask in separator_masks:
        core.saturate(mask)
    triangulated = minimal_triangulation_via(saturated, triangulator)
    return minimal_separators_of_chordal(triangulated)


def extend_parallel_set(
    graph: Graph,
    separators: Iterable[Separator],
    triangulator: str | Triangulator = "mcs_m",
) -> frozenset[Separator]:
    """Extend pairwise-parallel minimal separators to a maximal family.

    Parameters
    ----------
    graph:
        The base graph g.
    separators:
        A (possibly empty) set φ of pairwise-parallel minimal
        separators of g.  The input is *trusted*, as in the paper: the
        enumeration algorithm only ever passes valid sets.  Use
        :func:`repro.chordal.minimal_separators.is_pairwise_parallel`
        to validate untrusted input.
    triangulator:
        Name or instance of the triangulation heuristic.

    Returns
    -------
    frozenset of frozensets
        ``MinSep(h)`` for a minimal triangulation h of ``g[φ]`` — a
        maximal pairwise-parallel family containing φ (Lemma 4.6).
    """
    masks = extend_separator_masks(
        graph, map(graph.mask_of, separators), triangulator
    )
    return frozenset(map(graph.label_set, masks))
