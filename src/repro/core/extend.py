"""The ``Extend`` procedure (system S15; paper Figure 3).

``Extend(g, φ)`` grows a set φ of pairwise-parallel minimal separators
of g into a *maximal* such set:

1. saturate the separators of φ, producing ``g[φ]``;
2. triangulate ``g[φ]`` with any polynomial-time heuristic
   (``Triangulate``);
3. if the heuristic does not guarantee minimality, shrink the result to
   a minimal triangulation of ``g[φ]`` (``MinTriSandwich``);
4. return the minimal separators of the resulting chordal graph h
   (``ExtractMinSeps``), read off h's clique forest.  Steps 2–3 yield
   that forest (:meth:`~repro.chordal.triangulate.Triangulator.clique_forest`):
   MCS-M builds it during its own run, so h is never materialised as a
   graph and never scanned a second time; other heuristics fall back
   to one clique-forest scan of h.

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

from repro.chordal.chordal_separators import forest_separator_masks
from repro.chordal.cliques import MaskForest
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.graph.graph import Graph, Node

__all__ = ["extend_parallel_set"]

Separator = frozenset[Node]


def _triangulated_forest(
    graph: Graph, triangulator: str | Triangulator
) -> MaskForest:
    """Steps 2–3: the mask clique forest of a minimal triangulation h."""
    return get_triangulator(triangulator).clique_forest(graph)


# Extend's two steps are called through these module-level names
# because the benchmark's span tracer (perfbench/spans.py) wraps them:
# its ``triangulate`` span covers building h's clique forest and its
# ``clique_forest`` span covers only the MinSep read-off.  The public
# label-level ``minimal_triangulation_via`` lives in
# repro.chordal.triangulate.
minimal_triangulation_via = _triangulated_forest
minimal_separators_of_chordal = forest_separator_masks


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
    # Saturate g[φ] on a copy of the graph core, which keeps its
    # backend, so a numpy-backed input runs the whole pipeline on the
    # packed kernels; the labels are shared, not copied.
    core = graph.core.copy()
    for mask in separator_masks:
        core.saturate(mask)
    __, parent, separators = minimal_triangulation_via(
        graph.with_core(core), triangulator
    )
    return minimal_separators_of_chordal(parent, separators)


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
