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
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.sandwich import minimal_triangulation_sandwich
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.graph.graph import Graph, Node

__all__ = ["extend_parallel_set", "minimal_triangulation_via"]

Separator = frozenset[Node]


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


def extend_parallel_set(
    graph: Graph,
    separators: Iterable[Separator],
    triangulator: str | Triangulator = "mcs_m",
    canonical: dict[Separator, Separator] | None = None,
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
    canonical:
        Optional separator → shared-object map; the returned separators
        are taken from it (see
        :func:`~repro.chordal.chordal_separators.minimal_separators_of_chordal`).

    Returns
    -------
    frozenset of frozensets
        ``MinSep(h)`` for a minimal triangulation h of ``g[φ]`` — a
        maximal pairwise-parallel family containing φ (Lemma 4.6).
    """
    # Saturate g[φ] on a scratch bitmask copy: one mask per separator,
    # no label-level edge bookkeeping (the fill is not needed here).
    # The copy keeps the graph-core backend, so a numpy-backed input
    # runs the whole Extend pipeline — saturation, the triangulation
    # heuristic, the clique-forest extraction — on the packed kernels.
    saturated = graph.copy()
    core = saturated.core
    for separator in separators:
        core.saturate(saturated.mask_of(separator))
    triangulated = minimal_triangulation_via(saturated, triangulator)
    # ExtractMinSeps runs at the mask level inside
    # minimal_separators_of_chordal (clique-forest scan, no per-clique
    # label translation); labels materialise once, on the answer
    # boundary.
    return frozenset(minimal_separators_of_chordal(triangulated, canonical))
