"""The :class:`Triangulation` result object (system S17).

Enumeration results are wrapped in a small value object carrying the
chordal graph together with the two quality measures the paper's
experiments track:

* **width** — size of the largest clique of the triangulation minus
  one (equals the width of the corresponding tree decompositions);
* **fill** — the number of added edges.

An answer holds h = g + fill as one bitmask core over the base graph's
vertex indices: the engine keeps the core it saturated the answer's
separators on (:meth:`Triangulation.from_separator_masks`), and an
answer built from fill edges builds it on first use.  ``width`` is one
mask-level MCS of that core (the clique forest of Blair & Peyton,
1993); only the int is cached.  The label graph :attr:`graph` is built
only when asked for.

The object also exposes the minimal-separator family that identifies
the triangulation under the Parra–Scheffler bijection, and a
``tree_decomposition()`` convenience producing the canonical proper
tree decomposition (the clique tree).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from repro.chordal.chordal_separators import forest_separator_masks
from repro.chordal.cliques import (
    CliqueForest,
    clique_forest_masks,
    label_clique_forest,
)
from repro.chordal.sandwich import is_minimal_triangulation
from repro.graph.core import IndexedGraph, iter_bits
from repro.graph.graph import Graph, Node, edge_key, sort_edges

__all__ = ["Triangulation"]


class Triangulation:
    """A (minimal) triangulation of a base graph.

    Parameters
    ----------
    base:
        The original graph g.
    fill_edges:
        The edges of ``E(h) \\ E(g)``, canonicalised and sorted.

    Instances compare equal (and hash) by their fill-edge set, which
    identifies the triangulation of a fixed base graph.
    """

    __slots__ = ("_base", "_fill", "_core", "__dict__")

    def __init__(self, base: Graph, fill_edges: tuple[tuple[Node, Node], ...]) -> None:
        self._base = base
        self._fill = tuple(sort_edges(edge_key(u, v) for u, v in fill_edges))
        # h's core over the base's vertex indices; built on first use.
        self._core: IndexedGraph | None = None

    @classmethod
    def from_separator_masks(
        cls, base: Graph, masks: Iterable[int]
    ) -> "Triangulation":
        """``g[φ]``: saturate the separator masks φ on a copy of g's core.

        The saturated core is kept as h's core, so the quality measures
        never rebuild it; the fill is the saturated rows' difference to g's.
        """
        core = base.core.copy()
        members = 0
        for mask in masks:
            core.saturate(mask)
            members |= mask
        h_adj, g_adj = core.adj, base.core.adj
        labels = base.interner.labels_dense
        fill: list[tuple[Node, Node]] = []
        for u in iter_bits(members):
            for v in iter_bits((h_adj[u] & ~g_adj[u]) >> (u + 1)):
                fill.append((labels[u], labels[u + 1 + v]))
        answer = cls(base, tuple(fill))
        answer._core = core
        return answer

    @classmethod
    def from_chordal_supergraph(cls, base: Graph, chordal: Graph) -> "Triangulation":
        """Build from a chordal supergraph h of g (fill = E(h) − E(g))."""
        fill = tuple(
            tuple(edge)
            for edge in (chordal.edge_set() - base.edge_set())
        )
        return cls(base, tuple(edge_key(u, v) for u, v in fill))

    @property
    def base(self) -> Graph:
        """The original (untriangulated) graph g."""
        return self._base

    @property
    def fill_edges(self) -> tuple[tuple[Node, Node], ...]:
        """The added edges, sorted canonically."""
        return self._fill

    @property
    def fill(self) -> int:
        """The *fill* quality measure: number of added edges."""
        return len(self._fill)

    def _chordal(self) -> Graph:
        """h over the base's labels: a read-only view of h's core."""
        core = self._core
        if core is None:
            core = self._base.core.copy()
            index_of = self._base.index_of
            for u, v in self._fill:
                core.add_edge(index_of(u), index_of(v))
            self._core = core
        return self._base.with_core(core)

    @cached_property
    def graph(self) -> Graph:
        """The chordal graph h = g + fill, independent of the base."""
        return self._chordal().copy()

    @cached_property
    def _forest(
        self,
    ) -> tuple[list[int], list[int | None], list[int | None], list[int]]:
        return clique_forest_masks(self._chordal())

    @cached_property
    def clique_forest(self) -> CliqueForest:
        """The clique forest of h (cliques, parents, separators)."""
        return label_clique_forest(self._base, self._forest)

    @cached_property
    def width(self) -> int:
        """The *width* quality measure: max clique size of h minus one."""
        cliques = clique_forest_masks(self._chordal())[0]
        return max((clique.bit_count() for clique in cliques), default=0) - 1

    @cached_property
    def minimal_separators(self) -> frozenset[frozenset[Node]]:
        """``MinSep(h)`` — the maximal pairwise-parallel family for h.

        Under the Parra–Scheffler bijection this family identifies the
        triangulation: ``h = g[MinSep(h)]``.
        """
        __, parent, separator_masks, __ = self._forest
        label_set = self._base.label_set
        return frozenset(
            label_set(mask)
            for mask in forest_separator_masks(parent, separator_masks)
        )

    def is_minimal(self) -> bool:
        """Check minimality from first principles (RTL single-edge test).

        Provided for verification; the enumerator only produces minimal
        triangulations, so this is expected to always return True for
        enumeration output.
        """
        return is_minimal_triangulation(self._base, self.graph)

    def tree_decomposition(self):
        """Return the canonical proper tree decomposition (clique tree) of h.

        The bags are ``MaxClq(h)``; see paper Section 5.  Import is
        deferred to avoid a package cycle.
        """
        from repro.decomposition.clique_tree import clique_tree

        return clique_tree(self.graph)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self._fill == other._fill and self._base == other._base

    def __hash__(self) -> int:
        return hash(self._fill)

    def __repr__(self) -> str:
        return (
            f"Triangulation(width={self.width}, fill={self.fill}, "
            f"base={self._base.summary()!r})"
        )
