"""Maximal cliques and clique forests of chordal graphs (system S6).

For a chordal graph, a single Maximum Cardinality Search yields, in
linear time, the maximal cliques *and* a clique tree (one tree per
connected component — a clique forest), following Blair–Peyton and
Galinier–Habib–Paul:

* visiting order ``x_1, …, x_n``; ``M(x_i)`` is the set of
  already-visited neighbours of ``x_i``;
* ``x_i`` *continues* the current clique when
  ``|M(x_i)| = |M(x_{i-1})| + 1`` (then ``M(x_i)`` equals the clique
  built so far) and otherwise *starts* a new clique ``{x_i} ∪ M(x_i)``;
* the parent of a new clique is the clique that absorbed the
  last-visited vertex of ``M(x_i)``, and the clique-tree edge label
  (= a minimal separator) is ``M(x_i)``.

The invariants above hold for every MCS execution on a chordal graph;
they are asserted at runtime and a violation raises
:class:`~repro.errors.NotChordalError`, so feeding a non-chordal graph
fails loudly rather than silently producing garbage.  The test suite
cross-checks the cliques against a Bron–Kerbosch oracle and the
separators against the brute-force definition on hundreds of random
chordal graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as _np

from repro.errors import NotChordalError
from repro.graph import bitset_np as _kernel
from repro.graph.core import MaxWeightBuckets, iter_bits
from repro.graph.graph import Graph, Node

__all__ = [
    "CliqueForest",
    "clique_forest_masks",
    "mcs_clique_forest",
    "maximal_cliques",
    "tree_width",
]


@dataclass(frozen=True)
class CliqueForest:
    """A clique forest (one clique tree per connected component).

    Attributes
    ----------
    cliques:
        The maximal cliques, in creation (MCS) order.
    parent:
        ``parent[i]`` is the index of clique ``i``'s parent in its
        clique tree, or ``None`` for the root clique of a component.
    separators:
        ``separators[i]`` is the clique-tree edge label between clique
        ``i`` and its parent (``cliques[i] ∩ cliques[parent[i]]``), or
        ``None`` for roots.  The *set* of non-``None`` labels is
        exactly ``MinSep`` of a connected chordal graph.
    clique_of:
        For every node, the index of the clique it was assigned to
        during the search (the node is a member of that clique).
    """

    cliques: tuple[frozenset[Node], ...]
    parent: tuple[int | None, ...]
    separators: tuple[frozenset[Node] | None, ...]
    clique_of: dict[Node, int] = field(hash=False)

    def edges(self) -> list[tuple[int, int, frozenset[Node]]]:
        """Return the clique-tree edges as ``(child, parent, separator)``."""
        return [
            (i, p, sep)
            for i, (p, sep) in enumerate(zip(self.parent, self.separators))
            if p is not None and sep is not None
        ]

    @property
    def width(self) -> int:
        """Max clique size − 1 (the treewidth of the chordal graph)."""
        if not self.cliques:
            return -1
        return max(len(clique) for clique in self.cliques) - 1


def clique_forest_masks(
    graph: Graph,
) -> tuple[list[int], list[int | None], list[int | None], list[int]]:
    """The mask-level MCS clique-forest scan.

    Returns ``(clique_masks, parent, separator_masks, clique_of_idx)``
    — the label-free core of :func:`mcs_clique_forest`, which the
    ``Extend`` pipeline consumes directly (it only needs separator
    masks, so skipping the label translation of every clique is a
    measurable win per call).

    The search runs on the bitmask core: cliques under construction and
    the visited set are masks, so the continuation and parent-clique
    invariants are single integer comparisons.  On a numpy-backed core
    the selection queue, the weight bumps and the last-visited argmax
    run as packed-kernel reductions; the int-mask structures stay the
    reference path.

    Raises
    ------
    NotChordalError
        If the construction invariants fail, which happens exactly when
        ``graph`` is not chordal.
    """
    core = graph.core
    adj = core.adj
    if not core.alive:
        return [], [], [], []

    ranks = graph.ranks()
    # Unvisited vertices bucketed by weight (= number of visited
    # neighbours); max-weight extraction and weight bumps are mask ops.
    unvisited = core.alive
    matrix = _kernel.packed_view(core)
    if matrix is not None:
        ns = _kernel.kernels_for(core)
        words = matrix.shape[1]
        visit_time = _np.zeros(len(adj), dtype=_np.int64)
        queue = ns.PackedMCSQueue(unvisited, ranks, words)
    else:
        weights = [0] * len(adj)
        visit_time = [0] * len(adj)
        queue = MaxWeightBuckets(unvisited)

    visited = 0
    n_visited = 0
    clique_masks: list[int] = []
    parent: list[int | None] = []
    separator_masks: list[int | None] = []
    clique_of_idx = [0] * len(adj)
    current_clique = -1
    prev_card = -1
    n = core.num_vertices

    while n_visited < n:
        node = (
            queue.pop_max() if matrix is not None else queue.pop_max(ranks)
        )
        bit_node = 1 << node
        unvisited &= ~bit_node
        visited_neighbors = adj[node] & visited
        card = visited_neighbors.bit_count()
        if card == prev_card + 1 and current_clique >= 0:
            # Continuation: node extends the clique under construction.
            if visited_neighbors != clique_masks[current_clique]:
                raise NotChordalError(
                    f"{graph.summary()} is not chordal "
                    "(MCS clique-continuation invariant failed)"
                )
            clique_masks[current_clique] |= 1 << node
        else:
            # New clique {node} ∪ M(node).
            if card > 0:
                if matrix is not None and card >= ns.BATCH_MIN:
                    members = ns.mask_to_indices(visited_neighbors, words)
                    last_visited = int(
                        members[_np.argmax(visit_time[members])]
                    )
                else:
                    last_visited = max(
                        iter_bits(visited_neighbors),
                        key=visit_time.__getitem__,
                    )
                parent_index = clique_of_idx[last_visited]
                if visited_neighbors & ~clique_masks[parent_index]:
                    raise NotChordalError(
                        f"{graph.summary()} is not chordal "
                        "(MCS parent-clique invariant failed)"
                    )
                parent.append(parent_index)
                separator_masks.append(visited_neighbors)
            else:
                parent.append(None)
                separator_masks.append(None)
            clique_masks.append(visited_neighbors | 1 << node)
            current_clique = len(clique_masks) - 1
        clique_of_idx[node] = current_clique
        visit_time[node] = n_visited
        n_visited += 1
        visited |= bit_node
        prev_card = card
        if matrix is not None:
            queue.bump_mask(adj[node] & unvisited)
        else:
            queue.bump_all(adj[node] & unvisited, weights)

    return clique_masks, parent, separator_masks, clique_of_idx


def mcs_clique_forest(graph: Graph) -> CliqueForest:
    """Build the clique forest of a chordal ``graph`` via one MCS pass.

    A label-level view over :func:`clique_forest_masks`; raises
    :class:`NotChordalError` exactly when the graph is not chordal.
    """
    clique_masks, parent, separator_masks, clique_of_idx = (
        clique_forest_masks(graph)
    )
    if not clique_masks:
        return CliqueForest((), (), (), {})
    label_set = graph.label_set
    label_of = graph.label_of
    return CliqueForest(
        tuple(label_set(mask) for mask in clique_masks),
        tuple(parent),
        tuple(
            label_set(mask) if mask is not None else None
            for mask in separator_masks
        ),
        {label_of(i): clique_of_idx[i] for i in iter_bits(graph.core.alive)},
    )


def maximal_cliques(graph: Graph) -> list[frozenset[Node]]:
    """Return the maximal cliques of a chordal ``graph`` (MCS order).

    Raises :class:`NotChordalError` on non-chordal input.
    """
    return list(mcs_clique_forest(graph).cliques)


def tree_width(graph: Graph) -> int:
    """Return the treewidth of a *chordal* graph (max clique size − 1)."""
    return mcs_clique_forest(graph).width
