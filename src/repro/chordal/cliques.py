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
fails loudly rather than silently producing garbage.  MCS-M runs the
same loop (:func:`search_clique_forest`) and so builds the clique
forest of the triangulation it computes.  The test suite cross-checks
the cliques against a Bron–Kerbosch oracle and the separators against
the brute-force definition on hundreds of random chordal graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NotChordalError
from repro.graph.core import MaxWeightBuckets, iter_bits
from repro.graph.graph import Graph, Node

__all__ = [
    "CliqueForest",
    "MaskForest",
    "clique_forest_masks",
    "label_clique_forest",
    "search_clique_forest",
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


#: The mask clique forest ``(clique masks, parent, separator masks)``:
#: ``parent[i]`` and ``separators[i]`` are ``None`` for a root clique.
MaskForest = tuple[list[int], list[int | None], list[int | None]]


def search_clique_forest(graph: Graph, update=None, first: int | None = None):
    """One maximum cardinality search that builds a clique forest.

    Returns ``(fill, order, clique_masks, parent, separator_masks,
    clique_of_idx)`` for the chordal graph h that the search numbers.
    With ``update=None`` this is plain MCS and h is ``graph``.  MCS-M
    passes ``update(core, queue, unnumbered, v)``, its update set when
    v is numbered; members that are not neighbours of v are fill edges
    of h, and ``fill[u]`` collects u's fill neighbours numbered before
    u.  ``order`` is the visit order and ``first`` an optional vertex
    index visited first.

    Either way the visit order is an MCS ordering of h (Berry, Blair,
    Heggernes & Peyton, Algorithmica 39, 2004), so the loop builds h's
    clique forest from ``M(v) = (adj[v] & numbered) | fill[v]``, v's
    numbered h-neighbours, as described above.  Cliques and the visited
    set are masks, so both invariants are single integer comparisons;
    the selection queue is the bit-sliced
    :class:`~repro.graph.core.MaxWeightBuckets` on every kernel tier (a
    bump or a pop is O(log w) mask operations, and only rank ties and
    the fill below walk bits).

    Raises
    ------
    NotChordalError
        If an invariant fails: ``graph`` is not chordal (plain MCS), or
        the update sets do not describe a chordal h.
    """
    core = graph.core
    adj = core.adj
    unnumbered = core.alive
    queue = MaxWeightBuckets(unnumbered, graph.ranks())
    if first is not None:
        queue.bump_mask(1 << first)
    fill = [0] * len(adj)
    # order[k] is the k-th visited vertex and prefix[k] the mask of the
    # first k, so the last-visited member of a visited set is a binary
    # search over prefix masks instead of a per-member scan.
    order: list[int] = []
    prefix = [0]
    numbered = 0
    clique_masks: list[int] = []
    parent: list[int | None] = []
    separator_masks: list[int | None] = []
    clique_of_idx = [0] * len(adj)
    current_clique = -1
    prev_card = -1

    while unnumbered:
        v = queue.pop_max()
        bit = 1 << v
        unnumbered ^= bit
        madj = adj[v] & numbered | fill[v]
        card = madj.bit_count()
        if card == prev_card + 1 and current_clique >= 0:
            # Continuation: v extends the clique under construction.
            if madj != clique_masks[current_clique]:
                raise _not_chordal(graph, update, "clique-continuation")
            clique_masks[current_clique] |= bit
        else:
            # New clique {v} ∪ M(v).
            if card > 0:
                lo, hi = 1, len(order)
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if madj & ~prefix[mid]:
                        lo = mid + 1
                    else:
                        hi = mid
                parent_index = clique_of_idx[order[lo - 1]]
                if madj & ~clique_masks[parent_index]:
                    raise _not_chordal(graph, update, "parent-clique")
                parent.append(parent_index)
                separator_masks.append(madj)
            else:
                parent.append(None)
                separator_masks.append(None)
            clique_masks.append(madj | bit)
            current_clique = len(clique_masks) - 1
        clique_of_idx[v] = current_clique
        numbered |= bit
        order.append(v)
        prefix.append(numbered)
        prev_card = card
        if update is None:
            queue.bump_mask(adj[v] & unnumbered)
            continue
        reached = update(core, queue, unnumbered, v)
        queue.bump_mask(reached)
        for u in iter_bits(reached & ~adj[v]):  # fill edges only
            fill[u] |= bit

    return fill, order, clique_masks, parent, separator_masks, clique_of_idx


def _not_chordal(graph: Graph, update, invariant: str) -> NotChordalError:
    what = "" if update is None else "the triangulation of "
    return NotChordalError(
        f"{what}{graph.summary()} is not chordal (MCS {invariant} invariant failed)"
    )


def clique_forest_masks(
    graph: Graph,
) -> tuple[list[int], list[int | None], list[int | None], list[int]]:
    """The mask-level clique-forest scan: one plain MCS of ``graph``.

    Returns ``(clique_masks, parent, separator_masks, clique_of_idx)``,
    the label-free core of :func:`mcs_clique_forest`.  Raises
    :class:`NotChordalError` exactly when ``graph`` is not chordal.
    """
    return search_clique_forest(graph)[2:]


def label_clique_forest(
    graph: Graph,
    forest: tuple[list[int], list[int | None], list[int | None], list[int]],
) -> CliqueForest:
    """The label-level :class:`CliqueForest` of a mask clique forest.

    ``forest`` is ``(clique_masks, parent, separator_masks,
    clique_of_idx)`` over ``graph``'s vertex indices, as returned by
    :func:`clique_forest_masks`.
    """
    clique_masks, parent, separator_masks, clique_of_idx = forest
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


def mcs_clique_forest(graph: Graph) -> CliqueForest:
    """Build the clique forest of a chordal ``graph`` via one MCS pass.

    A label-level view over :func:`clique_forest_masks`; raises
    :class:`NotChordalError` exactly when the graph is not chordal.
    """
    return label_clique_forest(graph, clique_forest_masks(graph))


def maximal_cliques(graph: Graph) -> list[frozenset[Node]]:
    """Return the maximal cliques of a chordal ``graph`` (MCS order).

    Raises :class:`NotChordalError` on non-chordal input.
    """
    return list(mcs_clique_forest(graph).cliques)


def tree_width(graph: Graph) -> int:
    """Return the treewidth of a *chordal* graph (max clique size − 1)."""
    return mcs_clique_forest(graph).width
