"""Clique minimal separator decomposition into atoms (extension).

A *clique minimal separator* of g is a minimal separator that is also a
clique (the ``ClqMinSep`` of the paper's Section 4.1).  Decomposing a
graph on its clique minimal separators yields its *atoms* — the unique
family of maximal connected subgraphs without clique separators
(Tarjan; Leimer; Berry–Pogorelcnik–Simonet).

The decomposition matters for enumeration because minimal
triangulations never add fill across a clique minimal separator:

    MinTri(g)  ≅  Π over atoms A of MinTri(g|A)

— every minimal triangulation of g restricts to a minimal triangulation
of each atom, and every combination of per-atom minimal triangulations
is a minimal triangulation of g (fill-edge sets are disjoint because
atoms pairwise overlap only inside cliques).  The top-level enumerator
exposes this as ``decompose="atoms"``, which can shrink the separator
space exponentially on graphs with clique cut-sets.

Both ``ClqMinSep(g)`` and the atoms come from one pass of the paper's
own toolbox.  By Theorem 4.4 every clique minimal separator of g is a
minimal separator of *every* minimal triangulation h, and a minimal
separator of h that is a clique of g is a clique minimal separator of g
(Theorem 4.1).  The minimal separators of h are the edge labels of its
clique forest, and MCS-M builds that forest while it computes h
(MCS-M+; :func:`~repro.chordal.triangulate.mcs_m_forest`), so one
MCS-M pass gives everything:

* an edge whose label is a clique of g is *cut* — its label is a clique
  minimal separator;
* the cliques joined by every other edge are *merged*, and the union of
  each merged class is one atom (Berry, Pogorelcnik & Simonet, "An
  introduction to clique minimal separator decomposition", Algorithms
  3(2), 2010).

A disconnected graph needs no special case: its clique forest has one
root per component, and roots are never merged.  The cost is one MCS-M
pass, then a mask clique test per forest edge.
"""

from __future__ import annotations

from repro.chordal.triangulate import mcs_m_forest
from repro.graph.core import iter_bits
from repro.graph.graph import Graph, Node

__all__ = ["clique_minimal_separators", "atoms"]


def clique_minimal_separators(graph: Graph) -> set[frozenset[Node]]:
    """Return ``ClqMinSep(graph)``: the minimal separators that are cliques.

    The labels of the cut clique-forest edges of one minimal
    triangulation (see the module docstring).  The empty separator of a
    disconnected graph is excluded — component splitting is handled by
    :func:`atoms`.
    """
    __, separators = _decompose(graph)
    return {graph.label_set(mask) for mask in separators}


def atoms(graph: Graph) -> list[frozenset[Node]]:
    """Return the atoms of ``graph`` as node sets, deterministically ordered.

    An atom is a maximal induced subgraph with no clique minimal
    separator; distinct atoms overlap only in clique separators.  A
    disconnected graph decomposes per component.
    """
    atom_masks, __ = _decompose(graph)
    result = [graph.label_set(mask) for mask in atom_masks]
    result.sort(key=lambda atom: (sorted(map(_node_key, atom))))
    return result


def _decompose(graph: Graph) -> tuple[list[int], set[int]]:
    """``(atom masks, clique minimal separator masks)`` in one pass."""
    cliques, parent, separators = mcs_m_forest(graph)
    adj = graph.core.adj
    # A parent clique precedes its children in the MCS scan, so one
    # forward sweep assigns every clique to the top clique of its atom.
    top = list(range(len(cliques)))
    atom_masks: dict[int, int] = {}
    cuts: set[int] = set()
    for i, (up, separator) in enumerate(zip(parent, separators)):
        if up is not None:
            if all(
                separator & ~(adj[v] | 1 << v) == 0
                for v in iter_bits(separator)
            ):
                cuts.add(separator)
            else:
                top[i] = top[up]
        atom_masks[top[i]] = atom_masks.get(top[i], 0) | cliques[i]
    return list(atom_masks.values()), cuts


def _node_key(node: Node) -> tuple[str, str]:
    return (type(node).__name__, repr(node))
