"""Succinct Graph Representations (system S12; paper Definitions 1–2).

An SGR describes a graph G(x) that may be exponentially larger than its
representation x.  Access is mediated by two algorithms:

* ``iter_nodes()`` — the node enumerator ``A_V`` (a polynomial-delay
  iterator for *tractably accessible* SGRs);
* ``has_edge(u, v)`` — the edge oracle ``A_E`` (polynomial time).

A *tractable expansion* (Definition 2) additionally bounds every
independent set of G(x) polynomially in |x| and provides a way to grow
a non-maximal independent set.  Here the expansion is exposed as
``extend(independent_set) -> maximal independent set`` — the black-box
procedure ``Extend`` of the enumeration algorithm, which for the
separator-graph SGR wraps an off-the-shelf triangulation heuristic.

:class:`ExplicitSGR` adapts a concrete in-memory graph, which is how
the test-suite validates :func:`repro.sgr.enum_mis.enumerate_maximal_independent_sets`
against brute force.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterator

from repro.errors import NotAnIndependentSetError
from repro.graph.graph import Graph, _sort_nodes

__all__ = ["SuccinctGraphRepresentation", "ExplicitSGR"]

SGRNode = Hashable


class SuccinctGraphRepresentation(ABC):
    """Abstract base for tractably accessible SGRs with tractable expansion.

    Node objects must be hashable; they are stored in the enumeration
    algorithm's bookkeeping sets.
    """

    @abstractmethod
    def iter_nodes(self) -> Iterator[SGRNode]:
        """Enumerate the nodes of G(x) (the algorithm ``A_V``).

        Each node must be produced exactly once.  For the complexity
        guarantees of the paper this iterator must have polynomial
        delay, but the enumeration algorithm is correct for any
        exhaustive iterator.
        """

    @abstractmethod
    def has_edge(self, u: SGRNode, v: SGRNode) -> bool:
        """Decide adjacency of two nodes of G(x) (the algorithm ``A_E``)."""

    def has_edges_batch(self, v: SGRNode, nodes: list[SGRNode]) -> list[bool]:
        """``[has_edge(v, u) for u in nodes]``; an SGR may answer it at once."""
        return [self.has_edge(v, u) for u in nodes]

    @abstractmethod
    def extend(self, independent_set: frozenset[SGRNode]) -> frozenset[SGRNode]:
        """Extend an independent set of G(x) into a maximal one.

        Must return a superset of ``independent_set`` that is a maximal
        independent set of G(x).  Corresponds to the tractable
        expansion of Definition 2 (applied to completion rather than
        one node at a time).
        """

    def is_independent(self, nodes: frozenset[SGRNode]) -> bool:
        """Return whether ``nodes`` is an independent set of G(x).

        Quadratic in |nodes| via the edge oracle; available to
        implementations for input validation.
        """
        node_list = list(nodes)
        for i, u in enumerate(node_list):
            for v in node_list[i + 1 :]:
                if self.has_edge(u, v):
                    return False
        return True


class ExplicitSGR(SuccinctGraphRepresentation):
    """An SGR wrapping a concrete :class:`~repro.graph.graph.Graph`.

    ``extend`` grows the given set greedily in sorted node order, which
    is a valid tractable expansion for any finite graph.  Useful for
    testing and for small solution spaces.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._nodes = _sort_nodes(graph.node_set())

    def iter_nodes(self) -> Iterator[SGRNode]:
        return iter(self._nodes)

    def has_edge(self, u: SGRNode, v: SGRNode) -> bool:
        return self._graph.has_edge(u, v)

    def extend(self, independent_set: frozenset[SGRNode]) -> frozenset[SGRNode]:
        if not self._graph.is_independent_set(independent_set):
            raise NotAnIndependentSetError(
                f"{sorted(map(repr, independent_set))} is not independent"
            )
        result = set(independent_set)
        for node in self._nodes:
            if node in result:
                continue
            if not any(self._graph.has_edge(node, member) for member in result):
                result.add(node)
        return frozenset(result)
