"""A small, deterministic graph type over an integer-indexed bitset core.

This module implements the graph substrate used throughout the library
(system S1 of DESIGN.md).  The paper works exclusively with finite,
simple, undirected graphs, so that is exactly what :class:`Graph`
models:

* nodes are arbitrary hashable, *orderable* objects (ints and strings
  in practice — orderability gives deterministic iteration);
* edges are unordered pairs of distinct nodes;
* no self loops, no parallel edges.

Design notes
------------
The representation is two-tier.  The label-facing :class:`Graph` is a
thin façade that validates input, keeps iteration deterministic and
translates node labels to dense vertex indices through a
:class:`~repro.graph.core.NodeInterner` exactly once at the API
boundary.  All structure lives in the inner
:class:`~repro.graph.core.IndexedGraph`, which stores each adjacency as
a single Python-int *bitmask*; neighbourhood unions, clique tests,
saturation and component searches are then wide integer operations that
CPython executes in C, instead of per-node hash lookups.  The hot
algorithm layers (connectivity, minimal separators, triangulation
heuristics, the separator-graph SGR) reach through the façade via
:attr:`Graph.core` / :meth:`Graph.mask_of` / :meth:`Graph.label_set`
and run entirely on indices and masks, converting back to labels only
when results are handed to the user.

Iteration order over nodes, neighbours and edges is always sorted by
label, which makes every algorithm in the library deterministic without
sprinkling ``sorted`` calls everywhere; the façade caches the
label-sorted index order (and its inverse, :meth:`Graph.ranks`) so
index-level algorithms can tie-break deterministically at integer
speed.  ``num_edges`` is maintained incrementally by the core, so
reading it is O(1).

``Graph`` is mutable; the algorithms that must not mutate their input
copy first (``copy`` is O(V) mask copies).  Equality compares node and
edge sets, which is what graph identity means everywhere in the paper
(``V(g) = V(h)`` and ``E(g) = E(h)``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from repro.errors import EdgeNotFoundError, NodeNotFoundError, SelfLoopError
from repro.graph.core import IndexedGraph, NodeInterner, bit_list, iter_bits

Node = Hashable
Edge = tuple[Any, Any]

__all__ = ["Graph", "Node", "Edge", "edge_key"]


def edge_key(u: Node, v: Node) -> tuple[Node, Node]:
    """Return the canonical (sorted) tuple representation of edge {u, v}.

    The library stores and reports edges as sorted 2-tuples so that a
    fill edge computed by two different algorithms compares equal.
    """
    return (u, v) if _lt(u, v) else (v, u)


def _lt(a: Node, b: Node) -> bool:
    """Order two nodes, falling back to a type-aware order for mixed types."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return (type(a).__name__, repr(a)) < (type(b).__name__, repr(b))


def _sort_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes deterministically even when types are mixed."""
    try:
        return sorted(nodes)  # type: ignore[type-var]
    except TypeError:
        return sorted(nodes, key=lambda n: (type(n).__name__, repr(n)))


def sort_edges(edges: Iterable[tuple[Node, Node]]) -> list[tuple[Node, Node]]:
    """Sort canonical edge tuples, tolerating incomparable node types."""
    edge_list = list(edges)
    try:
        return sorted(edge_list)
    except TypeError:
        return sorted(
            edge_list,
            key=lambda e: tuple((type(n).__name__, repr(n)) for n in e),
        )


class Graph:
    """A finite, simple, undirected graph with deterministic iteration.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of initial edges, given as 2-element iterables.
        Endpoints are added as nodes automatically.

    Examples
    --------
    >>> g = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
    >>> g.num_nodes, g.num_edges
    (4, 4)
    >>> g.has_edge(2, 1)
    True
    >>> sorted(g.neighbors(1))
    [2, 4]
    """

    __slots__ = ("_core", "_interner", "_sorted_idx", "_ranks")

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[Iterable[Node]] = (),
    ) -> None:
        self._core = IndexedGraph()
        self._interner = NodeInterner()
        self._sorted_idx: list[int] | None = None
        self._ranks: list[int] | None = None
        for node in nodes:
            self.add_node(node)
        for edge in edges:
            u, v = edge
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # The index layer (used by the algorithm modules)
    # ------------------------------------------------------------------

    @property
    def core(self) -> IndexedGraph:
        """The integer-indexed bitset core holding the structure."""
        return self._core

    @property
    def interner(self) -> NodeInterner:
        """The label ↔ index interner of this graph."""
        return self._interner

    def index_of(self, node: Node) -> int:
        """Return the vertex index of ``node`` (NodeNotFoundError if absent)."""
        index = self._interner.get(node)
        if index is None:
            raise NodeNotFoundError(node)
        return index

    def label_of(self, index: int) -> Node:
        """Return the node label interned at vertex ``index``."""
        return self._interner.label_of(index)

    def mask_of(self, nodes: Iterable[Node], strict: bool = True) -> int:
        """Return the bitmask of ``nodes``.

        With ``strict`` (default) an absent node raises
        :class:`NodeNotFoundError`; otherwise it is silently skipped.
        """
        mask = 0
        get = self._interner.get
        for node in nodes:
            index = get(node)
            if index is None:
                if strict:
                    raise NodeNotFoundError(node)
                continue
            mask |= 1 << index
        return mask

    def label_set(self, mask: int) -> frozenset[Node]:
        """Return the labels of the set bits of ``mask`` as a frozenset."""
        label_of = self._interner.label_of
        return frozenset(label_of(i) for i in iter_bits(mask))

    def sorted_indices(self) -> list[int]:
        """Return the live vertex indices in label-sorted order (cached)."""
        cache = self._sorted_idx
        if cache is None:
            pairs = list(self._interner.items())
            try:
                pairs.sort(key=lambda item: item[0])  # type: ignore[arg-type,return-value]
            except TypeError:
                pairs.sort(key=lambda item: (type(item[0]).__name__, repr(item[0])))
            cache = [index for __, index in pairs]
            self._sorted_idx = cache
            ranks = [0] * len(self._core.adj)
            for rank, index in enumerate(cache):
                ranks[index] = rank
            self._ranks = ranks
        return cache

    def ranks(self) -> list[int]:
        """Return ``rank[index]`` = position of index in label-sorted order."""
        if self._sorted_idx is None:
            self.sorted_indices()
        assert self._ranks is not None
        return self._ranks

    def _invalidate_order(self) -> None:
        self._sorted_idx = None
        self._ranks = None

    @classmethod
    def _from_parts(cls, core: IndexedGraph, interner: NodeInterner) -> "Graph":
        g = Graph.__new__(Graph)
        g._core = core
        g._interner = interner
        g._sorted_idx = None
        g._ranks = None
        return g

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, other: "Graph") -> "Graph":
        """Deep-copy constructor (alias of :meth:`copy` usable on the class)."""
        return other.copy()

    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        g = Graph._from_parts(self._core.copy(), self._interner.copy())
        g._sorted_idx = self._sorted_idx
        g._ranks = self._ranks
        return g

    def with_core(self, core: IndexedGraph) -> "Graph":
        """A graph over ``core`` sharing this graph's labels.

        ``core`` must have the same vertex set.  The interner and the
        label order are shared, not copied, so the result is a
        working copy: edges may change on it, nodes must not.
        """
        g = Graph._from_parts(core, self._interner)
        g._ranks = self.ranks()
        g._sorted_idx = self._sorted_idx
        return g

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (a no-op if already present)."""
        if node not in self._interner:
            self._core.add_vertex(self._interner.intern(node))
            self._invalidate_order()

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge {u, v}, adding endpoints as needed.

        Raises
        ------
        SelfLoopError
            If ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_node(u)
        self.add_node(v)
        interner = self._interner
        self._core.add_edge(interner.index(u), interner.index(v))

    def add_edges(self, edges: Iterable[Iterable[Node]]) -> None:
        """Add every edge in ``edges``."""
        for edge in edges:
            u, v = edge
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        index = self._interner.get(node)
        if index is None:
            raise NodeNotFoundError(node)
        self._core.remove_vertex(index)
        self._interner.release(node)
        self._invalidate_order()

    def remove_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove every node in ``nodes`` (each must be present)."""
        for node in list(nodes):
            self.remove_node(node)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge {u, v}, keeping both endpoints.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        interner = self._interner
        iu, iv = interner.get(u), interner.get(v)
        if iu is None or iv is None or not self._core.remove_edge(iu, iv):
            raise EdgeNotFoundError(u, v)

    def remove_edges(self, edges: Iterable[Iterable[Node]]) -> None:
        """Remove every edge in ``edges`` (each must be present)."""
        for edge in list(edges):
            u, v = edge
            self.remove_edge(u, v)

    def saturate(self, nodes: Iterable[Node]) -> list[tuple[Node, Node]]:
        """Connect every non-adjacent pair in ``nodes``; return the new edges.

        This is the *saturation* operation of the paper (Section 2.1):
        after the call, ``nodes`` forms a clique.  The returned list
        contains the edges that were actually added, as canonical
        sorted tuples, so callers can track fill.

        Raises
        ------
        NodeNotFoundError
            If any node is absent from the graph.
        """
        mask = self.mask_of(set(nodes))
        core = self._core
        ranks = self.ranks()
        members = sorted(bit_list(mask), key=ranks.__getitem__)
        label_of = self._interner.label_of
        added: list[tuple[Node, Node]] = []
        for i, iu in enumerate(members):
            adj_u = core.adj[iu]
            for iv in members[i + 1 :]:
                if not adj_u >> iv & 1:
                    core.add_edge(iu, iv)
                    added.append((label_of(iu), label_of(iv)))
        return added

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes, |V(g)|."""
        return len(self._interner)

    @property
    def num_edges(self) -> int:
        """Number of edges, |E(g)| (an O(1) counter read)."""
        return self._core.num_edges

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._interner

    def __contains__(self, node: Node) -> bool:
        return node in self._interner

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the edge {u, v} is in the graph."""
        interner = self._interner
        iu = interner.get(u)
        if iu is None:
            return False
        iv = interner.get(v)
        return iv is not None and bool(self._core.adj[iu] >> iv & 1)

    def nodes(self) -> list[Node]:
        """Return the nodes in sorted order."""
        label_of = self._interner.label_of
        return [label_of(i) for i in self.sorted_indices()]

    def node_set(self) -> frozenset[Node]:
        """Return the node set as a frozenset."""
        return frozenset(self._interner)

    def edges(self) -> list[tuple[Node, Node]]:
        """Return all edges as canonical sorted tuples, in sorted order."""
        core = self._core
        ranks = self.ranks()
        label_of = self._interner.label_of
        result: list[tuple[Node, Node]] = []
        for iu in self.sorted_indices():
            rank_u = ranks[iu]
            later = sorted(
                (iv for iv in bit_list(core.adj[iu]) if ranks[iv] > rank_u),
                key=ranks.__getitem__,
            )
            label_u = label_of(iu)
            for iv in later:
                result.append((label_u, label_of(iv)))
        return result

    def edge_set(self) -> frozenset[frozenset[Node]]:
        """Return the edge set as a frozenset of 2-element frozensets."""
        label_of = self._interner.label_of
        return frozenset(
            frozenset((label_of(u), label_of(v)))
            for u, v in self._core.edge_pairs()
        )

    def neighbors(self, node: Node) -> set[Node]:
        """Return a *copy* of the neighbour set N(node).

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        label_of = self._interner.label_of
        return {
            label_of(i) for i in iter_bits(self._core.adj[self.index_of(node)])
        }

    def adjacency(self, node: Node) -> frozenset[Node]:
        """Return the neighbour set as a frozenset."""
        return frozenset(self.neighbors(node))

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        return self._core.adj[self.index_of(node)].bit_count()

    def neighborhood_of_set(self, nodes: Iterable[Node]) -> set[Node]:
        """Return N(U): neighbours of any node of U, excluding U itself.

        This is the ``N(U)`` of the paper's Section 4.2.
        """
        mask = self.mask_of(set(nodes))
        label_of = self._interner.label_of
        return {
            label_of(i) for i in iter_bits(self._core.neighborhood_of_set(mask))
        }

    def closed_neighborhood(self, node: Node) -> set[Node]:
        """Return N[node] = N(node) ∪ {node}."""
        closed = self.neighbors(node)
        closed.add(node)
        return closed

    def is_clique(self, nodes: Iterable[Node]) -> bool:
        """Return whether ``nodes`` induces a clique.

        Nodes absent from the graph raise :class:`NodeNotFoundError`.
        """
        return self._core.is_clique(self.mask_of(set(nodes)))

    def is_independent_set(self, nodes: Iterable[Node]) -> bool:
        """Return whether ``nodes`` is an independent set of this graph."""
        return self._core.is_independent_set(self.mask_of(set(nodes)))

    def missing_edges(self, nodes: Iterable[Node] | None = None) -> list[Edge]:
        """Return the non-edges among ``nodes`` (default: all nodes).

        The result is the list of canonical tuples whose addition would
        saturate the set — i.e. the *fill* required to make it a clique.
        """
        if nodes is not None:
            mask = self.mask_of(set(nodes))
        else:
            mask = self._core.alive
        core = self._core
        ranks = self.ranks()
        members = sorted(bit_list(mask), key=ranks.__getitem__)
        label_of = self._interner.label_of
        missing: list[Edge] = []
        for i, iu in enumerate(members):
            adj_u = core.adj[iu]
            for iv in members[i + 1 :]:
                if not adj_u >> iv & 1:
                    missing.append((label_of(iu), label_of(iv)))
        return missing

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes`` (``g|U`` in the paper)."""
        keep = self.mask_of(set(nodes))
        return self._restricted(keep)

    def without_nodes(self, nodes: Iterable[Node]) -> "Graph":
        """Return ``g \\ U``: the graph with the nodes of U removed."""
        drop = self.mask_of(set(nodes), strict=False)
        return self._restricted(self._core.alive & ~drop)

    def _restricted(self, keep: int) -> "Graph":
        interner = NodeInterner.from_dense(self._interner.labels_dense, keep)
        return Graph._from_parts(self._core.subgraph(keep), interner)

    def saturated(self, node_sets: Iterable[Iterable[Node]]) -> "Graph":
        """Return a copy with every set in ``node_sets`` saturated.

        This implements the paper's ``g[φ]`` when ``node_sets`` is a set
        of (parallel) minimal separators, and ``saturate(g, d)`` when it
        is the bags of a tree decomposition.
        """
        g = self.copy()
        for node_set in node_sets:
            g._core.saturate(g.mask_of(set(node_set)))
        return g

    def complement(self) -> "Graph":
        """Return the complement graph on the same node set."""
        return Graph._from_parts(self._core.complement(), self._interner.copy())

    def relabeled(self, mapping: dict[Node, Node]) -> "Graph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes missing from ``mapping`` keep their name.  The mapping
        must be injective on the node set.
        """
        return Graph._from_parts(
            self._core.copy(), self._interner.relabeled(mapping)
        )

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._interner)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._core.num_edges != other._core.num_edges:
            return False
        if self._interner.index_map == other._interner.index_map:
            # Same label → index assignment: compare masks directly.
            mine, theirs = self._core.adj, other._core.adj
            return all(mine[i] == theirs[i] for i in iter_bits(self._core.alive))
        if self.node_set() != other.node_set():
            return False
        other_index = other._interner.index
        translate = {
            index: other_index(label) for label, index in self._interner.items()
        }
        theirs = other._core.adj
        for label, index in self._interner.items():
            expected = 0
            for i in iter_bits(self._core.adj[index]):
                expected |= 1 << translate[i]
            if expected != theirs[translate[index]]:
                return False
        return True

    def __hash__(self) -> int:
        # Mutable, but hashing by identity-free content is useful for the
        # enumeration bookkeeping where graphs are treated as values and
        # never mutated after being handed out.
        return hash((self.node_set(), self.edge_set()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def summary(self) -> str:
        """Return a short human-readable description."""
        return f"graph with {self.num_nodes} nodes and {self.num_edges} edges"
