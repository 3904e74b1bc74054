"""Integer-indexed bitset graph core (the fast tier of the substrate).

This module is the performance engine behind :class:`repro.graph.graph.Graph`.
It deliberately knows nothing about user-facing node labels:

* :class:`IndexedGraph` works on dense vertex indices ``0 .. n-1`` and
  stores each adjacency as a single Python-int *bitmask* (bit ``j`` of
  ``adj[i]`` set iff ``{i, j}`` is an edge).  Set-algebraic graph
  operations — neighbourhood of a set, clique tests, saturation,
  connected components — become a handful of wide integer operations,
  and CPython executes those in C over whole machine words instead of
  hashing one node at a time.
* :class:`NodeInterner` maps arbitrary hashable user labels to vertex
  indices (and back) at the API boundary, so every label is hashed
  exactly once on the way in and algorithms above the boundary run on
  ints and masks only.

Conventions
-----------
A *mask* is a non-negative int whose set bits are vertex indices.  The
set of live vertices is the mask :attr:`IndexedGraph.alive`; removal
frees a slot for reuse (the interner hands freed slots out again), and
all operations ignore dead slots.  ``IndexedGraph`` performs no label
bookkeeping and no validation beyond what is needed for internal
consistency — the façade validates at the boundary.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

__all__ = [
    "IndexedGraph",
    "NodeInterner",
    "MaxWeightBuckets",
    "iter_bits",
    "bit_list",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """Return the indices of the set bits of ``mask`` as an ascending list."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


class NodeInterner:
    """A bijection between user node labels and dense vertex indices.

    Labels are assigned indices on first :meth:`intern`; releasing a
    label frees its index for reuse so long-lived mutable graphs do not
    leak slots.  The interner never compares labels with ``<`` — only
    hashing is required — which keeps mixed int/str node sets working.
    """

    __slots__ = ("_index", "_labels", "_free")

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        self._free: list[int] = []

    def intern(self, label: Hashable) -> int:
        """Return the index for ``label``, assigning a fresh one if new."""
        index = self._index.get(label)
        if index is None:
            if self._free:
                index = self._free.pop()
                self._labels[index] = label
            else:
                index = len(self._labels)
                self._labels.append(label)
            self._index[label] = index
        return index

    def index(self, label: Hashable) -> int:
        """Return the index of an interned ``label`` (KeyError if absent)."""
        return self._index[label]

    def get(self, label: Hashable) -> int | None:
        """Return the index of ``label`` or ``None`` if not interned."""
        return self._index.get(label)

    def release(self, label: Hashable) -> int:
        """Forget ``label`` and recycle its index; return the freed index."""
        index = self._index.pop(label)
        self._labels[index] = None
        self._free.append(index)
        return index

    def label_of(self, index: int) -> Hashable:
        """Return the label interned at ``index``."""
        return self._labels[index]

    def labels_of(self, mask: int) -> list[Hashable]:
        """Return the labels of the set bits of ``mask`` (index order)."""
        labels = self._labels
        return [labels[i] for i in iter_bits(mask)]

    def copy(self) -> "NodeInterner":
        """Return an independent copy preserving every index assignment."""
        clone = NodeInterner.__new__(NodeInterner)
        clone._index = dict(self._index)
        clone._labels = list(self._labels)
        clone._free = list(self._free)
        return clone

    @classmethod
    def from_dense(
        cls, labels: list[Hashable], live_mask: int
    ) -> "NodeInterner":
        """Rebuild an interner from a dense ``index → label`` list.

        ``labels[i]`` is the label at slot ``i`` for every set bit of
        ``live_mask``; dead slots are recycled as free.  This is the
        inverse of reading :attr:`labels_dense`, and is how worker
        processes of the sharded enumeration engine reconstruct a graph
        with *identical* index assignments (so vertex bitmasks computed
        by the coordinator mean the same thing in every worker).
        """
        interner = cls.__new__(cls)
        interner._labels = list(labels)
        interner._index = {}
        interner._free = []
        for i in range(len(interner._labels)):
            if live_mask >> i & 1:
                interner._index[interner._labels[i]] = i
            else:
                interner._labels[i] = None
                interner._free.append(i)
        return interner

    @property
    def labels_dense(self) -> list[Hashable]:
        """The dense ``index → label`` list (``None`` at dead slots)."""
        return list(self._labels)

    def relabeled(self, mapping: dict) -> "NodeInterner":
        """Return a copy with each live label renamed through ``mapping``.

        Labels missing from ``mapping`` keep their name; the renaming
        must be injective on the live label set.
        """
        clone = NodeInterner.__new__(NodeInterner)
        clone._labels = list(self._labels)
        clone._free = list(self._free)
        clone._index = {}
        for label, index in self._index.items():
            new_label = mapping.get(label, label)
            if new_label in clone._index:
                raise ValueError(
                    "relabeling mapping is not injective on the node set"
                )
            clone._index[new_label] = index
            clone._labels[index] = new_label
        return clone

    @property
    def index_map(self) -> dict[Hashable, int]:
        """The live label → index mapping (treat as read-only)."""
        return self._index

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    def items(self) -> Iterator[tuple[Hashable, int]]:
        """Iterate ``(label, index)`` pairs in interning order."""
        return iter(self._index.items())


class MaxWeightBuckets:
    """The MCS selection queue of every kernel tier: bit-sliced weights.

    ``planes[k]`` is the mask of vertices whose weight has bit ``k``
    set, ``queued`` the mask of vertices not yet popped.  A bump is a
    ripple-carry add of the update set over the planes, O(log w) wide
    integer operations however many members it has; a pop narrows
    ``queued`` from the top plane down, then breaks ties by smallest
    label rank; :meth:`levels` splits ``avail`` plane by plane.  Every
    MCS-family search builds one directly, whatever the graph core:
    its steps cost O(log w) wide-int operations at any graph size, so
    one queue serves every tier.
    """

    __slots__ = ("planes", "queued", "_ranks", "_index_order")

    def __init__(self, initial_mask: int, ranks: list[int]) -> None:
        self.planes: list[int] = []
        self.queued = initial_mask
        self._ranks = ranks
        # Sorted-order interning: the lowest tied bit has the least rank.
        self._index_order = ranks == sorted(ranks)

    @property
    def weights(self) -> list[int]:
        """Every vertex's weight, read off the planes."""
        return [
            sum((plane >> i & 1) << k for k, plane in enumerate(self.planes))
            for i in range(len(self._ranks))
        ]

    def pop_max(self) -> int:
        """Remove and return the min-rank queued vertex of maximum weight."""
        candidates = self.queued
        for plane in reversed(self.planes):
            top = candidates & plane
            if top:
                candidates = top
        if self._index_order or not candidates & (candidates - 1):
            best = (candidates & -candidates).bit_length() - 1
        else:
            best = min(iter_bits(candidates), key=self._ranks.__getitem__)
        self.queued ^= 1 << best
        return best

    def bump_mask(self, mask: int) -> None:
        """Add one to the weight of every member of ``mask``."""
        planes = self.planes
        carry = mask
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                return
        planes.append(carry)

    def levels(self, avail: int) -> list[int]:
        """Return the non-empty weight levels of queued ``avail``, ascending."""
        queued = avail & self.queued
        levels = [queued] if queued else []
        for plane in reversed(self.planes):
            split = []
            for level in levels:
                high = level & plane
                if high and high != level:
                    split.append(level ^ high)
                split.append(high or level)
            levels = split
        return levels


class IndexedGraph:
    """A simple undirected graph over integer vertices with bitmask adjacency.

    Attributes
    ----------
    adj:
        ``adj[i]`` is the neighbour mask of vertex ``i`` (0 for dead
        slots).
    alive:
        Mask of live vertices.
    num_edges:
        Maintained incrementally by every mutator — reading it is O(1).
    """

    __slots__ = ("adj", "alive", "num_edges")

    #: Frontier size from which :meth:`neighborhood_of_set` gathers in
    #: one batched kernel call, or ``None`` when it never does (here:
    #: the union is the same per-row loop a caller would run inline).
    MIN_GATHER: int | None = None

    def __init__(self, num_vertices: int = 0) -> None:
        self.adj: list[int] = [0] * num_vertices
        self.alive: int = (1 << num_vertices) - 1 if num_vertices else 0
        self.num_edges: int = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, index: int | None = None) -> int:
        """Make slot ``index`` (default: a fresh slot) a live vertex."""
        if index is None:
            index = len(self.adj)
        while len(self.adj) <= index:
            self.adj.append(0)
        bit = 1 << index
        if not self.alive & bit:
            self.adj[index] = 0
            self.alive |= bit
        return index

    def remove_vertex(self, index: int) -> None:
        """Remove vertex ``index`` and all incident edges."""
        bit = 1 << index
        neighbours = self.adj[index]
        self.num_edges -= neighbours.bit_count()
        inv = ~bit
        adj = self.adj
        for j in iter_bits(neighbours):
            adj[j] &= inv
        adj[index] = 0
        self.alive &= inv

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge {u, v}; return whether it was newly added."""
        bit_v = 1 << v
        if self.adj[u] & bit_v:
            return False
        self.adj[u] |= bit_v
        self.adj[v] |= 1 << u
        self.num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge {u, v}; return whether it was present."""
        bit_v = 1 << v
        if not self.adj[u] & bit_v:
            return False
        self.adj[u] &= ~bit_v
        self.adj[v] &= ~(1 << u)
        self.num_edges -= 1
        return True

    def saturate(self, mask: int) -> int:
        """Make the vertices of ``mask`` a clique; return the added edge count.

        Each member's row gains the whole mask in one OR, and the count
        is the pairs of ``mask`` less the edges already inside it, so
        the cost is a few wide operations per member, none per pair.
        Callers that need the added pairs read :meth:`missing_pairs`
        first.
        """
        adj = self.adj
        present = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            row = adj[u]
            present += (row & mask).bit_count()
            adj[u] = row | mask ^ low
        k = mask.bit_count()
        added = (k * (k - 1) - present) >> 1
        self.num_edges += added
        return added

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of live vertices."""
        return self.alive.bit_count()

    def has_vertex(self, index: int) -> bool:
        """Return whether slot ``index`` is a live vertex."""
        return bool(self.alive >> index & 1) if index >= 0 else False

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether edge {u, v} is present."""
        return bool(self.adj[u] >> v & 1)

    def degree(self, index: int) -> int:
        """Return the degree of vertex ``index``."""
        return self.adj[index].bit_count()

    def vertices(self) -> Iterator[int]:
        """Iterate live vertex indices in ascending order."""
        return iter_bits(self.alive)

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as (u, v) index pairs with ``u < v``."""
        adj = self.adj
        for u in iter_bits(self.alive):
            for v in iter_bits(adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def neighborhood_of_set(self, mask: int) -> int:
        """Return N(U) as a mask: neighbours of ``mask``, excluding it."""
        union = 0
        adj = self.adj
        for i in iter_bits(mask):
            union |= adj[i]
        return union & ~mask

    def closed_neighborhood(self, index: int) -> int:
        """Return N[index] = N(index) ∪ {index} as a mask."""
        return self.adj[index] | 1 << index

    def is_clique(self, mask: int) -> bool:
        """Return whether the vertices of ``mask`` are pairwise adjacent."""
        adj = self.adj
        for i in iter_bits(mask):
            if mask & ~adj[i] & ~(1 << i):
                return False
        return True

    def is_independent_set(self, mask: int) -> bool:
        """Return whether no two vertices of ``mask`` are adjacent."""
        adj = self.adj
        for i in iter_bits(mask):
            if mask & adj[i]:
                return False
        return True

    def missing_pair_count(self, mask: int) -> int:
        """Return the number of non-adjacent pairs inside ``mask``."""
        k = mask.bit_count()
        return k * (k - 1) // 2 - self.edges_within(mask)

    def missing_pairs(self, mask: int) -> list[tuple[int, int]]:
        """Return the non-adjacent (u, v) pairs inside ``mask``, u < v."""
        pairs: list[tuple[int, int]] = []
        adj = self.adj
        for u in iter_bits(mask):
            missing = mask & ~adj[u] & ~((1 << (u + 1)) - 1)
            for v in iter_bits(missing):
                pairs.append((u, v))
        return pairs

    def edges_within(self, mask: int) -> int:
        """Return the number of edges of the subgraph induced by ``mask``."""
        total = 0
        adj = self.adj
        for i in iter_bits(mask):
            total += (adj[i] & mask).bit_count()
        return total // 2

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def expand_component(self, seed: int, available: int) -> int:
        """Return the connected component mask grown from ``seed``.

        ``seed`` must be a subset of ``available``; traversal is
        restricted to ``available``.  Frontier expansion ORs whole
        adjacency masks, so each round costs O(frontier · words).
        """
        component = seed
        frontier = seed
        adj = self.adj
        while frontier:
            reached = 0
            for i in iter_bits(frontier):
                reached |= adj[i]
            frontier = reached & available & ~component
            component |= frontier
        return component

    def component_of(self, index: int, removed: int = 0) -> int:
        """Return the component mask of ``index`` in the graph minus ``removed``."""
        available = self.alive & ~removed
        return self.expand_component(1 << index, available)

    def components(
        self, removed: int = 0, order: Iterable[int] | None = None
    ) -> list[int]:
        """Return the component masks of the graph minus ``removed``.

        ``order`` optionally fixes the order in which start vertices are
        tried (and therefore the order of the returned components); by
        default components appear by their smallest vertex index.
        """
        available = self.alive & ~removed
        result: list[int] = []
        if order is None:
            remaining = available
            while remaining:
                seed = remaining & -remaining
                component = self.expand_component(seed, available)
                result.append(component)
                remaining &= ~component
        else:
            seen = 0
            for i in order:
                bit = 1 << i
                if not available & bit or seen & bit:
                    continue
                component = self.expand_component(bit, available)
                result.append(component)
                seen |= component
        return result

    def full_components(self, separator: int) -> list[int]:
        """Return components C of the graph minus ``separator`` with N(C) = separator."""
        return [
            component
            for component in self.components(separator)
            if self.neighborhood_of_set(component) == separator
        ]

    def is_connected(self) -> bool:
        """Return whether the live graph is connected (empty graph: True)."""
        if not self.alive:
            return True
        seed = self.alive & -self.alive
        return self.expand_component(seed, self.alive) == self.alive

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "IndexedGraph":
        """Return an independent copy."""
        clone = IndexedGraph.__new__(IndexedGraph)
        clone.adj = list(self.adj)
        clone.alive = self.alive
        clone.num_edges = self.num_edges
        return clone

    def subgraph(self, mask: int) -> "IndexedGraph":
        """Return the induced subgraph on ``mask`` (same index space)."""
        clone = IndexedGraph.__new__(IndexedGraph)
        keep = mask & self.alive
        clone.adj = [
            (self.adj[i] & mask) if keep >> i & 1 else 0
            for i in range(len(self.adj))
        ]
        clone.alive = keep
        clone.num_edges = self.edges_within(keep)
        return clone

    def complement(self) -> "IndexedGraph":
        """Return the complement graph on the live vertices."""
        clone = IndexedGraph.__new__(IndexedGraph)
        alive = self.alive
        clone.adj = [
            (alive & ~self.adj[i] & ~(1 << i)) if alive >> i & 1 else 0
            for i in range(len(self.adj))
        ]
        clone.alive = alive
        n = alive.bit_count()
        clone.num_edges = n * (n - 1) // 2 - self.num_edges
        return clone
