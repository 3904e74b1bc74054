"""The separator graph as an SGR (system S14; paper Section 3.1.1).

``MSGraph`` for a graph g is the graph whose nodes are the minimal
separators of g and whose edges connect *crossing* separators.  Its
maximal independent sets are exactly the maximal pairwise-parallel
families of minimal separators, which Parra–Scheffler put in bijection
with the minimal triangulations of g (paper Theorem 4.1).

The three SGR components:

* ``A_V``  — :func:`repro.chordal.minimal_separators.minimal_separator_masks`
  (polynomial delay, Berry et al.);
* ``A_E``  — :func:`repro.chordal.minimal_separators.are_crossing_masks`
  (polynomial time);
* expansion — ``Extend`` (Figure 3 of the paper, module
  :mod:`repro.core.extend`), parameterised by any triangulation
  heuristic.

The SGR only needs node names that the node enumerator can print and
the edge oracle can test (Section 3.1.1), so a node is a minimal
separator as an int *vertex mask* over ``graph``'s vertex indices — the
form the node enumerator produces and the enumeration engine's answer
queues, checkpoints and wire format use.  The empty separator of a
disconnected graph is mask ``0``.  ``graph.label_set(mask)`` and
``graph.mask_of(separator)`` translate to and from label sets.

Tractable expansion holds because a chordal graph has fewer minimal
separators than nodes (Rose; paper Corollary 4.3), so every
independent set of MSGraph has size < |V(g)|.

Performance
-----------
EnumMIS calls the edge oracle over and over: every direction step of
the candidate step (:func:`repro.sgr.enum_mis.candidate_families`)
sweeps ``v`` against the members of an answer, and the same separator
pairs recur across answers.  This SGR keeps a bounded pure memo of
crossing results, so it cannot change an answer:

* **Crossing pairs.**  Each separator mask is interned once to a
  dense id, and the components of ``g \\ S`` are cached per separator
  as int masks.  :meth:`has_edges_batch` answers a ``v``-versus-many
  sweep with one dict probe per cached pair and one component walk
  over the cached components of ``g \\ v`` per miss, the same walk on
  every graph-core tier.  Results are stored per query node
  (``cache[id_v][id_u]``).  Bound: :data:`EDGE_CACHE_LIMIT` pairs per
  generation.

The cache uses a two-generation eviction: entries go to the current
generation, a hit in the old generation promotes the entry to the
current one, and filling the current generation drops the old one
wholesale.  Lookups stay O(1) with no per-hit bookkeeping, recently
used entries survive rotation, and at most two generations are ever
held.  Hits, misses and evictions are counted in the attached
:class:`~repro.sgr.enum_mis.EnumMISStatistics` (``edge_cache_*``).  An
evicted entry is simply recomputed on its next query.  The
per-separator tables (ids, masks, components) are not evicted; they
grow linearly with the separators seen, the price of the oracle
itself.

:meth:`extend` is not memoized: the candidate step never hands it a
family that a found answer contains, so each call yields a new answer
and no input repeats.  Its results hold the interned separator
objects, so the answers a run keeps share one int per separator.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.chordal.minimal_separators import minimal_separator_masks
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.core.extend import extend_separator_masks
from repro.graph.graph import Graph
from repro.sgr.base import SuccinctGraphRepresentation
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["MinimalSeparatorSGR", "EDGE_CACHE_LIMIT"]

#: A node of the SGR: a minimal separator as a vertex mask.
Separator = int

#: Per-generation cap of the crossing memo cache, in pairs (two
#: generations may be live at once).  Roughly 100 bytes per entry, so
#: it bounds the cache near a few hundred MB in the worst case while
#: being far larger than any run that fits in a workday.
EDGE_CACHE_LIMIT = 1 << 20


class MinimalSeparatorSGR(SuccinctGraphRepresentation):
    """The SGR ``(Gms, Ams_V, Ams_E)`` of the paper, for one input graph.

    Parameters
    ----------
    graph:
        The input graph g.  Not copied; callers must not mutate it
        while the SGR is in use.
    triangulator:
        The heuristic plugged into the ``Extend`` expansion
        (``"mcs_m"``, ``"lb_triang"``, ``"min_fill"``, …).
    stats:
        Optional :class:`~repro.sgr.enum_mis.EnumMISStatistics` whose
        ``edge_cache_hits`` / ``edge_cache_misses`` /
        ``edge_cache_evictions`` counters are updated by the memoized
        edge oracle.
    """

    def __init__(
        self,
        graph: Graph,
        triangulator: str | Triangulator = "mcs_m",
        stats: EnumMISStatistics | None = None,
    ) -> None:
        self._graph = graph
        self._triangulator = get_triangulator(triangulator)
        self._stats = stats
        # Interning: each separator mask gets a dense small id; the
        # pair cache is keyed id → id so the hot loops hash machine
        # ints, never |V|-bit masks.  ``_id_mask`` holds the one shared
        # object per separator that Extend results reuse.
        self._sep_id: dict[Separator, int] = {}
        self._id_mask: list[int] = []
        self._components_of: dict[int, tuple[int, ...]] = {}
        # The memoized crossing results, stored per *query node*:
        # ``cache[id_v][id_u]`` is the answer of a (v, u) query.  Two
        # generations bound the size: inserts go to the current one,
        # old-generation hits are promoted, and once ``_edge_entries``
        # reaches the limit the old generation is dropped wholesale.
        self._edge_cache: dict[int, dict[int, bool]] = {}
        self._edge_cache_old: dict[int, dict[int, bool]] = {}
        self._edge_entries = 0
        self._edge_entries_old = 0

    @property
    def graph(self) -> Graph:
        """The underlying input graph g."""
        return self._graph

    @property
    def triangulator(self) -> Triangulator:
        """The triangulation heuristic used by :meth:`extend`."""
        return self._triangulator

    @property
    def edge_cache_size(self) -> int:
        """Memoized crossing results currently held (both generations).

        An upper bound: a pair promoted from the old generation is
        briefly counted in both.
        """
        return self._edge_entries + self._edge_entries_old

    @property
    def statistics(self) -> EnumMISStatistics | None:
        """The statistics object receiving cache counters, if any."""
        return self._stats

    def attach_statistics(self, stats: EnumMISStatistics | None) -> None:
        """Point the cache hit/miss counters at ``stats`` (or detach)."""
        self._stats = stats

    def _intern_id(self, mask: Separator) -> int:
        """Return the dense id of separator ``mask``, interning it if new."""
        sep_id = self._sep_id.get(mask)
        if sep_id is None:
            sep_id = len(self._id_mask)
            self._sep_id[mask] = sep_id
            self._id_mask.append(mask)
        return sep_id

    def _shared(self, masks) -> frozenset[Separator]:
        """``masks`` as a frozenset of the interned separator objects."""
        id_mask = self._id_mask
        intern_id = self._intern_id
        # Built through a set: frozenset(set) sizes its table for the
        # final count, while inserting one by one overallocates it.
        return frozenset({id_mask[intern_id(mask)] for mask in masks})

    def _components(self, separator_mask: int) -> tuple[int, ...]:
        components = self._components_of.get(separator_mask)
        if components is None:
            components = tuple(self._graph.core.components(separator_mask))
            self._components_of[separator_mask] = components
        return components

    # ------------------------------------------------------------------
    # The bounded pair cache
    # ------------------------------------------------------------------

    def _maybe_rotate(self) -> None:
        if self._edge_entries >= EDGE_CACHE_LIMIT:
            if self._edge_entries_old and self._stats is not None:
                self._stats.edge_cache_evictions += self._edge_entries_old
            self._edge_cache_old = self._edge_cache
            self._edge_entries_old = self._edge_entries
            self._edge_cache = {}
            self._edge_entries = 0

    # ------------------------------------------------------------------
    # SGR interface
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[Separator]:
        """Enumerate ``MinSep(g)`` as vertex masks, with polynomial delay.

        Yields what :func:`~repro.chordal.minimal_separators.minimal_separator_masks`
        yields, in its order, as the interned object of each mask.
        """
        id_mask = self._id_mask
        for mask in minimal_separator_masks(self._graph):
            yield id_mask[self._intern_id(mask)]

    def has_edge(self, u: Separator, v: Separator) -> bool:
        """Return whether two minimal separators cross (``u ♮ v``).

        Memoized under the first argument's id (crossing is symmetric
        for minimal separators — Parra–Scheffler — so the result is the
        same either way; EnumMIS always queries direction-node first,
        which is exactly the layout the batch oracle shares).  This
        scalar oracle is the reference the batch oracle is tested
        against.
        """
        id_u = self._intern_id(u)
        id_v = self._intern_id(v)
        row = self._edge_cache.get(id_u)
        cached = row.get(id_v) if row is not None else None
        stats = self._stats
        if cached is None:
            old_row = self._edge_cache_old.get(id_u)
            if old_row is not None:
                cached = old_row.get(id_v)
        if cached is None:
            # Crossing is symmetric: before recomputing, check the
            # reversed orientation (cached when v earlier served as the
            # query node of this pair).
            cached = self._reverse_lookup(id_v, id_u)
        if cached is not None:
            if stats is not None:
                stats.edge_cache_hits += 1
            if row is None or id_v not in row:
                # Promote old-generation / reversed hits so they are
                # found first next time and survive rotation.
                if row is None:
                    row = self._edge_cache[id_u] = {}
                row[id_v] = cached
                self._edge_entries += 1
                self._maybe_rotate()
            return cached
        if stats is not None:
            stats.edge_cache_misses += 1
        id_mask = self._id_mask
        result = self._crossing(id_mask[id_u], id_mask[id_v])
        if row is None:
            row = self._edge_cache[id_u] = {}
        row[id_v] = result
        self._edge_entries += 1
        self._maybe_rotate()
        return result

    def _reverse_lookup(self, id_v: int, id_u: int) -> bool | None:
        """The (id_v, id_u) orientation of a pair, from either generation."""
        rev = self._edge_cache.get(id_v)
        cached = rev.get(id_u) if rev is not None else None
        if cached is None:
            rev = self._edge_cache_old.get(id_v)
            if rev is not None:
                cached = rev.get(id_u)
        return cached

    def has_edges_batch(
        self, v: Separator, candidates: Sequence[Separator]
    ) -> list[bool]:
        """Batched edge oracle: does ``v`` cross each of ``candidates``?

        Semantically identical to ``[has_edge(v, u) for u in
        candidates]`` — same memo cache, same counters (one hit or miss
        per candidate) — but the per-pair Python work is one dict probe
        against ``v``'s cache row (zero probes when v has no cached
        pairs at all, the common case when a new SGR node arrives), and
        the uncached pairs are computed together, each by one walk over
        the cached components of ``g \\ v``.  This is the oracle behind
        the EnumMIS direction step, which is exactly a
        ``v``-versus-answer-members sweep.

        The generation rotation of the bounded cache is checked once
        per call rather than once per insert, so the current generation
        may briefly overshoot :data:`EDGE_CACHE_LIMIT` by one batch.
        When ``v`` has no cache row at all, the sweep skips per-pair
        probes entirely — including reversed-orientation ones — and
        recomputes the whole batch; that is bounded duplicate work
        (crossing is pure, answers cannot change), traded for the
        zero-probe fast path on fresh direction nodes.
        """
        id_v = self._intern_id(v)
        sep_get = self._sep_id.get
        ids = [sep_get(u) for u in candidates]
        if None in ids:
            ids = [
                self._intern_id(u) if i is None else i
                for i, u in zip(ids, candidates)
            ]
        stats = self._stats
        row = self._edge_cache.get(id_v)
        old_row = self._edge_cache_old.get(id_v)
        if row is None and old_row is None:
            # Nothing cached for v: compute every pair, no probes.
            results = self._crossing_many(id_v, ids)
            self._edge_cache[id_v] = dict(zip(ids, results))
            self._edge_entries += len(ids)
            if stats is not None:
                stats.edge_cache_misses += len(ids)
            self._maybe_rotate()
            return results
        if row is None:
            row = self._edge_cache[id_v] = {}
        row_get = row.get
        old_get = old_row.get if old_row is not None else None
        results = []
        append = results.append
        miss_at: list[int] = []
        miss_ids: list[int] = []
        promoted = 0
        reverse_lookup = self._reverse_lookup
        for i, id_u in enumerate(ids):
            cached = row_get(id_u)
            if cached is None:
                if old_get is not None:
                    cached = old_get(id_u)
                if cached is None:
                    # Symmetric relation: the pair may be cached under
                    # the candidate's own row from an earlier sweep.
                    cached = reverse_lookup(id_u, id_v)
                if cached is None:
                    miss_at.append(i)
                    miss_ids.append(id_u)
                    append(False)  # placeholder, filled below
                    continue
                row[id_u] = cached  # promote so v's row finds it first
                promoted += 1
            append(cached)
        if stats is not None:
            stats.edge_cache_hits += len(ids) - len(miss_at)
            stats.edge_cache_misses += len(miss_at)
        if miss_at:
            crossed = self._crossing_many(id_v, miss_ids)
            for i, id_u, result in zip(miss_at, miss_ids, crossed):
                row[id_u] = result
                results[i] = result
        self._edge_entries += promoted + len(miss_at)
        self._maybe_rotate()
        return results

    def _crossing_many(self, id_v: int, ids: list[int]) -> list[bool]:
        """Compute the v-versus-ids crossings."""
        id_mask = self._id_mask
        mask_v = id_mask[id_v]
        crossing = self._crossing
        return [crossing(mask_v, id_mask[i]) for i in ids]

    def _crossing(self, mask_u: int, mask_v: int) -> bool:
        remainder = mask_v & ~mask_u
        if not remainder:
            return False
        touched = 0
        for component in self._components(mask_u):
            if component & remainder:
                touched += 1
                if touched >= 2:
                    return True
        return False

    def extend(self, independent_set: frozenset[Separator]) -> frozenset[Separator]:
        """Extend a pairwise-parallel family to a maximal one (Figure 3).

        The result holds the interned separator objects.
        """
        return self._shared(
            extend_separator_masks(
                self._graph, independent_set, self._triangulator
            )
        )
