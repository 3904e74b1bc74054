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
EnumMIS calls both oracles over and over: every direction step sweeps
``v`` against the members of an answer, and every candidate it builds
goes through ``Extend``.  The same separator pairs recur across
answers, and so do the candidates.  This SGR keeps two bounded caches,
both pure memos of pure functions, so neither can change an answer:

* **Crossing pairs.**  Each separator mask is interned once to a
  dense id; the components of ``g \\ S`` are cached per
  separator (as int masks and, once a batch query touches it, as a
  packed ``uint64`` matrix of :mod:`repro.graph.bitset_np`).
  :meth:`has_edges_batch` answers a ``v``-versus-many sweep with one
  dict probe per cached pair and one vectorized
  :func:`repro.graph.bitset_np.crossing_batch` pass for the rest.
  Results are stored per query node (``cache[id_v][id_u]``).  Bound:
  ``edge_cache_limit`` pairs per generation (default
  :data:`DEFAULT_EDGE_CACHE_LIMIT`; ``None`` for unbounded).
* **Extend results.**  :meth:`extend` maps an input family φ to the
  maximal family it extends to.  For a fixed triangulator that result
  is a function of φ alone (paper Lemma 4.6), and most candidates of a
  run repeat an earlier one.  Bound: :data:`EXTEND_MEMO_LIMIT`
  *separator references* per generation, counting ``|φ| + |result|``
  per entry, so a large graph's long families weigh what they cost.
  Equal separators of different entries are one shared int object
  (the one in the interning table of the crossing oracle), so an entry
  stores references, not copies of masks: about 81 bytes per reference
  on Gnp(30, 0.35) and 58 on a 1600-node PGM graph, where one mask
  alone takes up to 240 bytes (see :data:`EXTEND_MEMO_LIMIT`).  The
  serial loop and every inline, pool and distributed worker call
  Extend through this method, so each SGR instance memoizes with no
  second code path.

Both caches use the same two-generation eviction: entries go to the
current generation, a hit in the old generation promotes the entry to
the current one, and filling the current generation drops the old one
wholesale.  Lookups stay O(1) with no per-hit bookkeeping, recently
used entries survive rotation, and at most two generations are ever
held.  Hits, misses and evictions are counted in the attached
:class:`~repro.sgr.enum_mis.EnumMISStatistics` (``edge_cache_*`` and
``extend_memo_*``).  An evicted entry is simply recomputed on its next
query.  The per-separator tables (ids, masks, components) are not
evicted; they grow linearly with the separators seen, the price of the
oracles themselves.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.chordal.minimal_separators import (
    BATCH_KERNEL_MIN as _BATCH_KERNEL_MIN,
    minimal_separator_masks,
)
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.core.extend import extend_separator_masks
from repro.graph import bitset_np as _kernel
from repro.graph.graph import Graph
from repro.sgr.base import SuccinctGraphRepresentation
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["MinimalSeparatorSGR", "DEFAULT_EDGE_CACHE_LIMIT", "EXTEND_MEMO_LIMIT"]

#: A node of the SGR: a minimal separator as a vertex mask.
Separator = int

#: Per-generation cap of the crossing memo cache (two generations may
#: be live at once).  Roughly 100 bytes per entry, so the default
#: bounds the cache near a few hundred MB in the worst case while
#: being far larger than any run that fits in a workday.
DEFAULT_EDGE_CACHE_LIMIT = 1 << 20

#: Per-generation bound of the Extend memo, in stored separator
#: references (``|input| + |result|`` summed over entries; two
#: generations may be live at once).  Separator masks are shared int
#: objects, so a reference costs a set slot plus its share of the
#: frozenset header and the dict entry.  Measured (``sys.getsizeof``
#: over the memo after a serial run): 81 bytes on Gnp(30, 0.35) after
#: 3000 answers, so one generation holds about 20 MiB and covers the
#: first ~4500 answers of that graph without a rotation; 58 bytes on
#: the 1600-node ``promedas_like(600, 1000, seed=1600)`` after 20
#: answers, where a mask costs 88 bytes on average and up to 240 bytes,
#: so an unshared copy per reference would multiply the memo.  ``0``
#: disables the memo.
EXTEND_MEMO_LIMIT = 1 << 18

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
        edge oracle, and whose ``extend_memo_hits`` /
        ``extend_memo_evictions`` counters by the Extend memo.
    edge_cache_limit:
        Per-generation entry cap of the crossing-pair cache (``None``
        for unbounded).  Must be positive when given.
    """

    def __init__(
        self,
        graph: Graph,
        triangulator: str | Triangulator = "mcs_m",
        stats: EnumMISStatistics | None = None,
        edge_cache_limit: int | None = DEFAULT_EDGE_CACHE_LIMIT,
    ) -> None:
        if edge_cache_limit is not None and edge_cache_limit <= 0:
            raise ValueError(
                f"edge_cache_limit must be positive or None, "
                f"got {edge_cache_limit!r}"
            )
        self._graph = graph
        self._triangulator = get_triangulator(triangulator)
        self._stats = stats
        # Interning: each separator mask gets a dense small id; the
        # pair cache is keyed id → id so the hot loops hash machine
        # ints, never |V|-bit masks.  ``_id_mask`` holds the one shared
        # object per separator that Extend results reuse.
        self._sep_id: dict[Separator, int] = {}
        self._id_mask: list[int] = []
        # id → packed uint64 row of the separator mask (kernel builds
        # batch remainders by fancy-indexing this matrix, no per-pair
        # int→bytes conversion); grown geometrically on intern.
        self._mask_matrix = None
        self._components_of: dict[int, tuple[int, ...]] = {}
        # separator mask → packed (k, words) component matrix; built on
        # first batch query against the separator.
        self._packed_components: dict[int, object] = {}
        # The memoized crossing results, stored per *query node*:
        # ``cache[id_v][id_u]`` is the answer of a (v, u) query.  Two
        # generations bound the size: inserts go to the current one,
        # old-generation hits are promoted, and once ``_edge_entries``
        # reaches the limit the old generation is dropped wholesale.
        self._edge_cache_limit = edge_cache_limit
        self._edge_cache: dict[int, dict[int, bool]] = {}
        self._edge_cache_old: dict[int, dict[int, bool]] = {}
        self._edge_entries = 0
        self._edge_entries_old = 0
        # The Extend memo, input family → result, in two generations
        # sized in separator references (see EXTEND_MEMO_LIMIT).
        self._memo: dict[frozenset[Separator], frozenset[Separator]] = {}
        self._memo_old: dict[frozenset[Separator], frozenset[Separator]] = {}
        self._memo_refs = 0
        self._memo_refs_old = 0
        self._words = _kernel.word_count(len(graph.core.adj))

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
    def edge_cache_limit(self) -> int | None:
        """The per-generation entry cap (``None`` = unbounded)."""
        return self._edge_cache_limit

    @property
    def extend_memo_size(self) -> int:
        """Separator references held by the Extend memo (both generations)."""
        return self._memo_refs + self._memo_refs_old

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
            matrix = self._mask_matrix
            if matrix is None or sep_id >= matrix.shape[0]:
                matrix = self._grow_matrix(sep_id)
            matrix[sep_id] = _kernel.pack_mask(mask, self._words)
        return sep_id

    def _grow_matrix(self, sep_id: int):
        old = self._mask_matrix
        capacity = 256 if old is None else old.shape[0]
        while capacity <= sep_id:
            capacity *= 2
        matrix = _kernel.zero_matrix(capacity, self._words)
        if old is not None:
            matrix[: old.shape[0]] = old
        self._mask_matrix = matrix
        return matrix

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

    def _components_packed(self, separator_mask: int):
        """The ``(k, words)`` packed component matrix of ``g \\ S``."""
        packed = self._packed_components.get(separator_mask)
        if packed is None:
            packed = _kernel.pack_masks(
                self._components(separator_mask), self._words
            )
            self._packed_components[separator_mask] = packed
        return packed

    # ------------------------------------------------------------------
    # The bounded pair cache
    # ------------------------------------------------------------------

    def _maybe_rotate(self) -> None:
        limit = self._edge_cache_limit
        if limit is not None and self._edge_entries >= limit:
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
        every uncached pair is evaluated in a single vectorized pass
        over the packed component matrix of ``g \\ v``
        (:func:`repro.graph.bitset_np.crossing_batch`) instead of one
        component-walk call each.  This is the kernel behind the
        EnumMIS direction step, which is exactly a
        ``v``-versus-answer-members sweep.

        The generation rotation of the bounded cache is checked once
        per call rather than once per insert, so the current generation
        may briefly overshoot ``edge_cache_limit`` by one batch.  When
        ``v`` has no cache row at all, the sweep skips per-pair probes
        entirely — including reversed-orientation ones — and recomputes
        the whole batch in the kernel; that is bounded duplicate work
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
            # Nothing cached for v: pure kernel sweep, no per-pair probes.
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
        """Compute v-versus-ids crossings, vectorized when worthwhile."""
        id_mask = self._id_mask
        mask_v = id_mask[id_v]
        if len(ids) < _BATCH_KERNEL_MIN:
            crossing = self._crossing
            return [crossing(mask_v, id_mask[i]) for i in ids]
        components = self._components_packed(mask_v)
        matrix = self._mask_matrix
        ns = _kernel.kernels_for(self._graph.core)
        if hasattr(ns, "crossing_batch_gather"):
            # Every shipped tier exposes the gathered sweep (parity is
            # machine-checked by `repro analyze`): the native kernel
            # fuses gather+ANDN+test in one C pass, the numpy twin
            # materialises the ``matrix[ids] & ~row_v`` remainders.
            # The hasattr guard keeps bare mock namespaces working.
            return ns.crossing_batch_gather(components, matrix, ids, id_v)
        remainders = matrix[ids] & ~matrix[id_v]
        return ns.crossing_batch(components, remainders).tolist()

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

        Memoized on ``independent_set`` in the bounded two-generation
        memo described in the module docstring.  A hit returns the
        object an earlier call returned, and a call after eviction
        rebuilds an equal set in the same insertion order, so the memo
        changes neither the answers nor the order in which any caller
        meets them.  A stored entry holds the interned separator
        objects, for its key as for its result.
        """
        limit = EXTEND_MEMO_LIMIT
        if limit <= 0:
            return self._extend(independent_set)
        stats = self._stats
        extended = self._memo.get(independent_set)
        if extended is not None:
            if stats is not None:
                stats.extend_memo_hits += 1
            return extended
        extended = self._memo_old.pop(independent_set, None)
        if extended is not None:
            # Promote the old-generation hit so it survives rotation.
            self._memo_refs_old -= len(independent_set) + len(extended)
            if stats is not None:
                stats.extend_memo_hits += 1
        else:
            extended = self._extend(independent_set)
        self._memo[self._shared(independent_set)] = extended
        self._memo_refs += len(independent_set) + len(extended)
        if self._memo_refs >= limit:
            if self._memo_old and stats is not None:
                stats.extend_memo_evictions += len(self._memo_old)
            self._memo_old = self._memo
            self._memo_refs_old = self._memo_refs
            self._memo = {}
            self._memo_refs = 0
        return extended

    def _extend(self, independent_set: frozenset[Separator]) -> frozenset[Separator]:
        return self._shared(
            extend_separator_masks(
                self._graph, independent_set, self._triangulator
            )
        )
