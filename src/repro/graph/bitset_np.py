"""Packed-bitset numpy layer: word-matrix kernels and a large-n graph core.

The Python-int bitmask core (:mod:`repro.graph.core`) wins for graphs
up to a few hundred nodes because each adjacency is a single machine
object and CPython's big-int ops run in C.  Past roughly a thousand
nodes the per-row overhead starts to dominate: set-algebraic sweeps
(neighbourhood unions, component frontiers) pay one interpreter
round-trip per vertex row touched.

This module packs vertex bitmasks into rows of ``uint64`` *word
matrices* so those sweeps become single vectorized numpy expressions:

* :func:`pack_masks` / :func:`unpack_row` / :func:`unpack_rows` convert
  between the int-mask representation used everywhere else and packed
  ``uint64`` rows (little-endian word order, so bit ``i`` of a mask is
  bit ``i % 64`` of word ``i // 64``); the graph payload and the wire
  format ship masks this way;
* the *Extend-side* kernels serve the primitives the triangulation
  pipeline of the paper's ``Extend`` procedure calls on a large graph:
  :func:`mask_to_indices` turns a mask into an index array without a
  per-bit Python loop, :func:`union_rows` OR-reduces many adjacency
  rows at once, :func:`frontier_sweep` runs a whole reachability
  fixpoint on the packed matrix, and :func:`set_edge_bits` applies
  saturation fill to a live mirror in place.  The algorithms themselves
  (MCS-M, MCS, LB-Triang, the PEO check, the separator listing and the
  crossing oracle) are one int-mask loop each on every tier; they
  reach these kernels only through the core's overridden primitives.
  The MCS selection queue is not one of them: every tier runs the int
  tier's bit-sliced :class:`~repro.graph.core.MaxWeightBuckets`, whose
  bumps and pops are O(log w) wide-int operations at any graph size;
* :class:`NumpyGraphCore` is an :class:`~repro.graph.core.IndexedGraph`
  whose batch-heavy methods (neighbourhood-of-set, component
  expansion) run on a lazily maintained packed adjacency matrix —
  the size-adaptive backend selected for large graphs;
* :func:`select_core_class` / :func:`convert_graph` implement the
  backend registry (``"indexed"`` / ``"numpy"`` / ``"native"`` /
  ``"auto"``) used by
  the enumeration engine and the CLI ``--graph-backend`` flag.

Everything here is API-compatible with the int-mask core: masks go in,
masks come out, and the packed matrices are pure caches — invalidated
on mutation, rebuilt on demand — so correctness never depends on them.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

import numpy as np

from repro.graph.core import IndexedGraph, bit_list

__all__ = [
    "WORD_BITS",
    "NUMPY_THRESHOLD",
    "GRAPH_BACKENDS",
    "word_count",
    "pack_masks",
    "unpack_row",
    "unpack_rows",
    "mask_to_indices",
    "union_rows",
    "frontier_sweep",
    "set_edge_bits",
    "NumpyGraphCore",
    "select_core_class",
    "core_backend_name",
    "convert_graph",
]

WORD_BITS = 64

#: Node count at or above which ``"auto"`` selects the packed tier.
#: Below it single-int masks fit in a few machine words and the
#: per-call numpy overhead outweighs the vectorization win.
NUMPY_THRESHOLD = 1500

_WORD_DTYPE = np.dtype("<u8")


def word_count(num_bits: int) -> int:
    """Return how many 64-bit words hold ``num_bits`` bits (at least 1)."""
    return max(1, (num_bits + WORD_BITS - 1) // WORD_BITS)


def pack_masks(masks: Iterable[int], words: int) -> np.ndarray:
    """Pack int bitmasks into an ``(m, words)`` uint64 matrix."""
    nbytes = words * 8
    buffer = b"".join([mask.to_bytes(nbytes, "little") for mask in masks])
    packed = np.frombuffer(buffer, dtype=_WORD_DTYPE)
    return packed.reshape(-1, words)


def unpack_row(row: np.ndarray) -> int:
    """Unpack a uint64 row back into an int bitmask."""
    return int.from_bytes(
        np.ascontiguousarray(row, dtype=_WORD_DTYPE).tobytes(), "little"
    )


def unpack_rows(packed: np.ndarray) -> list[int]:
    """Unpack an ``(m, words)`` matrix back into m int bitmasks.

    One ``tobytes`` for the whole matrix plus one ``int.from_bytes``
    per row — the bulk inverse of :func:`pack_masks`, used by sharded
    workers to rebuild their int-mask adjacency from a shipped packed
    matrix without unpickling m big ints.
    """
    nbytes = packed.shape[1] * 8
    buffer = np.ascontiguousarray(packed, dtype=_WORD_DTYPE).tobytes()
    from_bytes = int.from_bytes
    return [
        from_bytes(buffer[start : start + nbytes], "little")
        for start in range(0, len(buffer), nbytes)
    ]


# ----------------------------------------------------------------------
# Extend-side kernels (the triangulation pipeline of ``Extend``)
# ----------------------------------------------------------------------

#: Set sizes below this run the inherited int-mask loop; the numpy
#: call overhead only pays off on wider masks.
BATCH_MIN = 16


def mask_to_indices(mask: int, words: int) -> np.ndarray:
    """Set-bit indices of an int mask as an ascending int64 array.

    The per-bit ``low = mask & -mask`` loop of the int tier costs one
    Python iteration per member; this unpacks the whole mask through
    one ``np.unpackbits`` pass instead.
    """
    as_bytes = np.frombuffer(mask.to_bytes(words * 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(as_bytes, bitorder="little"))


def union_rows(matrix: np.ndarray, indices) -> int:
    """OR-reduce the selected rows of a packed matrix into an int mask."""
    if not len(indices):
        return 0
    return unpack_row(np.bitwise_or.reduce(matrix[indices], axis=0))


def frontier_sweep(
    matrix: np.ndarray,
    seed: int,
    available: int,
    adj: list[int] | None = None,
) -> int:
    """Reachability fixpoint on the packed matrix: the component of ``seed``.

    Each round ORs the adjacency rows of the whole frontier in one
    vectorized reduction (falling back to the int-mask loop for
    frontiers below :data:`BATCH_MIN` when ``adj`` is given), so a
    breadth-first sweep costs O(rounds) numpy calls instead of one
    Python iteration per frontier vertex.
    """
    words = matrix.shape[1]
    component = seed
    frontier = seed
    while frontier:
        if adj is not None and frontier.bit_count() < BATCH_MIN:
            reached = 0
            for i in bit_list(frontier):
                reached |= adj[i]
        else:
            reached = union_rows(matrix, mask_to_indices(frontier, words))
        frontier = reached & available & ~component
        component |= frontier
    return component


def set_edge_bits(
    matrix: np.ndarray, u_arr: np.ndarray, v_arr: np.ndarray
) -> None:
    """Set the (u, v) and (v, u) bits of a packed adjacency in place."""
    one = np.uint64(1)
    np.bitwise_or.at(
        matrix,
        (u_arr, v_arr // WORD_BITS),
        one << (v_arr % WORD_BITS).astype(np.uint64),
    )
    np.bitwise_or.at(
        matrix,
        (v_arr, u_arr // WORD_BITS),
        one << (u_arr % WORD_BITS).astype(np.uint64),
    )


class NumpyGraphCore(IndexedGraph):
    """An ``IndexedGraph`` with a packed adjacency matrix for batch ops.

    The int-mask ``adj`` list stays the source of truth, so every
    inherited operation keeps working unchanged; a ``(slots, words)``
    uint64 matrix mirror is built lazily and dropped on any mutation.
    The overridden methods route wide sweeps (OR-reducing many
    adjacency rows at once) through the matrix, which is where the
    numpy core beats single-int masks on graphs of a few thousand
    nodes.  Only :meth:`neighborhood_of_set`, :meth:`expand_component`
    and the mirror-keeping :meth:`saturate` are overridden; everything
    else, the MCS selection queue included, is the int tier's.
    """

    __slots__ = ("_packed",)

    #: Minimum number of rows in a sweep before the packed matrix is
    #: used; below it the inherited int-mask loop is faster.
    MIN_GATHER = BATCH_MIN

    def __init__(self, num_vertices: int = 0) -> None:
        super().__init__(num_vertices)
        self._packed: np.ndarray | None = None

    @classmethod
    def from_indexed(cls, core: IndexedGraph) -> "NumpyGraphCore":
        """Build a numpy core from (a copy of the state of) ``core``."""
        clone = cls.__new__(cls)
        clone.adj = list(core.adj)
        clone.alive = core.alive
        clone.num_edges = core.num_edges
        clone._packed = None
        return clone

    @classmethod
    def _adopt(cls, core: IndexedGraph) -> "NumpyGraphCore":
        """Like :meth:`from_indexed` but takes ownership of ``core``'s
        adjacency list — for exclusively-owned intermediates only."""
        clone = cls.__new__(cls)
        clone.adj = core.adj
        clone.alive = core.alive
        clone.num_edges = core.num_edges
        clone._packed = None
        return clone

    # -- cache maintenance ---------------------------------------------

    def _matrix(self) -> np.ndarray:
        packed = self._packed
        if packed is None or packed.shape[0] != len(self.adj):
            packed = pack_masks(self.adj, word_count(len(self.adj)))
            self._packed = packed
        return packed

    def add_vertex(self, index: int | None = None) -> int:
        self._packed = None
        return super().add_vertex(index)

    def remove_vertex(self, index: int) -> None:
        self._packed = None
        super().remove_vertex(index)

    def add_edge(self, u: int, v: int) -> bool:
        self._packed = None
        return super().add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> bool:
        self._packed = None
        return super().remove_edge(u, v)

    @staticmethod
    def _kernel_namespace():
        """The kernel namespace batch methods dispatch to.

        The numpy core answers this module; :class:`NativeGraphCore`
        overrides it with the compiled tier.
        """
        return sys.modules[__name__]

    def saturate(self, mask: int) -> int:
        """Make ``mask`` a clique, keeping a live packed mirror live.

        LB-Triang saturates one separator per component per step, so
        instead of dropping the packed matrix — which would force a
        full O(n · words) rebuild before the next wide sweep — the
        missing pairs are read before the inherited row-wise OR and set
        on it in place.  A core without a mirror (every fresh
        ``copy()``) just ORs the rows.  Returns the added edge count.
        """
        packed = self._packed
        if packed is None or packed.shape[0] != len(self.adj):
            return super().saturate(mask)
        pairs = self.missing_pairs(mask)
        if pairs:
            if not packed.flags.writeable:
                # ``pack_masks`` returns a read-only view over ``bytes``,
                # so every mirror ``_matrix`` builds is read-only: detach
                # onto a writable copy before the first in-place fill.
                packed = self._packed = packed.copy()
            ends = np.array(pairs, dtype=np.int64)
            self._kernel_namespace().set_edge_bits(packed, ends[:, 0], ends[:, 1])
        return super().saturate(mask)

    # -- batch-accelerated queries -------------------------------------

    def neighborhood_of_set(self, mask: int) -> int:
        if mask.bit_count() < self.MIN_GATHER:
            return super().neighborhood_of_set(mask)
        kernels = self._kernel_namespace()
        matrix = self._matrix()
        return (
            kernels.union_rows(
                matrix, kernels.mask_to_indices(mask, matrix.shape[1])
            )
            & ~mask
        )

    def expand_component(self, seed: int, available: int) -> int:
        return self._kernel_namespace().frontier_sweep(
            self._matrix(), seed, available, adj=self.adj
        )

    # -- derived graphs keep the numpy core ----------------------------

    def copy(self) -> "NumpyGraphCore":
        return type(self)._adopt(super().copy())

    def subgraph(self, mask: int) -> "NumpyGraphCore":
        return type(self)._adopt(super().subgraph(mask))

    def complement(self) -> "NumpyGraphCore":
        return type(self)._adopt(super().complement())


#: The graph-core backend registry: name → core class.  The native tier
#: registers itself here when importable (see the bottom of this module).
GRAPH_BACKENDS: dict[str, type[IndexedGraph]] = {
    "indexed": IndexedGraph,
    "numpy": NumpyGraphCore,
}


def _native_core_class() -> "type[NumpyGraphCore] | None":
    """The registered native core class, or ``None`` when the compiled
    extension is unregistered or cannot actually be loaded."""
    native_cls = GRAPH_BACKENDS.get("native")
    if native_cls is not None and native_cls.runtime_available():
        return native_cls
    return None


def select_core_class(
    num_nodes: int,
    backend: str = "auto",
    threshold: int = NUMPY_THRESHOLD,
) -> type[IndexedGraph]:
    """Resolve a backend name to a core class.

    ``"auto"`` picks the packed tier at or above ``threshold`` nodes —
    the native core when its compiled extension is available, else
    :class:`NumpyGraphCore` — and
    :class:`~repro.graph.core.IndexedGraph` below it.  An explicit
    ``"native"`` request likewise degrades to :class:`NumpyGraphCore`
    when the extension cannot be built or loaded (same kernels, same
    results, no hard failure); ``repro kernels`` reports the tier that
    will actually serve.
    """
    if backend == "auto":
        if num_nodes < threshold:
            return IndexedGraph
        return _native_core_class() or NumpyGraphCore
    try:
        selected = GRAPH_BACKENDS[backend]
    except KeyError:
        known = ", ".join(["auto", *sorted(GRAPH_BACKENDS)])
        raise ValueError(
            f"unknown graph backend {backend!r} (known: {known})"
        ) from None
    if backend == "native" and not selected.runtime_available():
        return NumpyGraphCore
    return selected


def core_backend_name(core: IndexedGraph) -> str:
    """The registry name of a core instance's backend."""
    for name, backend_cls in GRAPH_BACKENDS.items():
        if type(core) is backend_cls:
            return name
    return "numpy" if isinstance(core, NumpyGraphCore) else "indexed"


def convert_graph(graph, backend: str = "auto", threshold: int = NUMPY_THRESHOLD):
    """Return ``graph`` on the selected core backend.

    The input is returned unchanged when its core already matches the
    selection; otherwise a copy with an identical interner — and
    therefore identical vertex indices, so every mask computed against
    one is valid against the other — is returned.  ``"auto"`` only ever
    *upgrades* a plain indexed core at or above ``threshold`` nodes; a
    core the caller explicitly placed on another backend is respected.
    """
    from repro.graph.graph import Graph

    core = graph.core
    if backend == "auto" and type(core) is not IndexedGraph:
        return graph
    target = select_core_class(graph.num_nodes, backend, threshold)
    if type(core) is target:
        return graph
    if target is IndexedGraph:
        plain = IndexedGraph.__new__(IndexedGraph)
        plain.adj = list(core.adj)
        plain.alive = core.alive
        plain.num_edges = core.num_edges
        return Graph._from_parts(plain, graph.interner.copy())
    return Graph._from_parts(target.from_indexed(core), graph.interner.copy())


# Registering the native tier happens in the native module itself (its
# import is what defines the class); a bare import here keeps the cycle
# safe in both orders, and any failure simply leaves the registry at
# two tiers — the native backend must never break the numpy one.
try:
    import repro.graph._native.native  # noqa: F401  (self-registers)
except Exception:  # pragma: no cover - torn install
    pass
