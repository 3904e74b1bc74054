"""LEX-M: minimal triangulation by lexicographic search (extension).

LEX-M (Rose–Tarjan–Lueker 1976) is the historical ancestor of MCS-M
and the third classic member of the pluggable ``Triangulate`` family:
vertices carry *lexicographic labels* instead of integer weights, are
numbered from n down to 1 by largest label, and a vertex u is updated
(label extended, fill edge added) when it is reachable from the chosen
vertex v through unnumbered vertices whose labels are all strictly
smaller than u's.  The output is a minimal triangulation together with
a minimal elimination ordering, exactly like MCS-M — but the two
algorithms explore different orderings, so plugging LEX-M into
``Extend`` diversifies the enumeration differently.

The reachability step uses the same *bucket-mask threshold sweep* as
MCS-M (:func:`repro.chordal.triangulate._mcs_m_update_mask`): group
the unnumbered vertices into bitmasks by label, then for ascending
label thresholds t grow the set reachable through internal vertices of
label ≤ t by whole-mask frontier expansion.  A vertex first reached at
threshold t has minimax path key t and qualifies iff its own label
exceeds t; direct neighbours of v always qualify.  Each sweep round is
a few wide integer operations, replacing the per-edge heap traversal
of the minimax Dijkstra (kept in ``tests/test_lexm.py`` as the
verification oracle for the property corpus).  The only difference
from MCS-M is that label values are tuples, so the buckets are
rebuilt per step from a dict keyed by tuple instead of reusing the
search queue's integer weight levels.

Registered in the triangulator registry as ``"lex_m"``.
"""

from __future__ import annotations

from repro.graph.core import iter_bits
from repro.graph.graph import Graph, Node, edge_key, sort_edges

__all__ = ["lex_m"]


def lex_m(graph: Graph) -> tuple[list[tuple[Node, Node]], list[Node]]:
    """Run LEX-M; return ``(fill_edges, minimal_elimination_ordering)``.

    ``graph + fill`` is a minimal triangulation of ``graph`` and the
    returned ordering (eliminated-first first) is a perfect elimination
    ordering of it.  Vertices are handled as core indices; the
    lexicographic labels live in a dense list keyed by index.
    """
    core = graph.core
    adj = core.adj
    labels: list[tuple[int, ...]] = [()] * len(adj)
    sorted_order = graph.sorted_indices()
    label_of = graph.label_of
    unnumbered = core.alive
    fill: list[tuple[Node, Node]] = []
    reverse_order: list[Node] = []
    n = core.num_vertices

    for number in range(n, 0, -1):
        # Largest lexicographic label; ties go to the first vertex in
        # label-sorted order, matching ``max(sorted(nodes), key=...)``.
        v = -1
        v_label: tuple[int, ...] | None = None
        for i in sorted_order:
            if not unnumbered >> i & 1:
                continue
            if v_label is None or labels[i] > v_label:
                v, v_label = i, labels[i]
        unnumbered &= ~(1 << v)
        reverse_order.append(label_of(v))
        reachable = _lexm_reachable_mask(adj, labels, unnumbered, v)
        adj_v = adj[v]
        node_v = label_of(v)
        for u in iter_bits(reachable):
            labels[u] = labels[u] + (number,)
            if not adj_v >> u & 1:
                fill.append(edge_key(label_of(u), node_v))

    reverse_order.reverse()
    return sort_edges(fill), reverse_order


def _lexm_reachable_mask(
    adj: list[int],
    labels: list[tuple[int, ...]],
    unnumbered: int,
    v: int,
) -> int:
    """The LEX-M update set for ``v`` as a bitmask (threshold sweep).

    ``u`` qualifies iff ``key(u) < label(u)``, where ``key(u)`` is the
    minimum over v→u paths through unnumbered vertices of the maximum
    internal label (−∞ for a direct edge).  Sweeping ascending label
    thresholds t: the set reachable through internal vertices of label
    ≤ t is grown by whole-mask frontier expansion; vertices first
    reached at threshold t have ``key = t`` and qualify iff their own
    label is > t — i.e. they are not in the ≤ t bucket union yet.
    """
    avail = unnumbered
    reached = adj[v] & avail
    if not reached:
        return 0
    update_set = reached  # key = −∞ < label(u) for every vertex
    if reached == avail:
        return update_set

    buckets: dict[tuple[int, ...], int] = {}
    m = avail
    while m:
        low = m & -m
        buckets[labels[low.bit_length() - 1]] = (
            buckets.get(labels[low.bit_length() - 1], 0) | low
        )
        m ^= low

    processed = 0
    weight_le = 0
    for t in sorted(buckets):
        weight_le |= buckets[t]
        while True:
            frontier = reached & weight_le & ~processed
            if not frontier:
                break
            processed |= frontier
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            new = grown & avail & ~reached
            if new:
                reached |= new
                update_set |= new & ~weight_le  # key = t < label(x)
        if reached == avail:
            break
    return update_set
