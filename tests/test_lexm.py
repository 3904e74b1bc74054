"""Unit tests for LEX-M (repro.chordal.lexm)."""

from __future__ import annotations

import heapq

from helpers import small_chordal_graphs, small_random_graphs
from repro.chordal.lexm import lex_m
from repro.chordal.peo import is_perfect_elimination_ordering
from repro.chordal.sandwich import is_minimal_triangulation
from repro.chordal.triangulate import get_triangulator
from repro.graph.core import iter_bits
from repro.graph.generators import cycle_graph, grid_graph, path_graph
from repro.graph.graph import Graph

_MISSING = object()


def filled_with(graph: Graph, fill) -> Graph:
    out = graph.copy()
    out.add_edges(fill)
    return out


class TestLexM:
    def test_chordal_input_gets_no_fill(self):
        for g in small_chordal_graphs(20, seed=91):
            fill, order = lex_m(g)
            assert fill == []
            assert sorted(order, key=repr) == sorted(g.nodes(), key=repr)

    def test_produces_minimal_triangulation(self):
        for g in small_random_graphs(30, max_nodes=9, seed=3401):
            fill, __ = lex_m(g)
            assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_order_is_peo_of_filled_graph(self):
        for g in small_random_graphs(20, max_nodes=9, seed=3407):
            fill, order = lex_m(g)
            assert is_perfect_elimination_ordering(filled_with(g, fill), order)

    def test_cycle_fill_size(self):
        for n in (4, 5, 6, 8):
            fill, __ = lex_m(cycle_graph(n))
            assert len(fill) == n - 3

    def test_grid(self):
        g = grid_graph(4, 4)
        fill, __ = lex_m(g)
        assert is_minimal_triangulation(g, filled_with(g, fill))

    def test_empty_and_trivial(self):
        assert lex_m(Graph()) == ([], [])
        fill, order = lex_m(Graph(nodes=[1]))
        assert fill == [] and order == [1]


def _lexm_reachable_heap(
    adj: list[int],
    labels: list[tuple[int, ...]],
    unnumbered: int,
    v: int,
) -> list[int]:
    """Reference minimax Dijkstra over lexicographic labels.

    The pre-bucket-mask implementation, kept as the verification
    oracle: ``key(u)`` is the minimum over v→u paths of the maximum
    internal label (``None`` playing −∞ for direct edges); u qualifies
    iff ``key(u) < label(u)``.
    """
    best: dict[int, tuple[int, ...] | None] = {}
    counter = 0
    heap: list[tuple[tuple[int, ...], int, int]] = []
    not_v = ~(1 << v)
    for u in iter_bits(adj[v] & unnumbered):
        best[u] = None
        heap.append(((), counter, u))
        counter += 1
    heapq.heapify(heap)
    while heap:
        key_tuple, __, u = heapq.heappop(heap)
        current = best.get(u, ())
        if current is not None and key_tuple != current:
            continue
        through = max(
            key_tuple if current is not None else (),
            labels[u],
        )
        for x in iter_bits(adj[u] & unnumbered & not_v):
            existing = best.get(x, _MISSING)
            if existing is _MISSING or (
                existing is not None and through < existing
            ):
                best[x] = through
                heapq.heappush(heap, (through, counter, x))
                counter += 1
    result = []
    for u, key_value in best.items():
        threshold = labels[u]
        if key_value is None or key_value < threshold:
            result.append(u)
    return result


def _lex_m_reference(graph: Graph):
    """The pre-bucket-mask LEX-M: same numbering loop, heap reachability."""
    from repro.graph.graph import edge_key, sort_edges

    core = graph.core
    adj = core.adj
    labels = [()] * len(adj)
    sorted_order = graph.sorted_indices()
    label_of = graph.label_of
    unnumbered = core.alive
    fill = []
    reverse_order = []
    for number in range(core.num_vertices, 0, -1):
        v = -1
        v_label = None
        for i in sorted_order:
            if not unnumbered >> i & 1:
                continue
            if v_label is None or labels[i] > v_label:
                v, v_label = i, labels[i]
        unnumbered &= ~(1 << v)
        reverse_order.append(label_of(v))
        adj_v = adj[v]
        node_v = label_of(v)
        for u in _lexm_reachable_heap(adj, labels, unnumbered, v):
            labels[u] = labels[u] + (number,)
            if not adj_v >> u & 1:
                fill.append(edge_key(label_of(u), node_v))
    reverse_order.reverse()
    return sort_edges(fill), reverse_order


class TestBucketMaskEquivalence:
    """The mask threshold sweep must match the heap traversal exactly."""

    def test_full_outputs_match_on_property_corpus(self):
        corpus = (
            small_random_graphs(40, max_nodes=10, seed=5117)
            + small_chordal_graphs(15, seed=5119)
            + [path_graph(7), cycle_graph(8), grid_graph(4, 4)]
        )
        for g in corpus:
            assert lex_m(g) == _lex_m_reference(g)

    def test_reachable_sets_match_on_random_label_states(self):
        import random

        from repro.chordal.lexm import _lexm_reachable_mask
        from repro.graph.core import bit_list
        from repro.graph.generators import gnp_random_graph

        rng = random.Random(42)
        for trial in range(60):
            n = rng.randint(3, 11)
            g = gnp_random_graph(n, rng.choice([0.25, 0.4, 0.6]), seed=trial)
            adj = g.core.adj
            labels = [
                tuple(
                    sorted(
                        rng.sample(range(1, n + 1), rng.randint(0, min(3, n))),
                        reverse=True,
                    )
                )
                for __ in range(len(adj))
            ]
            alive = bit_list(g.core.alive)
            v = rng.choice(alive)
            unnumbered = g.core.alive & ~(1 << v)
            for dropped in rng.sample(alive, len(alive) // 4):
                unnumbered &= ~(1 << dropped)
            assert set(_lexm_reachable_heap(adj, labels, unnumbered, v)) == set(
                bit_list(_lexm_reachable_mask(adj, labels, unnumbered, v))
            )

    def test_path(self):
        fill, __ = lex_m(path_graph(6))
        assert fill == []


class TestRegistryIntegration:
    def test_registered(self):
        t = get_triangulator("lex_m")
        assert t.guarantees_minimal

    def test_enumeration_count_unchanged(self):
        from repro.core.enumerate import count_minimal_triangulations

        assert count_minimal_triangulations(
            cycle_graph(6), triangulator="lex_m"
        ) == 14

    def test_same_result_set_as_mcs_m(self):
        from repro.core.enumerate import enumerate_minimal_triangulations

        for g in small_random_graphs(10, max_nodes=7, seed=3413):
            via_lexm = {
                t.fill_edges
                for t in enumerate_minimal_triangulations(g, triangulator="lex_m")
            }
            via_mcsm = {
                t.fill_edges
                for t in enumerate_minimal_triangulations(g, triangulator="mcs_m")
            }
            assert via_lexm == via_mcsm
