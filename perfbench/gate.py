"""The correctness gate applied to every measured job, outside the timing.

A job passes when it delivered exactly the requested number of answers,
no two answers share a fill-edge set, and a deterministic sample of its
answers (the first, the last and every ``k``-th) are minimal
triangulations of the input.

Minimality is checked with :func:`is_minimal_fast`, not the library's
``Triangulation.is_minimal()``: that oracle removes each fill edge in
turn and re-tests chordality, which costs about 2 s per answer at 310
nodes and hours at 1600 nodes (28 000 fill edges).  The fast check is
the same Rose–Tarjan–Lueker characterisation read the other way round:
in a chordal graph ``h``, removing the edge ``uv`` keeps ``h`` chordal
exactly when ``uv`` is not the unique chord of a 4-cycle, that is, when
the common neighbourhood of ``u`` and ``v`` is a clique.  So ``h`` is
minimal iff it is a chordal supergraph of the input and every fill edge
has two non-adjacent common neighbours.  A test pins it to the oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.chordal.peo import is_chordal
from repro.core.triangulation import Triangulation

#: Sampled answers per job, besides the first and the last.
SAMPLES = 8


def is_minimal_fast(answer: Triangulation) -> bool:
    """Minimality by the unique-chord test (see the module docstring)."""
    filled = answer.graph
    if not is_chordal(filled):
        return False
    adj = filled.core.adj
    index_of = filled.index_of
    base = answer.base
    for u, v in answer.fill_edges:
        if base.has_edge(u, v):
            continue  # not fill: the library oracle skips it as well
        common = adj[index_of(u)] & adj[index_of(v)]
        rest = common
        while rest:
            low = rest & -rest
            if common & ~adj[low.bit_length() - 1] & ~low:
                break  # two non-adjacent common neighbours: uv is needed
            rest ^= low
        else:
            return False  # common neighbourhood is a clique: uv removable
    return True


def sample_indices(count: int, samples: int = SAMPLES) -> list[int]:
    """The first, the last and every ``k``-th answer index."""
    if count == 0:
        return []
    step = max(1, count // samples)
    return sorted({0, count - 1, *range(0, count, step)})


def check_job(answers: Sequence[Triangulation], requested: int) -> list[str]:
    """Return the job's violations (empty when it passes).

    Each violation is one failed operation: a missing answer, a repeated
    answer, or a sampled answer that is not minimal.
    """
    violations = [
        f"missing answer: got {len(answers)} of {requested}"
    ] * max(0, requested - len(answers))
    seen: set[tuple] = set()
    for index, answer in enumerate(answers):
        if answer.fill_edges in seen:
            violations.append(f"answer #{index} repeats an earlier answer")
        seen.add(answer.fill_edges)
    for index in sample_indices(len(answers)):
        if not is_minimal_fast(answers[index]):
            violations.append(f"answer #{index} is not a minimal triangulation")
    return violations
