"""Delay statistics over the gaps between consecutive answers.

A job delivers ``N`` answers at timestamps ``t_1 .. t_N`` (seconds,
measured from the same clock as the job's first ``next()`` call).  The
*gaps* are ``t_{i+1} - t_i``: the paper's per-answer delay.  A run
holds several jobs of the same answer count.  The tail percentile is
chosen from what one job can support, never from how many jobs fitted
into the run (a faster program fits more jobs and must not be judged on
a different percentile for it).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def gaps(stamps: Sequence[float]) -> list[float]:
    """The gaps between consecutive answer timestamps."""
    return [later - earlier for earlier, later in zip(stamps, stamps[1:])]


def rank(count: int, p: float) -> int:
    """The 1-based nearest rank of the ``p``-th percentile of ``count`` values."""
    return max(1, math.ceil(p / 100.0 * count - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    return sorted(values)[rank(len(values), p) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest percentile of ``count`` gaps with ``MIN_BEYOND`` beyond it.

    A sample is *beyond* the percentile when it sorts after the
    percentile's nearest rank.  ``None`` when even the median has fewer
    than ``MIN_BEYOND`` samples beyond it (fewer than 20 gaps): the tail
    is then not reported as a percentile at all.
    """
    for p in TAIL_PERCENTILES:
        if count - rank(count, p) >= MIN_BEYOND:
            return p
    return None


def last_decile(job_gaps: Sequence[float]) -> list[float]:
    """The gaps that end on the last 10% of a job's answers (at least one)."""
    answers = len(job_gaps) + 1
    take = max(1, round(answers / 10))
    return list(job_gaps[-take:])


def summarise(jobs: Sequence[Sequence[float]]) -> dict:
    """The delay figures of a run (seconds).

    ``jobs`` holds one stamp list per job, every job with the same
    answer count.  The median gap and the median of the last-decile
    gaps are taken within each job and averaged over the jobs: a job's
    gaps mix modes (batch waits, answers on hand) whose shares vary
    from job to job, and the mean of per-job medians follows the shares
    smoothly where one median over all gaps would jump between modes.
    The tail is the percentile chosen by :func:`tail_percentile` from
    one job's gap count, over the gaps of all jobs: a percentile of
    the pooled gaps rests on every job's samples beyond it.  With too
    few gaps for any percentile the tail is the mean over jobs of each
    job's largest gap, and ``tail_percentile`` is ``None``.
    """
    per_job = [gaps(stamps) for stamps in jobs]
    per_job = [job for job in per_job if job]
    if not per_job:
        raise ValueError("delays need at least one job with two answers")
    pooled = [gap for job in per_job for gap in job]
    p = tail_percentile(len(per_job[0]))
    mean = statistics.fmean
    median = statistics.median
    if p is None:
        tail = mean(max(job) for job in per_job)
        beyond = 0
    else:
        tail = percentile(pooled, p)
        beyond = len(pooled) - rank(len(pooled), p)
    return {
        "p50": mean(median(job) for job in per_job),
        "last_decile_p50": mean(median(last_decile(job)) for job in per_job),
        "tail": tail,
        "tail_percentile": p,
        "tail_beyond": beyond,
        "samples": len(pooled),
    }
