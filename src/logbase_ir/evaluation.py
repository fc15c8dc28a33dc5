"""Precision/recall evaluation on the 11 fixed recall levels.

One pass over each ranked list (``pr_curve``) takes the precision at every
rank position and places it on the fixed recall levels 0.0, 0.1, ..., 1.0
by the rank's recall: level 0.0 owns [0.00, 0.05), each middle level L owns
[L-0.05, L+0.05) and level 1.0 owns [0.95, 1.00]. In ``paper`` mode a
level's precision is the mean of its list; empty lists score 0.0 and are
reported as diagnostics. ``standard`` mode takes instead the highest
precision at any recall >= the level, which is always that of a hit.

The two summary metrics are means over level precisions: ``map11`` averages
all 11 levels and ``map_at_30`` averages the levels 0.0 through 0.3 (it is a
recall-level average, not precision at rank 30).
"""

from bisect import bisect_right
from functools import reduce
from itertools import chain
from operator import add
from typing import NamedTuple

from .collection_io import Qrels
from .retrieval import RankedList

RECALL_LEVELS = tuple(k / 10 for k in range(11))

# upper bucket edges for levels 0.0 .. 0.9; membership is half-open, so a
# recall equal to an edge belongs to the next level up. A recall hits/R and an
# edge (2k+1)/20 are both correctly rounded doubles of rationals that differ by
# at least 1/(20R) unless equal, so comparing the doubles gives the exact rule.
_BUCKET_EDGES = [(2 * k + 1) / 20 for k in range(10)]

INTERPOLATION_MODES = ("paper", "standard")
POOLING_MODES = ("per_query", "pooled")

DEFAULT_CUTOFF = 1000

EVAL_CSV_COLUMNS = (
    "base",
    *[f"level_{level:.1f}" for level in RECALL_LEVELS],
    "map",
    "map_at_30",
)


# precision at each of the 11 recall levels
ElevenLevels = tuple[float, ...]


class EvalSummary(NamedTuple):
    levels: ElevenLevels
    map: float
    map_at_30: float


def _total(values) -> float:
    """Plain left-to-right float sum, the same on every Python version:
    from 3.12, sum() adds floats with compensation."""
    return reduce(add, values, 0.0)


def bucket_index(recall: float) -> int:
    """The recall level (0..10) owning a recall value in [0, 1]."""
    return bisect_right(_BUCKET_EDGES, recall)


def pr_curve(
    ranked: RankedList, relevant: set[int], cutoff: int = DEFAULT_CUTOFF
) -> tuple[list[list[float]], list[tuple[float, float]]]:
    """One pass over a ranking to the cutoff.

    Returns the precision at every rank, in rank order, placed in the list
    of the recall level that owns the rank's recall, and the (recall,
    precision) of every hit. The level changes only at a hit, and between
    hits precision only falls, so the hits carry every interpolation maximum.
    """
    if not relevant:
        raise ValueError(f"query {ranked.query_id}: empty relevant set")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    levels: list[list[float]] = [[] for _ in RECALL_LEVELS]
    hits: list[tuple[float, float]] = []
    bucket = levels[0]
    found = 0
    for position, (doc_id, _score) in enumerate(ranked.entries[:cutoff], start=1):
        if doc_id in relevant:
            found += 1
            recall = found / len(relevant)
            bucket = levels[bucket_index(recall)]
            hits.append((recall, found / position))
        bucket.append(found / position)
    return levels, hits


def average_over_queries(per_query: list[ElevenLevels]) -> ElevenLevels:
    """Element-wise mean of per-query level precisions."""
    if not per_query:
        raise ValueError("no per-query level vectors to average")
    n = len(per_query)
    return tuple(_total(levels[i] for levels in per_query) / n for i in range(11))


def map11(levels: ElevenLevels) -> float:
    """Mean of the precisions at all 11 recall levels."""
    return _total(levels) / len(levels)


def map_at_30(levels: ElevenLevels) -> float:
    """Mean of the precisions at recall levels 0.0, 0.1, 0.2 and 0.3."""
    return _total(levels[:4]) / 4


def summarize(levels: ElevenLevels) -> EvalSummary:
    return EvalSummary(levels=levels, map=map11(levels), map_at_30=map_at_30(levels))


def evaluate_rankings(
    rankings: dict[int, RankedList],
    qrels: Qrels,
    cutoff: int = DEFAULT_CUTOFF,
    interpolation: str = "paper",
    pooling: str = "per_query",
) -> tuple[EvalSummary, list[tuple[int | None, int]]]:
    """Score a set of ranked lists against relevance judgments.

    Queries are processed in ascending query_id order. Returns the summary
    plus diagnostics: (query_id, level) pairs whose bucket was empty, with
    query_id None in pooled mode.
    """
    if interpolation not in INTERPOLATION_MODES:
        raise ValueError(f"unknown interpolation mode {interpolation!r}")
    if pooling not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {pooling!r}")
    if not qrels:
        raise ValueError("no judged queries to evaluate")
    missing = sorted(q for q in qrels if q not in rankings)
    if missing:
        raise ValueError(f"no ranking for judged queries {missing}")

    query_ids: list[int | None] = sorted(qrels)
    curves = [pr_curve(rankings[q], qrels[q], cutoff) for q in query_ids]
    if pooling == "pooled":
        query_ids = [None]
        all_levels, all_hits = zip(*curves)
        curves = [([list(chain(*lists)) for lists in zip(*all_levels)], list(chain(*all_hits)))]
    diagnostics = [
        (query_id, i)
        for query_id, (levels, _) in zip(query_ids, curves)
        for i, bucket in enumerate(levels)
        if not bucket
    ]
    if interpolation == "paper":
        per_query = [
            tuple(_total(bucket) / len(bucket) if bucket else 0.0 for bucket in levels)
            for levels, _ in curves
        ]
    else:
        per_query = [
            tuple(max((p for r, p in hits if r >= level), default=0.0) for level in RECALL_LEVELS)
            for _, hits in curves
        ]
    # the mean of one vector (pooled mode) is that vector exactly
    return summarize(average_over_queries(per_query)), diagnostics


def format_summary_csv_row(base_label: str, summary: EvalSummary) -> str:
    fields = [base_label]
    fields += [repr(v) for v in summary.levels]
    fields += [repr(summary.map), repr(summary.map_at_30)]
    return ",".join(fields)
