"""Precision/recall evaluation on the 11 fixed recall levels.

Each ranked list yields a (recall, precision) point at every rank position.
Points are bucketed onto the fixed recall levels 0.0, 0.1, ..., 1.0 by recall
range: level 0.0 owns [0.00, 0.05), each middle level L owns [L-0.05, L+0.05)
and level 1.0 owns [0.95, 1.00]. A level's precision is the mean of its
bucket; empty buckets score 0.0 and are reported as diagnostics.

The two summary metrics are means over level precisions: ``map11`` averages
all 11 levels and ``map_at_30`` averages the levels 0.0 through 0.3 (it is a
recall-level average, not precision at rank 30).
"""

from bisect import bisect_right
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PRPoint:
    rank: int
    recall: float
    precision: float


# precision at each of the 11 recall levels
ElevenLevels = tuple[float, ...]


@dataclass(frozen=True)
class EvalSummary:
    levels: ElevenLevels
    map: float
    map_at_30: float


def pr_curve(
    ranked: RankedList, relevant: set[int], cutoff: int = DEFAULT_CUTOFF
) -> list[PRPoint]:
    """Precision and recall at every rank position up to cutoff."""
    if not relevant:
        raise ValueError(f"query {ranked.query_id}: empty relevant set")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    points = []
    hits = 0
    for position, (doc_id, _score) in enumerate(ranked.entries[:cutoff], start=1):
        if doc_id in relevant:
            hits += 1
        points.append(PRPoint(position, hits / len(relevant), hits / position))
    return points


def bucket_index(recall: float) -> int:
    """The recall level (0..10) owning a recall value in [0, 1]."""
    return bisect_right(_BUCKET_EDGES, recall)


def bucketize(points: list[PRPoint]) -> list[list[float]]:
    """Group point precisions into the 11 recall-level buckets."""
    buckets: list[list[float]] = [[] for _ in range(11)]
    for p in points:
        buckets[bucket_index(p.recall)].append(p.precision)
    return buckets


def _bucket_means(buckets: list[list[float]]) -> ElevenLevels:
    return tuple(sum(bucket) / len(bucket) if bucket else 0.0 for bucket in buckets)


def bucket_to_levels(points: list[PRPoint]) -> ElevenLevels:
    """Mean precision per recall-level bucket; empty buckets give 0.0."""
    return _bucket_means(bucketize(points))


def interpolated_levels(points: list[PRPoint]) -> ElevenLevels:
    """Standard interpolation: max precision at recall >= each level."""
    levels = []
    for level in RECALL_LEVELS:
        best = 0.0
        for p in points:
            if p.recall >= level and p.precision > best:
                best = p.precision
        levels.append(best)
    return tuple(levels)


def average_over_queries(per_query: list[ElevenLevels]) -> ElevenLevels:
    """Element-wise mean of per-query level precisions."""
    if not per_query:
        raise ValueError("no per-query level vectors to average")
    n = len(per_query)
    return tuple(sum(levels[i] for levels in per_query) / n for i in range(11))


def map11(levels: ElevenLevels) -> float:
    """Mean of the precisions at all 11 recall levels."""
    return sum(levels) / len(levels)


def map_at_30(levels: ElevenLevels) -> float:
    """Mean of the precisions at recall levels 0.0, 0.1, 0.2 and 0.3."""
    return sum(levels[:4]) / 4


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

    diagnostics: list[tuple[int | None, int]] = []

    def score(points: list[PRPoint], query_id: int | None) -> ElevenLevels:
        buckets = bucketize(points)
        diagnostics.extend((query_id, i) for i, bucket in enumerate(buckets) if not bucket)
        if interpolation == "paper":
            return _bucket_means(buckets)
        return interpolated_levels(points)

    if pooling == "pooled":
        pool: list[PRPoint] = []
        for query_id in sorted(qrels):
            pool.extend(pr_curve(rankings[query_id], qrels[query_id], cutoff))
        return summarize(score(pool, None)), diagnostics

    per_query = [
        score(pr_curve(rankings[query_id], qrels[query_id], cutoff), query_id)
        for query_id in sorted(qrels)
    ]
    return summarize(average_over_queries(per_query)), diagnostics


def format_summary_csv_row(base_label: str, summary: EvalSummary) -> str:
    fields = [base_label]
    fields += [repr(v) for v in summary.levels]
    fields += [repr(summary.map), repr(summary.map_at_30)]
    return ",".join(fields)
