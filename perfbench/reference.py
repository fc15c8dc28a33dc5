"""Independent reference for the benchmark's correctness checks.

Shares no code with ``logbase_ir``. It works from the index terms the
generator hands over, so it needs no tokenizer, stoplist or stemmer:

* sparse cosine over ``tf * log10(N / df)`` weights, ties broken by
  ascending doc id;
* 11-level evaluation: the (recall, precision) point of every rank up to
  the cutoff falls into the bucket of the nearest level (level ``k`` owns
  recalls in ``[(2k-1)/20, (2k+1)/20)``, level 0 from 0 and level 10 up to
  1), a level scores the mean precision of its bucket and 0 when empty,
  levels are averaged over queries; MAP is the mean of all 11 levels and
  MAP@30 that of levels 0.0 to 0.3.

Bucketing is done in integer arithmetic on the hit count, so no float edge
case can put a point in a different bucket than the rule says.
"""

import math
from collections import Counter

CUTOFF = 1000


class Reference:
    """Sparse vector-space model of one generated collection at base 10."""

    def __init__(self, docs: dict[int, list[str]]):
        self.n = len(docs)
        self.tf = {d: Counter(terms) for d, terms in docs.items()}
        self.postings: dict[str, list[int]] = {}
        for d in sorted(self.tf):
            for t in self.tf[d]:
                self.postings.setdefault(t, []).append(d)
        self.idf = {t: math.log10(self.n / len(ds)) for t, ds in self.postings.items()}
        self.norm = {
            d: math.sqrt(math.fsum((tf * self.idf[t]) ** 2 for t, tf in counts.items()))
            for d, counts in self.tf.items()
        }

    def rank(self, query_terms: list[str]) -> list[tuple[int, float]]:
        """Every document sharing a term with the query, best first."""
        q = {t: tf * self.idf[t] for t, tf in Counter(query_terms).items() if t in self.idf}
        if not q:
            return []
        q_norm = math.sqrt(math.fsum(w * w for w in q.values()))
        candidates = {d for t in q for d in self.postings[t]}
        scored = []
        for d in candidates:
            dot = math.fsum(w * self.tf[d][t] * self.idf[t] for t, w in q.items() if t in self.tf[d])
            denom = q_norm * self.norm[d]
            scored.append((d, dot / denom if denom else 0.0))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored


def bucket(hits: int, n_relevant: int) -> int:
    """The recall level (0..10) owning recall hits / n_relevant, exactly."""
    return min(10, (20 * hits + n_relevant) // (2 * n_relevant))


def levels_from_points(points: list[tuple[int, float]]) -> list[float]:
    """Mean precision per level bucket, 0 for an empty bucket.

    Each point is (bucket, precision).
    """
    buckets: list[list[float]] = [[] for _ in range(11)]
    for k, precision in points:
        buckets[k].append(precision)
    return [math.fsum(b) / len(b) if b else 0.0 for b in buckets]


def query_levels(ranking: list[int], relevant: set[int], cutoff: int = CUTOFF) -> list[float]:
    points = []
    hits = 0
    for position, doc in enumerate(ranking[:cutoff], start=1):
        hits += doc in relevant
        points.append((bucket(hits, len(relevant)), hits / position))
    return levels_from_points(points)


def summary(rankings: dict[int, list[int]], qrels: dict[int, set[int]]) -> dict:
    """Levels averaged over the judged queries, with MAP and MAP@30."""
    per_query = [query_levels(rankings[q], qrels[q]) for q in sorted(qrels)]
    levels = [math.fsum(col) / len(per_query) for col in zip(*per_query)]
    return {
        "levels": levels,
        "map": math.fsum(levels) / 11,
        "map_at_30": math.fsum(levels[:4]) / 4,
    }
