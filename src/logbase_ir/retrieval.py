"""Cosine-similarity ranking of documents against a weighted query.

Scoring is deterministic: query terms are visited in sorted order, postings
in doc_id order, and ties in the final ordering break toward the smaller
doc_id. Repeated runs produce bit-identical rankings.
"""

import math
from dataclasses import dataclass, field

from .index import InvertedIndex
from .weighting import WeightScheme, idf, weigh_query


@dataclass(frozen=True)
class RankedList:
    query_id: int
    entries: tuple[tuple[int, float], ...] = field(default_factory=tuple)


class Ranker:
    """Scores queries against one index under one weighting scheme.

    Per-term IDF and per-document norms depend only on (index, base), so they
    are computed once here and shared across queries; a parameter sweep builds
    one Ranker per base.
    """

    def __init__(self, index: InvertedIndex, scheme: WeightScheme):
        self.index = index
        self.scheme = scheme
        self._idf: dict[str, float] = {
            term: idf(index, term, scheme) for term in index.dictionary
        }
        # one pass over the postings in sorted term order: each document's
        # squares are added in the order of its terms
        squares: dict[int, float] = {}
        for term, (doc_ids, tfs) in index.dictionary.items():
            term_idf = self._idf[term]
            for doc_id, tf in zip(doc_ids, tfs):
                w = tf * term_idf
                squares[doc_id] = squares.get(doc_id, 0.0) + w * w
        self._doc_norm = {doc_id: math.sqrt(s) for doc_id, s in squares.items()}

    def rank_tokens(self, query_id: int, tokens: list[str]) -> RankedList:
        """Rank all documents sharing at least one term with the query."""
        query_weights = weigh_query(self.index, tokens, self.scheme)
        if not query_weights:
            return RankedList(query_id)
        query_norm = math.sqrt(sum(tw.weight * tw.weight for tw in query_weights))
        dot: dict[int, float] = {}
        for tw in query_weights:
            term_idf = self._idf[tw.term]
            doc_ids, tfs = self.index.dictionary[tw.term]
            for doc_id, tf in zip(doc_ids, tfs):
                dot[doc_id] = dot.get(doc_id, 0.0) + tw.weight * (tf * term_idf)
        entries = []
        for doc_id in sorted(dot):
            denom = query_norm * self._doc_norm[doc_id]
            score = dot[doc_id] / denom if denom != 0.0 else 0.0
            entries.append((doc_id, score))
        entries.sort(key=lambda e: (-e[1], e[0]))
        return RankedList(query_id, tuple(entries))


def format_run(ranked_lists: list[RankedList]) -> str:
    """Run-file form: one ``query_id doc_id rank score`` TSV line per entry."""
    lines = []
    for rl in ranked_lists:
        for position, (doc_id, score) in enumerate(rl.entries, start=1):
            lines.append(f"{rl.query_id}\t{doc_id}\t{position}\t{score!r}\n")
    return "".join(lines)
