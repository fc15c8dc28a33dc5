"""Cosine-similarity ranking of documents against a weighted query.

Scoring is deterministic: query terms are visited in sorted order, postings
in doc_id order, and ties in the final ordering break toward the smaller
doc_id. Repeated runs produce bit-identical rankings.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

from .index import InvertedIndex
from .weighting import WeightScheme, idf, weigh_query


@dataclass(frozen=True)
class RankedList:
    query_id: int
    entries: tuple[tuple[int, float], ...] = field(default_factory=tuple)


class Ranker:
    """Scores queries against one index under one weighting scheme.

    Per-term IDF depends only on (index, base), so it is computed once here
    and shared across queries. Document norms are computed on demand, only
    for the documents a set of queries reaches (``doc_norms``). Changing the
    base from e to b multiplies every weight by 1 / ln b, so a parameter sweep
    builds one Ranker at base e and rescales its accumulators per base (see
    ``rank``).
    """

    def __init__(self, index: InvertedIndex, scheme: WeightScheme):
        self.index = index
        self.scheme = scheme
        self._idf: dict[str, float] = {
            term: idf(index, term, scheme) for term in index.dictionary
        }

    def doc_norms(self, doc_ids: Iterable[int]) -> dict[int, float]:
        """Length of each given document's weight vector.

        One pass over the postings in sorted term order, so each document's
        squares are added in the order of its terms and a norm does not
        depend on which others are asked for. For at most half of the
        documents the pass picks out their postings in C and runs Python code
        for those alone; for more, visiting every posting costs less.
        """
        wanted = set(doc_ids)
        squares = dict.fromkeys(wanted, 0.0)
        few = 2 * len(wanted) <= self.index.n_docs
        for term, (ids, tfs) in self.index.dictionary.items():
            term_idf = self._idf[term]
            if few:
                for p in compress(range(len(ids)), map(wanted.__contains__, ids)):
                    w = tfs[p] * term_idf
                    squares[ids[p]] += w * w
            else:
                for doc_id, tf in zip(ids, tfs):
                    w = tf * term_idf
                    squares[doc_id] = squares.get(doc_id, 0.0) + w * w
        return {doc_id: math.sqrt(squares[doc_id]) for doc_id in wanted}

    def accumulate(self, tokens: list[str]) -> tuple[float, dict[int, float]]:
        """Query norm and dot product with every document sharing a term.

        Term-at-a-time: one pass over each query term's postings.
        """
        query_weights = weigh_query(self.index, tokens, self.scheme)
        if not query_weights:
            return 0.0, {}
        query_norm = math.sqrt(sum(weight * weight for _, weight in query_weights))
        dot: dict[int, float] = {}
        for term, weight in query_weights:
            term_idf = self._idf[term]
            doc_ids, tfs = self.index.dictionary[term]
            for doc_id, tf in zip(doc_ids, tfs):
                dot[doc_id] = dot.get(doc_id, 0.0) + weight * (tf * term_idf)
        return query_norm, dot

    def rank(
        self,
        query_id: int,
        acc: tuple[float, dict[int, float]],
        norms: dict[int, float],
        scale: float = 1.0,
    ) -> RankedList:
        """Cosine ranking from accumulators, every weight multiplied by scale.

        ``norms`` holds ``doc_norms`` of at least every document in ``acc``.

        Scale c rescales the dot product by c*c and each norm by |c|; at
        c = 1.0 every multiplication is exact, so the scores are those of the
        unscaled weights bit for bit.
        """
        query_norm, dot = acc
        c2 = scale * scale
        magnitude = abs(scale)
        scaled_query_norm = magnitude * query_norm
        entries = []
        for doc_id in sorted(dot):
            denom = scaled_query_norm * (magnitude * norms[doc_id])
            score = c2 * dot[doc_id] / denom if denom != 0.0 else 0.0
            entries.append((doc_id, score))
        # stable sort: equal scores keep ascending doc_id order
        entries.sort(key=itemgetter(1), reverse=True)
        return RankedList(query_id, tuple(entries))

    def rank_tokens(self, query_id: int, tokens: list[str]) -> RankedList:
        """Rank all documents sharing at least one term with the query."""
        acc = self.accumulate(tokens)
        return self.rank(query_id, acc, self.doc_norms(acc[1]))


def format_run(ranked_lists: list[RankedList]) -> str:
    """Run-file form: one ``query_id doc_id rank score`` TSV line per entry."""
    lines = []
    for rl in ranked_lists:
        for position, (doc_id, score) in enumerate(rl.entries, start=1):
            lines.append(f"{rl.query_id}\t{doc_id}\t{position}\t{score!r}\n")
    return "".join(lines)
