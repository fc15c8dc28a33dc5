"""Cosine-similarity ranking of documents against a weighted query.

Scoring is deterministic: query terms are visited in sorted order, postings
in doc_id order, and ties in the final ordering break toward the smaller
doc_id. Repeated runs produce bit-identical rankings.
"""

import math
from collections.abc import Iterable
from functools import reduce
from itertools import compress, count, repeat
from operator import add, itemgetter, lt, mul
from typing import NamedTuple

from .index import InvertedIndex
from .weighting import WeightScheme, idf, weigh_query

_BASE_E = WeightScheme(math.e)
_U = 2.0**-53


class RankedList(NamedTuple):
    query_id: int
    entries: tuple[tuple[int, float], ...] = ()


# doc_id -> its (term, tf) pairs in sorted term order
Vectors = dict[int, list[tuple[str, int]]]


# Rounding bound (Higham 2002, ch. 3), u = 2**-53. Let L_t = ln(N / df) as
# computed, and C a document's cosine with the query over weights tf * L_t.
# ``rank`` returns C * (1 + θ), and so does the direct base-b arithmetic,
# with weights tf * (L_t / ln b) rounded as ``weighting.idf`` rounds them:
# log_b x = ln x / ln b, so the base multiplies every weight by 1 / ln b,
# which cosine cancels. In both, |θ| <= γ_K for K = k + n + m + 22 (k shared
# terms, n query terms, m document terms): every weight, product and square
# is rounded a few times, and each sum of non-negative terms adds γ of its
# length. With k <= n and m <= V, the vocabulary size, two documents whose
# base-e scores differ by more than a relative 4 γ_K <= 8 K u rank in the
# same order under the direct arithmetic at any base; 16 K u leaves room for
# the rounding of the comparison. Validated inputs keep every product a
# normal double.


def near_tie_groups(index: InvertedIndex, tokens: list[str], ranked: RankedList
                    ) -> list[tuple[int, int]]:
    """(start, stop) of every run of two or more consecutive positive scores
    of the base-e ``ranked`` that the bound above cannot order: the gap after
    position i is safe when score i+1 < score i * (1 - 16 K u), with
    K <= V + 2 n + 22 for n distinct query terms."""
    scores = list(map(itemgetter(1), ranked.entries))
    gap = 1.0 - 16 * (len(index.dictionary) + 2 * len(set(tokens)) + 22) * _U
    safe = map(lt, scores[1:], map(mul, scores, repeat(gap)))
    cuts = [0, *compress(count(1), safe), len(scores)]
    # zero scores (zero dot products) rank last and tie in every arithmetic
    return [(start, stop) for start, stop in zip(cuts, cuts[1:])
            if stop - start > 1 and scores[start] > 0.0]


class Ranker:
    """Scores queries against one index at one log base.

    Scoring happens at base e: a query's terms get ``weighting.idf`` at base
    e, computed for those terms alone, and each document's norm is the base-e
    one the index stores. Documents too close for the bound above to order
    them are re-scored from their term vectors with the weights of the
    scheme's base computed directly (``settle``).
    """

    def __init__(self, index: InvertedIndex, scheme: WeightScheme):
        self.index = index
        self.scheme = scheme

    def accumulate(self, tokens: list[str]) -> tuple[float, dict[int, float]]:
        """Base-e query norm and dot product with every document sharing a
        term.

        Term-at-a-time: one pass over each query term's postings.
        """
        query_weights = weigh_query(self.index, tokens, _BASE_E)
        if not query_weights:
            return 0.0, {}
        # plain left-to-right addition: sum() compensates floats from 3.12
        query_norm = math.sqrt(reduce(add, [w * w for _, w, _ in query_weights], 0.0))
        dot: dict[int, float] = {}
        for term, weight, term_idf in query_weights:
            doc_ids, tfs = self.index.dictionary[term]
            for doc_id, tf in zip(doc_ids, tfs):
                dot[doc_id] = dot.get(doc_id, 0.0) + weight * (tf * term_idf)
        return query_norm, dot

    def rank(self, query_id: int, acc: tuple[float, dict[int, float]]) -> RankedList:
        """Base-e cosine ranking from base-e accumulators."""
        query_norm, dot = acc
        norms = self.index.norms
        entries = []
        for doc_id in sorted(dot):
            denom = query_norm * norms[doc_id]
            entries.append((doc_id, dot[doc_id] / denom if denom != 0.0 else 0.0))
        # stable sort: equal scores keep ascending doc_id order
        entries.sort(key=itemgetter(1), reverse=True)
        return RankedList(query_id, tuple(entries))

    def rank_tokens(self, query_id: int, tokens: list[str]) -> RankedList:
        """Rank all documents sharing at least one term with the query, at
        the scheme's base.

        The scores are the base-e ones (``rank``), but for the near-tie
        groups (``near_tie_groups``), which are re-scored with the weights of
        the scheme's base computed directly (``settle``), so the order is the
        one those weights give.
        """
        ranked = self.rank(query_id, self.accumulate(tokens))
        groups = near_tie_groups(self.index, tokens, ranked)
        if not groups:
            return ranked
        members = [doc_id for start, stop in groups for doc_id, _ in ranked.entries[start:stop]]
        return self.settle(ranked, groups, tokens, term_vectors(self.index, members))

    def settle(self, ranked: RankedList, groups: list[tuple[int, int]], tokens: list[str],
               vectors: Vectors) -> RankedList:
        """Re-score and re-sort each group of positions of ``ranked`` with the
        scheme's base computed directly. A member's dot product with the
        query weights and its squared norm come from its term vector
        (``term_vectors``), each added in sorted term order."""
        entries = list(ranked.entries)
        weights = weigh_query(self.index, tokens, self.scheme)
        query_norm = math.sqrt(reduce(add, [w * w for _, w, _ in weights], 0.0))
        query = {term: weight for term, weight, _ in weights}
        idfs: dict[str, float] = {}
        for start, stop in groups:
            group = []
            for doc_id in sorted(doc_id for doc_id, _ in entries[start:stop]):
                dot = square = 0.0
                for term, tf in vectors[doc_id]:
                    if term not in idfs:
                        idfs[term] = idf(self.index, term, self.scheme)
                    w = tf * idfs[term]
                    square += w * w
                    if term in query:
                        dot += query[term] * w
                denom = query_norm * math.sqrt(square)
                group.append((doc_id, dot / denom if denom != 0.0 else 0.0))
            # stable sort: equal scores keep ascending doc_id order
            group.sort(key=itemgetter(1), reverse=True)
            entries[start:stop] = group
        return RankedList(ranked.query_id, tuple(entries))


def term_vectors(index: InvertedIndex, doc_ids: Iterable[int]) -> Vectors:
    """Each given document's (term, tf) pairs in sorted term order, from one
    pass over the postings that picks out the given documents' postings in
    C."""
    wanted = set(doc_ids)
    vectors: Vectors = {doc_id: [] for doc_id in wanted}
    for term, (ids, tfs) in index.dictionary.items():
        for p in compress(count(), map(wanted.__contains__, ids)):
            vectors[ids[p]].append((term, tfs[p]))
    return vectors


def format_run(ranked_lists: list[RankedList]) -> str:
    """Run-file form: one ``query_id doc_id rank score`` TSV line per entry."""
    lines = []
    for rl in ranked_lists:
        for position, (doc_id, score) in enumerate(rl.entries, start=1):
            lines.append(f"{rl.query_id}\t{doc_id}\t{position}\t{score!r}\n")
    return "".join(lines)
