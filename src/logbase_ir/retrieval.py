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


def near_ties(scores: list[float], gap: float) -> list[tuple[int, int]]:
    """(start, stop) of every run of two or more consecutive scores, sorted
    descending, that no safe gap separates: the gap after position i is safe
    when score i+1 < score i * gap."""
    safe = map(lt, scores[1:], map(mul, scores, repeat(gap)))
    cuts = [0, *compress(count(1), safe), len(scores)]
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if stop - start > 1]


# Rounding bound (Higham 2002, ch. 3), u = 2**-53. Let L_t = ln(N / df) as
# computed, and C a document's cosine with the query over weights tf * L_t.
# ``rank`` at scale c = 1 / ln b returns C * (1 + θ), and so does the direct
# base-b arithmetic, with weights tf * (L_t / ln b) rounded as
# ``weighting.idf`` rounds them. In both, |θ| <= γ_K for K = k + n + m + 22
# (k shared terms, n query terms, m document terms): every weight, product
# and square is rounded a few times, and each sum of non-negative terms adds
# γ of its length. With k <= n and m <= V, the vocabulary size, two
# documents whose scaled scores differ by more than a relative 4 γ_K <= 8 K u
# rank in the same order under both; 16 K u leaves room for the rounding of
# the comparison. Validated inputs keep every product a normal double. The
# same holds between the base-e scores (c = 1) and the direct arithmetic at
# any base, which is what the sweep relies on.


def near_tie_gap(index: InvertedIndex, tokens: list[str]) -> float:
    """The gap of ``near_ties`` that keeps two documents' order the same in
    the rescaled and the direct arithmetic: 1 - 16 K u, K bounded as above."""
    k = len(index.dictionary) + 2 * len(set(tokens)) + 22
    return 1.0 - 16 * k * _U


class Ranker:
    """Scores queries against one index at one log base.

    Weighing happens at base e: a query's terms get ``weighting.idf`` at
    base e, computed for those terms alone, and each document's norm is the
    base-e one the index stores. Changing the base from e to b multiplies
    every weight by c = 1 / ln b (the scheme's ``scale``), which ``rank``
    applies to the base-e accumulators. Documents too close for that to
    order them are re-scored from their term vectors with the weights of
    the scheme's base computed directly (``settle``).
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

    def rank(
        self, query_id: int, acc: tuple[float, dict[int, float]], scale: float = 1.0
    ) -> RankedList:
        """Cosine ranking from base-e accumulators, every weight multiplied
        by scale.

        Scale c rescales the dot product by c*c and each norm by |c|; at
        c = 1.0 every multiplication is exact, so the scores are those of the
        base-e weights bit for bit.
        """
        query_norm, dot = acc
        norms = self.index.norms
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
        """Rank all documents sharing at least one term with the query, at
        the scheme's base.

        The scores are the base-e ones rescaled (``rank``). Documents whose
        scores are too close for the bound above to order them are re-scored
        with the weights of the scheme's base computed directly (``settle``),
        so the order is the one those weights give.
        """
        ranked = self.rank(query_id, self.accumulate(tokens), self.scheme.scale)
        scores = list(map(itemgetter(1), ranked.entries))
        # zero scores (zero dot products) tie in every arithmetic
        groups = [g for g in near_ties(scores, near_tie_gap(self.index, tokens))
                  if scores[g[0]] > 0.0]
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
