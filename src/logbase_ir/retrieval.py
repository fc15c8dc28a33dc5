"""Cosine-similarity ranking of documents against a weighted query.

Scoring is deterministic: query terms are visited in sorted order, postings
in doc_id order, and ties in the final ordering break toward the smaller
doc_id. Repeated runs produce bit-identical rankings.

Queries are scored at base e, and only documents too close for rounding to
order them are re-scored at the ranker's base, from the term vectors the
index hands out (``InvertedIndex.term_vectors``).
"""

import math
from collections.abc import Iterator
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


# query id -> its near-tie groups, each as (start, stop) positions
Groups = dict[int, list[tuple[int, int]]]


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
    one the index stores. Every command ranks in the same two calls: ``plan``
    ranks at base e and finds the documents too close for the bound above to
    order them, and ``settle`` re-scores those with the weights of the
    scheme's base computed directly, from the term vectors it asks the index
    for (``InvertedIndex.term_vectors``).
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
        the scheme's base: ``plan``, then ``settle``, for this query alone."""
        q = {query_id: tokens}
        return self.settle(q, *self.plan(q))[query_id]

    def plan(self, query_tokens: dict[int, list[str]], depth: int | None = None
             ) -> tuple[dict[int, RankedList], Groups]:
        """Each query's base-e ranking (``rank``) and, for each query that
        has any, its near-tie groups (``near_tie_groups``) that start before
        ``depth`` (all of them for None)."""
        rankings, groups = {}, {}
        for qid, tokens in query_tokens.items():
            ranked = rankings[qid] = self.rank(qid, self.accumulate(tokens))
            found = [(start, stop) for start, stop in near_tie_groups(self.index, tokens, ranked)
                     if depth is None or start < depth]
            if found:
                groups[qid] = found
        return rankings, groups

    def settle(self, query_tokens: dict[int, list[str]], rankings: dict[int, RankedList],
               groups: Groups) -> dict[int, RankedList]:
        """The rankings with each group of positions re-scored and re-sorted
        with the scheme's base computed directly; a query with no group keeps
        its ranking. The members' term vectors come from the index in one
        call (``InvertedIndex.term_vectors``); a member's dot product with
        the query weights and its squared norm are each added in sorted term
        order, with one idf per term for the whole call."""
        settled = dict(rankings)
        vectors = self.index.term_vectors(group_members(rankings, groups))
        idfs: dict[str, float] = {}
        for qid, query_groups in groups.items():
            entries = list(rankings[qid].entries)
            weights = weigh_query(self.index, query_tokens[qid], self.scheme)
            query_norm = math.sqrt(reduce(add, [w * w for _, w, _ in weights], 0.0))
            query = {term: weight for term, weight, _ in weights}
            for start, stop in query_groups:
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
            settled[qid] = RankedList(qid, tuple(entries))
        return settled


def group_members(rankings: dict[int, RankedList], groups: Groups) -> Iterator[int]:
    """The doc id of every member of every group of every query."""
    return (doc_id for qid, query_groups in groups.items() for start, stop in query_groups
            for doc_id, _ in rankings[qid].entries[start:stop])


def format_run(ranked_lists: list[RankedList]) -> str:
    """Run-file form: one ``query_id doc_id rank score`` TSV line per entry."""
    lines = []
    for rl in ranked_lists:
        for position, (doc_id, score) in enumerate(rl.entries, start=1):
            lines.append(f"{rl.query_id}\t{doc_id}\t{position}\t{score!r}\n")
    return "".join(lines)
