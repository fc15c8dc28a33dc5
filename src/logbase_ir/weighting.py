"""TF-IDF weighting with a configurable logarithm base.

IDF of a term is log_b(N / df) computed by change of base, so any b > 0,
b != 1 is usable. Bases below 1 flip the sign of every weight; that is left
intact because cosine ranking is invariant under a uniform rescale.

Since log_b x = ln x / ln b, a weight at base b is the base-e weight times
1 / ln b, a factor that cosine cancels. Ranking therefore scores at base e
(``retrieval.Ranker.plan``), and weighs at the scheme's base only the
documents whose order rounding could change (``retrieval.Ranker.settle``),
from the term vectors the index keeps (``index.InvertedIndex.term_vectors``).
"""

import math
from collections import Counter

from .index import InvertedIndex


class WeightScheme:
    """A validated log base; any other value raises ``ValueError``."""

    __slots__ = ("base",)

    def __init__(self, base: float):
        if not (base > 0.0) or base == 1.0 or math.isinf(base):
            raise ValueError(f"log base must be positive and != 1, got {base!r}")
        self.base = base


def idf(index: InvertedIndex, term: str, scheme: WeightScheme) -> float:
    """Inverse document frequency log_b(N / df) of an in-vocabulary term.

    Exactly 0.0 when the term occurs in every document; KeyError for a term
    that occurs in none.
    """
    df = len(index.dictionary[term][0])
    if df == index.n_docs:
        return 0.0
    return math.log(index.n_docs / df) / math.log(scheme.base)


def weigh_query(
    index: InvertedIndex, query_tokens: list[str], scheme: WeightScheme
) -> list[tuple[str, float, float]]:
    """(term, tf * idf, idf) for each distinct query term in sorted order;
    out-of-vocabulary terms are dropped."""
    counts = Counter(query_tokens)
    weights = []
    for term in sorted(counts):
        if index.doc_freq(term):
            term_idf = idf(index, term, scheme)
            weights.append((term, counts[term] * term_idf, term_idf))
    return weights
