"""TF-IDF weighting with a configurable logarithm base.

IDF of a term is log_b(N / df) computed by change of base, so any b > 0,
b != 1 is usable. Bases below 1 flip the sign of every weight; that is left
intact because cosine ranking is invariant under a uniform rescale.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .index import InvertedIndex


class InvalidBaseError(ValueError):
    pass


@dataclass(frozen=True)
class WeightScheme:
    """Weighting configuration: the single parameter is the log base."""

    base: float

    def __post_init__(self):
        if not (self.base > 0.0) or self.base == 1.0 or math.isinf(self.base):
            raise InvalidBaseError(
                f"log base must be positive and != 1, got {self.base!r}"
            )


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
) -> list[tuple[str, float]]:
    """(term, tf * idf) for each distinct query term in sorted order;
    out-of-vocabulary terms are dropped."""
    counts = Counter(query_tokens)
    return [
        (term, counts[term] * idf(index, term, scheme))
        for term in sorted(counts)
        if index.doc_freq(term)
    ]
