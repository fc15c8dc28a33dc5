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


class TermNotInCollectionError(KeyError):
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


DEFAULT_SCHEME = WeightScheme(base=10.0)


@dataclass(frozen=True)
class TermWeight:
    term: str
    weight: float


def log_base(x: float, b: float) -> float:
    """log of x in base b via log(x)/log(b)."""
    if not (x > 0.0):
        raise ValueError(f"log argument must be positive, got {x!r}")
    if not (b > 0.0) or b == 1.0:
        raise InvalidBaseError(f"log base must be positive and != 1, got {b!r}")
    return math.log(x) / math.log(b)


def idf(index: InvertedIndex, term: str, scheme: WeightScheme = DEFAULT_SCHEME) -> float:
    """Inverse document frequency log_b(N / df) of an in-vocabulary term.

    Exactly 0.0 when the term occurs in every document. Raises
    TermNotInCollectionError when df = 0; callers decide whether to skip.
    """
    df = index.doc_freq(term)
    if df == 0:
        raise TermNotInCollectionError(term)
    if df == index.n_docs:
        return 0.0
    return log_base(index.n_docs / df, scheme.base)


def weigh_query(
    index: InvertedIndex, query_tokens: list[str], scheme: WeightScheme = DEFAULT_SCHEME
) -> list[TermWeight]:
    """TF-IDF weights for query tokens; out-of-vocabulary terms are dropped."""
    counts = Counter(query_tokens)
    weights = []
    for term in sorted(counts):
        if index.doc_freq(term) == 0:
            continue
        weights.append(TermWeight(term, counts[term] * idf(index, term, scheme)))
    return weights
