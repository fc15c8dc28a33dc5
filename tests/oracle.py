"""Brute-force reference models used to cross-check the package.

``dense_rank`` builds explicit term-space vectors for every document,
weights them with tf * log(N/df)/log(base) directly, and ranks by the cosine
formula written out in full. ``evaluate`` scores rankings from one
(recall, precision) point per rank. Both deliberately share no code with the
package implementation. ``porter_stem`` is the Porter stemmer with steps 2
to 4 scanning every suffix in list order, the reference for the package's
lookup by the word's last letter. ``consonants`` states Porter's consonant
rule letter by letter, the reference for the package's consonant/vowel form
and the conditions read from it.

Floats are added left to right (``total``), as the package adds them: from
Python 3.12, sum() adds floats with compensation, and a repr comparison
with the package would then differ in the last bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from logbase_ir import porter


def total(values) -> float:
    return reduce(add, values, 0.0)


def dense_rank(
    docs: dict[int, list[str]], query_tokens: list[str], base: float
) -> list[tuple[int, float]]:
    n = len(docs)
    vocab = sorted({t for tokens in docs.values() for t in tokens})
    df = {t: sum(1 for tokens in docs.values() if t in tokens) for t in vocab}
    idf = {t: math.log(n / df[t]) / math.log(base) for t in vocab}

    query_vec = [query_tokens.count(t) * idf[t] for t in vocab]
    query_norm = math.sqrt(total(w * w for w in query_vec))

    results = []
    for doc_id in sorted(docs):
        tokens = docs[doc_id]
        if not any(t in tokens for t in query_tokens if t in df):
            continue
        doc_vec = [tokens.count(t) * idf[t] for t in vocab]
        doc_norm = math.sqrt(total(w * w for w in doc_vec))
        dot = total(a * b for a, b in zip(query_vec, doc_vec))
        if query_norm == 0.0 or doc_norm == 0.0:
            score = 0.0
        else:
            score = dot / (query_norm * doc_norm)
        results.append((doc_id, score))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def random_corpus(rng, max_docs=10, max_terms=15, max_queries=5):
    """A small random corpus: (docs, queries) over a bounded vocabulary."""
    vocab = [f"t{i}" for i in range(rng.randint(2, max_terms))]
    n_docs = rng.randint(2, max_docs)
    docs = {}
    for doc_id in range(1, n_docs + 1):
        length = rng.randint(0, 12)
        docs[doc_id] = [rng.choice(vocab) for _ in range(length)]
    queries = []
    for _ in range(rng.randint(1, max_queries)):
        length = rng.randint(1, 6)
        queries.append([rng.choice(vocab + ["zzz"]) for _ in range(length)])
    return docs, queries


# 11-level evaluation written out per rank point: the reference for
# logbase_ir.evaluation, sharing no code with it. Recall is compared exactly:
# pr_points keeps it as a Fraction, and a float recall given by hand stands
# for the decimal it prints as, so 0.15 is on the 0.1/0.2 edge and 0.6 is at
# level 0.6.
_EDGES = [Fraction(2 * k + 1, 20) for k in range(10)]


@dataclass(frozen=True)
class PRPoint:
    rank: int
    recall: Fraction | float
    precision: float


def pr_points(entries, relevant, cutoff) -> list[PRPoint]:
    """Recall and precision at every rank position up to cutoff."""
    points = []
    hits = 0
    for position, (doc_id, _score) in enumerate(entries[:cutoff], start=1):
        if doc_id in relevant:
            hits += 1
        points.append(PRPoint(position, Fraction(hits, len(relevant)), hits / position))
    return points


def _exact(recall) -> Fraction:
    return Fraction(str(recall))


def level_of(recall) -> int:
    """Level 0..10 owning a recall: [L - 1/20, L + 1/20), half-open upwards."""
    return sum(1 for edge in _EDGES if edge <= _exact(recall))


def bucketize(points: list[PRPoint]) -> list[list[float]]:
    buckets = [[] for _ in range(11)]
    for p in points:
        buckets[level_of(p.recall)].append(p.precision)
    return buckets


def bucket_to_levels(points: list[PRPoint]) -> tuple[float, ...]:
    """Mean precision per level bucket; an empty bucket gives 0.0."""
    return tuple(total(b) / len(b) if b else 0.0 for b in bucketize(points))


def evaluate(rankings, qrels, cutoff):
    """(levels, map, map_at_30, diagnostics) as evaluate_rankings defines them.

    ``rankings`` maps query id to a list of (doc_id, score) entries.
    """
    curves = [(q, pr_points(rankings[q], qrels[q], cutoff)) for q in sorted(qrels)]
    diagnostics = [
        (q, i) for q, points in curves for i, b in enumerate(bucketize(points)) if not b
    ]
    per_query = [bucket_to_levels(points) for _, points in curves]
    levels = tuple(total(v[i] for v in per_query) / len(per_query) for i in range(11))
    return levels, total(levels) / 11, total(levels[:4]) / 4, diagnostics


def consonants(word: str) -> list[bool]:
    """Whether each letter is a consonant: a letter other than a, e, i, o
    and u, and other than a y after a consonant."""
    marks = []
    for i, ch in enumerate(word):
        marks.append(ch not in "aeiou" and not (ch == "y" and i > 0 and marks[i - 1]))
    return marks


def measure(stem: str) -> int:
    """The m of [C](VC){m}[V]: the consonants that follow a vowel."""
    marks = consonants(stem)
    return sum(1 for i in range(1, len(stem)) if marks[i] and not marks[i - 1])


def has_vowel(stem: str) -> bool:
    return not all(consonants(stem))


def ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and consonants(word)[-1]


def ends_cvc(word: str) -> bool:
    marks = consonants(word)
    return (len(word) >= 3 and marks[-3] and not marks[-2] and marks[-1]
            and word[-1] not in "wxy")


# Porter steps 2 to 4 as a linear scan of the flat rule lists, with the
# measure above; steps 1 and 5 are the package's own. The lists are copies,
# so a reordering in the package shows as a difference.
STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _apply_rules(word: str, rules) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if measure(stem) > 0:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if measure(stem) > 1:
                return stem
            return word
    return word


def porter_stem(word: str) -> str:
    if len(word) < 3:
        return word
    word = porter._step1c(porter._step1b(porter._step1a(word)))
    word = _step4(_apply_rules(_apply_rules(word, STEP2_RULES), STEP3_RULES))
    return porter._step5b(porter._step5a(word))
