"""Seeded synthetic stand-ins for the classic collections, in SMART format.

Every word written into a collection has an index term that is known
without running the program's stemmer:

* words from ``data/word_stems.txt`` (frozen Porter conformance pairs),
* filler words from ``data/stopwords.txt``, all on the bundled stoplist,
* digit strings, which no Porter rule changes.

Each document, query and qrels file is generated from the seed alone, so
the same seed always gives byte-identical files. The generator also hands
the index terms of every document and query to the reference, which
therefore never tokenizes, stops or stems anything itself.

Topic model: every judged query owns a small set of mid-frequency topic
terms; the query text is drawn from them and each of its relevant documents
gets a few extra topic tokens. Background text is Zipf-distributed over a
vocabulary whose head is the stemmer words and whose tail is digit strings.
Drawing query terms from the middle of that distribution keeps the
candidate set of a query to a fraction of the collection, as with real
queries, instead of nearly every document.

Run as a script to print the make-up of each shape for one seed::

    python3 perfbench/gen.py 1
"""

import itertools
import os
import random
import sys
from dataclasses import dataclass, field

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _read_pairs(name: str) -> list[list[str]]:
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return [line.split() for line in f if line.strip() and not line.startswith("#")]


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one synthetic collection."""

    name: str
    n_docs: int
    body_len: tuple[int, int]  # content tokens per document body
    title_len: tuple[int, int]
    vocab: int  # distinct index terms available to the background text
    n_queries: int
    relevant: tuple[int, int]  # relevant documents per judged query
    query_len: tuple[int, int]  # content tokens per query
    topic_ranks: tuple[int, int]  # vocabulary ranks topic terms come from
    stop_share: float = 0.35  # share of filler stopwords in running text


# Shapes follow the published sizes of the collections they stand in for.
MED = Shape("med", 1033, (60, 250), (4, 12), 6000, 30, (18, 28), (6, 12), (40, 1500))
CRAN = Shape("cran", 1400, (40, 160), (4, 12), 4500, 225, (4, 12), (5, 10), (30, 1200))
NPL = Shape("npl", 11000, (8, 40), (0, 0), 7800, 93, (15, 30), (4, 8), (20, 2500))
SHAPES = {s.name: s for s in (MED, CRAN, NPL)}


@dataclass
class Collection:
    """Generated texts plus the index terms the reference works from."""

    docs: dict[int, list[str]] = field(default_factory=dict)  # doc id -> terms
    queries: dict[int, list[str]] = field(default_factory=dict)  # query id -> terms
    query_text: dict[int, str] = field(default_factory=dict)
    qrels: dict[int, set[int]] = field(default_factory=dict)
    docs_smart: str = ""
    queries_smart: str = ""
    qrels_rel: str = ""


class _Words:
    """Vocabulary: term rank -> surface words, plus the word -> term map."""

    def __init__(self, shape: Shape, rng: random.Random):
        by_stem: dict[str, list[str]] = {}
        for word, stem in _read_pairs("word_stems.txt"):
            by_stem.setdefault(stem, []).append(word)
        stems = sorted(by_stem)
        rng.shuffle(stems)
        digits = [str(n) for n in rng.sample(range(100, 1_000_000), shape.vocab - len(stems))]
        # head of the distribution: words; tail: digit strings
        self.terms = stems + digits
        self.surface = [by_stem.get(t, [t]) for t in self.terms]
        self.stopwords = [w for (w,) in _read_pairs("stopwords.txt")]
        weights = [1.0 / (r + 1) for r in range(len(self.terms))]
        self.cum = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random, k: int) -> list[int]:
        return rng.choices(range(len(self.terms)), cum_weights=self.cum, k=k)


def _render(rng: random.Random, words: list[str], stopwords: list[str], share: float) -> str:
    """Running text: filler stopwords, sentence case, punctuation, wrapping."""
    out: list[str] = []
    sentence = 0
    for word in words:
        while rng.random() < share:
            out.append(rng.choice(stopwords))
        out.append(word)
    text: list[str] = []
    for word in out:
        if sentence == 0:
            word = word.capitalize()
        sentence += 1
        if sentence >= rng.randint(8, 20):
            word += "."
            sentence = 0
        elif rng.random() < 0.05:
            word += ","
        text.append(word)
    lines, line = [], ""
    for word in text:
        if line and len(line) + 1 + len(word) > 72:
            lines.append(line)
            line = word
        else:
            line = f"{line} {word}" if line else word
    if line:
        lines.append(line)
    return "\n".join(lines)


def generate(shape: Shape, seed: int) -> Collection:
    """The collection of one shape for one seed."""
    rng = random.Random(f"{shape.name}-{seed}")
    words = _Words(shape, rng)
    col = Collection()

    # background term ranks of every document: title, then body
    doc_ids = list(range(1, shape.n_docs + 1))
    titles = {d: words.draw(rng, rng.randint(*shape.title_len)) for d in doc_ids}
    bodies = {d: words.draw(rng, rng.randint(*shape.body_len)) for d in doc_ids}

    # topics: each judged query gets topic terms, relevant docs and its text
    lo, hi = shape.topic_ranks
    # Relevant-set sizes that are multiples of 20 are left out: with them
    # the program buckets some recalls one level low (README, Findings), on
    # some seeds only. The eval workload's probe shows that fault in every
    # run instead.
    sizes = [n for n in range(shape.relevant[0], shape.relevant[1] + 1) if n % 20]
    queries: dict[int, list[int]] = {}
    for qid in range(1, shape.n_queries + 1):
        topic = rng.sample(range(lo, hi), 12)
        relevant = sorted(rng.sample(doc_ids, rng.choice(sizes)))
        col.qrels[qid] = set(relevant)
        for d in relevant:
            extra = rng.choices(topic, k=rng.randint(2, 8))
            pos = rng.randint(0, len(bodies[d]))
            bodies[d][pos:pos] = extra
        queries[qid] = rng.choices(topic, k=rng.randint(*shape.query_len))

    def surface(rank: int) -> str:
        return rng.choice(words.surface[rank])

    doc_parts = []
    for d in doc_ids:
        title_words = [surface(r) for r in titles[d]]
        body_words = [surface(r) for r in bodies[d]]
        col.docs[d] = [words.terms[r] for r in titles[d] + bodies[d]]
        author = f"{surface(words.draw(rng, 1)[0]).capitalize()}, {rng.choice('ABCDEFGHJKLMN')}."
        record = [f".I {d}"]
        if title_words:
            record += [".T", _render(rng, title_words, words.stopwords, shape.stop_share)]
        record += [".A", author, ".W", _render(rng, body_words, words.stopwords, shape.stop_share)]
        doc_parts.append("\n".join(record))
    col.docs_smart = "\n".join(doc_parts) + "\n"

    query_parts = []
    for qid, ranks in queries.items():
        text = _render(rng, [surface(r) for r in ranks], words.stopwords, shape.stop_share)
        col.queries[qid] = [words.terms[r] for r in ranks]
        col.query_text[qid] = text.replace("\n", " ")
        query_parts.append(f".I {qid}\n.W\n{text}")
    col.queries_smart = "\n".join(query_parts) + "\n"
    col.qrels_rel = "".join(
        f"{qid} 0 {d} 1\n" for qid in sorted(col.qrels) for d in sorted(col.qrels[qid])
    )
    return col


def probe() -> Collection:
    """A fixed collection whose evaluation meets a recall of exactly 3/20.

    Fifty documents share the term ``4242`` with the query and tie, so
    they rank in doc id order; twenty of them, the odd ids 1 to 39, are
    relevant. The recall 3/20 = 0.15 lies on the lower edge of level 0.2.
    Nothing here depends on the seed.
    """
    col = Collection()
    for d in range(1, 61):
        col.docs[d] = (["4242"] if d <= 50 else [str(5000 + d)]) + [str(1000 + d)]
    col.queries[1] = ["4242"]
    col.query_text[1] = "4242"
    col.qrels[1] = set(range(1, 40, 2))
    col.docs_smart = "".join(f".I {d}\n.W\n{' '.join(t)}\n" for d, t in col.docs.items())
    col.queries_smart = ".I 1\n.W\n4242\n"
    col.qrels_rel = "".join(f"1 0 {d} 1\n" for d in sorted(col.qrels[1]))
    return col


def write(col: Collection, directory: str) -> dict[str, str]:
    """Write the collection's three files; returns their paths by role."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "docs": os.path.join(directory, "docs.all"),
        "queries": os.path.join(directory, "queries.qry"),
        "qrels": os.path.join(directory, "qrels.rel"),
    }
    for role, content in (
        ("docs", col.docs_smart),
        ("queries", col.queries_smart),
        ("qrels", col.qrels_rel),
    ):
        with open(paths[role], "w", encoding="utf-8", newline="\n") as f:
            f.write(content)
    return paths


def describe(col: Collection) -> dict:
    """Docs, terms, postings, mean candidate set and relevant docs per query."""
    postings: dict[str, set[int]] = {}
    for d, terms in col.docs.items():
        for t in terms:
            postings.setdefault(t, set()).add(d)
    candidates = [
        len(set().union(*(postings.get(t, set()) for t in set(terms))))
        for terms in col.queries.values()
    ]
    return {
        "docs": len(col.docs),
        "terms": len(postings),
        "postings": sum(len(p) for p in postings.values()),
        "docs_bytes": len(col.docs_smart),
        "queries": len(col.queries),
        "mean_candidates": round(sum(candidates) / len(candidates), 1),
        "mean_relevant": round(sum(len(r) for r in col.qrels.values()) / len(col.qrels), 1),
    }


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    for shape in SHAPES.values():
        print(shape.name, describe(generate(shape, seed)))
