"""Inverted index: one posting list of doc ids and term frequencies per term.

The index is an immutable snapshot built once per collection. Terms and
postings are kept in sorted order so every downstream traversal (weighting,
scoring, serialization) is reproducible run to run.
"""

import json
from collections import Counter
from operator import lt

# term -> (doc_ids, tfs): equal-length tuples, doc ids strictly increasing
Entry = tuple[tuple[int, ...], tuple[int, ...]]


class InvertedIndex:
    """Document count plus term dictionary.

    Attributes:
        n_docs: total number of documents, including ones that produced no
            tokens.
        dictionary: term -> (doc_ids, tfs), keys in sorted term order; a
            term's document frequency is the length of its doc_ids.
    """

    FORMAT_VERSION = 2

    def __init__(self, n_docs: int, dictionary: dict[str, Entry]):
        self.n_docs = n_docs
        self.dictionary = dictionary

    def doc_freq(self, term: str) -> int:
        postings = self.dictionary.get(term)
        return len(postings[0]) if postings else 0

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "n_docs": self.n_docs,
            "dictionary": {
                term: [list(ids), list(tfs)] for term, (ids, tfs) in self.dictionary.items()
            },
        }

    def save(self, path: str) -> None:
        # json.dumps runs the C encoder; json.dump would stream through the
        # pure-Python one
        text = json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    @classmethod
    def from_dict(cls, data) -> "InvertedIndex":
        """Validate a decoded snapshot; raises ValueError naming the fault."""
        if not isinstance(data, dict):
            raise ValueError("index snapshot is not a JSON object")
        version = data.get("format_version")
        if version == 1:
            raise ValueError(
                "index snapshot has format version 1, which is no longer read; "
                "rebuild it with `logbase-ir index --save-index`"
            )
        if version != cls.FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version!r}")
        n_docs = data.get("n_docs")
        if type(n_docs) is not int or n_docs < 1:
            raise ValueError(f"index snapshot: n_docs must be an integer >= 1, got {n_docs!r}")
        entries = data.get("dictionary")
        if not isinstance(entries, dict):
            raise ValueError("index snapshot: dictionary is not a JSON object")
        dictionary: dict[str, Entry] = {}
        seen: set[int] = set()
        for term in sorted(entries):
            entry = entries[term]
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(column, list) for column in entry)
            ):
                raise ValueError(f"index snapshot: term {term!r}: expected [doc_ids, tfs]")
            ids, tfs = entry
            if not ids or len(ids) != len(tfs):
                raise ValueError(
                    f"index snapshot: term {term!r}: doc_ids and tfs must be "
                    f"non-empty and of equal length, got {len(ids)} and {len(tfs)}"
                )
            if not set(map(type, ids)) | set(map(type, tfs)) <= {int}:
                raise ValueError(f"index snapshot: term {term!r}: non-integer doc id or tf")
            if not all(map(lt, ids, ids[1:])):
                raise ValueError(f"index snapshot: term {term!r}: doc ids not strictly increasing")
            if min(tfs) < 1:
                raise ValueError(f"index snapshot: term {term!r}: tf below 1")
            seen.update(ids)
            dictionary[term] = (tuple(ids), tuple(tfs))
        if len(seen) > n_docs:
            raise ValueError(
                f"index snapshot: {len(seen)} distinct doc ids but n_docs is {n_docs}"
            )
        return cls(n_docs, dictionary)

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except RecursionError:
                raise ValueError("index snapshot: JSON nested too deeply") from None
        return cls.from_dict(data)


def build_index(docs: list[tuple[int, list[str]]]) -> InvertedIndex:
    """Build an index from (doc_id, tokens) pairs.

    Documents with no tokens still count toward n_docs. Raises ValueError on
    an empty document list or duplicate doc_ids.
    """
    if not docs:
        raise ValueError("empty collection: no documents to index")
    seen: set[int] = set()
    term_docs: dict[str, dict[int, int]] = {}
    for doc_id, tokens in docs:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id}")
        seen.add(doc_id)
        for term, tf in Counter(tokens).items():
            term_docs.setdefault(term, {})[doc_id] = tf
    dictionary = {
        term: tuple(zip(*sorted(by_doc.items())))
        for term, by_doc in sorted(term_docs.items())
    }
    return InvertedIndex(len(docs), dictionary)
