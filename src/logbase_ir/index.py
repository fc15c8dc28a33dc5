"""Inverted index: one posting list of doc ids and term frequencies per term.

The index is an immutable snapshot built once per collection. Terms and
postings are kept in sorted order so every downstream traversal (weighting,
scoring, serialization) is reproducible run to run.

Snapshot format 3 is one JSON header line (``format_version``, ``n_docs``,
``stoplist_sha256``, the sorted ``terms`` and one ``df`` per term) followed by
two little-endian int64 columns in term order: every doc id, then every term
frequency. A load reads both columns with one ``frombytes`` each.
"""

import json
import os
import sys
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, compress, count, filterfalse, islice, repeat
from operator import ge, is_not, lt

# term -> (doc_ids, tfs): equal-length int64 arrays, doc ids strictly increasing
Entry = tuple[array, array]

_INT64 = range(-(2**63), 2**63)


class InvertedIndex:
    """Document count plus term dictionary.

    Attributes:
        n_docs: total number of documents, including ones that produced no
            tokens.
        dictionary: term -> (doc_ids, tfs), keys in sorted term order; a
            term's document frequency is the length of its doc_ids.
        stoplist_sha256: fingerprint of the stoplist the tokens were made
            with (``textpipe.stoplist_fingerprint``); empty when unknown.
    """

    FORMAT_VERSION = 3

    def __init__(self, n_docs: int, dictionary: dict[str, Entry], stoplist_sha256: str = ""):
        self.n_docs = n_docs
        self.dictionary = dictionary
        self.stoplist_sha256 = stoplist_sha256

    def doc_freq(self, term: str) -> int:
        postings = self.dictionary.get(term)
        return len(postings[0]) if postings else 0

    def snapshot_parts(self) -> tuple[bytes, array, array]:
        """The snapshot's header line and its doc-id and tf columns, each
        column in the file's little-endian byte order."""
        ids, tfs = array("q"), array("q")
        for doc_ids, term_tfs in self.dictionary.values():
            ids += doc_ids
            tfs += term_tfs
        if sys.byteorder == "big":
            ids.byteswap()
            tfs.byteswap()
        header = {
            "format_version": self.FORMAT_VERSION,
            "n_docs": self.n_docs,
            "stoplist_sha256": self.stoplist_sha256,
            "terms": list(self.dictionary),
            "df": [len(doc_ids) for doc_ids, _ in self.dictionary.values()],
        }
        line = json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n"
        return line.encode("utf-8"), ids, tfs

    def save(self, path: str) -> None:
        """Write a format-3 snapshot atomically (``write_atomic``): an
        interrupted save leaves any earlier snapshot whole."""
        write_atomic(path, *self.snapshot_parts())

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        """Read and validate a snapshot; raises ValueError naming the fault."""
        with open(path, "rb") as f:
            data = f.read()
        end = data.find(b"\n")
        if end < 0:
            end = len(data)
        header = _header(data[:end])
        n_docs, terms, df = header["n_docs"], header["terms"], header["df"]
        body = memoryview(data)[end + 1:]
        n = sum(df)
        if len(body) != 16 * n:
            raise ValueError(
                f"index snapshot: body is {len(body)} bytes, expected {16 * n} "
                f"(16 per posting, {n} postings)"
            )
        ids, tfs = array("q"), array("q")
        ids.frombytes(body[: 8 * n])
        tfs.frombytes(body[8 * n:])
        if sys.byteorder == "big":
            ids.byteswap()
            tfs.byteswap()
        starts = list(accumulate(df, initial=0))

        def term_at(position: int) -> str:
            return terms[bisect_right(starts, position) - 1]

        if tfs and min(tfs) < 1:
            raise ValueError(f"index snapshot: term {term_at(tfs.index(min(tfs)))!r}: tf below 1")
        # a doc id no greater than the one before it must start a new term
        non_increasing = compress(count(1), map(ge, ids, islice(ids, 1, None)))
        inside = next(filterfalse(set(starts).__contains__, non_increasing), None)
        if inside is not None:
            raise ValueError(
                f"index snapshot: term {term_at(inside)!r}: doc ids not strictly increasing"
            )
        distinct = len(set(ids))
        if distinct > n_docs:
            raise ValueError(
                f"index snapshot: {distinct} distinct doc ids but n_docs is {n_docs}"
            )
        dictionary = {
            term: (ids[start:stop], tfs[start:stop])
            for term, start, stop in zip(terms, starts, islice(starts, 1, None))
        }
        return cls(n_docs, dictionary, header["stoplist_sha256"])


def write_atomic(path: str, *parts) -> None:
    """Write the bytes-like ``parts`` to a temporary file in the same
    directory, then rename it over ``path``. An error or interrupt removes the
    temporary file and leaves any earlier file at ``path`` whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _header(line: bytes) -> dict:
    """Decode and check a snapshot's header line."""
    try:
        header = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise ValueError("index snapshot: header is not UTF-8") from None
    except RecursionError:
        raise ValueError("index snapshot: JSON nested too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("index snapshot header is not a JSON object")
    version = header.get("format_version")
    if version in (1, 2):
        raise ValueError(
            f"index snapshot has format version {version}, which is no longer read; "
            "rebuild it with `logbase-ir index --save-index`"
        )
    if version != InvertedIndex.FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {version!r}")
    n_docs = header.get("n_docs")
    if type(n_docs) is not int or n_docs < 1:
        raise ValueError(f"index snapshot: n_docs must be an integer >= 1, got {n_docs!r}")
    if not isinstance(header.get("stoplist_sha256"), str):
        raise ValueError("index snapshot: stoplist_sha256 is not a string")
    terms, df = header.get("terms"), header.get("df")
    if not (isinstance(terms, list) and isinstance(df, list)):
        raise ValueError("index snapshot: dictionary: terms and df must be lists")
    if len(terms) != len(df):
        raise ValueError(
            f"index snapshot: dictionary: {len(terms)} terms and {len(df)} df values, "
            "expected equal length"
        )
    if not set(map(type, terms)) <= {str}:
        raise ValueError("index snapshot: dictionary: a term is not a string")
    later = islice(terms, 1, None)
    unordered = next(compress(islice(terms, 1, None), map(ge, terms, later)), None)
    if unordered is not None:
        raise ValueError(f"index snapshot: term {unordered!r}: terms not strictly increasing")
    bad = next(compress(zip(terms, df), map(is_not, map(type, df), repeat(int))), None)
    if bad is not None:
        raise ValueError(
            f"index snapshot: term {bad[0]!r}: non-integer df {bad[1]!r}, expected an int >= 1"
        )
    bad = next(compress(zip(terms, df), map(lt, df, repeat(1))), None)
    if bad is not None:
        raise ValueError(
            f"index snapshot: term {bad[0]!r}: df {bad[1]} below 1, "
            "expected a non-empty posting list"
        )
    return header


def build_index(
    docs: list[tuple[int, list[str]]], stoplist_sha256: str = ""
) -> InvertedIndex:
    """Build an index from (doc_id, tokens) pairs.

    Documents with no tokens still count toward n_docs. Raises ValueError on
    an empty document list, duplicate doc_ids or a doc_id outside int64.
    """
    if not docs:
        raise ValueError("empty collection: no documents to index")
    seen: set[int] = set()
    term_docs: defaultdict[str, dict[int, int]] = defaultdict(dict)
    for doc_id, tokens in docs:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id}")
        if doc_id not in _INT64:
            raise ValueError(f"doc_id {doc_id} does not fit in a signed 64-bit integer")
        seen.add(doc_id)
        for term, tf in Counter(tokens).items():
            term_docs[term][doc_id] = tf
    dictionary = {}
    for term, by_doc in sorted(term_docs.items()):
        doc_ids = sorted(by_doc)
        dictionary[term] = (array("q", doc_ids), array("q", map(by_doc.__getitem__, doc_ids)))
    return InvertedIndex(len(docs), dictionary, stoplist_sha256)
