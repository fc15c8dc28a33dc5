"""Inverted index: one posting list of doc ids and term frequencies per term,
plus the length of every document's base-e weight vector.

The index is an immutable snapshot built once per collection. Terms and
postings are kept in sorted order so every downstream traversal (weighting,
scoring, serialization) is reproducible run to run.

Snapshot format 5 is one JSON header line (``body_sha256``, ``df``,
``format_version``, ``n_docs``, ``pipeline_version``, ``stoplist_sha256``
and the sorted ``terms``) followed by four little-endian columns of 8-byte
values, the first two in term order:

- postings (uint64): a term's first value is the position of its first
  document in the doc-id column, each later value the position less the
  previous position less 1 (a d-gap, Zobel & Moffat 2006, less one);
- tfs (uint64): each term frequency less 1;
- doc ids (int64): every document's id, ascending;
- norms (float64): every document's base-e norm, in the same order.

Every body decodes to tfs of at least 1 and positions strictly increasing
within each term, so a load checks no posting for order, membership or a
tf below 1. Per term it checks one sum: the term's last position, the sum
of its values plus df - 1, must be below ``n_docs``. One sum over the tf
column bounds every tf to int64. A loaded index decodes a term's postings
the first time the term is read (``_Postings``).
"""

import hashlib
import json
import math
import os
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from contextlib import suppress
from itertools import accumulate, compress, count, islice, repeat
from operator import add, ge, gt, is_not, lt, sub

from .textpipe import PIPELINE_VERSION

# term -> (doc_ids, tfs): equal-length int64 arrays, doc ids strictly increasing
Entry = tuple[array, array]


class InvertedIndex:
    """Document norms plus term dictionary.

    Attributes:
        norms: doc_id -> length of the document's base-e weight vector
            (``tf * ln(N / df)`` per term), every document in ascending
            doc_id order, including ones that produced no tokens (norm 0.0).
        n_docs: the number of documents, ``len(norms)``.
        dictionary: term -> (doc_ids, tfs), keys in sorted term order; a
            term's document frequency is the length of its doc_ids. A dict
            when built, a ``_Postings`` when loaded.
        stoplist_sha256: fingerprint of the stoplist the tokens were made
            with (``textpipe.stoplist_fingerprint``); empty when unknown.

    The term vectors that ``term_vectors`` gathers are kept for the life of
    the index, outside the snapshot.
    """

    FORMAT_VERSION = 5

    def __init__(
        self, norms: dict[int, float], dictionary: Mapping[str, Entry], stoplist_sha256: str = ""
    ):
        self.norms = norms
        self.n_docs = len(norms)
        self.dictionary = dictionary
        self.stoplist_sha256 = stoplist_sha256
        self._vectors: dict[int, list[tuple[str, int]]] = {}

    def doc_freq(self, term: str) -> int:
        postings = self.dictionary.get(term)
        return len(postings[0]) if postings else 0

    def term_vectors(self, doc_ids: Iterable[int]) -> dict[int, list[tuple[str, int]]]:
        """Each given document's (term, tf) pairs in sorted term order. The
        documents not asked for before are gathered in one pass over the
        postings that picks out their postings in C, and kept; a call whose
        every document is kept makes no pass."""
        asked = set(doc_ids)
        wanted = asked.difference(self._vectors)
        if wanted:
            gathered: dict[int, list[tuple[str, int]]] = {doc_id: [] for doc_id in wanted}
            for term, (ids, tfs) in self.dictionary.items():
                for p in compress(count(), map(wanted.__contains__, ids)):
                    gathered[ids[p]].append((term, tfs[p]))
            self._vectors.update(gathered)
        return {doc_id: self._vectors[doc_id] for doc_id in asked}

    def snapshot_parts(self) -> list:
        """The snapshot's header line, then its four columns, each in the
        file's little-endian byte order. The header holds the sha256 of the
        body, so nothing is concatenated."""
        position = dict(zip(self.norms, count()))
        postings, tfs = array("Q"), array("Q")
        for ids, term_tfs in self.dictionary.values():
            at = list(map(position.__getitem__, ids))
            # each position less the one after the previous posting, from 0
            postings.fromlist(list(map(sub, at, [0, *map(add, at, repeat(1))])))
            tfs.fromlist([tf - 1 for tf in term_tfs])
        body = [postings, tfs, array("q", self.norms), array("d", self.norms.values())]
        if sys.byteorder == "big":
            for column in body:
                column.byteswap()
        digest = hashlib.sha256()
        for column in body:
            digest.update(column)
        header = {
            "body_sha256": digest.hexdigest(),
            "format_version": self.FORMAT_VERSION,
            "n_docs": self.n_docs,
            "pipeline_version": PIPELINE_VERSION,
            "stoplist_sha256": self.stoplist_sha256,
            "terms": list(self.dictionary),
            "df": [len(ids) for ids, _ in self.dictionary.values()],
        }
        line = json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n"
        return [line.encode("utf-8"), *body]

    def save(self, path: str) -> None:
        """Write a format-5 snapshot atomically (``write_atomic``): an
        interrupted save leaves any earlier snapshot whole."""
        write_atomic(path, *self.snapshot_parts())

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        """Read and validate a snapshot; raises ValueError naming the fault.
        No term's postings are decoded here (``_Postings``)."""
        with open(path, "rb") as f:
            data = f.read()
        end = data.find(b"\n")
        if end < 0:
            end = len(data)
        header = _header(data[:end])
        n_docs, terms, df = header["n_docs"], header["terms"], header["df"]
        body = memoryview(data)[end + 1:]
        n = sum(df)
        if len(body) != 16 * (n + n_docs):
            raise ValueError(
                f"index snapshot: body is {len(body)} bytes, expected {16 * (n + n_docs)} "
                f"(16 per posting and per document: {n} postings, n_docs {n_docs})"
            )
        if hashlib.sha256(body).hexdigest() != header["body_sha256"]:
            raise ValueError("index snapshot: body does not match its sha256 in the header")
        postings, tfs, doc_ids, norms = array("Q"), array("Q"), array("q"), array("d")
        edges = (0, 8 * n, 16 * n, 16 * n + 8 * n_docs, len(body))
        for column, start, stop in zip((postings, tfs, doc_ids, norms), edges, edges[1:]):
            column.frombytes(body[start:stop])
            if sys.byteorder == "big":
                column.byteswap()
        starts = list(accumulate(df, initial=0))
        # the position of each term's last document: its values plus df - 1
        last = list(map(add, map(sum, map(postings.__getitem__, map(slice, starts, starts[1:]))),
                        map(sub, df, repeat(1))))
        past = next(compress(count(), map(ge, last, repeat(n_docs))), None)
        if past is not None:
            raise ValueError(
                f"index snapshot: term {terms[past]!r:.40}: last posting at position {last[past]} "
                f"of the doc-id column, expected below n_docs {n_docs}"
            )
        # every tf is at most the total, so every tf fits int64
        total = sum(tfs) + n
        if total >= 2**63:
            raise ValueError(f"index snapshot: tfs sum to {total}, expected below 2**63")
        unordered = next(compress(doc_ids[1:], map(ge, doc_ids, doc_ids[1:])), None)
        if unordered is not None:
            raise ValueError(
                f"index snapshot: doc id {unordered}: doc-id column not strictly increasing"
            )
        if not all(map(math.isfinite, norms)) or min(norms) < 0.0:
            bad = next(i for i, norm in enumerate(norms) if not 0.0 <= norm < math.inf)
            raise ValueError(
                f"index snapshot: doc id {doc_ids[bad]}: norm {norms[bad]!r}, "
                "expected a finite value >= 0"
            )
        return cls(dict(zip(doc_ids, norms)), _Postings(terms, starts, postings, tfs, doc_ids),
                   header["stoplist_sha256"])


class _Postings(Mapping):
    """The read-only dictionary of a loaded snapshot: term -> (doc_ids, tfs),
    in sorted term order, equal to the dict of the index built from the same
    documents. A term's entry is decoded from the columns the first time it
    is read and then kept, so a search decodes only its query's terms."""

    def __init__(self, terms: list[str], starts: list[int], postings: array, tfs: array,
                 doc_ids: array):
        self._number = dict(zip(terms, count()))
        self._starts = starts
        self._columns = postings, tfs, doc_ids
        self._decoded: dict[str, Entry] = {}

    def __getitem__(self, term: str) -> Entry:
        entry = self._decoded.get(term)
        if entry is None:
            i = self._number[term]
            start, stop = self._starts[i], self._starts[i + 1]
            postings, tfs, doc_ids = self._columns
            # each position is the previous one plus its value plus 1, from -1
            positions = accumulate(map(add, postings[start:stop], repeat(1)), initial=-1)
            entry = self._decoded[term] = (
                array("q", map(doc_ids.__getitem__, islice(positions, 1, None))),
                array("q", map(add, tfs[start:stop], repeat(1))),
            )
        return entry

    def __contains__(self, term: object) -> bool:
        return term in self._number

    def __iter__(self):
        return iter(self._number)

    def __len__(self) -> int:
        return len(self._number)


def write_atomic(path: str, *parts) -> None:
    """Write the bytes-like ``parts`` to a temporary file in the same
    directory, then rename it over ``path``. An error or interrupt removes the
    temporary file and leaves any earlier file at ``path`` whole; an OSError
    is raised again as one that names ``path`` and, by its ``strerror``, not
    the temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(f"cannot write {path}: {e.strerror or e}") from e
        raise


def write_report(path: str, content: str) -> None:
    """Write a report file atomically (``write_atomic``)."""
    write_atomic(path, content.encode("utf-8"))


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
    if version != InvertedIndex.FORMAT_VERSION:
        raise ValueError(
            f"index snapshot has format version {version!r:.40}, not "
            f"{InvertedIndex.FORMAT_VERSION}; rebuild it with `logbase-ir index --save-index`"
        )
    pipeline = header.get("pipeline_version")
    if type(pipeline) is not int or pipeline != PIPELINE_VERSION:
        raise ValueError(
            f"index snapshot was made by text pipeline version {pipeline!r:.40}, not "
            f"{PIPELINE_VERSION}; rebuild it with `logbase-ir index --save-index`"
        )
    n_docs = header.get("n_docs")
    # the length of an int64 column, like a doc id below 2**63
    if type(n_docs) is not int or not 1 <= n_docs < 2**63:
        raise ValueError(
            f"index snapshot: n_docs must be an integer from 1 to 2**63 - 1, got {n_docs!r:.40}"
        )
    for key in ("body_sha256", "stoplist_sha256"):
        if not isinstance(header.get(key), str):
            raise ValueError(f"index snapshot: {key} is not a string")
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
        raise ValueError(f"index snapshot: term {unordered!r:.40}: terms not strictly increasing")
    bad = next(compress(zip(terms, df), map(is_not, map(type, df), repeat(int))), None)
    if bad is not None:
        raise ValueError(
            f"index snapshot: term {bad[0]!r:.40}: non-integer df {bad[1]!r:.40}, "
            "expected an int >= 1"
        )
    bad = next(compress(zip(terms, df), map(lt, df, repeat(1))), None)
    if bad is not None:
        raise ValueError(
            f"index snapshot: term {bad[0]!r:.40}: df {bad[1]!r:.40} below 1, "
            "expected a non-empty posting list"
        )
    bad = next(compress(zip(terms, df), map(gt, df, repeat(n_docs))), None)
    if bad is not None:
        raise ValueError(
            f"index snapshot: term {bad[0]!r:.40}: df {bad[1]!r:.40} above n_docs {n_docs}, "
            "expected at most one posting per document"
        )
    return header


def build_index(
    docs: Iterable[tuple[int, list[str]]], stoplist_sha256: str = ""
) -> InvertedIndex:
    """Build an index, with every document's norm, from (doc_id, tokens) pairs.

    ``docs`` is read once, so it may be a generator that parses and tokenizes
    one document at a time: each document's term counts are appended to its
    terms' int64 columns and its tokens dropped. A term's columns are sorted
    by doc id only when the doc ids arrived out of order. Documents with no
    tokens still count toward n_docs. The doc ids must fit int64
    (``collection_io.parse_documents`` checks). Raises ValueError on an empty
    collection or a duplicate doc_id.
    """
    doc_ids: list[int] = []
    columns: dict[str, Entry] = {}
    for doc_id, tokens in docs:
        doc_ids.append(doc_id)
        for term, tf in Counter(tokens).items():
            try:
                ids, tfs = columns[term]
            except KeyError:
                ids, tfs = columns[term] = array("q"), array("q")
            ids.append(doc_id)
            tfs.append(tf)
    if not doc_ids:
        raise ValueError("empty collection: no documents to index")
    dictionary = {term: columns.pop(term) for term in sorted(columns)}
    ascending = sorted(doc_ids)
    for prev, doc_id in zip(ascending, ascending[1:]):
        if prev == doc_id:
            raise ValueError(f"duplicate doc_id {doc_id}")
    if doc_ids != ascending:
        for term, (ids, tfs) in dictionary.items():
            order = sorted(range(len(ids)), key=ids.__getitem__)
            dictionary[term] = (array("q", map(ids.__getitem__, order)),
                                array("q", map(tfs.__getitem__, order)))
    return InvertedIndex(_norms(ascending, dictionary), dictionary, stoplist_sha256)


def _norms(doc_ids: list[int], dictionary: dict[str, Entry]) -> dict[int, float]:
    """Length of each document's base-e weight vector, doc ids ascending.

    One pass over the postings in sorted term order, so each document's
    squares are added in the order of its terms. A term's weight factor is
    ``weighting.idf`` at base e, ln(N / df), which is 0.0 when df = N.
    """
    n_docs = len(doc_ids)
    squares = dict.fromkeys(doc_ids, 0.0)
    for ids, tfs in dictionary.values():
        term_idf = math.log(n_docs / len(ids))
        for doc_id, tf in zip(ids, tfs):
            w = tf * term_idf
            squares[doc_id] += w * w
    return dict(zip(squares, map(math.sqrt, squares.values())))
