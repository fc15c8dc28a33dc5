"""Parsers for the classic small test-collection file formats.

Documents and queries arrive in one of three incompatible native layouts:

* SMART marker files (MED, CRAN, CISI): ``.I <id>`` starts a record and
  ``.T``/``.A``/``.W``/``.B``/``.X`` open sections within it.
* NPL: records separated by lines containing only ``/``, first line is the id.
* LISA: records introduced by ``Document <id>`` headers, separated by rows of
  asterisks; queries are ``<id>`` then text terminated by a ``#`` line.

Each document format has one reader, a generator of (id, text) records over
an iterable of lines, so a collection file can be streamed a record at a time
(``file_lines``, ``document_records``); ``parse_documents`` and
``parse_queries`` collect a whole text into RawDocument / RawQuery lists.
The canonical on-disk exchange format is JSON-lines ``{"id": int, "text":
str}`` for documents and queries, and two-column TSV for qrels.
"""

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import TextIO


class ParseError(ValueError):
    """Malformed collection file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RawDocument:
    doc_id: int
    text: str


@dataclass(frozen=True)
class RawQuery:
    query_id: int
    text: str


# query_id -> set of relevant doc_ids
Qrels = dict[int, set[int]]


def _lines(content: str) -> list[str]:
    """The lines of a text, split at "\n" and "\r\n" only, as an editor
    counts them: str.splitlines() would also split at a form feed,
    \x1c-\x1e, \x85, U+2028 and U+2029."""
    return content.replace("\r\n", "\n").split("\n")


def file_lines(f: TextIO, chunk_size: int = 1 << 16) -> Iterator[str]:
    """The lines of a text file opened with ``newline=""``, as ``_lines``
    gives those of its whole text, read a chunk at a time. A chunk's last
    piece is carried into the next chunk, so a "\r\n" split between two
    chunks still ends one line."""

    def chunks() -> Iterator[list[str]]:
        rest = ""
        for chunk in iter(partial(f.read, chunk_size), ""):
            lines = (rest + chunk).replace("\r\n", "\n").split("\n")
            rest = lines.pop()
            yield lines
        yield [rest]

    return chain.from_iterable(chunks())


# A record reader takes an iterable of lines and yields (id, text) pairs as
# it goes, so a caller streaming a file holds one record at a time.
Records = Iterator[tuple[int, str]]

_SMART_SECTIONS = frozenset({".T", ".A", ".W", ".B", ".X"})
_SMART_INDEXED = frozenset({".T", ".W"})


def _smart(lines: Iterable[str], indexed: frozenset[str] = _SMART_INDEXED) -> Records:
    """SMART marker records: (id, text of the indexed sections)."""
    seen: set[int] = set()
    cur_id: int | None = None
    section: str | None = None
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        marker = line.split(maxsplit=1)[0] if line.strip() else ""
        if marker == ".I":
            rest = line.strip()[2:].strip()
            try:
                record_id = int(rest)
            except ValueError:
                raise ParseError(f"bad .I record id {rest!r}", lineno) from None
            if record_id in seen:
                raise ParseError(f"duplicate record id {record_id}", lineno)
            if cur_id is not None:
                yield cur_id, " ".join(pieces)
            seen.add(record_id)
            cur_id = record_id
            section = None
            pieces = []
        elif marker in _SMART_SECTIONS:
            if cur_id is None:
                raise ParseError(f"section {marker} before any .I record", lineno)
            section = marker
            rest = line.strip()[2:].strip()
            if rest and section in indexed:
                pieces.append(rest)
        elif cur_id is not None and section in indexed:
            stripped = " ".join(line.split())
            if stripped:
                pieces.append(stripped)
    if cur_id is not None:
        yield cur_id, " ".join(pieces)


def _npl_record(block: list[tuple[int, str]], seen: set[int]) -> tuple[int, str] | None:
    """The (id, text) of one NPL record's numbered lines; None when blank."""
    lines = [(n, l) for n, l in block if l.strip()]
    if not lines:
        return None
    first_no, first = lines[0]
    head = first.split()
    try:
        doc_id = int(head[0])
    except ValueError:
        raise ParseError(f"bad record id {head[0]!r}", first_no) from None
    if doc_id in seen:
        raise ParseError(f"duplicate record id {doc_id}", first_no)
    seen.add(doc_id)
    pieces = [" ".join(head[1:])] if len(head) > 1 else []
    pieces += [" ".join(l.split()) for _, l in lines[1:]]
    return doc_id, " ".join(p for p in pieces if p)


def _npl(lines: Iterable[str]) -> Records:
    """NPL-style records, separated by lines holding only ``/``."""
    seen: set[int] = set()
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "/":
            record = _npl_record(block, seen)
            if record is not None:
                yield record
            block = []
        else:
            block.append((lineno, line))
    record = _npl_record(block, seen)
    if record is not None:
        yield record


def _lisa(lines: Iterable[str]) -> Records:
    """LISA-style documents: ``Document <id>`` headers, ``*`` separators."""
    seen: set[int] = set()
    cur_id: int | None = None
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        words = stripped.split()
        if len(words) == 2 and words[0].lower() == "document":
            try:
                doc_id = int(words[1])
            except ValueError:
                raise ParseError(f"bad document id {words[1]!r}", lineno) from None
            if doc_id in seen:
                raise ParseError(f"duplicate record id {doc_id}", lineno)
            if cur_id is not None:
                yield cur_id, " ".join(pieces)
            seen.add(doc_id)
            cur_id = doc_id
            pieces = []
        elif stripped and set(stripped) == {"*"}:
            if cur_id is not None:
                yield cur_id, " ".join(pieces)
            cur_id = None
            pieces = []
        elif cur_id is not None and stripped:
            pieces.append(" ".join(words))
    if cur_id is not None:
        yield cur_id, " ".join(pieces)


def _lisa_queries(lines: Iterable[str]) -> Records:
    """LISA queries: an id line, then text ending with a ``#`` line."""
    seen: set[int] = set()
    cur_id: int | None = None
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if cur_id is None:
            if not stripped:
                continue
            try:
                cur_id = int(stripped)
            except ValueError:
                raise ParseError(f"bad query id {stripped!r}", lineno) from None
            if cur_id in seen:
                raise ParseError(f"duplicate query id {cur_id}", lineno)
            seen.add(cur_id)
            pieces = []
        else:
            done = stripped.endswith("#")
            stripped = stripped.rstrip("#").strip()
            if stripped:
                pieces.append(" ".join(stripped.split()))
            if done:
                yield cur_id, " ".join(pieces)
                cur_id = None
    if cur_id is not None:
        yield cur_id, " ".join(pieces)


def _jsonl(lines: Iterable[str]) -> Records:
    """The canonical JSON-lines form: ``{"id": int, "text": str}``."""
    seen: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            doc_id = obj["id"]
            text = obj["text"]
        except (ValueError, KeyError, TypeError, RecursionError):
            # ValueError: malformed JSON, or an integer past the digit limit;
            # RecursionError: nesting deeper than the decoder's stack
            raise ParseError("bad JSON document record", lineno) from None
        if not isinstance(doc_id, int) or isinstance(doc_id, bool):
            raise ParseError(f"record id must be an integer, got {doc_id!r}", lineno)
        if not isinstance(text, str):
            raise ParseError("record text must be a string", lineno)
        if doc_id in seen:
            raise ParseError(f"duplicate record id {doc_id}", lineno)
        seen.add(doc_id)
        yield doc_id, text


_DOC_READERS = {"smart": _smart, "npl": _npl, "lisa": _lisa, "jsonl": _jsonl}
_QUERY_READERS = {
    **_DOC_READERS,
    "smart": partial(_smart, indexed=frozenset({".W"})),  # the .W section only
    "lisa": _lisa_queries,
}
DOC_FORMATS = tuple(_DOC_READERS)


def document_records(lines: Iterable[str], format: str) -> Records:
    """The (doc_id, text) records of a document file's lines, read lazily."""
    try:
        reader = _DOC_READERS[format]
    except KeyError:
        raise ValueError(f"unknown document format {format!r}") from None
    return reader(lines)


def parse_documents(content: str, format: str) -> list[RawDocument]:
    return [RawDocument(i, t) for i, t in document_records(_lines(content), format)]


def parse_smart(content: str) -> list[RawDocument]:
    """Parse a SMART-format document file.

    Indexable text is the concatenation of the ``.T`` and ``.W`` sections;
    ``.A``/``.B``/``.X`` are discarded. Record order is preserved.
    """
    return parse_documents(content, "smart")


def parse_queries(content: str, format: str = "smart") -> list[RawQuery]:
    """Parse a query file; SMART queries take their text from ``.W`` only."""
    try:
        reader = _QUERY_READERS[format]
    except KeyError:
        raise ValueError(f"unknown query format {format!r}") from None
    return [RawQuery(i, t) for i, t in reader(_lines(content))]


QRELS_FORMATS = ("auto", "two", "three", "four", "idlist")
# (column count, doc-id column) of each fixed-column layout
_QRELS_LAYOUTS = {"two": (2, 1), "three": (3, 1), "four": (4, 2)}


def _qrels_columns(content: str, want: int, doc_col: int) -> Qrels:
    qrels: Qrels = {}
    for lineno, line in enumerate(_lines(content), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != want:
            raise ParseError(
                f"expected {want} columns, found {len(parts)}", lineno
            )
        try:
            query_id = int(parts[0])
            doc_id = int(parts[doc_col])
        except ValueError:
            raise ParseError("non-integer id column", lineno) from None
        qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


def _qrels_idlist(content: str) -> Qrels:
    """Relevance lists: a query id, then doc ids, terminated by a ``/`` line."""
    qrels: Qrels = {}
    tokens: list[tuple[int, str]] = []

    def flush() -> None:
        if tokens:
            try:
                ids = [int(t) for _, t in tokens]
            except ValueError:
                raise ParseError("non-integer id", tokens[0][0]) from None
            qrels.setdefault(ids[0], set()).update(ids[1:])
            tokens.clear()

    for lineno, line in enumerate(_lines(content), start=1):
        if line.strip() == "/":
            flush()
        else:
            tokens.extend((lineno, t) for t in line.split())
    flush()
    return qrels


def parse_qrels(content: str, format: str = "auto") -> Qrels:
    """Parse relevance judgments into query_id -> relevant doc_id sets.

    Column layouts: ``two`` is ``query_id doc_id``, ``three`` is
    ``query_id doc_id grade`` and ``four`` is ``query_id 0 doc_id grade``.
    Any listed pair counts as relevant regardless of grade. ``auto`` picks
    the layout from the column count; a four-column file whose second column
    is not uniformly "0" is read as ``query_id doc_id x x`` (the CISI layout).
    """
    if format == "idlist":
        return _qrels_idlist(content)
    if format == "auto":
        lines = enumerate(_lines(content), start=1)
        rows = [(n, line.split()) for n, line in lines if line.split()]
        if not rows:
            return {}
        first_row, width = rows[0][0], len(rows[0][1])
        doc_cols = dict(_QRELS_LAYOUTS.values())
        if width not in doc_cols:
            raise ParseError(f"cannot infer qrels layout from {width} columns", first_row)
        columns, doc_col = width, doc_cols[width]
        if width == 4 and any(r[1] != "0" for _, r in rows if len(r) == 4):
            doc_col = 1
    elif format in _QRELS_LAYOUTS:
        columns, doc_col = _QRELS_LAYOUTS[format]
    else:
        raise ValueError(f"unknown qrels format {format!r}")
    return _qrels_columns(content, columns, doc_col)
