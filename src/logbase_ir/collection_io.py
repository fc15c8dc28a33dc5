"""Parsers for the classic small test-collection file formats.

Documents and queries arrive in one of three incompatible native layouts:

* SMART marker files (MED, CRAN, CISI): ``.I <id>`` starts a record and
  ``.T``/``.A``/``.W``/``.B``/``.X`` open sections within it.
* NPL: records separated by lines containing only ``/``, first line is the id.
* LISA: records introduced by ``Document <id>`` headers, separated by rows of
  asterisks; queries are ``<id>`` then text terminated by a ``#`` line.

Each format has one reader, a generator of (line, id, text) records over an
iterable of lines. ``parse_documents`` streams a document file's
(doc_id, text) records from its lines, a record at a time; ``parse_queries``
reads a whole query file into ``{query_id: text}`` in file order. Lines end
at "\n" and "\r\n" only: a "\r" before "\n" is whitespace to every reader,
so a file opened with ``newline="\n"`` gives the lines of ``split_lines``. One
check, ``_unique``, rejects a repeated id at its line for every format, and
a doc id outside int64 (the index's id column); query ids are unbounded.
``parse_qrels`` reads a qrels file's judgments and its count of grades
<= 0 in one parse; its ``idlist`` lists are NPL records.
The canonical on-disk exchange format is JSON-lines ``{"id": int, "text":
str}`` for documents and queries, and two-column TSV for qrels.
"""

import json
from collections.abc import Iterable, Iterator
from functools import partial

from .textpipe import split_lines


class ParseError(ValueError):
    """Malformed collection file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# query_id -> set of relevant doc_ids
Qrels = dict[int, set[int]]


# A record reader takes an iterable of lines and yields (line, id, text)
# records as it goes, line being that of the record's id, so a caller
# streaming a file holds one record at a time. A reader yields the open
# record before it reads the next record's id, so ``_unique`` reports a
# repeated id before any later fault.
Records = Iterator[tuple[int, int, str]]

_SMART_SECTIONS = frozenset({".T", ".A", ".W", ".B", ".X"})
_SMART_INDEXED = frozenset({".T", ".W"})


def _smart(lines: Iterable[str], indexed: frozenset[str] = _SMART_INDEXED) -> Records:
    """SMART marker records: the text of the indexed sections."""
    head: tuple[int, int] | None = None  # (line, id) of the open record
    section: str | None = None
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        words = line.split()
        if not words:
            continue
        marker = words[0]
        if marker == ".I":
            if head is not None:
                yield *head, " ".join(pieces)
            rest = line.strip()[2:].strip()
            try:
                head = lineno, int(rest)
            except ValueError:
                raise ParseError(f"bad .I record id {rest!r}", lineno) from None
            section = None
            pieces = []
        elif marker in _SMART_SECTIONS:
            if head is None:
                raise ParseError(f"section {marker} before any .I record", lineno)
            section = marker
            rest = line.strip()[2:].strip()
            if rest and section in indexed:
                pieces.append(rest)
        elif head is not None and section in indexed:
            pieces.append(" ".join(words))
    if head is not None:
        yield *head, " ".join(pieces)


def _npl_record(block: list[tuple[int, str]]) -> tuple[int, int, str] | None:
    """The record of one NPL block of numbered lines; None when blank."""
    lines = [(n, l) for n, l in block if l.strip()]
    if not lines:
        return None
    first_no, first = lines[0]
    head = first.split()
    try:
        doc_id = int(head[0])
    except ValueError:
        raise ParseError(f"bad record id {head[0]!r}", first_no) from None
    pieces = [" ".join(head[1:])] if len(head) > 1 else []
    pieces += [" ".join(l.split()) for _, l in lines[1:]]
    return first_no, doc_id, " ".join(p for p in pieces if p)


def _npl(lines: Iterable[str]) -> Records:
    """NPL-style records, separated by lines holding only ``/``."""
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "/":
            record = _npl_record(block)
            if record is not None:
                yield record
            block = []
        else:
            block.append((lineno, line))
    record = _npl_record(block)
    if record is not None:
        yield record


def _lisa(lines: Iterable[str]) -> Records:
    """LISA-style documents: ``Document <id>`` headers, ``*`` separators."""
    head: tuple[int, int] | None = None  # (line, id) of the open record
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        words = stripped.split()
        is_header = len(words) == 2 and words[0].lower() == "document"
        if is_header or (stripped and set(stripped) == {"*"}):
            if head is not None:
                yield *head, " ".join(pieces)
            head = None
            pieces = []
            if is_header:
                try:
                    head = lineno, int(words[1])
                except ValueError:
                    raise ParseError(f"bad document id {words[1]!r}", lineno) from None
        elif head is not None and stripped:
            pieces.append(" ".join(words))
    if head is not None:
        yield *head, " ".join(pieces)


def _lisa_queries(lines: Iterable[str]) -> Records:
    """LISA queries: an id line, then text ending with a ``#`` line."""
    head: tuple[int, int] | None = None  # (line, id) of the open query
    pieces: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if head is None:
            if not stripped:
                continue
            try:
                head = lineno, int(stripped)
            except ValueError:
                raise ParseError(f"bad query id {stripped!r}", lineno) from None
            pieces = []
        else:
            done = stripped.endswith("#")
            stripped = stripped.rstrip("#").strip()
            if stripped:
                pieces.append(" ".join(stripped.split()))
            if done:
                yield *head, " ".join(pieces)
                head = None
    if head is not None:
        yield *head, " ".join(pieces)


def _jsonl(lines: Iterable[str]) -> Records:
    """The canonical JSON-lines form: ``{"id": int, "text": str}``. A JSON
    string can hold a lone surrogate (``"\\ud800"``), which no UTF-8 text
    can, so such a text fails at its line."""
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
            raise ParseError("bad JSON record", lineno) from None
        if not isinstance(doc_id, int) or isinstance(doc_id, bool):
            raise ParseError(f"record id must be an integer, got {doc_id!r}", lineno)
        if not isinstance(text, str):
            raise ParseError("record text must be a string", lineno)
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ParseError(f"record text holds a lone surrogate {text[e.start]!r}",
                             lineno) from None
        yield lineno, doc_id, text


def _unique(records: Records, doc_ids: bool = False) -> Iterator[tuple[int, str]]:
    """The (id, text) of each record; a repeated id, or with ``doc_ids`` an
    id outside int64, fails at its line."""
    seen: set[int] = set()
    for lineno, record_id, text in records:
        if record_id in seen:
            raise ParseError(f"duplicate record id {record_id}", lineno)
        if doc_ids and not -(2**63) <= record_id < 2**63:
            raise ParseError(f"doc id {record_id} does not fit in a signed 64-bit integer", lineno)
        seen.add(record_id)
        yield record_id, text


_DOC_READERS = {"smart": _smart, "npl": _npl, "lisa": _lisa, "jsonl": _jsonl}
_QUERY_READERS = {
    **_DOC_READERS,
    "smart": partial(_smart, indexed=frozenset({".W"})),  # the .W section only
    "lisa": _lisa_queries,
}
DOC_FORMATS = tuple(_DOC_READERS)


def parse_documents(lines: Iterable[str], format: str) -> Iterator[tuple[int, str]]:
    """The (doc_id, text) records of a document file's lines, read lazily;
    SMART documents take their text from the ``.T`` and ``.W`` sections. An
    unknown format fails at the call; a repeated doc id, or one outside
    int64, fails at its line."""
    try:
        reader = _DOC_READERS[format]
    except KeyError:
        raise ValueError(f"unknown document format {format!r}") from None
    return _unique(reader(lines), doc_ids=True)


def parse_queries(content: str, format: str = "smart") -> dict[int, str]:
    """A query file's ``{query_id: text}``, in file order; SMART queries take
    their text from ``.W`` only."""
    try:
        reader = _QUERY_READERS[format]
    except KeyError:
        raise ValueError(f"unknown query format {format!r}") from None
    return dict(_unique(reader(split_lines(content))))


QRELS_FORMATS = ("auto", "two", "three", "four", "idlist")
# (column count, doc-id column) of each fixed-column layout
_QRELS_LAYOUTS = {"two": (2, 1), "three": (3, 1), "four": (4, 2)}


def _qrels_idlist(content: str) -> Qrels:
    """Relevance lists: NPL records (``_npl``), a query id and then the doc
    ids it judges relevant. A list that names no doc id fails at its query
    id's line; a repeated query id adds to its list."""
    qrels: Qrels = {}
    for lineno, query_id, text in _npl(split_lines(content)):
        try:
            doc_ids = [int(t) for t in text.split()]
        except ValueError:
            raise ParseError("non-integer id", lineno) from None
        if not doc_ids:
            raise ParseError(f"query {query_id} lists no relevant doc id", lineno)
        qrels.setdefault(query_id, set()).update(doc_ids)
    return qrels


def _qrels_rows(content: str, format: str) -> Iterator[tuple[int, int, str | None]]:
    """(query_id, doc_id, grade) of each row of a column layout (see
    ``parse_qrels``), the grade None where the layout carries none: ``two``,
    and four columns whose second is not uniformly "0" (CISI's)."""
    if format != "auto" and format not in _QRELS_LAYOUTS:
        raise ValueError(f"unknown qrels format {format!r}")
    rows = [(n, parts) for n, parts in enumerate(map(str.split, split_lines(content)), start=1)
            if parts]
    if format == "auto":
        if not rows:
            return
        first_row, width = rows[0][0], len(rows[0][1])
        doc_cols = dict(_QRELS_LAYOUTS.values())
        if width not in doc_cols:
            raise ParseError(f"cannot infer qrels layout from {width} columns", first_row)
        columns, doc_col = width, doc_cols[width]
    else:
        columns, doc_col = _QRELS_LAYOUTS[format]
    grade_col = None if columns == 2 else columns - 1
    if columns == 4 and any(r[1] != "0" for _, r in rows if len(r) == 4):
        grade_col = None
        if format == "auto":
            doc_col = 1
    for lineno, parts in rows:
        if len(parts) != columns:
            raise ParseError(f"expected {columns} columns, found {len(parts)}", lineno)
        try:
            query_id = int(parts[0])
            doc_id = int(parts[doc_col])
        except ValueError:
            raise ParseError("non-integer id column", lineno) from None
        yield query_id, doc_id, None if grade_col is None else parts[grade_col]


def _at_most_zero(grade: str | None) -> bool:
    try:
        return grade is not None and float(grade) <= 0
    except ValueError:
        return False


def parse_qrels(content: str, format: str = "auto") -> tuple[Qrels, int]:
    """A qrels file's judgments, query_id -> relevant doc_id sets, and the
    number of its rows whose grade reads as a number <= 0, both from one walk
    of the rows. Any listed pair counts as relevant regardless of grade, so
    TREC's judged non-relevant pairs, graded <= 0, count too.

    Column layouts: ``two`` is ``query_id doc_id``, ``three`` is
    ``query_id doc_id grade`` and ``four`` is ``query_id 0 doc_id grade``.
    ``auto`` picks the layout from the column count; a four-column file
    whose second column is not uniformly "0" is read as ``query_id doc_id x
    x`` (the CISI layout). ``idlist`` is NPL's layout of relevance lists
    (``_qrels_idlist``). ``two``, CISI's layout and ``idlist`` carry no
    grade, so their count is 0.
    """
    if format == "idlist":
        return _qrels_idlist(content), 0
    qrels: Qrels = {}
    nonpositive = 0
    for query_id, doc_id, grade in _qrels_rows(content, format):
        qrels.setdefault(query_id, set()).add(doc_id)
        nonpositive += _at_most_zero(grade)
    return qrels, nonpositive
