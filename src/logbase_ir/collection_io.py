"""Parsers for the classic small test-collection file formats.

Documents and queries arrive in one of three incompatible native layouts:

* SMART marker files (MED, CRAN, CISI): ``.I <id>`` starts a record and
  ``.T``/``.A``/``.W``/``.B``/``.X`` open sections within it.
* NPL: records separated by lines containing only ``/``, first line is the id.
* LISA: records introduced by ``Document <id>`` headers, separated by rows of
  asterisks; queries are ``<id>`` then text terminated by a ``#`` line.

Each file shows its layout, so no caller names one: a file whose first
non-blank line opens with the word ``.I`` is SMART; a document file whose
first such line is ``Document <id>``, or a query file with a line ending in
``#``, is LISA; any other is NPL. Each layout has one reader, a generator of
(line, id, text) records over an iterable of lines. ``parse_documents``
streams a document file's (doc_id, text) records from its lines, a record
at a time; ``parse_queries`` reads a whole query file into
``{query_id: text}`` in file order. Lines end at "\n" only, whether a file
opened with ``newline="\n"`` gives them or a whole text is split at "\n": a
"\r" before "\n" is whitespace to every reader, so "\r\n" ends lines alike.
One check, ``_unique``, rejects a repeated id at its line for every layout,
and a doc id outside int64 (the index's id column); query ids are unbounded.
``parse_qrels`` reads a qrels file's judgments and its count of grades
<= 0 in one parse, in the layout the file itself shows: NPL records listing
doc ids when its first row is a lone id or a line holds only ``/``, else
rows of columns, whose width picks their meaning.
Every reader serves one of the paper's collections: MED, CRAN, CISI, NPL, LISA.
"""

from collections.abc import Iterable, Iterator
from itertools import chain


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
    """SMART marker records: the text of the indexed sections. The first
    non-blank line is a ``.I`` line, as the callers check."""
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
            section = marker
            rest = line.strip()[2:].strip()
            if rest and section in indexed:
                pieces.append(rest)
        elif section in indexed:
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


def _first_words(lines: Iterable[str]) -> tuple[Iterator[str], list[str]]:
    """The lines again, from the first, and the words of the first
    non-blank one ([] if none), having read no further."""
    lines, read, words = iter(lines), [], []
    for line in lines:
        read.append(line)
        if words := line.split():
            break
    return chain(read, lines), words


def parse_documents(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The (doc_id, text) records of a document file's lines, read lazily in
    the layout its first non-blank line shows: the word ``.I`` opens SMART,
    whose text is its ``.T`` and ``.W`` sections; ``Document <id>`` opens
    LISA; any other line NPL. A repeated doc id, or one outside int64, fails at
    its line."""
    lines, words = _first_words(lines)
    if words[:1] == [".I"]:
        reader = _smart
    elif len(words) == 2 and words[0].lower() == "document":
        reader = _lisa
    else:
        reader = _npl
    yield from _unique(reader(lines), doc_ids=True)


def parse_queries(content: str) -> dict[int, str]:
    """A query file's ``{query_id: text}``, in file order, in the layout it
    shows: SMART, text from ``.W`` only, if its first non-blank line opens
    with the word ``.I``; else LISA if a line ends in ``#``; else NPL."""
    lines = content.split("\n")
    if _first_words(lines)[1][:1] == [".I"]:
        records = _smart(lines, frozenset({".W"}))
    elif any(line.rstrip().endswith("#") for line in lines):
        records = _lisa_queries(lines)
    else:
        records = _npl(lines)
    return dict(_unique(records))


# (doc-id column, grade column) of each row width
_QRELS_COLUMNS = {2: (1, None), 3: (1, 2), 4: (2, 3)}


def _qrels_idlist(lines: list[str]) -> Qrels:
    """Relevance lists: NPL records (``_npl``), a query id and then the doc
    ids it judges relevant. A list that names no doc id fails at its query
    id's line; a repeated query id adds to its list."""
    qrels: Qrels = {}
    for lineno, query_id, text in _npl(lines):
        try:
            doc_ids = [int(t) for t in text.split()]
        except ValueError:
            raise ParseError("non-integer id", lineno) from None
        if not doc_ids:
            raise ParseError(f"query {query_id} lists no relevant doc id", lineno)
        qrels.setdefault(query_id, set()).update(doc_ids)
    return qrels


def _qrels_rows(rows: list[tuple[int, list[str]]]) -> Iterator[tuple[int, int, str | None]]:
    """(query_id, doc_id, grade) of each numbered row of columns, in the
    layout of the first row's width: 2 columns are ``query_id doc_id``, 3 are
    ``query_id doc_id grade`` and 4 are ``query_id 0 doc_id grade``, or
    CISI's ``query_id doc_id x x`` when the second column is not "0" on every
    row. The grade is None where the layout carries none."""
    if not rows:
        return
    first_row, columns = rows[0][0], len(rows[0][1])
    if columns not in _QRELS_COLUMNS:
        raise ParseError(f"cannot infer qrels layout from {columns} columns", first_row)
    doc_col, grade_col = _QRELS_COLUMNS[columns]
    if columns == 4 and any(r[1] != "0" for _, r in rows if len(r) == 4):
        doc_col, grade_col = 1, None
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


def parse_qrels(content: str) -> tuple[Qrels, int]:
    """A qrels file's judgments, query_id -> relevant doc_id sets, and the
    number of its rows whose grade reads as a number <= 0, both from one walk
    of the rows. Any listed pair counts as relevant regardless of grade, so
    TREC's judged non-relevant pairs, graded <= 0, count too.

    A file reads as rows of columns, their layout picked by the first row's
    width (``_qrels_rows``), unless its first row is a lone id or a line of
    it holds only "/": then it is NPL's relevance lists (``_qrels_idlist``).
    Rows of columns hold neither, so the lists are looked for only when the
    rows fail. CISI's layout, the lists and two columns carry no grade, so
    their count is 0.
    """
    lines = content.split("\n")
    rows = [(n, parts) for n, parts in enumerate(map(str.split, lines), start=1) if parts]
    qrels: Qrels = {}
    nonpositive = 0
    try:
        for query_id, doc_id, grade in _qrels_rows(rows):
            qrels.setdefault(query_id, set()).add(doc_id)
            nonpositive += _at_most_zero(grade)
    except ParseError:
        if len(rows[0][1]) == 1 or ["/"] in (parts for _, parts in rows):
            return _qrels_idlist(lines), 0
        raise
    return qrels, nonpositive
