"""Parsers for the classic small test-collection file formats.

Documents and queries arrive in one of three incompatible native layouts:

* SMART marker files (MED, CRAN, CISI): ``.I <id>`` starts a record and
  ``.T``/``.A``/``.W``/``.B``/``.X`` open sections within it.
* NPL: records separated by lines containing only ``/``, first line is the id.
* LISA: records introduced by ``Document <id>`` headers, separated by rows of
  asterisks; queries are ``<id>`` then text terminated by a ``#`` line.

Everything is normalized into RawDocument / RawQuery / Qrels. The canonical
on-disk exchange format is JSON-lines ``{"id": int, "text": str}`` for
documents and queries, and two-column TSV for qrels.
"""

import json
from dataclasses import dataclass


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


@dataclass(frozen=True)
class CollectionStats:
    n_docs: int
    n_distinct_terms: int
    size_bytes: int


def _lines(content: str) -> list[str]:
    """The lines of a text, split at "\n" and "\r\n" only, as an editor
    counts them: str.splitlines() would also split at a form feed,
    \x1c-\x1e, \x85, U+2028 and U+2029."""
    return content.replace("\r\n", "\n").split("\n")


_SMART_SECTIONS = frozenset({".T", ".A", ".W", ".B", ".X"})
_SMART_INDEXED = frozenset({".T", ".W"})


def _parse_smart_blocks(content: str, indexed: frozenset[str]) -> list[tuple[int, str]]:
    """Split SMART marker text into (id, text of the indexed sections)."""
    records: list[tuple[int, str]] = []
    seen: set[int] = set()
    cur_id: int | None = None
    section: str | None = None
    pieces: list[str] = []

    def flush() -> None:
        if cur_id is not None:
            records.append((cur_id, " ".join(pieces)))

    for lineno, line in enumerate(_lines(content), start=1):
        marker = line.split(maxsplit=1)[0] if line.strip() else ""
        if marker == ".I":
            rest = line.strip()[2:].strip()
            try:
                record_id = int(rest)
            except ValueError:
                raise ParseError(f"bad .I record id {rest!r}", lineno) from None
            if record_id in seen:
                raise ParseError(f"duplicate record id {record_id}", lineno)
            flush()
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
    flush()
    return records


def parse_smart(content: str) -> list[RawDocument]:
    """Parse a SMART-format document file.

    Indexable text is the concatenation of the ``.T`` and ``.W`` sections;
    ``.A``/``.B``/``.X`` are discarded. Record order is preserved.
    """
    return [RawDocument(i, t) for i, t in _parse_smart_blocks(content, _SMART_INDEXED)]


def parse_npl(content: str) -> list[RawDocument]:
    """Parse NPL-style text: records separated by lines holding only ``/``."""
    records: list[RawDocument] = []
    seen: set[int] = set()
    block: list[tuple[int, str]] = []

    def flush() -> None:
        lines = [(n, l) for n, l in block if l.strip()]
        if not lines:
            return
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
        records.append(RawDocument(doc_id, " ".join(p for p in pieces if p)))

    for lineno, line in enumerate(_lines(content), start=1):
        if line.strip() == "/":
            flush()
            block = []
        else:
            block.append((lineno, line))
    flush()
    return records


def parse_lisa(content: str) -> list[RawDocument]:
    """Parse LISA-style documents: ``Document <id>`` headers, ``*`` separators."""
    records: list[RawDocument] = []
    seen: set[int] = set()
    cur_id: int | None = None
    pieces: list[str] = []

    def flush() -> None:
        if cur_id is not None:
            records.append(RawDocument(cur_id, " ".join(pieces)))

    for lineno, line in enumerate(_lines(content), start=1):
        stripped = line.strip()
        words = stripped.split()
        if len(words) == 2 and words[0].lower() == "document":
            try:
                doc_id = int(words[1])
            except ValueError:
                raise ParseError(f"bad document id {words[1]!r}", lineno) from None
            if doc_id in seen:
                raise ParseError(f"duplicate record id {doc_id}", lineno)
            flush()
            seen.add(doc_id)
            cur_id = doc_id
            pieces = []
        elif stripped and set(stripped) == {"*"}:
            flush()
            cur_id = None
            pieces = []
        elif cur_id is not None and stripped:
            pieces.append(" ".join(words))
    flush()
    return records


def parse_lisa_queries(content: str) -> list[RawQuery]:
    """Parse LISA queries: an id line, then text ending with a ``#`` line."""
    queries: list[RawQuery] = []
    seen: set[int] = set()
    cur_id: int | None = None
    pieces: list[str] = []
    for lineno, line in enumerate(_lines(content), start=1):
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
                queries.append(RawQuery(cur_id, " ".join(pieces)))
                cur_id = None
    if cur_id is not None:
        queries.append(RawQuery(cur_id, " ".join(pieces)))
    return queries


def docs_from_jsonl(content: str) -> list[RawDocument]:
    """Parse the canonical JSON-lines form: ``{"id": int, "text": str}``."""
    docs: list[RawDocument] = []
    seen: set[int] = set()
    for lineno, line in enumerate(_lines(content), start=1):
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
        docs.append(RawDocument(doc_id, text))
    return docs


def docs_to_jsonl(docs: list[RawDocument]) -> str:
    return "".join(
        json.dumps({"id": d.doc_id, "text": d.text}, ensure_ascii=False) + "\n"
        for d in docs
    )


DOC_FORMATS = ("smart", "npl", "lisa", "jsonl")


def parse_documents(content: str, format: str) -> list[RawDocument]:
    if format == "smart":
        return parse_smart(content)
    if format == "npl":
        return parse_npl(content)
    if format == "lisa":
        return parse_lisa(content)
    if format == "jsonl":
        return docs_from_jsonl(content)
    raise ValueError(f"unknown document format {format!r}")


def parse_queries(content: str, format: str = "smart") -> list[RawQuery]:
    """Parse a query file; SMART queries take their text from ``.W`` only."""
    if format == "smart":
        blocks = _parse_smart_blocks(content, frozenset({".W"}))
        return [RawQuery(i, t) for i, t in blocks]
    if format == "npl":
        return [RawQuery(d.doc_id, d.text) for d in parse_npl(content)]
    if format == "lisa":
        return parse_lisa_queries(content)
    if format == "jsonl":
        return [RawQuery(d.doc_id, d.text) for d in docs_from_jsonl(content)]
    raise ValueError(f"unknown query format {format!r}")


QRELS_FORMATS = ("auto", "two", "three", "four", "idlist")


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
    for lineno, line in enumerate(_lines(content), start=1):
        if line.strip() == "/":
            if tokens:
                first_no, first = tokens[0]
                try:
                    ids = [int(t) for _, t in tokens]
                except ValueError:
                    raise ParseError("non-integer id", first_no) from None
                qrels.setdefault(ids[0], set()).update(ids[1:])
            tokens = []
        else:
            tokens.extend((lineno, t) for t in line.split())
    if tokens:
        first_no, _ = tokens[0]
        try:
            ids = [int(t) for _, t in tokens]
        except ValueError:
            raise ParseError("non-integer id", first_no) from None
        qrels.setdefault(ids[0], set()).update(ids[1:])
    return qrels


def parse_qrels(content: str, format: str = "auto") -> Qrels:
    """Parse relevance judgments into query_id -> relevant doc_id sets.

    Column layouts: ``two`` is ``query_id doc_id``, ``three`` is
    ``query_id doc_id grade`` and ``four`` is ``query_id 0 doc_id grade``.
    Any listed pair counts as relevant regardless of grade. ``auto`` picks
    the layout from the column count; a four-column file whose second column
    is not uniformly "0" is read as ``query_id doc_id x x`` (the CISI layout).
    """
    if format == "auto":
        lines = enumerate(_lines(content), start=1)
        rows = [(n, line.split()) for n, line in lines if line.split()]
        if not rows:
            return {}
        first_row, width = rows[0][0], len(rows[0][1])
        if width == 2:
            return _qrels_columns(content, 2, 1)
        if width == 3:
            return _qrels_columns(content, 3, 1)
        if width == 4:
            doc_col = 2 if all(r[1] == "0" for _, r in rows if len(r) == 4) else 1
            return _qrels_columns(content, 4, doc_col)
        raise ParseError(f"cannot infer qrels layout from {width} columns", first_row)
    if format == "idlist":
        return _qrels_idlist(content)
    if format == "two":
        return _qrels_columns(content, 2, 1)
    if format == "three":
        return _qrels_columns(content, 3, 1)
    if format == "four":
        return _qrels_columns(content, 4, 2)
    raise ValueError(f"unknown qrels format {format!r}")


def qrels_to_tsv(qrels: Qrels) -> str:
    lines = []
    for query_id in sorted(qrels):
        for doc_id in sorted(qrels[query_id]):
            lines.append(f"{query_id}\t{doc_id}\n")
    return "".join(lines)


def collection_stats(docs: list[RawDocument], index) -> CollectionStats:
    """Summarize a parsed collection against its built index."""
    return CollectionStats(
        n_docs=len(docs),
        n_distinct_terms=len(index.dictionary),
        size_bytes=sum(len(d.text.encode("utf-8")) for d in docs),
    )
