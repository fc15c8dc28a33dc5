import io
import random

import pytest
from hypothesis import given, strategies as st

from logbase_ir.collection_io import (
    ParseError,
    _lisa,
    _lisa_queries,
    _npl,
    _qrels_idlist,
    _smart,
    parse_documents,
    parse_qrels,
    parse_queries,
)

LAYOUTS = ("smart", "npl", "lisa")


def documents(content: str) -> list[tuple[int, str]]:
    """The (doc_id, text) records of a document file's text, from its lines
    as the open file gives them to the commands."""
    return list(parse_documents(io.StringIO(content, newline="\n")))


class TestParseSmart:
    def test_two_documents(self):
        content = ".I 1\n.W\nhello world\n.I 2\n.W\nfoo"
        assert documents(content) == [
            (1, "hello world"),
            (2, "foo"),
        ]

    def test_title_and_body_joined(self):
        content = ".I 3\n.T\ntitle\n.W\nbody"
        assert documents(content) == [(3, "title body")]

    def test_other_sections_discarded(self):
        content = ".I 7\n.T\nt\n.A\nauthor x\n.B\njournal 1999\n.W\nw\n.X\n1 2 3"
        assert documents(content) == [(7, "t w")]

    def test_empty_file(self):
        assert documents("") == []
        assert documents(" \n\t\n") == []

    def test_document_with_no_sections(self):
        assert documents(".I 4") == [(4, "")]

    def test_multiline_sections_whitespace_normalized(self):
        content = ".I 1\n.W\n  line one\n\tline   two\n"
        assert documents(content) == [(1, "line one line two")]

    def test_bad_id_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            documents(".I 1\n.W\n.I x\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            documents(".I 1\n.W\na\n.I 1\n.W\nb")

    def test_count_equals_marker_count(self):
        content = "".join(f".I {i}\n.W\nword{i}\n" for i in range(1, 42))
        docs = documents(content)
        assert len(docs) == content.count(".I ")

    def test_dot_line_that_is_not_a_marker_is_content(self):
        assert documents(".I 1\n.W\n.5 percent solution") == [
            (1, ".5 percent solution")
        ]


class TestParseQueries:
    def test_single(self):
        assert parse_queries(".I 1\n.W\nwhat is x") == {1: "what is x"}

    def test_empty_file(self):
        assert parse_queries("") == {}
        assert parse_queries("\n \n") == {}

    def test_only_w_sections_kept(self):
        content = ".I 2\n.T\nignored title\n.W\nthe question"
        assert parse_queries(content) == {2: "the question"}


class TestParseNpl:
    CONTENT = "1\nenergy levels in gases\n/\n2\nmicrowave spectroscopy\n  /\n"

    def test_documents(self):
        assert documents(self.CONTENT) == [
            (1, "energy levels in gases"),
            (2, "microwave spectroscopy"),
        ]

    def test_id_on_text_line(self):
        assert documents("3 compact text\n/\n") == [(3, "compact text")]

    def test_queries(self):
        assert parse_queries(self.CONTENT) == {
            1: "energy levels in gases",
            2: "microwave spectroscopy",
        }

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            documents("1\na\n/\n1\nb\n/\n")


class TestParseLisa:
    CONTENT = (
        "Document 1\nLIBRARY AUTOMATION.\nthe effects of automation.\n"
        "********************************************\n"
        "Document 2\nCATALOGUING RULES.\n"
        "********************************************\n"
    )

    def test_documents(self):
        assert documents(self.CONTENT) == [
            (1, "LIBRARY AUTOMATION. the effects of automation."),
            (2, "CATALOGUING RULES."),
        ]

    def test_queries_hash_terminated(self):
        content = "1\nWHAT IS AUTOMATION\nIN LIBRARIES #\n2\nSECOND QUERY#\n"
        assert parse_queries(content) == {
            1: "WHAT IS AUTOMATION IN LIBRARIES",
            2: "SECOND QUERY",
        }


class TestParseQrels:
    def test_two_column(self):
        assert parse_qrels("1 13\n1 14\n2 13") == ({1: {13, 14}, 2: {13}}, 0)

    def test_four_column(self):
        assert parse_qrels("1 0 13 1") == ({1: {13}}, 0)

    def test_three_column_any_grade_counts(self):
        assert parse_qrels("1 13 2\n1 14 -1") == ({1: {13, 14}}, 1)

    def test_duplicates_collapse(self):
        assert parse_qrels("1 13\n1 13") == ({1: {13}}, 0)

    def test_auto_detect(self):
        assert parse_qrels("1 0 13 1\n1 0 14 1") == ({1: {13, 14}}, 0)
        assert parse_qrels("3 7") == ({3: {7}}, 0)

    def test_auto_detect_four_column_with_float_grades(self):
        # second column holds the doc id when it is not uniformly zero
        content = " 1  28 0.000000 0.000000\n 1  35 0.000000 0.000000\n"
        assert parse_qrels(content) == ({1: {28, 35}}, 0)

    def test_idlist(self):
        content = "1\n10 11\n12\n/\n2 20\n/\n"
        assert parse_qrels(content) == ({1: {10, 11, 12}, 2: {20}}, 0)

    def test_idlist_last_record_needs_no_slash(self):
        assert parse_qrels("1\n10 11\n/\n2 20\n21") == ({1: {10, 11}, 2: {20, 21}}, 0)
        with pytest.raises(ParseError, match="line 4"):
            parse_qrels("1\n10 11\n/\n2 x\n21")

    @pytest.mark.parametrize("content", ["1\n1\n/\n2\n/\n", "1 1\n/\n\n2\n",
                                         "1 1\n/\n\n2 \n/\n/"])
    def test_idlist_list_naming_no_doc_fails_at_its_line(self, content):
        with pytest.raises(ParseError, match=r"^line 4: query 2 lists no relevant doc id$"):
            parse_qrels(content)

    def test_idlist_is_read_as_npl_records(self):
        # a query id is an NPL record id; a doc id keeps its own message
        with pytest.raises(ParseError, match=r"^line 5: bad record id 'x'$"):
            parse_qrels("1\n10\n/\n\nx 20\n/\n")
        with pytest.raises(ParseError, match=r"^line 4: non-integer id$"):
            parse_qrels("1\n10\n/\n2\n20 y\n")
        assert parse_qrels("1 10\n/\n2 20\n/\n1\n11\n") == ({1: {10, 11}, 2: {20}}, 0)

    def test_list_on_the_line_of_its_query_id_is_a_row(self):
        # without a "/" line it is byte for byte a row of three columns;
        # NPL's lists put the query id alone on its line
        assert parse_qrels("1 10 11\n") == ({1: {10}}, 0)
        # a "/" line makes the file lists, past rows that fail as columns
        assert parse_qrels("1 10 11\n12\n/\n") == ({1: {10, 11, 12}}, 0)

    def test_non_integer_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels("1 13\n1 x")

    def test_order_insensitive(self):
        lines = [f"{q} {d}" for q in range(1, 6) for d in range(q, q + 4)]
        expected = parse_qrels("\n".join(lines))
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(lines)
            assert parse_qrels("\n".join(lines)) == expected

    def test_idempotent_via_tsv_round_trip(self):
        qrels, _ = parse_qrels("2 4\n1 9\n1 3")
        tsv = "".join(f"{q}\t{d}\n" for q in sorted(qrels) for d in sorted(qrels[q]))
        assert parse_qrels(tsv) == (qrels, 0)

    def test_empty(self):
        assert parse_qrels("") == ({}, 0)

    # the layout each file shows: rows of columns (auto) or relevance lists
    @pytest.mark.parametrize("content, layout, count", [
        ("1 0 5 1\n1 0 6 0\n2 0 7 -2\n", "auto", 2),
        ("1 5 0\n1 6 0.0\n1 7 x\n1 8 1\n", "auto", 2),  # "x" is not a number
        ("1 5 0\n1 6 0\n", "auto", 2),
        ("1 5 0 0\n1 6 0 0\n", "auto", 0),  # CISI: query doc x x, no grade
        ("1 5 0 0\n1 0 6 0\n", "auto", 0),  # second column not all "0": CISI
        ("1 0\n1 6\n", "auto", 0),
        ("1 0 0\n/\n", "idlist", 0),
    ])
    def test_nonpositive_grades(self, content, layout, count):
        # counted only: every listed pair stays relevant
        qrels, nonpositive = parse_qrels(content)
        if layout == "idlist":
            assert qrels == _qrels_idlist(content.split("\n"))
        assert nonpositive == count
        assert sum(map(len, qrels.values())) == content.count("\n") - content.count("/")


SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


class TestLineBreaks:
    """Only "\n" and "\r\n" end a line, as in an editor; the other line
    separators of str.splitlines() are text."""

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_separator_inside_a_smart_record(self, sep):
        content = f".I 1\n.W\nabc{sep}.I 2\n"
        assert documents(content) == [(1, "abc .I 2")]

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_error_line_as_an_editor_counts(self, sep):
        with pytest.raises(ParseError, match="line 4"):
            documents(f".I 1\n.W\na{sep}b\n.I x\n")
        with pytest.raises(ParseError, match="line 3"):
            documents(f"1 a{sep}b\n/\nx y\n/\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels(f"1 2{sep}\n1 x\n")

    # Whitespace-only lines that a "\n" split keeps as text, inside and between
    # records; a marker with leading whitespace; an id with trailing tabs. A
    # marker line's rest keeps its inner whitespace, a text line's does not.
    SMART_WHITESPACE = (
        "\x0b\n　\n"
        ".I 1\n"
        "\x0c\n"
        ".T\n"
        "a\x0btitle\n"
        " .W  body\t text \n"
        "\x0b\n\x0c\n\x1c\n \n　\n"
        "more　text\x1c\n"
        ".I 2\t\t\n"
        " \x1c\n"
        ".A\n"
        "an author\n"
        "\x0c\n"
        "\t.W\t\n"
        "second\n"
        "\x0b\n"
        ".I 3\n"
        ".W\n"
    )

    def test_smart_whitespace_lines_and_markers(self):
        content = self.SMART_WHITESPACE
        assert documents(content) == [
            (1, "a title body\t text more text"),
            (2, "second"),
            (3, ""),
        ]
        assert parse_queries(content) == {
            1: "body\t text more text", 2: "second", 3: ""
        }

    @pytest.mark.parametrize("parse", [documents, parse_queries])
    @pytest.mark.parametrize("tail,message", [
        ("\x0c\n.I 1\n", "line 25: duplicate record id 1"),
        ("　\n.I 4\t\tx\n", "line 25: bad .I record id '4\\t\\tx'"),
        ("\x1c\n .I  x\n", "line 25: bad .I record id 'x'"),
    ])
    def test_smart_error_lines_count_whitespace_lines(self, parse, tail, message):
        with pytest.raises(ParseError) as e:
            parse(self.SMART_WHITESPACE + tail)
        assert str(e.value) == message
        # a file whose first non-blank line is no .I line is not SMART
        with pytest.raises(ParseError) as e:
            parse("\x0c\n \n .W\n")
        assert str(e.value) == "line 3: bad record id '.W'"

    def test_crlf(self):
        assert documents(".I 1\r\n.W\r\nabc\r\n.I 2\r\n") == [
            (1, "abc"), (2, "")
        ]
        assert documents("Document 3\r\ntext\r\n****\r\n") == [(3, "text")]
        assert parse_qrels("1 2\r\n1 3\r\n") == ({1: {2, 3}}, 0)


# Fuzzing: on any text, a parser returns records or raises ParseError with a
# line of the input; nothing else escapes. Lines are drawn from pieces of
# every layout, so the parsers get past their first checks.
PIECES = [
    ".I", ".W", ".T", ".A", ".X", "/", "#", "*", "**", "Document", "document",
    "1", "2", "-3", "0", "007", "1_0", "x", "\u0663", "1" * 4400, "1 0 2 1", "1 2 3",
    " ", "\t", "\x0c", "\x85", "\u2028",
    "\r", "\ufeff", "\u00e9", "\x1c", "\x1d", "\x1e", "\u2029", "\r\n", "\x0b",
]
fuzz_lines = st.lists(st.sampled_from(PIECES), max_size=5).map(" ".join)
fuzz_text = st.one_of(
    st.text(max_size=200),
    st.lists(fuzz_lines, max_size=12).map("\n".join),
)

# a first row of each layout ahead of fuzzed lines: none (auto), so the
# fuzzed lines pick it; a lone query id (idlist); a row of each width
QRELS_FIRST_ROWS = {"auto": "", "idlist": "1\n", "two": "1 2\n", "three": "1 2 1\n",
                    "four": "1 0 2 1\n"}


def parses_or_parse_error(parse, content):
    """parse(content) returns, or raises ParseError naming a non-blank line
    as an editor counts lines: split at "\n" and "\r\n" only."""
    try:
        parse(content)
    except ParseError as e:
        lines = content.replace("\r\n", "\n").split("\n")
        assert 1 <= e.line <= len(lines)
        assert lines[e.line - 1].strip()


def one_record_of(kind, fmt):
    """The parser of a kind of file, and a template of one record of the
    layout whose id is on its first line."""
    if kind == "queries":
        return parse_queries, "{}\nw x #\n" if fmt == "lisa" else RECORDS[fmt]
    return documents, RECORDS[fmt]


RECORDS = {
    "smart": ".I {}\n.T\nt\n.W\nw\n",
    "npl": "{}\nw\n/\n",
    "lisa": "Document {}\nw\n****\n",
}


# documents 1 and 2, and queries 1 and 2, in each layout, with blank
# lines, a second header word case and spacing, and text lines that look
# like another layout's
LAYOUT_FILES = {
    "smart": ("\n \n.I 1\n.T\nzebra\n.W\nyak ox\n.I  2\n.W\nzebra\n",
              "\n.I 1\n.T\nignored #\n.W\nzebra yak\n.I 2\n.W\nox\n"),
    "npl": ("\n1\nzebra\nyak ox\n   /\n2\n.I zebra\n/\n", "1\nzebra yak\n/\n2 ox\n/\n"),
    "lisa": ("\t\nDocument  1\nzebra\nyak ox\n****\ndocument 2\nzebra\n****\n",
             "\n1\nzebra\nyak #\n2\nox#\n"),
}
DOC_READERS = {"smart": _smart, "npl": _npl, "lisa": _lisa}
QUERY_READERS = {"smart": lambda lines: _smart(lines, frozenset({".W"})), "npl": _npl,
                 "lisa": _lisa_queries}


@pytest.mark.parametrize("fmt", LAYOUTS)
def test_each_file_reads_in_the_layout_it_shows(fmt):
    # the records of the layout's own reader, as naming the layout gave them
    docs, queries = LAYOUT_FILES[fmt]
    text = ".I zebra" if fmt == "npl" else "zebra"
    assert documents(docs) == [(1, "zebra yak ox"), (2, text)]
    assert documents(docs) == [(i, t) for _, i, t in DOC_READERS[fmt](docs.split("\n"))]
    assert parse_queries(queries) == {1: "zebra yak", 2: "ox"}
    assert parse_queries(queries) == {i: t for _, i, t in QUERY_READERS[fmt](queries.split("\n"))}


@pytest.mark.parametrize("parse, content, message", [
    # text before a SMART file's first .I line is read, and fails
    (documents, "junk\n.I 1\n.W\nzebra\n", "line 1: bad record id 'junk'"),
    (parse_queries, "\njunk\n.I 1\n.W\nzebra\n", "line 2: bad record id 'junk'"),
    # a LISA header holds two words, the second an id
    (documents, "Document x\nzebra\n****\n", "line 1: bad document id 'x'"),
    (documents, "\nDocument 1 2\nzebra\n", "line 2: bad record id 'Document'"),
    (parse_queries, "1\nzebra #\nx\nyak #\n", "line 3: bad query id 'x'"),
], ids=["smart-docs", "smart-queries", "lisa-docs", "lisa-docs-words", "lisa-queries"])
def test_a_file_is_read_in_the_layout_its_first_line_shows(parse, content, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(content)


@pytest.mark.parametrize("fmt", LAYOUTS)
def test_documents_stream_a_record_at_a_time(fmt):
    # the first record comes before the reader takes more than the line
    # that ends it, however long the file
    record = RECORDS[fmt]
    lines = "".join(record.format(i) for i in range(1, 1001)).split("\n")
    taken = 0

    def counted():
        nonlocal taken
        for line in lines:
            taken += 1
            yield line

    records = parse_documents(counted())
    assert taken == 0
    assert next(records) == (1, "t w" if fmt == "smart" else "w")
    assert taken <= record.count("\n") + 1


@pytest.mark.parametrize("fmt", LAYOUTS)
def test_queries_keep_file_order(fmt):
    _, template = one_record_of("queries", fmt)
    ids = [5, 2, 9, 1, 7]
    assert list(parse_queries("".join(map(template.format, ids)))) == ids


# first lines of each layout ahead of fuzzed lines, which pick the reader:
# none (auto), so the fuzzed lines pick it, or a record's first lines
DOC_HEADS = {"smart": ".I 1\n", "npl": "1\n", "lisa": "Document 1\n", "auto": ""}
QUERY_HEADS = {"smart": ".I 1\n", "npl": "1\n", "lisa": "1\nw #\n", "auto": ""}


class TestFuzz:
    @pytest.mark.parametrize("fmt", DOC_HEADS)
    @given(content=fuzz_text)
    def test_document_parsers(self, fmt, content):
        parses_or_parse_error(documents, DOC_HEADS[fmt] + content)

    @pytest.mark.parametrize("fmt", QUERY_HEADS)
    @given(content=fuzz_text)
    def test_query_parsers(self, fmt, content):
        parses_or_parse_error(parse_queries, QUERY_HEADS[fmt] + content)

    @pytest.mark.parametrize("layout", QRELS_FIRST_ROWS)
    @given(content=fuzz_text)
    def test_qrels_parser(self, layout, content):
        parses_or_parse_error(parse_qrels, QRELS_FIRST_ROWS[layout] + content)

    @pytest.mark.parametrize("kind", ["documents", "queries"])
    @pytest.mark.parametrize("fmt", LAYOUTS)
    def test_repeated_id_fails_at_its_second_line(self, kind, fmt):
        parse, record = one_record_of(kind, fmt)
        n = record.count("\n")
        with pytest.raises(ParseError, match=rf"^line {2 * n + 1}: duplicate record id 1$"):
            parse(record.format(1) + record.format(2) + record.format(1))

    @pytest.mark.parametrize("kind", ["documents", "queries"])
    @pytest.mark.parametrize("fmt", LAYOUTS)
    def test_repeated_id_is_reported_before_a_later_bad_id(self, kind, fmt):
        # a reader yields a record before it reads the next id, so the
        # repeat, the first fault of the file, is the one reported
        parse, record = one_record_of(kind, fmt)
        n = record.count("\n")
        with pytest.raises(ParseError, match=rf"^line {n + 1}: duplicate record id 1$"):
            parse(record.format(1) + record.format(1) + record.format("x"))

    @pytest.mark.parametrize("doc_id", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("fmt", LAYOUTS)
    def test_doc_id_outside_int64_fails_at_its_line(self, fmt, doc_id):
        # the index's doc-id column is int64, so the file is refused at the line
        parse, record = one_record_of("documents", fmt)
        n = record.count("\n")
        with pytest.raises(ParseError, match=rf"^line {n + 1}: doc id {doc_id} does not fit "
                                             r"in a signed 64-bit integer$"):
            parse(record.format(1) + record.format(doc_id))
        ends = [2**63 - 1, -(2**63)]
        assert [doc for doc, _ in parse("".join(map(record.format, ends)))] == ends
        # a query id is unbounded
        parse, record = one_record_of("queries", fmt)
        assert list(parse(record.format(1) + record.format(doc_id))) == [1, doc_id]

    def test_qrels_layout_error_names_the_first_row(self):
        # the error named line 1 even when the first row came later
        with pytest.raises(ParseError, match="line 3"):
            parse_qrels("\n\n1 2 3 4 5\n")
