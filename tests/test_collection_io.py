import io
import random

import pytest
from hypothesis import given, strategies as st

from logbase_ir.collection_io import (
    DOC_FORMATS,
    ParseError,
    _qrels_idlist,
    parse_documents,
    parse_qrels,
    parse_queries,
)


def documents(content: str, fmt: str) -> list[tuple[int, str]]:
    """The (doc_id, text) records of a document file's text, from its lines
    as the open file gives them to the commands."""
    return list(parse_documents(io.StringIO(content, newline="\n"), fmt))


class TestParseSmart:
    def test_two_documents(self):
        content = ".I 1\n.W\nhello world\n.I 2\n.W\nfoo"
        assert documents(content, "smart") == [
            (1, "hello world"),
            (2, "foo"),
        ]

    def test_title_and_body_joined(self):
        content = ".I 3\n.T\ntitle\n.W\nbody"
        assert documents(content, "smart") == [(3, "title body")]

    def test_other_sections_discarded(self):
        content = ".I 7\n.T\nt\n.A\nauthor x\n.B\njournal 1999\n.W\nw\n.X\n1 2 3"
        assert documents(content, "smart") == [(7, "t w")]

    def test_empty_file(self):
        assert documents("", "smart") == []

    def test_document_with_no_sections(self):
        assert documents(".I 4", "smart") == [(4, "")]

    def test_multiline_sections_whitespace_normalized(self):
        content = ".I 1\n.W\n  line one\n\tline   two\n"
        assert documents(content, "smart") == [(1, "line one line two")]

    def test_bad_id_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            documents(".I 1\n.W\n.I x\n", "smart")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            documents(".I 1\n.W\na\n.I 1\n.W\nb", "smart")

    def test_count_equals_marker_count(self):
        content = "".join(f".I {i}\n.W\nword{i}\n" for i in range(1, 42))
        docs = documents(content, "smart")
        assert len(docs) == content.count(".I ")

    def test_dot_line_that_is_not_a_marker_is_content(self):
        assert documents(".I 1\n.W\n.5 percent solution", "smart") == [
            (1, ".5 percent solution")
        ]


class TestParseQueries:
    def test_single(self):
        assert parse_queries(".I 1\n.W\nwhat is x") == {1: "what is x"}

    def test_empty_file(self):
        assert parse_queries("") == {}

    def test_only_w_sections_kept(self):
        content = ".I 2\n.T\nignored title\n.W\nthe question"
        assert parse_queries(content) == {2: "the question"}


class TestParseNpl:
    CONTENT = "1\nenergy levels in gases\n/\n2\nmicrowave spectroscopy\n  /\n"

    def test_documents(self):
        assert documents(self.CONTENT, "npl") == [
            (1, "energy levels in gases"),
            (2, "microwave spectroscopy"),
        ]

    def test_id_on_text_line(self):
        assert documents("3 compact text\n/\n", "npl") == [(3, "compact text")]

    def test_queries_via_format_flag(self):
        assert parse_queries(self.CONTENT, format="npl") == {
            1: "energy levels in gases",
            2: "microwave spectroscopy",
        }

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            documents("1\na\n/\n1\nb\n/\n", "npl")


class TestParseLisa:
    CONTENT = (
        "Document 1\nLIBRARY AUTOMATION.\nthe effects of automation.\n"
        "********************************************\n"
        "Document 2\nCATALOGUING RULES.\n"
        "********************************************\n"
    )

    def test_documents(self):
        assert documents(self.CONTENT, "lisa") == [
            (1, "LIBRARY AUTOMATION. the effects of automation."),
            (2, "CATALOGUING RULES."),
        ]

    def test_queries_hash_terminated(self):
        content = "1\nWHAT IS AUTOMATION\nIN LIBRARIES #\n2\nSECOND QUERY#\n"
        assert parse_queries(content, "lisa") == {
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


@pytest.mark.parametrize("parse, message", [
    (lambda: parse_documents([], "bogus"), "unknown document format 'bogus'"),
    (lambda: parse_queries("", "bogus"), "unknown query format 'bogus'"),
], ids=["documents", "queries"])
def test_unknown_format_is_value_error(parse, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse()


class TestLineBreaks:
    """Only "\n" and "\r\n" end a line, as in an editor; the other line
    separators of str.splitlines() are text."""

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_separator_inside_a_smart_record(self, sep):
        content = f".I 1\n.W\nabc{sep}.I 2\n"
        assert documents(content, "smart") == [(1, "abc .I 2")]

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_error_line_as_an_editor_counts(self, sep):
        with pytest.raises(ParseError, match="line 4"):
            documents(f".I 1\n.W\na{sep}b\n.I x\n", "smart")
        with pytest.raises(ParseError, match="line 3"):
            documents(f"1 a{sep}b\n/\nx y\n/\n", "npl")
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
        assert documents(content, "smart") == [
            (1, "a title body\t text more text"),
            (2, "second"),
            (3, ""),
        ]
        assert parse_queries(content, "smart") == {
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
            parse(self.SMART_WHITESPACE + tail, "smart")
        assert str(e.value) == message
        with pytest.raises(ParseError) as e:
            parse("\x0c\n \n .W\n", "smart")
        assert str(e.value) == "line 3: section .W before any .I record"

    def test_crlf(self):
        assert documents(".I 1\r\n.W\r\nabc\r\n.I 2\r\n", "smart") == [
            (1, "abc"), (2, "")
        ]
        assert documents("Document 3\r\ntext\r\n****\r\n", "lisa") == [(3, "text")]
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
    """The parser of a kind of file, and a template of one record whose id
    is on its first line."""
    if kind == "queries":
        template = "{}\nw x #\n" if fmt == "lisa" else RECORDS[fmt]
        return lambda c: parse_queries(c, fmt), template
    return lambda c: documents(c, fmt), RECORDS[fmt]


RECORDS = {
    "smart": ".I {}\n.T\nt\n.W\nw\n",
    "npl": "{}\nw\n/\n",
    "lisa": "Document {}\nw\n****\n",
}


@pytest.mark.parametrize("fmt", DOC_FORMATS)
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

    records = parse_documents(counted(), fmt)
    assert taken == 0
    assert next(records) == (1, "t w" if fmt == "smart" else "w")
    assert taken <= record.count("\n") + 1


@pytest.mark.parametrize("fmt", DOC_FORMATS)
def test_queries_keep_file_order(fmt):
    template = "{}\nw x #\n" if fmt == "lisa" else RECORDS[fmt]
    ids = [5, 2, 9, 1, 7]
    assert list(parse_queries("".join(map(template.format, ids)), fmt)) == ids


class TestFuzz:
    @pytest.mark.parametrize("fmt", DOC_FORMATS)
    @given(content=fuzz_text)
    def test_document_parsers(self, fmt, content):
        parses_or_parse_error(lambda c: documents(c, fmt), content)

    @pytest.mark.parametrize("fmt", DOC_FORMATS)
    @given(content=fuzz_text)
    def test_query_parsers(self, fmt, content):
        parses_or_parse_error(lambda c: parse_queries(c, fmt), content)

    @pytest.mark.parametrize("layout", QRELS_FIRST_ROWS)
    @given(content=fuzz_text)
    def test_qrels_parser(self, layout, content):
        parses_or_parse_error(parse_qrels, QRELS_FIRST_ROWS[layout] + content)

    @pytest.mark.parametrize("kind", ["documents", "queries"])
    @pytest.mark.parametrize("fmt", DOC_FORMATS)
    def test_repeated_id_fails_at_its_second_line(self, kind, fmt):
        parse, record = one_record_of(kind, fmt)
        n = record.count("\n")
        with pytest.raises(ParseError, match=rf"^line {2 * n + 1}: duplicate record id 1$"):
            parse(record.format(1) + record.format(2) + record.format(1))

    @pytest.mark.parametrize("kind", ["documents", "queries"])
    @pytest.mark.parametrize("fmt", DOC_FORMATS)
    def test_repeated_id_is_reported_before_a_later_bad_id(self, kind, fmt):
        # a reader yields a record before it reads the next id, so the
        # repeat, the first fault of the file, is the one reported
        parse, record = one_record_of(kind, fmt)
        n = record.count("\n")
        with pytest.raises(ParseError, match=rf"^line {n + 1}: duplicate record id 1$"):
            parse(record.format(1) + record.format(1) + record.format("x"))

    @pytest.mark.parametrize("doc_id", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("fmt", DOC_FORMATS)
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
