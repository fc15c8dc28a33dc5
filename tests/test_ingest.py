"""Streaming ingest: the --docs file is read a chunk at a time, parsed one
record at a time and folded into the posting columns, so a command holds
the postings, not the collection."""

import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from logbase_ir import textpipe
from logbase_ir.cli import main
from logbase_ir.collection_io import (
    DOC_FORMATS,
    ParseError,
    file_lines,
    parse_documents,
)
from logbase_ir.textpipe import split_lines

from conftest import perfbench

line_text = st.lists(st.sampled_from(["a", "b c", "\r", "\n", "\r\n", "é", "\x85", " "]),
                     max_size=40).map("".join)


@given(line_text, st.integers(min_value=1, max_value=9))
def test_file_lines_split_as_lines(text, chunk_size):
    # a "\r\n" may straddle two chunks
    got = list(file_lines(io.StringIO(text, newline=""), chunk_size))
    assert got == split_lines(text)


@pytest.mark.parametrize("fmt", DOC_FORMATS)
@given(content=st.lists(st.sampled_from(
    [".I 1", ".I 2", ".W", ".T", "/", "1 a", "2 b", "Document 1", "Document 2", "****", "x y",
     '{"id": 1, "text": "a"}', '{"id": 2, "text": "b"}', "", "\r"]
), max_size=10).map("\n".join))
def test_stream_gives_the_records_and_errors_of_the_whole_text(fmt, content):
    def outcome(records):
        try:
            return list(records())
        except ParseError as e:
            return str(e)

    whole = outcome(lambda: parse_documents(split_lines(content), fmt))
    lines = file_lines(io.StringIO(content, newline=""), 4)
    assert outcome(lambda: parse_documents(lines, fmt)) == whole


def test_index_peak_memory_is_a_few_snapshots(tmp_path, capsys):
    """On the benchmark's NPL-shaped collection (11,000 documents, seed 1),
    building and saving the index allocates at its peak no more than four
    times the snapshot's size; holding every document and token list, as a
    whole-file parse does, took 6.8 times."""
    gen = perfbench("gen")
    paths = gen.write(gen.generate(gen.NPL, 1), str(tmp_path / "npl"))
    snapshot = tmp_path / "npl.idx"
    # as in a fresh process: no term map filled by earlier tests
    textpipe._terms.cache_clear()
    tracemalloc.start()
    try:
        code = main(["index", "--docs", paths["docs"], "--save-index", str(snapshot)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= 4 * snapshot.stat().st_size
