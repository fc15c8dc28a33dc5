"""Streaming ingest: the --docs file is read a line at a time, parsed one
record at a time and folded into the posting columns, so a command holds
the postings, not the collection. Every input ends its lines at "\n"
alone, read from the file or split from its whole text."""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logbase_ir import cli, textpipe
from logbase_ir.collection_io import parse_documents, parse_qrels, parse_queries

from conftest import perfbench

line_text = st.lists(st.sampled_from(["a", "b c", "\r", "\n", "\r\n", "é", "\x85", " "]),
                     max_size=40).map("".join)


@given(line_text)
def test_file_lines_split_as_lines(text):
    # an input file ends a line at "\n" only and keeps it; its whole text
    # split at "\n" gives the same lines, and a last "" after a final "\n"
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "input")
        path.write_bytes(text.encode("utf-8"))
        got = [line.removesuffix("\n") for line in cli._read(path, list)]
        whole = cli._read(path).split("\n")
    assert got == (whole[:-1] if whole[-1] == "" else whole)


_DOC_LINES = [".I 1", ".I 2", ".W", ".T", "/", "1 a", "2 b", "Document 1", "Document 2", "****",
              "x y", "", "\r"]
_QRELS_LINES = ["1 2", "1 3 1", "1 0 2 1", "2 0 3 0", "1 2 x", "/", "1", "2", "x", "", "\r"]
# the lines of each qrels layout, which the file's own lines pick: every
# layout's (auto), rows of one width, or relevance lists
_QRELS = {"auto": _QRELS_LINES,
          "two": ["1 2", "2 3", "1 x", "x", "", "\r"],
          "three": ["1 3 1", "2 3 0", "1 2 x", "x", "", "\r"],
          "four": ["1 0 2 1", "2 0 3 0", "1 5 0 0", "x", "", "\r"],
          "idlist": ["1", "2", "1 2", "/", "x", "", "\r"]}
# the first lines of a document and a query file in each layout, which
# pick its reader: SMART's .I line, LISA's header (its queries: a #-ended
# line) and NPL's id
_DOC_HEADS = {"smart": [".I 1"], "npl": ["1 a"], "lisa": ["Document 1"]}
_QUERY_HEADS = {"smart": [".I 1"], "npl": ["1"], "lisa": ["1", "a #"]}
# (input, layout, its first lines, the lines of its texts, its reader as the
# commands call it); an NPL query file holds no #-ended line
_INPUTS = [
    *(("docs", fmt, head, _DOC_LINES,
       lambda path: cli._read(path, lambda f: list(parse_documents(f))))
      for fmt, head in _DOC_HEADS.items()),
    *(("queries", fmt, head, [*_DOC_LINES, "1", "2", *["a #", "#"] * (fmt != "npl")],
       lambda path: cli._read(path, lambda f: parse_queries(f.read())))
      for fmt, head in _QUERY_HEADS.items()),
    *(("qrels", layout, [], lines, lambda path: cli._read(path, lambda f: parse_qrels(f.read())))
      for layout, lines in _QRELS.items()),
    ("config", None, [], ["top=3", "top = 4", "docs=d", "# c", "cutoff=5 # c", "bad", "x=1",
                          "", "\r"], cli._load_config),
    ("stoplist", None, [], ["the", "a b", "# c", "of # x", "é", "", "\r"],
     lambda path: textpipe.parse_stoplist(cli._read(path))),
]


@pytest.mark.parametrize(
    "head, lines, read", [(head, lines, read) for _, _, head, lines, read in _INPUTS],
    ids=[fmt if kind == "docs" else "-".join(filter(None, (kind, fmt)))
         for kind, fmt, _, _, _ in _INPUTS],
)
@given(data=st.data())
def test_stream_gives_the_records_and_errors_of_the_whole_text(head, lines, read, data):
    # every input, read as the commands read it, gives the same records, or
    # the same error at the same line, whether its lines end at "\n" or at
    # "\r\n": every reader takes the "\r" before a "\n" for whitespace
    content = "\n".join(head + data.draw(st.lists(st.sampled_from(lines), max_size=10)))

    def outcome(text):
        path.write_bytes(text.encode("utf-8"))
        try:
            return read(path)
        except cli._Exit as e:
            return e.code, str(e)

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "input")
        assert outcome(content.replace("\n", "\r\n")) == outcome(content)


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
        code = cli.main(["index", "--docs", paths["docs"], "--save-index", str(snapshot)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= 4 * snapshot.stat().st_size
