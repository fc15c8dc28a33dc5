import ast
import errno
import functools
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from logbase_ir import index as index_mod
from logbase_ir.cli import _OPTIONS, build_parser, main
from logbase_ir.collection_io import DOC_FORMATS, QRELS_FORMATS
from logbase_ir.evaluation import INTERPOLATION_MODES, POOLING_MODES
from logbase_ir.index import InvertedIndex
from logbase_ir.textpipe import PIPELINE_VERSION, default_stoplist, stoplist_fingerprint


@pytest.fixture
def collection(tmp_path):
    """31 documents: 30 contain only 'zebra', one contains only 'yak'."""
    docs = "".join(f".I {i}\n.W\nzebra\n" for i in range(1, 31)) + ".I 31\n.W\nyak\n"
    queries = ".I 1\n.W\nzebra\n"
    qrels = "".join(f"1 {i}\n" for i in range(1, 31))
    paths = {
        "docs": tmp_path / "docs.all",
        "queries": tmp_path / "queries.qry",
        "qrels": tmp_path / "qrels.txt",
    }
    paths["docs"].write_text(docs)
    paths["queries"].write_text(queries)
    paths["qrels"].write_text(qrels)
    return paths


def _v5(postings, tfs, df=None, norms=(1.0, 1.0, 0.0), **changes) -> bytes:
    """A format 5 snapshot of three documents and one term, 'zebra', built
    with the bundled stoplist: ``postings`` and ``tfs`` are the stored
    values, the first position then gaps less one, and tfs less one."""
    body = struct.pack(f"<{len(postings) + len(tfs)}Q3q3d", *postings, *tfs, 1, 2, 3, *norms)
    header = {
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "format_version": 5,
        "n_docs": 3,
        "pipeline_version": PIPELINE_VERSION,
        "stoplist_sha256": stoplist_fingerprint(default_stoplist()),
        "terms": ["zebra"],
        "df": [len(postings)] if df is None else df,
        **changes,
    }
    return json.dumps(header).encode() + b"\n" + body


def _v4() -> bytes:
    """The format 4 snapshot of doc 1 holding 'zebra' once, of three."""
    body = struct.pack("<5q3d", 1, 1, 1, 2, 3, 1.0, 0.0, 0.0)
    header = {
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "format_version": 4,
        "n_docs": 3,
        "stoplist_sha256": stoplist_fingerprint(default_stoplist()),
        "terms": ["zebra"],
        "df": [1],
    }
    return json.dumps(header).encode() + b"\n" + body


def _v3(n_docs: int) -> bytes:
    """A format 3 snapshot: header, then the doc-id and tf columns."""
    header = {
        "format_version": 3,
        "n_docs": n_docs,
        "stoplist_sha256": stoplist_fingerprint(default_stoplist()),
        "terms": ["zebra"],
        "df": [1],
    }
    return json.dumps(header).encode() + b"\n" + struct.pack("<2q", 1, 1)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStatsAndIndex:
    def test_stats_reports_counts(self, capsys, collection):
        code, out, _ = run(capsys, "stats", "--docs", collection["docs"])
        assert code == 0
        assert "documents=31" in out
        assert "distinct_terms=2" in out

    def test_stats_counts_documents_terms_and_text_bytes(self, capsys, tmp_path):
        # the text of the indexed sections, joined by spaces, in UTF-8
        docs = tmp_path / "docs.all"
        docs.write_text(".I 1\n.T\napple\n.W\nbanana  caf\u00e9\n.A\nx\n.I 2\n.W\nbanana cherry\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "stats", "--docs", docs)
        assert code == 0
        text_bytes = len("apple banana caf\u00e9".encode()) + len("banana cherry")
        assert out == f"documents=2 distinct_terms=4 text_bytes={text_bytes}\n"

    def test_lone_carriage_return_is_text(self, capsys, tmp_path):
        # a lone "\r" does not end a line: ".I 1\r.W\rhello world" is one line
        docs = tmp_path / "docs.all"
        docs.write_bytes(b".I 1\r.W\rhello world\n.I 2\n.W\nfoo\n")
        code, out, err = run(capsys, "stats", "--docs", docs)
        assert (code, out) == (1, "")
        assert err == f"error: {docs}: line 1: bad .I record id '1\\r.W\\rhello world'\n"

    def test_non_utf8_docs_is_domain_error(self, capsys, tmp_path):
        docs = tmp_path / "latin1.all"
        docs.write_bytes(".I 1\n.W\ncaf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "stats", "--docs", docs)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {docs}: not UTF-8: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_non_utf8_stoplist_is_domain_error(self, capsys, collection, tmp_path):
        stoplist = tmp_path / "stop.txt"
        stoplist.write_bytes(b"the\n\xff\n")
        code, out, err = run(capsys, "stats", "--docs", collection["docs"],
                             "--stoplist", stoplist)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {stoplist}: not UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_non_utf8_names_the_line_and_the_file_offset(self, capsys, tmp_path):
        # the bad byte lies past the first 64 KiB, so past the reader's first
        # chunks; the decoder's own position counts from its chunk
        head = "".join(f".I {i}\n.W\nzebra\n" for i in range(1, 5001)).encode() + b".I 5001\n.W\n"
        assert len(head) > 1 << 16
        docs = tmp_path / "docs.all"
        docs.write_bytes(head + b"\xff\n")
        code, out, err = run(capsys, "stats", "--docs", docs)
        assert (code, out) == (1, "")
        assert err == (f"error: {docs}: not UTF-8: line 15003: 'utf-8' codec can't decode "
                       f"byte 0xff in position {len(head)}: invalid start byte\n")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--docs", tmp_path / "nope.all")
        assert code == 2
        assert "cannot read" in err

    def test_empty_collection_is_domain_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.all"
        empty.write_text("")
        code, _, err = run(capsys, "stats", "--docs", empty)
        assert code == 1
        assert "empty collection" in err

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.all"
        bad.write_text(".I one\n.W\nx\n")
        code, _, err = run(capsys, "stats", "--docs", bad)
        assert code == 1
        assert "line 1" in err

    def test_index_snapshot_round_trip(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.json"
        code, out, _ = run(
            capsys, "index", "--docs", collection["docs"], "--save-index", snap
        )
        assert code == 0
        assert snap.exists()
        index = InvertedIndex.load(str(snap))
        assert index.n_docs == 31

    @pytest.mark.parametrize("command", ["index", "eval"])
    def test_doc_id_outside_int64_is_domain_error(self, capsys, collection, tmp_path, command):
        collection["docs"].write_text(".I 1\n.W\nzebra\n.I 9223372036854775808\n.W\nyak\n")
        argv = [command, "--docs", collection["docs"]]
        if command == "eval":
            argv += ["--queries", collection["queries"], "--qrels", collection["qrels"],
                     "--out", tmp_path / "out"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == (f"error: {collection['docs']}: line 4: doc id 9223372036854775808 "
                       "does not fit in a signed 64-bit integer\n")

    def test_stats_ignores_save_index_from_config(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\nsave_index={snap}\n")
        code, out, _ = run(capsys, "stats", "--config", cfg)
        assert code == 0
        assert out.startswith("documents=31 distinct_terms=2 ")
        assert "snapshot" not in out
        assert not snap.exists()


class TestSearch:
    def test_ranks_matching_documents(self, capsys, collection):
        code, out, _ = run(capsys, "search", "--docs", collection["docs"], "-k", "3", "zebra")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = lines[0].split("\t")
        assert first[0] == "1" and first[1] == "1"

    def test_k_zero_is_usage_error(self, capsys, collection):
        code, out, err = run(capsys, "search", "--docs", collection["docs"], "-k", "0", "zebra")
        assert code == 2
        assert out == ""
        assert "top must be >= 1, got 0" in err

    def test_stopword_only_query_prints_nothing(self, capsys, collection):
        code, out, _ = run(capsys, "search", "--docs", collection["docs"], "the and a")
        assert code == 0
        assert out == ""

    def test_with_snapshot(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.json"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        code, out, _ = run(capsys, "search", "--load-index", snap, "-k", "2", "zebra")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_search_from_snapshot_decodes_only_its_query_terms(self, capsys, tmp_path,
                                                               monkeypatch):
        # 'apple' once in each document, beside a word of its own a different
        # number of times: six distinct scores, so no near tie reads the
        # other terms' postings
        words = ["kiwi", "lemon", "mango", "nectar", "olive", "peach"]
        docs = tmp_path / "docs.all"
        docs.write_text("".join(f".I {i}\n.W\napple {(word + ' ') * i}\n"
                                for i, word in enumerate(words, start=1)))
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", docs, "--save-index", snap)
        loaded = []
        load = InvertedIndex.load

        def keep(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(InvertedIndex, "load", keep)
        code, out, _ = run(capsys, "search", "--load-index", snap, "apple plum")
        assert code == 0
        assert [line.split("\t")[1] for line in out.splitlines()] == ["1", "2", "3", "4", "5", "6"]
        dictionary = loaded[0].dictionary
        assert len(dictionary) == 7
        assert dictionary._decoded.keys() == {"appl"}

    def test_docs_and_load_index_flags_conflict(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        code, out, err = run(capsys, "search", "--load-index", snap, "--docs",
                             tmp_path / "none.all", "zebra")
        assert code == 2
        assert out == ""
        assert "--load-index and --docs are mutually exclusive" in err

    @pytest.mark.parametrize("flag", ["--docs", "--load-index"])
    def test_docs_or_load_index_flag_outranks_both_config_keys(self, capsys, collection,
                                                               tmp_path, flag):
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        cfg = tmp_path / "run.cfg"
        # the keys name files that do not exist: reading either would exit 2
        cfg.write_text(f"docs={tmp_path / 'none.all'}\nload_index={tmp_path / 'none.bin'}\n")
        path = collection["docs"] if flag == "--docs" else snap
        code, out, err = run(capsys, "search", "--config", cfg, flag, path, "-k", "2", "zebra")
        assert code == 0, err
        assert len(out.splitlines()) == 2

    def test_docs_and_load_index_in_config_conflict(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\nload_index={snap}\n")
        code, out, err = run(capsys, "search", "--config", cfg, "zebra")
        assert code == 2
        assert out == ""
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
    def test_format_is_checked_on_the_snapshot_path(self, capsys, collection, tmp_path,
                                                     config):
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=bogus\n" if config else "")
        flags = [] if config else ["--format", "bogus"]
        code, out, err = run(capsys, "search", "--load-index", snap, "--config", cfg, *flags,
                             "zebra")
        assert code == 2
        assert out == ""
        assert "unknown format 'bogus'" in err
        cfg.write_text("format=jsonl\n")  # a valid format is accepted
        code, out, _ = run(capsys, "search", "--load-index", snap, "--config", cfg, "zebra")
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_invalid_base_is_usage_error(self, capsys, collection):
        code, _, err = run(
            capsys, "search", "--docs", collection["docs"], "--base", "1.0", "zebra"
        )
        assert code == 2
        assert "base" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            # a format 1 snapshot whose only posting names doc id 7
            (json.dumps({
                "format_version": 1,
                "n_docs": 2,
                "dictionary": {"zebra": [1, [[7, 1]]]},
                "doc_lengths": {"1": 1, "2": 0},
            }).encode(), "version 1"),
            (_v5([], [], df=[]), "equal length"),
            (b"[]", "not a JSON object"),
            (b'{"df": [1], "format_version": 3,', "Expecting"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
            (_v5([0], [0])[:-1], "body is 63 bytes, expected 64"),
            (json.dumps({
                "format_version": 2, "n_docs": 3, "dictionary": {"zebra": [[1], [1]]},
            }).encode(), "version 2, which is no longer read; rebuild it"),
            (b"\xff" + _v5([0], [0]), "not UTF-8"),
            (_v3(3), "version 3, which is no longer read; rebuild it"),
            # format 3 read this n_docs, and the search then overflowed
            (_v3(10**400), "version 3, which is no longer read; rebuild it"),
            (_v5([0], [0], n_docs=10**400), "n_docs must be an integer from 1 to 2**63 - 1"),
            # a posting of the fourth document, of three
            (_v5([3], [0]), "term 'zebra': last posting at position 3 of the doc-id column, "
             "expected below n_docs 3"),
            (_v5([0], [0], norms=(float("nan"), 1.0, 0.0)), "doc id 1: norm nan"),
            (_v5([0], [0])[:-1] + b"\x01", "body does not match its sha256"),
            (_v4(), "version 4, which is no longer read; rebuild it"),
            (_v5([0], [0], pipeline_version=PIPELINE_VERSION + 1),
             f"text pipeline version {PIPELINE_VERSION + 1}, not {PIPELINE_VERSION}; rebuild it"),
            (_v5([0, 1, 2**64 - 1], [0, 0, 0]), "term 'zebra': last posting at position "
             "18446744073709551618"),
            (_v5([0], [2**64 - 1]), "tfs sum to 18446744073709551616, expected below 2**63"),
        ],
        ids=[
            "v1-doc-7", "unequal", "list", "truncated", "deep", "truncated-body", "v2",
            "not-utf8", "v3", "v3-huge-n-docs", "huge-n-docs", "absent-doc", "nan-norm",
            "damaged", "v4", "pipeline", "past-end-near-2**64", "tf-near-2**64",
        ],
    )
    def test_malformed_snapshot_is_domain_error(self, capsys, tmp_path, content, message):
        snap = tmp_path / "index.json"
        snap.write_bytes(content)
        code, out, err = run(capsys, "search", "--load-index", snap, "zebra")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {snap}: ")
        assert message in err
        assert len(err.splitlines()) == 1

    def test_search_from_snapshot_imports_only_what_it_runs(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.bin"
        run(capsys, "index", "--docs", collection["docs"], "--save-index", snap)
        script = (
            "import sys; before = set(sys.modules)\n"
            "from logbase_ir.cli import main\n"
            f"assert main(['search', '--load-index', {str(snap)!r}, 'zebra']) == 0\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
        assert "logbase_ir.retrieval" in loaded
        unused = {"logbase_ir.sweep", "logbase_ir.evaluation", "logbase_ir.collection_io",
                  "decimal", "dataclasses"}
        assert loaded & unused == set()

    def test_snapshot_built_with_another_stoplist_is_refused(self, capsys, collection, tmp_path):
        snap = tmp_path / "index.json"
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("yak\n")
        run(capsys, "index", "--docs", collection["docs"], "--stoplist", stoplist,
            "--save-index", snap)
        code, out, err = run(capsys, "search", "--load-index", snap, "zebra")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {snap}: index snapshot was built with another stoplist")
        code, out, _ = run(capsys, "search", "--load-index", snap, "--stoplist", stoplist, "zebra")
        assert code == 0
        assert len(out.splitlines()) == 10


class TestEval:
    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--grid", "2:3:1"]],
                             ids=["eval", "sweep"])
    def test_eval_and_sweep_import_no_dataclasses(self, collection, tmp_path, command):
        argv = [*command, "--docs", collection["docs"], "--queries", collection["queries"],
                "--qrels", collection["qrels"], "--out", str(tmp_path / "out")]
        script = (
            "import sys; before = set(sys.modules)\n"
            "from logbase_ir.cli import main\n"
            f"assert main({[str(a) for a in argv]!r}) == 0\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
        assert "logbase_ir.evaluation" in loaded
        assert "dataclasses" not in loaded

    def test_perfect_retrieval_scores_one(self, capsys, collection, tmp_path):
        code, out, _ = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert "map 1.000000" in out
        assert "map_at_30 1.000000" in out
        csv = (tmp_path / "out" / "eval.csv").read_text().splitlines()
        assert csv[0].startswith("base,level_0.0")
        assert len(csv) == 2

    def test_save_run_writes_tsv(self, capsys, collection, tmp_path):
        run_path = tmp_path / "run.tsv"
        code, _, _ = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
            "--out", tmp_path / "out",
            "--save-run", run_path,
        )
        assert code == 0
        lines = run_path.read_text().splitlines()
        assert len(lines) == 30  # one per ranked zebra document
        qid, doc_id, rank_pos, score = lines[0].split("\t")
        assert (qid, doc_id, rank_pos) == ("1", "1", "1")
        assert float(score) == pytest.approx(1.0)

    @pytest.mark.parametrize("interrupted", ["run.tsv", "eval.csv"])
    def test_interrupted_report_keeps_the_old_file(self, capsys, collection, tmp_path,
                                                   monkeypatch, interrupted):
        out = tmp_path / "out"
        out.mkdir()
        old = {out / "eval.csv": "old eval\n", tmp_path / "run.tsv": "old run\n"}
        for path, text in old.items():
            path.write_text(text)
        replace = os.replace

        def replace_or_interrupt(src, dst):
            if os.path.basename(dst) == interrupted:
                raise KeyboardInterrupt
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_or_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run(capsys, "eval", "--docs", collection["docs"], "--queries",
                collection["queries"], "--qrels", collection["qrels"], "--out", out,
                "--save-run", tmp_path / "run.tsv")
        # the run file is written before eval.csv, so eval.csv is never replaced
        for path, text in old.items():
            assert (path.read_text() == text) == (path.name in (interrupted, "eval.csv"))
        assert not [p for p in tmp_path.rglob("*.tmp")]

    def test_save_run_inside_fresh_out_dir(self, capsys, collection, tmp_path):
        out = tmp_path / "newout"
        code, _, _ = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
            "--out", out,
            "--save-run", out / "run.tsv",
        )
        assert code == 0
        assert (out / "run.tsv").exists()

    @pytest.mark.parametrize("name,content,code", [
        ("queries", b".I 1\n.W\nzebra\n.I 1\n.W\nyak\n", 1),
        ("qrels", b"1 2\n1 x\n", 1),
        ("qrels", None, 2),
        ("docs", ".I 1\n.W\ncaf\u00e9\n".encode("latin-1"), 1),
    ], ids=["duplicate-query-id", "bad-qrels-line", "missing-qrels", "non-utf8-docs"])
    def test_failing_eval_leaves_no_out_dir(self, capsys, collection, tmp_path, name,
                                            content, code):
        if content is None:
            collection[name].unlink()
        else:
            collection[name].write_bytes(content)
        out = tmp_path / "out"
        got, _, err = run(capsys, "eval", "--docs", collection["docs"], "--queries",
                          collection["queries"], "--qrels", collection["qrels"], "--out", out)
        assert (got, err.count("\n")) == (code, 1), err
        assert not out.exists()

    def test_zero_hit_scores_zero(self, capsys, collection, tmp_path):
        zero = collection["qrels"].parent / "zero.txt"
        zero.write_text("1 31\n")  # only the yak document is relevant
        code, out, err = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", zero,
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert "map 0.000000" in out
        assert "empty-bucket" in err

    def test_unknown_query_in_qrels_is_domain_error(self, capsys, collection, tmp_path):
        bad = collection["qrels"].parent / "bad.txt"
        bad.write_text("7 1\n")
        code, _, err = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", bad,
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert "unknown query ids" in err

    def test_norms_computed_once_for_all_queries(self, capsys, tmp_path, monkeypatch):
        docs = tmp_path / "docs.all"
        docs.write_text(".I 1\n.W\napple\n.I 2\n.W\npear\n.I 3\n.W\nplum\n.I 4\n.W\nfig\n")
        queries = tmp_path / "q.qry"
        queries.write_text(".I 1\n.W\napple\n.I 2\n.W\npear plum\n")
        qrels = tmp_path / "q.rel"
        qrels.write_text("1 1\n2 2\n")
        calls = []
        norms = index_mod._norms

        def recording(doc_ids, dictionary):
            calls.append(list(doc_ids))
            return norms(doc_ids, dictionary)

        monkeypatch.setattr(index_mod, "_norms", recording)
        code, _, _ = run(capsys, "eval", "--docs", docs, "--queries", queries,
                         "--qrels", qrels, "--out", tmp_path / "out")
        assert code == 0
        # one pass, when the index is built, for every document; doc 4 is
        # reached by no query
        assert calls == [[1, 2, 3, 4]]

    def test_judged_doc_ids_missing_from_collection_are_noted(self, capsys, tmp_path):
        docs = tmp_path / "two.all"
        docs.write_text(".I 1\n.W\napple banana\n.I 2\n.W\napple cherry\n")
        queries = tmp_path / "two.qry"
        queries.write_text(".I 1\n.W\napple banana\n")
        qrels = tmp_path / "two.rel"
        qrels.write_text("1 1\n1 999\n")
        args = ["--docs", docs, "--queries", queries, "--qrels", qrels]
        code, out, err = run(capsys, "eval", *args, "--out", tmp_path / "out")
        assert code == 0
        assert "map 0.068182" in out
        assert "note: 1 judged doc id is not in the collection" in err.splitlines()
        code, _, err = run(capsys, "sweep", *args, "--base", "10", "--out", tmp_path / "sw")
        assert code == 0
        assert "note: 1 judged doc id is not in the collection" in err.splitlines()

    def test_all_judged_doc_ids_present_gives_no_note(self, capsys, collection, tmp_path):
        code, _, err = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert "judged doc id" not in err

    def test_unjudged_queries_are_noted_and_skipped(self, capsys, tmp_path):
        docs = tmp_path / "two.all"
        docs.write_text(".I 1\n.W\napple banana\n.I 2\n.W\napple cherry\n")
        queries = tmp_path / "three.qry"
        queries.write_text(".I 1\n.W\napple banana\n.I 2\n.W\ncherry\n.I 3\n.W\nbanana\n")
        qrels = tmp_path / "one.rel"
        qrels.write_text("1 1\n1 999\n")  # doc 999 is not in the collection
        args = ["--docs", docs, "--queries", queries, "--qrels", qrels]
        notes = ["note: 1 judged doc id is not in the collection",
                 "note: 2 queries have no judgments and are skipped"]
        out, run_path = tmp_path / "out", tmp_path / "run.tsv"
        code, _, err = run(capsys, "eval", *args, "--out", out, "--save-run", run_path)
        assert code == 0
        # doc 1 at rank 1 is the one point, at recall 0.5
        empty = [f"empty-bucket query=1 level={k / 10:.1f}" for k in range(11) if k != 5]
        assert err.splitlines() == [*notes, *empty, f"report written to {out / 'eval.csv'}"]
        assert [line.split("\t")[0] for line in run_path.read_text().splitlines()] == ["1", "1"]
        code, _, err = run(capsys, "sweep", *args, "--base", "10", "--out", tmp_path / "sw")
        assert code == 0
        assert err.splitlines() == [
            *notes, "note: 1 distinct ranking to the cutoff across 1 base; 0 fragile groups"]

    @pytest.mark.parametrize("options, notes", [
        (["--pooling", "pooled"], [f"empty-bucket level={k / 10:.1f}" for k in range(11)
                                   if k != 5]),
        (["--interp", "standard"], []),
        (["--interp", "standard", "--pooling", "pooled"], []),
    ], ids=["paper-pooled", "standard", "standard-pooled"])
    def test_empty_bucket_notes_only_where_an_empty_bucket_scores(self, capsys, tmp_path,
                                                                   options, notes):
        # a standard level scores from hits, not buckets, and a pooled
        # bucket is no one query's (test_unjudged_queries_are_noted_and_skipped
        # checks the per-query paper notes)
        docs = tmp_path / "four.all"
        docs.write_text(".I 1\n.W\napple banana\n.I 2\n.W\ncherry\n.I 3\n.W\nplum\n"
                        ".I 4\n.W\npear\n")
        queries = tmp_path / "one.qry"
        queries.write_text(".I 1\n.W\napple banana\n")
        qrels = tmp_path / "two.rel"
        qrels.write_text("1 1\n1 2\n")  # doc 1 at rank 1 is the one point, at recall 0.5
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "eval", "--docs", docs, "--queries", queries,
                                "--qrels", qrels, "--out", out, *options)
        assert code == 0
        # standard mode scores level 0.0 from the hit; paper mode, from its empty bucket
        level = "1.000000" if "standard" in options else "0.000000"
        assert stdout.splitlines()[0] == f"level_0.0 {level}"
        assert err.splitlines() == [*notes, f"report written to {out / 'eval.csv'}"]

    def test_notes_of_one_are_worded_in_the_singular(self, capsys, tmp_path):
        docs = tmp_path / "two.all"
        docs.write_text(".I 1\n.W\napple banana\n.I 2\n.W\napple cherry\n")
        queries = tmp_path / "two.qry"
        queries.write_text(".I 1\n.W\napple banana\n.I 2\n.W\ncherry\n")
        qrels = tmp_path / "one.rel"
        qrels.write_text("1 1 1\n1 2 0\n1 999 1\n")  # doc 2 graded 0, doc 999 absent
        notes = ["note: 1 judged pair has a grade <= 0 and counts as relevant",
                 "note: 1 judged doc id is not in the collection",
                 "note: 1 query has no judgments and is skipped"]
        args = ["--docs", docs, "--queries", queries, "--qrels", qrels]
        for command, extra in (("eval", []), ("sweep", ["--base", "10"])):
            code, _, err = run(capsys, command, *args, *extra, "--out", tmp_path / command)
            assert code == 0
            assert err.splitlines()[:3] == notes

    @pytest.mark.parametrize("qrels, graded", [
        ("1 0 1 1\n1 0 2 0\n1 0 3 -1\n", 2),   # TREC: query 0 doc grade
        ("1 1 1\n1 2 0\n1 3 0.0\n", 2),        # query doc grade
        ("1 1 0 0\n1 2 0 0\n1 3 0 0\n", 0),    # CISI: query doc x x, no grade
        ("1 1\n1 2\n1 3\n", 0),
        ("1 1 2 3\n/\n", 0),                    # idlist
    ], ids=["four", "three", "cisi", "two", "idlist"])
    def test_judged_pairs_graded_at_most_zero_are_noted(self, capsys, tmp_path, qrels, graded):
        docs = tmp_path / "three.all"
        docs.write_text(".I 1\n.W\napple banana\n.I 2\n.W\napple cherry\n.I 3\n.W\nplum\n")
        queries = tmp_path / "one.qry"
        queries.write_text(".I 1\n.W\napple banana\n")
        (tmp_path / "q.rel").write_text(qrels)
        (tmp_path / "ones.rel").write_text("1 1\n1 2\n1 3\n")
        fmt = ["--qrels-format", "idlist"] if "/" in qrels else []
        notes = ([f"note: {graded} judged pairs have a grade <= 0 and count as relevant"]
                 if graded else [])
        for command, extra, report in (("eval", [], "eval.csv"),
                                       ("sweep", ["--base", "10"], "sweep.csv")):
            args = [command, "--docs", docs, "--queries", queries, *extra]
            code, out, err = run(capsys, *args, "--qrels", tmp_path / "q.rel", *fmt,
                                 "--out", tmp_path / "mixed")
            assert code == 0
            assert [line for line in err.splitlines() if " grade " in line] == notes
            # the same pairs are relevant as when every grade is 1
            code, ones, _ = run(capsys, *args, "--qrels", tmp_path / "ones.rel",
                                "--out", tmp_path / "ones")
            assert (code, out.replace("mixed", "ones")) == (0, ones)
            assert (tmp_path / "mixed" / report).read_text() == \
                (tmp_path / "ones" / report).read_text()

    def test_out_dir_from_environment(self, capsys, collection, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGBASE_IR_OUT", str(tmp_path / "envout"))
        code, _, _ = run(
            capsys,
            "eval",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
        )
        assert code == 0
        assert (tmp_path / "envout" / "eval.csv").exists()

    @pytest.mark.parametrize("inputs", ["present", "absent"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_empty_out_dir_from_environment_is_usage_error(self, capsys, collection, tmp_path,
                                                           monkeypatch, command, inputs):
        monkeypatch.setenv("LOGBASE_IR_OUT", "")
        monkeypatch.chdir(tmp_path)
        # absent inputs: reading any would exit 2 with another message
        paths = {role: collection[role] if inputs == "present" else f"none.{role}"
                 for role in ("docs", "queries", "qrels")}
        code, out, err = run(capsys, command, *(f"--{role}={path}"
                                                for role, path in paths.items()))
        assert (code, out, err) == (2, "", "error: $LOGBASE_IR_OUT is empty\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_out_dir_flag_and_config_outrank_environment(self, capsys, collection, tmp_path,
                                                         monkeypatch, command):
        monkeypatch.setenv("LOGBASE_IR_OUT", "")
        args = [command, "--docs", collection["docs"], "--queries", collection["queries"],
                "--qrels", collection["qrels"], "--base", "10"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'cfg'}\n")
        code, _, err = run(capsys, *args, "--config", cfg)
        assert code == 0, err
        code, _, err = run(capsys, *args, "--config", cfg, "--out", tmp_path / "flag")
        assert code == 0, err
        report = "eval.csv" if command == "eval" else "sweep.csv"
        assert (tmp_path / "cfg" / report).exists() and (tmp_path / "flag" / report).exists()

    def test_commands_without_out_ignore_the_environment(self, capsys, collection,
                                                         monkeypatch):
        monkeypatch.setenv("LOGBASE_IR_OUT", "")
        code, _, err = run(capsys, "stats", "--docs", collection["docs"])
        assert code == 0, err


class TestSweep:
    def sweep_args(self, collection, out):
        return [
            "sweep",
            "--docs", collection["docs"],
            "--queries", collection["queries"],
            "--qrels", collection["qrels"],
            "--out", out,
        ]

    def test_small_grid_artifacts(self, capsys, collection, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run(
            capsys, *self.sweep_args(collection, out), "--grid", "9.9:10.1:0.1"
        )
        assert code == 0
        assert "3 bases evaluated" in stdout
        csv = (out / "sweep.csv").read_text().splitlines()
        assert len(csv) == 4
        assert (out / "top5_map.txt").exists()
        assert (out / "top5_map_at_30.txt").exists()
        assert (out / "compare_map.txt").exists()
        assert (out / "curve_map.csv").exists()
        assert (out / "levels_map.csv").exists()

    def test_grid_without_base_ten_skips_comparison(self, capsys, collection, tmp_path):
        out = tmp_path / "out"
        code, _, err = run(
            capsys, *self.sweep_args(collection, out), "--grid", "2:3:0.5"
        )
        assert code == 0
        assert "comparison table skipped" in err
        assert not (out / "compare_map.txt").exists()
        # one note per metric, each naming its metric
        skipped = [line for line in err.splitlines() if "comparison table skipped" in line]
        assert skipped == [f"note: {metric} comparison table skipped: base 10 is not present "
                           "in the sweep result" for metric in ("map", "map_at_30")]
        assert len(set(skipped)) == 2

    def test_rerun_is_byte_identical(self, capsys, collection, tmp_path):
        out = tmp_path / "out"
        args = self.sweep_args(collection, out) + ["--grid", "0.5:2.0:0.5"]
        assert run(capsys, *args)[0] == 0
        first = (out / "sweep.csv").read_bytes()
        assert run(capsys, *args)[0] == 0
        assert (out / "sweep.csv").read_bytes() == first

    def test_all_bases_tie_on_toy_data(self, capsys, collection, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, *self.sweep_args(collection, out), "--grid", "0.5:30:3.7"
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        maps = {float(r.split(",")[-2]) for r in rows}
        assert max(maps) - min(maps) < 1e-9

    def test_base_and_grid_conflict(self, capsys, collection, tmp_path):
        code, _, err = run(
            capsys,
            *self.sweep_args(collection, tmp_path / "out"),
            "--base", "10", "--grid", "1:2:1",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_invariance_note_on_stderr(self, capsys, collection, tmp_path):
        args = [*self.sweep_args(collection, tmp_path / "out"), "--grid", "0.5:1.5:0.5"]
        code, stdout, err = run(capsys, *args)
        assert code == 0
        assert "note:" not in stdout
        assert ("note: 1 distinct ranking to the cutoff across 2 bases; 0 fragile groups\n"
                in err)
        # a resumed sweep ranks nothing
        code, _, err = run(capsys, *args)
        assert "note: 0 distinct rankings to the cutoff across 0 bases; 0 fragile groups" in err

    @pytest.mark.parametrize(
        "config, flags, bases",
        [("base=10", ["--grid", "2:3:1"], ["2", "3"]),
         ("grid=2:3:1", ["--base", "10"], ["10.0"])],
        ids=["grid-flag", "base-flag"],
    )
    def test_base_or_grid_flag_outranks_both_config_keys(self, capsys, collection, tmp_path,
                                                         config, flags, bases):
        # one config file may serve eval (base) and sweep (grid) alike
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, *self.sweep_args(collection, out), "--config", cfg, *flags)
        assert code == 0, err
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == bases

    def test_base_and_grid_in_config_conflict(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base=10\ngrid=2:3:1\n")
        code, _, err = run(capsys, *self.sweep_args(collection, tmp_path / "out"),
                           "--config", cfg)
        assert code == 2
        assert "mutually exclusive" in err

    def test_single_base_sweep(self, capsys, collection, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run(capsys, *self.sweep_args(collection, out), "--base", "10")
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("10.0,")

    @pytest.mark.parametrize("base", ["10", "0.5", "1e20", "0.00001", "1e30", "1e-30"])
    def test_base_far_from_one_runs_as_eval_does(self, capsys, collection, tmp_path, base):
        # a single base was a one-value Decimal grid: far from 1 it exited 2
        # where eval ran, and it was labelled 100000000000000000000.0 where
        # eval wrote 1e+20; now both check it as a float and write one row
        code, _, err = run(capsys, *self.sweep_args(collection, tmp_path / "sw"), "--base", base)
        assert code == 0, err
        code, _, err = run(capsys, "eval", *self.sweep_args(collection, tmp_path / "ev")[1:],
                           "--base", base)
        assert code == 0, err
        swept = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        evaluated = (tmp_path / "ev" / "eval.csv").read_text().splitlines()
        assert len(swept) == len(evaluated) == 2
        assert swept[1] == evaluated[1]
        assert swept[1].split(",")[0] == str(float(base))


LISA_END = "*" * 44
# documents 1 to 3 and queries 1 and 2 of each collection format
FORMAT_FILES = {
    "smart": (".I 1\n.W\nzebra yak\n.I 2\n.W\nzebra zebra\n.I 3\n.W\nyak\n",
              ".I 1\n.W\nzebra yak\n.I 2\n.W\nyak\n"),
    "npl": ("1\nzebra yak\n/\n2\nzebra zebra\n/\n3\nyak\n/\n", "1\nzebra yak\n/\n2\nyak\n/\n"),
    "lisa": ("".join(f"Document {d}\n{text}\n{LISA_END}\n"
                     for d, text in ((1, "zebra yak"), (2, "zebra zebra"), (3, "yak"))),
             "1\nzebra yak #\n2\nyak #\n"),
    "jsonl": ("".join(json.dumps({"id": d, "text": text}) + "\n"
                      for d, text in ((1, "zebra yak"), (2, "zebra zebra"), (3, "yak"))),
              '{"id": 1, "text": "zebra yak"}\n{"id": 2, "text": "yak"}\n'),
}


class TestByteOrderMark:
    """A UTF-8 byte order mark that starts an input file is not text."""

    @pytest.mark.parametrize("fmt, role", [
        ("smart", "docs"), ("smart", "queries"), ("npl", "docs"), ("npl", "queries"),
        ("lisa", "docs"), ("lisa", "queries"), ("jsonl", "docs"), ("jsonl", "queries"),
        ("smart", "qrels"), ("smart", "config"), ("smart", "stoplist"),
    ])
    def test_leading_mark_gives_the_same_output(self, capsys, tmp_path, fmt, role):
        docs, queries = FORMAT_FILES[fmt]
        texts = {"docs": docs, "queries": queries, "qrels": "1 1\n1 2\n2 3\n",
                 "config": "cutoff=1000\nformat=" + fmt + "\n", "stoplist": "zebra\nthe\n"}
        paths = {name: tmp_path / name for name in texts}
        argv = ["eval", "--out", tmp_path / "out", "--save-run", tmp_path / "run.tsv",
                *(arg for name, path in paths.items() for arg in (f"--{name}", path))]
        outputs = []
        for mark in ("", "\ufeff"):
            for name, text in texts.items():
                paths[name].write_text(mark + text if name == role else text, encoding="utf-8")
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            outputs.append((out, err, (tmp_path / "out" / "eval.csv").read_bytes(),
                            (tmp_path / "run.tsv").read_bytes()))
        assert outputs[1] == outputs[0]

    def test_not_utf8_offset_counts_the_mark(self, capsys, collection, tmp_path):
        queries = tmp_path / "bom.qry"
        queries.write_bytes(b"\xef\xbb\xbf.I 1\n.W\n\xff\n")
        code, out, err = run(capsys, "eval", "--docs", collection["docs"], "--queries", queries,
                             "--qrels", collection["qrels"], "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert err == (f"error: {queries}: not UTF-8: line 3: 'utf-8' codec can't decode "
                       "byte 0xff in position 11: invalid start byte\n")
        assert not (tmp_path / "out").exists()


# qrels of queries 1 and 2 in each --qrels-format; auto reads CISI's layout
QRELS_FILES = {
    "auto": "1 1 0 0\n1 2 0 0\n2 3 0 0\n",
    "two": "1 1\n1 2\n2 3\n",
    "three": "1 1 1\n1 2 0\n2 3 1\n",
    "four": "1 0 1 1\n1 0 2 -1\n2 0 3 1\n",
    "idlist": "1\n1 2\n/\n2 3\n/\n",
}
MUTANT_BYTES = st.one_of(st.sampled_from(b" \t\r\n/.#*-019e\"{}[]:,\x00\xff"),
                         st.integers(0, 255))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to four edits. A byte-level edit replaces up to two
    bytes at one place with up to two others; a line-level edit drops a
    line, repeats it, copies another line over it or puts junk in its
    place."""
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            i, cut = draw(st.integers(0, len(data))), draw(st.integers(0, 2))
            data = data[:i] + bytes(draw(st.lists(MUTANT_BYTES, max_size=2))) + data[i + cut:]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = draw(st.sampled_from([
                [], [lines[i]] * 2, [draw(st.sampled_from(lines))],
                [bytes(draw(st.lists(MUTANT_BYTES, max_size=8)))]]))
            data = b"\n".join(lines)
    return data


def _rehashed(snapshot: bytes) -> bytes:
    """The snapshot with the body_sha256 of its body, where its header line
    is still a JSON object, so that a load checks past the hash."""
    line, _, body = snapshot.partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError:
        return snapshot
    if not isinstance(header, dict):
        return snapshot
    header["body_sha256"] = hashlib.sha256(body).hexdigest()
    return json.dumps(header).encode() + b"\n" + body


# a snapshot's documents, of six terms, and a query that reads every term
HEADER_DOCS = ".I 1\n.W\nzebra yak ox\n.I 2\n.W\nzebra zebra gnu\n.I 3\n.W\nyak emu\n" \
              ".I 5\n.W\nox ant ant\n"
HEADER_QUERY = "ant emu gnu ox yak zebra"
# any JSON value, int64's edges and non-finite floats among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(-3, 40)
    | st.sampled_from([2**63 - 1, 2**63, -(2**63), 10**30]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)


@st.composite
def edited(draw, value):
    """``value`` after one edit. A list loses, repeats or replaces an item,
    swaps two, gains one, or moves 1 between two integers (keeping their
    sum, so the body's length still matches); an integer moves by a little
    or past int64; any value may become any JSON value."""
    kind = draw(st.sampled_from(["drop", "repeat", "replace", "swap", "append", "shift"])
                if isinstance(value, list) and value else
                st.sampled_from(["nudge", "other"]) if type(value) is int else st.just("other"))
    if kind == "other":
        return draw(JSON_VALUES)
    if kind == "nudge":
        return value + draw(st.sampled_from([-2, -1, 1, 2, 2**63, -(2**63)]))
    items, (i, j) = list(value), draw(st.tuples(*[st.integers(0, len(value) - 1)] * 2))
    if kind == "drop":
        del items[i]
    elif kind == "repeat":
        items.insert(i, items[i])
    elif kind == "replace":
        items[i] = draw(edited(items[i]))
    elif kind == "swap":
        items[i], items[j] = items[j], items[i]
    elif kind == "append":
        items.append(draw(JSON_VALUES))
    elif type(items[i]) is int and type(items[j]) is int:  # shift
        items[i], items[j] = items[i] + 1, items[j] - 1
    return items


class TestMutatedInputs:
    """A mutated input file of any kind lets no exception escape ``main``:
    every run exits 0, 1 or 2."""

    @pytest.mark.parametrize("role, fmt", [
        *(("docs", fmt) for fmt in DOC_FORMATS), *(("queries", fmt) for fmt in DOC_FORMATS),
        *(("qrels", fmt) for fmt in QRELS_FORMATS), ("config", "smart"), ("snapshot", "smart"),
    ])
    @seed(26)
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_every_run_exits_0_1_or_2(self, role, fmt, data):
        doc_format, qrels_format = ("smart", fmt) if role == "qrels" else (fmt, "two")
        docs, queries = FORMAT_FILES[doc_format]
        with tempfile.TemporaryDirectory() as tmp, \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            path = functools.partial(os.path.join, tmp)
            inputs = {"docs": docs, "queries": queries, "qrels": QRELS_FILES[qrels_format]}
            config = "".join(f"{name}={path(name)}\n" for name in inputs) + \
                "format=smart\nqrels_format=two\nbase=10\ncutoff=50\ninterp=standard\n" \
                "pooling=pooled\n"
            for name, text in {**inputs, "config": config}.items():
                Path(path(name)).write_text(text, encoding="utf-8")
            if role == "snapshot":
                assert main(["index", "--docs", path("docs"), "--save-index",
                             path("snapshot")]) == 0
                argv = ["search", "--load-index", path("snapshot"), "zebra yak"]
            else:
                command = data.draw(st.sampled_from(["eval", "sweep"]))
                argv = [command, "--out", path("out"), *(["--base", "10"] * (command == "sweep"))]
                if role == "config":
                    argv += ["--config", path("config")]
                else:
                    argv += [*(arg for name in inputs for arg in (f"--{name}", path(name))),
                             "--format", doc_format, "--qrels-format", qrels_format]
            mutant = data.draw(mutated(Path(path(role)).read_bytes()))
            Path(path(role)).write_bytes(_rehashed(mutant) if role == "snapshot" else mutant)
            assert main(argv) in (0, 1, 2)

    @pytest.mark.parametrize("field", ["n_docs", "terms", "df", "format_version",
                                       "pipeline_version", "stoplist_sha256"])
    @seed(27)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_every_header_edit_exits_0_1_or_2(self, field, data):
        # one to three edits of one header field, body_sha256 recomputed
        with tempfile.TemporaryDirectory() as tmp, \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            docs, snapshot = os.path.join(tmp, "docs"), os.path.join(tmp, "snapshot")
            Path(docs).write_text(HEADER_DOCS, encoding="utf-8")
            assert main(["index", "--docs", docs, "--save-index", snapshot]) == 0
            line, _, body = Path(snapshot).read_bytes().partition(b"\n")
            header = json.loads(line)
            for _ in range(data.draw(st.integers(1, 3))):
                if data.draw(st.integers(0, 9)) == 0:
                    header.pop(field, None)
                else:
                    header[field] = data.draw(edited(header.get(field)))
            Path(snapshot).write_bytes(_rehashed(json.dumps(header).encode() + b"\n" + body))
            assert main(["search", "--load-index", snapshot, HEADER_QUERY]) in (0, 1, 2)


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_override(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\ntop=1\n")
        code, out, _ = run(capsys, "search", "--config", cfg, "zebra")
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        code, out, _ = run(capsys, "search", "--config", cfg, "-k", "2", "zebra")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = run(capsys, "stats", "--config", cfg)
        assert code == 2
        assert "key=value" in err


class TestConfigValues:
    def eval_config(self, collection, tmp_path, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"docs={collection['docs']}\nqueries={collection['queries']}\n"
            f"qrels={collection['qrels']}\nout={tmp_path / 'out'}\n{extra}\n"
        )
        return cfg

    def test_misspelt_key_is_usage_error(self, capsys, collection, tmp_path):
        # cutof=2 used to run with the default cutoff and exit 0
        cfg = self.eval_config(collection, tmp_path, "cutof=2")
        code, out, err = run(capsys, "eval", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{cfg}:5: unknown option 'cutof'" in err
        assert not (tmp_path / "out").exists()

    def test_dashed_key_is_usage_error_with_hint(self, capsys, collection, tmp_path):
        # keys use _ where the flag has -; save-run= used to write no run file
        cfg = self.eval_config(collection, tmp_path, f"save-run={tmp_path / 'run.tsv'}")
        code, _, err = run(capsys, "eval", "--config", cfg)
        assert code == 2
        assert f"{cfg}:5: unknown option 'save-run' (did you mean 'save_run'?)" in err
        assert not (tmp_path / "run.tsv").exists()

    def test_save_run_from_config(self, capsys, collection, tmp_path):
        cfg = self.eval_config(collection, tmp_path, f"save_run={tmp_path / 'run.tsv'}")
        code, _, _ = run(capsys, "eval", "--config", cfg)
        assert code == 0
        assert (tmp_path / "run.tsv").read_text().startswith("1\t")

    def test_name_is_not_a_config_key(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\nname=med\n")
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert err == f"error: {cfg}:2: unknown option 'name'\n"

    def test_positional_is_not_a_config_key(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\nquery=zebra\n")
        code, _, err = run(capsys, "search", "--config", cfg, "zebra")
        assert code == 2
        assert "unknown option 'query'" in err


class TestConfigLines:
    def test_repeated_key_is_usage_error(self, capsys, collection, tmp_path):
        # the second top=3 used to replace the first silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"docs={collection['docs']}\ntop=1\n# a comment\ntop=3\n")
        code, out, err = run(capsys, "search", "--config", cfg, "zebra")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:4: option 'top' already set on line 2\n"

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"])
    def test_lines_end_at_newlines_only(self, capsys, tmp_path, sep):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"top=3{sep}\r\nbogus=1\n", encoding="utf-8", newline="")
        code, _, err = run(capsys, "search", "--config", cfg, "zebra")
        assert code == 2
        assert err == f"error: {cfg}:2: unknown option 'bogus'\n"


class TestGivenTwice:
    """A flag given twice exits 2 before any input is read, as a config key
    set twice does; its last value does not silently win."""

    def check(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        # docs.all does not exist: reading it would exit 2 with another message
        code, out, err = run(capsys, *argv, "--docs", "docs.all")
        assert (code, out, err) == (2, "", f"error: {flag} given twice\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["stats", "--format", "smart", "--format", "npl"], "--format"),
        (["index", "--save-index", "a.bin", "--save-index", "b.bin"], "--save-index"),
        (["search", "--base", "10", "--base", "2", "-k", "1", "-k", "5", "zebra"], "--base"),
        (["eval", "--cutoff", "5", "--cutoff", "5"], "--cutoff"),
        (["sweep", "--grid", "2:3:1", "--grid", "2:3:1"], "--grid"),
    ], ids=["stats", "index", "search", "eval", "sweep"])
    def test_flag_given_twice(self, capsys, tmp_path, monkeypatch, argv, flag):
        self.check(capsys, tmp_path, monkeypatch, argv, flag)

    def test_short_and_long_top_are_one_flag(self, capsys, tmp_path, monkeypatch):
        self.check(capsys, tmp_path, monkeypatch, ["search", "-k", "1", "--top", "5", "zebra"],
                   "--top")

    def test_config_given_twice(self, capsys, tmp_path, monkeypatch):
        self.check(capsys, tmp_path, monkeypatch,
                   ["stats", "--config", "a.cfg", "--config", "b.cfg"], "--config")


class TestErrorExits:
    """Error exits of the 0/1/2 contract, each with its message."""

    @pytest.mark.parametrize("key", ["docs", "queries", "qrels"])
    def test_missing_required_option(self, capsys, collection, tmp_path, key):
        given = [arg for other in ("docs", "queries", "qrels") if other != key
                 for arg in (f"--{other}", collection[other])]
        code, out, err = run(capsys, "eval", *given, "--out", tmp_path / "out")
        assert (code, out, err) == (2, "", f"error: missing required option --{key}\n")
        assert not (tmp_path / "out").exists()

    def test_missing_snapshot_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", "--load-index", "nope.idx", "zebra")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read nope.idx: ")

    def test_snapshot_into_missing_directory_is_usage_error(self, capsys, collection,
                                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "index", "--docs", collection["docs"], "--save-index",
                           "nodir/x.idx")
        # strerror alone: the OSError's own text names the temporary file,
        # whose name holds the process id
        assert (code, err) == (2, "error: cannot write nodir/x.idx: No such file or directory\n")

    def test_run_file_onto_a_directory_is_usage_error(self, capsys, collection, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "eval", "--docs", collection["docs"], "--queries",
                             collection["queries"], "--qrels", collection["qrels"],
                             "--save-run", "o7", "--out", "o7")
        assert (code, out, err) == (2, "", "error: cannot write o7: Is a directory\n")
        assert not Path("o7").exists()

    def test_failing_run_file_removes_the_out_it_made(self, capsys, collection, tmp_path,
                                                      monkeypatch):
        # the run file fails only after every query is ranked and evaluated
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "eval", "--docs", collection["docs"], "--queries",
                             collection["queries"], "--qrels", collection["qrels"],
                             "--save-run", "nodir/run.tsv", "--out", "newout")
        assert (code, out) == (2, "")
        assert err == "error: cannot write nodir/run.tsv: No such file or directory\n"
        assert not Path("newout").exists()

    def test_interrupted_evaluation_removes_the_out_it_made(self, collection, tmp_path,
                                                            monkeypatch):
        from logbase_ir import evaluation

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(evaluation, "evaluate_rankings", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["eval", "--docs", str(collection["docs"]), "--queries",
                  str(collection["queries"]), "--qrels", str(collection["qrels"]),
                  "--out", "new/deeper"])
        assert not Path("new").exists()

    @pytest.mark.parametrize("fmt, bad, content, message", [
        ("jsonl", "d", '{"id": 1, "text": "zebra"}\n{"id": 2, "te\n', "line 2: bad JSON record"),
        ("jsonl", "q", '{"id": 1, "text": "zebra"}\n{"id": 2, "te\n', "line 2: bad JSON record"),
        ("smart", "q", ".I x\n.W\nzebra\n", "line 1: bad .I record id 'x'"),
        ("smart", "r", "1 0 1 1 1\n", "line 1: cannot infer qrels layout from 5 columns"),
        ("smart", "r", "1\n1\n/\n2\n/\n", "line 4: query 2 lists no relevant doc id"),
    ], ids=["docs", "queries", "smart-queries", "qrels", "idlist-qrels"])
    def test_malformed_file_is_named(self, capsys, tmp_path, monkeypatch, fmt, bad, content,
                                     message):
        # a parse fault named a line but no file, and a query a document; an
        # idlist list naming no document failed only once --out was created
        monkeypatch.chdir(tmp_path)
        good = {"jsonl": '{"id": 1, "text": "zebra"}\n', "smart": ".I 1\n.W\nzebra\n"}[fmt]
        for name, text in (("d", good), ("q", good), ("r", "1 1\n")):
            Path(name).write_text(content if name == bad else text)
        qrels_format = ["--qrels-format", "idlist"] if "/" in content else []
        for command in ("eval", "sweep"):
            code, out, err = run(capsys, command, "--docs", "d", "--queries", "q", "--qrels", "r",
                                 *qrels_format, "--format", fmt, "--base", "10")
            assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")
        assert not Path("out").exists()

    @pytest.mark.parametrize("out, message", [
        ("afile", "afile: File exists"),
        ("afile/sub", "afile/sub: Not a directory"),
    ])
    def test_out_that_cannot_be_a_directory(self, capsys, collection, tmp_path, monkeypatch,
                                            out, message):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("")
        for command in ("eval", "sweep"):
            code, stdout, err = run(capsys, command, "--docs", collection["docs"], "--queries",
                                    collection["queries"], "--qrels", collection["qrels"],
                                    "--base", "10", "--out", out)
            assert (code, stdout, err) == (
                2, "", f"error: cannot create output directory {message}\n")

    @pytest.mark.parametrize("out", ["afile", "afile/", "afile/sub", "afile/sub/deeper",
                                     "link/sub", "adir", "adir/new/deeper", "new", "locked/new",
                                     "dangling", "dangling/sub", "loop", "loop/sub"])
    def test_out_is_checked_before_any_input_is_read(self, capsys, tmp_path, monkeypatch, out):
        # an --out that os.makedirs cannot create, through a dangling link or
        # a loop of links too, fails before any input is read (none exists
        # here), with the reason os.makedirs gives, and nothing is created
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("")
        Path("adir").mkdir()
        Path("locked").mkdir(mode=0o500)
        os.symlink("afile", "link")
        os.symlink("nowhere", "dangling")
        os.symlink("loop", "loop")
        errors = set()
        for command in ("eval", "sweep"):
            code, stdout, err = run(capsys, command, "--docs", "none", "--queries", "none",
                                    "--qrels", "none", "--out", out)
            assert (code, stdout) == (2, "")
            errors.add(err)
        [err] = errors
        assert sorted(os.listdir()) == ["adir", "afile", "dangling", "link", "locked", "loop"]
        assert os.listdir("adir") == []
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as e:
            assert err == f"error: cannot create output directory {out}: {e.strerror}\n"
            if out == "loop/sub":
                assert e.errno == errno.ELOOP
        else:
            assert err.startswith("error: cannot read none: ")

    def test_failing_input_removes_the_directories_made_for_out(self, capsys, collection,
                                                                 tmp_path, monkeypatch):
        # the qrels fail only once the docs are indexed; adir was there before
        monkeypatch.chdir(tmp_path)
        Path("adir").mkdir()
        collection["qrels"].write_text("1 1\n1 x\n")
        for command in ("eval", "sweep"):
            code, out, err = run(capsys, command, "--docs", collection["docs"], "--queries",
                                 collection["queries"], "--qrels", collection["qrels"],
                                 "--base", "10", "--out", "adir/new/deeper")
            assert (code, out, err) == (
                1, "", f"error: {collection['qrels']}: line 2: non-integer id column\n")
            assert os.listdir("adir") == []

    def test_interrupt_removes_the_directories_made_for_out(self, collection, tmp_path,
                                                             monkeypatch):
        from logbase_ir import collection_io

        def interrupted(content, format):
            raise KeyboardInterrupt

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(collection_io, "parse_qrels", interrupted)
        for command in ("eval", "sweep"):
            with pytest.raises(KeyboardInterrupt):
                main([command, "--docs", str(collection["docs"]), "--queries",
                      str(collection["queries"]), "--qrels", str(collection["qrels"]),
                      "--base", "10", "--out", "new/deeper"])
            assert not Path("new").exists()

    def test_failing_input_keeps_an_existing_out(self, capsys, collection, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("out", "sub").mkdir(parents=True)
        Path("out", "eval.csv").write_text("earlier\n")
        for command in ("eval", "sweep"):
            code, _, err = run(capsys, command, "--docs", collection["docs"], "--queries",
                               "none", "--qrels", collection["qrels"], "--base", "10")
            assert (code, err) == (2, "error: cannot read none: No such file or directory\n")
            assert sorted(os.listdir("out")) == ["eval.csv", "sub"]
            assert Path("out", "eval.csv").read_text() == "earlier\n"

    def test_out_that_makedirs_makes_in_part_is_removed(self, capsys, tmp_path, monkeypatch):
        # os.makedirs makes new, then fails on a name longer than any allowed
        monkeypatch.chdir(tmp_path)
        out = "new/" + "x" * 300
        for command in ("eval", "sweep"):
            code, stdout, err = run(capsys, command, "--docs", "none", "--queries", "none",
                                    "--qrels", "none", "--out", out)
            assert (code, stdout, err) == (
                2, "", f"error: cannot create output directory {out}: File name too long\n")
            assert os.listdir() == []

    @pytest.mark.parametrize("argv", [
        ["stats", "--docs", "{}"],
        ["search", "--load-index", "{}", "zebra"],
        ["eval", "--docs", "{}", "--queries", "{}", "--qrels", "{}"],
    ], ids=["docs", "snapshot", "eval"])
    @pytest.mark.parametrize("name, reason", [
        ("none", "No such file or directory"), ("adir", "Is a directory"),
    ])
    def test_unreadable_input_gives_the_reason_alone(self, capsys, tmp_path, monkeypatch,
                                                     argv, name, reason):
        # worded as a write failure is: no errno, no second copy of the path
        monkeypatch.chdir(tmp_path)
        Path("adir").mkdir()
        code, out, err = run(capsys, *(arg.format(name) for arg in argv))
        assert (code, out, err) == (2, "", f"error: cannot read {name}: {reason}\n")
        assert sorted(os.listdir()) == ["adir"]

    def test_failing_cache_compaction_names_the_cache(self, capsys, collection, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "sweep_cache.jsonl").write_text("{torn\n")

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        code, _, err = run(capsys, "sweep", "--docs", collection["docs"], "--queries",
                           collection["queries"], "--qrels", collection["qrels"],
                           "--out", "out", "--base", "10")
        assert code == 2
        assert err == "error: cannot write out/sweep_cache.jsonl: disk full\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["sweep_cache.jsonl"]

    def test_empty_qrels_is_domain_error(self, capsys, collection, tmp_path):
        collection["qrels"].write_text("")
        code, out, err = run(capsys, "eval", "--docs", collection["docs"], "--queries",
                             collection["queries"], "--qrels", collection["qrels"],
                             "--out", tmp_path / "out")
        assert (code, out, err) == (1, "", "error: degenerate qrels: no judged queries\n")

    @pytest.mark.parametrize("record, message", [
        ('{"id": "7", "text": "a"}', "line 1: record id must be an integer, got '7'"),
        ('{"id": 7, "text": 5}', "line 1: record text must be a string"),
    ], ids=["id-string", "text-number"])
    def test_ill_typed_jsonl_record_is_domain_error(self, capsys, tmp_path, record, message):
        docs = tmp_path / "docs.jsonl"
        docs.write_text(record + "\n")
        code, out, err = run(capsys, "stats", "--docs", docs, "--format", "jsonl")
        assert (code, out, err) == (1, "", f"error: {docs}: {message}\n")

    @pytest.mark.parametrize("command, kind", [
        ("stats", "docs"), ("search", "docs"), ("eval", "docs"), ("sweep", "docs"),
        ("eval", "queries"), ("sweep", "queries"),
    ])
    def test_lone_surrogate_in_jsonl_text_is_domain_error(self, capsys, tmp_path,
                                                          monkeypatch, command, kind):
        # valid JSON: a document's failed in the text-bytes count, naming no
        # line, and a query's was accepted
        monkeypatch.chdir(tmp_path)
        bad = '{"id": 2, "text": "alpha \\ud800 beta"}\n'
        Path("docs.jsonl").write_text('{"id": 1, "text": "alpha"}\n'
                                      + (bad if kind == "docs" else ""))
        Path("queries.jsonl").write_text('{"id": 1, "text": "alpha"}\n'
                                         + (bad if kind == "queries" else ""))
        Path("qrels.txt").write_text("1 1\n")
        argv = {"stats": ["stats"], "search": ["search", "alpha"],
                "eval": ["eval", "--queries", "queries.jsonl", "--qrels", "qrels.txt"],
                "sweep": ["sweep", "--queries", "queries.jsonl", "--qrels", "qrels.txt",
                          "--base", "10"]}[command]
        code, out, err = run(capsys, *argv, "--docs", "docs.jsonl", "--format", "jsonl")
        assert (code, out, err) == (
            1, "", f"error: {kind}.jsonl: line 2: record text holds a lone surrogate '\\ud800'\n")
        assert not Path("out").exists()


class TestUsageErrors:
    """Bad evaluation options exit 2 before any input is read."""

    def check(self, capsys, tmp_path, argv, config, message):
        cfg = tmp_path / "run.cfg"
        # the inputs do not exist: validation must come first
        cfg.write_text(f"docs={tmp_path / 'none.all'}\nout={tmp_path / 'out'}\n{config}\n")
        code, _, err = run(capsys, *argv, "--config", cfg)
        assert code == 2
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_cutoff_zero_flag(self, capsys, tmp_path, command):
        self.check(capsys, tmp_path, [command, "--cutoff", "0"], "", "cutoff must be >= 1")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_cutoff_zero_config(self, capsys, tmp_path, command):
        self.check(capsys, tmp_path, [command], "cutoff=0", "cutoff must be >= 1")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_interp_bogus_config(self, capsys, tmp_path, command):
        self.check(capsys, tmp_path, [command], "interp=bogus", "unknown interp 'bogus'")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_pooling_bogus_config(self, capsys, tmp_path, command):
        self.check(capsys, tmp_path, [command], "pooling=bogus", "unknown pooling 'bogus'")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("key", ["format", "qrels_format", "interp", "pooling"])
    def test_unknown_choice_flag_and_config_alike(self, capsys, tmp_path, command, key):
        message = f"unknown {key.replace('_', ' ')} 'bogus'"
        flag = "--" + key.replace("_", "-")
        self.check(capsys, tmp_path, [command, flag, "bogus"], "", message)
        self.check(capsys, tmp_path, [command], f"{key}=bogus", message)

    def test_top_zero_flag(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep", "--top", "0"], "", "top must be >= 1, got 0")

    def test_top_zero_config(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep"], "top=0", "top must be >= 1, got 0")

    @pytest.mark.parametrize("argv", [["eval"], ["search", "zebra"]], ids=["eval", "search"])
    def test_invalid_base_flag(self, capsys, tmp_path, argv):
        self.check(capsys, tmp_path, [*argv, "--base", "1"], "", "log base must be positive")

    @pytest.mark.parametrize("argv", [["eval"], ["search", "zebra"]], ids=["eval", "search"])
    def test_invalid_base_config(self, capsys, tmp_path, argv):
        self.check(capsys, tmp_path, argv, "base=-2", "log base must be positive")

    def test_invalid_base_before_snapshot_load(self, capsys, tmp_path):
        snap = tmp_path / "index.json"
        snap.write_text("[]")  # loading it would exit 1
        self.check(capsys, tmp_path, ["search", "--load-index", snap, "--base", "0", "zebra"],
                   "", "log base must be positive")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1:2", "START:STOP:STEP"),
            ("a:b:c", "non-numeric"),
            ("2:1:1", "below start"),
            ("0:1:0.5", "start must be positive"),
            ("1:2:0", "step must be positive"),
            ("nan:1:0.1", "must be finite"),
            ("1:inf:1", "must be finite"),
        ],
    )
    def test_malformed_grid_flag(self, capsys, tmp_path, spec, message):
        self.check(capsys, tmp_path, ["sweep", "--grid", spec], "", message)

    def test_malformed_grid_config(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep"], "grid=1:2", "START:STOP:STEP")

    # sweep checks a --base as eval does, not as a grid of one value
    def test_sweep_base_zero(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep", "--base", "0"], "",
                   "error: log base must be positive and != 1, got 0.0\n")

    def test_sweep_base_one(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep", "--base", "1"], "",
                   "error: log base must be positive and != 1, got 1.0\n")

    def test_sweep_grid_of_one_config(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["sweep"], "grid=1:1.5:1", "no base but 1")

    # the third never ended before: values() appended the same value forever
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1.00000000000000000001:1.00000000000000000001:1", "is 1.0 as a double"),
            ("1e-400:1e-400:1", "is 0 as a double"),
            ("1e400:1e400:1", "infinite as a double"),
        ],
    )
    def test_grid_value_unusable_as_double(self, capsys, tmp_path, spec, message):
        self.check(capsys, tmp_path, ["sweep", "--grid", spec], "", message)

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_search_top_below_one(self, capsys, tmp_path, k):
        self.check(capsys, tmp_path, ["search", "-k", k, "zebra"], "",
                   f"top must be >= 1, got {k}")

    @pytest.mark.parametrize("argv", [["stats"], ["index"], ["search", "zebra"], ["eval"]],
                             ids=["stats", "index", "search", "eval"])
    def test_unknown_format_before_the_stoplist_is_read(self, capsys, tmp_path, argv):
        stoplist = tmp_path / "bad.txt"
        stoplist.write_bytes(b"\xff")  # reading it would exit 1
        self.check(capsys, tmp_path, [*argv, "--format", "bogus", "--stoplist", stoplist], "",
                   "unknown format 'bogus'")

    def test_search_top_zero_config(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["search", "zebra"], "top=0", "top must be >= 1, got 0")


COMMANDS = ("stats", "index", "search", "eval", "sweep")


def table_flags(command):
    return {"--" + key.replace("_", "-")
            for key, (commands, _) in _OPTIONS.items() if command in commands}


class TestOptionTable:
    """The parser and the config check come from one table of options."""

    @pytest.mark.parametrize("command, count", zip(COMMANDS, (4, 5, 7, 13, 14)))
    def test_parser_flags_are_the_table_entries(self, command, count):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
        actions = [a for a in subparsers.choices[command]._actions if a.option_strings]
        flags = {flag for a in actions for flag in a.option_strings}
        extra = {"--config", "-h", "--help"} | ({"-k"} if command == "search" else set())
        assert flags == table_flags(command) | extra
        assert len(actions) - 1 == count  # not counting -h

    @pytest.mark.parametrize("command", COMMANDS)
    def test_keys_of_other_subcommands_are_ignored(self, capsys, collection, tmp_path,
                                                  command):
        # each value fails if read: a path under a missing directory, or no
        # valid number, choice or grid
        poison = tmp_path / "absent" / "x"
        others = [key for key, (commands, _) in _OPTIONS.items() if command not in commands]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={poison}\n" for key in others))
        argv = [command, "--config", cfg, "--docs", collection["docs"]]
        if command in ("eval", "sweep"):
            argv += ["--queries", collection["queries"], "--qrels", collection["qrels"],
                     "--out", tmp_path / "out", "--base", "10"]
        code, _, err = run(capsys, *argv, *(["zebra"] if command == "search" else []))
        assert code == 0, err
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("argv", [["stats"], ["index"], ["search", "zebra"]],
                             ids=["stats", "index", "search"])
    def test_out_is_not_an_option_of(self, capsys, collection, tmp_path, argv):
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--docs", str(collection["docs"]), "--out", str(tmp_path / "out")])
        assert raised.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_docs_and_load_index_in_config_serve_eval(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        # eval takes no load_index: it reads docs, and the snapshot is not read
        cfg.write_text(f"docs={collection['docs']}\nload_index={tmp_path / 'none.bin'}\n")
        code, out, err = run(capsys, "eval", "--config", cfg, "--queries",
                             collection["queries"], "--qrels", collection["qrels"],
                             "--out", tmp_path / "out")
        assert code == 0, err
        assert "map 1.000000" in out
        code, _, err = run(capsys, "search", "--config", cfg, "zebra")
        assert code == 2
        assert "--load-index and --docs are mutually exclusive" in err

    @pytest.mark.parametrize("argv, key", [
        (["search", "zebra"], "base"), (["eval"], "base"), (["sweep"], "base"),
        (["eval"], "cutoff"), (["sweep"], "cutoff"), (["search", "zebra"], "top"),
        (["sweep"], "top"),
    ], ids=["search-base", "eval-base", "sweep-base", "eval-cutoff", "sweep-cutoff",
            "search-top", "sweep-top"])
    def test_malformed_number_same_reason_from_flag_and_config(self, capsys, tmp_path,
                                                               argv, key):
        # the inputs do not exist: the value must be checked first
        flag = "--" + key
        reasons = []
        for given_as_flag in (True, False):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"docs={tmp_path / 'none.all'}\n"
                           + ("" if given_as_flag else f"{key}=1x\n"))
            flags = [flag, "1x"] if given_as_flag else []
            code, out, err = run(capsys, *argv, "--config", cfg, *flags)
            assert (code, out) == (2, ""), err
            where = flag if given_as_flag else f"config {key}"
            assert err.startswith(f"error: {where}='1x': ")
            assert len(err.splitlines()) == 1
            reasons.append(err.split("'1x': ", 1)[1])
        assert reasons[0] == reasons[1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--gri", "2:3:1"], ["sweep", "--ou", "o5"], ["sweep", "--no"],
        ["eval", "--save", "r.tsv"],
    ], ids=["gri", "ou", "no", "save"])
    def test_flags_are_not_abbreviated(self, capsys, collection, tmp_path, monkeypatch,
                                       argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--docs", str(collection["docs"]), "--queries",
                  str(collection["queries"]), "--qrels", str(collection["qrels"])])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "o5").exists()

    def test_no_cache_is_no_flag(self, capsys, collection, tmp_path, monkeypatch):
        # every sweep resumes from its cache, which changes no output
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["sweep", "--no-cache", "--docs", str(collection["docs"]), "--queries",
                  str(collection["queries"]), "--qrels", str(collection["qrels"])])
        assert raised.value.code == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_cache_is_no_config_key(self, capsys, collection, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'out'}\nno_cache=true\n")
        code, out, err = run(capsys, "sweep", "--config", cfg, "--docs", collection["docs"],
                             "--queries", collection["queries"], "--qrels", collection["qrels"])
        assert (code, out, err) == (2, "", f"error: {cfg}:2: unknown option 'no_cache'\n")
        assert not (tmp_path / "out").exists()

    def test_short_top_flag_is_checked_as_top(self, capsys, collection):
        code, out, err = run(capsys, "search", "--docs", collection["docs"], "-k", "x", "zebra")
        assert (code, out) == (2, "")
        assert err == "error: --top='x': invalid literal for int() with base 10: 'x'\n"


class TestEmptyValues:
    """An empty value exits 2, from a flag or a config key, before any input
    is read; it never stands for the default."""

    @pytest.mark.parametrize("argv, key", [
        (["sweep"], "grid"), (["eval"], "save_run"), (["index"], "save_index"),
        (["eval"], "out"), (["search", "zebra"], "load_index"), (["search", "zebra"], "top"),
    ], ids=["grid", "save_run", "save_index", "out", "load_index", "top"])
    @pytest.mark.parametrize("given_as_flag", [True, False], ids=["flag", "config"])
    def test_empty_value_is_usage_error(self, capsys, tmp_path, argv, key, given_as_flag):
        cfg = tmp_path / "run.cfg"
        # the inputs do not exist: reading any would exit 2 with another message
        cfg.write_text(f"docs={tmp_path / 'none.all'}\nqueries={tmp_path / 'none.qry'}\n"
                       f"qrels={tmp_path / 'none.rel'}\n" + ("" if given_as_flag else f"{key}=\n"))
        flag = "--" + key.replace("_", "-")
        flags = [flag, ""] if given_as_flag else []
        code, out, err = run(capsys, *argv, "--config", cfg, *flags)
        assert (code, out) == (2, "")
        where = flag if given_as_flag else f"config {key}"
        assert err == f"error: {where} is empty\n"

    def test_empty_config_flag_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "stats", "--config", "", "--docs", tmp_path / "none.all")
        assert (code, out, err) == (2, "", "error: --config is empty\n")


@pytest.mark.parametrize("key, values", [
    ("format", DOC_FORMATS), ("qrels_format", QRELS_FORMATS),
    ("interp", INTERPOLATION_MODES), ("pooling", POOLING_MODES),
])
def test_choice_help_lists_its_values_and_default(key, values):
    listed, default = re.fullmatch(r".*: (.+) \(default (\S+)\)", _OPTIONS[key][1]).groups()
    assert re.split(r", | or ", listed) == list(values)
    assert default == values[0]


def test_readme_cli_section_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    table = set().union(*map(table_flags, COMMANDS))
    assert table - named == set(), "options missing from README's CLI section"
    assert named - table - {"--config"} == set(), "README names flags the table lacks"
