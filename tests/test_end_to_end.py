"""The command line end to end, against the benchmark's independent reference.

``perfbench/gen.py`` generates small seeded collections with their index
terms, ``perfbench/reference.py`` ranks and evaluates them with no code
shared with the package, and ``perfbench/checks.py`` compares a command's
output with the reference within 1e-9 (documents whose reference scores tie
within that may come in either order). The three are run from their source
by path (``conftest.perfbench``), so nothing is written beside them.
"""

import builtins
import hashlib
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from logbase_ir import cli
from logbase_ir.cli import main
from logbase_ir.collection_io import parse_documents
from logbase_ir.index import InvertedIndex, build_index
from logbase_ir.retrieval import Ranker
from logbase_ir.sweep import CACHE_VERSION, grid_labels, run_sweep
from logbase_ir.textpipe import PIPELINE_VERSION, default_stoplist, pipeline
from logbase_ir.weighting import WeightScheme

from conftest import count_passes, perfbench

gen, reference, checks = perfbench("gen"), perfbench("reference"), perfbench("checks")

# a MED-like make-up at a tenth of the size
SHAPE = gen.Shape("tiny", 150, (20, 80), (2, 8), 900, 12, (3, 9), (3, 8), (10, 400))


@pytest.fixture(scope="module", params=[1, 2, 3])
def collection(request, tmp_path_factory):
    col = gen.generate(SHAPE, request.param)
    paths = gen.write(col, str(tmp_path_factory.mktemp(f"tiny{request.param}")))
    return col, paths, reference.Reference(col.docs)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def inputs(paths):
    return ["--docs", paths["docs"], "--queries", paths["queries"], "--qrels", paths["qrels"]]


def test_index_then_search(capsys, tmp_path, collection):
    col, paths, ref = collection
    snapshot = tmp_path / "index.bin"
    out = run(capsys, "index", "--docs", paths["docs"], "--save-index", snapshot)
    assert checks.index(out, str(snapshot), len(col.docs), len(ref.postings)) == []
    for base in ("10", "0.3"):
        for qid, terms in sorted(col.queries.items()):
            out = run(capsys, "search", "--load-index", snapshot, "--base", base, "-k", "10",
                      col.query_text[qid])
            assert checks.search(out, ref.rank(terms), 10) == [], (base, qid)


def test_eval(capsys, tmp_path, collection):
    col, paths, ref = collection
    runs = {q: ref.rank(col.queries[q]) for q in col.qrels}
    want = reference.summary({q: [d for d, _ in r] for q, r in runs.items()}, col.qrels)
    run_path = tmp_path / "run.tsv"
    out = run(capsys, "eval", *inputs(paths), "--out", tmp_path, "--save-run", run_path)
    assert checks.eval_(out, str(tmp_path), want, str(run_path), runs) == []


def compensated_sum(iterable, start=0):
    """sum() as Python 3.12 and later add floats: with compensation (here
    correctly rounded); other values as sum() adds them."""
    items = [start, *iterable]
    if any(type(x) is float for x in items) and all(type(x) in (int, float) for x in items):
        return math.fsum(items)
    return builtin_sum(items[1:], start)


builtin_sum = builtins.sum


def outputs(capsys, out_dir, paths):
    """stdout and every report of an eval and a sweep, by name. The sweep
    starts without a resume cache, so that it ranks every base."""
    (out_dir / "sweep" / "sweep_cache.jsonl").unlink(missing_ok=True)
    files = {}
    files["eval"] = run(capsys, "eval", *inputs(paths), "--out", out_dir,
                        "--save-run", out_dir / "run.tsv", "--base", "0.3")
    files["sweep"] = run(capsys, "sweep", *inputs(paths), "--out", out_dir / "sweep",
                         "--grid", "0.2:10.0:0.2")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files


def left_sum(iterable, start=0):
    """sum() as Python 3.11 and earlier add: left to right."""
    return reduce(add, iterable, start)


def test_same_bytes_when_sum_compensates(capsys, tmp_path, collection, monkeypatch):
    # every float sum that reaches an output adds left to right, so the
    # outputs do not depend on how the running Python's sum() adds floats
    _, paths, _ = collection
    assert compensated_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)
    monkeypatch.setattr(builtins, "sum", left_sum)
    plain = outputs(capsys, tmp_path, paths)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = outputs(capsys, tmp_path, paths)
    monkeypatch.undo()
    assert compensated.keys() == plain.keys()
    for name, content in plain.items():
        assert compensated[name] == content, name


# sha256 of the whole format-5 snapshot file of each benchmark shape at seed
# 1: parsing, the text pipeline (tokenizer, stoplist, stemmer), the build and
# the snapshot layout all show in it. The header's body hash does not cover
# the term strings, so the whole file is hashed.
SNAPSHOT_SHA256 = {
    "med": "80bc4e0c55f82b2c411029f9be112bfebdc290d577a3af16534df13560c63e82",
    "cran": "a862d4605a1b3f50260ab3959dcba317a4a5ec9fb08e230e79a04d3b4e359ed8",
    "npl": "2eed31aebe6e691cb4e1805fdb8819dd6ea7ce6df6d7e8ee1d95a223c0217dd4",
}


@pytest.mark.parametrize("shape", sorted(SNAPSHOT_SHA256))
def test_benchmark_snapshots_keep_their_bytes(capsys, tmp_path, shape):
    paths = gen.write(gen.generate(gen.SHAPES[shape], 1), str(tmp_path))
    snapshot = tmp_path / "index.bin"
    run(capsys, "index", "--docs", paths["docs"], "--save-index", snapshot)
    assert hashlib.sha256(snapshot.read_bytes()).hexdigest() == SNAPSHOT_SHA256[shape]


@pytest.mark.parametrize("shape", sorted(SNAPSHOT_SHA256))
def test_benchmark_snapshots_decode_to_the_generated_postings(capsys, tmp_path, shape):
    # the generator's own index terms, indexed apart from the text pipeline,
    # and the reference's posting lists, which share no code with the package
    col = gen.generate(gen.SHAPES[shape], 1)
    paths = gen.write(col, str(tmp_path))
    snapshot = tmp_path / "index.bin"
    run(capsys, "index", "--docs", paths["docs"], "--save-index", snapshot)
    loaded = InvertedIndex.load(str(snapshot))
    built = build_index(col.docs.items())
    assert loaded.n_docs == built.n_docs == len(col.docs)
    assert loaded.dictionary == built.dictionary
    assert repr(loaded.norms) == repr(built.norms)
    postings = reference.Reference(col.docs).postings
    assert {term: list(ids) for term, (ids, _) in loaded.dictionary.items()} == postings
    assert all(list(tfs) == [col.docs[d].count(term) for d in ids]
               for term, (ids, tfs) in loaded.dictionary.items())


# sha256 of the stdout, the stderr and every file written by a benchmark
# command at seed 1, run where its inputs lie with relative paths, so no
# absolute path reaches an output: the sweep of the MED shape, resume cache
# included, and the eval of the CRAN shape with its run file.
REPORT_ARGV = {
    "med": ["sweep", "--grid", "0.2:10.0:0.2"],
    "cran": ["eval", "--base", "10", "--save-run", "run.tsv"],
}
REPORT_SHA256 = {
    "med": {
        "stdout": "988d500908323e4150e7d053cfd4acbdc16d054a57341dd1cf9cbc2614d34051",
        "stderr": "b34aad45d89665745275f7fd73d942b88b55e203a83c2ea5e85ff08421080ccf",
        "out/compare_map.txt": "d44950a598065e2d8dda37bf8cf9a8e9c0e44474193fdf32b1c61656d028f65f",
        "out/compare_map_at_30.txt":
            "41f53c68474528c912b417262485a59bf9b71c970fb2fa9ed81d8e81375107e8",
        "out/curve_map.csv": "17e2ba0ed7261e0780b42d7477f487f399633746fb30208c01faa2a29996ad22",
        "out/curve_map_at_30.csv":
            "a4347e23666be23a290fbe8ceb09905aa5ac03b2be999486a8490fda78a9426e",
        "out/levels_map.csv": "7d4a16d6a47ca6f1cb1a69c2494b4878d1feaf14998e2ca1a126f86b8430a7da",
        "out/levels_map_at_30.csv":
            "7d4a16d6a47ca6f1cb1a69c2494b4878d1feaf14998e2ca1a126f86b8430a7da",
        "out/sweep.csv": "93031010238416881810290b2e0497b36005e65b296665b79294c2fd3c342c0e",
        "out/sweep_cache.jsonl":
            "62a2a92fe3b643515158ad39be76ee80adade59d9c8507120a5aae0896da85e7",
        "out/top5_map.txt": "599218bdbf45e5027d05bc2cfb4f0ed677e6cf8075caaf389c436af268f5db84",
        "out/top5_map_at_30.txt":
            "3c05573c19a4b5c0d4fb41734dff2d65968595932af6ad8c5c2954110a68a70e",
    },
    "cran": {
        "stdout": "443bc7989a1180b56dede92e2f89f820119046382e2673baa45e483437da9efe",
        "stderr": "b31933a696fc007dc4597b6cbec26c91ea8e6ec84d99832739f35d175a2b57ef",
        "out/eval.csv": "0e82685379fc48272ae70fe2003a1b5ad092800af2249729d6777e1aec38046a",
        "run.tsv": "79f807e752c6b9c06138e5a779ab20d1c16c013bbe3edc1fb1a947d13a19cc7b",
    },
}


@pytest.mark.parametrize("shape", sorted(REPORT_SHA256))
def test_benchmark_reports_keep_their_bytes(capsys, tmp_path, monkeypatch, shape):
    paths = gen.write(gen.generate(gen.SHAPES[shape], 1), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = [*REPORT_ARGV[shape], "--out", "out"]
    for role, path in sorted(paths.items()):
        argv += [f"--{role}", Path(path).name]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    written = {"stdout": captured.out.encode(), "stderr": captured.err.encode()}
    written.update((str(p.relative_to(tmp_path)), p.read_bytes())
                   for p in sorted(tmp_path.rglob("*"))
                   if p.is_file() and str(p) not in paths.values())
    assert {name: hashlib.sha256(content).hexdigest()
            for name, content in written.items()} == REPORT_SHA256[shape]


# CACHE_VERSION with the sha256 of the MED-shaped sweep.csv that its summaries
# give. A change that moves a summary moves that sweep.csv pin, and then fails
# here until CACHE_VERSION is bumped with it: a resumed sweep must not reuse
# the cached summaries of the version before.
CACHE_VERSION_PIN = (1, "93031010238416881810290b2e0497b36005e65b296665b79294c2fd3c342c0e")


def test_cache_version_moves_with_the_summaries():
    assert (CACHE_VERSION, REPORT_SHA256["med"]["out/sweep.csv"]) == CACHE_VERSION_PIN


# PIPELINE_VERSION with the sha256 of the terms, doc ids and tfs of the
# MED-shaped seed-1 index, built from its --docs file. The resume cache is
# keyed on the input bytes, so only the versions tell a cache made by other
# code: a change to the reader, tokenizer, stoplist rule or stemmer that
# moves a term fails here until PIPELINE_VERSION is bumped with it.
PIPELINE_VERSION_PIN = (1, "063d8b8b6a4490d0798ac4f8202aa8377fc1f22bff5202f663854b38aab21b86")


def test_pipeline_version_moves_with_the_terms(capsys, tmp_path, monkeypatch):
    paths = gen.write(gen.generate(gen.SHAPES["med"], 1), str(tmp_path))
    built = []
    monkeypatch.setattr(cli, "build_index", lambda *args: built.append(build_index(*args))
                        or built[-1])
    assert main(["index", "--docs", paths["docs"]]) == 0, capsys.readouterr().err
    content = hashlib.sha256()
    for term, (ids, tfs) in built[0].dictionary.items():
        content.update(f"{term} {list(ids)} {list(tfs)}\n".encode())
    assert (PIPELINE_VERSION, content.hexdigest()) == PIPELINE_VERSION_PIN


# The two classic collections the benchmark does not generate, at their
# published sizes, each in its own layout, which the files show: LISA's
# documents and #-ended queries, and CISI's SMART text with its
# ``qid did 0 0`` qrels, which judge 76 of its 112 queries.
WHOLE_SHAPES = {
    "lisa": gen.Shape("lisa", 6003, (20, 80), (3, 10), 7000, 35, (5, 30), (5, 12), (30, 2500)),
    "cisi": gen.Shape("cisi", 1460, (40, 160), (4, 12), 5000, 112, (20, 60), (6, 14), (40, 1200)),
}
CISI_JUDGED = 76


def lisa_text(smart: str, query: bool) -> str:
    """SMART records in LISA's layout: a document is ``Document <id>`` and
    its .T and .W lines, ended by a row of asterisks; a query is its id and
    its .W lines, the last one ended by ``#``."""
    records, keep = [], False
    for line in smart.splitlines():
        if line.startswith(".I "):
            records.append([line[3:]])
        elif line in (".T", ".A", ".W"):
            keep = line != ".A"
        elif keep:
            records[-1].append(line)
    if query:
        return "".join(f"{qid}\n" + "\n".join(text) + " #\n" for qid, *text in records)
    return "".join(f"Document {d}\n" + "\n".join(text) + "\n" + "*" * 44 + "\n"
                   for d, *text in records)


def whole_collection(shape: str, directory: Path) -> tuple:
    """The seed-1 collection of a shape, its files written into ``directory``
    by name, and the arguments that read them."""
    col = gen.generate(WHOLE_SHAPES[shape], 1)
    if shape == "lisa":
        files = {"docs": lisa_text(col.docs_smart, False),
                 "queries": lisa_text(col.queries_smart, True), "qrels": col.qrels_rel}
    else:
        col.qrels = {q: col.qrels[q] for q in sorted(col.qrels)[:CISI_JUDGED]}
        files = {"docs": col.docs_smart, "queries": col.queries_smart, "qrels": "".join(
            f"{q} {d} 0 0\n" for q in col.qrels for d in sorted(col.qrels[q]))}
    for role, text in files.items():
        (directory / role).write_text(text, encoding="utf-8", newline="\n")
    return col, [arg for role in files for arg in (f"--{role}", role)]


# sha256 of the stdout, the stderr and every file written by ``eval`` and
# then ``sweep`` into one --out on each whole shape, as in REPORT_SHA256
WHOLE_SHA256 = {
    "cisi": {
        "eval stdout": "729c08e458d2fac9df686515e9ebf015e12e97d2c2ae39e128f6a03622ce2eed",
        "eval stderr": "6eece77534e7aa050b9c4adcc6e40572c6eb679c3af94d7435f7d5cbd6ab63ef",
        "sweep stdout": "988d500908323e4150e7d053cfd4acbdc16d054a57341dd1cf9cbc2614d34051",
        "sweep stderr": "5b02d0c5dfd6b56785b1c7d28a02a4615f3ad628ddc5e8d1ae3bff248ee866cf",
        "out/compare_map.txt": "ed98c5ec93b3d9ec9caafeb18be6eb1833a7555549754b5af6974345f127a7ba",
        "out/compare_map_at_30.txt":
            "7716dcd11a148ab5b18b161f5d9142ec42a886b63b2fb2eb2214cc09142040bc",
        "out/curve_map.csv": "ae8a2c5bfea807ca0d5302539251da7d4318824fdafc251d571d1ca0b465c0c8",
        "out/curve_map_at_30.csv":
            "d62b44371186fed1328ab08dfbdc4cba5cac228eb9636bd83a018940c57c22f4",
        "out/eval.csv": "af647d04a02ac34a8d5f41fd36329fdf6f0f72b55fa112487710125f72061950",
        "out/levels_map.csv": "cd11f334a62a83d452b9fea404ba041bc3a5980b0988efdadde604d244892dce",
        "out/levels_map_at_30.csv":
            "cd11f334a62a83d452b9fea404ba041bc3a5980b0988efdadde604d244892dce",
        "out/sweep.csv": "f7d932b2fcc39b45256da6d32898fbace76885e184744a615c177787850bbc3b",
        "out/sweep_cache.jsonl":
            "d36ea53ee0eeae8c5702eefe45c7e36acb6a2ba7bf11f880863d434623a388c3",
        "out/top5_map.txt": "7944108efae2f3ea290a09385ee37cabc260c160adbf43655954f910f54babe0",
        "out/top5_map_at_30.txt":
            "9ffca49dbb3a5c2a6ce350a31830e044977b93efa971c1d055fb4ef1dfd59d9e",
        "run.tsv": "5f3bfebc2001dbf64fb22a51815870480063257891a98429c165303e906eda12",
    },
    "lisa": {
        "eval stdout": "2223dee50fe18f60f8e2fa02431101c2a60cd290a3633c6572644dde1835ef3f",
        "eval stderr": "15c032681010fed1873fecf0a32c8b0ed2df2b1f6e2ce6a76cff772ce666a737",
        "sweep stdout": "988d500908323e4150e7d053cfd4acbdc16d054a57341dd1cf9cbc2614d34051",
        "sweep stderr": "b34aad45d89665745275f7fd73d942b88b55e203a83c2ea5e85ff08421080ccf",
        "out/compare_map.txt": "9ec436497300bc28bdc65d827387d7f11f87bcb6aee375bd2d59aa82dbcebc1d",
        "out/compare_map_at_30.txt":
            "4af5f032e20d713cc2426aad05d9cfd82166b3d5c93c8817a9212d41c4aa568a",
        "out/curve_map.csv": "102f9cc30e4c08075dde79e026065ba0e6de37192ff33ab92b3c43ac70f80f6e",
        "out/curve_map_at_30.csv":
            "3930d020c19050c7deb71b1ebe5be09a0463ab04e21cd35dc673f08ccde00a8f",
        "out/eval.csv": "9d338671cd5d730437043dcfcddaacab56925607915ce3765ae4eba67ea939a5",
        "out/levels_map.csv": "885ac2378f3b5c9aec50eeb9a975d9563ffbec908ec9c617746180f067fd938d",
        "out/levels_map_at_30.csv":
            "885ac2378f3b5c9aec50eeb9a975d9563ffbec908ec9c617746180f067fd938d",
        "out/sweep.csv": "5c5a746e66574ef4369b7ec2e248cc330341bdf163dc3a6dca171696f32ff696",
        "out/sweep_cache.jsonl":
            "b83462dba975a07e66ed3fefb744d604e1eec8fb6a930a1bec1bea2975a0049a",
        "out/top5_map.txt": "8296f3a8ab6bd07d1b4ef8bec05ed25a306cd135d422023bb5606ea8a5acbe69",
        "out/top5_map_at_30.txt":
            "a767872f4246cf724949f202ccebf586b70d03c0f1601a427582e7ce079220e4",
        "run.tsv": "e93ecc3ffe67714dda18c7065196623f42e02d48c1940a1ca6f7831d2ecc46e0",
    },
}


@pytest.mark.parametrize("shape", sorted(WHOLE_SHAPES))
def test_whole_lisa_and_cisi_shapes(capsys, tmp_path, monkeypatch, shape):
    monkeypatch.chdir(tmp_path)
    col, argv = whole_collection(shape, tmp_path)
    ref = reference.Reference(col.docs)
    runs = {q: ref.rank(col.queries[q]) for q in col.qrels}
    want = reference.summary({q: [d for d, _ in r] for q, r in runs.items()}, col.qrels)
    labels = [str(Decimal("0.2") * k) for k in range(1, 51) if k != 5]  # base 1.0 is skipped
    written = {}
    for command, extra in (("eval", ["--base", "10", "--save-run", "run.tsv"]),
                           ("sweep", ["--grid", "0.2:10.0:0.2"])):
        code = main([command, *argv, *extra, "--out", "out"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        written[f"{command} stdout"] = captured.out.encode()
        written[f"{command} stderr"] = captured.err.encode()
    assert checks.eval_(written["eval stdout"].decode(), "out", want, "run.tsv", runs) == []
    assert checks.sweep(written["sweep stdout"].decode(), "out", labels, 1, want) == []
    written.update((str(p.relative_to(tmp_path)), p.read_bytes())
                   for p in sorted(tmp_path.rglob("*"))
                   if p.is_file() and p.name not in ("docs", "queries", "qrels"))
    assert {name: hashlib.sha256(content).hexdigest()
            for name, content in written.items()} == WHOLE_SHA256[shape]


def csv_rows(path):
    """The rows of a report after its header, each split at commas."""
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_sweep_settles_fragile_groups_as_eval_ranks(capsys, tmp_path):
    # each query's top document is appended again with its text written
    # three times: a vector proportional to the original's, so the two tie
    # in exact arithmetic, and rounding orders them differently at different
    # bases (twice would scale every sum by 2 exactly and tie them bit for
    # bit at all bases)
    col = gen.generate(SHAPE, 1)
    ref = reference.Reference(col.docs)
    texts = dict(parse_documents(col.docs_smart.split("\n")))
    top = sorted({ref.rank(terms)[0][0] for terms in col.queries.values()})
    col.docs_smart += "".join(f".I {1000 + d}\n.W\n" + f"{texts[d]}\n" * 3 for d in top)
    paths = gen.write(col, str(tmp_path / "fragile"))
    argv = ["sweep", *inputs(paths), "--out", tmp_path, "--grid", "0.5:3.0:0.5"]
    assert main([str(a) for a in argv]) == 0
    fragile = re.search(r"; (\d+) fragile groups?\n", capsys.readouterr().err)
    assert fragile and int(fragile[1]) > 0
    swept = csv_rows(tmp_path / "sweep.csv")
    assert [row[0] for row in swept] == ["0.5", "1.5", "2.0", "2.5", "3.0"]
    for row in swept:
        out = tmp_path / f"eval-{row[0]}"
        run(capsys, "eval", *inputs(paths), "--out", out, "--base", row[0])
        assert csv_rows(out / "eval.csv")[0][1:] == row[1:], row[0]


def near_tie_collection():
    """The collection of ``test_sweep_settles_fragile_groups_as_eval_ranks``
    plus ``2000 + d``, one exact copy of each query's second-ranked document
    that is no query's top document: its groups of near ties hold both
    proportional and identical documents (100 groups at base e, 43 of them
    identical, to the full depth)."""
    col = gen.generate(SHAPE, 1)
    ref = reference.Reference(col.docs)
    texts = dict(parse_documents(col.docs_smart.split("\n")))
    ranked = [ref.rank(terms) for terms in col.queries.values()]
    top = sorted({r[0][0] for r in ranked})
    second = sorted({r[1][0] for r in ranked} - set(top))
    col.docs_smart += "".join(f".I {1000 + d}\n.W\n" + f"{texts[d]}\n" * 3 for d in top)
    col.docs_smart += "".join(f".I {2000 + d}\n.W\n{texts[d]}\n" for d in second)
    return col


# sha256 of the stdout, the stderr and every file written by a command on
# the near-tie collection, run where its inputs lie with relative paths:
# the sweep with its resume cache, eval with its run file, and a search for
# query 7, whose first 50 results hold groups of both kinds.
NEAR_TIE_ARGV = {
    "sweep": ["sweep", "--grid", "0.5:3.0:0.5", "--out", "out"],
    **{f"eval-{b}": ["eval", "--base", b, "--save-run", "run.tsv", "--out", "out"]
       for b in ("0.3", "2.5", "10")},
    **{f"search-{b}": ["search", "--base", b, "-k", "50"] for b in ("0.3", "2.5", "10")},
}
NEAR_TIE_SHA256 = {
    "eval-0.3": {
        "stdout": "77011772bc41d66b34a9b02cf8ddf4726954b021247fe8db7b6c0d5abe09bf4f",
        "stderr": "8a8eb7804ac8ea2b622e3a4b09fcd9b89bb2d5b5e58d95bfa9a5767ae4446a78",
        "out/eval.csv": "50c0e8867d5c7e56a8e2f0e6ab7bd95dc39c7be5dffae5b8cf99e9e280667c34",
        "run.tsv": "10383eea071688401c37267e31f91c651ff6a0b09f95ca19f9cb696aadf046c0",
    },
    "eval-10": {
        "stdout": "f3cd385e0e92766ca8c1459c3a228253db9143d3ec802ffbf76c4265aa87bac9",
        "stderr": "82dc842231fc78bcb7b83c40aee9e96881468871e2195a3ee137c90764b99e64",
        "out/eval.csv": "d6e812ccd046cf4e2dacdc6d05977d82013c73d91af92f4f25448c845e2d63a2",
        "run.tsv": "8c69d772024959964f5abe0bc0f9f8ec07537da1631220cd0a97dbd0c2e319a4",
    },
    "eval-2.5": {
        "stdout": "15f757c04b31b06ea25bc4ae60916919ce95b5da18570fd19a136c4483d60057",
        "stderr": "706fc5101086ce870f0c3170cdccbdf681adfad6f4afc654af10b9d31e15e054",
        "out/eval.csv": "8405d44c816b0614b0d4eaf83b8822bd2564def062d7d0fed83137c1f6817934",
        "run.tsv": "b93385c3624f13a655c83515c6c263b922c965f561120ca6180f3d3b5df2085d",
    },
    "search-0.3": {
        "stdout": "48524d739a9c4cf5d8eeb3a670b3c1b096b8ce7601b2d8f2abd963532c9a3c8c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "search-10": {
        "stdout": "ec6f505a1564155cfe81711b99e4548a0b57522f4f2e029a378fbed519dea8f3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "search-2.5": {
        "stdout": "5e19c01a72da194c8b777caacf5e05e19343f77659645132c2ed9d8fa4ca6f53",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "sweep": {
        "stdout": "b0b792d64b65b6ff7d633f04922966c9dde88cc1e755317883df77cb49a36b72",
        "stderr": "59e0b83b2bb80ba8d999788d1b9ae80719c6c61965206474ec308a19d7803d7b",
        "out/curve_map.csv": "fa3cd9095d775c052f2a4684ff78d5c7db407061477d7ef5033086b4cf3a4489",
        "out/curve_map_at_30.csv":
            "9e3b16700340f464ffff1731b196a259568ba5c9235f3d1f449e148145a06a21",
        "out/sweep.csv": "4bedf566aebdb6c27a948f01238ae343ed60b9f8757e77b5ceafa9aa2001bb30",
        "out/sweep_cache.jsonl":
            "54fe25f575dda528833570350ef5f82e5f07455c58552cdf9919b2ff410f47d1",
        "out/top5_map.txt": "a2289db068381b102705426e564fdf6750f2d872480129d3ea87240db7eddd32",
        "out/top5_map_at_30.txt":
            "f8e80d881e930c1c5dc244f780d780f9c3404a66380e530c1ee13c24623c49f8",
    },
}


@pytest.mark.parametrize("case", sorted(NEAR_TIE_ARGV))
def test_near_tie_outputs_keep_their_bytes(capsys, tmp_path, monkeypatch, case):
    col = near_tie_collection()
    paths = gen.write(col, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = [*NEAR_TIE_ARGV[case], "--docs", "docs.all"]
    if case.startswith("search"):
        argv.append(col.query_text[7])
    else:
        argv += ["--queries", "queries.qry", "--qrels", "qrels.rel"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    written = {"stdout": captured.out.encode(), "stderr": captured.err.encode()}
    written.update((str(p.relative_to(tmp_path)), p.read_bytes())
                   for p in sorted(tmp_path.rglob("*"))
                   if p.is_file() and str(p) not in paths.values())
    assert {name: hashlib.sha256(content).hexdigest()
            for name, content in written.items()} == NEAR_TIE_SHA256[case]


def test_sweep_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashing is salted per process; no output may follow the order of
    # a set or dict of strings that the salt decides
    gen.write(near_tie_collection(), str(tmp_path))
    argv = ["sweep", "--grid", "0.5:3.0:0.5", "--out", "out", "--docs", "../docs.all",
            "--queries", "../queries.qry", "--qrels", "../qrels.rel"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / f"seed{hash_seed}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "logbase_ir.cli", *argv], cwd=cwd,
                              capture_output=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
                 if p.is_file()}
        written.append((proc.stdout, proc.stderr, files))
    assert "out/sweep_cache.jsonl" in written[0][2]
    assert written[1] == written[0]


def test_resumed_sweep_plans_only_for_uncached_bases(capsys, tmp_path, monkeypatch):
    # a sweep with bases left to rank plans once; one whose every base is
    # cached plans nothing; both write the reports of a sweep in one go
    paths = gen.write(near_tie_collection(), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--out", "out", "--docs", "docs.all", "--queries", "queries.qry",
            "--qrels", "qrels.rel"]
    want = NEAR_TIE_SHA256["sweep"]
    plans = []
    plan = Ranker.plan

    def counting(self, *args):
        plans.append(args)
        return plan(self, *args)

    def sweep():
        assert main([*argv, "--grid", "0.5:3.0:0.5"]) == 0
        captured = capsys.readouterr()
        written = {str(p): p.read_bytes() for p in sorted(Path("out").iterdir())}
        assert {name: hashlib.sha256(content).hexdigest() for name, content in written.items()
                } == {name: sha for name, sha in want.items() if name.startswith("out/")}
        assert hashlib.sha256(captured.out.encode()).hexdigest() == want["stdout"]
        return captured.err.splitlines()[0]

    monkeypatch.setattr(Ranker, "plan", counting)
    assert main([*argv, "--grid", "0.5:1.5:0.5"]) == 0  # caches the first two bases
    capsys.readouterr()
    assert sweep().endswith("across 3 bases; 57 fragile groups")
    assert len(plans) == 2
    monkeypatch.setattr(Ranker, "plan", None)
    assert sweep() == "note: 0 distinct rankings to the cutoff across 0 bases; 0 fragile groups"


def test_eval_gathers_each_term_vector_once(capsys, tmp_path, monkeypatch):
    # eval ranks one query at a time; its queries share near-tie members,
    # and the index hands out a member's vector gathered by an earlier query
    paths = gen.write(near_tie_collection(), str(tmp_path))
    built, ranked, asked = [], [], []
    build, rank_tokens, term_vectors = cli.build_index, Ranker.rank_tokens, InvertedIndex.term_vectors

    def counted_build(*args):
        index = build(*args)
        built.append((index, count_passes(index)))
        return index

    def recording_rank(self, query_id, tokens):
        ranking = rank_tokens(self, query_id, tokens)
        ranked.append((self, query_id, tokens, ranking))
        return ranking

    def recording_vectors(self, doc_ids):
        vectors = term_vectors(self, doc_ids)
        asked.append(vectors)
        return vectors

    monkeypatch.setattr(cli, "build_index", counted_build)
    monkeypatch.setattr(Ranker, "rank_tokens", recording_rank)
    monkeypatch.setattr(InvertedIndex, "term_vectors", recording_vectors)
    run(capsys, "eval", *inputs(paths), "--out", tmp_path / "out")
    [(index, postings)] = built
    # every query has near ties, and a pass is made only for a query that
    # names a member no earlier query named
    assert len(asked) == len(ranked) == 12
    new = [not vectors.keys() <= set().union(*asked[:i]) for i, vectors in enumerate(asked)]
    assert postings.passes == sum(new) == 7
    # each member's vector is the one gathered first: 44 members, 200 asked
    first = {}
    for vectors in asked:
        for doc_id, vector in vectors.items():
            assert first.setdefault(doc_id, vector) is vector
    assert (len(first), sum(map(len, asked))) == (44, 200)
    # ranking the queries again on the same index makes no pass
    for ranker, query_id, tokens, ranking in list(ranked):
        assert repr(ranker.rank_tokens(query_id, tokens)) == repr(ranking)
    assert postings.passes == 7


def test_sweep_counts_rankings_cut_at_the_cutoff():
    # a third proportional copy of each top document (its text written
    # twice) makes 57 groups of three, each query's first straddling a
    # cutoff of 1: bases that agree on the first document share one
    # evaluation, however they order the rest of its group
    col = near_tie_collection()
    texts = dict(parse_documents(col.docs_smart.split("\n")))
    top = [d - 1000 for d in texts if 1000 <= d < 2000]
    col.docs_smart += "".join(f".I {3000 + d}\n.W\n" + f"{texts[d]}\n" * 2 for d in top)
    stoplist = default_stoplist()
    index = build_index((d, pipeline(t, stoplist))
                        for d, t in parse_documents(col.docs_smart.split("\n")))
    tokens = {q: pipeline(col.query_text[q], stoplist) for q in col.qrels}
    labels = grid_labels("0.1:10.0:0.1")
    orders = {depth: set() for depth in (1, 3)}
    for label in labels:
        if float(label) == 1.0:
            continue
        ranker = Ranker(index, WeightScheme(float(label)))
        rankings = [ranker.rank_tokens(q, t).entries for q, t in tokens.items()]
        for depth, seen in orders.items():
            seen.add(tuple(tuple(d for d, _ in entries[:depth]) for entries in rankings))
    swept = run_sweep(index, tokens, col.qrels, labels, cutoff=1)
    assert swept.distinct_rankings == len(orders[1])
    # the groups reorder past the cutoff too, so a key that is not cut counts more
    assert len(orders[1]) < len(orders[3])


# A SMART collection of accented Latin, the Kelvin sign, dotted capital I,
# ligatures, CJK and emoji, each beside ASCII words: every benchmark shape
# is ASCII, so this one pins the tokenizer on text where every non-ASCII
# character separates tokens, also those that lowercase to ASCII letters.
NON_ASCII_DOCS = {
    1: "Na\u00efve caf\u00e9 r\u00e9sum\u00e9: the \u00c5ngstr\u00f6m unit, 42 \u00c5 wide",
    2: "\u212aelvin scale at 300 \u212a; KELVIN and kelvin in ASCII",
    3: "\u0130stanbul and Istanbul, \u0131stanbul with a dotless i",
    4: "\u6771\u4eac Tokyo 2020 \u306e caf\u00e9 \u4f1a\u8b70 r\u00e9sum\u00e9",
    5: "rocket\U0001f680launch \U0001f680 na\u00efve emoji\U0001f44dok fine",
    6: "\ufb01ne ligature \ufb01, superscript x\u00b2 and \u0663 three",
}
NON_ASCII_QUERIES = {
    "cafe": "caf\u00e9 r\u00e9sum\u00e9 na\u00efve Tokyo",
    "kelvin": "\u212aelvin \u0130stanbul \U0001f680 rocket fine",
}
# sha256 of the stdout and snapshot of ``index --save-index`` and of the
# stdout of ``search -k 10`` for each query above
NON_ASCII_SHA256 = {
    "index": "149ec8f967338f4e6198976d513ce2a615c1e11d1e1d6b9a307e58123cee603f",
    "x.idx": "86ba8d93b41602d801403527f0a827e67790beddafcf77aca9f94009bbc59ea1",
    "search-cafe": "b9da01c42c7f626195f4d0c3f8260234a75be32f1345387256e9b9ef983b4323",
    "search-kelvin": "5176ce934cee2d197951b4b527563b1e46dd080a2f9bdea4d9b2627800bd07b2",
}


def test_non_ascii_collection_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("docs.all").write_text("".join(f".I {i}\n.W\n{t}\n" for i, t in NON_ASCII_DOCS.items()),
                                encoding="utf-8")
    written = {"index": run(capsys, "index", "--docs", "docs.all", "--save-index",
                            "x.idx").encode()}
    written["x.idx"] = Path("x.idx").read_bytes()
    for name, query in NON_ASCII_QUERIES.items():
        written[f"search-{name}"] = run(capsys, "search", "--load-index", "x.idx", "-k", "10",
                                        query).encode()
    assert {name: hashlib.sha256(content).hexdigest()
            for name, content in written.items()} == NON_ASCII_SHA256


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_code_runs(tmp_path, monkeypatch, capsys):
    """The python blocks of the README's Library section run in order, in one
    namespace, on a MED-shaped collection at data/med/MED.ALL, so the
    documented imports cannot go stale."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, flags=re.M | re.S)
    assert len(blocks) >= 2
    med = tmp_path / "data" / "med" / "MED.ALL"
    med.parent.mkdir(parents=True)
    med.write_text(gen.generate(gen.MED, 1).docs_smart, encoding="utf-8", newline="\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["index"].n_docs == gen.MED.n_docs
    assert len(namespace["result"].per_base) == 3
    assert capsys.readouterr().out.count("\n") == len(blocks)
