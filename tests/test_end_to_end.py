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
import re
from pathlib import Path

import pytest

from logbase_ir.cli import main
from logbase_ir.collection_io import parse_documents
from logbase_ir.index import InvertedIndex, build_index

from conftest import perfbench

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
    """stdout and every report of an eval and a sweep, by name."""
    files = {}
    files["eval"] = run(capsys, "eval", *inputs(paths), "--out", out_dir,
                        "--save-run", out_dir / "run.tsv", "--base", "0.3")
    files["eval-pooled"] = run(capsys, "eval", *inputs(paths), "--out", out_dir / "pooled",
                               "--interp", "standard", "--pooling", "pooled")
    files["sweep"] = run(capsys, "sweep", *inputs(paths), "--out", out_dir / "sweep",
                         "--grid", "0.2:10.0:0.2", "--no-cache")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files


def test_same_bytes_when_sum_compensates(capsys, tmp_path, collection, monkeypatch):
    # every float sum that reaches an output adds left to right, so the
    # outputs do not depend on how the running Python's sum() adds floats
    _, paths, _ = collection
    plain = outputs(capsys, tmp_path, paths)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0 != builtin_sum([0.1] * 10)
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
            "f4d8a83fb108b2faa6ce6ce33dde8222cdba0dba33ab3766cb3410d08d954d35",
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
    texts = {doc.doc_id: doc.text for doc in parse_documents(col.docs_smart, "smart")}
    top = sorted({ref.rank(terms)[0][0] for terms in col.queries.values()})
    col.docs_smart += "".join(f".I {1000 + d}\n.W\n" + f"{texts[d]}\n" * 3 for d in top)
    paths = gen.write(col, str(tmp_path / "fragile"))
    argv = ["sweep", *inputs(paths), "--out", tmp_path, "--grid", "0.5:3.0:0.5", "--no-cache"]
    assert main([str(a) for a in argv]) == 0
    fragile = re.search(r"; (\d+) fragile groups?\n", capsys.readouterr().err)
    assert fragile and int(fragile[1]) > 0
    swept = csv_rows(tmp_path / "sweep.csv")
    assert [row[0] for row in swept] == ["0.5", "1.5", "2.0", "2.5", "3.0"]
    for row in swept:
        out = tmp_path / f"eval-{row[0]}"
        run(capsys, "eval", *inputs(paths), "--out", out, "--base", row[0])
        assert csv_rows(out / "eval.csv")[0][1:] == row[1:], row[0]


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
