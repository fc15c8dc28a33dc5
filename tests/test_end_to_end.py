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
import json
import math
import re
from pathlib import Path

import pytest

from logbase_ir.cli import main
from logbase_ir.collection_io import parse_documents
from logbase_ir.index import InvertedIndex, build_index
from logbase_ir.retrieval import Ranker
from logbase_ir.sweep import CACHE_VERSION
from logbase_ir.textpipe import split_lines

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
    """stdout and every report of an eval and a sweep, by name. The sweep
    starts without a resume cache, so that it ranks every base."""
    (out_dir / "sweep" / "sweep_cache.jsonl").unlink(missing_ok=True)
    files = {}
    files["eval"] = run(capsys, "eval", *inputs(paths), "--out", out_dir,
                        "--save-run", out_dir / "run.tsv", "--base", "0.3")
    files["eval-pooled"] = run(capsys, "eval", *inputs(paths), "--out", out_dir / "pooled",
                               "--interp", "standard", "--pooling", "pooled")
    files["sweep"] = run(capsys, "sweep", *inputs(paths), "--out", out_dir / "sweep",
                         "--grid", "0.2:10.0:0.2")
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
            "a580981f20f03492e6a8e8fff5af9f560be6eaff07cc2b0bc8fef140ce70b6f2",
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
    texts = dict(parse_documents(split_lines(col.docs_smart), "smart"))
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
    texts = dict(parse_documents(split_lines(col.docs_smart), "smart"))
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
            "77ef09e738316fc2130b3999dcea87e368d31882c0337a25f20dc67f2ac85861",
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


# A JSONL collection of accented Latin, the Kelvin sign, dotted capital I,
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
    Path("docs.jsonl").write_text("".join(
        json.dumps({"id": i, "text": t}, ensure_ascii=False) + "\n"
        for i, t in NON_ASCII_DOCS.items()), encoding="utf-8")
    written = {"index": run(capsys, "index", "--docs", "docs.jsonl", "--format", "jsonl",
                            "--save-index", "x.idx").encode()}
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
