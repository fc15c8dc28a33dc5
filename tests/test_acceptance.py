"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL/SKIP line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 3 and the real-collection parts of 5 and 6 need the five classic
test collections on disk (env LOGBASE_IR_DATA or ./data); they skip with an
explanation when the files are absent.
"""

import os
import random
import re
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from logbase_ir.collection_io import parse_documents, parse_qrels, parse_queries
from logbase_ir.evaluation import (
    bucket_index,
    evaluate_rankings,
    map11,
    map_at_30,
    pr_curve,
)
from logbase_ir.index import build_index
from logbase_ir.porter import stem
from logbase_ir.retrieval import RankedList, Ranker
from logbase_ir.sweep import (
    DEFAULT_GRID,
    emit_csv,
    grid_labels,
    render_table,
    run_sweep,
    top_k_report,
)
from logbase_ir.textpipe import default_stoplist, pipeline
from logbase_ir.weighting import WeightScheme

from conftest import data_dir, find_collection_file
from oracle import dense_rank, random_corpus

# the worked 11-level example and its two summary metric values
GOLDEN_LEVELS = (0.867, 0.675, 0.570, 0.520, 0.500, 0.420, 0.350, 0.340, 0.330, 0.313, 0.000)

PORTER_PAIRS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("beaches", "beach"),
    ("bushes", "bush"),
    ("playing", "play"),
    ("books", "book"),
]

# published document counts for the five classic small collections
EXPECTED_DOC_COUNTS = {
    "MED": 1033,
    "CRAN": 1400,
    "NPL": 11429,
    "LISA": 6003,
    "CISI": 1460,
}


@contextmanager
def criterion(number, name):
    try:
        yield
    except pytest.skip.Exception as e:
        print(f"ACCEPTANCE {number} {name}: SKIP ({e})")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number} {name}: PASS")


def _documents(content: str) -> list[tuple[int, str]]:
    """The (doc_id, text) records of a whole document file's text."""
    return list(parse_documents(content.split("\n")))


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _load_collection(name: str):
    """The documents of one of the five collections, read in the layout
    their file shows, or skip."""
    key = f"{name.lower()}_docs"
    path = find_collection_file(key)
    if path is None and name == "LISA":
        # the LISA distribution ships the documents as LISA0.001 .. LISA5.850
        base = data_dir()
        chunks = []
        if base is not None:
            chunks = sorted(
                p for p in base.rglob("LISA?.*") if p.is_file() and p.suffix != ".num"
            )
        if chunks:
            return _documents("\n".join(_read(c) for c in chunks))
    if path is None:
        pytest.skip(f"{name} collection files not available")
    return _documents(_read(path))


@lru_cache(maxsize=1)
def _med_setup():
    docs_path = find_collection_file("med_docs")
    queries_path = find_collection_file("med_queries")
    qrels_path = find_collection_file("med_qrels")
    if not (docs_path and queries_path and qrels_path):
        return None
    stoplist = default_stoplist()
    docs = _documents(_read(docs_path))
    index = build_index([(i, pipeline(t, stoplist)) for i, t in docs])
    queries = parse_queries(_read(queries_path))
    qrels, _ = parse_qrels(_read(qrels_path))
    return stoplist, index, queries, qrels


def test_criterion_1_metric_golden_values():
    with criterion(1, "metric golden values"):
        assert map11(GOLDEN_LEVELS) == pytest.approx(0.444, abs=0.0005)
        assert map_at_30(GOLDEN_LEVELS) == pytest.approx(0.658, abs=0.0005)
        best = min(
            _timed(lambda: (map11(GOLDEN_LEVELS), map_at_30(GOLDEN_LEVELS)))
            for _ in range(5)
        )
        assert best < 0.001, f"metric computation took {best:.6f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_porter_conformance():
    with criterion(2, "porter conformance"):
        for word, expected in PORTER_PAIRS:
            assert stem(word) == expected, (word, expected, stem(word))
        fixture = Path(__file__).parent / "data" / "porter_pairs.txt"
        pairs = [
            line.split()
            for line in fixture.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert len(pairs) >= 100
        mismatches = [(w, e, stem(w)) for w, e in pairs if stem(w) != e]
        assert mismatches == [], mismatches[:10]


@pytest.mark.parametrize("name", sorted(EXPECTED_DOC_COUNTS))
def test_criterion_3_collection_ingestion(name):
    with criterion(3, f"collection ingestion {name}"):
        docs = _load_collection(name)
        assert len(docs) == EXPECTED_DOC_COUNTS[name], (
            f"{name}: parsed {len(docs)} documents, "
            f"expected {EXPECTED_DOC_COUNTS[name]}"
        )
        stoplist = default_stoplist()
        index = build_index([(i, pipeline(t, stoplist)) for i, t in docs])
        # term counts are pipeline-dependent: reported, not asserted
        print(f"{name}: {len(index.dictionary)} distinct terms after the pipeline")


def test_criterion_3_cran_query_count():
    with criterion(3, "CRAN query file parses completely"):
        path = find_collection_file("cran_queries")
        if path is None:
            pytest.skip("CRAN query file not available")
        content = _read(path)
        queries = parse_queries(content)
        marker_lines = len(re.findall(r"^\.I\s", content, flags=re.M))
        assert len(queries) == marker_lines


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence on random corpora"):
        rng = random.Random(1234)
        start = time.perf_counter()
        corpora = 0
        while corpora < 50:
            docs, queries = random_corpus(rng, max_docs=10, max_terms=15, max_queries=5)
            corpora += 1
            base = rng.choice([0.1, 0.3, 0.5, 2.0, 10.0, 32.6, 84.6, 100.0])
            index = build_index(sorted(docs.items()))
            ranker = Ranker(index, WeightScheme(base))
            for qid, tokens in enumerate(queries):
                got = ranker.rank_tokens(qid, tokens).entries
                want = dense_rank(docs, tokens, base)
                assert [d for d, _ in got] == [d for d, _ in want]
                for (_, gs), (_, ws) in zip(got, want):
                    assert abs(gs - ws) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"


def _sample_bases(rng, count=24):
    bases = [rng.uniform(0.01, 0.99) for _ in range(count // 2)]
    bases += [rng.uniform(1.01, 100.0) for _ in range(count - count // 2)]
    return bases


def test_criterion_5_base_invariance_toy():
    with criterion(5, "base invariance on toy corpora"):
        rng = random.Random(77)
        bases = _sample_bases(rng)
        assert len(bases) >= 20
        for _ in range(5):
            docs, queries = random_corpus(rng)
            index = build_index(sorted(docs.items()))
            qrels = {
                qid: set(rng.sample(sorted(docs), k=min(3, len(docs))))
                for qid in range(len(queries))
            }
            reference_rankings = None
            reference_summary = None
            for base in bases:
                ranker = Ranker(index, WeightScheme(base))
                rankings = {
                    qid: ranker.rank_tokens(qid, tokens)
                    for qid, tokens in enumerate(queries)
                }
                summary, _ = evaluate_rankings(rankings, qrels)
                if reference_rankings is None:
                    reference_rankings = rankings
                    reference_summary = summary
                    continue
                for qid, ref in reference_rankings.items():
                    got = rankings[qid]
                    assert [d for d, _ in got.entries] == [d for d, _ in ref.entries]
                assert summary.map == pytest.approx(reference_summary.map, abs=1e-9)
                assert summary.map_at_30 == pytest.approx(
                    reference_summary.map_at_30, abs=1e-9
                )
                assert summary.levels == pytest.approx(reference_summary.levels, abs=1e-9)


def test_criterion_5_base_invariance_med():
    with criterion(5, "base invariance on MED"):
        setup = _med_setup()
        if setup is None:
            pytest.skip("MED collection files not available")
        stoplist, index, queries, qrels = setup
        judged = [qid for qid in queries if qid in qrels][:10]
        assert len(judged) == 10
        tokens = {qid: pipeline(queries[qid], stoplist) for qid in judged}
        sub_qrels = {qid: qrels[qid] for qid in judged}
        bases = _sample_bases(random.Random(99))
        reference = None
        reference_summary = None
        for base in bases:
            ranker = Ranker(index, WeightScheme(base))
            rankings = {qid: ranker.rank_tokens(qid, t) for qid, t in tokens.items()}
            summary, _ = evaluate_rankings(rankings, sub_qrels)
            if reference is None:
                reference, reference_summary = rankings, summary
                continue
            for qid, ref in reference.items():
                assert [d for d, _ in rankings[qid].entries] == [
                    d for d, _ in ref.entries
                ]
            assert summary.levels == pytest.approx(reference_summary.levels, abs=1e-9)
            assert summary.map == pytest.approx(reference_summary.map, abs=1e-9)


def test_criterion_5_report_shape():
    with criterion(5, "sweep reports keep the comparison-table shape"):
        texts = {1: "apple pie", 2: "pear tart", 3: "apple tart"}
        index = build_index([(d, pipeline(t, frozenset())) for d, t in texts.items()])
        result = run_sweep(index, {1: pipeline("apple", frozenset())}, {1: {1}},
                           grid_labels("9:11:1"))
        rows = top_k_report(result, "map", 5)
        text = render_table(rows, "map")
        header = text.splitlines()[0].split()
        assert header == ["LOG", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6",
                          "0.7", "0.8", "0.9", "1.0", "MAP"]
        assert all(len(line.split()) == 13 for line in text.splitlines()[1:])


def test_criterion_6_sweep_contract():
    with criterion(6, "sweep contract on the default grid"):
        texts = {
            1: "solar energy panel",
            2: "wind turbine energy",
            3: "solar panel cost",
            4: "hydro power dam",
        }
        index = build_index([(d, pipeline(t, frozenset())) for d, t in texts.items()])
        queries = {qid: pipeline(text, frozenset())
                   for qid, text in ((1, "solar energy"), (2, "wind power"))}
        qrels = {1: {1, 3}, 2: {2, 4}}
        labels = grid_labels(DEFAULT_GRID)
        assert len(labels) == 1000
        result = run_sweep(index, queries, qrels, labels)
        assert len(result.per_base) == 999
        assert result.skipped == ["1.0"]
        with tempfile.TemporaryDirectory() as tmp:
            p1 = Path(tmp) / "a.csv"
            p2 = Path(tmp) / "b.csv"
            emit_csv(result, str(p1))
            rerun = run_sweep(index, queries, qrels, labels)
            emit_csv(rerun, str(p2))
            assert p1.read_bytes() == p2.read_bytes()
            assert len(p1.read_text().splitlines()) == 1000  # header + 999 rows


def test_criterion_6_med_sweep_wall_time():
    with criterion(6, "full MED sweep under the wall-time ceiling"):
        setup = _med_setup()
        if setup is None:
            pytest.skip("MED collection files not available")
        if not os.environ.get("LOGBASE_IR_RUN_SLOW"):
            pytest.skip("set LOGBASE_IR_RUN_SLOW=1 to run the full MED sweep")
        stoplist, index, queries, qrels = setup
        start = time.perf_counter()
        tokens = {qid: pipeline(text, stoplist) for qid, text in queries.items() if qid in qrels}
        result = run_sweep(index, tokens, qrels, grid_labels(DEFAULT_GRID))
        elapsed = time.perf_counter() - start
        assert len(result.per_base) == 999
        assert elapsed < 1800, f"MED sweep took {elapsed:.0f}s"
        print(f"MED sweep wall time: {elapsed:.0f}s")


def test_criterion_7_metric_property_suite():
    with criterion(7, "metric property suite"):
        rng = random.Random(4321)

        # recall monotonicity and metric bounds over 1000 random ranked lists
        for _ in range(1000):
            n = rng.randint(1, 30)
            doc_ids = rng.sample(range(1, 100), k=n)
            ranked = RankedList(1, tuple((d, 1.0 - i / n) for i, d in enumerate(doc_ids)))
            relevant = set(rng.sample(range(1, 100), k=rng.randint(1, 20)))
            levels = pr_curve(ranked, relevant, cutoff=50)
            # each hit's recall, recomputed from the ranking; every rank's
            # precision sits in the level owning the recall at that rank
            recalls = []
            for position, (doc_id, _) in enumerate(ranked.entries, start=1):
                if doc_id in relevant:
                    recalls.append((len(recalls) + 1) / len(relevant))
                recall = recalls[-1] if recalls else 0.0
                assert len(recalls) / position in levels[bucket_index(recall)]
            assert len(recalls) == len(relevant.intersection(doc_ids))
            assert recalls == sorted(recalls)
            assert all(0.0 <= recall <= 1.0 for recall in recalls)
            precisions = [p for bucket in levels for p in bucket]
            assert len(precisions) == n
            assert all(0.0 <= p <= 1.0 for p in precisions)

        # bucketing is a total partition at 0.001 recall resolution: the
        # double k/1000 lands where the rational k/1000 belongs
        edges = [Fraction(2 * k + 1, 20) for k in range(10)]
        for k in range(1001):
            recall = k / 1000
            want = sum(1 for e in edges if e <= Fraction(k, 1000))
            assert bucket_index(recall) == want

        # map_at_30 ignores levels 0.4 .. 1.0
        for _ in range(200):
            head = tuple(rng.random() for _ in range(4))
            tail_a = tuple(rng.random() for _ in range(7))
            tail_b = tuple(rng.random() for _ in range(7))
            assert map_at_30(head + tail_a) == map_at_30(head + tail_b)
