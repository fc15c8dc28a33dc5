"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps the package functions named in its
``TARGETS``; one that a change renames or deletes is skipped silently and
its per-layer metrics vanish from the benchmark report. The tracer is
run from its source by path, so nothing is written beside it.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from logbase_ir.evaluation import pr_curve
from logbase_ir.index import InvertedIndex, build_index
from logbase_ir.retrieval import RankedList, Ranker
from logbase_ir.weighting import WeightScheme

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_target_resolves(tracer):
    unresolved = []
    for mod_name, path, _kind in tracer.TARGETS:
        owner = importlib.import_module(f"logbase_ir.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{mod_name}.{path}")
    assert unresolved == []


def test_pr_curve_hook_counts_a_call(tracer):
    ranked = RankedList(3, ((1, 0.9), (2, 0.8)))
    args = (ranked, {2}, 1000)
    rec = tracer.Recorder()
    tracer.AFTER["evaluation.pr_curve"](rec, args, pr_curve(*args))
    assert rec.counts["pr_points"] > 0
    assert rec.distinct["rankings"] == {(3, (1, 2))}


def test_rank_tokens_hook_counts_a_call(tracer, toy_index):
    args = (Ranker(toy_index, WeightScheme(10)), 1, ["apple", "date"])
    rec = tracer.Recorder()
    tracer.AFTER["retrieval.Ranker.rank_tokens"](rec, args, Ranker.rank_tokens(*args))
    assert rec.counts["candidates"] > 0
    assert rec.counts["postings_scanned"] > 0


def test_snapshot_hooks_count_a_call(tracer, toy_index, tmp_path):
    path = str(tmp_path / "index.bin")
    rec = tracer.Recorder()
    tracer.AFTER["index.InvertedIndex.save"](rec, (toy_index, path), toy_index.save(path))
    saved = rec.counts["snapshot_bytes"]
    assert saved > 0
    loaded = InvertedIndex.load(path)
    tracer.AFTER["index.InvertedIndex.load"](rec, (InvertedIndex, path), loaded)
    assert rec.counts["snapshot_bytes"] == 2 * saved


def test_build_index_hook_counts_a_call(tracer):
    docs = [(1, ["a", "b", "a"]), (2, ["b"])]
    rec = tracer.Recorder()
    tracer.AFTER["index.build_index"](rec, (docs,), build_index(docs))
    assert rec.counts["terms"] > 0
    assert rec.counts["postings"] > 0


def test_traced_commands_record_every_layer(tmp_path):
    """index, search and eval run under the tracer as the benchmark runs
    them: every target resolves, every hook counts, and a search computes
    IDF for its query terms alone."""
    docs = tmp_path / "docs.all"
    docs.write_text("".join(f".I {i}\n.W\napple {'plum ' * i}\n" for i in range(1, 6))
                    + ".I 6\n.W\nfig\n")
    queries = tmp_path / "q.qry"
    queries.write_text(".I 1\n.W\napple plum\n")
    qrels = tmp_path / "q.rel"
    qrels.write_text("1 2\n")
    snapshot = tmp_path / "index.bin"
    env = dict(os.environ, PYTHONPATH=str(TRACER.parents[1] / "src"))

    def traced(name, *argv):
        trace = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, str(TRACER), str(trace), "--", *map(str, argv)],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        return json.loads(trace.read_text())

    index = traced("index", "index", "--docs", docs, "--save-index", snapshot)
    assert index["missing"] == []
    assert index["counts"]["snapshot_bytes"] > 0
    assert index["counts"]["postings"] > 0
    search = traced("search", "search", "--load-index", snapshot, "apple plum zebra")
    assert search["calls"]["retrieval.Ranker.rank_tokens"] == 1
    assert search["counts"]["candidates"] == 5
    # the two in-vocabulary query terms; the norms come from the snapshot
    assert search["calls"]["weighting.idf"] == 2
    assert search["counts"]["snapshot_bytes"] == index["counts"]["snapshot_bytes"]
    evaluated = traced("eval", "eval", "--docs", docs, "--queries", queries, "--qrels", qrels,
                       "--out", tmp_path / "out")
    assert evaluated["calls"]["retrieval.Ranker.rank_tokens"] == 1
    assert evaluated["counts"]["pr_points"] > 0
