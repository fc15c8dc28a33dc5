"""Tests of the benchmark's independent reference.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_reference.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import reference  # noqa: E402

# the paper-style worked example: precision at each of the 11 recall levels
WORKED_LEVELS = (0.867, 0.675, 0.570, 0.520, 0.500, 0.420, 0.350, 0.340, 0.330, 0.313, 0.000)


def test_worked_eleven_level_example():
    # one point at each recall 0.0 .. 0.9 (hits k of 10 relevant); level 1.0
    # gets no point and scores 0
    points = [(reference.bucket(k, 10), p) for k, p in enumerate(WORKED_LEVELS[:10])]
    levels = reference.levels_from_points(points)
    assert levels == list(WORKED_LEVELS)
    assert round(math.fsum(levels) / 11, 3) == 0.444
    assert round(math.fsum(levels[:4]) / 4, 3) == 0.658


def test_bucket_edges_are_half_open():
    assert reference.bucket(0, 7) == 0
    assert reference.bucket(1, 20) == 1  # recall 0.05 starts level 0.1
    assert reference.bucket(3, 20) == 2  # recall 0.15 starts level 0.2
    assert reference.bucket(19, 20) == 10  # recall 0.95 starts level 1.0
    assert reference.bucket(7, 7) == 10
    assert reference.bucket(1, 3) == 3  # recall 0.333 lies in [0.25, 0.35)


def test_cosine_ranking_and_tie_order():
    docs = {1: ["a", "b"], 2: ["a", "c"], 3: ["b", "b", "d"], 4: ["d"]}
    ref = reference.Reference(docs)
    idf = {t: math.log10(4 / df) for t, df in {"a": 2, "b": 2, "c": 1, "d": 2}.items()}
    ranked = ref.rank(["a"])
    # docs 1 and 2 both hold "a" once; doc 1's norm is smaller, so it leads
    norm1 = math.hypot(idf["a"], idf["b"])
    norm2 = math.hypot(idf["a"], idf["c"])
    assert [d for d, _ in ranked] == [1, 2]
    assert math.isclose(ranked[0][1], idf["a"] / norm1)
    assert math.isclose(ranked[1][1], idf["a"] / norm2)
    # equal vectors tie exactly and come in ascending doc id order
    tied = reference.Reference({5: ["x", "y"], 2: ["x", "y"], 9: ["z"]})
    assert [d for d, _ in tied.rank(["x"])] == [2, 5]


def test_summary_averages_queries():
    rankings = {1: [10, 20], 2: [30]}
    qrels = {1: {10}, 2: {31}}
    got = reference.summary(rankings, qrels)
    # query 1: recall 1 at rank 1 and 2 (precision 1, 1/2) -> level 1.0 = 0.75
    # query 2: nothing relevant retrieved -> level 0.0 holds precision 0
    assert got["levels"][10] == 0.375
    assert got["levels"][0] == 0.0
    assert math.isclose(got["map"], 0.375 / 11)


def test_generator_is_seeded_and_qrels_lie_in_the_collection():
    a = gen.generate(gen.MED, 7)
    b = gen.generate(gen.MED, 7)
    c = gen.generate(gen.MED, 8)
    assert a.docs_smart == b.docs_smart and a.qrels_rel == b.qrels_rel
    assert a.docs_smart != c.docs_smart
    for relevant in a.qrels.values():
        assert relevant <= set(a.docs)
        assert len(relevant) % 20


def test_probe_meets_a_bucket_edge():
    col = gen.probe()
    ref = reference.Reference(col.docs)
    ranking = [d for d, _ in ref.rank(col.queries[1])]
    assert ranking == list(range(1, 51))
    # the third relevant doc is at rank 5: recall 3/20 opens level 0.2
    assert ranking.index(5) == 4 and reference.bucket(3, 20) == 2
