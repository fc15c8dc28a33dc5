from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logbase_ir.evaluation import (
    RECALL_LEVELS,
    average_over_queries,
    bucket_index,
    evaluate_rankings,
    map11,
    map_at_30,
    pr_curve,
    summarize,
)
from logbase_ir.retrieval import RankedList

import oracle
from oracle import PRPoint

# Precisions at the 11 fixed recall levels for the worked bucketing example;
# the two summary metrics over it are 0.444 and 0.658.
WORKED_LEVELS = (0.867, 0.675, 0.570, 0.520, 0.500, 0.420, 0.350, 0.340, 0.330, 0.313, 0.000)


def ranked(*doc_ids):
    return RankedList(1, tuple((d, 1.0 / (i + 1)) for i, d in enumerate(doc_ids)))


def assert_matches_oracle(rankings, qrels, cutoff=100):
    """evaluate_rankings equals the per-rank point model, by repr."""
    entries = {q: rl.entries for q, rl in rankings.items()}
    summary, diagnostics = evaluate_rankings(rankings, qrels, cutoff)
    got = (summary.levels, summary.map, summary.map_at_30, diagnostics)
    assert repr(got) == repr(oracle.evaluate(entries, qrels, cutoff))


def flat(levels):
    """The precisions of a pr_curve in rank order: recall never falls."""
    return [p for bucket in levels for p in bucket]


class TestPrCurve:
    def test_hit_miss_hit_with_six_relevant(self):
        levels = pr_curve(ranked(10, 20, 30), relevant={10, 30, 40, 50, 60, 70}, cutoff=10)
        # recall 1/6 at ranks 1-2 is level 0.2, recall 2/6 at rank 3 is level 0.3
        assert levels == [[], [], [1.0, 0.5], [pytest.approx(2 / 3)]] + [[]] * 7

    def test_all_relevant_prefix(self):
        levels = pr_curve(ranked(1, 2, 3), relevant={1, 2, 3}, cutoff=10)
        # recalls 1/3, 2/3 and 1 at precision 1
        assert levels == [[], [], [], [1.0], [], [], [], [1.0], [], [], [1.0]]

    def test_no_relevant_retrieved(self):
        levels = pr_curve(ranked(1, 2), relevant={9}, cutoff=10)
        # ranks before the first hit have recall 0: level 0.0
        assert levels == [[0.0, 0.0]] + [[]] * 10

    def test_cutoff_truncates(self):
        levels = pr_curve(ranked(1, 2, 3, 4), relevant={4}, cutoff=2)
        assert levels == [[0.0, 0.0]] + [[]] * 10

    def test_no_points(self):
        # an empty ranking leaves every bucket empty: each level scores 0.0
        empty = RankedList(1, ())
        assert pr_curve(empty, {1}) == [[] for _ in range(11)]
        summary, diagnostics = evaluate_rankings({1: empty}, {1: {1}})
        assert summary.levels == tuple([0.0] * 11)
        assert diagnostics == [(1, level) for level in range(11)]

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="empty relevant"):
            pr_curve(ranked(1), relevant=set(), cutoff=10)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            pr_curve(ranked(1), relevant={1}, cutoff=0)

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=40, unique=True),
        st.sets(st.integers(1, 50), min_size=1, max_size=20),
    )
    def test_recall_monotone_and_bounded(self, doc_ids, relevant):
        levels = pr_curve(ranked(*doc_ids), relevant, cutoff=100)
        assert all(0.0 <= p <= 1.0 for p in flat(levels))
        assert len(flat(levels)) == len(doc_ids)
        # the same precisions and levels as one point per rank, whose recall
        # never falls and stays in [0, 1]
        points = oracle.pr_points(ranked(*doc_ids).entries, relevant, 100)
        assert levels == oracle.bucketize(points)
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)
        assert all(0 <= r <= 1 for r in recalls)


class TestBucketing:
    def test_low_recall_points_average_into_level_zero(self):
        points = [PRPoint(1, 0.02, 1.0), PRPoint(2, 0.04, 0.8)]
        levels = oracle.bucket_to_levels(points)
        assert levels[0] == pytest.approx(0.9)
        assert levels[1:] == tuple([0.0] * 10)
        # a hit then a miss at recall 1/50 both land in level 0.0
        relevant = {1, *range(100, 149)}
        assert pr_curve(ranked(1, 2), relevant) == [[1.0, 0.5]] + [[]] * 10
        summary, _ = evaluate_rankings({1: ranked(1, 2)}, {1: relevant})
        assert summary.levels == (0.75,) + tuple([0.0] * 10)
        assert_matches_oracle({1: ranked(1, 2)}, {1: relevant})

    def test_single_point_mid_level(self):
        levels = oracle.bucket_to_levels([PRPoint(1, 0.5, 0.42)])
        assert levels[5] == pytest.approx(0.42)
        # one hit of two relevant at rank 1: recall 0.5, level 0.5
        assert pr_curve(ranked(1), {1, 2}) == [[]] * 5 + [[1.0]] + [[]] * 5

    def test_worked_average_example(self):
        # one point per populated level reproduces the worked table exactly;
        # level 1.0 stays empty and scores 0.0
        points = [
            PRPoint(i + 1, level, precision)
            for i, (level, precision) in enumerate(zip(RECALL_LEVELS, WORKED_LEVELS))
            if level < 1.0
        ]
        levels = oracle.bucket_to_levels(points)
        assert levels == pytest.approx(WORKED_LEVELS)
        assert [i for i, bucket in enumerate(oracle.bucketize(points)) if not bucket] == [10]

    def test_boundary_membership_is_half_open(self):
        # a recall exactly on an edge belongs to the level above
        assert bucket_index(0.05) == 1
        assert bucket_index(0.25) == 3
        assert bucket_index(0.75) == 8
        assert bucket_index(0.0) == 0
        assert bucket_index(1.0) == 10

    def test_partition_scan_matches_exact_rule(self):
        # scan recalls 0.000 .. 1.000 in 0.001 steps; the bucket of the double
        # k/1000 must equal exact rational membership of k/1000 itself in
        # [L/10 - 1/20, L/10 + 1/20)
        edges = [Fraction(2 * k + 1, 20) for k in range(10)]
        for k in range(1001):
            recall = k / 1000
            want = sum(1 for e in edges if e <= Fraction(k, 1000))
            assert bucket_index(recall) == want, recall

    def test_recall_on_edge_without_exact_double_goes_up(self):
        # 3 hits of 20 relevant is recall 3/20 = 0.15, on the 0.1/0.2 edge;
        # the double 3/20 lies just below 0.15 but must still land in 0.2
        ranked = RankedList(1, tuple((d, 1.0 / d) for d in range(1, 4)))
        assert bucket_index(3 / 20) == 2
        levels = pr_curve(ranked, set(range(1, 21)))
        assert levels[2] == [1.0]
        summary, _ = evaluate_rankings({1: ranked}, {1: set(range(1, 21))})
        assert summary.levels[2] == 1.0
        assert_matches_oracle({1: ranked}, {1: set(range(1, 21))})

    def test_hits_over_relevant_scan_matches_exact_rule(self):
        # every recall h/R a ranking can produce lands in level
        # floor((h/R) * 10 + 1/2), capped at 10
        for r in range(1, 201):
            for h in range(r + 1):
                assert bucket_index(h / r) == min(10, (20 * h + r) // (2 * r)), (h, r)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_every_recall_lands_in_exactly_one_bucket(self, recall):
        level = bucket_index(recall)
        assert 0 <= level <= 10
        buckets = [[] for _ in range(11)]
        buckets[level].append(recall)
        assert sum(len(b) for b in buckets) == 1


class TestAveraging:
    def test_single_query_identity(self):
        assert average_over_queries([WORKED_LEVELS]) == pytest.approx(WORKED_LEVELS)

    def test_two_query_mean(self):
        ones = tuple([1.0] * 11)
        zeros = tuple([0.0] * 11)
        assert average_over_queries([ones, zeros]) == pytest.approx(tuple([0.5] * 11))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_over_queries([])


class TestSummaryMetrics:
    def test_worked_values(self):
        assert map11(WORKED_LEVELS) == pytest.approx(0.444, abs=0.0005)
        assert map_at_30(WORKED_LEVELS) == pytest.approx(0.658, abs=0.0005)

    def test_constant_levels(self):
        assert map11(tuple([1.0] * 11)) == pytest.approx(1.0)
        assert map11(tuple([0.0] * 11)) == 0.0
        assert map_at_30(tuple([0.3] * 11)) == pytest.approx(0.3)

    def test_map_at_30_prefix(self):
        assert map_at_30((1.0, 1.0, 1.0, 0.0) + tuple([0.0] * 7)) == pytest.approx(0.75)

    levels_strategy = st.tuples(*[st.floats(0, 1) for _ in range(11)])

    @given(levels_strategy)
    def test_means_within_bounds(self, levels):
        assert min(levels) - 1e-12 <= map11(levels) <= max(levels) + 1e-12
        head = levels[:4]
        assert min(head) - 1e-12 <= map_at_30(levels) <= max(head) + 1e-12

    @given(levels_strategy, st.tuples(*[st.floats(0, 1) for _ in range(7)]))
    def test_map_at_30_ignores_tail_levels(self, levels, tail):
        assert map_at_30(levels) == map_at_30(levels[:4] + tail)


class TestSpreadsheetCrossCheck:
    """Five hand-built rankings checked against explicit fraction arithmetic."""

    def check(self, ranking, relevant, expected_by_level):
        summary, _ = evaluate_rankings({1: ranking}, {1: relevant}, cutoff=100)
        levels = summary.levels
        expected = [float(expected_by_level.get(i, 0)) for i in range(11)]
        assert levels == pytest.approx(expected, abs=1e-12)
        pr_levels = pr_curve(ranking, relevant, cutoff=100)
        assert [i for i, bucket in enumerate(pr_levels) if bucket] == sorted(expected_by_level)
        assert_matches_oracle({1: ranking}, {1: relevant})
        want_map = float(sum(Fraction(v) for v in expected_by_level.values()) / 11)
        assert map11(levels) == pytest.approx(want_map, abs=1e-12)

    def test_hit_miss_hit(self):
        # hits at ranks 1 and 3 out of six relevant: recalls 1/6, 1/6, 1/3
        self.check(
            ranked_list(["R", "N", "R"]),
            relevant={0, 2, 100, 101, 102, 103},
            expected_by_level={
                2: Fraction(1, 1) / 2 + Fraction(1, 2) / 2,  # mean(1, 1/2)
                3: Fraction(2, 3),
            },
        )

    def test_perfect_single(self):
        self.check(
            ranked_list([("R")]),
            relevant={0},
            expected_by_level={10: Fraction(1)},
        )

    def test_late_hits(self):
        # N N R N R with two relevant: recalls 0,0,1/2,1/2,1
        self.check(
            ranked_list(["N", "N", "R", "N", "R"]),
            relevant={2, 4},
            expected_by_level={
                0: Fraction(0),
                5: (Fraction(1, 3) + Fraction(1, 4)) / 2,
                10: Fraction(2, 5),
            },
        )

    def test_all_relevant_block(self):
        # R R R R with four relevant: recalls 1/4, 1/2, 3/4, 1, precision 1
        self.check(
            ranked_list(["R", "R", "R", "R"]),
            relevant={0, 1, 2, 3},
            expected_by_level={3: Fraction(1), 5: Fraction(1), 8: Fraction(1), 10: Fraction(1)},
        )

    def test_long_gap(self):
        # R then eight misses then R with two relevant
        precisions = [Fraction(1, r) for r in range(1, 10)]
        self.check(
            ranked_list(["R", "N", "N", "N", "N", "N", "N", "N", "N", "R"]),
            relevant={0, 9},
            expected_by_level={
                5: sum(precisions) / 9,
                10: Fraction(2, 10),
            },
        )


def ranked_list(pattern):
    # doc ids are positions; relevance is decided by the caller's relevant set
    return RankedList(1, tuple((i, 1.0 / (i + 1)) for i in range(len(pattern))))


class TestEvaluateRankings:
    @pytest.fixture
    def rankings(self):
        return {
            1: RankedList(1, ((10, 0.9), (11, 0.8), (12, 0.7))),
            2: RankedList(2, ((20, 0.9), (21, 0.8))),
        }

    def test_per_query_average(self, rankings):
        qrels = {1: {10, 11, 12}, 2: {20, 21}}
        summary, diagnostics = evaluate_rankings(rankings, qrels)
        per_query = [
            oracle.bucket_to_levels(oracle.pr_points(rankings[1].entries, qrels[1], 1000)),
            oracle.bucket_to_levels(oracle.pr_points(rankings[2].entries, qrels[2], 1000)),
        ]
        assert summary.levels == pytest.approx(average_over_queries(per_query))
        assert summary.map == pytest.approx(map11(summary.levels))
        assert summary.map_at_30 == pytest.approx(map_at_30(summary.levels))
        assert all(qid in (1, 2) for qid, _ in diagnostics)

    def test_missing_ranking_rejected(self, rankings):
        with pytest.raises(ValueError, match="no ranking"):
            evaluate_rankings(rankings, {1: {10}, 3: {30}})

    def test_empty_qrels_rejected(self, rankings):
        with pytest.raises(ValueError, match="no judged"):
            evaluate_rankings(rankings, {})

    def test_summarize_consistency(self):
        summary = summarize(WORKED_LEVELS)
        assert summary.map == pytest.approx(map11(WORKED_LEVELS))
        assert summary.map_at_30 == pytest.approx(map_at_30(WORKED_LEVELS))


@st.composite
def judged_rankings(draw):
    """Rankings of 1-4 queries, their relevant sets and a cutoff.

    Relevant sets reach 40 documents, so recalls h/20 and h/40 fall exactly
    on level edges; some relevant documents are never retrieved.
    """
    query_ids = draw(st.sets(st.integers(1, 9), min_size=1, max_size=4))
    rankings, qrels = {}, {}
    for q in sorted(query_ids):
        doc_ids = draw(st.lists(st.integers(1, 60), max_size=45, unique=True))
        rankings[q] = RankedList(q, tuple((d, 1.0 / (i + 1)) for i, d in enumerate(doc_ids)))
        qrels[q] = draw(st.sets(st.integers(1, 60), min_size=1, max_size=40))
    return rankings, qrels, draw(st.integers(1, 50))


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(judged_rankings())
    def test_every_mode_matches_the_point_model(self, drawn):
        rankings, qrels, cutoff = drawn
        assert_matches_oracle(rankings, qrels, cutoff)

    def test_ranking_with_unjudged_query(self):
        # a ranking without judgments is not evaluated at all
        rankings = {1: ranked(1, 2), 2: RankedList(2, ((3, 1.0),))}
        assert_matches_oracle(rankings, {1: {2}})
