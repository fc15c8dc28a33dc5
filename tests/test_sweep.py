import json
import math
import os
import random
from decimal import Decimal

import pytest

from logbase_ir import sweep
from logbase_ir.collection_io import RawQuery
from logbase_ir.evaluation import EvalSummary, evaluate_rankings
from logbase_ir.index import build_index
from logbase_ir.retrieval import Ranker
from logbase_ir.sweep import (
    BaseGrid,
    SweepResult,
    best_standard_worst,
    emit_csv,
    emit_level_curves,
    emit_metric_curve,
    render_table,
    run_sweep,
    top_k_report,
)
from logbase_ir.textpipe import pipeline
from logbase_ir.weighting import WeightScheme

from oracle import random_corpus

TEXTS = {
    1: "red apple orchard apple",
    2: "green pear tree",
    3: "apple pie recipe",
    4: "tree house green",
    5: "red pie",
}
QUERIES = [RawQuery(1, "apple pie"), RawQuery(2, "green tree")]
QRELS = {1: {1, 3, 5}, 2: {2, 4}}
INDEX = build_index([(d, pipeline(t, frozenset())) for d, t in TEXTS.items()])


def toy_sweep(grid, **kwargs):
    kwargs.setdefault("stoplist", frozenset())
    return run_sweep(INDEX, QUERIES, QRELS, grid, **kwargs)


class TestBaseGrid:
    def test_default_grid_is_exactly_the_thousand_tenths(self):
        grid = BaseGrid.default()
        labels = grid.labels()
        assert len(labels) == 1000
        assert len(set(labels)) == 1000
        assert labels == [str(k * Decimal("0.1")) for k in range(1, 1001)]
        assert labels[0] == "0.1"
        assert labels[9] == "1.0"
        assert labels[-1] == "100.0"

    def test_parse(self):
        grid = BaseGrid.parse("9.9:10.1:0.1")
        assert grid.labels() == ["9.9", "10.0", "10.1"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            BaseGrid.parse("1:2")
        with pytest.raises(ValueError):
            BaseGrid.parse("a:b:c")

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            BaseGrid(Decimal("1"), Decimal("2"), Decimal("0"))
        with pytest.raises(ValueError):
            BaseGrid(Decimal("0"), Decimal("2"), Decimal("1"))
        with pytest.raises(ValueError):
            BaseGrid(Decimal("3"), Decimal("2"), Decimal("1"))

    def test_single(self):
        assert BaseGrid.single(Decimal("10")).labels() == ["10.0"]

    # each is rejected on construction; values() is never called on them, as
    # for the third it would append the same value without end
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1.00000000000000000001:1.00000000000000000001:1", "is 1.0 as a double"),
            ("0.99999999999999999:1.00000000000000001:0.00000000000000001",
             "is 1.0 as a double"),
            ("1e-400:1e-400:1", "is 0 as a double"),
            ("1e400:1e400:1", "infinite as a double"),
            ("1e300:1e300:1", "more than 28 significant digits"),
            ("2:2:1e-30", "more than 28 significant digits"),
            ("0.1:1e30:0.1", "more than 28 significant digits"),
            ("0.1:100000.1:0.1", "more than 1000000"),
            ("1:1:1", "no base but 1"),
            ("1:1.9:1", "no base but 1"),
        ],
    )
    def test_unusable_grids_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            BaseGrid.parse(spec)

    def test_grid_around_one_kept(self):
        assert BaseGrid.parse("0.5:1.5:0.5").labels() == ["0.5", "1.0", "1.5"]
        grid = BaseGrid.parse("0.9999999999999998:1.0000000000000004:0.0000000000000002")
        labels = grid.labels()
        assert [float(x) for x in labels] == [
            0.9999999999999998, 1.0, 1.0000000000000002, 1.0000000000000004
        ]


class TestRunSweep:
    def test_base_one_is_skipped_not_evaluated(self):
        result = toy_sweep(BaseGrid.parse("0.5:1.5:0.5"))
        assert [label for label, _ in result.skipped] == ["1.0"]
        assert result.skipped[0][1] == "invalid-base"
        assert sorted(result.per_base) == ["0.5", "1.5"]

    def test_grid_partition_invariant(self):
        grid = BaseGrid.parse("0.7:1.3:0.1")
        result = toy_sweep(grid)
        evaluated = set(result.per_base)
        skipped = {label for label, _ in result.skipped}
        assert evaluated | skipped == set(grid.labels())
        assert not (evaluated & skipped)

    def test_single_base_matches_direct_evaluation(self):
        result = toy_sweep(BaseGrid.single(Decimal("10")))
        assert list(result.per_base) == ["10.0"]
        summary = result.per_base["10.0"]
        assert isinstance(summary, EvalSummary)
        assert 0.0 <= summary.map <= 1.0

    def test_all_bases_agree_to_1e9(self):
        result = toy_sweep(BaseGrid.parse("0.2:30:1.1"))
        summaries = list(result.per_base.values())
        first = summaries[0]
        for other in summaries[1:]:
            assert other.map == pytest.approx(first.map, abs=1e-9)
            assert other.map_at_30 == pytest.approx(first.map_at_30, abs=1e-9)
            assert other.levels == pytest.approx(first.levels, abs=1e-9)

    def test_qrels_for_unknown_query_rejected(self):
        with pytest.raises(ValueError, match="unknown query ids"):
            run_sweep(INDEX, QUERIES, {9: {1}}, BaseGrid.single(Decimal("10")),
                      stoplist=frozenset())

    def test_empty_qrels_rejected(self):
        with pytest.raises(ValueError, match="no judged"):
            run_sweep(INDEX, QUERIES, {}, BaseGrid.single(Decimal("10")),
                      stoplist=frozenset())


def base_rankings(ranker, accumulators, norms, base):
    """Reference: every query's ranking at log base ``base``, scored and
    sorted afresh from the base-e ``ranker``'s accumulators and norms
    (log_b x = ln x / ln b rescales every weight by 1 / ln b)."""
    scale = 1.0 / math.log(base)
    return {qid: ranker.rank(qid, acc, norms, scale) for qid, acc in accumulators.items()}


def _base_e(index, tokens):
    """The sweep's base-e ranker, its accumulators and its norms of every
    document they reach."""
    ranker = Ranker(index, WeightScheme(math.e))
    accumulators = {qid: ranker.accumulate(t) for qid, t in tokens.items()}
    norms = ranker.doc_norms(set().union(*(dot for _, dot in accumulators.values())))
    return ranker, accumulators, norms


def criterion_4_corpora(count):
    """Random corpora drawn as acceptance criterion 4 draws its 50 (these
    first), as (index, query token lists)."""
    rng = random.Random(1234)
    for _ in range(count):
        docs, queries = random_corpus(rng, max_docs=10, max_terms=15, max_queries=5)
        rng.choice(TestRescaledRanking.BASES)  # criterion 4 draws its base here
        yield build_index(sorted(docs.items())), queries


def reference_sweep(index, tokens, qrels, grid, cutoffs):
    """Per cutoff, base label -> summary in grid order, with every base ranked
    afresh by ``base_rankings``; bases whose full rankings agree share an
    evaluation."""
    ranker, accumulators, norms = _base_e(index, tokens)
    orders, rankings = {}, {}
    for value in grid.values():
        if value != 1:
            ranked = base_rankings(ranker, accumulators, norms, float(value))
            order = orders[str(value)] = tuple(
                tuple(d for d, _ in rl.entries) for rl in ranked.values()
            )
            rankings.setdefault(order, ranked)
    want = {}
    for cutoff in cutoffs:
        summaries = {o: evaluate_rankings(r, qrels, cutoff)[0] for o, r in rankings.items()}
        want[cutoff] = {label: summaries[order] for label, order in orders.items()}
    return want


def assert_summaries_equal(got, want):
    """Equal by repr, labels in the same order; a failure names the first
    base that differs (a diff of the whole repr would take minutes)."""
    if repr(got) != repr(want):
        first = next((b for b in want if repr(got.get(b)) != repr(want[b])), "label order")
        pytest.fail(f"sweep summaries differ from the reference at base {first}")


class TestRescaledRanking:
    """The sweep's one base-e ranker, rescaled per base, against a Ranker
    built at each base."""

    BASES = (0.1, 0.3, 0.5, 2.0, 10.0, 32.6, 84.6, 100.0)

    def corpora(self):
        """The 50 corpora of acceptance criterion 4, drawn in the same order."""
        return criterion_4_corpora(50)

    def test_matches_per_base_ranker(self):
        rng = random.Random(5678)
        pairs = reordered = 0
        for index, queries in self.corpora():
            tokens = dict(enumerate(queries))
            qrels = {
                qid: set(rng.sample(range(1, index.n_docs + 1), k=min(3, index.n_docs)))
                for qid in tokens
            }
            # query text that the pipeline maps back to the same tokens
            raw = [RawQuery(qid, " ".join(t)) for qid, t in tokens.items()]
            assert all(pipeline(q.text, frozenset()) == tokens[q.query_id] for q in raw)
            ranker, accumulators, norms = _base_e(index, tokens)
            for base in self.BASES:
                reference = Ranker(index, WeightScheme(base))
                want = {qid: reference.rank_tokens(qid, t) for qid, t in tokens.items()}
                got = base_rankings(ranker, accumulators, norms, base)
                same_order = True
                for qid, rl in got.items():
                    pairs += 1
                    want_scores = dict(want[qid].entries)
                    assert set(dict(rl.entries)) == set(want_scores)
                    for doc_id, score in rl.entries:
                        assert abs(score - want_scores[doc_id]) <= 1e-12
                    position = {d: i for i, (d, _) in enumerate(want[qid].entries)}
                    order = [d for d, _ in rl.entries]
                    if order != [d for d, _ in want[qid].entries]:
                        reordered += 1
                        same_order = False
                    # a pair of docs may swap only where the reference scores tie
                    for i, x in enumerate(order):
                        for y in order[i + 1:]:
                            if position[x] > position[y]:
                                assert abs(want_scores[x] - want_scores[y]) <= 1e-12
                if not same_order:
                    continue
                swept = run_sweep(index, raw, qrels, BaseGrid.single(Decimal(str(base))),
                                  stoplist=frozenset())
                expected, _ = evaluate_rankings(want, qrels)
                (summary,) = swept.per_base.values()
                assert summary.levels == pytest.approx(expected.levels, abs=1e-12, rel=0)
                assert summary.map == pytest.approx(expected.map, abs=1e-12, rel=0)
                assert summary.map_at_30 == pytest.approx(expected.map_at_30, abs=1e-12, rel=0)
        # the summaries were compared on all but a few query/base pairs
        assert reordered < pairs / 10

    def test_unit_scale_is_rank_tokens_bit_for_bit(self):
        for index, queries in self.corpora():
            for base in self.BASES:
                ranker = Ranker(index, WeightScheme(base))
                for qid, tokens in enumerate(queries):
                    acc = ranker.accumulate(tokens)
                    got = ranker.rank(qid, acc, ranker.doc_norms(acc[1]), 1.0)
                    # repr tells -0.0 from 0.0, which == does not
                    assert repr(got) == repr(ranker.rank_tokens(qid, tokens))

    def test_each_base_gets_the_summary_of_its_own_rankings(self):
        rng = random.Random(5678)
        grid = BaseGrid.parse("0.1:2.0:0.1")
        varied = 0
        for index, queries in self.corpora():
            tokens = dict(enumerate(queries))
            qrels = {
                qid: set(rng.sample(range(1, index.n_docs + 1), k=min(3, index.n_docs)))
                for qid in tokens
            }
            raw = [RawQuery(qid, " ".join(t)) for qid, t in tokens.items()]
            swept = run_sweep(index, raw, qrels, grid, stoplist=frozenset())
            ranker, accumulators, norms = _base_e(index, tokens)
            for label, summary in swept.per_base.items():
                rankings = base_rankings(ranker, accumulators, norms, float(label))
                assert summary == evaluate_rankings(rankings, qrels)[0]
            varied += len(set(swept.per_base.values())) > 1
        # rounding breaks ties differently across bases in some corpora, so
        # the memo must tell their rankings apart
        assert varied > 0

    def test_norms_computed_once_per_sweep(self, monkeypatch):
        calls = []
        doc_norms = Ranker.doc_norms

        def recording(self, doc_ids):
            calls.append(set(doc_ids))
            return doc_norms(self, doc_ids)

        monkeypatch.setattr(Ranker, "doc_norms", recording)
        result = toy_sweep(BaseGrid.parse("0.5:5:0.5"))
        assert len(result.per_base) == 9
        tokens = {q.query_id: pipeline(q.text, frozenset()) for q in QUERIES}
        ranker = Ranker(INDEX, WeightScheme(math.e))
        reached = set().union(*(ranker.accumulate(t)[1] for t in tokens.values()))
        assert calls == [reached]

    def test_equal_rankings_are_evaluated_once(self, tmp_path, monkeypatch):
        grid = BaseGrid.parse("2:6:0.5")
        bases = [float(v) for v in grid.values()]
        tokens = {q.query_id: pipeline(q.text, frozenset()) for q in QUERIES}
        ranker, accumulators, norms = _base_e(INDEX, tokens)
        orders = {
            tuple(tuple(d for d, _ in rl.entries) for rl in
                  base_rankings(ranker, accumulators, norms, base).values())
            for base in bases
        }
        assert len(orders) == 1

        # every base evaluated on its own Ranker
        full = SweepResult("toy", grid)
        for value in grid.values():
            r = Ranker(INDEX, WeightScheme(float(value)))
            rankings = {qid: r.rank_tokens(qid, t) for qid, t in tokens.items()}
            full.per_base[str(value)], _ = evaluate_rankings(rankings, QRELS)

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate_rankings(*args, **kwargs)

        monkeypatch.setattr(sweep, "evaluate_rankings", counting)
        memoized = toy_sweep(grid)
        assert len(calls) == 1
        assert len(memoized.per_base) == len(bases)
        emit_csv(full, str(tmp_path / "full.csv"))
        emit_csv(memoized, str(tmp_path / "memo.csv"))
        assert (tmp_path / "memo.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


class TestPlan:
    """Rank once at base e, re-score only the fragile groups per base."""

    def test_default_grid_on_200_random_corpora(self):
        rng = random.Random(5678)
        grid = BaseGrid.default()
        varied = fragile = 0
        for index, queries in criterion_4_corpora(200):
            tokens = dict(enumerate(queries))
            qrels = {
                qid: set(rng.sample(range(1, index.n_docs + 1), k=min(3, index.n_docs)))
                for qid in tokens
            }
            raw = [RawQuery(qid, " ".join(t)) for qid, t in tokens.items()]
            want = reference_sweep(index, tokens, qrels, grid, (1000, 2))
            for cutoff in (1000, 2):
                swept = run_sweep(index, raw, qrels, grid, stoplist=frozenset(), cutoff=cutoff)
                assert_summaries_equal(swept.per_base, want[cutoff])
                varied += len(set(swept.per_base.values())) > 1
                fragile += swept.fragile_groups
        # some sweeps really differ between bases, through their fragile groups
        assert varied > 0
        assert fragile > 0

    def sweep_and_reference(self, texts, query, qrels, grid, **kwargs):
        index = build_index([(d, pipeline(t, frozenset())) for d, t in texts.items()])
        swept = run_sweep(index, [RawQuery(1, query)], qrels, grid, stoplist=frozenset(),
                          **kwargs)
        tokens = {1: pipeline(query, frozenset())}
        cutoff = kwargs.get("cutoff", 1000)
        return swept, reference_sweep(index, tokens, qrels, grid, (cutoff,))[cutoff]

    # docs 1 and 2 have the same cosine with the query, rounded differently
    NEAR_TIE = {1: "x y", 2: "x y x y x y", 3: "z", 4: "z", 5: "z w"}

    def test_fragile_group_changes_order_between_bases(self):
        swept, want = self.sweep_and_reference(self.NEAR_TIE, "x y", {1: {2}}, BaseGrid.default())
        assert_summaries_equal(swept.per_base, want)
        assert swept.fragile_groups == 1
        assert swept.distinct_rankings == len(set(want.values())) == 2

    def test_fragile_group_from_the_cutoff_on_is_not_rescored(self):
        # doc 1 ranks first at every base; docs 2 and 3 tie as docs 1 and 2 of
        # NEAR_TIE do, at ranks 2 and 3
        texts = {1: "x y", 2: "x y z", 3: "x y z x y z x y z", 4: "z", 5: "z w", 6: "w"}
        for cutoff, fragile in ((1, 0), (2, 1)):
            swept, want = self.sweep_and_reference(texts, "x y", {1: {3}}, BaseGrid.default(),
                                                   cutoff=cutoff)
            assert_summaries_equal(swept.per_base, want)
            assert swept.fragile_groups == fragile
            assert swept.distinct_rankings == len(set(want.values())) == 1 + fragile

    def test_zero_scores_and_exact_ties_are_fixed(self):
        texts = {
            1: "common apple",
            2: "common apple",  # an exact tie with doc 1
            3: "common pear",  # score 0, like docs 4 and 5 with other norms
            4: "common pear pear plum",
            5: "common",
            6: "plum",
        }
        swept, want = self.sweep_and_reference(texts, "common apple", {1: {2, 4}},
                                               BaseGrid.default())
        assert_summaries_equal(swept.per_base, want)
        assert swept.fragile_groups == 0
        assert swept.distinct_rankings == 1

    def test_bases_outside_the_safe_range_rescore_everything(self, monkeypatch):
        # a range that only some scales keep their products inside
        monkeypatch.setattr(sweep, "_SAFE_RANGE", (0.05, 20.0))
        texts = {**self.NEAR_TIE, 6: "x z", 7: "y y w"}
        swept, want = self.sweep_and_reference(texts, "x y w", {1: {2, 6}}, BaseGrid.default())
        assert_summaries_equal(swept.per_base, want)

    def test_one_rescore_per_fragile_group_and_base(self, monkeypatch):
        calls = []
        rank = Ranker.rank

        def recording(self, query_id, acc, norms, scale=1.0):
            calls.append(sorted(acc[1]))
            return rank(self, query_id, acc, norms, scale)

        monkeypatch.setattr(Ranker, "rank", recording)
        grid = BaseGrid.parse("2:6:0.5")
        swept, _ = self.sweep_and_reference(self.NEAR_TIE, "x y", {1: {2}}, grid)
        # one base-e ranking of both candidates, then the pair per base
        # (the reference's calls come after the sweep's)
        n = len(grid.values())
        assert calls[: 1 + n] == [[1, 2]] * (1 + n)


class TestCache:
    def test_resume_uses_cached_entries(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        grid = BaseGrid.parse("2:4:1")
        first = toy_sweep(grid, cache_path=str(cache))
        assert cache.exists()
        lines_after_first = cache.read_text().count("\n")
        second = toy_sweep(grid, cache_path=str(cache))
        assert second.per_base == first.per_base
        # everything was cached, nothing re-appended
        assert cache.read_text().count("\n") == lines_after_first

    def test_partial_cache_completes(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        grid = BaseGrid.parse("2.0:4.0:1.0")
        full = toy_sweep(grid)
        toy_sweep(BaseGrid.single(Decimal("2")), cache_path=str(cache))
        assert "2.0" in cache.read_text()
        resumed = toy_sweep(grid, cache_path=str(cache))
        assert resumed.per_base == full.per_base

    def test_cache_keyed_by_inputs(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        grid = BaseGrid.single(Decimal("2"))
        toy_sweep(grid, cache_path=str(cache))
        # different cutoff changes the digest, so the entry must not be reused
        different = toy_sweep(grid, cutoff=2, cache_path=str(cache))
        fresh = toy_sweep(grid, cutoff=2)
        assert different.per_base == fresh.per_base

    def test_corrupt_cache_line_ignored(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("{not json\n")
        grid = BaseGrid.single(Decimal("2"))
        result = toy_sweep(grid, cache_path=str(cache))
        assert list(result.per_base) == ["2.0"]


    def cached_line(self, tmp_path, **changes):
        """A valid cache line of the toy sweep at base 2, with ``changes``
        applied (a value of None deletes the key)."""
        cache = tmp_path / "first.jsonl"
        toy_sweep(BaseGrid.single(Decimal("2")), cache_path=str(cache))
        entry = json.loads(cache.read_text())
        for key, value in changes.items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
        return json.dumps(entry)

    @pytest.mark.parametrize(
        "changes",
        [
            {"map": None},
            {"levels": None},
            {"base": None},
            {"map": "0.5"},
            {"map_at_30": True},
            {"levels": [0.5] * 10},
            {"levels": "0.5"},
            {"base": 2.0},
        ],
        ids=["no-map", "no-levels", "no-base", "map-string", "map30-bool", "ten-levels",
             "levels-string", "base-number"],
    )
    def test_ill_typed_entry_is_recomputed(self, tmp_path, changes):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.cached_line(tmp_path, **changes) + "\n")
        grid = BaseGrid.single(Decimal("2"))
        assert toy_sweep(grid, cache_path=str(cache)).per_base == toy_sweep(grid).per_base
        # the bad line is gone and the recomputed one appended
        assert cache.read_text() == (tmp_path / "first.jsonl").read_text()

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null", "\udcff"],
                             ids=["list", "string", "number", "null", "not-utf8"])
    def test_non_object_line_is_skipped(self, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(line.encode("utf-8", "surrogateescape") + b"\n")
        grid = BaseGrid.single(Decimal("2"))
        assert toy_sweep(grid, cache_path=str(cache)).per_base == toy_sweep(grid).per_base

    def test_load_compacts_stale_and_torn_lines(self, tmp_path):
        good = self.cached_line(tmp_path)
        stale = self.cached_line(tmp_path, digest="0" * 64)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(f"{stale}\n{good}\n\n{good}\n{good[:20]}")
        grid = BaseGrid.single(Decimal("2"))
        result = toy_sweep(grid, cache_path=str(cache))
        assert result.ranked_bases == 0  # base 2 came from the cache
        assert cache.read_text() == good + "\n"

    def test_line_without_newline_is_completed(self, tmp_path):
        good = self.cached_line(tmp_path)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(good)
        toy_sweep(BaseGrid.parse("2.0:3.0:1.0"), cache_path=str(cache))
        lines = cache.read_text().splitlines()
        assert lines[0] == good
        assert [json.loads(x)["base"] for x in lines] == ["2.0", "3.0"]

    def test_valid_cache_is_not_rewritten(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        grid = BaseGrid.parse("2:4:1")
        toy_sweep(grid, cache_path=str(cache))
        writes = []
        monkeypatch.setattr(sweep, "write_atomic", lambda *args: writes.append(args))
        toy_sweep(grid, cache_path=str(cache))
        assert writes == []


@pytest.fixture(scope="module")
def report_result():
    return toy_sweep(BaseGrid.parse("5:10:2.5"))


class TestReports:

    def test_top_k_ties_go_to_smaller_bases(self, report_result):
        rows = top_k_report(report_result, "map", 2)
        assert [r.base for r in rows] == ["5.0", "7.5"]

    def test_top_k_beyond_size_returns_all(self, report_result):
        assert len(top_k_report(report_result, "map", 99)) == 3

    def test_top_k_rejects_bad_args(self, report_result):
        with pytest.raises(ValueError):
            top_k_report(report_result, "map", 0)
        with pytest.raises(ValueError):
            top_k_report(report_result, "ndcg", 1)

    def test_best_standard_worst_rows(self, report_result):
        best, standard, worst = best_standard_worst(report_result, "map_at_30")
        assert Decimal(standard.base) == 10
        assert best.base == "5.0"  # all equal, tie to smallest
        assert worst.base == "5.0"
        assert best.map_at_30 == pytest.approx(worst.map_at_30, abs=1e-9)

    def test_best_standard_worst_requires_base_ten(self):
        result = toy_sweep(BaseGrid.parse("2:4:1"))
        with pytest.raises(ValueError, match="base 10"):
            best_standard_worst(result, "map")

    def test_consistency_with_top_one(self, report_result):
        assert top_k_report(report_result, "map", 1)[0].base == best_standard_worst(report_result, "map")[0].base

    def test_render_table_shape(self, report_result):
        text = render_table(top_k_report(report_result, "map", 3), "map")
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["LOG"] + [f"{k / 10:.1f}" for k in range(11)] + ["MAP"]
        assert render_table(top_k_report(report_result, "map_at_30", 1), "map_at_30").count("MAP@30") == 1


class TestEmission:
    def test_csv_shape_and_determinism(self, tmp_path):
        result = toy_sweep(BaseGrid.parse("0.8:1.2:0.1"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, str(p1))
        emit_csv(result, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0].startswith("base,level_0.0,")
        assert lines[0].endswith("map,map_at_30")
        assert len(lines) == 1 + 4  # header + evaluated bases (1.0 skipped)
        assert [l.split(",")[0] for l in lines[1:]] == ["0.8", "0.9", "1.1", "1.2"]

    def test_empty_result_gives_header_only(self, tmp_path):
        empty = SweepResult("toy", BaseGrid.default())
        path = tmp_path / "empty.csv"
        emit_csv(empty, str(path))
        assert path.read_text().splitlines() == [
            "base,level_0.0,level_0.1,level_0.2,level_0.3,level_0.4,level_0.5,"
            "level_0.6,level_0.7,level_0.8,level_0.9,level_1.0,map,map_at_30"
        ]

    def test_metric_curve(self, tmp_path):
        result = toy_sweep(BaseGrid.parse("2:3:1"))
        path = tmp_path / "curve.csv"
        emit_metric_curve(result, "map", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "base,map"
        assert len(lines) == 3

    def test_level_curves(self, tmp_path):
        result = toy_sweep(BaseGrid.parse("2:3:1"))
        path = tmp_path / "levels.csv"
        emit_level_curves(result, ["2", "3"], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(l.split(",")) == 12 for l in lines)

    def test_interrupted_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        path.write_text("old report\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            emit_csv(toy_sweep(BaseGrid.parse("2:3:1")), str(path))
        assert path.read_text() == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_unwritable_path_raises_with_context(self, tmp_path):
        result = toy_sweep(BaseGrid.parse("2:3:1"))
        bad = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(result, str(bad))


class TestDefaultGridRun:
    def test_thousand_grid_on_toy_corpus(self):
        result = toy_sweep(None)
        assert len(result.per_base) == 999
        assert [label for label, _ in result.skipped] == ["1.0"]
        maps = {s.map for s in result.per_base.values()}
        assert max(maps) - min(maps) < 1e-9
