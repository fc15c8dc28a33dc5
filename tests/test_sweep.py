import json
import math
import os
import random
from decimal import Decimal

import pytest

from logbase_ir import index as index_mod, sweep
from logbase_ir.evaluation import EvalSummary, evaluate_rankings
from logbase_ir.index import build_index
from logbase_ir.retrieval import Ranker
from logbase_ir.sweep import (
    DEFAULT_GRID,
    SweepResult,
    best_standard_worst,
    emit_csv,
    emit_level_curves,
    emit_metric_curve,
    grid_labels,
    render_table,
    run_sweep,
    top_k_report,
)
from logbase_ir.textpipe import pipeline
from logbase_ir.weighting import WeightScheme

from conftest import count_passes
from oracle import random_corpus

TEXTS = {
    1: "red apple orchard apple",
    2: "green pear tree",
    3: "apple pie recipe",
    4: "tree house green",
    5: "red pie",
}
QUERIES = {1: pipeline("apple pie", frozenset()), 2: pipeline("green tree", frozenset())}
QRELS = {1: {1, 3, 5}, 2: {2, 4}}
INDEX = build_index([(d, pipeline(t, frozenset())) for d, t in TEXTS.items()])


# what the toy sweep was given, as the CLI describes a sweep's inputs
TOY_INPUTS = {"docs": "toy", "queries": "toy", "qrels": "toy"}


def toy_sweep(labels, cache_path=None, **kwargs):
    cache = None if cache_path is None else (cache_path, TOY_INPUTS)
    return run_sweep(INDEX, QUERIES, QRELS, labels, cache=cache, **kwargs)


class TestBaseGrid:
    def test_default_grid_is_exactly_the_thousand_tenths(self):
        labels = grid_labels(DEFAULT_GRID)
        assert len(labels) == 1000
        assert len(set(labels)) == 1000
        assert labels == [str(k * Decimal("0.1")) for k in range(1, 1001)]
        assert labels[0] == "0.1"
        assert labels[9] == "1.0"
        assert labels[-1] == "100.0"

    def test_parse(self):
        assert grid_labels("9.9:10.1:0.1") == ["9.9", "10.0", "10.1"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="^grid spec must be START:STOP:STEP, got '1:2'$"):
            grid_labels("1:2")
        with pytest.raises(ValueError, match="^non-numeric grid spec 'a:b:c'$"):
            grid_labels("a:b:c")

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError, match="^grid step must be positive, got 0$"):
            grid_labels("1:2:0")
        with pytest.raises(ValueError, match="^grid start must be positive, got 0$"):
            grid_labels("0:2:1")
        with pytest.raises(ValueError, match="^grid stop 2 below start 3$"):
            grid_labels("3:2:1")

    def test_single(self):
        # a one-value grid keeps its Decimal label; one --base enters a
        # sweep as the label eval writes, str(float), and is no grid
        assert grid_labels("10.0:10.0:1") == ["10.0"]
        assert list(toy_sweep([str(WeightScheme(10.0).base)]).per_base) == ["10.0"]

    # each is rejected on construction; the third's values were once
    # appended without end
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
            grid_labels(spec)

    def test_grid_around_one_kept(self):
        assert grid_labels("0.5:1.5:0.5") == ["0.5", "1.0", "1.5"]
        labels = grid_labels("0.9999999999999998:1.0000000000000004:0.0000000000000002")
        assert [float(x) for x in labels] == [
            0.9999999999999998, 1.0, 1.0000000000000002, 1.0000000000000004
        ]


class TestRunSweep:
    def test_base_one_is_skipped_not_evaluated(self):
        result = toy_sweep(grid_labels("0.5:1.5:0.5"))
        assert result.skipped == ["1.0"]
        assert sorted(result.per_base) == ["0.5", "1.5"]

    def test_grid_partition_invariant(self):
        labels = grid_labels("0.7:1.3:0.1")
        result = toy_sweep(labels)
        evaluated = set(result.per_base)
        skipped = set(result.skipped)
        assert evaluated | skipped == set(labels)
        assert not (evaluated & skipped)

    def test_single_base_matches_direct_evaluation(self):
        result = toy_sweep(["10.0"])
        assert list(result.per_base) == ["10.0"]
        summary = result.per_base["10.0"]
        assert isinstance(summary, EvalSummary)
        assert 0.0 <= summary.map <= 1.0

    def test_all_bases_agree_to_1e9(self):
        result = toy_sweep(grid_labels("0.2:30:1.1"))
        summaries = list(result.per_base.values())
        first = summaries[0]
        for other in summaries[1:]:
            assert other.map == pytest.approx(first.map, abs=1e-9)
            assert other.map_at_30 == pytest.approx(first.map_at_30, abs=1e-9)
            assert other.levels == pytest.approx(first.levels, abs=1e-9)

    def test_qrels_for_unknown_query_rejected(self):
        with pytest.raises(ValueError, match="no ranking for judged queries"):
            run_sweep(INDEX, QUERIES, {9: {1}}, ["10.0"])

    def test_empty_qrels_rejected(self):
        with pytest.raises(ValueError, match="no judged"):
            run_sweep(INDEX, QUERIES, {}, ["10.0"])


def rescaled_rankings(ranker, accumulators):
    """Every query's ranking at any log base, scored and sorted afresh from
    the base-e ``ranker``'s accumulators and the index's norms (log_b x =
    ln x / ln b rescales every weight by 1 / ln b, which cosine cancels)."""
    return {qid: ranker.rank(qid, acc) for qid, acc in accumulators.items()}


def base_rankings(index, tokens, base):
    """Reference: every query's ranking at log base ``base`` as ``eval``
    ranks it, by ``rank_tokens`` of a Ranker built at that base."""
    ranker = Ranker(index, WeightScheme(base))
    return {qid: ranker.rank_tokens(qid, t) for qid, t in tokens.items()}


def _base_e(index, tokens):
    """A base-e ranker and its accumulators."""
    ranker = Ranker(index, WeightScheme(math.e))
    return ranker, {qid: ranker.accumulate(t) for qid, t in tokens.items()}


def criterion_4_corpora(count):
    """Random corpora drawn as acceptance criterion 4 draws its 50 (these
    first), as (index, query token lists)."""
    rng = random.Random(1234)
    for _ in range(count):
        docs, queries = random_corpus(rng, max_docs=10, max_terms=15, max_queries=5)
        rng.choice(TestRescaledRanking.BASES)  # criterion 4 draws its base here
        yield build_index(sorted(docs.items())), queries


def reference_sweep(index, tokens, qrels, labels, cutoffs):
    """Per cutoff, base label -> summary in label order, with every base
    but 1.0 ranked afresh by ``base_rankings``; bases whose full rankings
    agree share an evaluation."""
    orders, rankings = {}, {}
    for label in labels:
        if float(label) != 1.0:
            ranked = base_rankings(index, tokens, float(label))
            order = orders[label] = tuple(
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
    """The base-e scores rescaled per base, and the sweep, against a Ranker
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
            ranker, accumulators = _base_e(index, tokens)
            for base in self.BASES:
                reference = Ranker(index, WeightScheme(base))
                want = {qid: reference.rank_tokens(qid, t) for qid, t in tokens.items()}
                got = rescaled_rankings(ranker, accumulators)
                for qid, rl in got.items():
                    pairs += 1
                    want_scores = dict(want[qid].entries)
                    assert set(dict(rl.entries)) == set(want_scores)
                    for doc_id, score in rl.entries:
                        assert abs(score - want_scores[doc_id]) <= 1e-12
                    position = {d: i for i, (d, _) in enumerate(want[qid].entries)}
                    order = [d for d, _ in rl.entries]
                    reordered += order != [d for d, _ in want[qid].entries]
                    # a pair of docs may swap only where the reference scores tie
                    for i, x in enumerate(order):
                        for y in order[i + 1:]:
                            if position[x] > position[y]:
                                assert abs(want_scores[x] - want_scores[y]) <= 1e-12
                # the sweep ranks as eval does, near ties included
                swept = run_sweep(index, tokens, qrels, [str(base)])
                assert list(swept.per_base.values()) == [evaluate_rankings(want, qrels)[0]]
        # the rescaled order alone differs from the reference's on a few pairs
        assert 0 < reordered < pairs / 10

    def test_unit_scale_is_rank_tokens_bit_for_bit(self):
        for index, queries in self.corpora():
            ranker = Ranker(index, WeightScheme(math.e))
            for qid, tokens in enumerate(queries):
                acc = ranker.accumulate(tokens)
                query_norm, dot = acc
                got = ranker.rank(qid, acc)
                # the scores are the base-e cosines
                for doc_id, score in got.entries:
                    denom = query_norm * index.norms[doc_id]
                    assert repr(score) == repr(dot[doc_id] / denom if denom != 0.0 else 0.0)
                # repr tells -0.0 from 0.0, which == does not
                assert repr(got) == repr(ranker.rank_tokens(qid, tokens))

    def test_unsettled_scores_are_the_base_e_ones_at_every_base(self, monkeypatch):
        settled_positions = set()
        settle = Ranker.settle

        def recording(self, query_tokens, rankings, groups):
            settled_positions.update(p for spans in groups.values() for start, stop in spans
                                     for p in range(start, stop))
            return settle(self, query_tokens, rankings, groups)

        monkeypatch.setattr(Ranker, "settle", recording)
        unsettled = 0
        for index, queries in self.corpora():
            base_e = Ranker(index, WeightScheme(math.e))
            for base in self.BASES:
                ranker = Ranker(index, WeightScheme(base))
                for qid, tokens in enumerate(queries):
                    want = base_e.rank(qid, base_e.accumulate(tokens)).entries
                    settled_positions.clear()
                    got = ranker.rank_tokens(qid, tokens).entries
                    assert len(got) == len(want)
                    for position, (entry, base_e_entry) in enumerate(zip(got, want)):
                        if position not in settled_positions:
                            # repr shows every bit of a double
                            assert repr(entry) == repr(base_e_entry)
                            unsettled += 1
        assert unsettled > 0

    def test_each_base_gets_the_summary_of_its_own_rankings(self):
        rng = random.Random(5678)
        labels = grid_labels("0.1:2.0:0.1")
        varied = 0
        for index, queries in self.corpora():
            tokens = dict(enumerate(queries))
            qrels = {
                qid: set(rng.sample(range(1, index.n_docs + 1), k=min(3, index.n_docs)))
                for qid in tokens
            }
            swept = run_sweep(index, tokens, qrels, labels)
            for label, summary in swept.per_base.items():
                rankings = base_rankings(index, tokens, float(label))
                assert summary == evaluate_rankings(rankings, qrels)[0]
            varied += len(set(swept.per_base.values())) > 1
        # rounding breaks ties differently across bases in some corpora, so
        # the memo must tell their rankings apart
        assert varied > 0

    def test_norms_computed_once_per_sweep(self, monkeypatch):
        # the index computes every norm when it is built; the sweep reads them
        calls = []
        norms = index_mod._norms

        def recording(doc_ids, dictionary):
            calls.append(list(doc_ids))
            return norms(doc_ids, dictionary)

        monkeypatch.setattr(index_mod, "_norms", recording)
        index = build_index([(d, pipeline(t, frozenset())) for d, t in TEXTS.items()])
        result = run_sweep(index, QUERIES, QRELS, grid_labels("0.5:5:0.5"))
        assert len(result.per_base) == 9
        assert calls == [sorted(TEXTS)]

    def test_equal_rankings_are_evaluated_once(self, tmp_path, monkeypatch):
        labels = grid_labels("2:6:0.5")
        bases = [float(v) for v in labels]
        orders = {
            tuple(tuple(d for d, _ in rl.entries) for rl in
                  base_rankings(INDEX, QUERIES, base).values())
            for base in bases
        }
        assert len(orders) == 1

        # every base evaluated on its own Ranker
        full = SweepResult()
        for label in labels:
            r = Ranker(INDEX, WeightScheme(float(label)))
            rankings = {qid: r.rank_tokens(qid, t) for qid, t in QUERIES.items()}
            full.per_base[label], _ = evaluate_rankings(rankings, QRELS)

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate_rankings(*args, **kwargs)

        monkeypatch.setattr(sweep, "evaluate_rankings", counting)
        memoized = toy_sweep(labels)
        assert len(calls) == 1
        assert len(memoized.per_base) == len(bases)
        emit_csv(full, str(tmp_path / "full.csv"))
        emit_csv(memoized, str(tmp_path / "memo.csv"))
        assert (tmp_path / "memo.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


class TestPlan:
    """Rank once at base e, re-score only the fragile groups per base."""

    def test_default_grid_on_200_random_corpora(self):
        rng = random.Random(5678)
        labels = grid_labels(DEFAULT_GRID)
        varied = fragile = 0
        for index, queries in criterion_4_corpora(200):
            tokens = dict(enumerate(queries))
            qrels = {
                qid: set(rng.sample(range(1, index.n_docs + 1), k=min(3, index.n_docs)))
                for qid in tokens
            }
            want = reference_sweep(index, tokens, qrels, labels, (1000, 2))
            for cutoff in (1000, 2):
                swept = run_sweep(index, tokens, qrels, labels, cutoff=cutoff)
                assert_summaries_equal(swept.per_base, want[cutoff])
                varied += len(set(swept.per_base.values())) > 1
                fragile += swept.fragile_groups
        # some sweeps really differ between bases, through their fragile groups
        assert varied > 0
        assert fragile > 0

    def sweep_and_reference(self, texts, query, qrels, labels, **kwargs):
        index = build_index([(d, pipeline(t, frozenset())) for d, t in texts.items()])
        tokens = {1: pipeline(query, frozenset())}
        swept = run_sweep(index, tokens, qrels, labels, **kwargs)
        cutoff = kwargs.get("cutoff", 1000)
        return swept, reference_sweep(index, tokens, qrels, labels, (cutoff,))[cutoff]

    # docs 1 and 2 have the same cosine with the query, rounded differently
    NEAR_TIE = {1: "x y", 2: "x y x y x y", 3: "z", 4: "z", 5: "z w"}

    def test_fragile_group_changes_order_between_bases(self):
        swept, want = self.sweep_and_reference(self.NEAR_TIE, "x y", {1: {2}},
                                               grid_labels(DEFAULT_GRID))
        assert_summaries_equal(swept.per_base, want)
        assert swept.fragile_groups == 1
        assert swept.distinct_rankings == len(set(want.values())) == 2

    def test_fragile_group_from_the_cutoff_on_is_not_rescored(self):
        # doc 1 ranks first at every base; docs 2 and 3 tie as docs 1 and 2 of
        # NEAR_TIE do, at ranks 2 and 3
        texts = {1: "x y", 2: "x y z", 3: "x y z x y z x y z", 4: "z", 5: "z w", 6: "w"}
        for cutoff, fragile in ((1, 0), (2, 1)):
            swept, want = self.sweep_and_reference(texts, "x y", {1: {3}},
                                                   grid_labels(DEFAULT_GRID),
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
                                               grid_labels(DEFAULT_GRID))
        assert_summaries_equal(swept.per_base, want)
        assert swept.fragile_groups == 0
        assert swept.distinct_rankings == 1

    def test_one_rescore_per_fragile_group_and_base(self, monkeypatch):
        calls = []
        settle = Ranker.settle

        def recording(self, query_tokens, rankings, groups):
            calls.append((self.scheme.base, groups))
            return settle(self, query_tokens, rankings, groups)

        monkeypatch.setattr(Ranker, "settle", recording)
        labels = grid_labels("2:6:0.5")
        swept, _ = self.sweep_and_reference(self.NEAR_TIE, "x y", {1: {2}}, labels)
        # the pair, at positions 0 and 1, settled once per base with a ranker
        # of that base (the reference's calls come after the sweep's)
        n = len(labels)
        assert calls[:n] == [(float(v), {1: [(0, 2)]}) for v in labels]

    def test_tie_of_different_documents_is_fragile(self):
        # docs 2 and 3 tie bit for bit at base e, but their vectors differ,
        # so the weights at other bases can tell them apart
        index, queries = list(criterion_4_corpora(72))[71]
        ranker = Ranker(index, WeightScheme(math.e))
        rankings, groups = ranker.plan({0: queries[0]}, 1000)
        assert [d for d, _ in rankings[0].entries[:2]] == [2, 3]
        assert rankings[0].entries[0][1] == rankings[0].entries[1][1]
        assert groups == {0: [(0, 2)]}
        vectors = index.term_vectors([2, 3])
        assert vectors[2] != vectors[3]
        # each is the document's (term, tf) pairs in sorted term order
        assert vectors == {d: [(term, tfs[list(ids).index(d)])
                               for term, (ids, tfs) in sorted(index.dictionary.items())
                               if d in ids]
                           for d in (2, 3)}
        orders = {
            tuple(d for d, _ in Ranker(index, WeightScheme(b)).rank_tokens(0, queries[0]).entries)
            for b in (2.0, 2.4, 10.0)
        }
        assert len(orders) == 2

    def test_one_term_vectors_pass_per_sweep(self):
        labels = grid_labels("2:6:0.5")
        index = build_index([(d, pipeline(t, frozenset())) for d, t in self.NEAR_TIE.items()])
        postings = count_passes(index)
        # both queries hold docs 1 and 2 in a fragile group
        queries = {1: ["x", "y"], 2: ["y", "x", "y", "x"]}
        swept = run_sweep(index, queries, {1: {2}, 2: {1}}, labels)
        assert swept.fragile_groups == 2
        assert swept.ranked_bases == len(labels)
        assert postings.passes == 1
        # the index keeps the vectors: a second sweep makes no pass
        assert run_sweep(index, queries, {1: {2}, 2: {1}}, labels).fragile_groups == 2
        assert postings.passes == 1
        # no near ties, no pass
        index = build_index([(1, ["x", "y"]), (2, ["x", "x", "y"]), (3, ["z"])])
        postings = count_passes(index)
        swept = run_sweep(index, queries, {1: {2}, 2: {1}}, labels)
        assert swept.fragile_groups == 0
        assert swept.ranked_bases == len(labels)
        assert postings.passes == 0


class TestCache:
    def test_resume_uses_cached_entries(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        labels = grid_labels("2:4:1")
        first = toy_sweep(labels, cache_path=str(cache))
        assert cache.exists()
        lines_after_first = cache.read_text().count("\n")
        second = toy_sweep(labels, cache_path=str(cache))
        assert second.per_base == first.per_base
        # everything was cached, nothing re-appended
        assert cache.read_text().count("\n") == lines_after_first
        # the key reads no index, nor does a sweep whose every base is cached
        unread = run_sweep(None, QUERIES, QRELS, labels, cache=(str(cache), TOY_INPUTS))
        assert unread.per_base == first.per_base

    def test_partial_cache_completes(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        labels = grid_labels("2.0:4.0:1.0")
        full = toy_sweep(labels)
        toy_sweep(["3.0"], cache_path=str(cache))
        assert "3.0" in cache.read_text()
        resumed = toy_sweep(labels, cache_path=str(cache))
        # in grid order, the cached base among the computed ones
        assert list(resumed.per_base.items()) == list(full.per_base.items())

    def test_cache_keyed_by_inputs(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        labels = ["2.0"]
        toy_sweep(labels, cache_path=str(cache))
        # different cutoff changes the digest, so the entry must not be reused
        different = toy_sweep(labels, cutoff=2, cache_path=str(cache))
        fresh = toy_sweep(labels, cutoff=2)
        assert different.per_base == fresh.per_base

    def test_line_of_another_cache_version_is_not_reused(self, tmp_path, monkeypatch):
        cache, fresh = tmp_path / "cache.jsonl", tmp_path / "fresh.jsonl"
        labels = grid_labels("2:3:1")
        monkeypatch.setattr(sweep, "CACHE_VERSION", sweep.CACHE_VERSION - 1)
        toy_sweep(labels, cache_path=str(cache))
        monkeypatch.undo()
        assert toy_sweep(labels, cache_path=str(cache)).ranked_bases == 2
        # the other version's lines are dropped and this version's written
        toy_sweep(labels, cache_path=str(fresh))
        assert cache.read_text() == fresh.read_text()

    def test_built_and_loaded_index_give_one_digest(self, tmp_path, monkeypatch):
        path = tmp_path / "index.bin"
        INDEX.save(str(path))
        loaded = index_mod.InvertedIndex.load(str(path))
        # the key is the inputs given, whichever index: no snapshot is encoded
        monkeypatch.setattr(index_mod.InvertedIndex, "snapshot_parts", None)
        cache = tmp_path / "cache.jsonl"
        labels = grid_labels("2:4:1")
        built = toy_sweep(labels, cache_path=str(cache))
        resumed = run_sweep(loaded, QUERIES, QRELS, labels, cache=(str(cache), TOY_INPUTS))
        assert (resumed.ranked_bases, resumed.per_base) == (0, built.per_base)

    def test_corrupt_cache_line_ignored(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("{not json\n")
        labels = ["2.0"]
        result = toy_sweep(labels, cache_path=str(cache))
        assert list(result.per_base) == ["2.0"]


    def cached_line(self, tmp_path, **changes):
        """A valid cache line of the toy sweep at base 2, with ``changes``
        applied (a value of None deletes the key)."""
        cache = tmp_path / "first.jsonl"
        toy_sweep(["2.0"], cache_path=str(cache))
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
            {"map": float("nan")},
            {"map": float("inf")},
            {"map_at_30": 7.5},
            {"levels": [0.5] * 10 + [-0.25]},
        ],
        ids=["no-map", "no-levels", "no-base", "map-string", "map30-bool", "ten-levels",
             "levels-string", "base-number", "map-nan", "map-inf", "map30-above-one",
             "level-below-zero"],
    )
    def test_ill_typed_entry_is_recomputed(self, tmp_path, changes):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.cached_line(tmp_path, **changes) + "\n")
        labels = ["2.0"]
        assert toy_sweep(labels, cache_path=str(cache)).per_base == toy_sweep(labels).per_base
        # the bad line is gone and the recomputed one appended
        assert cache.read_text() == (tmp_path / "first.jsonl").read_text()

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null", "\udcff"],
                             ids=["list", "string", "number", "null", "not-utf8"])
    def test_non_object_line_is_skipped(self, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(line.encode("utf-8", "surrogateescape") + b"\n")
        labels = ["2.0"]
        assert toy_sweep(labels, cache_path=str(cache)).per_base == toy_sweep(labels).per_base

    def test_values_outside_the_unit_interval_are_recomputed(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        labels = grid_labels("9:11:1")
        first = toy_sweep(labels, cache_path=str(cache))
        good = cache.read_text().splitlines()
        entries = [json.loads(line) for line in good]
        entries[0]["map"] = float("nan")  # written as NaN, which json.loads reads
        entries[1]["map_at_30"] = 7.5
        cache.write_text("".join(json.dumps(e) + "\n" for e in entries))
        resumed = toy_sweep(labels, cache_path=str(cache))
        assert resumed.ranked_bases == 2
        assert list(resumed.per_base.items()) == list(first.per_base.items())
        # compacted to base 11's line, then bases 9 and 10 appended again
        assert cache.read_text().splitlines() == [good[2], good[0], good[1]]

    def test_load_compacts_stale_and_torn_lines(self, tmp_path):
        good = self.cached_line(tmp_path)
        stale = self.cached_line(tmp_path, digest="0" * 64)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(f"{stale}\n{good}\n\n{good}\n{good[:20]}")
        labels = ["2.0"]
        result = toy_sweep(labels, cache_path=str(cache))
        assert result.ranked_bases == 0  # base 2 came from the cache
        assert cache.read_text() == good + "\n"

    def test_line_without_newline_is_completed(self, tmp_path):
        good = self.cached_line(tmp_path)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(good)
        toy_sweep(grid_labels("2.0:3.0:1.0"), cache_path=str(cache))
        lines = cache.read_text().splitlines()
        assert lines[0] == good
        assert [json.loads(x)["base"] for x in lines] == ["2.0", "3.0"]

    def test_valid_cache_is_not_rewritten(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        labels = grid_labels("2:4:1")
        toy_sweep(labels, cache_path=str(cache))
        writes = []
        monkeypatch.setattr(sweep, "write_atomic", lambda *args: writes.append(args))
        toy_sweep(labels, cache_path=str(cache))
        assert writes == []


@pytest.fixture(scope="module")
def report_result():
    return toy_sweep(grid_labels("5:10:2.5"))


class TestReports:

    def test_top_k_ties_go_to_smaller_bases(self, report_result):
        rows = top_k_report(report_result, "map", 2)
        assert [label for label, _ in rows] == ["5.0", "7.5"]

    def test_top_k_beyond_size_returns_all(self, report_result):
        assert len(top_k_report(report_result, "map", 99)) == 3

    def test_top_k_rejects_bad_args(self, report_result):
        with pytest.raises(ValueError):
            top_k_report(report_result, "map", 0)
        with pytest.raises(ValueError):
            top_k_report(report_result, "ndcg", 1)

    def test_best_standard_worst_rows(self, report_result):
        best, standard, worst = best_standard_worst(report_result, "map_at_30")
        assert Decimal(standard[0]) == 10
        assert best[0] == "5.0"  # all equal, tie to smallest
        assert worst[0] == "5.0"
        assert best[1].map_at_30 == pytest.approx(worst[1].map_at_30, abs=1e-9)

    def test_best_standard_worst_requires_base_ten(self):
        result = toy_sweep(grid_labels("2:4:1"))
        with pytest.raises(ValueError, match="base 10"):
            best_standard_worst(result, "map")

    def test_consistency_with_top_one(self, report_result):
        assert top_k_report(report_result, "map", 1)[0] == best_standard_worst(report_result, "map")[0]

    def test_render_table_shape(self, report_result):
        text = render_table(top_k_report(report_result, "map", 3), "map")
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["LOG"] + [f"{k / 10:.1f}" for k in range(11)] + ["MAP"]
        assert render_table(top_k_report(report_result, "map_at_30", 1), "map_at_30").count("MAP@30") == 1


class TestEmission:
    def test_csv_shape_and_determinism(self, tmp_path):
        result = toy_sweep(grid_labels("0.8:1.2:0.1"))
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
        empty = SweepResult()
        path = tmp_path / "empty.csv"
        emit_csv(empty, str(path))
        assert path.read_text().splitlines() == [
            "base,level_0.0,level_0.1,level_0.2,level_0.3,level_0.4,level_0.5,"
            "level_0.6,level_0.7,level_0.8,level_0.9,level_1.0,map,map_at_30"
        ]

    def test_metric_curve(self, tmp_path):
        result = toy_sweep(grid_labels("2:3:1"))
        path = tmp_path / "curve.csv"
        emit_metric_curve(result, "map", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "base,map"
        assert len(lines) == 3

    def test_level_curves(self, tmp_path):
        result = toy_sweep(grid_labels("2:3:1"))
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
            emit_csv(toy_sweep(grid_labels("2:3:1")), str(path))
        assert path.read_text() == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_unwritable_path_raises_with_context(self, tmp_path):
        result = toy_sweep(grid_labels("2:3:1"))
        bad = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(result, str(bad))


class TestDefaultGridRun:
    def test_thousand_grid_on_toy_corpus(self):
        result = toy_sweep(grid_labels(DEFAULT_GRID))
        assert len(result.per_base) == 999
        assert result.skipped == ["1.0"]
        maps = {s.map for s in result.per_base.values()}
        assert max(maps) - min(maps) < 1e-9
