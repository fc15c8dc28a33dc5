import math
import random

import pytest

from logbase_ir.index import InvertedIndex, build_index
from logbase_ir.retrieval import RankedList, Ranker, format_run, near_tie_groups
from logbase_ir.textpipe import pipeline
from logbase_ir.weighting import WeightScheme, idf

from conftest import count_passes
from oracle import dense_rank, random_corpus


def scores(docs, query_tokens, base=10.0):
    """doc_id -> Ranker score; "pad" fills a document no query term reaches."""
    index = build_index(sorted(docs.items()))
    return dict(Ranker(index, WeightScheme(base)).rank_tokens(1, query_tokens).entries)


class TestCosine:
    # x and y occur in doc 1 only, so both have the same nonzero IDF
    def test_identical_vectors(self):
        got = scores({1: ["x", "y"], 2: ["pad"]}, ["x", "y"])
        assert got[1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert scores({1: ["x"], 2: ["y"], 3: ["pad"]}, ["y"]) == {2: pytest.approx(1.0)}

    def test_partial_overlap(self):
        got = scores({1: ["x", "y"], 2: ["pad"]}, ["x"])
        assert got[1] == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_norm_guard(self):
        # x is in every document: IDF 0, so the query vector has norm zero
        assert scores({1: ["x"], 2: ["x", "y"]}, ["x"]) == {1: 0.0, 2: 0.0}

    def test_negative_scale_invariance(self):
        docs = {1: ["x", "y", "y"], 2: ["x", "z"], 3: ["z", "pad"]}
        above = scores(docs, ["x", "y", "z"], base=2.0)
        below = scores(docs, ["x", "y", "z"], base=0.5)
        assert below.keys() == above.keys()
        for doc_id, score in above.items():
            assert below[doc_id] == pytest.approx(score, abs=1e-12)


def rank_text(index, query_id, text):
    """Rank raw query text the way the CLI does: pipeline, then score."""
    return Ranker(index, WeightScheme(10)).rank_tokens(query_id, pipeline(text, frozenset()))


class TestRank:
    def test_zero_overlap_documents_omitted(self):
        # the query text is pipelined, so index the documents the same way
        texts = {1: "apple", 2: "pear", 3: "apple plum"}
        index = build_index([(d, pipeline(t, frozenset())) for d, t in texts.items()])
        ranked = rank_text(index, 1, "apple")
        ids = [doc_id for doc_id, _ in ranked.entries]
        assert 2 not in ids
        assert set(ids) == {1, 3}
        assert all(score > 0 for _, score in ranked.entries)

    def test_self_match_ranks_first_with_unit_score(self):
        docs = [
            (1, ["alpha", "beta", "gamma"]),
            (2, ["alpha", "delta"]),
            (3, ["beta", "epsilon", "zeta"]),
        ]
        index = build_index(docs)
        ranked = rank_text(index, 5, "alpha beta gamma")
        assert ranked.entries[0][0] == 1
        assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-9)
        assert ranked.entries[0][1] > ranked.entries[1][1]

    def test_empty_query_gives_empty_ranking(self, toy_index):
        ranked = rank_text(toy_index, 1, "")
        assert ranked == RankedList(1)

    def test_out_of_vocabulary_query(self, toy_index):
        ranked = rank_text(toy_index, 1, "qqq zzz")
        assert ranked.entries == ()

    def test_deterministic_repeat(self, toy_index):
        ranker = Ranker(toy_index, WeightScheme(10))
        first = ranker.rank_tokens(1, ["apple", "date"])
        second = ranker.rank_tokens(1, ["apple", "date"])
        assert first == second

    def test_tie_break_by_doc_id(self):
        index = build_index([(4, ["x"]), (2, ["x"]), (9, ["x", "x"]), (1, ["y"])])
        ranker = Ranker(index, WeightScheme(10))
        ranked = ranker.rank_tokens(1, ["x"])
        # single-term vectors all have cosine 1 regardless of tf
        assert [doc_id for doc_id, _ in ranked.entries] == [2, 4, 9]

    def test_scores_in_unit_interval_for_base_above_one(self):
        rng = random.Random(3)
        for _ in range(20):
            docs, queries = random_corpus(rng)
            index = build_index(sorted(docs.items()))
            ranker = Ranker(index, WeightScheme(rng.uniform(1.01, 80)))
            for i, q in enumerate(queries):
                for _, score in ranker.rank_tokens(i, q).entries:
                    assert -1e-9 <= score <= 1 + 1e-9


class TestOracleEquivalence:
    def test_matches_dense_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            docs, queries = random_corpus(rng)
            index = build_index(sorted(docs.items()))
            base = rng.choice([0.1, 0.5, 2.0, 10.0, 32.6, 99.9])
            ranker = Ranker(index, WeightScheme(base))
            for i, q in enumerate(queries):
                got = ranker.rank_tokens(i, q).entries
                want = dense_rank(docs, q, base)
                assert [d for d, _ in got] == [d for d, _ in want]
                for (_, gs), (_, ws) in zip(got, want):
                    assert gs == pytest.approx(ws, abs=1e-9)


    def test_near_ties_rank_as_the_weights_at_the_base(self):
        # small vocabularies give documents with proportional vectors, whose
        # cosines tie; rounding orders them, and rank_tokens must order them
        # as the weights computed at the base do
        rng = random.Random(7)
        rescaled_differs = 0
        for _ in range(300):
            docs, queries = random_corpus(rng, max_terms=rng.choice([3, 6]))
            index = build_index(sorted(docs.items()))
            for base in (rng.uniform(0.01, 0.99), rng.uniform(1.01, 100), 1 + 2**-40, 5e-324):
                ranker = Ranker(index, WeightScheme(base))
                for i, q in enumerate(queries):
                    got = ranker.rank_tokens(i, q).entries
                    want = dense_rank(docs, q, base)
                    assert [d for d, _ in got] == [d for d, _ in want]
                    for (_, gs), (_, ws) in zip(got, want):
                        assert gs == pytest.approx(ws, abs=1e-9)
                    rescaled = ranker.rank(i, ranker.accumulate(q))
                    rescaled_differs += [d for d, _ in rescaled.entries] != [d for d, _ in want]
        # the rescaled base-e scores alone would have ordered some ties otherwise
        assert rescaled_differs > 0


@pytest.mark.parametrize("units, groups", [(8, [(0, 2)]), (32, [])])
def test_near_tie_margin_is_16_k_u(units, groups):
    # two scores a relative `units` K u apart, K = V + 2 n + 22 for a
    # vocabulary of V terms and n distinct query terms: within the 16 K u
    # margin they form one group, and past it none
    index = build_index([(1, ["x", "y"]), (2, ["y", "z"]), (3, ["pad"])])
    tokens = ["x", "y", "y"]
    k = len(index.dictionary) + 2 * len(set(tokens)) + 22
    s = 0.5
    ranked = RankedList(1, ((1, s), (2, s * (1 - units * k * 2.0**-53))))
    assert near_tie_groups(index, tokens, ranked) == groups


class TestScaleInvariance:
    def test_ranking_identical_across_bases(self):
        rng = random.Random(23)
        bases = [rng.uniform(0.01, 0.99) for _ in range(10)]
        bases += [rng.uniform(1.01, 100.0) for _ in range(10)]
        for _ in range(5):
            docs, queries = random_corpus(rng)
            index = build_index(sorted(docs.items()))
            reference = None
            for base in bases:
                ranker = Ranker(index, WeightScheme(base))
                rankings = [ranker.rank_tokens(i, q) for i, q in enumerate(queries)]
                if reference is None:
                    reference = rankings
                    continue
                for ref, got in zip(reference, rankings):
                    assert [d for d, _ in got.entries] == [d for d, _ in ref.entries]
                    for (_, gs), (_, rs) in zip(got.entries, ref.entries):
                        assert gs == pytest.approx(rs, abs=1e-9)


class TestRunFile:
    def test_format(self):
        lists = [
            RankedList(3, ((7, 0.5), (2, 0.25))),
            RankedList(4, ((1, 1.0),)),
        ]
        lines = format_run(lists).splitlines()
        assert lines == ["3\t7\t1\t0.5", "3\t2\t2\t0.25", "4\t1\t1\t1.0"]

    def test_deterministic_bytes(self, toy_index):
        ranker = Ranker(toy_index, WeightScheme(10))
        a = format_run([ranker.rank_tokens(1, ["apple", "cherry"])])
        b = format_run([ranker.rank_tokens(1, ["apple", "cherry"])])
        assert a == b


def full_pass_norms(index, scheme):
    """Every document's norm at the scheme's base from one pass over all
    postings in sorted term order."""
    squares = {}
    for term, (doc_ids, tfs) in index.dictionary.items():
        term_idf = idf(index, term, scheme)
        for doc_id, tf in zip(doc_ids, tfs):
            w = tf * term_idf
            squares[doc_id] = squares.get(doc_id, 0.0) + w * w
    return {doc_id: math.sqrt(s) for doc_id, s in squares.items()}


def bits(norms):
    # repr shows every bit of a double and tells -0.0 from 0.0
    return {doc_id: repr(norm) for doc_id, norm in norms.items()}


class TestSettle:
    def test_settled_scores_equal_the_dense_oracle_bit_for_bit(self, monkeypatch):
        settled = []
        settle = Ranker.settle

        def recording(self, query_tokens, rankings, groups):
            result = settle(self, query_tokens, rankings, groups)
            settled.extend(entry for qid, spans in groups.items() for start, stop in spans
                           for entry in result[qid].entries[start:stop])
            return result

        monkeypatch.setattr(Ranker, "settle", recording)
        # the 50 corpora of acceptance criterion 4, drawn in the same order
        rng = random.Random(1234)
        checked = 0
        for _ in range(50):
            docs, queries = random_corpus(rng, max_docs=10, max_terms=15, max_queries=5)
            base = rng.choice([0.1, 0.3, 0.5, 2.0, 10.0, 32.6, 84.6, 100.0])
            index = build_index(sorted(docs.items()))
            ranker = Ranker(index, WeightScheme(base))
            for qid, tokens in enumerate(queries):
                settled.clear()
                ranker.rank_tokens(qid, tokens)
                want = dict(dense_rank(docs, tokens, base))
                assert bits(dict(settled)) == bits({d: want[d] for d, _ in settled})
                checked += len(settled)
            # the index stores the base-e norms of every document, those
            # with no postings at 0.0
            base_e = full_pass_norms(index, WeightScheme(math.e))
            assert bits(index.norms) == bits({d: base_e.get(d, 0.0) for d in sorted(docs)})
        assert checked > 0

    def test_search_gathers_vectors_of_near_tied_candidates_only(self, monkeypatch):
        # docs 1 and 2 have the same cosine with the query; docs 3 and 4 do not
        index = build_index([(1, ["x", "y"]), (2, ["x", "y"] * 3), (3, ["x", "z", "z"]),
                             (4, ["x", "w"]), (5, ["w"])])
        postings = count_passes(index)
        ranker = Ranker(index, WeightScheme(10))
        asked = []
        term_vectors = InvertedIndex.term_vectors

        def recording(self, doc_ids):
            vectors = term_vectors(self, doc_ids)
            asked.append(set(vectors))
            return vectors

        monkeypatch.setattr(InvertedIndex, "term_vectors", recording)
        ranked = ranker.rank_tokens(1, ["x", "y"])
        # only the near-tied candidates are re-scored at base 10, from one
        # pass; the others are ranked by the stored base-e norms
        assert asked == [{1, 2}]
        assert postings.passes == 1
        assert {d for d, _ in ranked.entries[:2]} == {1, 2}
        assert {d for d, _ in ranked.entries} == {1, 2, 3, 4}
        # the same members again make no pass, nor does a query with no near ties
        assert repr(ranker.rank_tokens(1, ["x", "y"])) == repr(ranked)
        ranker.rank_tokens(2, ["z", "w"])
        assert asked == [{1, 2}, {1, 2}, set()]
        assert postings.passes == 1
        # the pass gathered the members alone: a candidate outside the group
        # needs a pass of its own
        assert index.term_vectors([1, 2]) == {1: [("x", 1), ("y", 1)], 2: [("x", 3), ("y", 3)]}
        assert postings.passes == 1
        assert index.term_vectors([3]) == {3: [("x", 1), ("z", 2)]}
        assert postings.passes == 2
