import math
import random

import pytest

from logbase_ir.index import build_index
from logbase_ir.retrieval import RankedList, Ranker, format_run
from logbase_ir.textpipe import pipeline
from logbase_ir.weighting import WeightScheme

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


def full_pass_norms(ranker):
    """Every document's norm from one pass over all postings in sorted term
    order: the table the ranker built eagerly before norms went on demand."""
    squares = {}
    for term, (doc_ids, tfs) in ranker.index.dictionary.items():
        term_idf = ranker._idf[term]
        for doc_id, tf in zip(doc_ids, tfs):
            w = tf * term_idf
            squares[doc_id] = squares.get(doc_id, 0.0) + w * w
    return {doc_id: math.sqrt(s) for doc_id, s in squares.items()}


def bits(norms):
    # repr shows every bit of a double and tells -0.0 from 0.0
    return {doc_id: repr(norm) for doc_id, norm in norms.items()}


class TestDocNorms:
    def test_on_demand_equals_full_pass_bit_for_bit(self):
        # the 50 corpora of acceptance criterion 4, drawn in the same order
        rng = random.Random(1234)
        subsets = random.Random(99)
        for _ in range(50):
            docs, queries = random_corpus(rng, max_docs=10, max_terms=15, max_queries=5)
            base = rng.choice([0.1, 0.3, 0.5, 2.0, 10.0, 32.6, 84.6, 100.0])
            ranker = Ranker(build_index(sorted(docs.items())), WeightScheme(base))
            table = full_pass_norms(ranker)
            assert bits(ranker.doc_norms(table)) == bits(table)
            # up to half the documents are picked out, more are read in full
            subset = subsets.sample(sorted(table), k=subsets.randint(0, len(table)))
            assert bits(ranker.doc_norms(subset)) == bits({d: table[d] for d in subset})
            for tokens in queries:
                _, dot = ranker.accumulate(tokens)
                assert bits(ranker.doc_norms(dot)) == bits({d: table[d] for d in dot})

    def test_search_computes_norms_of_its_candidates_only(self, toy_index, monkeypatch):
        ranker = Ranker(toy_index, WeightScheme(10))
        calls = []
        doc_norms = Ranker.doc_norms

        def recording(self, doc_ids):
            calls.append(set(doc_ids))
            return doc_norms(self, doc_ids)

        monkeypatch.setattr(Ranker, "doc_norms", recording)
        ranked = ranker.rank_tokens(1, ["date"])
        candidates = set(toy_index.dictionary["date"][0])
        assert calls == [candidates]
        assert {d for d, _ in ranked.entries} == candidates
        assert candidates < set().union(*(ids for ids, _ in toy_index.dictionary.values()))
