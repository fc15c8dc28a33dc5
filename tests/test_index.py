import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from logbase_ir.index import InvertedIndex, build_index


@pytest.fixture
def small():
    return build_index([(1, ["a", "b", "a"]), (2, ["b"])])


class TestBuild:
    def test_postings_and_frequencies(self, small):
        assert small.n_docs == 2
        assert small.dictionary == {"a": ((1,), (2,)), "b": ((1, 2), (1, 1))}

    def test_empty_document_counts_toward_n(self):
        index = build_index([(1, [])])
        assert index.n_docs == 1
        assert index.dictionary == {}

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index([])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([(1, ["a"]), (1, ["b"])])


class TestLookups:
    def test_doc_freq(self, small):
        assert small.doc_freq("b") == 2
        assert small.doc_freq("z") == 0
        assert small.doc_freq("a") == 1


corpora = st.lists(
    st.lists(st.sampled_from("abcdefgh"), max_size=12),
    min_size=1,
    max_size=10,
)


class TestInvariants:
    @given(corpora)
    def test_structure(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        index = build_index(docs)
        assert index.n_docs == len(docs)
        assert list(index.dictionary) == sorted(index.dictionary)
        total_df = 0
        for term, (ids, tfs) in index.dictionary.items():
            assert isinstance(ids, tuple) and isinstance(tfs, tuple)
            assert len(ids) == len(tfs) == index.doc_freq(term)
            assert list(ids) == sorted(set(ids))
            assert 1 <= index.doc_freq(term) <= index.n_docs
            assert all(tf >= 1 for tf in tfs)
            total_df += len(ids)
        assert total_df == sum(len(set(tokens)) for tokens in token_lists)

    @given(corpora)
    def test_doc_freq_matches_brute_force(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        index = build_index(docs)
        for term in "abcdefgh":
            want = [(d, tokens.count(term)) for d, tokens in docs if term in tokens]
            ids, tfs = index.dictionary.get(term, ((), ()))
            assert list(zip(ids, tfs)) == want
            assert index.doc_freq(term) == len(want)

    @given(corpora)
    @settings(max_examples=25)
    def test_permutation_invariance(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        shuffled = docs[:]
        random.Random(0).shuffle(shuffled)
        a, b = build_index(docs), build_index(shuffled)
        assert a.dictionary == b.dictionary
        assert a.to_dict() == b.to_dict()


def _snapshot(**changes) -> dict:
    data = build_index([(1, ["a", "b", "a"]), (2, ["b"])]).to_dict()
    data.update(changes)
    return data


class TestSnapshot:
    def test_round_trip(self, tmp_path, small):
        path = tmp_path / "index.json"
        small.save(str(path))
        loaded = InvertedIndex.load(str(path))
        assert loaded.n_docs == small.n_docs
        assert loaded.dictionary == small.dictionary
        assert InvertedIndex.from_dict(small.to_dict()).dictionary == small.dictionary

    def test_format_2_layout(self, tmp_path, small):
        path = tmp_path / "index.json"
        small.save(str(path))
        assert json.loads(path.read_text()) == {
            "format_version": 2,
            "n_docs": 2,
            "dictionary": {"a": [[1], [2]], "b": [[1, 2], [1, 1]]},
        }

    def test_save_is_deterministic(self, tmp_path, small):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        small.save(str(p1))
        small.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_rejected(self, small):
        data = small.to_dict()
        data["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            InvertedIndex.from_dict(data)

    def test_version_1_rejected_with_rebuild_hint(self):
        v1 = {
            "format_version": 1,
            "n_docs": 2,
            "dictionary": {"a": [1, [[7, 2]]]},
            "doc_lengths": {"1": 1, "2": 0},
        }
        with pytest.raises(ValueError, match="version 1.*index --save-index"):
            InvertedIndex.from_dict(v1)

    @pytest.mark.parametrize(
        "data, match",
        [
            ([1, 2], "not a JSON object"),
            (_snapshot(n_docs=0), "n_docs"),
            (_snapshot(n_docs="2"), "n_docs"),
            (_snapshot(n_docs=True), "n_docs"),
            (_snapshot(dictionary=[]), "dictionary"),
            (_snapshot(dictionary={"a": [[1]]}), "'a'.*expected"),
            (_snapshot(dictionary={"a": [1, [2]]}), "'a'.*expected"),
            (_snapshot(dictionary={"a": [[], []]}), "'a'.*non-empty"),
            (_snapshot(dictionary={"a": [[1, 2], [1]]}), "'a'.*equal length"),
            (_snapshot(dictionary={"a": [[1, "2"], [1, 1]]}), "'a'.*non-integer"),
            (_snapshot(dictionary={"a": [[1], [1.0]]}), "'a'.*non-integer"),
            (_snapshot(dictionary={"a": [[2, 1], [1, 1]]}), "'a'.*strictly increasing"),
            (_snapshot(dictionary={"a": [[1, 1], [1, 1]]}), "'a'.*strictly increasing"),
            (_snapshot(dictionary={"a": [[1], [0]]}), "'a'.*tf below 1"),
            (_snapshot(dictionary={"a": [[1, 7, 9], [1, 1, 1]]}), "3 distinct doc ids"),
        ],
    )
    def test_malformed_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            InvertedIndex.from_dict(data)
