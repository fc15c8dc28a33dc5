import re

import pytest
from hypothesis import given, strategies as st

from logbase_ir.textpipe import (
    default_stoplist,
    load_stoplist,
    pipeline,
    remove_stopwords,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]

    def test_hyphens_split(self):
        assert tokenize("state-of-the-art") == ["state", "of", "the", "art"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("mach 0.8 flow") == ["mach", "0", "8", "flow"]

    def test_non_ascii_is_a_separator(self):
        assert tokenize("naïve café") == ["na", "ve", "caf"]

    def test_non_ascii_that_lowercases_to_ascii_is_a_separator(self):
        # the Kelvin sign lowercases to "k", and "İ" to "i" plus a combining dot
        assert tokenize("\u212aelvin \u0130stanbul") == ["elvin", "stanbul"]

    @given(st.one_of(st.text(max_size=200), st.text(st.characters(max_codepoint=127))))
    def test_runs_of_ascii_alphanumerics_lowercased(self, text):
        want = [piece.lower() for piece in re.findall("[A-Za-z0-9]+", text)]
        assert tokenize(text) == want

    @given(st.text(max_size=200))
    def test_output_alphabet(self, text):
        allowed = set("abcdefghijklmnopqrstuvwxyz0123456789")
        for token in tokenize(text):
            assert token
            assert set(token) <= allowed


class TestStopwords:
    def test_default_list_has_spec_words(self):
        stoplist = default_stoplist()
        for word in ["the", "a", "in", "are", "another", "again", "between", "mostly"]:
            assert word in stoplist

    def test_removal(self):
        got = remove_stopwords(["the", "cat", "in", "a", "hat"], default_stoplist())
        assert got == ["cat", "hat"]

    def test_empty_tokens(self):
        assert remove_stopwords([], default_stoplist()) == []

    def test_empty_stoplist_is_identity(self):
        assert remove_stopwords(["cat"], frozenset()) == ["cat"]

    def test_idempotent(self):
        tokens = ["the", "cat", "sat", "on", "a", "mat"]
        once = remove_stopwords(tokens, default_stoplist())
        assert remove_stopwords(once, default_stoplist()) == once

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# header\nfoo\nBAR  # trailing comment\n\nbaz qux\n")
        assert load_stoplist(str(path)) == frozenset({"foo", "bar", "baz", "qux"})

    def test_load_normalizes_punctuated_entries(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("aren't\n")
        assert load_stoplist(str(path)) == frozenset({"aren", "t"})


class TestPipeline:
    def test_stopwords_removed_before_stemming(self):
        assert pipeline("The ponies are playing") == ["poni", "play"]

    def test_empty(self):
        assert pipeline("") == []

    def test_plural_es(self):
        assert pipeline("beaches bushes") == ["beach", "bush"]

    def test_explicit_stoplist(self):
        assert pipeline("cats and dogs", frozenset({"and"})) == ["cat", "dog"]

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert pipeline(text) == pipeline(text)
