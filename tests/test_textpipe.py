import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logbase_ir.porter import stem as porter_stem
from logbase_ir.textpipe import (
    PIPELINE_VERSION,
    default_stoplist,
    parse_stoplist,
    pipeline,
    stoplist_fingerprint,
    tokenize,
)

PAIRS = Path(__file__).parent / "data" / "porter_pairs.txt"
PAIR_WORDS = [line.split()[0] for line in PAIRS.read_text().splitlines()
              if line.strip() and not line.startswith("#")]

# sha256 of the terms the pipeline makes of each line of the Porter fixture,
# comments included, with no stoplist, by text pipeline version: a change of
# the tokenizer or the stemmer that changes one of them needs a new version,
# which snapshots of the old one are then refused for
FIXTURE_TERMS_SHA256 = {1: "e6529c55200b885e859f580c503df5b3cd748415750de632ac9e796c88d70275"}


def test_pipeline_version_pins_the_fixture_terms():
    terms = "\n".join(" ".join(pipeline(line, frozenset()))
                      for line in PAIRS.read_text().splitlines())
    assert hashlib.sha256(terms.encode()).hexdigest() == FIXTURE_TERMS_SHA256[PIPELINE_VERSION]


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

    @given(st.one_of(
        st.text(max_size=200),
        st.text(st.characters(max_codepoint=127)),
        # st.text() never draws a lone surrogate, which an undecodable argv byte gives
        st.text(st.one_of(st.characters(max_codepoint=127), st.characters(categories=["Cs"]),
                          st.sampled_from("\u212a\u0130\u00e9\U0001f600")), max_size=60),
    ))
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
        assert pipeline("the cat in a hat", default_stoplist()) == ["cat", "hat"]

    def test_empty_tokens(self):
        assert pipeline("the in a", default_stoplist()) == []

    def test_empty_stoplist_is_identity(self):
        assert pipeline("the cat", frozenset()) == ["the", "cat"]

    def test_idempotent(self):
        once = pipeline("the cat sat on a mat", default_stoplist())
        assert pipeline(" ".join(once), default_stoplist()) == once

    def test_load_file_with_comments(self):
        text = "# header\nfoo\nBAR  # trailing comment\n\nbaz qux\n"
        assert parse_stoplist(text) == frozenset({"foo", "bar", "baz", "qux"})

    def test_load_normalizes_punctuated_entries(self):
        assert parse_stoplist("aren't\n") == frozenset({"aren", "t"})

    def test_load_ends_lines_at_newlines_only(self):
        # a lone "\r" is text, so "the" stays inside the comment
        text = "zzz # c\rthe\r\nfoo\r\nbar # x\nbaz"
        assert parse_stoplist(text) == frozenset({"zzz", "foo", "bar", "baz"})

    def test_default_list_words_and_fingerprint(self):
        stoplist = default_stoplist()
        assert len(stoplist) == 523
        assert stoplist_fingerprint(stoplist) == (
            "9aeda0d6df514ccce270cd6c6cc452b229c98b6cce8d062feb41851a9cc056eb"
        )


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

    @given(st.lists(st.sampled_from(PAIR_WORDS + ["The", "AND", "caf\u00e9", "\u212aelvin", "-", "7"]),
                    max_size=30).map(" ".join),
           st.sampled_from([None, frozenset(), frozenset({"and", "abstain", "caf"})]))
    def test_term_map_is_stop_then_stem(self, text, stoplist):
        stop = default_stoplist() if stoplist is None else stoplist
        want = [porter_stem(t) for t in tokenize(text) if t not in stop]
        assert pipeline(text, stoplist) == want
        assert pipeline(text, stoplist) == want  # from a filled map

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12))
    def test_stem_is_never_empty(self, word):
        # the pipeline drops stopwords with filter(None, ...)
        assert porter_stem(word)
