import itertools
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logbase_ir import porter
from logbase_ir.porter import stem
from logbase_ir.textpipe import tokenize

import oracle
from conftest import perfbench

FIXTURE = Path(__file__).parent / "data" / "porter_pairs.txt"


def load_pairs():
    pairs = []
    for line in FIXTURE.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        word, expected = line.split()
        pairs.append((word, expected))
    return pairs


@pytest.mark.parametrize(
    "word,expected",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("beaches", "beach"),
        ("bushes", "bush"),
        ("playing", "play"),
        ("books", "book"),
    ],
)
def test_reference_word_pairs(word, expected):
    assert stem(word) == expected


def test_fixture_size():
    assert len(load_pairs()) >= 100


def test_fixture_conformance():
    failures = [
        (word, expected, stem(word))
        for word, expected in load_pairs()
        if stem(word) != expected
    ]
    assert failures == []


@pytest.mark.parametrize("word", ["a", "is", "be", "x", "q7", ""])
def test_short_words_unchanged(word):
    assert stem(word) == word


def test_classic_suffix_families():
    assert stem("ties") == "ti"
    assert stem("caress") == "caress"
    assert stem("cats") == "cat"
    assert stem("agreed") == "agre"
    assert stem("feed") == "feed"
    assert stem("motoring") == "motor"
    assert stem("sing") == "sing"
    assert stem("hopping") == "hop"
    assert stem("relational") == "relat"
    assert stem("conditional") == "condit"
    assert stem("triplicate") == "triplic"
    assert stem("adjustable") == "adjust"
    assert stem("controll") == "control"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", max_size=30))
def test_never_lengthens(word):
    assert len(stem(word)) <= len(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
def test_deterministic(word):
    assert stem(word) == stem(word)


# Every suffix the stemmer tests for, steps 1 to 5.
SUFFIXES = sorted({
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll",
    *(suffix for suffix, _ in oracle.STEP2_RULES + oracle.STEP3_RULES),
    *oracle.STEP4_SUFFIXES,
})


class TestAgainstLinearScan:
    """Steps 2 to 4 try only the rules whose suffix ends in the word's last
    letter; ``oracle.porter_stem`` scans every rule in list order."""

    def test_fixture_words(self):
        words = [word for word, _ in load_pairs()]
        assert [stem(w) for w in words] == [oracle.porter_stem(w) for w in words]

    @pytest.mark.parametrize("shape", ["med", "cran", "npl"])
    def test_benchmark_collection_words(self, shape):
        gen = perfbench("gen")
        col = gen.generate(gen.SHAPES[shape], 1)
        words = sorted(set(tokenize(col.docs_smart)) | set(tokenize(col.queries_smart)))
        assert [w for w in words if stem(w) != oracle.porter_stem(w)] == []

    def test_every_suffix_pair_on_fixed_roots(self):
        # roots of measure 0 to 2, ending in a vowel, a consonant, s, t and y
        roots = ["", "b", "ab", "bab", "abab", "babab", "abs", "babat", "aby", "oy"]
        words = [r + a + b for r in roots for a in SUFFIXES for b in ["", *SUFFIXES]]
        assert [w for w in words if stem(w) != oracle.porter_stem(w)] == []

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=8),
           st.lists(st.sampled_from(SUFFIXES), min_size=1, max_size=3))
    def test_stem_plus_suffixes(self, root, suffixes):
        word = root + "".join(suffixes)
        assert stem(word) == oracle.porter_stem(word)

    @given(st.builds(mul, st.sampled_from("abeswy1"), st.integers(0, 5000)),
           st.lists(st.sampled_from(SUFFIXES), max_size=3))
    def test_long_run_plus_suffixes(self, run, suffixes):
        # runs of one letter up to 5,000 long, which the other strategies
        # never make: the stemmer must stay linear and non-recursive on them
        word = run + "".join(suffixes)
        assert stem(word) == oracle.porter_stem(word)


# every word of up to six letters over a vowel, two consonants (w among
# them, which ends no cvc), y and a digit
SHORT_WORDS = ["".join(letters)
               for n in range(7) for letters in itertools.product("abwy1", repeat=n)]


@pytest.mark.parametrize("name", ["measure", "has_vowel", "ends_cvc", "ends_double_consonant"])
def test_form_conditions_against_consonant_rule(name):
    # the package reads each condition from the word's consonant/vowel
    # form; oracle restates Porter's consonant rule letter by letter
    fast, slow = getattr(porter, f"_{name}"), getattr(oracle, name)
    assert [w for w in SHORT_WORDS if fast(w) != slow(w)] == []
