import math

import pytest
from hypothesis import given, strategies as st

from logbase_ir.index import build_index
from logbase_ir.weighting import WeightScheme, idf, weigh_query


# a appears only in doc 1 (twice), b in both docs; immutable, safe to share
TWO_DOC_INDEX = build_index([(1, ["a", "a", "b"]), (2, ["b"])])


@pytest.fixture
def two_doc_index():
    return TWO_DOC_INDEX


def rare_term_index(n_docs: int, df: int = 1):
    """n_docs documents; "r" occurs in the first df of them, "e" in all."""
    return build_index([(d, ["e"] + (["r"] if d <= df else [])) for d in range(1, n_docs + 1)])


class TestLogBase:
    """idf's change-of-base logarithm log_b(N / df) = ln(N / df) / ln b."""

    def test_clean_cases(self):
        assert idf(rare_term_index(100), "r", WeightScheme(10)) == pytest.approx(2.0, rel=1e-12)
        assert idf(rare_term_index(8), "r", WeightScheme(2)) == pytest.approx(3.0, rel=1e-12)
        assert idf(rare_term_index(4), "r", WeightScheme(0.5)) == pytest.approx(-2.0, rel=1e-12)

    @pytest.mark.parametrize("base", [0.1, 0.5, 2, 10, 99.9])
    def test_log_of_one_is_zero(self, base):
        assert idf(rare_term_index(3), "e", WeightScheme(base)) == 0.0

    @pytest.mark.parametrize("base", [0.0, -2.0, 1.0])
    def test_invalid_base(self, base):
        # no idf can be asked for at an unusable base: the scheme refuses it
        with pytest.raises(ValueError, match="log base must be positive"):
            idf(TWO_DOC_INDEX, "a", WeightScheme(base))

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_base_ten_matches_common_log(self, n_docs, df):
        df = min(df, n_docs)
        value = idf(rare_term_index(n_docs, df), "r", WeightScheme(10))
        assert value == pytest.approx(math.log10(n_docs / df), rel=1e-12, abs=1e-15)

    def test_bit_identical_to_change_of_base(self):
        for n_docs, df, base in [(1033, 7, 10.0), (1400, 1, 0.1), (5, 2, 32.6), (11, 3, math.e)]:
            want = math.log(n_docs / df) / math.log(base)
            assert idf(rare_term_index(n_docs, df), "r", WeightScheme(base)) == want


class TestScheme:
    @pytest.mark.parametrize("base", [0.0, -3.0, 1.0, float("inf")])
    def test_rejects_bad_base(self, base):
        with pytest.raises(ValueError, match="log base must be positive"):
            WeightScheme(base)

    def test_accepts_fractional(self):
        assert WeightScheme(0.1).base == 0.1

    @pytest.mark.parametrize("base", [0.1, 0.5, 2.0, 10.0, 1 + 2**-52, 5e-324])
    def test_scale_turns_base_e_weights_into_base_b_ones(self, base):
        want = idf(TWO_DOC_INDEX, "a", WeightScheme(base))
        assert idf(TWO_DOC_INDEX, "a", WeightScheme(math.e)) / math.log(base) == pytest.approx(
            want, rel=1e-15
        )


class TestIdf:
    def test_round_numbers(self):
        index = build_index(
            [(d, ["common"] + (["rare"] if d <= 100 else [])) for d in range(1, 1001)]
        )
        assert idf(index, "rare", WeightScheme(10)) == pytest.approx(1.0, rel=1e-12)

    def test_term_in_every_document_is_exactly_zero(self):
        index = build_index([(d, ["x"]) for d in range(1, 34)])
        for base in (0.1, 2.0, 10.0, 32.6):
            assert idf(index, "x", WeightScheme(base)) == 0.0

    def test_fractional_base_flips_sign(self):
        index = build_index([(1, ["u"])] + [(d, ["v"]) for d in range(2, 11)])
        assert idf(index, "u", WeightScheme(0.1)) == pytest.approx(-1.0, rel=1e-12)

    def test_unknown_term_raises(self, two_doc_index):
        with pytest.raises(KeyError):
            idf(two_doc_index, "zzz", WeightScheme(10))


class TestWeighQuery:
    def test_repeated_term(self, two_doc_index):
        got = weigh_query(two_doc_index, ["a", "a"], WeightScheme(10))
        assert got == [("a", pytest.approx(2 * math.log10(2), rel=1e-12),
                        pytest.approx(math.log10(2), rel=1e-12))]

    def test_out_of_vocabulary_dropped(self, two_doc_index):
        assert weigh_query(two_doc_index, ["nope", "nada"], WeightScheme(10)) == []

    def test_everywhere_term_weighs_zero(self, two_doc_index):
        assert weigh_query(two_doc_index, ["b"], WeightScheme(10)) == [("b", 0.0, 0.0)]

    def test_fractional_base_sign_flip(self, two_doc_index):
        got = weigh_query(two_doc_index, ["a", "a", "b"], WeightScheme(0.1))
        assert got[0] == ("a", pytest.approx(-2 * math.log10(2), rel=1e-12),
                          pytest.approx(-math.log10(2), rel=1e-12))
        assert got[1] == ("b", 0.0, 0.0)


bases = st.floats(min_value=0.01, max_value=100.0).filter(
    lambda b: abs(b - 1.0) > 1e-6
)


class TestProperties:
    @given(b1=bases, b2=bases)
    def test_base_change_scaling_law(self, b1, b2):
        factor = math.log(b1) / math.log(b2)
        i1 = idf(TWO_DOC_INDEX, "a", WeightScheme(b1))
        i2 = idf(TWO_DOC_INDEX, "a", WeightScheme(b2))
        assert i2 == pytest.approx(i1 * factor, rel=1e-9)

    @given(base=bases)
    def test_sign_law(self, base):
        value = idf(TWO_DOC_INDEX, "a", WeightScheme(base))  # df=1 < N=2
        if base > 1:
            assert value > 0
        else:
            assert value < 0
        assert idf(TWO_DOC_INDEX, "b", WeightScheme(base)) == 0.0  # df = N
