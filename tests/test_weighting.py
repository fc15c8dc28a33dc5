import math

import pytest
from hypothesis import given, strategies as st

from logbase_ir.index import build_index
from logbase_ir.weighting import (
    InvalidBaseError,
    TermNotInCollectionError,
    TermWeight,
    WeightScheme,
    idf,
    log_base,
    weigh_query,
)


# a appears only in doc 1 (twice), b in both docs; immutable, safe to share
TWO_DOC_INDEX = build_index([(1, ["a", "a", "b"]), (2, ["b"])])


@pytest.fixture
def two_doc_index():
    return TWO_DOC_INDEX


class TestLogBase:
    def test_clean_cases(self):
        assert log_base(100, 10) == pytest.approx(2.0, rel=1e-12)
        assert log_base(8, 2) == pytest.approx(3.0, rel=1e-12)
        assert log_base(4, 0.5) == pytest.approx(-2.0, rel=1e-12)

    @pytest.mark.parametrize("base", [0.1, 0.5, 2, 10, 99.9])
    def test_log_of_one_is_zero(self, base):
        assert log_base(1, base) == 0.0

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            log_base(x, 10)

    @pytest.mark.parametrize("base", [0.0, -2.0, 1.0])
    def test_invalid_base(self, base):
        with pytest.raises(InvalidBaseError):
            log_base(5, base)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_base_ten_matches_common_log(self, x):
        assert log_base(x, 10) == pytest.approx(math.log10(x), rel=1e-12)


class TestScheme:
    @pytest.mark.parametrize("base", [0.0, -3.0, 1.0, float("inf")])
    def test_rejects_bad_base(self, base):
        with pytest.raises(InvalidBaseError):
            WeightScheme(base)

    def test_accepts_fractional(self):
        assert WeightScheme(0.1).base == 0.1


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
        with pytest.raises(TermNotInCollectionError):
            idf(two_doc_index, "zzz", WeightScheme(10))


class TestWeighQuery:
    def test_repeated_term(self, two_doc_index):
        got = weigh_query(two_doc_index, ["a", "a"], WeightScheme(10))
        assert got == [TermWeight("a", pytest.approx(2 * math.log10(2), rel=1e-12))]

    def test_out_of_vocabulary_dropped(self, two_doc_index):
        assert weigh_query(two_doc_index, ["nope", "nada"], WeightScheme(10)) == []

    def test_everywhere_term_weighs_zero(self, two_doc_index):
        assert weigh_query(two_doc_index, ["b"], WeightScheme(10)) == [TermWeight("b", 0.0)]

    def test_fractional_base_sign_flip(self, two_doc_index):
        got = weigh_query(two_doc_index, ["a", "a", "b"], WeightScheme(0.1))
        assert got[0].weight == pytest.approx(-2 * math.log10(2), rel=1e-12)
        assert got[1].weight == 0.0


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
