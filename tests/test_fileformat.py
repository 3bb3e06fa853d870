"""Series and map file grammar: parsing, canonical output, round trips."""

import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnf.errors import DigitLimitError, InputError, StructuralError
from crnf.fileformat import (format_rat, parse_map, parse_rat, parse_series,
                             serialize_map, serialize_series)
from crnf.series import ComplexSeries, GaussRat, RealSeries, to_real_basis
from crnf.transform import FormalMap, LinearFactor


CANON_XYU = "k=4 N=8 basis=xyu\n4 0 0 1/1\n5 0 0 3/2\n2 2 1 -1/3\n"


class TestRat:
    def test_format_always_has_denominator(self):
        assert format_rat(Q(4)) == "4/1"
        assert format_rat(Q(-3, 6)) == "-1/2"

    def test_parse_accepts_bare_integers(self):
        assert parse_rat("7") == Q(7)
        assert parse_rat("-2/8") == Q(-1, 4)

    def test_parse_rejects_junk(self):
        with pytest.raises(StructuralError):
            parse_rat("1.5")
        with pytest.raises(StructuralError):
            parse_rat("1/0")


class TestAsciiIntegers:
    """An integer token is -?[0-9]+ and a fraction -?[0-9]+(/[0-9]+)?:
    no sign '+', no digit separator '_' and no digits outside ASCII."""

    @pytest.mark.parametrize("text, what", [
        ("k=4 N=1_2 basis=xyu\n4 0 0 1/1\n", "N"),
        ("k=4 N=8 basis=xyu\n+4 0 0 1/1\n", "j"),
        ("k=4 N=8 basis=xyu\n4 0 0 1/1\n2 0 +1 1/1\n", "m"),
        ("k=4 N=8 basis=xyu\n\u0664 0 0 1/1\n", "j"),
        ("k=\uff14 N=8 basis=xyu\n4 0 0 1/1\n", "k"),
        ("map k=4 N=8\nlinear delta=1/1 rot=+1\nf\ng\n", "rot"),
        ("map k=4 N=8\nf\n2 0_0 1/1 0/1\ng\n", "m"),
    ], ids=["N-separator", "j-plus", "m-plus", "j-arabic-indic", "k-fullwidth",
            "rot-plus", "map-m-separator"])
    def test_integer_fields_refuse_other_forms(self, text, what):
        parse = parse_map if text.startswith("map") else parse_series
        with pytest.raises(StructuralError, match=f"line [0-9]+: {what} must be an integer"):
            parse(text)

    def test_fractions_refuse_non_ascii_digits(self):
        for tok in ("\u0663/1", "3/\u0661", "-\uff13"):
            with pytest.raises(StructuralError, match="bad fraction"):
                parse_rat(tok)
        with pytest.raises(StructuralError, match="bad fraction"):
            parse_series("k=4 N=8 basis=xyu\n4 0 0 \u0663/1\n")


digits = st.text("0123456789", min_size=1, max_size=30)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.sampled_from(["", "-"]), digits, st.none() | digits)
def test_parse_rat_is_fraction_of_the_token(sign, num, den):
    # leading zeros, -0 and zero denominators included
    tok = sign + num + ("" if den is None else "/" + den)
    if den is not None and not int(den):
        with pytest.raises(StructuralError, match="zero denominator"):
            parse_rat(tok)
    else:
        assert parse_rat(tok) == Q(tok)


needs_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                 reason="no integer string conversion limit")


@pytest.fixture
def int_digit_limit():
    """Sets sys's integer string conversion limit; restores it afterwards."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@needs_limit
class TestDigitLimit:
    def test_parse_names_the_limit(self, int_digit_limit):
        int_digit_limit(4300)
        for tok in ("7" * 5000, "1/" + "3" * 5000):
            with pytest.raises(DigitLimitError,
                               match="4300 digits.*PYTHONINTMAXSTRDIGITS"):
                parse_rat(tok)
        assert issubclass(DigitLimitError, InputError)

    def test_integer_fields_name_the_limit(self, int_digit_limit):
        int_digit_limit(4300)
        big = "9" * 5000
        for text in (f"k=4 N={big} basis=xyu\n4 0 0 1/1\n",
                     f"k=4 N=8 basis=xyu\n4 0 0 1/1\n{big} 0 0 1/1\n",
                     f"map k=4 N={big}\nf\ng\n"):
            parse = parse_map if text.startswith("map") else parse_series
            with pytest.raises(DigitLimitError,
                               match="4300 digits.*PYTHONINTMAXSTRDIGITS") as exc:
                parse(text)
            # the message names the field, not the whole token
            assert len(str(exc.value)) < 300
        with pytest.raises(StructuralError, match="N must be an integer"):
            parse_series("k=4 N=8x basis=xyu\n")

    def test_serialize_names_the_limit(self, int_digit_limit):
        int_digit_limit(4300)
        big = Q(7 ** 6000, 3)
        with pytest.raises(DigitLimitError, match="PYTHONINTMAXSTRDIGITS"):
            format_rat(big)
        with pytest.raises(DigitLimitError):
            serialize_series(RealSeries(4, 8, {(4, 0, 0): 1, (5, 0, 0): big}))

    def test_round_trip_without_limit(self, int_digit_limit):
        int_digit_limit(0)
        big = Q(7 ** 6000, 3 ** 5000)
        assert parse_rat(format_rat(big)) == big
        text = f"k=4 N=8 basis=xyu\n4 0 0 1/1\n5 0 0 {format_rat(-big)}\n"
        assert serialize_series(parse_series(text)) == text


class TestSeriesFiles:
    def test_monomial_example(self):
        S = parse_series("k=4 N=8 basis=xyu\n4 0 0 1/1\n")
        assert isinstance(S, RealSeries)
        assert S.k == 4 and S.N == 8
        assert S.coeffs == {(4, 0, 0): Q(1)}

    def test_serialize_rejects_non_series(self):
        with pytest.raises(StructuralError, match="not a series"):
            serialize_series(FormalMap.identity(4, 8))

    def test_canonical_round_trip_is_byte_identical(self):
        # weight order puts the u-monomial (weight 8) after x^4 and x^5
        text = "k=4 N=8 basis=xyu\n4 0 0 1/1\n5 0 0 3/2\n2 2 1 -1/3\n"
        assert serialize_series(parse_series(text)) == text

    def test_parse_serialize_parse_is_parse(self):
        messy = ("# leading comment\n"
                 "k=4  N=8   basis=xyu\n"
                 "\n"
                 "2 2 1 -2/6\n"
                 "4 0 0 1\n"
                 "  5 0 0 6/4\n"
                 "6 0 0 0/5\n")
        S = parse_series(messy)
        assert parse_series(serialize_series(S)) == S
        assert serialize_series(S) == CANON_XYU

    def test_zero_coefficient_dropped(self):
        S = parse_series("k=4 N=8 basis=xyu\n4 0 0 1/1\n6 0 0 0/1\n")
        assert (6, 0, 0) not in S.coeffs

    def test_zzu_example(self):
        S = parse_series("k=4 N=8 basis=zzu\n2 2 0 1/1 0/1\n")
        assert isinstance(S, ComplexSeries)
        assert S.coeffs == {(2, 2, 0): GaussRat(1, 0)}
        assert S.is_real()
        R = to_real_basis(S)
        assert R.coeffs == {(4, 0, 0): Q(1), (2, 2, 0): Q(2), (0, 4, 0): Q(1)}

    def test_zzu_round_trip(self):
        text = ("k=3 N=6 basis=zzu\n"
                "1 2 0 3/2 -1/2\n"
                "2 1 0 3/2 1/2\n"
                "1 1 1 0/1 2/1\n")
        assert serialize_series(parse_series(text)) == text

    def test_zzu_reality_enforced_by_conversion(self):
        S = parse_series("k=3 N=6 basis=zzu\n2 1 0 1/1 0/1\n1 2 0 1/1 1/1\n")
        with pytest.raises(StructuralError):
            to_real_basis(S)

    def test_duplicate_monomial(self):
        with pytest.raises(StructuralError, match="duplicate"):
            parse_series("k=4 N=8 basis=xyu\n4 0 0 1/1\n4 0 0 2/1\n")

    def test_weight_above_N(self):
        with pytest.raises(StructuralError):
            parse_series("k=4 N=8 basis=xyu\n4 0 0 1/1\n9 0 0 1/1\n")

    def test_bad_headers(self):
        for text in ("", "k=4 N=8\n", "k=4 N=8 basis=polar\n",
                     "N=8 k=4 basis=xyu\n", "k=x N=8 basis=xyu\n"):
            with pytest.raises(StructuralError):
                parse_series(text)

    def test_bad_records(self):
        for rec in ("4 0 0", "4 0 0 1/1 2/1", "4 0 x 1/1", "4 0 0 one"):
            with pytest.raises(StructuralError):
                parse_series(f"k=4 N=8 basis=xyu\n{rec}\n")

    def test_output_sorted_by_weight_then_index(self):
        S = RealSeries(4, 9, {(0, 0, 2): Q(1), (5, 0, 0): Q(1),
                              (4, 0, 0): Q(1), (0, 5, 0): Q(1),
                              (1, 4, 0): Q(1)})
        body = serialize_series(S).splitlines()[1:]
        assert body == ["4 0 0 1/1", "0 5 0 1/1", "1 4 0 1/1",
                        "5 0 0 1/1", "0 0 2 1/1"]


class TestMapFiles:
    def test_canonical_round_trip(self):
        text = ("map k=4 N=12\n"
                "linear delta=2/3 rot=1\n"
                "f\n"
                "2 0 1/1 0/1\n"
                "0 1 0/1 -1/4\n"
                "g\n"
                "5 0 0/1 1/1\n")
        T = parse_map(text)
        assert T.k == 4 and T.N == 12
        assert T.linear == LinearFactor(Q(2, 3), 1)
        assert T.f.coeffs[(0, 1)] == GaussRat(0, Q(-1, 4))
        canon = serialize_map(T)
        assert parse_map(canon) == T
        assert serialize_map(parse_map(canon)) == canon

    def test_record_order_is_by_weight(self):
        text = ("map k=4 N=12\n"
                "f\n"
                "0 1 0/1 1/1\n"
                "2 0 1/1 0/1\n"
                "g\n")
        lines = serialize_map(parse_map(text)).splitlines()
        assert lines == ["map k=4 N=12", "f", "2 0 1/1 0/1",
                         "0 1 0/1 1/1", "g"]

    def test_identity_linear_omitted(self):
        T = FormalMap.from_parts(4, 12, {(2, 0): GaussRat(1)}, {})
        assert "linear" not in serialize_map(T)
        T2 = FormalMap.from_parts(4, 12, {}, {}, LinearFactor(Q(2), 0))
        assert "linear delta=2/1 rot=0" in serialize_map(T2)

    def test_structural_limits_enforced(self):
        # f records below weight 2 and g records below weight k+1 are
        # rejected by the map constructor itself
        with pytest.raises(StructuralError):
            parse_map("map k=4 N=12\nf\n1 0 1/1 0/1\ng\n")
        with pytest.raises(StructuralError):
            parse_map("map k=4 N=12\nf\ng\n4 0 1/1 0/1\n")

    def test_bad_map_files(self):
        bad = [
            "",
            "k=4 N=12\nf\ng\n",                        # missing map word
            "map k=4 N=12\nf\n",                       # no g section
            "map k=4 N=12\nf\nf\ng\n",                 # duplicate section
            "map k=4 N=12\n2 0 1/1 0/1\nf\ng\n",       # record before section
            "map k=4 N=12\nlinear delta=1/1 rot=4\nf\ng\n",
            "map k=4 N=12\nf\n2 0 1/1\ng\n",           # short record
            "map k=4 N=12\nf\n2 0 1/1 0/1\n2 0 1/1 0/1\ng\n",
        ]
        for text in bad:
            with pytest.raises(StructuralError):
                parse_map(text)

    def test_comments_and_blanks_ignored(self):
        text = ("# map file\nmap k=4 N=12\n\n"
                "f\n# shift\n0 1 0/1 -1/4\n\ng\n")
        T = parse_map(text)
        assert T.f.coeffs == {(0, 1): GaussRat(0, Q(-1, 4))}
