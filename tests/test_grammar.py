import random

import pytest

from fjump import (
    ExponentOverflowError,
    ParseError,
    Polynomial,
    RingContext,
    UnknownVariableError,
    format_poly,
    infer_variables,
    parse_poly,
)

from conftest import random_poly


class TestParse:
    def test_basic(self, ctx2):
        f = parse_poly("x^2 + y^3", ctx2)
        assert f.terms == {(2, 0): 1, (0, 3): 1}

    def test_coeff_reduced(self):
        ctx = RingContext(3, ("x",))
        assert parse_poly("3x", ctx).is_zero()

    def test_minus(self, ctx5):
        assert parse_poly("x*x - y", ctx5).terms == {(2, 0): 1, (0, 1): 4}

    def test_adjacency(self, ctx5):
        assert parse_poly("2xy^2", ctx5).terms == {(1, 2): 2}
        assert parse_poly("x x", ctx5) == parse_poly("x^2", ctx5)

    def test_constants(self, ctx5):
        assert parse_poly("0", ctx5).is_zero()
        assert parse_poly("1", ctx5) == Polynomial.one(ctx5)
        assert parse_poly("7", ctx5).constant_value() == 2

    def test_leading_sign(self, ctx5):
        assert parse_poly("-x + y", ctx5).terms == {(1, 0): 4, (0, 1): 1}
        assert parse_poly("+x", ctx5).terms == {(1, 0): 1}

    def test_whitespace(self, ctx5):
        assert parse_poly(" x ^ 2\n+ 3 y ", ctx5).terms == {(2, 0): 1, (0, 1): 3}

    def test_longest_match(self):
        ctx = RingContext(5, ("x", "y"))
        assert parse_poly("xy", ctx).terms == {(1, 1): 1}
        ctx_joint = RingContext(5, ("xy", "z"))
        assert parse_poly("xy", ctx_joint).terms == {(1, 0): 1}

    def test_cancellation(self, ctx2):
        assert parse_poly("x + x", ctx2).is_zero()


class TestParseErrors:
    def test_unknown_variable(self, ctx2):
        with pytest.raises(UnknownVariableError) as err:
            parse_poly("x + z", ctx2)
        assert err.value.line == 1 and err.value.col == 5

    def test_syntax_error_position(self, ctx2):
        with pytest.raises(ParseError) as err:
            parse_poly("x +\n+ y", ctx2)
        assert err.value.line == 2

    def test_dangling_star(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("2*", ctx2)
        with pytest.raises(ParseError):
            parse_poly("x* + y", ctx2)

    def test_exponent_overflow(self, ctx2):
        with pytest.raises(ExponentOverflowError):
            parse_poly(f"x^{1 << 63}", ctx2)

    def test_overlong_literals(self, ctx2):
        # past int()'s digit limit: a parse error at the literal, not a bare ValueError
        with pytest.raises(ExponentOverflowError) as err:
            parse_poly("x^" + "9" * 5000, ctx2)
        assert (err.value.line, err.value.col) == (1, 3)
        with pytest.raises(ParseError) as err:
            parse_poly("x +\n " + "9" * 5000 + "y", ctx2)
        assert (err.value.line, err.value.col) == (2, 2)

    def test_empty(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("", ctx2)
        with pytest.raises(ParseError):
            parse_poly("x + ", ctx2)

    @pytest.mark.parametrize("text, col", [("x^²", 3), ("²x", 1), ("x + ٣y", 5)])
    def test_non_ascii_digits(self, ctx2, text, col):
        # str.isdigit() accepts these, and int() takes '٣' as 3
        with pytest.raises(ParseError) as err:
            parse_poly(text, ctx2)
        assert (err.value.line, err.value.col) == (1, col)

    def test_parse_errors_are_value_errors(self, ctx2):
        with pytest.raises(ValueError):
            parse_poly("$", ctx2)


class TestFormat:
    def test_zero(self, ctx2):
        assert format_poly(Polynomial.zero(ctx2)) == "0"

    def test_linear(self, ctx2):
        assert format_poly(parse_poly("x + y", ctx2)) == "x + y"

    def test_grevlex_descending(self, ctx2):
        assert format_poly(parse_poly("x^2 + y^3", ctx2)) == "y^3 + x^2"

    def test_coefficients_positive(self, ctx5):
        assert format_poly(parse_poly("-y", ctx5)) == "4y"

    def test_multichar_names_use_star(self):
        ctx = RingContext(3, ("u1", "u2"))
        f = parse_poly("2u1^2*u2 + 1", ctx)
        text = format_poly(f)
        assert text == "2*u1^2*u2 + 1"
        assert parse_poly(text, ctx) == f

    def test_round_trip_random(self):
        rng = random.Random(9)
        for p in (2, 3, 7):
            ctx = RingContext(p, ("x", "y", "z"))
            for _ in range(40):
                f = random_poly(rng, ctx, max_terms=5)
                assert parse_poly(format_poly(f), ctx) == f


def test_infer_variables():
    assert infer_variables("y^2 + x*y + zz") == ["y", "x", "zz"]
    assert infer_variables("3") == []
