import random
from fractions import Fraction

import pytest

from curveclass.errors import ParseError
from curveclass.mpoly import MPoly
from curveclass.parsing import format_poly, parse_poly, parse_upoly

X, Y = MPoly.var("x"), MPoly.var("y")


def test_parse_spec_examples():
    assert parse_poly("y^2 - x^3") == Y**2 - X**3
    assert parse_poly("y^2 - x^3*(x^2+1)^2") == Y**2 - X**3 * (X**2 + 1) ** 2
    assert parse_poly("1/2*x + y") == X * Fraction(1, 2) + Y


def test_parse_unary_minus_and_parens():
    assert parse_poly("-(x + y)") == -(X + Y)
    assert parse_poly("-x^2") == -(X**2)
    assert parse_poly("(x - y)*(x + y)") == X**2 - Y**2


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")
    with pytest.raises(ParseError):
        parse_poly("x y")
    with pytest.raises(ParseError):
        parse_poly("2(x+1)")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + $")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("x ^ -2")
    with pytest.raises(ParseError):
        parse_poly("z + 1")


@pytest.mark.parametrize("text, pos", [("x^\u00b2", 2), ("\u0663*x", 0), ("1/\u0663", 1)])
def test_parse_rejects_non_ascii_digits(text, pos):
    # str.isdigit accepts superscripts and other scripts' digits; int()
    # then raises a bare ValueError ('²') or silently reads them ('٣' is 3)
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == pos


def test_parse_upoly():
    u = parse_upoly("t^2 - t - 1", "t")
    assert u.degree == 2 and u.coeffs == (-1, -1, 1)


def test_format_spec_examples():
    assert format_poly(MPoly.var("t") ** 2 - X) == "t^2 - x"
    assert format_poly(X * Fraction(1, 2) + Y) == "1/2*x + y"
    assert format_poly(MPoly()) == "0"
    assert format_poly(-X + Y**2) == "y^2 - x"


def test_roundtrip_random_polynomials():
    rng = random.Random(77)
    for _ in range(80):
        p = MPoly()
        for _ in range(rng.randint(1, 6)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            p = p + MPoly.const(c) * X ** rng.randint(0, 4) * Y ** rng.randint(0, 4)
        text = format_poly(p)
        assert parse_poly(text) == p
        assert format_poly(parse_poly(text)) == text
