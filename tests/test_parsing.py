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
    # ^ binds tighter than a unary minus after an operator too
    assert parse_poly("2*-x^2") == X**2 * -2
    assert parse_poly("y - -x^2") == Y + X**2


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


@pytest.mark.parametrize("text, pos", [("1/0", 0), ("x + 3/0*y", 4), ("x^2/00", 2)])
def test_parse_rejects_a_zero_denominator(text, pos):
    # Fraction(3, 0) was a bare ZeroDivisionError out of the tokenizer
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == pos
    assert str(exc.value) == f"zero denominator in rational literal (at position {pos})"


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


# -- a reference arithmetic, and the parser evaluated with it ---------------
import itertools  # noqa: E402
import re  # noqa: E402

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curveclass.parsing import _tokenize  # noqa: E402

# Reference term-dict arithmetic (exponent tuples -> Fractions) in its
# generic form: zip-summed exponents, zero sums dropped as they arise,
# powers as repeated products.  parse_poly and MPoly share mpoly's term-dict
# kernels, so an oracle built on either would only compare those kernels
# with themselves.

def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _ref_pow(p, n):
    acc = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(n):
        acc = _ref_mul(acc, p)
    return acc


# few monomials and small coefficients, so that sums and products cancel
_TERMS = st.dictionaries(
    st.sampled_from([e for e in itertools.product((0, 1), repeat=4) if sum(e) <= 2]),
    st.sampled_from([Fraction(c, d) for c in (-2, -1, 1, 2) for d in (1, 2)]),
    max_size=5,
)
_X_PLUS_1 = {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 0): Fraction(1)}


@settings(deadline=None, max_examples=200)
@given(a=_TERMS, b=_TERMS, n=st.integers(0, 4))
@example(a=_X_PLUS_1, b=_ref_add(_X_PLUS_1, {(0, 0, 0, 0): Fraction(2)}, -1), n=2)
@example(a=_X_PLUS_1, b=_X_PLUS_1, n=0)
def test_mpoly_arithmetic_matches_the_reference(a, b, n):
    p, q = MPoly(a), MPoly(b)
    for got, want in (
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, b, -1)),
        (-p, _ref_add({}, a, -1)),
        (p * q, _ref_mul(a, b)),
        (p**n, _ref_pow(a, n)),
    ):
        assert got.terms == want
        assert all(type(c) is Fraction for c in got.terms.values())


class _MPolyParser:
    """Reference: the grammar evaluated with the reference arithmetic at
    every step, unary minus negating a whole factor."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self):
        poly = self.parse_expr()
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"trailing input starting with {end.kind!r}", end.pos)
        return poly

    def parse_expr(self):
        sign = 1
        if self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -1
        acc = _ref_add({}, self.parse_term(), sign)
        while self.peek().kind in "+-":
            op = self.take().kind
            acc = _ref_add(acc, self.parse_term(), 1 if op == "+" else -1)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            acc = _ref_mul(acc, self.parse_factor())
        return acc

    def parse_factor(self):
        if self.peek().kind == "-":
            self.take()
            return _ref_add({}, self.parse_factor(), -1)
        base = self.parse_base()
        if self.peek().kind == "^":
            pos = self.take().pos
            neg = False
            if self.peek().kind == "-":
                self.take()
                neg = True
            tok = self.take("num")
            if neg:
                raise ParseError("negative exponent", pos)
            if tok.value.denominator != 1 or tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            return _ref_pow(base, int(tok.value))
        return base

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        if tok.kind == "num":
            self.take()
            return {(0, 0, 0, 0): Fraction(tok.value)} if tok.value else {}
        if tok.kind == "name":
            self.take()
            if tok.value not in ("x", "y"):
                raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
            return {(0, 0, 1, 0) if tok.value == "x" else (0, 0, 0, 1): Fraction(1)}
        raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


_ATOMS = st.one_of(
    st.integers(0, 40).map(str),
    st.builds("{}/{}".format, st.integers(0, 40), st.integers(1, 12)),
    st.sampled_from(["x", "y"]),
)
_GAP = st.sampled_from(["", " "])


def _expressions(exprs):
    base = st.one_of(_ATOMS, exprs.map("({})".format))
    factor = st.builds(
        lambda minus, b, k: "-" * minus + b + ("" if k is None else f"^{k}"),
        st.integers(0, 2), base, st.none() | st.integers(0, 3),
    )
    term = st.builds(lambda gap, fs: f"{gap}*{gap}".join(fs), _GAP, st.lists(factor, min_size=1, max_size=3))
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(f" {op} {t}" for op, t in rest),
        st.sampled_from(["", "-", "+"]), term, st.lists(st.tuples(st.sampled_from("+-"), term), max_size=3),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _expressions, max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(text=_EXPRESSIONS)
def test_parse_poly_matches_the_mpoly_operation_parser(text):
    got = parse_poly(text)
    assert got.terms == _MPolyParser(text).parse()
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(deadline=None, max_examples=300)
@given(text=_EXPRESSIONS, data=st.data())
def test_parse_poly_mutations_fail_like_the_mpoly_operation_parser(text, data):
    i = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from(list("xyz+-*^()/ 0$.")))
    mutated = data.draw(st.sampled_from([
        text[:i] + text[i + 1:],  # delete
        text[:i] + ch + text[i + 1:],  # replace
        text[:i] + ch + text[i:],  # insert
    ]))
    # an exponent of two digits can blow a nested power up past any budget
    assume(not re.search(r"\^\s*\d\d", mutated))
    got = _outcome(lambda t: parse_poly(t).terms, mutated)
    assert got == _outcome(lambda t: _MPolyParser(t).parse(), mutated)
