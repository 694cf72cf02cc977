"""Polynomial expression parsing and canonical printing.

Grammar: integer and a/b rational literals, named variables, binary
+ - * ^ with nonnegative integer exponents, parentheses, unary minus.
^ binds tighter than unary minus, which binds tighter than *: -x^2 and
2*-x^2 are -(x^2) and 2*(-(x^2)).  Implicit multiplication is a syntax
error by construction.  The parser accumulates term dicts from exponent
4-tuples to coefficients, ints except where an a/b literal enters, with
mpoly's term-dict arithmetic (_add_into, _mul, _neg, _pow), and builds one
MPoly at the end.  Printing is canonical: terms in graded-lex descending
order, rational coefficients as a/b, explicit '*' between coefficient and
monomial, '^' exponents; the output re-parses to an equal polynomial.
"""

from fractions import Fraction

from .errors import ParseError
from .mpoly import MPoly, VARS, _ZERO_EXPS, _add_into, _mul, _neg, _pow, var_index
from .unipoly import UPoly


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _is_digit(ch):
    """ASCII 0-9 only: str.isdigit also accepts '²' and '٣', which int()
    rejects or silently reads."""
    return "0" <= ch <= "9"


def _tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and _is_digit(text[k]):
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed rational literal", j)
                den = int(text[j + 1:k])
                if not den:
                    raise ParseError("zero denominator in rational literal", i)
                out.append(_Token("num", Fraction(int(text[i:j]), den), i))
                i = k
            else:
                out.append(_Token("num", int(text[i:j]), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", None, n))
    return out


class _Parser:
    """Recursive descent over the tokens; every parse_* returns a fresh
    term dict that its caller may change in place."""

    def __init__(self, tokens, variables):
        self.toks = tokens
        self.i = 0
        self.variables = variables

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        self.i += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -1
        acc = self.parse_term()
        if sign < 0:
            acc = _neg(acc)
        while self.peek().kind in "+-":
            sign = 1 if self.take().kind == "+" else -1
            _add_into(acc, self.parse_term(), sign)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            acc = _mul(acc, self.parse_factor())
        return acc

    def parse_factor(self):
        if self.peek().kind == "-":
            self.take()
            return _neg(self.parse_factor())
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
            return _pow(base, int(tok.value))
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
            return {_ZERO_EXPS: tok.value} if tok.value else {}
        if tok.kind == "name":
            self.take()
            if tok.value not in self.variables:
                raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
            e = [0, 0, 0, 0]
            e[var_index(tok.value)] = 1
            return {tuple(e): 1}
        raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)


def parse_poly(text, variables=("x", "y")) -> MPoly:
    """Parse an exact polynomial expression over the given variables."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, frozenset(variables))
    terms = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input starting with {end.kind!r}", end.pos)
    return MPoly(terms)


def parse_upoly(text, var) -> UPoly:
    """Parse a univariate polynomial in the named variable."""
    from .mpoly import to_upoly_in

    return to_upoly_in(parse_poly(text, (var,)), var)


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------

def _monomial_str(exps):
    parts = []
    for name, e in zip(VARS, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_str(c: Fraction):
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_poly(p: MPoly) -> str:
    """Canonical string: graded-lex descending terms, explicit coefficients."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
    pieces = []
    for idx, (e, c) in enumerate(items):
        mono = _monomial_str(e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_coeff_str(mag)}*{mono}"
        else:
            body = _coeff_str(mag)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


def format_upoly(u: UPoly) -> str:
    from .mpoly import from_upoly

    return format_poly(from_upoly(u))


def format_value(v) -> str:
    """Canonical string for an assigned/singleton value: a rational number
    or a polynomial expression in the point's coordinates."""
    from .numfield import NFElement

    if isinstance(v, Fraction):
        return _coeff_str(v)
    if isinstance(v, NFElement):
        if v.is_rational():
            return _coeff_str(v.as_fraction())
        return format_poly(_nf_to_mpoly(v))
    return _coeff_str(Fraction(v))


def _nf_to_mpoly(v) -> MPoly:
    """Tower element as a polynomial in the tower variables x, y."""
    field = v.field
    return _rep_to_mpoly(*v.rep, [field.var(k) for k in range(field.depth)])


def _rep_to_mpoly(nums, den, names) -> MPoly:
    """The polynomial nums / den, integer numerators nested like a tower rep;
    names[k] is the variable of level k, the outermost level last."""
    slots = [VARS.index(name) for name in names]
    terms = {}

    def walk(nums, depth, exps):
        if depth == 0:
            if nums:
                terms[tuple(exps)] = Fraction(nums, den)
            return
        for k, c in enumerate(nums):
            e2 = list(exps)
            e2[slots[depth - 1]] += k
            walk(c, depth - 1, e2)

    walk(nums, len(names), [0, 0, 0, 0])
    return MPoly(terms)


def format_point(pt) -> str:
    """Canonical label of a point class: exact coordinates when rational,
    the triangular system otherwise, which depends on the field alone and
    is kept on it."""
    if pt.is_rational():
        x0, y0 = pt.coords()
        return f"({_coeff_str(x0)}, {_coeff_str(y0)})"
    field = pt.field
    if field._label is None:
        m1 = format_upoly(pt.m1())
        form = field.zlevels()[1]
        m2 = format_poly(_rep_to_mpoly(form, form[-1][0], ["x", "y"]))
        field._label = f"{{{m1} = 0, {m2} = 0}}"
    return field._label
