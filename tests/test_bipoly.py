import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from curveclass import _zpoly as zp
from curveclass.bipoly import (
    bivariate_divexact_y,
    bivariate_gcd,
    deriv_y,
    from_y_dense,
    resultant_y,
    squarefree_part_y,
    to_y_dense,
)
from curveclass.errors import InternalError
from curveclass.mpoly import MPoly
from curveclass.parsing import parse_poly
from curveclass.unipoly import UPoly

X, Y = MPoly.var("x"), MPoly.var("y")


def y_rows(p: MPoly):
    """Oracle: p in x, y as exact rows over y of UPolys in x over Q, the
    rational twin of to_y_dense that the library kept before every bipoly
    function moved onto integer rows."""
    if p.is_zero():
        return []
    grid = [[Fraction(0)] * (p.degree_in("x") + 1) for _ in range(p.degree_in("y") + 1)]
    for e, c in p.terms.items():
        grid[e[3]][e[2]] = c
    return [UPoly("x", row) for row in grid]


def _resultant(p, q):
    return resultant_y(to_y_dense(p), to_y_dense(q))


def _gcd(p, q):
    return from_y_dense(bivariate_gcd(to_y_dense(p), to_y_dense(q)))


def test_resultant_simple_intersection():
    # Res_y(y - x^2, y - 1) vanishes exactly where x^2 = 1
    r = _resultant(Y - X**2, Y - 1)
    assert set(zp.zrational_roots(r)) == {Fraction(-1), Fraction(1)}


def test_resultant_discriminant_of_cusp():
    # Res_y(y^2 - x^3, 2y) ~ x^3
    r = _resultant(Y**2 - X**3, 2 * Y)
    assert zp.zrational_roots(r) == [Fraction(0)]
    assert zp.zdeg(zp.zsquarefree(r)) == 1


def test_resultant_matches_root_products_numerically():
    rng = random.Random(3)
    for _ in range(20):
        # random y-quadratics with Z[x] coefficients
        def rand_poly(dy):
            p = MPoly()
            for j in range(dy + 1):
                for i in range(3):
                    c = rng.randint(-3, 3)
                    if c:
                        p = p + c * X**i * Y**j
            return p + Y ** (dy + 1)  # force the y-degree, monic

        a, b = rand_poly(1), rand_poly(0)
        r = _resultant(a, b)
        # oracle: at a rational sample x0, the resultant of the specialized
        # univariate polynomials must vanish iff they share a root
        for x0 in (Fraction(0), Fraction(1), Fraction(-2)):
            sa = [sum(c * x0 ** e[2] for e, c in a.terms.items() if e[3] == j) for j in range(3)]
            sb = [sum(c * x0 ** e[2] for e, c in b.terms.items() if e[3] == j) for j in range(2)]
            # resultant of quadratic sa and linear sb: sa evaluated at root of sb
            if sb[1]:
                root = -sb[0] / sb[1]
                val = sa[0] + sa[1] * root + sa[2] * root * root
                rv = sum(c * x0 ** i for i, c in enumerate(r))
                assert (val == 0) == (rv == 0)


def test_bivariate_gcd_common_factor():
    f = (Y - X**2) * (Y**2 + X + 1)
    g = (Y - X**2) * (Y + 3)
    got = _gcd(f, g)
    assert got in (Y - X**2, -(Y - X**2))


def test_bivariate_gcd_coprime():
    assert bivariate_gcd(to_y_dense(Y**2 - X**3), to_y_dense(X)) == [[1]]


def test_bivariate_gcd_detects_vertical_component():
    f = X * (Y - 1)
    got = _gcd(f, X)
    assert got == X


def test_bivariate_divexact_y_keeps_rational_factors():
    # the quotient is exact in Z[x][y]: no content of either operand is
    # dropped, and a content of the divisor that the dividend lacks makes
    # the division inexact, and an inexact division returns None
    a = to_y_dense(parse_poly("2*x*y + 2*x"))
    assert bivariate_divexact_y(a, to_y_dense(parse_poly("y + 1"))) == [[0, 2]]
    assert bivariate_divexact_y(a, [[2], [2]]) == [[0, 1]]
    # (y^2 - x^2) / (3y - 3x) = (y + x) / 3
    assert bivariate_divexact_y(to_y_dense(parse_poly("y^2 - x^2")), [[0, -3], [3]]) is None
    assert bivariate_divexact_y(to_y_dense(parse_poly("y^2 - x")), [[0, -1], [1]]) is None
    assert bivariate_divexact_y([[1]], [[0, -1], [1]]) is None  # a y-degree too low


def test_squarefree_part_y_raises_on_an_inexact_division(monkeypatch):
    # the gcd divides p exactly, so an inexact division is an internal fault
    from curveclass import bipoly

    monkeypatch.setattr(bipoly, "bivariate_gcd", lambda a, b: [[1], [1]])  # y + 1
    with pytest.raises(InternalError):
        squarefree_part_y(to_y_dense(parse_poly("y^2 - x")))


_xy_monos = [(i, j) for i in range(4) for j in range(4)]
_xy_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_xy_polys = st.dictionaries(st.sampled_from(_xy_monos), _xy_coeffs, max_size=6).map(
    lambda d: MPoly({(0, 0, i, j): c for (i, j), c in d.items()})
)


@settings(deadline=None)
@given(_xy_polys)
def test_y_rows_round_trip(p):
    # the integer y-rows are p times the least common denominator of its
    # coefficients, each row trimmed
    rows = to_y_dense(p)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    assert from_y_dense(rows) == p * den
    assert all(type(c) is int for r in rows for c in r)
    assert all(not r or r[-1] for r in rows)
    assert not rows or rows[-1]  # the top row is the leading y-coefficient
    assert [list(r.coeffs) for r in y_rows(p * den)] == [[Fraction(c) for c in r] for r in rows]


# -- the subresultant resultant, against the Sylvester/Bareiss determinant --


def _bareiss(mat):
    """Reference: fraction-free determinant of a matrix of Z[x] entries,
    the elimination that the subresultant sequence replaced."""
    n = len(mat)
    total_bits = 16 + n.bit_length() * n
    for row in mat:
        total_bits += max((zp._max_bits(e) for e in row), default=0)
        total_bits += max((len(e) for e in row), default=1).bit_length()
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not mat[k][k]:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = zp.zsub(zp.zmul(mat[i][j], pivot), zp.zmul(mat[i][k], mat[k][j]))
                mat[i][j] = zp.zdivexact(num, prev, quot_bits=total_bits) if num else []
            mat[i][k] = []
        prev = pivot
    out = mat[n - 1][n - 1]
    return zp.zneg(out) if sign < 0 else out


def _sylvester_resultant(a, b):
    """Reference: the determinant of the Sylvester matrix of two rows lists
    over Z[x] (highest y-power first in each matrix row)."""
    m, n = len(a) - 1, len(b) - 1
    if m == 0 or n == 0:
        base, power = (a[0], n) if m == 0 else (b[0], m)
        acc = [1]
        for _ in range(power):
            acc = zp.zmul(acc, base)
        return acc
    size = m + n
    mat = []
    for rows, count in ((a, n), (b, m)):
        for i in range(count):
            row = [[] for _ in range(size)]
            for j, c in enumerate(reversed(rows)):
                row[i + j] = list(c)
            mat.append(row)
    return _bareiss(mat)


def _reference_resultant_y(p, q):
    return _sylvester_resultant(to_y_dense(p), to_y_dense(q))


@st.composite
def _y_poly(draw, coeff):
    """A polynomial of y-degree 0-7 and x-degree 0-8 with a nonzero top row,
    coefficients drawn from `coeff`."""
    dy, dx = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        terms[(0, 0, draw(st.integers(0, dx)), draw(st.integers(0, dy)))] = draw(coeff)
    terms[(0, 0, draw(st.integers(0, dx)), dy)] = draw(coeff.filter(bool))
    return MPoly({e: c for e, c in terms.items() if c})


_big_ints = st.integers(-(2**64), 2**64)
_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=2**20)


@pytest.mark.parametrize("coeff", [_big_ints, _rationals], ids=["int", "rational"])
@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_resultant_y_equals_the_sylvester_determinant(coeff, data):
    p, q = data.draw(_y_poly(coeff)), data.draw(_y_poly(coeff))
    assert _resultant(p, q) == _reference_resultant_y(p, q)


_SINGULAR = parse_poly("(y^4 + x^5)*(y^2 - (x^2 + 1)^2*(x - 3)^3)")


@pytest.mark.parametrize("p, q", [
    # deg p < deg q, both odd: the swap costs a sign
    (parse_poly("y^3 + x*y + 1"), parse_poly("y^5 - x^2*y^2 + 3*x - 7")),
    (parse_poly("2*y - x"), parse_poly("y^3 + x^2*y + 5")),
    # y-gaps: remainder degrees drop by 2 or more
    (parse_poly("y^6 + x"), parse_poly("y^3 + x^2")),
    (parse_poly("y^7 - x*y + 1"), parse_poly("y^4 - x^3")),
    # a shared factor: zero resultant
    (parse_poly("(y - x)*(y + 1)"), parse_poly("(y - x)*(y^2 + x)")),
    # constant in y on either side, and both
    (parse_poly("x^2 + 1"), parse_poly("y^3 + x")),
    (parse_poly("y^4 - x*y"), parse_poly("-3*x + 2")),
    (parse_poly("x - 5"), parse_poly("7")),
    # the singular locus of a (y^4 + x^k)(y^2 - a(x)) curve
    (_SINGULAR.deriv("y"), _SINGULAR.deriv("x")),
    (_SINGULAR, _SINGULAR.deriv("y")),
])
def test_resultant_y_fixed_cases(p, q):
    want = _reference_resultant_y(p, q)
    assert _resultant(p, q) == want
    # Res(q, p) = (-1)**(deg p * deg q) Res(p, q)
    flip = (p.degree_in("y") * q.degree_in("y")) % 2
    assert _resultant(q, p) == (zp.zneg(want) if flip else want)


def test_resultant_y_of_a_shared_factor_is_zero():
    assert _resultant(parse_poly("(y - x)*(y + 1)"), parse_poly("(y - x)*(y^2 + x)")) == []


_zpolys = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=9).map(zp.ztrim).filter(bool)


@settings(deadline=None, max_examples=200)
@given(_zpolys, _zpolys)
def test_zresultant_equals_the_sylvester_determinant(a, b):
    want = _sylvester_resultant([[c] if c else [] for c in a], [[c] if c else [] for c in b])
    assert zp.zsubresultants(a, b)[-1][1] == (want[0] if want else 0)


# -- the regular subresultants of the same sequence, against determinants --
from curveclass.bipoly import YSubresultants  # noqa: E402


def _sylvester_subresultant(a, b, j):
    """Reference: S_j of two rows lists over Z[x] (deg a >= deg b > j) by
    determinants: the rows y^(n-j-1) a, ..., a, y^(m-j-1) b, ..., b of the
    Sylvester matrix, on the columns of y^(m+n-j-1) down to y^(j+1) and then
    the column of y^i, give the coefficient of y^i."""
    m, n = len(a) - 1, len(b) - 1
    width = m + n - j
    rows = [[[] for _ in range(k)] + list(a) for k in range(n - j - 1, -1, -1)]
    rows += [[[] for _ in range(k)] + list(b) for k in range(m - j - 1, -1, -1)]
    rows = [r + [[] for _ in range(width - len(r))] for r in rows]
    head = list(range(width - 1, j, -1))
    return [
        _bareiss([[list(r[c]) for c in head] + [list(r[i])] for r in rows]) for i in range(j + 1)
    ]


def _check_subresultants(a, b, sres_of):
    """Every pair of the sequence is +-S_j by determinants, and every j < n
    outside it has a defective S_j (principal coefficient 0)."""
    if len(a) < len(b):
        a, b = b, a
    m, n = len(a) - 1, len(b) - 1
    degrees, principal, rows = sres_of
    assert degrees == sorted(degrees, reverse=True) and degrees[0] == n
    for i, j in enumerate(degrees):
        if j < 0:  # a vanishing remainder: the resultant is 0
            assert i == len(degrees) - 1 and not principal(i)
            continue
        if j == n == 0:  # b constant: S_0 is the resultant b**m
            want = [_power(b[0], m)]
        elif j == n:  # lc(b)**(m - n - 1) * b, and b itself when m = n
            want = [zp.zmul(c, _power(b[-1], max(m - n - 1, 0))) for c in b]
        else:
            want = [zp.ztrim(c) for c in _sylvester_subresultant(a, b, j)]
        got = rows(i)
        assert got == want or got == [zp.zneg(c) for c in want]
        assert principal(i) == got[-1]
    last = degrees[-1]
    for j in range(max(last, 0), n):
        if j not in degrees:
            assert not _sylvester_subresultant(a, b, j)[j]


def _power(c, e):
    acc = [1]
    for _ in range(e):
        acc = zp.zmul(acc, c)
    return acc


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_subresultants_y_are_the_sylvester_minors(data):
    small = st.integers(-20, 20)
    p, q = data.draw(_y_poly(small)), data.draw(_y_poly(small))
    if p.degree_in("y") < 1 or q.degree_in("y") < 1:
        return
    s = YSubresultants(to_y_dense(p), to_y_dense(q))
    _check_subresultants(to_y_dense(p), to_y_dense(q), (s.degrees, s.principal, s.rows))
    assert s.resultant() == _resultant(p, q)


@pytest.mark.parametrize("p, q", [
    # delta = 0 on the first step: S_n is q itself
    (parse_poly("y^3 + x*y + 1"), parse_poly("(x + 2)*y^3 - x^2*y^2 + 3*x - 7")),
    # y-gaps: defective steps, remainder degrees drop by 2 or more
    (parse_poly("y^6 + x"), parse_poly("y^3 + x^2")),
    (parse_poly("y^7 - x*y + 1"), parse_poly("y^4 - x^3")),
    # the shorter input first, and a shared factor
    (parse_poly("y^2 - x"), parse_poly("y^5 + x*y^2 - 1")),
    (parse_poly("(y - x)*(y + 1)"), parse_poly("(y - x)*(y^2 + x)")),
    (_SINGULAR, _SINGULAR.deriv("y")),
])
def test_subresultants_y_fixed_cases(p, q):
    s = YSubresultants(to_y_dense(p), to_y_dense(q))
    _check_subresultants(to_y_dense(p), to_y_dense(q), (s.degrees, s.principal, s.rows))


@settings(deadline=None, max_examples=150)
@given(_zpolys, _zpolys)
def test_zsubresultants_principal_coefficients_are_cohens_h(a, b):
    # integer inputs: each pair (r, s) has s = +-s_j by determinants, and
    # s * r / lc(r) is exact
    chain = zp.zsubresultants(a, b)
    for r, s in chain:
        assert all(c * s % r[-1] == 0 for c in r)

    def rows(i):
        r, s = chain[i]
        return [[c * s // r[-1]] if c else [] for c in r]

    def principal(i):
        return [chain[i][1]] if chain[i][1] else []

    lift = lambda p: [[c] if c else [] for c in p]  # noqa: E731
    _check_subresultants(lift(a), lift(b), ([len(r) - 1 for r, _ in chain], principal, rows))


# -- bivariate_gcd against the primitive y-PRS it replaced --
def _reference_prem_y(a, b):
    """Reference: pseudo-remainder in y; coefficients in Z[x]."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return _trim_y([list(row) for row in a])
    lb = b[-1]
    r = [list(row) for row in a]
    for k in range(da - db, -1, -1):
        r = _trim_y(r)
        if len(r) - 1 != k + db:
            r = [zp.zmul(row, lb) for row in r]
            continue
        top = r[-1]
        r = r[:-1]
        new = []
        for i, row in enumerate(r):
            t1 = zp.zmul(row, lb)
            j = i - k
            if 0 <= j <= db - 1:
                t1 = zp.zsub(t1, zp.zmul(b[j], top))
            new.append(t1)
        r = new
    return _trim_y(r)


def _reference_bivariate_gcd(a, b):
    """Reference: the gcd of two rows lists by a primitive PRS in y over Z[x]."""
    if not a:
        return b
    if not b:
        return a
    cg = zp.zgcd(y_content(a), y_content(b))
    pa, pb = y_primitive(a), y_primitive(b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while len(pb) > 1:
        r = _reference_prem_y(pa, pb)
        if not r:
            gy = pb
            break
        pa, pb = pb, y_primitive(r)
    else:
        gy = [[1]] if pb else pa
    return [zp.zmul(row, cg) for row in y_primitive(gy)]


from curveclass.bipoly import _trim_y, y_content, y_primitive  # noqa: E402

_X_FACTORS = [parse_poly(s) for s in ("x - 2", "2*x + 3", "x^2 - 2", "x^2 + 1", "x^3 - 2")]


@st.composite
def _gcd_operand(draw, coeff):
    """A polynomial of y-degree 0-3 and x-degree 0-3, possibly zero."""
    dy, dx = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        terms[(0, 0, draw(st.integers(0, dx)), draw(st.integers(0, dy)))] = draw(coeff)
    return MPoly({e: c for e, c in terms.items() if c})


_small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@pytest.mark.parametrize("coeff", [st.integers(-9, 9), _small_rationals], ids=["int", "rational"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_bivariate_gcd_equals_the_primitive_prs(coeff, data):
    shared = data.draw(st.sampled_from(["none", "y-factor", "x-factor", "both"]))
    g = MPoly.const(1)
    if shared in ("y-factor", "both"):
        g = g * data.draw(_gcd_operand(coeff).filter(lambda f: f.degree_in("y") >= 1))
    if shared in ("x-factor", "both"):
        g = g * data.draw(st.sampled_from(_X_FACTORS))
    a = to_y_dense(data.draw(_gcd_operand(coeff)) * g)
    b = to_y_dense(data.draw(_gcd_operand(coeff)) * g)
    got = bivariate_gcd(a, b)
    assert got == _reference_bivariate_gcd(a, b)
    if not a or not b:
        return
    # primitive over Z, positive leading coefficient, and a common divisor:
    # exact in Z[x][y], since the divisor is primitive (Gauss)
    assert zp.zcontent([c for r in got for c in r]) == 1 and got[-1][-1] > 0
    assert bivariate_divexact_y(a, got) and bivariate_divexact_y(b, got)
    if not g.is_constant():
        assert got != [[1]]


@pytest.mark.parametrize("p, q, want", [
    (parse_poly("(x^2 - 2)*(y^2 - x)"), parse_poly("x^2 - 2"), "x^2 - 2"),
    (parse_poly("(x^2 - 2)*(y^2 - x)"), parse_poly("(x^2 - 2)*y"), "x^2 - 2"),
    (parse_poly("-6*(x - 1)*(y - x)"), parse_poly("4*(x - 1)*(y - x)*(y + 1)"), "x*y - x^2 - y + x"),
    (parse_poly("y^3 + x"), parse_poly("x^2 + 1"), "1"),
    (parse_poly("3*x^2 + 3"), parse_poly("6*x^2 + 6"), "x^2 + 1"),
    (parse_poly("y - x"), MPoly(), "y - x"),
])
def test_bivariate_gcd_fixed_cases(p, q, want):
    a, b = to_y_dense(p), to_y_dense(q)
    got = bivariate_gcd(a, b)
    assert from_y_dense(got) == parse_poly(want)
    assert got == _reference_bivariate_gcd(a, b)


def test_bivariate_gcd_builds_each_operands_rows_once(monkeypatch):
    # the gcd that names a shared component takes the curve's rows and the
    # rows of q that the locus solve was given: no operand's rows are
    # built twice
    from curveclass import bipoly, curves
    from curveclass.errors import ZeroDivisorDenominatorError

    curve = curves.make_curve(parse_poly("(y - x)*(y^2 + x)"))
    calls = []
    to_y_dense = bipoly.to_y_dense
    for module in (bipoly, curves):
        monkeypatch.setattr(module, "to_y_dense", lambda p: calls.append(p) or to_y_dense(p))
    q = parse_poly("(y - x)*(x*y - 3)")
    with pytest.raises(ZeroDivisorDenominatorError) as exc:
        curves.bad_locus(curve, q)
    assert exc.value.component == parse_poly("y - x")
    assert calls == [q]


# -- exact division and squarefree parts on integer rows ----------------------
_int_operand = _gcd_operand(st.integers(-9, 9)).filter(bool)


@settings(deadline=None, max_examples=150)
@given(_int_operand, _int_operand)
def test_divexact_y_recovers_a_cofactor_of_a_primitive_divisor(A, B):
    B = B.primitive()
    a, b = to_y_dense(A), to_y_dense(B)
    assert bivariate_divexact_y(to_y_dense(A * B), b) == a
    if B.degree_in("y") >= 1:  # A*B + 1 leaves the remainder 1 modulo B
        assert bivariate_divexact_y(to_y_dense(A * B + 1), b) is None
    if zp.zcontent([c for r in a for c in r]) % 2:  # an odd content: 2B does not divide A*B
        assert bivariate_divexact_y(to_y_dense(A * B), [zp.zscale(r, 2) for r in b]) is None


@pytest.mark.parametrize("p, want", [
    # the primitive part of the Z[x] content goes with the repeated y-factors;
    # an integer content and the sign stay
    ("3*(x^2 - 2)*(y - x)^2*(y^2 + x)", "3*(y - x)*(y^2 + x)"),
    ("(x - 1)^2*(2*y + x)^3", "2*y + x"),
    ("-(x^2 + 1)*y^2*(y - 1)", "-y*(y - 1)"),
    ("2*(x - 3)*(y^2 - x)", "2*(y^2 - x)"),
    ("(x*y - 1)^2*(y + x)^3*(x^2 - 2)^2", "(x*y - 1)*(y + x)"),
    ("y^2 - x", "y^2 - x"),
    ("(x - 1)^2", "(x - 1)^2"),
])
def test_squarefree_part_y_strips_content_and_repeated_factors(p, want):
    got = squarefree_part_y(to_y_dense(parse_poly(p)))
    assert got == to_y_dense(parse_poly(want))
    if len(got) >= 2:
        assert bivariate_gcd(got, deriv_y(got)) == [[1]]
