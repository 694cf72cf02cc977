import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass.bipoly import (
    bivariate_divexact_y,
    bivariate_gcd,
    from_y_dense,
    resultant_y,
    y_rows,
)
from curveclass.mpoly import MPoly
from curveclass.parsing import parse_poly
from curveclass.unipoly import rational_roots, squarefree_part

X, Y = MPoly.var("x"), MPoly.var("y")


def test_resultant_simple_intersection():
    # Res_y(y - x^2, y - 1) vanishes exactly where x^2 = 1
    r = resultant_y(Y - X**2, Y - 1)
    assert set(rational_roots(r)) == {Fraction(-1), Fraction(1)}


def test_resultant_discriminant_of_cusp():
    # Res_y(y^2 - x^3, 2y) ~ x^3
    r = resultant_y(Y**2 - X**3, 2 * Y)
    assert rational_roots(r) == [Fraction(0)]
    assert squarefree_part(r).degree == 1


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
        r = resultant_y(a, b)
        # oracle: at a rational sample x0, the resultant of the specialized
        # univariate polynomials must vanish iff they share a root
        for x0 in (Fraction(0), Fraction(1), Fraction(-2)):
            sa = [sum(c * x0 ** e[2] for e, c in a.terms.items() if e[3] == j) for j in range(3)]
            sb = [sum(c * x0 ** e[2] for e, c in b.terms.items() if e[3] == j) for j in range(2)]
            # resultant of quadratic sa and linear sb: sa evaluated at root of sb
            if sb[1]:
                root = -sb[0] / sb[1]
                val = sa[0] + sa[1] * root + sa[2] * root * root
                rv = sum(c * x0 ** i for i, c in enumerate(r.coeffs))
                assert (val == 0) == (rv == 0)


def test_bivariate_gcd_common_factor():
    f = (Y - X**2) * (Y**2 + X + 1)
    g = (Y - X**2) * (Y + 3)
    got = bivariate_gcd(f, g)
    assert got in (Y - X**2, -(Y - X**2))


def test_bivariate_gcd_coprime():
    got = bivariate_gcd(Y**2 - X**3, X)
    assert got.is_constant()


def test_bivariate_gcd_detects_vertical_component():
    f = X * (Y - 1)
    got = bivariate_gcd(f, X)
    assert got == X


def test_bivariate_divexact_y_keeps_rational_factors():
    # the quotient is exact in Q[x, y]: no content of p or g is dropped
    got = bivariate_divexact_y(parse_poly("1/2*x*y + 1/2*x"), parse_poly("y + 1"))
    assert got == parse_poly("1/2*x")
    got = bivariate_divexact_y(parse_poly("y^2 - x^2"), parse_poly("1/3*y - 1/3*x"))
    assert got == parse_poly("3*x + 3*y")


_xy_monos = [(i, j) for i in range(4) for j in range(4)]
_xy_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_xy_polys = st.dictionaries(st.sampled_from(_xy_monos), _xy_coeffs, max_size=6).map(
    lambda d: MPoly({(0, 0, i, j): c for (i, j), c in d.items()})
)


@settings(deadline=None)
@given(_xy_polys)
def test_y_rows_round_trip(p):
    rows = y_rows(p)
    assert from_y_dense([r.coeffs for r in rows]) == p
    assert all(r.var == "x" for r in rows)
    assert not rows or rows[-1]  # the top row is the leading y-coefficient
