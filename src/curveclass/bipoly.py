"""Bivariate helpers: polynomials in Q[x, y] viewed as y-polynomials with
Z[x] coefficients, the integer y-rows of to_y_dense.  YSubresultants and
the row helpers take and return rows; the MPoly entry points build each
operand's rows once, and from_y_dense turns rows back into an MPoly.

Resultants pack each Z[x] coefficient into one integer (Kronecker
substitution at a power of two wide enough that the result unpacks
uniquely) and run the subresultant remainder sequence of the integer
kernel (_zpoly.zsubresultants) on the packed polynomials; the regular
subresultants of that sequence unpack the same way (YSubresultants).  The
bivariate gcd reads its y-part off the same sequence: the last nonzero
regular subresultant is the gcd over Q(x).
"""

import math
from fractions import Fraction

from . import _zpoly as zp
from .errors import InternalError, PreconditionError
from .mpoly import MPoly, var_index
from .unipoly import UPoly

_XI = var_index("x")
_YI = var_index("y")


def _y_grid(p: MPoly, zero):
    """Dense rows over y of p's coefficients along x, gaps filled with zero."""
    if p.degree_in("s") > 0 or p.degree_in("t") > 0:
        raise PreconditionError("expected a polynomial in x, y only")
    if p.is_zero():
        return []
    dy = max(e[_YI] for e in p.terms)
    dx = max(e[_XI] for e in p.terms)
    rows = [[zero] * (dx + 1) for _ in range(dy + 1)]
    for e, c in p.terms.items():
        rows[e[_YI]][e[_XI]] = c
    return rows


def to_y_dense(p: MPoly):
    """MPoly in x, y  ->  dense list over y of Z[x] coefficient lists
    (a common rational denominator is dropped; roots and ideals survive)."""
    rows = _y_grid(p, 0)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    # the grid's int 0 gaps have a numerator and a denominator too
    return [zp.ztrim([c.numerator * (den // c.denominator) for c in r]) for r in rows]


def y_rows(p: MPoly):
    """MPoly in x, y  ->  dense list over y of UPolys in x over Q, exact
    (the rational twin of to_y_dense); from_y_dense inverts it on the
    rows' coefficients."""
    return [UPoly("x", r) for r in _y_grid(p, Fraction(0))]


def deriv_y(rows):
    """The y-rows of dF/dy: row j is (j + 1) * rows[j + 1]."""
    return [zp.zscale(rows[j], j) for j in range(1, len(rows))]


def deriv_x(rows):
    """The y-rows of dF/dx, top zero rows dropped."""
    return _trim_y([zp.zderiv(r) for r in rows])


def _trim_y(rows):
    n = len(rows)
    while n and not rows[n - 1]:
        n -= 1
    return rows[:n]


def from_y_dense(rows) -> MPoly:
    """Rows over y of x-coefficient sequences (integers or rationals)  ->
    MPoly in x, y."""
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                e = [0, 0, 0, 0]
                e[_XI], e[_YI] = i, j
                terms[tuple(e)] = c
    return MPoly(terms)


def y_content(rows):
    """True gcd in Z[x] of all y-coefficients (Gauss: integer content gcd
    times the gcd of primitive parts)."""
    ic = 0
    g = None
    for row in rows:
        if not row:
            continue
        ic = math.gcd(ic, zp.zcontent(row))
        g = zp.zprimitive(row) if g is None else zp.zgcd(g, row)
        if g == [1] and ic == 1:
            return [1]
    if g is None:
        return []
    return zp.zscale(g, ic)


def y_primitive(rows, content=None):
    """Divide out the Z[x] content (y_content of rows, unless the caller
    passes it); leading y-coefficient made positive-lc."""
    rows = _trim_y(rows)
    if not rows:
        return rows
    g = y_content(rows) if content is None else content
    if g != [1]:
        rows = [zp.zdivexact(r, g) if r else [] for r in rows]
    if rows[-1][-1] < 0:
        rows = [zp.zneg(r) for r in rows]
    return rows


def bivariate_gcd(p: MPoly, q: MPoly) -> MPoly:
    """gcd of two polynomials of Q[x, y], primitive over Z with positive
    leading coefficient; constant 1 when coprime.  Its Z[x] content is the
    gcd of the operands' contents; its y-part is the primitive part of the
    gcd over Q(x): the last nonzero regular subresultant when the sequence
    ends in a vanishing remainder (Ducos, JPAA 145, 2000), 1 otherwise."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    a, b = to_y_dense(p), to_y_dense(q)
    cg = zp.zgcd(y_content(a), y_content(b))
    sres = YSubresultants(a, b)
    gy = sres.rows(len(sres.degrees) - 2) if sres.degrees[-1] < 0 else [[1]]
    out = [zp.zmul(row, cg) for row in y_primitive(gy)]
    return from_y_dense(out)


# ---------------------------------------------------------------------------
# resultant: subresultant PRS on Kronecker-packed rows
# ---------------------------------------------------------------------------

def resultant_y(p: MPoly, q: MPoly) -> UPoly:
    """Res_y of the to_y_dense rows of p and q, exactly, as a polynomial in
    x: Res_y(p, q) up to the positive factor of the dropped denominators.

    Each row is packed at X = 2**W into one integer and the resultant of the
    packed polynomials is Res evaluated at X.  Each Sylvester row has
    1-norm |a|_1 or |b|_1 and |det|_1 is at most the product of the row
    1-norms, so every coefficient of Res lies below 2**(W-2) and its
    balanced base-X digits are unique."""
    return YSubresultants(to_y_dense(p), to_y_dense(q)).resultant()


class YSubresultants:
    """The regular subresultants S_j of the integer y-rows a and b (the
    to_y_dense form), in y over Z[x], from the one remainder sequence that
    resultant_y runs on the packed rows (_zpoly.zsubresultants).  Every
    coefficient of an S_j is a minor of the Sylvester matrix, so the bound
    that makes the resultant's digits unique holds for them too, and they
    unpack the same way, on demand.

    degrees lists j, descending, down to 0 (S_0 is the resultant), or
    to -1 (S = 0) when a and b share a factor;
    principal(i) is s_j in Z[x] and rows(i) the y-rows of S_j over Z[x],
    for j = degrees[i].  lead is the leading y-coefficient of the rows the
    sequence starts from: those of larger y-degree, a's on a tie."""

    __slots__ = ("lead", "degrees", "_pairs", "_width", "_count")

    def __init__(self, a, b):
        m, n = len(a) - 1, len(b) - 1
        if m < 0 or n < 0:
            raise PreconditionError("resultant of the zero polynomial")
        w = n * _norm1_bits(a) + m * _norm1_bits(b) + 2
        self._pairs = zp.zsubresultants([zp._pack(r, w) for r in a], [zp._pack(r, w) for r in b])
        self._width = w
        # n * deg_x(a) + m * deg_x(b) bounds the x-degree of every minor
        self._count = n * (max(map(len, a)) - 1) + m * (max(map(len, b)) - 1) + 1
        self.lead = (a if m >= n else b)[-1]
        self.degrees = [len(r) - 1 for r, _ in self._pairs]

    def _unpack(self, c):
        return zp._unpack(c, self._width, self._count)

    def resultant(self) -> UPoly:
        return UPoly.from_ints("x", self._unpack(self._pairs[-1][1]))

    def principal(self, i):
        return self._unpack(self._pairs[i][1])

    def rows(self, i):
        r, s = self._pairs[i]
        return [self._unpack(c * s // r[-1]) for c in r]


def _norm1_bits(rows):
    return sum(abs(c) for r in rows for c in r).bit_length()


def bivariate_divexact_y(p: MPoly, g: MPoly) -> MPoly:
    """Exact quotient p / g of polynomials in Q[x, y] (long division in y;
    each leading-coefficient division is exact in Q[x] by Gauss)."""
    a, b = y_rows(p), y_rows(g)
    db = len(b) - 1
    quot = [UPoly("x", ()) for _ in range(len(a) - db)]
    while a and len(a) - 1 >= db:
        while a and a[-1].is_zero():
            a.pop()
        if not a or len(a) - 1 < db:
            break
        q, r = a[-1].divmod(b[-1])
        if r:
            raise InternalError("inexact bivariate division")
        k = len(a) - 1 - db
        quot[k] = q
        for i in range(db + 1):
            a[k + i] = a[k + i] - q * b[i]
        a.pop()
    if any(a):
        raise InternalError("inexact bivariate division")
    return from_y_dense([q.coeffs for q in quot])


def squarefree_part_y(p: MPoly) -> MPoly:
    """Squarefree part of p with respect to y (same distinct y-roots over
    the function field Q(x))."""
    d = p.deriv("y")
    if d.is_zero():
        return p
    g = bivariate_gcd(p, d)
    if g.is_constant():
        return p
    return bivariate_divexact_y(p, g)
