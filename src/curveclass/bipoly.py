"""Bivariate helpers: polynomials in Q[x, y] viewed as y-polynomials with
Z[x] coefficients, the integer y-rows of to_y_dense.  Every function here
takes and returns rows, except the two conversions: to_y_dense builds the
rows of an MPoly, and from_y_dense turns rows back into one.

Resultants pack each Z[x] coefficient into one integer (Kronecker
substitution at a power of two wide enough that the result unpacks
uniquely) and run the subresultant remainder sequence of the integer
kernel (_zpoly.zsubresultants) on the packed polynomials; the regular
subresultants of that sequence unpack the same way (YSubresultants).  The
bivariate gcd reads its y-part off the same sequence: the last nonzero
regular subresultant is the gcd over Q(x).
"""

import math

from . import _zpoly as zp
from .errors import InternalError, PreconditionError
from .mpoly import MPoly, var_index

_XI = var_index("x")
_YI = var_index("y")


def _y_grid(p: MPoly):
    """Dense rows over y of p's rational coefficients along x, gaps filled
    with int 0."""
    if p.degree_in("s") > 0 or p.degree_in("t") > 0:
        raise PreconditionError("expected a polynomial in x, y only")
    if p.is_zero():
        return []
    dy = max(e[_YI] for e in p.terms)
    dx = max(e[_XI] for e in p.terms)
    rows = [[0] * (dx + 1) for _ in range(dy + 1)]
    for e, c in p.terms.items():
        rows[e[_YI]][e[_XI]] = c
    return rows


def to_y_dense(p: MPoly):
    """MPoly in x, y  ->  dense list over y of Z[x] coefficient lists
    (a common rational denominator is dropped; roots and ideals survive)."""
    rows = _y_grid(p)
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    # the grid's int 0 gaps have a numerator and a denominator too
    return [zp.ztrim([c.numerator * (den // c.denominator) for c in r]) for r in rows]


def rows_at(rows, x0):
    """The fiber at the rational x0 = n/d of the polynomial whose integer
    y-rows are rows: d**D * p(n/d, y) in Z[y], D the x-degree of p, trimmed;
    it keeps the roots of p(x0, y)."""
    n, d = x0.numerator, x0.denominator
    dx = max(map(len, rows)) - 1
    return zp.ztrim([zp.zeval_frac(row, n, d) * d ** (dx + 1 - len(row)) for row in rows])


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


def bivariate_gcd(a, b):
    """gcd of two polynomials of Q[x, y] given by their integer y-rows, as
    rows, primitive over Z with positive leading coefficient; [[1]] when
    coprime, the other operand when one is 0.  Its Z[x] content is the gcd
    of the operands' contents; its y-part the primitive part of the gcd
    over Q(x): the last nonzero regular subresultant when the sequence ends
    in a vanishing remainder (Ducos, JPAA 145, 2000), 1 otherwise."""
    if not a:
        return b
    if not b:
        return a
    cg = zp.zgcd(y_content(a), y_content(b))
    sres = YSubresultants(a, b)
    gy = sres.rows(len(sres.degrees) - 2) if sres.degrees[-1] < 0 else [[1]]
    return [zp.zmul(row, cg) for row in y_primitive(gy)]


# ---------------------------------------------------------------------------
# resultant: subresultant PRS on Kronecker-packed rows
# ---------------------------------------------------------------------------

def resultant_y(a, b):
    """Res_y of the polynomials whose integer y-rows are a and b, exactly,
    as an integer polynomial in x.

    Each row is packed at X = 2**W into one integer and the resultant of the
    packed polynomials is Res evaluated at X.  Each Sylvester row has
    1-norm |a|_1 or |b|_1 and |det|_1 is at most the product of the row
    1-norms, so every coefficient of Res lies below 2**(W-2) and its
    balanced base-X digits are unique."""
    return YSubresultants(a, b).resultant()


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
    sequence starts from: those of larger y-degree, a's on a tie.  Each
    principal(i) and rows(i) is unpacked once per instance, since every
    chunk of a locus solve reads the same chain, and kept as tuples: every
    call hands out fresh lists."""

    __slots__ = ("lead", "degrees", "_pairs", "_width", "_count", "_principal", "_rows")

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
        self._principal = {}  # i -> s_j as a tuple
        self._rows = {}  # i -> the rows of S_j as tuples

    def _unpack(self, c):
        return zp._unpack(c, self._width, self._count)

    def resultant(self):
        return self._unpack(self._pairs[-1][1])

    def principal(self, i):
        s = self._principal.get(i)
        if s is None:
            s = self._principal[i] = tuple(self._unpack(self._pairs[i][1]))
        return list(s)

    def rows(self, i):
        rows = self._rows.get(i)
        if rows is None:
            r, s = self._pairs[i]
            rows = self._rows[i] = tuple(tuple(self._unpack(c * s // r[-1])) for c in r)
        return [list(row) for row in rows]


def _norm1_bits(rows):
    return sum(abs(c) for r in rows for c in r).bit_length()


def bivariate_divexact_y(a, b):
    """The rows of the exact quotient a / b in Z[x][y] of two polynomials
    given by their integer y-rows (long division in y, each leading
    coefficient divided exactly in Z[x]); None when b does not divide a
    there.  For a primitive b that divides a over Q(x), Gauss's lemma puts
    the quotient in Z[x][y]."""
    a = list(a)
    db = len(b) - 1
    quot = [[] for _ in range(len(a) - db)]
    for k in range(len(a) - 1 - db, -1, -1):
        if a[k + db]:
            try:
                quot[k] = q = zp.zdivexact(a[k + db], b[-1])
            except ValueError:
                return None
            for i in range(db + 1):
                a[k + i] = zp.zsub(a[k + i], zp.zmul(q, b[i]))
    return None if any(a) else quot


def squarefree_part_y(rows):
    """The rows of p / gcd(p, p_y), p given by its integer y-rows: the same
    distinct y-roots over the function field Q(x), all simple; the gcd
    holds the primitive part of p's Z[x] content, so that goes too."""
    d = deriv_y(rows)
    if not d:
        return rows
    g = bivariate_gcd(rows, d)
    if g == [[1]]:
        return rows
    q = bivariate_divexact_y(rows, g)
    if q is None:
        raise InternalError("inexact bivariate division")
    return q
