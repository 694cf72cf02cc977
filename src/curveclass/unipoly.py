"""Univariate polynomials over Q and over algebraic extension towers.

UPoly is a dense coefficient sequence (lowest degree first) in one named
variable.  Coefficients are Fractions in the rational case and tower
elements (numfield.NFElement) otherwise; both support field arithmetic
through operator overloading, so one remainder sequence (remainder_sequence),
making no remainder monic, serves the gcd, squarefree part and Sturm chain
of tower polynomials.  Rational operations (gcd, Sturm counting, real root
isolation, deflating a rational root) go through the integer kernel _zpoly,
and so do squarefree parts of polynomials whose coefficients are all
rational, tower elements with rational values included.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from . import _zpoly as zp
from .errors import DegenerateInputError, InternalError, PreconditionError


class UPoly:
    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.var = var
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def from_ints(cls, var, ints):
        return cls(var, [Fraction(c) for c in ints])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(self.var, [other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(self.var, out)

    def __sub__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(self.var, [other])
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return UPoly(self.var, out)

    def __neg__(self):
        return UPoly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return UPoly(self.var, [c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly(self.var, ())
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod = ca * cb
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        return UPoly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PreconditionError(f"negative exponent {n}")
        acc = UPoly(self.var, [1])
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def derivative(self):
        return UPoly(self.var, [i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = Fraction(1) / self.coeffs[-1]
        return UPoly(self.var, [c * inv for c in self.coeffs])

    def eval(self, x):
        """Horner evaluation; x may be any ring element compatible with the
        coefficients (Fraction, tower element, UPoly for composition)."""
        if not self.coeffs:
            return x - x
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def divmod(self, other, inv=None):
        """Synthetic division over a field.  inv is 1 / lc(other) if the caller
        has it; else a lead other than 1 is inverted first, whatever the degrees."""
        if not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self.coeffs)
        db = other.degree
        if inv is None and other.lc() != 1:
            inv = Fraction(1) / other.lc()
        q = []
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[k + db] if inv is None else r[k + db] * inv
            q.append(c)
            if c:
                for i, cb in enumerate(other.coeffs):
                    r[k + i] = r[k + i] - c * cb
        q.reverse()
        return UPoly(self.var, q), UPoly(self.var, r[: db if db > 0 else 0])

    def __repr__(self):
        terms = " + ".join(
            f"({c})*{self.var}^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"UPoly[{terms or '0'}]"


def is_rational_poly(p: UPoly) -> bool:
    return all(isinstance(c, (Fraction, int)) for c in p.coeffs)


def to_zpoly(p: UPoly):
    """Clear denominators: returns (integer coefficient list, denominator)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    # integer arithmetic on each numerator: no Fraction product is built
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def remainder_sequence(a: UPoly, b: UPoly, monic_gcd=False):
    """[a, b, r_2, ...], r_(i+1) = -(r_(i-1) mod r_i), to the last nonzero
    remainder (a gcd); none is made monic.  Where a depth-2 tower inversion
    splits depends on the element inverted: each step inverts lc(r_i), as a
    Sturm chain does, or with monic_gcd the monic Euclid's lc(r_i) / lc(r_(i-2)),
    and then the last member comes back monic (for b != 0)."""
    seq, invs = [a], [None]  # invs[i] = 1 / lc(seq[i]); None for 1, and for a as is
    while b:
        inv = invs[-2] if monic_gcd and len(seq) > 1 else None
        e = b.lc() if inv is None else b.lc() * inv  # the lead tested
        if e != 1:  # 1 / lc(b) = inv / e
            inv = Fraction(1) / e if inv is None else Fraction(1) / e * inv
        seq.append(b)
        invs.append(inv)
        b = -seq[-2].divmod(b, inv)[1]
    if monic_gcd and invs[-1] is not None:
        seq[-1] = seq[-1] * invs[-1]
    return seq


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor over the coefficient field."""
    if a.is_zero() and b.is_zero():
        raise DegenerateInputError("gcd of two zero polynomials")
    if b.is_zero():
        return a.monic()
    if is_rational_poly(a) and is_rational_poly(b):
        return UPoly.from_ints(a.var, zp.zgcd(to_zpoly(a)[0], to_zpoly(b)[0])).monic()
    return remainder_sequence(a, b, True)[-1]


def nonzero_gcd(polys):
    """gcd of the nonzero polynomials of an iterable, taken in order and
    consumed only until the gcd is constant; None when all are zero.  A
    single nonzero one comes back as is: making it monic would invert its
    leading coefficient, which over a tower can split."""
    g = None
    for u in polys:
        if not u:
            continue
        g = u if g is None else upoly_gcd(g, u)
        if g.degree == 0:
            break
    return g


def _as_fractions(coeffs):
    """(Fractions, rebuild) when every coefficient is rational, rebuild
    mapping a Fraction back to the coefficients' ring; None otherwise.
    Tower elements are recognised by is_rational (numfield imports this
    module)."""
    rebuild = Fraction
    out = []
    for c in coeffs:
        if isinstance(c, (Fraction, int)):
            out.append(Fraction(c))
        elif c.is_rational():
            out.append(c.as_fraction())
            rebuild = c.field.from_fraction
        else:
            return None
    return out, rebuild


def squarefree_part(a: UPoly) -> UPoly:
    """a / gcd(a, a'), monic: same distinct roots, all simple.  Rational
    coefficients, tower elements with rational values included, go through
    the integer kernel: the monic squarefree part is unique, and a Euclid
    over Q meets no zero divisor, so no split is lost."""
    if a.is_zero():
        raise DegenerateInputError("zero polynomial has no squarefree part")
    rational = _as_fractions(a.coeffs)
    if rational is not None:
        fracs, rebuild = rational
        sf = zp.zsquarefree(to_zpoly(UPoly(a.var, fracs))[0])
        return UPoly(a.var, [rebuild(Fraction(c, sf[-1])) for c in sf])
    g = upoly_gcd(a, a.derivative())
    if g.degree == 0:
        return a.monic()
    q, r = a.divmod(g)
    if r:
        raise InternalError("squarefree_part: gcd does not divide the polynomial")
    return q.monic()


def count_distinct_complex_roots(a: UPoly) -> int:
    if a.is_zero():
        raise DegenerateInputError("zero polynomial")
    return squarefree_part(a).degree


def _deflate_rational_root(zcoeffs, root):
    """Exact division of a primitive integer polynomial by (x - root) for a
    rational root, in Z[x]."""
    # zcoeffs and den*x - num are primitive, so by Gauss's lemma the
    # quotient lies in Z[x] (and is primitive)
    try:
        return zp.zdivexact(zcoeffs, [-root.numerator, root.denominator])
    except ValueError:
        raise InternalError(f"{root} is not a root of the polynomial") from None


def _require_rational(a: UPoly, name):
    """The guard of the rational-only root functions: a nonzero polynomial
    with rational coefficients."""
    if a.is_zero():
        raise DegenerateInputError("zero polynomial")
    if not is_rational_poly(a):
        raise PreconditionError(f"{name} needs rational coefficients")


def sturm_count(a: UPoly, lo=None, hi=None) -> int:
    """Distinct real roots of squarefree rational a in the open interval
    (lo, hi); None means the corresponding infinity."""
    _require_rational(a, "sturm_count")
    za, _ = to_zpoly(a)
    if zp.zdeg(zp.zgcd(za, zp.zderiv(za))) > 0:
        raise PreconditionError("sturm_count needs a squarefree polynomial")
    za = zp.zprimitive(za)
    for endpoint in (lo, hi):
        if endpoint is not None:
            while zp.zsign_at(za, Fraction(endpoint)) == 0:
                za = _deflate_rational_root(za, Fraction(endpoint))
    if zp.zdeg(za) <= 0:
        return 0
    chain = zp.sturm_chain(za)
    return zp.sturm_count(
        chain,
        None if lo is None else Fraction(lo),
        None if hi is None else Fraction(hi),
    )


class IsolatingInterval(NamedTuple):
    low: Fraction
    high: Fraction

    def width(self):
        return self.high - self.low

    def mid(self):
        return (self.low + self.high) / 2


def isolate_real_roots(a: UPoly):
    """Disjoint isolating intervals, one per distinct real root of the
    squarefree part of a, ascending and Sturm-certified."""
    _require_rational(a, "isolate_real_roots")
    za, _ = to_zpoly(a)
    return [IsolatingInterval(lo, hi) for lo, hi in zp.zisolate(za)]


def rational_roots(a: UPoly):
    _require_rational(a, "rational_roots")
    za, _ = to_zpoly(a)
    return zp.zrational_roots(za)
