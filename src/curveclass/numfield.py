"""Algebraic extension towers of depth 1 or 2 with dynamic evaluation.

A NumberField is a chain  Q -> Q[a]/(m1(a)) -> Q[a][b]/(m2(a, b))  whose
level polynomials are monic and squarefree over their base but are allowed
to be reducible: no factorization is ever performed up front.  Arithmetic
proceeds as if the tower were a field; the moment an inversion meets a
nontrivial zero divisor the offending factor is thrown as a SplitEvent
(classical dynamic evaluation) and the caller re-runs on each branch.

Real embeddings pair the tower with isolating intervals, one per level,
and narrow them on demand; sign queries combine interval refinement with
exact zero tests, so they are certified, never numeric guesses.  A zero
representation is signed 0 before any refinement.  Each level's interval
is a unipoly.IsolatingInterval.  Enclosures are computed by one interval
Horner over integer numerators on one denominator (_zhorner), and are
exactly the intervals that Fraction interval arithmetic gives, so how far a
shared embedding gets refined does not depend on how they are computed.  Root
counting, isolation and level-1 refinement for tower polynomials feed
these signs to the sign table of the integer kernel (_zpoly.SturmSigns),
so over Z and over a tower they are one implementation.

Everything inside runs on integers.  A field stores each level polynomial
m_k only as its integer form c_k * m_k, c_k the least positive integer
clearing its denominators (NumberField.zlevels): a tuple of ints at level
0, a tuple of such tuples (coefficients in the level-0 variable) at level
1.  An element's rep is (nums, den): integer numerators over one positive
denominator, nested like the level forms (a trimmed tuple of ints at depth
1, a trimmed tuple of trimmed tuples at depth 2), reduced modulo every
level and in lowest terms (no prime divides den and every numerator), so
each element has one rep and == and hash compare reps.  Zero is ((), 1).
A product is one integer convolution, pseudo-reduced by the level forms
(_zreduce) and brought to lowest terms once (_rnorm); a rational scalar
scales the numerators instead of entering a product.  A polynomial in x, y
is specialized at a tower point (the generators of its levels) the same
way: its coefficient grid is reduced modulo the level forms once
(NumberField.at_gens), with no Horner over tower elements.  Inversion at
depth 1 is an extended pseudo-remainder sequence against the level form;
at depth 2 the extended Euclid runs on lists of depth-1 reps over the base,
whose coefficient inversions take the depth-1 path, and makes no remainder
monic.
Fractions appear only at the edges: minpoly, from_fraction, as_fraction and
the enclosures.
"""

import itertools
import math
from fractions import Fraction

from . import _zpoly as zp
from .errors import InternalError
from .unipoly import IsolatingInterval, UPoly, remainder_sequence


class SplitEvent(Exception):
    """A zero divisor revealed a factor of a level polynomial.

    level: index of the tower level whose polynomial splits;
    factor_rep: the integer form of the monic factor over that level's base,
    stored like that level's form (NumberField.zlevels).
    """

    def __init__(self, level, factor_rep):
        self.level = level
        self.factor_rep = factor_rep
        super().__init__(f"zero divisor splits level {level}")


# ---------------------------------------------------------------------------
# rep arithmetic; `F` is the ambient tower and `depth` the rep's own depth:
# a depth-k rep lives in the first k levels of F, so one tower serves the
# products of its elements and of their coefficients
# ---------------------------------------------------------------------------

_ZERO = ((), 1)
_ONE = ((1,), 1)  # one at depth 1


def _rnorm(nums, den, depth):
    """The canonical rep of nums / den, den != 0, nums nested to depth:
    trimmed tuples over a positive denominator, in lowest terms."""
    if depth == 1:
        nums = zp.ztrim(nums)
        if not nums:
            return _ZERO
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g == 1:
            return tuple(nums), den
        return tuple(n // g for n in nums), den // g
    rows = [zp.ztrim(row) for row in nums]
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return _ZERO
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    if den < 0:
        g = -g
    return tuple(tuple(n // g for n in row) for row in rows), den // g


def _nscale(nums, k, depth):
    """Numerators nested to depth, times the integer k."""
    if depth == 1:
        return [n * k for n in nums]
    return [[n * k for n in row] for row in nums]


def _radd(a, b, depth):
    (na, da), (nb, db) = a, b
    if not na:
        return b
    if not nb:
        return a
    if da != db:
        g = math.gcd(da, db)
        na, nb, da = _nscale(na, db // g, depth), _nscale(nb, da // g, depth), da // g * db
    if depth == 1:
        return _rnorm(zp.zadd(na, nb), da, 1)
    return _rnorm([zp.zadd(ra, rb) for ra, rb in itertools.zip_longest(na, nb, fillvalue=())],
                  da, 2)


def _rneg(a, depth):
    nums, den = a
    if depth == 1:
        return tuple(-n for n in nums), den
    return tuple(tuple(-n for n in row) for row in nums), den


def _rscalar(a, k, depth):
    """Rep a times the rational k (an int or a Fraction)."""
    if not k or not a[0]:
        return _ZERO
    return _rnorm(_nscale(a[0], k.numerator, depth), a[1] * k.denominator, depth)


def _rmul(F, a, b, depth):
    """Fully reduced product of two depth-`depth` reps: one convolution of
    the numerators, then _rmod."""
    (na, da), (nb, db) = a, b
    if not na or not nb:
        return _ZERO
    if depth == 1:
        prod = zp.zmul(na, nb)
    else:
        prod = [[] for _ in range(len(na) + len(nb) - 1)]
        for i, ca in enumerate(na):
            if ca:
                for j, cb in enumerate(nb):
                    if cb:
                        prod[i + j] = zp.zadd(prod[i + j], zp.zmul(ca, cb))
    return _rmod(F, prod, da * db, depth)


def _rmod(F, nums, den, depth):
    """The rep of nums / den reduced modulo the level forms of F, whatever
    the degrees of the numerators."""
    nums, scale = _zreduce(F, nums, depth)
    return _rnorm(nums, den * scale, depth)


def _split(rows, den):
    """The depth-1 reps of the coefficients rows[i] / den over the top
    variable."""
    return [_rnorm(row, den, 1) for row in rows]


def _join(reps):
    """Depth-1 reps as one depth-2 rep (rows, den) over their least common
    denominator; the inverse of _split.  For the coefficients of a monic
    polynomial, rows is its integer form and den its leading entry."""
    den = math.lcm(*(d for _, d in reps))
    return tuple(nums if d == den else tuple(n * (den // d) for n in nums)
                 for nums, d in reps), den


# -- the integer kernel under _rmul and _rmod --------------------------------
# Level k is reduced by its integer form c_k * m_k (NumberField.zlevels),
# whose leading entry is the positive integer c_k.

def _zclear(grid, depth):
    """(nums, den) with grid = nums / den, den > 0, nested like the grid of
    rational coefficients (ints or Fractions)."""
    if depth == 1:
        den = math.lcm(*(c.denominator for c in grid))
        return [c.numerator * (den // c.denominator) for c in grid], den
    den = math.lcm(*(c.denominator for row in grid for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in grid], den


def _zrem(p, m, steps):
    """(r, c**steps) with c**steps * p = q * m + r and deg r < deg m, where
    c = m[-1] > 0 and steps >= deg p - deg m + 1: the pseudo-remainder of
    zpdivmod, times the power of c by which steps exceeds the needed count,
    so that several polynomials can share one power."""
    c = m[-1]
    r = zp.zpdivmod(p, m)[1]
    extra = c ** (steps - max(len(p) - len(m) + 1, 0))
    return ([x * extra for x in r] if extra != 1 else r), c**steps


def _zreduce(F, p, depth):
    """(r, s): r the integer numerators of s * p reduced modulo the level
    forms of F, s > 0.  At depth 2 the top variable is reduced first (its
    form's leading entry is the constant c_2), then every coefficient by
    the level-0 form with one shared power of c_1."""
    m1 = F.levels[0][1]
    d1 = len(m1) - 1
    if depth == 1:
        return _zrem(p, m1, max(0, len(p) - d1))
    m2 = F.levels[1][1]
    d2 = len(m2) - 1
    c2 = m2[-1][0]
    s2 = c2 ** max(0, len(p) - d2)
    p = [[x * s2 for x in row] for row in p] if s2 != 1 else list(p)
    for k in range(len(p) - 1, d2 - 1, -1):
        t = p[k]
        if t:
            if c2 != 1:
                t = [x // c2 for x in t]
            for i in range(d2):
                if m2[i]:
                    p[k - d2 + i] = zp.zsub(p[k - d2 + i], zp.zmul(t, m2[i]))
    rows = p[:d2]
    steps = max(0, max((len(row) for row in rows), default=0) - d1)
    out = []
    s1 = 1
    for row in rows:
        r, s1 = _zrem(row, m1, steps)
        out.append(r)
    return out, s1 * s2


def _rinv(F, a, depth):
    """Inverse of the depth-`depth` rep a modulo the levels of F; SplitEvent
    on zero divisors.  Depth 1 runs on integers (_zinv); depth 2 is the
    extended Euclid over the base tower on lists of depth-1 reps (low degree
    first), whose coefficient inversions take the depth-1 path."""
    if not a[0]:
        raise ZeroDivisionError("inverting zero tower element")
    if depth == 1:
        return _zinv(F, a)
    # invariant r_i == s_i * a (mod m2); no remainder is made monic, and the
    # base inverts what the monic Euclid inverts, in its order: lc(r1) before
    # each division unless it is 1, then the constant remainder
    m2 = F.levels[1][1]
    r0, s0, r1, s1 = _split(m2, m2[-1][0]), [], _split(*a), [_ONE]
    while len(r1) > 1:
        inv = None if r1[-1] == _ONE else _zinv(F, r1[-1])
        r, s, low = list(r0), list(s0), r1[:-1]
        for k in range(len(r0) - len(r1), -1, -1):
            c = r.pop() if inv is None else _rmul(F, r.pop(), inv, 1)
            if c[0]:
                _rsubmul(F, r, c, low, k)
                _rsubmul(F, s, c, s1, k)
        r0, s0, r1, s1 = r1, s1, _rtrim(r), _rtrim(s)
    if r1:  # s1 * a == r1, a unit
        inv = _zinv(F, r1[0])
        return _join([_rmul(F, c, inv, 1) for c in s1])
    # r0 is the gcd; its lead was inverted the step before
    raise SplitEvent(1, _join(r0 if inv is None else [_rmul(F, c, inv, 1) for c in r0])[0])


def _rsubmul(F, p, c, q, k):
    """p -= c * y^k * q in place, for lists p, q of depth-1 reps and the
    depth-1 rep c."""
    p.extend([_ZERO] * (k + len(q) - len(p)))
    for i, b in enumerate(q):
        if b[0]:
            p[k + i] = _radd(p[k + i], _rneg(_rmul(F, c, b, 1), 1), 1)


def _rtrim(p):
    while p and not p[-1][0]:
        p.pop()
    return p


def _zinv(F, a):
    """_rinv at depth 1: the extended pseudo-remainder sequence of the level
    form M = c * m1 and the numerators A of a, with r_i == s_i * A (mod M)
    and the common content of (r_i, s_i) divided out each step."""
    r1, den = a
    r0, s0, s1 = F.levels[0][1], [], [1]
    while len(r1) > 1:
        q, r = zp.zpdivmod(r0, r1)
        s = zp.zsub(zp.zscale(s0, r1[-1] ** (len(r0) - len(r1) + 1)), zp.zmul(q, s1))
        g = math.gcd(zp.zcontent(r), zp.zcontent(s))
        if g > 1:
            r, s = [c // g for c in r], [c // g for c in s]
        r0, s0, r1, s1 = r1, s1, r, s
    if r1:  # s1 * A == c (mod M): the inverse of a = A / den is den * s1 / c
        return _rnorm(zp.zscale(s1, den), r1[0], 1)
    # r0, of degree >= 1, is the gcd of M and A: a zero divisor splits m1
    raise SplitEvent(0, tuple(zp.zprimitive(r0)))


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class NumberField:
    """Tower of one or two monic squarefree extensions over Q, stored as the
    integer forms of its level polynomials (zlevels)."""

    __slots__ = ("levels", "_label")

    def __init__(self, levels):
        levels = list(levels)
        if not 1 <= len(levels) <= 2:
            raise ValueError("a tower has one or two levels")
        self.levels = tuple((str(v), tuple(m) if k == 0 else tuple(map(tuple, m)))
                            for k, (v, m) in enumerate(levels))
        self._label = None  # parsing.format_point's label, built on first use; not part of ==
        for k, (_, m) in enumerate(self.levels):
            entries = m if k == 0 else [n for row in m for n in row]
            if (len(m) < 2 or any(type(n) is not int for n in entries)
                    or (m[-1] if k == 0 else m[-1][0] if len(m[-1]) == 1 else 0) <= 0
                    or math.gcd(*entries) != 1):
                raise ValueError(f"level {k} needs a nonconstant primitive integer form"
                                 " whose lead is a positive integer")

    @property
    def depth(self):
        return len(self.levels)

    def level_degree(self, k):
        return len(self.levels[k][1]) - 1

    def degree(self):
        return math.prod(self.level_degree(k) for k in range(self.depth))

    def var(self, k):
        return self.levels[k][0]

    def sub_field(self, k):
        return NumberField(self.levels[:k])

    def minpoly(self, k) -> UPoly:
        m = self.levels[k][1]
        if k == 0:
            return UPoly(self.var(0), [Fraction(c, m[-1]) for c in m])
        base = self.sub_field(k)
        return UPoly(self.var(k), [NFElement(base, c) for c in _split(m, m[-1][0])])

    def zlevels(self):
        """The integer form c_k * m_k of each level polynomial m_k, with c_k
        the least positive integer clearing its denominators (so c_k is its
        leading entry): a tuple of ints at level 0, a tuple of such tuples
        (coefficients in the level-0 variable) at level 1.  The field
        stores nothing else."""
        return tuple(m for _, m in self.levels)

    def zero(self):
        return NFElement(self, _ZERO)

    def one(self):
        return NFElement(self, ((1,) if self.depth == 1 else ((1,),), 1))

    def from_fraction(self, c):
        c = Fraction(c)
        if not c:
            return self.zero()
        nums = (c.numerator,) if self.depth == 1 else ((c.numerator,),)
        return NFElement(self, (nums, c.denominator))

    def gen(self, k):
        """Generator of level k as an element of the full tower."""
        m = self.levels[k][1]
        if k == 1:  # m = c * var + m0  =>  var = -m0 / c
            rep = _rnorm([zp.zneg(m[0])], m[1][0], 2) if len(m) == 2 else (((), (1,)), 1)
            return NFElement(self, rep)
        nums, den = ([-m[0]], m[1]) if len(m) == 2 else ([0, 1], 1)
        return NFElement(self, _rnorm(nums if self.depth == 1 else [nums], den, self.depth))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        parts = [f"{v}:deg{len(m) - 1}" for v, m in self.levels]
        return f"NumberField({', '.join(parts)})"

    # -- dynamic evaluation -------------------------------------------------

    def split_level(self, level, factor_rep):
        """Split the level polynomial by a monic factor, given by its integer
        form (SplitEvent.factor_rep); returns branch fields, factor branch first.
        Level 0 divides exactly in Z[x] (Gauss: both forms are primitive),
        level 1 by UPoly.divmod over the base tower."""
        m = self.levels[level][1]
        if level == 0:
            f = tuple(factor_rep)
            q = tuple(zp.zdivexact(m, f))  # ValueError when f does not divide m
        else:
            f = tuple(tuple(row) for row in factor_rep)
            base = self.sub_field(1)
            divisor = UPoly(self.var(1), [NFElement(base, c) for c in _split(f, f[-1][0])])
            quot, rem = self.minpoly(1).divmod(divisor)
            if rem:
                raise ValueError("factor does not divide the level polynomial")
            q = _join([c.rep for c in quot.coeffs])[0]
        fields = []
        for part in (f, q):
            if len(part) < 2:
                continue
            levels = list(self.levels)
            levels[level] = (levels[level][0], part)
            if level == 0 and self.depth > 1:
                # re-reduce the level-1 polynomial's coefficients mod the branch
                base = NumberField(levels[:1])
                var, m2 = self.levels[1]
                levels[1] = (var, _join([_rmod(base, row, m2[-1][0], 1) for row in m2])[0])
            fields.append(NumberField(levels))
        return fields

    def transfer(self, elem, target):
        """Re-reduce an element of this tower into a branch tower."""
        return NFElement(target, _rmod(target, *elem.rep, target.depth))

    def at_gens(self, grid):
        """The value p(gen(0)[, gen(1)]) of the polynomial p whose rational
        coefficients (Fractions or ints) grid holds: a sequence along the
        level-0 variable at depth 1, a sequence along the level-1 variable of
        such sequences at depth 2.  That value is p reduced modulo the level
        polynomials, here on the integer kernel; reps are canonical, so the
        rep is the one Horner at the generators gives, degree-1 levels
        included."""
        return NFElement(self, _rmod(self, *_zclear(grid, self.depth), self.depth))


class NFElement:
    """An element of a NumberField tower."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def is_zero(self):
        return not self.rep[0]

    def __bool__(self):
        return bool(self.rep[0])

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.field != self.field:
                raise ValueError("elements of different towers")
            return other
        return self.field.from_fraction(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, NFElement)):
            try:
                o = self._coerce(other)
            except ValueError:
                return False
            return self.rep == o.rep
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def __add__(self, other):
        o = self._coerce(other)
        return NFElement(self.field, _radd(self.rep, o.rep, self.field.depth))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, _rneg(self.rep, self.field.depth))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        d = self.field.depth
        if isinstance(other, (int, Fraction)):  # a rational scales
            return NFElement(self.field, _rscalar(self.rep, other, d))
        o = self._coerce(other)
        return NFElement(self.field, _rmul(self.field, self.rep, o.rep, d))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self):
        """Multiplicative inverse; ZeroDivisionError on zero, SplitEvent on
        a nontrivial zero divisor."""
        return NFElement(self.field, _rinv(self.field, self.rep, self.field.depth))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() if other == 1 else self.inverse() * other

    def _constant(self):
        """The numerators of a rational element (a tuple of at most one int);
        None when the element is not rational."""
        nums = self.rep[0]
        if self.field.depth == 2 and nums:
            if len(nums) > 1:
                return None
            nums = nums[0]
        return nums if len(nums) <= 1 else None

    def is_rational(self):
        return self._constant() is not None

    def as_fraction(self):
        nums = self._constant()
        if nums is None:
            raise ValueError("element is not rational")
        return Fraction(nums[0], self.rep[1]) if nums else Fraction(0)

    def __repr__(self):
        return f"NFElement({self.rep!r} over {self.field!r})"


def is_zero_or_split(e: NFElement) -> bool:
    """Definite zero test: True/False valid on the whole tower, SplitEvent
    when the answer differs between branches."""
    if e.is_zero():
        return True
    try:
        e.inverse()
        return False
    except ZeroDivisionError:
        return True


# ---------------------------------------------------------------------------
# real embeddings and certified signs
# ---------------------------------------------------------------------------

_BISECT_CAP = 64  # refinement rounds before escalating to the exact test


class RealEmbedding:
    """One real point of the tower: an isolating interval per level.

    Intervals only ever narrow, so sharing an embedding across queries is
    sound; the tower polynomial of each level certifies isolation.
    """

    __slots__ = ("field", "intervals")

    def __init__(self, field, intervals):
        self.field = field
        self.intervals = [_interval(lo, hi) for lo, hi in intervals]

    def clone_for(self, field):
        """The same point on field, a branch of this tower: a fresh list of
        the intervals, already validated and immutable, so refining either
        copy leaves the other as it was (refine replaces list entries)."""
        emb = object.__new__(RealEmbedding)
        emb.field, emb.intervals = field, list(self.intervals)
        return emb

    def interval(self, k):
        return self.intervals[k]

    def refine(self, k):
        """Halve the level-k isolating interval."""
        lo, hi = self.intervals[k]
        if k == 0:
            lo, hi = zp.zrefine(self.field.levels[0][1], lo, hi, (hi - lo) / 2)
        else:  # bisect on the sign of m2(alpha, x) at this embedding
            signs = _tower_signs([self.field.minpoly(1)], self)
            lo, hi = signs.refine(lo, hi, (hi - lo) / 2)
        self.intervals[k] = _interval(lo, hi)


def _interval(lo, hi) -> IsolatingInterval:
    """[lo, hi] with Fraction endpoints (so halving a width stays exact);
    lo > hi is a fault."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise InternalError(f"empty interval [{lo}, {hi}]")
    return IsolatingInterval(lo, hi)


def _rep_intervals(e: NFElement, emb: RealEmbedding):
    """Enclosure (lo, hi) of the element's value at the embedding."""
    lo, hi, den = _rep_zival(e.rep, e.field.depth, emb)
    return Fraction(lo, den), Fraction(hi, den)


def _rep_zival(rep, depth, emb):
    """The enclosure as integers (lo, hi, den), den > 0: _zhorner on the
    numerators and the level intervals, divided by the rep's denominator
    once (a positive scale commutes with interval Horner)."""
    nums, den = rep
    x0 = emb.interval(0)
    if depth == 1:
        lo, hi, d = _zhorner([(n, n, 1) for n in nums], x0)
    else:
        rows = [_zhorner([(n, n, 1) for n in row], x0) for row in nums]
        lo, hi, d = _zhorner(rows, emb.interval(1))
    return lo, hi, d * den


def _zhorner(coeffs, x):
    """Enclosure (lo, hi, den), den > 0, of a polynomial on the interval
    x = (low, high), from coefficient enclosures (lo, hi, den), lowest
    degree first: Horner over the interval put on one denominator, each step
    the min and max of the four endpoint products.  Interval arithmetic on
    the same values, so the result is exactly what a Fraction interval
    Horner gives, without a gcd per operation."""
    if not coeffs:
        return 0, 0, 1
    cden = math.lcm(*(d for _, _, d in coeffs))
    xl, xh = x
    xden = math.lcm(xl.denominator, xh.denominator)
    xlo = xl.numerator * (xden // xl.denominator)
    xhi = xh.numerator * (xden // xh.denominator)
    clo, chi, d = coeffs[-1]
    lo, hi = clo * (cden // d), chi * (cden // d)
    scale = 1  # the accumulator's denominator is cden * scale
    for clo, chi, d in reversed(coeffs[:-1]):
        products = (lo * xlo, lo * xhi, hi * xlo, hi * xhi)
        scale *= xden
        shift = cden // d * scale
        lo, hi = min(products) + clo * shift, max(products) + chi * shift
    return lo, hi, cden * scale


def nf_sign(e: NFElement, emb: RealEmbedding) -> int:
    """Exact sign of the element's value at the real embedding.

    A zero representation is 0 at once: its enclosure is [0, 0] and no
    refinement could decide it.  Otherwise the exact interval enclosure
    (_rep_zival) is signed, refining the embedding up to a bisection cap,
    then the exact zero test runs; zero divisors surface as SplitEvents for
    the caller to branch on.  A nonzero element whose enclosure still
    contains 0 after 4096 further rounds breaks the isolation invariant:
    InternalError.
    """
    depth = e.field.depth
    if not e.rep[0]:
        return 0
    for round_no in range(_BISECT_CAP):
        sign = _zival_sign(e, emb)
        if sign:
            return sign
        emb.refine(round_no % depth)
    if is_zero_or_split(e):
        return 0
    # nonzero on the whole tower: keep narrowing, termination guaranteed
    for round_no in range(4096):
        sign = _zival_sign(e, emb)
        if sign:
            return sign
        emb.refine(round_no % depth)
    raise InternalError("sign refinement failed to converge")


def _zival_sign(e: NFElement, emb: RealEmbedding) -> int:
    """Sign of the element's enclosure at the embedding; 0 when it
    contains zero."""
    lo, hi, _ = _rep_zival(e.rep, e.field.depth, emb)
    return (lo > 0) - (hi < 0)


# ---------------------------------------------------------------------------
# polynomials with tower coefficients
# ---------------------------------------------------------------------------

def tower_sturm_chain(p: UPoly):
    """Signed remainder chain of p and p' over the tower field (SplitEvents
    propagate from coefficient inversions)."""
    return remainder_sequence(p, p.derivative())


def tower_sturm_count(p: UPoly, emb: RealEmbedding, lo=None, hi=None) -> int:
    """tower_chain_count on a chain built for this one count."""
    return tower_chain_count(tower_sturm_chain(p), emb, lo, hi)


def tower_chain_count(chain, emb: RealEmbedding, lo=None, hi=None) -> int:
    """Distinct real roots of squarefree p = chain[0] (tower coefficients)
    at the embedding, in the open interval (lo, hi); None = infinity.
    chain is tower_sturm_chain(p), so one chain serves every count on p.
    Finite endpoints must not be roots."""
    return _tower_signs(chain, emb).count(lo, hi)


def _tower_signs(chain, emb: RealEmbedding):
    """The _zpoly.SturmSigns table of a tower chain at one embedding."""
    return zp.SturmSigns(
        chain,
        lambda q, x: nf_sign(q.eval(Fraction(x)), emb),
        lambda q: nf_sign(q.lc(), emb),
        lambda q: q.degree,
    )


def tower_root_bound(p: UPoly, emb: RealEmbedding):
    """Rational B with all real roots of p at the embedding inside (-B, B)."""
    lc = p.lc()
    while True:
        lo, hi, den = _coeff_zival(lc, emb)
        if lo > 0 or hi < 0:
            break
        if nf_sign(lc, emb) == 0:  # splits or refines; sign 0 impossible: lc != 0
            raise InternalError("vanishing leading coefficient")
    low = Fraction(min(abs(lo), abs(hi)), den)
    top = Fraction(0)
    for c in p.coeffs[:-1]:
        lo, hi, den = _coeff_zival(c, emb)
        top = max(top, Fraction(max(abs(lo), abs(hi)), den))
    return top / low + 2


def _coeff_zival(c, emb: RealEmbedding):
    """_rep_zival of a tower or rational coefficient."""
    if isinstance(c, NFElement):
        return _rep_zival(c.rep, c.field.depth, emb)
    c = Fraction(c)
    return c.numerator, c.numerator, c.denominator


def isolate_tower_roots(chain, emb: RealEmbedding):
    """Disjoint isolating intervals for the real roots of squarefree
    p = chain[0] at the embedding, ascending.  chain is
    tower_sturm_chain(p), so one chain serves every embedding."""
    p = chain[0]
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    signs = _tower_signs(chain, emb)
    if signs.count() == 0:  # the bound would refine the embedding for nothing
        return []
    return signs.isolate(tower_root_bound(p, emb))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def field_from_qpoly(var, p: UPoly) -> NumberField:
    """Depth-1 tower Q[var]/(p) from a nonconstant rational polynomial: its
    level form is p cleared of denominators, made primitive with a positive
    lead."""
    return NumberField([(var, tuple(zp.zprimitive(_zclear(p.coeffs, 1)[0])))])


def extend_field(base: NumberField, var, coeffs) -> NumberField:
    """Extend a depth-1 tower by a monic polynomial whose coefficients are
    base elements (NFElement list, low degree first)."""
    reps = [c.rep if isinstance(c, NFElement) else base.from_fraction(c).rep for c in coeffs]
    if reps[-1] != ((1,), 1):
        raise ValueError("level polynomial must be monic")
    return NumberField(list(base.levels) + [(var, _join(reps)[0])])


def rational_point_field(xvar, yvar, x0, y0) -> NumberField:
    """Degenerate tower for an exact rational point (x0, y0)."""
    x0, y0 = Fraction(x0), Fraction(y0)
    m2 = ((-y0.numerator,) if y0 else (), (y0.denominator,))
    return NumberField([(xvar, (-x0.numerator, x0.denominator)), (yvar, m2)])
