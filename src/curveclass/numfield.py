"""Algebraic extension towers of depth <= 2 with dynamic evaluation.

A NumberField is a chain  Q -> Q[a]/(m1(a)) -> Q[a][b]/(m2(a, b))  whose
level polynomials are monic and squarefree over their base but are allowed
to be reducible: no factorization is ever performed up front.  Arithmetic
proceeds as if the tower were a field; the moment an inversion meets a
nontrivial zero divisor the offending factor is thrown as a SplitEvent
(classical dynamic evaluation) and the caller re-runs on each branch.

Real embeddings pair the tower with isolating intervals, one per level,
and narrow them on demand; sign queries combine interval refinement with
exact zero tests, so they are certified, never numeric guesses.  A zero
representation is signed 0 before any refinement.  Enclosures are computed
by Horner over integer numerators on one denominator and are exactly the
intervals that Fraction interval arithmetic gives, so how far a shared
embedding gets refined does not depend on how they are computed.  Root
counting, isolation and level-1 refinement for tower polynomials feed
these signs to the sign table of the integer kernel (_zpoly.SturmSigns),
so over Z and over a tower they are one implementation.

Element representations are nested tuples, trimmed of trailing zeros and
reduced modulo every level: depth 0 is a Fraction, depth k >= 1 is a tuple
of depth-(k-1) reps.  These Fraction reps are the boundary: NFElement.rep,
the level polynomials and SplitEvent.factor_rep keep them.  Inside, tower
products and reductions run on an integer kernel: each operand is cleared
to integer numerators over one denominator, multiplied by one integer
convolution, pseudo-reduced by the integer forms c_k * m_k of the level
polynomials (built once per field, NumberField.zlevels), and rebuilt as a
Fraction rep once.  A rational scalar scales the coefficients instead of
entering a product.  A polynomial in x, y is specialized at a tower point
(the generators of its levels) the same way: its coefficient grid is
reduced modulo the level forms once (NumberField.at_gens), with no Horner
over tower elements.  Inversion at depth 1 runs on integers too: an extended
pseudo-remainder sequence against the integer level form.  At depth 2 the
extended Euclid runs on Fraction reps, with its products in the kernel and
its leading-coefficient inversions on the depth-1 integer path.
"""

import math
from fractions import Fraction

from . import _zpoly as zp
from .errors import InternalError
from .intervals import Interval
from .unipoly import UPoly, to_zpoly


class SplitEvent(Exception):
    """A zero divisor revealed a factor of a level polynomial.

    level: index of the tower level whose minimal polynomial splits;
    factor_rep: monic dense rep of the factor over that level's base.
    """

    def __init__(self, level, factor_rep):
        self.level = level
        self.factor_rep = factor_rep
        super().__init__(f"zero divisor splits level {level}")


# ---------------------------------------------------------------------------
# raw rep arithmetic; `F` is the ambient tower and `depth` the rep's own
# depth: a depth-k rep lives in the first k levels of F, so one tower serves
# the products of its elements and of their coefficients
# ---------------------------------------------------------------------------

def _rzero(depth):
    return Fraction(0) if depth == 0 else ()


def _rone(depth):
    return Fraction(1) if depth == 0 else (_rone(depth - 1),)


def _is_rzero(rep, depth):
    return rep == 0 if depth == 0 else rep == ()


def _rtrim(seq, depth):
    n = len(seq)
    while n and _is_rzero(seq[n - 1], depth - 1):
        n -= 1
    return tuple(seq[:n])


def _radd(a, b, depth):
    if depth == 0:
        return a + b
    out = list(a) + [_rzero(depth - 1)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = _radd(out[i], c, depth - 1)
    return _rtrim(out, depth)


def _rneg(a, depth):
    if depth == 0:
        return -a
    return tuple(_rneg(c, depth - 1) for c in a)


def _rsub(a, b, depth):
    return _radd(a, _rneg(b, depth), depth)


def _rscalar(a, k, depth):
    """Rep a times the rational k, coefficient by coefficient."""
    if not k:
        return _rzero(depth)
    if depth == 0:
        return a * k
    return tuple(_rscalar(c, k, depth - 1) for c in a)


def _rmul(F, a, b, depth):
    """Fully reduced product of two depth-`depth` reps, computed on integer
    numerators: one convolution, one reduction, one rebuild."""
    if depth == 0:
        return a * b
    if not a or not b:
        return ()
    (za, da), (zb, db) = _zclear(a, depth), _zclear(b, depth)
    if depth == 1:
        prod = zp.zmul(za, zb)
    else:
        prod = [[] for _ in range(len(za) + len(zb) - 1)]
        for i, ca in enumerate(za):
            if ca:
                for j, cb in enumerate(zb):
                    if cb:
                        prod[i + j] = zp.zadd(prod[i + j], zp.zmul(ca, cb))
    nums, scale = _zreduce(F, prod, depth)
    return _zrep(nums, da * db * scale, depth)


def _rscale(F, a, k, depth):
    """Multiply a depth-`depth` rep by a depth-(depth-1) coefficient."""
    return _rtrim([_rmul(F, c, k, depth - 1) for c in a], depth)


def _rmod(F, a, depth):
    """The reduced rep of a: every level of its depth reduced modulo the
    level polynomials of F, whatever the degrees of a's coefficients."""
    nums, den = _zclear(a, depth)
    nums, scale = _zreduce(F, nums, depth)
    return _zrep(nums, den * scale, depth)


# -- the integer kernel under _rmul and _rmod --------------------------------
# A depth-1 rep is cleared to a list of integer numerators over one positive
# denominator, a depth-2 rep to a list (over the top variable) of such lists
# over one denominator.  Level k is reduced by its integer form c_k * m_k
# (NumberField.zlevels), whose leading entry is the positive integer c_k.

def _zclear(rep, depth):
    """(nums, den) with rep = nums / den, den > 0, nested like the rep."""
    if depth == 1:
        den = math.lcm(*(c.denominator for c in rep))
        return [c.numerator * (den // c.denominator) for c in rep], den
    den = math.lcm(*(c.denominator for row in rep for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rep], den


def _zrep(nums, den, depth):
    """The trimmed Fraction rep of nums / den; inverse of _zclear."""
    if depth == 1:
        return tuple(Fraction(n, den) for n in zp.ztrim(nums))
    return _rtrim([_zrep(row, den, 1) for row in nums], 2)


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
    forms = F.zlevels()
    m1 = forms[0]
    d1 = len(m1) - 1
    if depth == 1:
        return _zrem(p, m1, max(0, len(p) - d1))
    m2 = forms[1]
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


def _rdivmod(F, a, b, depth):
    """Division of depth-`depth` reps with monic b (no modular reduction of
    the quotient/remainder beyond coefficient arithmetic)."""
    a = list(_rtrim(a, depth))
    db = len(b) - 1
    q = [_rzero(depth - 1)] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        top = a[-1]
        k = len(a) - 1 - db
        q[k] = top
        if not _is_rzero(top, depth - 1):
            for i in range(db):
                a[k + i] = _rsub(a[k + i], _rmul(F, top, b[i], depth - 1), depth - 1)
        a = list(_rtrim(a[:-1], depth))
    return _rtrim(q, depth), tuple(a)


def _rinv(F, a, depth):
    """Inverse of rep a modulo level depth-1 of F; SplitEvent on zero
    divisors."""
    if depth == 0:
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return 1 / a
    if _is_rzero(a, depth):
        raise ZeroDivisionError("inverting zero tower element")
    if depth == 1:
        return _zinv(F, a)
    m = F._mp[depth - 1]
    # extended Euclid with the invariant  r_i == s_i * a  (mod m)
    r0, s0 = tuple(m), _rzero(depth)
    r1, s1 = _rtrim(a, depth), (_rone(depth - 1),)
    while True:
        if not r1:  # r0 is the gcd, monic (r1 was made monic before)
            if len(r0) - 1 <= 0:
                raise InternalError("degenerate gcd in tower inversion")
            raise SplitEvent(depth - 1, r0)
        lc_inv = _rinv(F, r1[-1], depth - 1)
        if len(r1) == 1:  # s1 * a == r1, a unit; s1 is reduced, so is this
            return _rscale(F, s1, lc_inv, depth)
        r1m = _rscale(F, r1, lc_inv, depth)
        s1m = _rscale(F, s1, lc_inv, depth)
        q, rem = _rdivmod(F, r0, r1m, depth)
        s_next = _rsub(s0, _rmul(F, q, s1m, depth), depth)
        r0, s0 = r1m, s1m
        r1, s1 = _rtrim(rem, depth), s_next


def _zinv(F, a):
    """_rinv at depth 1 on integers: the extended pseudo-remainder sequence
    of the level form M = c * m1 and the numerators A of a, with r_i == s_i * A
    (mod M) and the common content of (r_i, s_i) divided out each step."""
    r1, den = _zclear(a, 1)
    r0, s0, s1 = F.zlevels()[0], [], [1]
    while len(r1) > 1:
        q, r = zp.zpdivmod(r0, r1)
        s = zp.zsub(zp.zscale(s0, r1[-1] ** (len(r0) - len(r1) + 1)), zp.zmul(q, s1))
        g = math.gcd(zp.zcontent(r), zp.zcontent(s))
        if g > 1:
            r, s = [c // g for c in r], [c // g for c in s]
        r0, s0, r1, s1 = r1, s1, r, s
    if r1:  # s1 * A == c (mod M): the inverse of a = A / den is den * s1 / c
        return tuple(Fraction(den * c, r1[0]) for c in s1)
    # r0, of degree >= 1, is the gcd of M and A: a zero divisor splits m1
    raise SplitEvent(0, tuple(Fraction(c, r0[-1]) for c in r0))


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class NumberField:
    """Tower of monic squarefree extensions over Q; depth 0, 1 or 2."""

    __slots__ = ("levels", "_mp", "_zlevels")

    def __init__(self, levels=()):
        self.levels = tuple((str(v), tuple(m)) for v, m in levels)
        self._mp = tuple(m for _, m in self.levels)
        self._zlevels = None  # zlevels(), built on first use; not part of ==
        for k, m in enumerate(self._mp):
            if len(m) < 2:
                raise ValueError("level polynomial must be nonconstant")
            if not _is_rzero(_rsub(m[-1], _rone(k), k), k):
                raise ValueError("level polynomial must be monic")

    @property
    def depth(self):
        return len(self.levels)

    def level_degree(self, k):
        return len(self._mp[k]) - 1

    def degree(self):
        d = 1
        for k in range(self.depth):
            d *= self.level_degree(k)
        return d

    def var(self, k):
        return self.levels[k][0]

    def sub_field(self, k):
        return NumberField(self.levels[:k])

    def minpoly(self, k) -> UPoly:
        if k == 0:
            return UPoly(self.var(0), [Fraction(c) for c in self._mp[0]])
        base = self.sub_field(k)
        return UPoly(self.var(k), [NFElement(base, c) for c in self._mp[k]])

    def zlevels(self):
        """The integer form c_k * m_k of each level polynomial m_k, with c_k
        the least positive integer clearing its denominators (so c_k is its
        leading entry), built once per field: an integer list at level 0,
        a list of integer lists (coefficients in the level-0 variable) at
        level 1."""
        if self._zlevels is None:
            forms = [to_zpoly(self.minpoly(0))[0]] if self.depth else []
            if self.depth > 1:
                forms.append(_zclear(self._mp[1], 2)[0])
            self._zlevels = tuple(forms)
        return self._zlevels

    def zminpoly0(self):
        """The level-0 polynomial with denominators cleared (integer list,
        low degree first)."""
        return self.zlevels()[0]

    def zero(self):
        return NFElement(self, _rzero(self.depth))

    def one(self):
        return NFElement(self, _rone(self.depth))

    def from_fraction(self, c):
        rep = Fraction(c)
        for d in range(1, self.depth + 1):
            rep = () if _is_rzero(rep, d - 1) else (rep,)
        return NFElement(self, rep)

    def gen(self, k):
        """Generator of level k as an element of the full tower."""
        if self.level_degree(k) == 1:
            # the generator is determined: m = var + c  =>  var = -c
            c = _rneg(self._mp[k][0], k)
            rep = () if _is_rzero(c, k) else (c,)
        else:
            rep = (_rzero(k), _rone(k))
        for _ in range(k + 1, self.depth):
            rep = (rep,) if rep else ()
        return NFElement(self, rep)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        parts = [f"{v}:deg{len(m) - 1}" for v, m in self.levels]
        return f"NumberField({', '.join(parts) or 'Q'})"

    # -- dynamic evaluation -------------------------------------------------

    def split_level(self, level, factor_rep):
        """Split the level polynomial by a monic factor; returns branch
        fields, factor branch first."""
        m = self._mp[level]
        f = tuple(factor_rep)
        q, rem = _rdivmod(self, list(m), f, level + 1)
        if rem:
            raise ValueError("factor does not divide the level polynomial")
        fields = []
        for part in (f, q):
            if len(part) < 2:
                continue
            new_levels = [list(lv) for lv in self.levels]
            new_levels[level][1] = part
            if level == 0 and self.depth > 1:
                # re-reduce the level-1 polynomial's coefficients mod the branch
                base = NumberField(new_levels[:1])
                new_levels[1][1] = _rtrim([_rmod(base, c, 1) for c in self._mp[1]], 2)
            fields.append(NumberField([tuple(lv) for lv in new_levels]))
        return fields

    def transfer(self, elem, target):
        """Re-reduce an element of this tower into a branch tower."""
        rep = elem.rep if isinstance(elem, NFElement) else elem
        return NFElement(target, _rmod(target, rep, target.depth))

    def at_gens(self, grid):
        """The value p(gen(0)[, gen(1)]) of the polynomial p whose Fraction
        coefficients grid holds: a sequence along the level-0 variable at
        depth 1, a sequence along the level-1 variable of such sequences at
        depth 2.  That value is p reduced modulo the level polynomials, here
        on the integer kernel; reduced reps are canonical, so the rep is the
        one Horner at the generators gives, degree-1 levels included."""
        return NFElement(self, _rmod(self, grid, self.depth))


class NFElement:
    """An element of a NumberField tower."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def is_zero(self):
        return _is_rzero(self.rep, self.field.depth)

    def __bool__(self):
        return not self.is_zero()

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
        return self.inverse() * other

    def is_rational(self):
        rep = self.rep
        d = self.field.depth
        while d > 0:
            if _is_rzero(rep, d):
                return True
            if len(rep) > 1:
                return False
            rep = rep[0]
            d -= 1
        return True

    def as_fraction(self):
        rep = self.rep
        d = self.field.depth
        while d > 0:
            if _is_rzero(rep, d):
                return Fraction(0)
            if len(rep) > 1:
                raise ValueError("element is not rational")
            rep = rep[0]
            d -= 1
        return Fraction(rep)

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
        self.intervals = [Interval(lo, hi) for lo, hi in intervals]

    def clone_for(self, field):
        return RealEmbedding(field, [(iv.lo, iv.hi) for iv in self.intervals])

    def interval(self, k):
        return self.intervals[k]

    def refine(self, k):
        """Halve the level-k isolating interval."""
        iv = self.intervals[k]
        if k == 0:
            lo, hi = zp.zrefine(self.field.zminpoly0(), iv.lo, iv.hi, iv.width() / 2)
        else:  # bisect on the sign of m2(alpha, x) at this embedding
            signs = _tower_signs([self.field.minpoly(1)], self)
            lo, hi = signs.refine(iv.lo, iv.hi, iv.width() / 2)
        self.intervals[k] = Interval(lo, hi)


def _rep_intervals(e: NFElement, emb: RealEmbedding) -> Interval:
    """Interval enclosure of the element's value at the embedding."""
    lo, hi, den = _rep_zival(e.rep, e.field.depth, emb)
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _rep_zival(rep, depth, emb):
    """The enclosure as integers (lo, hi, den), den > 0: Horner over the
    level interval put on one denominator, each step the min and max of the
    four endpoint products.  Interval arithmetic on the same values, so the
    result is exactly the Fraction interval Horner (intervals.eval_poly)
    gives on the coefficient enclosures, without a gcd per operation."""
    if depth == 0:
        return rep.numerator, rep.numerator, rep.denominator
    if not rep:
        return 0, 0, 1
    coeffs = [_rep_zival(c, depth - 1, emb) for c in rep]
    cden = math.lcm(*(d for _, _, d in coeffs))
    x = emb.interval(depth - 1)
    xden = math.lcm(x.lo.denominator, x.hi.denominator)
    xlo = x.lo.numerator * (xden // x.lo.denominator)
    xhi = x.hi.numerator * (xden // x.hi.denominator)
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
    if depth == 0:
        v = e.as_fraction()
        return (v > 0) - (v < 0)
    if _is_rzero(e.rep, depth):
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


def level0_real_embeddings(field):
    """Embeddings of a depth-1 tower (one per real root of the level-0
    polynomial), ascending."""
    return [RealEmbedding(field, [(lo, hi)]) for lo, hi in zp.zisolate(field.zminpoly0())]


# ---------------------------------------------------------------------------
# polynomials with tower coefficients
# ---------------------------------------------------------------------------

def tower_sturm_chain(p: UPoly):
    """Signed remainder chain over the tower field (true remainders;
    SplitEvents propagate from coefficient inversions)."""
    chain = [p]
    d = p.derivative()
    while d:
        chain.append(d)
        _, r = chain[-2].divmod(d)
        d = -r
    return chain


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
        lambda q, x: nf_sign(q.eval(_elem_const(q, x)), emb),
        lambda q: nf_sign(q.lc(), emb),
        lambda q: q.degree,
    )


def _elem_const(p: UPoly, c):
    """The point c at which the chain polynomial p is signed, as a Fraction:
    p is evaluated at the rational point itself, so Horner scales p's tower
    coefficients instead of multiplying tower elements."""
    return Fraction(c)


def tower_root_bound(p: UPoly, emb: RealEmbedding):
    """Rational B with all real roots of p at the embedding inside (-B, B)."""
    lc = p.lc()
    while True:
        iv = _rep_intervals(lc, emb) if isinstance(lc, NFElement) else Interval(lc)
        if not iv.contains_zero():
            break
        if nf_sign(lc, emb) == 0:  # splits or refines; sign 0 impossible: lc != 0
            raise InternalError("vanishing leading coefficient")
    low = iv.abs_lower()
    top = Fraction(0)
    for c in p.coeffs[:-1]:
        civ = _rep_intervals(c, emb) if isinstance(c, NFElement) else Interval(c)
        top = max(top, civ.abs_upper())
    return top / low + 2


def isolate_tower_roots(p: UPoly, emb: RealEmbedding):
    """Disjoint isolating intervals for the real roots of squarefree p at
    the embedding, ascending."""
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    signs = _tower_signs(tower_sturm_chain(p), emb)
    if signs.count() == 0:  # the bound would refine the embedding for nothing
        return []
    return signs.isolate(tower_root_bound(p, emb))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def field_from_qpoly(var, p: UPoly) -> NumberField:
    """Depth-1 tower Q[var]/(p) from a rational polynomial (made monic)."""
    q = p.monic()
    return NumberField([(var, tuple(Fraction(c) for c in q.coeffs))])


def extend_field(base: NumberField, var, coeffs) -> NumberField:
    """Extend a depth-1 tower by a monic polynomial whose coefficients are
    base elements (NFElement list, low degree first)."""
    reps = tuple(c.rep if isinstance(c, NFElement) else base.from_fraction(c).rep for c in coeffs)
    return NumberField(list(base.levels) + [(var, reps)])


def rational_point_field(xvar, yvar, x0, y0) -> NumberField:
    """Degenerate tower for an exact rational point (x0, y0)."""
    f1 = NumberField([(xvar, (Fraction(-x0), Fraction(1)))])
    return extend_field(f1, yvar, [f1.from_fraction(-y0), f1.from_fraction(1)])
