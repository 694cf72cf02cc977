"""Multivariate polynomials over Q in the fixed universe {s, t, x, y},
the lex order s > t > x > y, Buchberger's algorithm, normal forms,
elimination and saturation.

s is reserved for the 1 - s*q saturation trick; t carries graph/fiber
variables; x, y are the plane coordinates.  MPoly coefficients are in Q.
Lex is the one monomial order: saturation, elimination and the monic-in-t
witness all read lex bases.  Buchberger and normal forms run on one
fraction-free kernel: primitive integer polynomials over packed lex
monomials, each its own exponent fields, reduced by lc(g)*r - c*m*g with
contents removed.  Buchberger takes S-pairs by sugar (Giovini et al.,
ISSAC 1991), which on lex elimination reduces fewer pairs than
smallest-lcm selection.  A GroebnerBasis is stored as its kernel rows: Q
appears only where its .basis or a remainder is read.  Every step is
exact (no modular shortcuts, no floating point): exactness is the product.
Everything is deterministic: term order, pair selection and tie-breaking
are all fixed, and reduced bases are unique, so certificates reproduce
byte-for-byte.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import InternalError, PreconditionError

VARS = ("s", "t", "x", "y")
NVARS = len(VARS)
_ZERO_EXPS = (0, 0, 0, 0)


def var_index(name):
    try:
        return VARS.index(name)
    except ValueError:
        raise PreconditionError(f"unknown variable {name!r}; universe is {VARS}")


# Term dicts map exponent 4-tuples to nonzero coefficients: MPoly's
# Fractions, or the parser's ints and Fractions.  These four functions are
# the one arithmetic on them.

def _neg(p):
    return {e: -c for e, c in p.items()}


def _add_into(acc, p, sign):
    """acc += sign * p, in place; zero sums are dropped."""
    for e, c in p.items():
        v = acc.get(e, 0) + c * sign
        if v:
            acc[e] = v
        else:
            del acc[e]


def _mul(a, b):
    out = {}
    get = out.get
    for (s1, t1, x1, y1), c1 in a.items():
        for (s2, t2, x2, y2), c2 in b.items():
            e = (s1 + s2, t1 + t2, x1 + x2, y1 + y2)
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pow(p, n):
    """p**n for n >= 0 by binary powering from the low bit: the accumulator
    starts at the first set bit, and the square after the top bit is never
    formed.  p**0 is {_ZERO_EXPS: 1}, an int coefficient."""
    if not n:
        return {_ZERO_EXPS: 1}
    while not n & 1:
        p = _mul(p, p)
        n >>= 1
    acc = p
    n >>= 1
    while n:
        p = _mul(p, p)
        if n & 1:
            acc = _mul(acc, p)
        n >>= 1
    return acc


class MPoly:
    """Immutable sparse polynomial: exponent 4-tuples -> nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[tuple(e)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, terms):
        """Internal: terms already canonical (tuple keys, nonzero Fractions)."""
        self = cls.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({_ZERO_EXPS: Fraction(c)})

    @classmethod
    def var(cls, name, power=1):
        e = [0] * NVARS
        e[var_index(name)] = power
        return cls({tuple(e): Fraction(1)})

    # -- basic queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree_in(self, name):
        i = var_index(name)
        return max((e[i] for e in self.terms), default=-1)

    def uses_only(self, names):
        allowed = {var_index(n) for n in names}
        return all(
            all(e[i] == 0 for i in range(NVARS) if i not in allowed)
            for e in self.terms
        )

    def variables(self):
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(VARS[i])
        return used

    def is_constant(self):
        return all(e == _ZERO_EXPS for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[_ZERO_EXPS]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        out = dict(self.terms)
        _add_into(out, other.terms, 1)
        return MPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(_neg(self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return MPoly._raw(out)

    def __rsub__(self, other):
        return MPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MPoly()
            return MPoly._raw({e: cc * c for e, cc in self.terms.items()})
        return MPoly._raw(_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PreconditionError(f"negative exponent {n}")
        return MPoly._raw(_pow(self.terms, n)) if n else MPoly.const(1)

    def deriv(self, name):
        i = var_index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MPoly(out)

    def primitive(self):
        """Scale to integer coefficients, content 1; sign preserved."""
        if not self.terms:
            return self
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
        k = Fraction(den, num)
        return MPoly._raw({e: c * k for e, c in self.terms.items()})

    def __repr__(self):
        try:
            from .parsing import format_poly

            return f"MPoly({format_poly(self)})"
        except ImportError:
            return f"MPoly({sorted(self.terms.items())!r})"


# ---------------------------------------------------------------------------
# the monomial order
# ---------------------------------------------------------------------------

# Inside the Groebner kernel a monomial is one int holding NVARS exponent
# fields of _FIELD_BITS bits, s in the top one; the top bit of each field is
# a guard that stays clear.  Exponents entering the kernel are below
# _EXP_LIMIT, so the sums that reduction forms stay far from the guards.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << 16
_SHIFTS = tuple(_FIELD_BITS * (NVARS - 1 - i) for i in range(NVARS))
_GUARDS = sum(1 << (_FIELD_BITS * (i + 1) - 1) for i in range(NVARS))


def _pack(exps):
    """The kernel's encoding of an exponent tuple.  A packed monomial is its
    own exponent fields: int comparison of packed monomials is lex
    (s > t > x > y), and _pack(a + b) == _pack(a) + _pack(b), so multiplying
    monomials is adding ints."""
    k = 0
    for e, shift in zip(exps, _SHIFTS):
        k |= e << shift
    return k


def _unpack(k):
    return tuple((k >> shift) & _FIELD_MASK for shift in _SHIFTS)


# the one monomial order, which GroebnerBasis takes as its first argument:
# exponent tuples compare in it as tuples, packed monomials as ints
LEX = "lex"


def leading_term(p: MPoly):
    e = max(p.terms)
    return e, p.terms[e]


def _ediv(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _elcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _field_divides(fa, fb):
    """The monomial packed as fa divides the one packed as fb."""
    return ((fb | _GUARDS) - fa) & _GUARDS == _GUARDS


def _field_lcm(fa, fb):
    """The packed lcm of the monomials packed as fa and fb, the fieldwise
    max: a field's guard survives (fa | _GUARDS) - fb exactly
    when fa's field is at least fb's; each surviving guard g becomes the
    mask g - g >> (_FIELD_BITS - 1) of its field's value bits, and the
    masked fields come from fa, the others from fb."""
    ge = ((fa | _GUARDS) - fb) & _GUARDS
    return fb ^ ((fa ^ fb) & (ge - (ge >> (_FIELD_BITS - 1))))


# ---------------------------------------------------------------------------
# the fraction-free kernel
# ---------------------------------------------------------------------------

# A reduction divides out its content once its scale has grown by this many
# bits: pseudo-division otherwise swells coefficients (past 20,000 bits on
# one hard lex input, 73 once the content was gone).
_SWELL_BITS = 256

def _to_kernel(p: MPoly):
    """(terms, scale): terms maps packed monomials to the integer
    coefficients of scale * p, primitive with a positive leading
    coefficient; scale is a Fraction."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = {}
    for e, c in p.terms.items():
        if max(e) >= _EXP_LIMIT:
            raise PreconditionError(f"exponent {max(e)} is too large for a Groebner basis")
        terms[_pack(e)] = c.numerator * (den // c.denominator)
    terms, content = _primitive(terms)
    return terms, Fraction(den, content)


def _to_mpoly(terms, factor=1):
    """factor * (packed integer terms) as an MPoly over Q."""
    return MPoly._raw({_unpack(k): Fraction(c) * factor for k, c in terms.items()})


def _primitive(terms):
    """terms divided by their content, leading coefficient made positive;
    returns (primitive terms, content)."""
    content = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}, content


class _Kernel:
    """Primitive integer polynomials in packed monomials, each with its
    leading monomial, leading coefficient and tail stored once, and full
    reduction by them.

    Elements are only appended, and a replacement keeps its leading
    monomial, so the first element whose leading monomial divides a given
    monomial never changes once found: reduce() memoises it per packed
    monomial in first, or ~n when none of the first n elements divides."""

    __slots__ = ("leads", "lcs", "tails", "first")

    def __init__(self, rows=()):
        self.leads, self.lcs, self.tails = [], [], []
        self.first = {}
        for terms in rows:
            self.add(terms)

    def __len__(self):
        return len(self.leads)

    def add(self, terms, i=None):
        """Append terms (packed monomial -> int), or replace element i by
        terms with the same leading monomial."""
        lead = max(terms)
        row = (lead, terms[lead], [(k, c) for k, c in terms.items() if k != lead])
        if i is None:
            i = len(self.leads)
            for column in (self.leads, self.lcs, self.tails):
                column.append(None)
        elif lead != self.leads[i]:
            raise InternalError(f"replacing kernel element {i} would change its leading monomial")
        self.leads[i], self.lcs[i], self.tails[i] = row

    def terms(self, i):
        return {self.leads[i]: self.lcs[i], **dict(self.tails[i])}

    def reduce(self, cur):
        """Fully reduce cur (packed monomial -> int; consumed) and return
        (scale, rem) with scale * cur = sum(q_i * element_i) + rem and no
        term of rem divisible by a leading monomial.

        The largest term is taken from a heap; its divisor is the first
        element whose leading monomial divides it (memoised, so a monomial
        met again is only tested against the elements appended since its
        last scan), and with d = gcd(c, lc)
        the step is cur := (lc/d) * cur - (c/d) * m * element."""
        leads, lcs, tails = self.leads, self.lcs, self.tails
        first, n = self.first, len(leads)
        heap = [-k for k in cur]
        heapify(heap)
        rem = {}
        scale = grown = 1
        while heap:
            k = -heappop(heap)
            c = cur.pop(k, 0)
            if not c:  # cancelled after it was pushed
                continue
            i = first.get(k)
            if i is None or i < 0:
                g = k | _GUARDS
                for i in range(0 if i is None else ~i, n):
                    if (g - leads[i]) & _GUARDS == _GUARDS:
                        break
                else:
                    i = ~n
                first[k] = i
                if i < 0:
                    rem[k] = c
                    continue
            lc = lcs[i]
            d = math.gcd(c, lc)
            a, b = lc // d, c // d
            if a != 1:
                scale *= a
                grown *= a
                for m in cur:
                    cur[m] *= a
                for m in rem:
                    rem[m] *= a
            shift = k - leads[i]
            for t, tc in tails[i]:
                m = t + shift
                v = cur.get(m)
                if v is None:
                    cur[m] = -b * tc
                    heappush(heap, -m)
                else:
                    v -= b * tc
                    if v:
                        cur[m] = v
                    else:
                        del cur[m]
            if grown >> _SWELL_BITS:
                d = math.gcd(*cur.values(), *rem.values())
                if d > 1:
                    for m in cur:
                        cur[m] //= d
                    for m in rem:
                        rem[m] //= d
                    scale = Fraction(scale, d)
                grown = 1
        return scale, rem


# ---------------------------------------------------------------------------
# division, Buchberger, reduced bases
# ---------------------------------------------------------------------------

class PolyIdeal:
    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(g for g in generators if g)
        if not gens:
            raise PreconditionError("ideal needs at least one nonzero generator")
        self.generators = gens

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        return f"PolyIdeal({len(self.generators)} generators)"


class GroebnerBasis:
    """A Groebner basis held as the kernel that reduces by it: primitive
    integer rows with positive leading coefficients, in basis order.  basis,
    the elements over Q, is built on first read: each row made monic, unless
    the basis was made from polynomials, which it keeps.  order must be
    LEX, the one order there is."""

    __slots__ = ("kernel", "_basis", "_grids")

    def __init__(self, order, basis):
        if order != LEX:
            raise PreconditionError(f"lex is the only monomial order, not {order!r}")
        self._basis, self._grids = tuple(basis), None
        self.kernel = _Kernel([_to_kernel(g)[0] for g in self._basis])

    @classmethod
    def _of_rows(cls, rows):
        """Internal: rows already primitive, leading coefficients positive."""
        self = cls(LEX, ())
        self.kernel, self._basis = _Kernel(rows), None
        return self

    @property
    def basis(self):
        if self._basis is None:
            kb = self.kernel
            self._basis = tuple(_to_mpoly(kb.terms(i), Fraction(1, lc))
                                for i, lc in enumerate(kb.lcs))
        return self._basis

    def t_grids(self):
        """Per element, its t-coefficients (lowest power first) as integer
        rows over y of coefficients along x, the grids NumberField.at_gens
        reads: those of row i, a rational multiple of basis[i].  Built once."""
        if self._grids is None:
            out = [[] for _ in self.kernel.lcs]
            for i, grids in enumerate(out):
                for k, c in self.kernel.terms(i).items():
                    s, t, x, y = _unpack(k)
                    if s:
                        raise PreconditionError("basis must not involve s")
                    grids += [[] for _ in range(t + 1 - len(grids))]
                    grids[t] += [[] for _ in range(y + 1 - len(grids[t]))]
                    grids[t][y] += [0] * (x + 1 - len(grids[t][y]))
                    grids[t][y][x] = c
            self._grids = out
        return self._grids

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.kernel)

    def __repr__(self):
        return f"GroebnerBasis({LEX}, {len(self)} elements)"


def normal_form(p: MPoly, gb: GroebnerBasis):
    """Full remainder of multivariate division by the basis; zero iff p is
    in the ideal.  Divisor choice is the first basis element (fixed basis
    order) whose leading monomial divides, so the result is deterministic;
    on a reduced basis it is canonical regardless.  The division runs over
    Z on gb.kernel; the remainder is returned exactly over Q."""
    if not p:
        return MPoly()
    cur, ps = _to_kernel(p)
    scale, rem = gb.kernel.reduce(cur)
    # rem is the remainder of scale * ps * p
    return _to_mpoly(rem, 1 / (scale * ps))


def spoly(f, g):
    ef, cf = leading_term(f)
    eg, cg = leading_term(g)
    l = _elcm(ef, eg)
    out = _mul(f.terms, {_ediv(l, ef): 1 / cf})
    _add_into(out, _mul(g.terms, {_ediv(l, eg): 1 / cg}), -1)
    return MPoly._raw(out)


def buchberger(ideal) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal that the polynomials in ideal (a
    PolyIdeal or any iterable) generate: sugar selection (Giovini, Mora,
    Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991;
    lowest sugar first, then smallest lcm, then lowest index) and
    Gebauer-Moeller pair updates (_update).  An input's sugar is its total degree, and an
    element added from a pair keeps that pair's sugar."""
    gens = [g for g in ideal if g]
    if not gens:
        raise PreconditionError("no nonzero generators")

    kb = _Kernel()
    sugars = []  # per kernel element
    active = []  # the elements that still form pairs
    pairs = []  # heap of (sugar, packed lcm, i, j) with i < j
    for g in gens:
        pairs = _update(kb, _to_kernel(g)[0], max(map(sum, g.terms)),
                        sugars, active, pairs)
    while pairs:
        sugar, l, i, j = heappop(pairs)
        lci, lcj = kb.lcs[i], kb.lcs[j]
        d = math.gcd(lci, lcj)
        ai, aj = lcj // d, lci // d
        si, sj = l - kb.leads[i], l - kb.leads[j]
        cur = {t + si: ai * c for t, c in kb.tails[i]}
        for t, c in kb.tails[j]:
            m = t + sj
            v = cur.get(m, 0) - aj * c
            if v:
                cur[m] = v
            else:
                cur.pop(m, None)
        _, rem = kb.reduce(cur)
        if rem:
            pairs = _update(kb, _primitive(rem)[0], sugar, sugars, active, pairs)
    return _reduced_basis(kb, active)


def _update(kb, terms, sugar, sugars, active, pairs):
    """Append terms to kb as element h, whose sugar is sugar, and return
    the pair heap after the Gebauer-Moeller update (Becker-Weispfenning,
    UPDATE), changing sugars and active in place.

    Of the new pairs (g, h), g active, one is kept when no other new pair's
    lcm divides its lcm, counting the pairs after it and those already kept
    (criteria M and F: one pair survives of several with equal lcm); the
    kept pairs whose leading monomials are disjoint (lcm == lead sum) then
    go (product criterion).  An old pair (g1, g2) goes when lm(h) divides
    its lcm and its lcm differs from those of (g1, h) and (g2, h)
    (criterion B).  The active elements whose leading monomial lm(h) divides
    stop forming pairs; they stay in kb as reducers."""
    h = len(kb)
    kb.add(terms)
    sugars.append(sugar)
    leads = kb.leads
    lh = leads[h]
    new = [(_field_lcm(leads[g], lh), g) for g in active]
    kept = []
    for n, (l, g) in enumerate(new):
        if l == leads[g] + lh or not (
            any(_field_divides(other, l) for other, _ in new[n + 1:])
            or any(_field_divides(other, l) for other, _ in kept)
        ):
            kept.append((l, g))
    pairs = [
        p for p in pairs
        if not _field_divides(lh, p[1])
        or _field_lcm(leads[p[2]], lh) == p[1]
        or _field_lcm(leads[p[3]], lh) == p[1]
    ]
    # a pair's sugar: max over its elements of sugar + deg(lcm) - deg(lead),
    # every degree read from a packed monomial k as k % _FIELD_MASK
    dh = sugar - lh % _FIELD_MASK
    pairs.extend((max(sugars[g] - leads[g] % _FIELD_MASK, dh) + l % _FIELD_MASK, l, g, h)
                 for l, g in kept if l != leads[g] + lh)
    heapify(pairs)
    active[:] = [g for g in active if not _field_divides(lh, leads[g])]
    active.append(h)
    return pairs


def _reduced_basis(kb, rows):
    """The unique reduced basis, sorted by leading term, from the kernel
    elements rows, which form a Groebner basis."""
    leads = kb.leads
    # drop elements whose leading monomial is divisible by another's
    keep = [
        i for i in rows
        if not any(
            j != i and _field_divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
            for j in rows
        )
    ]
    red = _Kernel([kb.terms(i) for i in keep])
    # reduce each tail by the others; a leading monomial divides no smaller
    # monomial, so no element ever acts on its own tail
    for i in range(len(red)):
        scale, rem = red.reduce(dict(red.tails[i]))
        num, den = scale.as_integer_ratio()
        if den != 1:
            rem = {k: c * den for k, c in rem.items()}
        rem[red.leads[i]] = num * red.lcs[i]
        red.add(_primitive(rem)[0], i)
    rows = sorted(range(len(red)), key=red.leads.__getitem__)
    return GroebnerBasis._of_rows([red.terms(i) for i in rows])


# ---------------------------------------------------------------------------
# elimination, saturation, integrality witness
# ---------------------------------------------------------------------------

def eliminate(gb: GroebnerBasis, keep) -> PolyIdeal:
    """Generators of ideal(gb) intersected with Q[keep].

    Requires the basis's eliminated variables all to precede the kept ones
    in the s > t > x > y precedence.
    """
    keep = set(keep)
    dropped = [v for v in VARS if v not in keep]
    used = set()
    for g in gb.basis:
        used |= g.variables()
    max_keep = min((var_index(v) for v in keep), default=NVARS)
    for v in dropped:
        if v in used and var_index(v) > max_keep:
            raise PreconditionError(
                f"variable {v} must precede kept variables in the order"
            )
    kept = [g for g in gb.basis if g.uses_only(keep)]
    if not kept:
        raise PreconditionError("elimination ideal is zero")
    return PolyIdeal(kept)


def saturate_gb(ideal: PolyIdeal, q: MPoly) -> GroebnerBasis:
    """Lex basis of (ideal : q^infinity) via the 1 - s*q trick; returns the
    s-free part, which is the reduced lex basis of the saturation."""
    if not q:
        raise PreconditionError("saturating by zero")
    for g in ideal.generators:
        if g.degree_in("s") > 0:
            raise PreconditionError("generators must not involve s")
    if q.degree_in("s") > 0:
        raise PreconditionError("saturating polynomial must not involve s")
    helper = MPoly.const(1) - MPoly.var("s") * q
    kb = buchberger([*ideal.generators, helper]).kernel
    s1 = _pack((1, 0, 0, 0))  # s is the top lex field: an s-free lead, an s-free row
    kept = [kb.terms(i) for i, lead in enumerate(kb.leads) if lead < s1]
    return GroebnerBasis._of_rows(kept or [{0: 1}])


def saturate(ideal: PolyIdeal, q: MPoly) -> PolyIdeal:
    return PolyIdeal(saturate_gb(ideal, q).basis)


def monic_in_t_witness(gb: GroebnerBasis):
    """The minimal-degree basis element whose lex leading monomial is a pure
    power of t, i.e. a monic integral relation for t over Q[x, y]; None when
    t is not integral.  Expects a basis not involving s."""
    leads = [_unpack(k) for k in gb.kernel.leads]
    if any(e[0] for e in leads):  # an element with s leads with it in lex
        raise PreconditionError("basis must not involve s")
    pure = [(e[1], i) for i, e in enumerate(leads) if e[1] and not e[2] and not e[3]]
    return gb.basis[min(pure)[1]] if pure else None


# ---------------------------------------------------------------------------
# conversions and specialization
# ---------------------------------------------------------------------------

def from_upoly(p) -> MPoly:
    """UPoly with rational coefficients -> MPoly."""
    i = var_index(p.var)
    out = {}
    for k, c in enumerate(p.coeffs):
        if c:
            e = [0] * NVARS
            e[i] = k
            out[tuple(e)] = Fraction(c)
    return MPoly(out)


def to_upoly_in(p: MPoly, name):
    """MPoly using only one variable -> UPoly over Q."""
    from .unipoly import UPoly

    if not p.uses_only({name}):
        raise PreconditionError(f"polynomial involves more than {name}")
    i = var_index(name)
    coeffs = [Fraction(0)] * (p.degree_in(name) + 1 if p else 0)
    for e, c in p.terms.items():
        coeffs[e[i]] = c
    return UPoly(name, coeffs)


def powers(val, n):
    """[None, val, val^2, ..., val^n], each power the previous one times
    val: the power table of a substitution (None stands for 1)."""
    table = [None, val][: n + 1]
    for _ in range(n - 1):
        table.append(table[-1] * val)
    return table


def specialize_to_t(p: MPoly, xval, yval):
    """Substitute x -> xval, y -> yval (ring elements with operators),
    returning the coefficient list of the result as a polynomial in t
    (lowest degree first).  s must be absent."""
    zero = xval - xval
    if p.degree_in("s") > 0:
        raise PreconditionError("polynomial involves s")
    dt = max((e[var_index("t")] for e in p.terms), default=0)
    coeffs = [zero] * (dt + 1)
    xi, yi, ti = var_index("x"), var_index("y"), var_index("t")
    xpow = powers(xval, p.degree_in("x"))
    ypow = powers(yval, p.degree_in("y"))
    for e, c in p.terms.items():
        term = xpow[e[xi]]
        yp = ypow[e[yi]]
        if yp is not None:
            term = yp if term is None else term * yp
        contrib = c if term is None else term * c
        coeffs[e[ti]] = coeffs[e[ti]] + contrib
    return coeffs


def eval_at(p: MPoly, xval, yval):
    """Full evaluation of a polynomial in x, y at ring elements."""
    if p.degree_in("t") > 0 or p.degree_in("s") > 0:
        raise PreconditionError("polynomial involves t or s")
    return specialize_to_t(p, xval, yval)[0]


def lift_membership(p: MPoly, gb: GroebnerBasis):
    """Quotients of p against gb.basis, so that p = sum(q_i * gb.basis[i]);
    None when p is not in the ideal.  Division over Q (Becker-Weispfenning
    5.1) by the first basis element whose leading monomial divides the
    leading term; on a Groebner basis a nonzero member's leading term is
    always divisible, so p is not a member once no element divides it."""
    leads = [leading_term(g) for g in gb.basis]
    quots = [{} for _ in leads]
    cur = dict(p.terms)
    while cur:
        e = max(cur)
        for i, (le, lc) in enumerate(leads):
            if all(a <= b for a, b in zip(le, e)):
                break
        else:
            return None
        m = {_ediv(e, le): cur[e] / lc}
        quots[i].update(m)
        _add_into(cur, _mul(gb.basis[i].terms, m), -1)
    return [MPoly._raw(q) for q in quots]
