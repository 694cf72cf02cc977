"""Multivariate polynomials over Q in the fixed universe {s, t, x, y},
monomial orders, Buchberger's algorithm, normal forms, elimination and
saturation.

s is reserved for the 1 - s*q saturation trick; t carries graph/fiber
variables; x, y are the plane coordinates.  MPoly coefficients are in Q.
Buchberger and normal forms run on one fraction-free kernel: polynomials
are scaled to primitive integer polynomials over packed monomials, reduced
by lc(g)*r - c*m*g with contents removed, and turned back into Q only where
a basis, remainder or quotient is returned.  Every step is exact (no
modular shortcuts, no floating point): exactness is the product.
Everything is deterministic: term order, pair selection and tie-breaking
are all fixed, and reduced bases are unique, so certificates reproduce
byte-for-byte.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import PreconditionError

VARS = ("s", "t", "x", "y")
NVARS = len(VARS)
_ZERO_EXPS = (0, 0, 0, 0)


def var_index(name):
    try:
        return VARS.index(name)
    except ValueError:
        raise PreconditionError(f"unknown variable {name!r}; universe is {VARS}")


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
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MPoly()
            return MPoly._raw({e: cc * c for e, cc in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return MPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        acc = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

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
# monomial orders
# ---------------------------------------------------------------------------

# Inside the Groebner kernel a monomial is one int holding NVARS exponent
# fields of _FIELD_BITS bits; the top bit of each field is a guard that stays
# clear.  Exponents entering the kernel are below _EXP_LIMIT, so the sums
# that reduction forms stay far from the guards.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << 16
_DEG_SHIFT = _FIELD_BITS * NVARS
_LOW = (1 << _DEG_SHIFT) - 1
_GUARDS = sum(1 << (_FIELD_BITS * (i + 1) - 1) for i in range(NVARS))


class MonomialOrder:
    """Total order on exponent tuples; bigger key = bigger monomial.

    pack() is the kernel's encoding: int comparison of packed monomials is
    this order, and pack(a + b) == pack(a) + pack(b), so multiplying
    monomials is adding ints.  lex puts s in the top field; grevlex puts the
    degree above negated fields with y on top (smaller last exponents win
    degree ties); grlex puts the degree above the lex fields."""

    __slots__ = ("name", "_shifts", "_graded", "_negated")

    def __init__(self, name):
        if name not in ("lex", "grevlex", "grlex"):
            raise ValueError(name)
        self.name = name
        self._graded = name != "lex"
        self._negated = name == "grevlex"
        self._shifts = tuple(
            _FIELD_BITS * (i if self._negated else NVARS - 1 - i) for i in range(NVARS)
        )

    def key(self, exps):
        if self.name == "lex":
            return exps
        if self.name == "grevlex":
            return (sum(exps), tuple(-e for e in reversed(exps)))
        return (sum(exps), exps)

    def pack(self, exps):
        k = 0
        for e, shift in zip(exps, self._shifts):
            k |= e << shift
        if self._negated:
            k = -k
        if self._graded:
            k += sum(exps) << _DEG_SHIFT
        return k

    def fields(self, k):
        """The exponent fields of a packed monomial as a nonnegative int."""
        return (-k if self._negated else k) & _LOW

    def unpack(self, k):
        f = self.fields(k)
        return tuple((f >> shift) & _FIELD_MASK for shift in self._shifts)

    def __repr__(self):
        return f"MonomialOrder({self.name})"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")


def leading_term(p: MPoly, order: MonomialOrder):
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _ediv(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _elcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _mono_mul(p: MPoly, exps, coeff):
    if not coeff:
        return MPoly()
    return MPoly._raw(
        {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in p.terms.items()}
    )


def _field_divides(fa, fb):
    """Monomial with exponent fields fa divides the one with fields fb."""
    return ((fb | _GUARDS) - fa) & _GUARDS == _GUARDS


# ---------------------------------------------------------------------------
# the fraction-free kernel
# ---------------------------------------------------------------------------

# A reduction without quotients divides out its content once its scale has
# grown by this many bits: pseudo-division otherwise swells coefficients
# (past 20,000 bits on one hard lex input, 73 once the content was gone).
_SWELL_BITS = 256

def _to_kernel(p: MPoly, order):
    """(terms, scale): terms maps packed monomials to the integer
    coefficients of scale * p, primitive with a positive leading
    coefficient; scale is a Fraction."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    pack = order.pack
    terms = {}
    for e, c in p.terms.items():
        if max(e) >= _EXP_LIMIT:
            raise PreconditionError(f"exponent {max(e)} is too large for a Groebner basis")
        terms[pack(e)] = c.numerator * (den // c.denominator)
    terms, content = _primitive(terms)
    return terms, Fraction(den, content)


def _to_mpoly(terms, order, factor=1):
    """factor * (packed integer terms) as an MPoly over Q."""
    unpack = order.unpack
    return MPoly._raw({unpack(k): Fraction(c) * factor for k, c in terms.items()})


def _primitive(terms):
    """terms divided by their content, leading coefficient made positive;
    returns (primitive terms, content)."""
    content = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}, content


class _Kernel:
    """Primitive integer polynomials in packed monomials, each with its
    leading monomial, exponent fields, leading coefficient and tail stored
    once, and full reduction by them."""

    __slots__ = ("order", "leads", "fields", "lcs", "tails")

    def __init__(self, order):
        self.order = order
        self.leads, self.fields, self.lcs, self.tails = [], [], [], []

    def __len__(self):
        return len(self.leads)

    def add(self, terms, i=None):
        """Append terms (packed monomial -> int), or replace element i."""
        lead = max(terms)
        row = (lead, self.order.fields(lead), terms[lead],
               [(k, c) for k, c in terms.items() if k != lead])
        if i is None:
            i = len(self.leads)
            for column in (self.leads, self.fields, self.lcs, self.tails):
                column.append(None)
        self.leads[i], self.fields[i], self.lcs[i], self.tails[i] = row

    def terms(self, i):
        return {self.leads[i]: self.lcs[i], **dict(self.tails[i])}

    def reduce(self, cur, steps=None):
        """Fully reduce cur (packed monomial -> int; consumed) and return
        (scale, rem) with scale * cur = sum(q_i * element_i) + rem and no
        term of rem divisible by a leading monomial.

        The largest term is taken from a heap; its divisor is the first
        element whose leading monomial divides it, and with d = gcd(c, lc)
        the step is cur := (lc/d) * cur - (c/d) * m * element.  When steps
        is a list, each step appends (i, m, c/d, scale after the step), from
        which quotients() rebuilds the q_i."""
        leads, fields, lcs, tails = self.leads, self.fields, self.lcs, self.tails
        negated = self.order._negated
        heap = [-k for k in cur]
        heapify(heap)
        rem = {}
        scale = grown = 1
        while heap:
            k = -heappop(heap)
            c = cur.pop(k, 0)
            if not c:  # cancelled after it was pushed
                continue
            f = (-k if negated else k) & _LOW
            for i, lf in enumerate(fields):
                if ((f | _GUARDS) - lf) & _GUARDS == _GUARDS:
                    break
            else:
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
            if steps is not None:
                steps.append((i, shift, b, scale))
            elif grown >> _SWELL_BITS:
                d = math.gcd(*cur.values(), *rem.values())
                if d > 1:
                    for m in cur:
                        cur[m] //= d
                    for m in rem:
                        rem[m] //= d
                    scale = Fraction(scale, d)
                grown = 1
        return scale, rem

    def quotients(self, steps, scale):
        """The q_i of reduce() as packed integer terms, one dict per element."""
        quots = [{} for _ in self.leads]
        for i, m, b, s in steps:
            quots[i][m] = quots[i].get(m, 0) + b * (scale // s)
        return quots


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
    __slots__ = ("order", "basis")

    def __init__(self, order, basis):
        self.order = order
        self.basis = tuple(basis)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis({self.order.name}, {len(self.basis)} elements)"


def normal_form(p: MPoly, gb: GroebnerBasis, with_quotients=False):
    """Full remainder of multivariate division by the basis; zero iff p is
    in the ideal.  Divisor choice is the first basis element (fixed basis
    order) whose leading monomial divides, so the result is deterministic;
    on a reduced basis it is canonical regardless.  The division runs over
    Z; remainder and quotients are returned exactly over Q."""
    if not p:
        return (MPoly(), [MPoly() for _ in gb.basis]) if with_quotients else MPoly()
    order = gb.order
    kb = _Kernel(order)
    scales = []
    for g in gb.basis:
        terms, s = _to_kernel(g, order)
        kb.add(terms)
        scales.append(s)
    cur, ps = _to_kernel(p, order)
    steps = [] if with_quotients else None
    scale, rem = kb.reduce(cur, steps)
    # scale * ps * p = sum(q_i * scales_i * g_i) + rem
    inv = 1 / (scale * ps)
    rem_poly = _to_mpoly(rem, order, inv)
    if with_quotients:
        return rem_poly, [
            _to_mpoly(q, order, s * inv) for q, s in zip(kb.quotients(steps, scale), scales)
        ]
    return rem_poly


def spoly(f, g, order):
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    l = _elcm(ef, eg)
    return _mono_mul(f, _ediv(l, ef), 1 / cf) - _mono_mul(g, _ediv(l, eg), 1 / cg)


def buchberger(ideal, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis (product + chain criteria, normal selection)."""
    gens = list(ideal.generators if isinstance(ideal, PolyIdeal) else ideal)
    gens = [g for g in gens if g]
    if not gens:
        raise PreconditionError("no nonzero generators")

    kb = _Kernel(order)
    exps = []  # leading exponent tuple per element

    def push(terms):
        kb.add(terms)
        exps.append(order.unpack(kb.leads[-1]))

    for g in gens:
        push(_to_kernel(g, order)[0])

    heap = []

    def add_pair(i, j):
        heappush(heap, (order.pack(_elcm(exps[i], exps[j])), i, j))

    for i in range(len(kb)):
        for j in range(i + 1, len(kb)):
            add_pair(i, j)
    done = set()

    while heap:
        l, i, j = heappop(heap)
        done.add((i, j))
        # product criterion
        if all(not (a and b) for a, b in zip(exps[i], exps[j])):
            continue
        # chain criterion
        lf = order.fields(l)
        skip = False
        for k, kf in enumerate(kb.fields):
            if k != i and k != j and _field_divides(kf, lf):
                if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                    skip = True
                    break
        if skip:
            continue
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
        if not rem:
            continue
        n = len(kb)
        push(_primitive(rem)[0])
        for k in range(n):
            add_pair(k, n)
    return _reduced_basis(kb)


def _reduced_basis(kb):
    """The unique reduced basis, monic over Q and sorted by leading term,
    from a Groebner basis held in the kernel."""
    order, fields, leads = kb.order, kb.fields, kb.leads
    # drop elements whose leading monomial is divisible by another's
    keep = [
        i for i in range(len(kb))
        if not any(
            j != i and _field_divides(fields[j], fields[i]) and (leads[j] != leads[i] or j < i)
            for j in range(len(kb))
        )
    ]
    red = _Kernel(order)
    for i in keep:
        red.add(kb.terms(i))
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
    basis = [_to_mpoly(red.terms(i), order, Fraction(1, red.lcs[i])) for i in rows]
    return GroebnerBasis(order, basis)


# ---------------------------------------------------------------------------
# elimination, saturation, integrality witness
# ---------------------------------------------------------------------------

def eliminate(gb: GroebnerBasis, keep) -> PolyIdeal:
    """Generators of ideal(gb) intersected with Q[keep].

    Requires a lex basis whose eliminated variables all precede the kept
    ones in the s > t > x > y precedence.
    """
    if gb.order != LEX:
        raise PreconditionError("elimination needs a lex basis")
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
    full = buchberger(PolyIdeal(list(ideal.generators) + [helper]), LEX)
    kept = [g for g in full.basis if g.degree_in("s") == 0]
    if not kept:
        kept = [MPoly.const(1)]
    return GroebnerBasis(LEX, kept)


def saturate(ideal: PolyIdeal, q: MPoly) -> PolyIdeal:
    return PolyIdeal(saturate_gb(ideal, q).basis)


def monic_in_t_witness(gb: GroebnerBasis):
    """The minimal-degree basis element whose lex leading monomial is a pure
    power of t, i.e. a monic integral relation for t over Q[x, y]; None when
    t is not integral.  Expects a lex basis not involving s."""
    if gb.order != LEX:
        raise PreconditionError("witness needs a lex basis")
    best = None
    best_deg = None
    for g in gb.basis:
        if g.degree_in("s") > 0:
            raise PreconditionError("basis must not involve s")
        e, _ = leading_term(g, LEX)
        if e[var_index("t")] >= 1 and e[var_index("x")] == e[var_index("y")] == 0 and e[var_index("s")] == 0:
            if best_deg is None or e[var_index("t")] < best_deg:
                best, best_deg = g, e[var_index("t")]
    return best


def ideals_equal(a: PolyIdeal, b: PolyIdeal) -> bool:
    """Mutual containment via lex normal forms."""
    gba = buchberger(a, LEX)
    gbb = buchberger(b, LEX)
    return all(not normal_form(g, gba) for g in b.generators) and all(
        not normal_form(g, gbb) for g in a.generators
    )


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
    None when p is not in the ideal."""
    rem, quots = normal_form(p, gb, with_quotients=True)
    return None if rem else quots
