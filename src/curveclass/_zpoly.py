"""Dense integer-polynomial kernel.

Polynomials are plain lists of Python ints, lowest degree first, with no
trailing zeros (the zero polynomial is the empty list).  Everything exact;
the only floating point anywhere in the package lives in the numeric fuzz
oracles of the test suite.

Multiplication and exact division switch to Kronecker substitution (pack
the coefficients into one big integer, use CPython's fast bignum ops,
unpack balanced digits) once operands are large enough; big-degree gcds go
through a verified evaluation bound (divide-and-check) with a primitive
remainder sequence as the fallback.  Resultants run the subresultant
remainder sequence.  Sturm chains stay on primitive-part pseudo-remainders
so sign sequences are preserved.  Every remainder sequence takes its
pseudo-remainders from one pseudo-division, zpdivmod.  Rational roots
come from p-adic lifting of the roots modulo one small prime, with no real
root isolation.

SturmSigns is the one implementation of Sturm root counting, bisection
isolation and interval refinement, for integer chains here and for chains
over number-field towers at a real embedding (numfield): it keeps the
signs of a chain per point, so each is computed once.
"""

from fractions import Fraction
from math import gcd as int_gcd, isqrt

_KRONECKER_CUTOFF = 24  # schoolbook below this many coefficient products


def ztrim(a):
    """Strip trailing zero coefficients in place-free fashion."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def zdeg(a):
    return len(a) - 1


def zadd(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return ztrim(out)


def zsub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return ztrim(out)


def zneg(a):
    return [-c for c in a]


def zscale(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def _max_bits(a):
    return max((c.bit_length() for c in a), default=0)


def _pack(a, width):
    """Evaluate a at 2**width (Horner on ints)."""
    acc = 0
    for c in reversed(a):
        acc = (acc << width) + c
    return acc


def _unpack(n, width, count):
    """Balanced base-2**width digits of n; inverse of _pack when digits fit."""
    base = 1 << width
    half = base >> 1
    out = []
    for _ in range(count):
        if n == 0:
            break
        r = n & (base - 1)
        if r >= half:
            r -= base
        out.append(r)
        n = (n - r) >> width
    return ztrim(out)


def zmul(a, b):
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la * lb <= _KRONECKER_CUTOFF * _KRONECKER_CUTOFF:
        out = [0] * (la + lb - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return ztrim(out)
    width = _max_bits(a) + _max_bits(b) + min(la, lb).bit_length() + 2
    prod = _pack(a, width) * _pack(b, width)
    return _unpack(prod, width, la + lb - 1)


def zdivexact(a, b, quot_bits=None):
    """Exact quotient a // b in Z[x]; raises ValueError if not divisible.

    If quot_bits bounds the quotient's coefficient size, Kronecker division
    is used and verified; otherwise classical top-down division.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    dq = len(a) - len(b)
    if dq < 0:
        raise ValueError("not divisible")
    if quot_bits is not None and len(a) > _KRONECKER_CUTOFF:
        width = max(quot_bits, _max_bits(a), _max_bits(b)) + 4
        qa, qb = _pack(a, width), _pack(b, width)
        quot, rem = divmod(qa, qb)
        if rem == 0:
            q = _unpack(quot, width, dq + 1)
            if zmul(q, b) == ztrim(list(a)):
                return q
        # bound was optimistic; fall through to the classical path
    r = list(a)
    q = [0] * (dq + 1)
    lb = b[-1]
    db = len(b) - 1
    for k in range(dq, -1, -1):
        top = r[k + db]
        if top % lb:
            raise ValueError("not divisible")
        c = top // lb
        q[k] = c
        if c:
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    if any(r[:db]):
        raise ValueError("not divisible")
    return ztrim(q)


def zcontent(a):
    g = 0
    for c in a:
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def zprimitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return []
    g = zcontent(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def zderiv(a):
    return ztrim([i * c for i, c in enumerate(a)][1:])


def zeval_int(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def zsign_at(a, x):
    """Sign of a at the rational point x (x a Fraction or int)."""
    if not a:
        return 0
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # sign(a(n/d)) = sign(sum c_i n^i d^(deg-i)) since d > 0
    acc = a[-1]
    dpow = 1
    for c in reversed(a[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------
# pseudo-division, resultant, and gcd: verified evaluation for large
# inputs, primitive PRS fallback
# ---------------------------------------------------------------------------

def zpdivmod(a, b):
    """Pseudo-division: (q, r) with lc(b)**k * a = q * b + r, deg r < deg b
    and k = max(deg a - deg b + 1, 0).  Multiplying a by lc(b)**k up front
    makes each quotient term t // lc(b) exact."""
    db = len(b) - 1
    k = len(a) - db
    if k <= 0:
        return [], list(a)
    lb = b[-1]
    s = lb**k
    r = [c * s for c in a]
    q = [0] * k
    for j in range(k - 1, -1, -1):
        t = r[j + db] // lb
        if t:
            q[j] = t
            for i in range(db):
                r[j + i] -= t * b[i]
    return q, ztrim(r[:db])  # q[-1] = lc(b)**(k-1) * lc(a) != 0


def zresultant(a, b):
    """Resultant of two nonzero polynomials by the subresultant remainder
    sequence (Collins; Cohen, Alg. 3.3.7): every remainder is divided
    exactly by g * h**delta, so coefficients grow only like the minors."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -1
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = zpdivmod(a, b)[1]
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        if delta:  # delta = 0 only on the first step, where h = 1
            h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return s * b[0] ** da // h ** (da - 1)


def _gcd_prs(a, b):
    """Primitive-PRS gcd of primitive inputs (subresultant-free, adequate
    at the sizes that reach this fallback)."""
    while b:
        a, b = b, zprimitive(zpdivmod(a, b)[1])
    return zprimitive(a)


def _mignotte_bits(a):
    """Bit bound on coefficients of any monic-content divisor of a."""
    return len(a) + _max_bits(a) + len(a).bit_length() + 2


def zgcd(a, b):
    """gcd in Z[x], primitive with positive leading coefficient."""
    a, b = zprimitive(a), zprimitive(b)
    if not a:
        return b
    if not b:
        return a
    if zdeg(a) < zdeg(b):
        a, b = b, a
    if zdeg(b) == 0:
        return [1]
    if len(a) <= 12:
        return _gcd_prs(a, b)
    # verified evaluation: pick xi so large that a reconstructed common
    # divisor passing both exact divisions must be the full gcd
    guard = max(_mignotte_bits(a), _mignotte_bits(b)) + len(a).bit_length() + 4
    for attempt in range(5):
        width = guard + attempt * 32
        xi = 1 << width
        g_int = int_gcd(zeval_int(a, xi), zeval_int(b, xi))
        g = zprimitive(_unpack(g_int, width, zdeg(b) + 1))
        if not g:
            continue
        try:
            qb = max(_max_bits(a), _max_bits(b)) + guard
            zdivexact(a, g, quot_bits=qb)
            zdivexact(b, g, quot_bits=qb)
            return g
        except ValueError:
            continue
    return _gcd_prs(a, b)


def zsquarefree(a):
    """Squarefree part, primitive, positive leading coefficient."""
    if not a:
        raise ValueError("zero polynomial has no squarefree part")
    a = zprimitive(a)
    if zdeg(a) == 0:
        return [1]
    g = zgcd(a, zderiv(a))
    if zdeg(g) == 0:
        return a
    return zprimitive(zdivexact(a, g, quot_bits=_mignotte_bits(a)))


def zyun(a):
    """Yun squarefree decomposition: list of (multiplicity, factor) with
    a = content * prod(factor ** multiplicity); factors primitive,
    squarefree, pairwise coprime, nonconstant."""
    a = zprimitive(a)
    if zdeg(a) <= 0:
        return []
    d = zderiv(a)
    g = zgcd(a, d)
    if zdeg(g) == 0:
        return [(1, a)]
    qb = _mignotte_bits(a)
    w = zdivexact(a, g, quot_bits=qb)
    z = zsub(zdivexact(d, g, quot_bits=qb), zderiv(w))
    out = []
    i = 1
    while zdeg(w) > 0:
        h = zgcd(w, z)
        if zdeg(h) > 0:
            out.append((i, h))
        w = zdivexact(w, h, quot_bits=qb)
        z = zsub(zdivexact(z, h, quot_bits=qb), zderiv(w))
        i += 1
    return out


def _odd_primes():
    """3, 5, 7, 11, ... by trial division."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def zsf_rational_roots(sf):
    """Rational roots of sf, ascending; sf must be primitive and squarefree
    with a positive leading coefficient.  Complete, with no limit on
    denominators.

    p-adic lifting (Loos, SIAM J. Comput. 12, 1983): take the first odd
    prime p with p not dividing lc(sf) at which every root of sf mod p is
    simple; sf is squarefree, so only the primes dividing lc * disc(sf) are
    skipped.  A root n/d in lowest terms has d | lc (Gauss's lemma), so it
    is a p-adic integer whose residue is one of those simple roots, and it
    is the unique p-adic root above it (Hensel).  Newton-lift each root
    until the modulus M exceeds 2 * (max |a_i| + 2 lc), more than twice
    |lc * n/d| by the Cauchy bound (zroot_bound); the symmetric residue N of
    lc * root mod M is then lc * n/d itself, and N / lc is tested exactly.
    """
    lc = sf[-1]
    if len(sf) <= 2:
        return [Fraction(-sf[0], lc)] if len(sf) == 2 else []
    d = zderiv(sf)
    for p in _odd_primes():
        if lc % p == 0:
            continue
        roots = [x for x in range(p) if zeval_int(sf, x) % p == 0]
        if not roots:
            return []  # a rational root would reduce to a root mod p
        if all(zeval_int(d, x) % p for x in roots):
            break
    bound = 2 * (max(map(abs, sf)) + 2 * lc)
    out = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - zeval_int(sf, r) * pow(zeval_int(d, r), -1, m)) % m
        n = r * lc % m
        root = Fraction(n - m if 2 * n > m else n, lc)
        if zsign_at(sf, root) == 0:
            out.append(root)
    out.sort()
    return out


def zrational_roots(a):
    """Rational roots of a (no multiplicity), ascending: those of its
    primitive squarefree part, by zsf_rational_roots."""
    if not a:
        raise ValueError("zero polynomial")
    return zsf_rational_roots(zsquarefree(a))


# ---------------------------------------------------------------------------
# Sturm chains (primitive-part pseudo-remainders, sign-preserving)
# ---------------------------------------------------------------------------

def zprimitive_pos(a):
    """Divide out the (positive) content, keeping the sign of a."""
    if not a:
        return []
    g = zcontent(a)
    return [c // g for c in a]


def sturm_chain(a):
    """Sturm chain of a squarefree primitive polynomial.

    Pseudo-remainders with the multiplier forced positive, then positive
    content divided out, so the chain has the exact sign behaviour of the
    classical rational Sturm sequence.
    """
    chain = [a]
    b = zprimitive_pos(zderiv(a))
    while b:
        chain.append(b)
        prev = chain[-2]
        r = zpdivmod(prev, b)[1]
        # zpdivmod multiplied prev by lc(b)**(delta+1); flip if that factor < 0
        if b[-1] < 0 and (zdeg(prev) - zdeg(b) + 1) % 2 == 1:
            r = zneg(r)
        b = zprimitive_pos(zneg(r))
    return chain


class SturmSigns:
    """Signs of a Sturm chain at rational points, and the root counting,
    isolation and refinement built on them.

    sign(q, x) is the sign of the chain polynomial q at the rational x,
    lead(q) the sign of its leading coefficient and deg(q) its degree:
    integer chains pass zsign_at, tower chains their sign at one real
    embedding.  For counting and isolation, signs are computed lazily,
    chain prefix first, and kept per point, so each is computed once per
    table; refinement only meets new points and keeps none.
    """

    __slots__ = ("chain", "_sign", "_lead", "_deg", "_rows")

    def __init__(self, chain, sign, lead, deg):
        self.chain = chain
        self._sign = sign
        self._lead = lead
        self._deg = deg
        self._rows = {}  # point (None: infinity) -> signs of a chain prefix

    def signs(self, x, n):
        """Signs of chain[:n] at x; x = None gives the leading signs."""
        # keyed by (numerator, denominator): hashing a Fraction costs a
        # modular inverse
        key = None if x is None else (x.numerator, x.denominator)
        row = self._rows.setdefault(key, [])
        for q in self.chain[len(row):n]:
            row.append(self._lead(q) if x is None else self._sign(q, x))
        return row

    def sign(self, x):
        """Sign of chain[0] at x."""
        return self.signs(x, 1)[0]

    def variations(self, x, minus_inf=False):
        """Sign variations of the chain at x; x = None is +infinity, or
        -infinity with minus_inf (odd degrees flip the leading sign)."""
        signs = self.signs(x, len(self.chain))
        if minus_inf:
            signs = [-s if self._deg(q) % 2 else s for q, s in zip(self.chain, signs)]
        count, prev = 0, 0
        for s in signs:
            if s == 0:
                continue
            if prev and s != prev:
                count += 1
            prev = s
        return count

    def count(self, lo=None, hi=None):
        """Distinct real roots of chain[0] in the open interval (lo, hi);
        None = infinity.  Finite endpoints must not be roots; callers
        deflate exact rational roots first (see unipoly.sturm_count)."""
        for x in (lo, hi):
            if x is not None and self.sign(x) == 0:
                raise ValueError("endpoint is a root; deflate it first")
        return self.variations(lo, minus_inf=lo is None) - self.variations(hi)

    def isolate(self, bound):
        """Disjoint isolating intervals, ascending, for the real roots of
        chain[0], all inside (-bound, bound).  Bisection; an endpoint that
        is a root moves right by 1/64, then 1/128, ... until it is not."""
        total = self.count()
        if total == 0:
            return []

        def endpoint(x):
            step = Fraction(1, 64)
            while self.sign(x) == 0:
                x += step
                step /= 2
            return x

        out = []
        stack = [(endpoint(-bound), endpoint(bound), total)]
        while stack:
            lo, hi, count = stack.pop()
            if count == 0:
                continue
            if count == 1:
                out.append((lo, hi))
                continue
            mid = endpoint((lo + hi) / 2)
            left = self.variations(lo) - self.variations(mid)
            stack.append((mid, hi, count - left))
            stack.append((lo, mid, left))
        out.sort()
        return out

    def refine(self, lo, hi, width):
        """Shrink the isolating interval (lo, hi) of a root of chain[0]
        below the given width by bisection, the midpoint's sign first.
        Every midpoint is a new point, so signs are not stored here; the
        sign at lo is computed once, after the first midpoint's."""
        sign, p, slo = self._sign, self.chain[0], None
        while hi - lo > width:
            mid = (lo + hi) / 2
            sm = sign(p, mid)
            if sm == 0:
                # the root is exactly mid; box it well inside the old interval
                eps = min(mid - lo, hi - mid, width) / 4
                return mid - eps, mid + eps
            if slo is None:
                slo = sign(p, lo)
            if sm == slo:
                lo = mid
            else:
                hi = mid
        return lo, hi


def _zlead(a):
    return 1 if a[-1] > 0 else -1


def _zsigns(chain):
    """SturmSigns of an integer chain."""
    return SturmSigns(chain, zsign_at, _zlead, zdeg)


def sturm_count(chain, lo=None, hi=None):
    """Distinct real roots of chain[0] in the open interval (lo, hi); see
    SturmSigns.count."""
    return _zsigns(chain).count(lo, hi)


def zroot_bound(a):
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(a[-1])
    m = max((abs(c) for c in a[:-1]), default=0)
    return Fraction(m, lc) + 2


def zisolate(a):
    """Disjoint open isolating intervals for the real roots of the
    squarefree part of a, ascending, each certified by a Sturm count of 1
    and nonzero endpoint signs."""
    if not a:
        raise ValueError("zero polynomial")
    sf = zsquarefree(a)
    if zdeg(sf) == 0:
        return []
    return _zsigns(sturm_chain(sf)).isolate(zroot_bound(sf))


def zrefine(a, lo, hi, width):
    """Shrink an isolating interval of squarefree a below the given width."""
    return _zsigns([a]).refine(lo, hi, width)
