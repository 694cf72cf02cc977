"""Plane-curve domain model: validated curves, realness certification,
singular locus, bad locus, and finite-morphism fiber checks.

Zero-dimensional systems in (x, y) are decomposed into triangular classes
(m1(x), m2(x, y)): m1 comes from a resultant, split into pairwise coprime
chunks by squarefree multiplicity classes and rational-root extraction
(never by factorization); m2 is a gcd over the resulting tower.  The gcd
of the first two polynomials is read off their subresultants when the
chunk's roots all agree on its degree; otherwise, and for the remaining
polynomials, it is computed with dynamic evaluation, so reducible chunks
split lazily when arithmetic forces them to (run_with_splits retries on
each branch).  Each class carries its certified real embeddings.
"""

import itertools
import math
from fractions import Fraction

from . import _zpoly as zp
from .bipoly import (YSubresultants, bivariate_divexact_y, bivariate_gcd, deriv_x, deriv_y,
                     from_y_dense, rows_at, to_y_dense, y_content, y_primitive)
from .errors import (
    CurveError,
    DegenerateInputError,
    PreconditionError,
    ZeroDivisorDenominatorError,
)
from .mpoly import (
    MPoly,
    buchberger,
    eliminate,
    from_upoly,
    monic_in_t_witness,
    powers,
    specialize_to_t,
    var_index,
)
from .numfield import (
    NumberField,
    RealEmbedding,
    SplitEvent,
    extend_field,
    isolate_tower_roots,
    nf_sign,
    rational_point_field,
    tower_chain_count,
    tower_sturm_chain,
)
from .parsing import format_upoly
from .unipoly import (
    UPoly,
    nonzero_gcd,
    rational_roots,
    squarefree_part,
    upoly_gcd,
)

_XI = var_index("x")
_YI = var_index("y")


def specialize_x(p: MPoly, xval) -> UPoly:
    """Substitute x -> xval (Fraction or tower element); result is a
    polynomial in y over the value's ring.  Horner over whatever ring xval
    lives in; a tower's own generator is substituted by reduction instead
    (NumberField.at_gens on the y-rows, as _points_at_chunk does)."""
    zero = xval - xval
    dy = p.degree_in("y")
    coeffs = [zero] * (dy + 1 if dy >= 0 else 1)
    xpow = powers(xval, p.degree_in("x"))
    for e, c in p.terms.items():
        xp = xpow[e[_XI]]
        contrib = c if xp is None else xp * c
        coeffs[e[_YI]] = coeffs[e[_YI]] + contrib
    return UPoly("y", coeffs)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class BadPoint:
    """A conjugacy class of closed points, presented as a triangular tower
    (m1(x), m2(x, y)) with its certified real embeddings."""

    __slots__ = ("field", "embeddings")

    def __init__(self, field: NumberField, embeddings):
        self.field = field
        self.embeddings = list(embeddings)

    @property
    def is_real(self):
        return bool(self.embeddings)

    @property
    def class_size(self):
        return self.field.degree()

    def is_rational(self):
        return self.field.degree() == 1

    def coords(self):
        """Exact rational coordinates; only for degree-1 classes."""
        return (self.field.gen(0).as_fraction(), self.field.gen(1).as_fraction())

    def xgen(self):
        return self.field.gen(0)

    def ygen(self):
        return self.field.gen(1)

    def m1(self) -> UPoly:
        return self.field.minpoly(0)

    def sort_key(self):
        if self.is_rational():
            x0, y0 = self.coords()
            return (0, x0, y0, ())
        # the order compares the monic level polynomials' rational coefficients
        m1, m2 = self.field.zlevels()
        m1c = tuple(Fraction(c, m1[-1]) for c in m1)
        m2c = tuple(tuple(Fraction(c, m2[-1][0]) for c in row) for row in m2)
        return (1, len(m1c), Fraction(0), (m1c, m2c))

    def split(self, level, factor_rep):
        """Dynamic-evaluation split: replace this class by its branches,
        reassigning each real embedding to the branch that owns its root.

        split_level divides the squarefree level polynomial exactly, so its
        (at most two) branches are coprime factors and each embedding's root
        belongs to exactly one of them: the owner test runs for the branches
        before the last, and the last takes, in order, every embedding no
        earlier branch owns.  One Sturm chain per split, none without
        embeddings."""
        *first, last = self.field.split_level(level, factor_rep)
        out = []
        rest = self.embeddings
        for br in first:
            owns = _owner_test(br, level) if rest else None
            owned = [owns(emb) for emb in rest]
            out.append(BadPoint(br, [e.clone_for(br) for e, o in zip(rest, owned) if o]))
            rest = [e for e, o in zip(rest, owned) if not o]
        out.append(BadPoint(last, [e.clone_for(last) for e in rest]))
        return out

    def __repr__(self):
        if self.is_rational():
            x0, y0 = self.coords()
            return f"BadPoint({x0}, {y0})"
        return f"BadPoint(deg {self.class_size}, {len(self.embeddings)} real)"


def _owner_test(branch_field, level):
    """emb -> does the branch's level polynomial own the root that emb
    isolates at that level; the Sturm chain is built once per branch."""
    if level == 0:
        # the integer level form is squarefree and primitive by construction
        chain = zp.sturm_chain(branch_field.zlevels()[0])

        def owns(emb):
            return zp.sturm_count(chain, *emb.interval(0)) == 1

        return owns
    chain = tower_sturm_chain(branch_field.minpoly(1))

    def owns(emb):
        return tower_chain_count(chain, emb.clone_for(branch_field), *emb.interval(1)) == 1

    return owns


def run_with_splits(point: BadPoint, fn):
    """Run fn(point); on SplitEvent, branch the point and retry on each
    piece.  Returns a list of (refined_point, result)."""
    try:
        return [(point, fn(point))]
    except SplitEvent as ev:
        out = []
        for sub in point.split(ev.level, ev.factor_rep):
            out.extend(run_with_splits(sub, fn))
        return out


# ---------------------------------------------------------------------------
# triangular decomposition of zero-dimensional systems
# ---------------------------------------------------------------------------

def _split_candidates(z):
    """Split an integer candidate polynomial into rational roots plus
    pairwise-coprime squarefree chunks, primitive in Z[x], via Yun classes
    and verified rational-root extraction (no factorization)."""
    roots = []
    chunks = []
    for _, factor in zp.zyun(z):
        fr = zp.zsf_rational_roots(factor)  # Yun factors are squarefree already
        roots.extend(fr)
        rest = factor
        for r in fr:  # exact in Z[x]: den*x - num is primitive (Gauss)
            rest = zp.zdivexact(rest, [-r.numerator, r.denominator])
        if zp.zdeg(rest) >= 1:
            chunks.append(rest)
    return sorted(set(roots)), chunks


def solve_xy_system(grids, sres=None):
    """All solutions of a finite system {p_i(x, y) = 0} as BadPoint classes,
    deterministically ordered; each p_i is given by its integer y-rows
    (to_y_dense), and [] is the zero polynomial.  Raises
    DegenerateInputError exactly when the system has a positive-dimensional
    component, that is when its nonzero polynomials share a nonconstant
    factor: a resultant that vanishes (a shared factor of positive
    y-degree), or a rational x0 or a branch of irrational x-coordinates over
    which every polynomial vanishes (a shared factor in x alone).
    bad_locus relies on this.  sres, if given, is the YSubresultants of the
    first two polynomials of positive y-degree."""
    live = []
    for rows in grids:
        if not rows:
            continue
        if len(rows) == 1 and len(rows[0]) == 1:
            return []  # a nonzero constant: the system has no solutions
        live.append(rows)
    if not live:
        raise DegenerateInputError("empty system is not zero-dimensional")
    withy = [rows for rows in live if len(rows) >= 2]
    xonly = [rows[0] for rows in live if len(rows) == 1]

    if len(withy) >= 2:
        sres = sres or YSubresultants(withy[0], withy[1])
        r = sres.resultant()
        if not r:
            raise DegenerateInputError("polynomials share a component")
        xonly.insert(0, r)
    # the x-only polynomials as the rows of one polynomial: its content is their gcd
    cand = y_content(xonly)
    if not cand:
        raise DegenerateInputError("system is not zero-dimensional in x")
    if zp.zdeg(cand) == 0:
        return []

    roots, chunks = _split_candidates(cand)
    isolated = {}  # this solve's level-0 polynomials -> their real roots
    out = []
    for r in roots:
        out.extend(_points_at_rational_x(r, withy, isolated))
    for chunk in chunks:
        out.extend(_points_at_chunk(chunk, withy, sres, isolated))
    out.sort(key=BadPoint.sort_key)
    return out


def _points_at_rational_x(x0, grids, isolated):
    """Solutions over a rational x-coordinate x0 = n/d, from the integer
    y-rows of the system's polynomials: split the rational
    y-roots into their own degree-1 classes, keep the rest as one class.
    Each fiber is rows_at(rows, x0), in Z[y]; isolated is the solve's memo
    of _embeddings_for."""
    g = None
    for rows in grids:
        fiber = rows_at(rows, x0)
        if not fiber:
            continue  # a zero fiber imposes no constraint at this x
        g = fiber if g is None else zp.zgcd(g, fiber)
        if zp.zdeg(g) == 0:
            break
    if g is None:
        raise DegenerateInputError(f"positive-dimensional fiber over x = {x0}")
    if zp.zdeg(g) == 0:
        return []
    out = []
    rest = zp.zsquarefree(g)
    for y0 in zp.zsf_rational_roots(rest):
        out.extend(_finish_point_classes(rational_point_field("x", "y", x0, y0), isolated))
        rest = zp.zdivexact(rest, [-y0.numerator, y0.denominator])  # exact (Gauss)
    if zp.zdeg(rest) >= 1:  # rest is primitive with a positive lead: its own level form
        fld = NumberField([("x", (-x0.numerator, x0.denominator)),
                           ("y", tuple((c,) if c else () for c in rest))])
        out.extend(_finish_point_classes(fld, isolated))
    return out


def _points_at_chunk(chunk, grids, sres, isolated):
    """Solutions over a coprime chunk in Z[x] of irrational x-coordinates,
    from the integer y-rows of the system's polynomials of positive y-degree;
    dynamic evaluation splits the chunk when the fiber structure varies.  sres
    holds the subresultants of grids[0] and grids[1] (None for fewer than two);
    isolated is the solve's memo of _embeddings_for."""

    def classes_over(branch):
        fld = branch.field
        first = None if sres is None else _first_pair_gcd(fld, sres)
        # a positive multiple of p(alpha, y), each y-coefficient reduced
        # modulo the chunk: the gcd and its monic squarefree part are the same
        polys = (UPoly("y", [fld.at_gens(row) for row in rows])
                 for rows in (grids if first is None else grids[2:]))
        g = nonzero_gcd(polys if first is None else itertools.chain([first], polys))
        if g is None:
            raise DegenerateInputError(
                f"positive-dimensional fiber over the roots of {format_upoly(fld.minpoly(0))}"
            )
        if g.degree == 0:
            return []
        m2 = squarefree_part(g)
        return _finish_point_classes(extend_field(fld, "y", list(m2.coeffs)), isolated)

    start = BadPoint(NumberField([("x", tuple(chunk))]), [])
    return [pt for _, pts in run_with_splits(start, classes_over) for pt in pts]


def _first_pair_gcd(fld: NumberField, sres):
    """The monic gcd of the first two system polynomials at the roots alpha
    of fld's level 0, read off their subresultants: S_k(alpha, y) / s_k(alpha)
    with k the least j whose principal coefficient s_j is nonzero at alpha
    (specialization: lc_y of the sequence's first polynomial is nonzero at
    alpha).  Decided on integers, each s_j reduced modulo the chunk and then
    tested by a gcd with it.  None when lc_y vanishes at a root, when some
    s_j vanishes at some roots but not all, or when all vanish (the other
    polynomial is 0 at alpha): the tower route then runs, and splits the
    chunk where it must.  Otherwise every s_j is a unit or zero
    modulo the chunk, the remainder degrees are the same at every root, the
    tower Euclid would not split, and its monic gcd is this one."""
    m = fld.zlevels()[0]
    if not _unit_mod(sres.lead, m):
        return None
    k = None
    # the last index is j = 0, s_0 the resultant: the chunk divides it
    for i in range(len(sres.degrees) - 1):
        s = zp.zpdivmod(sres.principal(i), m)[1]
        if not s:
            continue  # zero at every root
        if not _unit_mod(s, m):
            return None
        k = i  # degrees descend, so the last such index has the least j
    if k is None:
        return None
    return UPoly("y", [fld.at_gens(row) for row in sres.rows(k)]).monic()


def _unit_mod(a, m):
    """a is nonzero at every root of the squarefree integer polynomial m."""
    return bool(a) and zp.zdeg(zp.zgcd(m, a)) == 0


def _finish_point_classes(fld2: NumberField, isolated):
    """Attach certified embeddings, branching on any split surfaced while
    isolating real roots; each branch isolates its own."""
    branches = run_with_splits(BadPoint(fld2, []), lambda b: _embeddings_for(b.field, isolated))
    return [BadPoint(b.field, embs) for b, embs in branches]


def _embeddings_for(field: NumberField, isolated=None):
    """Certified real embeddings of a depth-2 tower, sorted by position.

    When m2 lies in Q[y], its real roots are the same over every real root
    of m1: they are isolated once, over Z, and each pair gets its own
    embedding (embeddings are refined in place).  The intervals are the
    tower route's: the Cauchy bound is the same, any Sturm chain gives the
    same counts, and rational coefficients never refine the base.  Otherwise
    m2's tower chain is built at the first real root of m1 (building it can
    split the tower) and isolated at each.

    m1, and m2 when it lies in Q[y], are squarefree and primitive in
    integer form by construction, so each is isolated as it is.  isolated,
    a dict a locus solve passes to all its calls, keeps the intervals per
    integer polynomial (tuples, which refinement replaces and never
    changes), so a solve isolates each once: x over x = 0 and y over y = 0,
    say, are one polynomial."""
    isolated = {} if isolated is None else isolated

    def real_roots(sf):
        key = tuple(sf)
        if key not in isolated:
            isolated[key] = zp.zisolate_squarefree(sf)
        return isolated[key]

    zm1, zm2 = field.zlevels()
    base_roots = real_roots(zm1)
    if base_roots and all(len(row) <= 1 for row in zm2):
        fiber = real_roots([row[0] if row else 0 for row in zm2])
        return [RealEmbedding(field, [b, f]) for b in base_roots for f in fiber]
    base = field.sub_field(1)
    chain = None
    embs = []
    for lo, hi in base_roots:
        if chain is None:
            chain = tower_sturm_chain(field.minpoly(1))
        base_emb = RealEmbedding(base, [(lo, hi)])
        for blo, bhi in isolate_tower_roots(chain, base_emb):
            embs.append(RealEmbedding(field, [(lo, hi), (blo, bhi)]))
    return embs


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class PlaneCurve:
    """A validated squarefree affine plane curve V(F), F primitive, with
    the YSubresultants of (F, F_y) when F has y-degree >= 2, the integer
    y-rows of F (to_y_dense) and their Z[x] content (y_content).  Built
    by make_curve."""

    __slots__ = ("F", "_fy_chain", "_zrows", "_ycontent", "_singular", "_realness", "_bad")

    def __init__(self, F: MPoly, fy_chain, zrows, ycontent):
        self.F = F
        self._fy_chain = fy_chain
        self._zrows = zrows
        self._ycontent = ycontent
        self._singular = None
        self._realness = {}  # budget -> RealnessReport
        self._bad = None  # (q, points) of the last bad locus solved

    def singular_locus(self):
        if self._singular is None:
            self._singular = singular_locus(self)
        return self._singular

    def realness(self, budget=64):
        # a budget that is no int goes to certify_realness, which rejects it
        if type(budget) is not int or budget not in self._realness:
            self._realness[budget] = certify_realness(self, budget)
        return self._realness[budget]

    def __repr__(self):
        return f"PlaneCurve({self.F!r})"


def make_curve(F: MPoly) -> PlaneCurve:
    """Validate the defining polynomial: in Q[x, y], nonconstant and
    squarefree; a repeated part is rejected with the witness factor.  In
    characteristic 0, F is squarefree iff its y-content is and, for y-degree
    >= 2, Res_y(F, F_y) != 0; that chain is kept for the singular locus, and
    bivariate_gcd runs only to name a repeated factor.  F's integer y-rows
    are built here, once; the locus and realness run on them."""
    if not F.uses_only({"x", "y"}):
        raise CurveError("curve polynomial must use only x and y")
    if F.is_zero() or F.is_constant():
        raise CurveError("curve polynomial must be nonconstant")
    P = F.primitive()
    rows = to_y_dense(P)
    c = y_content(rows)
    sres = YSubresultants(rows, deriv_y(rows)) if len(rows) >= 3 else None
    # the chain ends in S = 0 (degree -1) exactly when the resultant is 0
    if zp.zdeg(zp.zsquarefree(c)) < zp.zdeg(c) or (sres and sres.degrees[-1] < 0):
        g = bivariate_gcd(bivariate_gcd(rows, deriv_x(rows)), deriv_y(rows))
        raise CurveError("curve polynomial has a repeated factor", witness=from_y_dense(g))
    return PlaneCurve(P, sres, rows, c)


def singular_locus(curve: PlaneCurve):
    """Triangular decomposition of V(F, dF/dx, dF/dy) with realness tags."""
    rows = curve._zrows  # F is primitive, so these are its own coefficients
    return solve_xy_system([rows, deriv_y(rows), deriv_x(rows)], curve._fy_chain)


def bad_locus(curve: PlaneCurve, q: MPoly):
    """The finite set V(F, q) where the denominator q vanishes on the curve.

    q must be a non-zero-divisor modulo F; a common component is an error
    naming the component (bivariate_gcd(F, q)).  The locus solve is the
    test: solve_xy_system raises DegenerateInputError exactly when F and q
    share a component, so a coprime pair runs one remainder sequence.

    The curve keeps the last solved (q, points), so a second call with an
    equal q (make_function after its caller has indexed the points) does
    not solve again; one entry bounds memory for a curve met with many
    denominators, and errors are not kept.  Every call returns fresh
    points on the same (immutable) fields, each embedding a copy
    (clone_for) of the intervals the solve left: they belong to the
    caller, and refining them changes neither the kept points nor what a
    later call returns.
    """
    if q.is_zero():
        raise ZeroDivisorDenominatorError("denominator is zero")
    if not q.uses_only({"x", "y"}):
        raise PreconditionError("denominator must use only x and y")
    if q.is_constant():
        return []
    if curve._bad is None or curve._bad[0] != q:
        qrows = to_y_dense(q)
        try:
            points = solve_xy_system([curve._zrows, qrows])
        except DegenerateInputError:
            g = from_y_dense(bivariate_gcd(curve._zrows, qrows))
            raise ZeroDivisorDenominatorError(
                "denominator vanishes on a curve component", component=g) from None
        curve._bad = (q, points)
    return [BadPoint(pt.field, [e.clone_for(pt.field) for e in pt.embeddings])
            for pt in curve._bad[1]]


# ---------------------------------------------------------------------------
# realness certification (semi-decision)
# ---------------------------------------------------------------------------

def _linear_y_factors(rows):
    """Split off factors y - g(x) of the primitive F whose integer y-rows
    are rows, found by a bounded rational-root style search (divisor shapes
    come from the partial split of F(x, 0)); incomplete by design.  Returns
    the factors (MPolys) and the rows of what is left, primitive.

    A factor y - c * shape(x) has c * shape(3) among the rational roots of
    F(3, y), so those candidates are found first; without a nonzero one no
    division can be tried, and no shape is built.  A factor y - g(x) also
    puts g(4) among the rational roots of F(4, y), which is not zero since
    F is y-primitive; without any root there (0 counts) the search stops
    before the shapes too.  Otherwise F(4, y) is the first probe fiber of
    _first_linear_factor, which takes it as it is.
    """
    out = []
    x1 = 3
    while len(rows) >= 2:
        if not rows[0]:
            # y | F directly
            out.append(MPoly.var("y"))
            rows = rows[1:]
            continue
        u = rows_at(rows, x1)
        cands = [r for r in zp.zrational_roots(u) if r] if zp.zdeg(u) >= 1 else []
        if not cands:
            break
        fiber = rows_at(rows, _PROBES[0])
        if not zp.zrational_roots(fiber):
            break
        dx = max(map(len, rows)) - 1
        roots, chunks = _split_candidates(rows[0])
        pieces = [[-r.numerator, r.denominator] for r in roots] + chunks
        shapes = [[1]]
        for piece in pieces[:4]:
            squares = [[1], piece, zp.zmul(piece, piece)]
            shapes = [zp.zmul(s, pk) for s in shapes for pk in squares
                      if len(s) + len(pk) - 2 <= dx]
        factor = _first_linear_factor(rows, shapes, cands, x1, fiber)
        if factor is None:
            break
        G, d, rows = factor
        out.append(from_y_dense([zp.zneg(G), [d]]) * Fraction(1, d))
    return out, rows


_PROBES = (4, -2, 5)


def _first_linear_factor(rows, shapes, cands, x1, fiber):
    """The first (G, d, rows of F / (d*y - G)) with G/d = k * shape,
    k = root / shape(x1) = n/d in lowest terms and G = n * shape, in
    shape-then-candidate order, F given by its integer y-rows and each shape
    primitive in Z[x]; None when no candidate divides.  d*y - G is then
    primitive (Gauss), so for a primitive F the quotient is primitive too,
    and k * shape does not change when a shape is scaled.

    When d*y - G divides F, F(x_j, G(x_j)/d) = 0 at every x_j, so a candidate
    is first tested at the integer probes _PROBES, on the rows evaluated
    there once; fiber is F(_PROBES[0], y), which the caller has.  Only
    survivors are divided, so the first divisor found is the one division
    alone would find."""
    fibers = [fiber] + [rows_at(rows, xj) for xj in _PROBES[1:]]
    for shape in shapes:
        mval = zp.zeval_int(shape, x1)
        if not mval:
            continue
        svals = [zp.zeval_int(shape, xj) for xj in _PROBES]
        for root in cands:
            k = root / mval
            if any(zp.zsign_at(fib, k * s) for fib, s in zip(fibers, svals)):
                continue
            G, d = zp.zscale(shape, k.numerator), k.denominator
            q = bivariate_divexact_y(rows, [zp.zneg(G), [d]])
            if q is not None:
                return G, d, q
    return None


def _zsqrt(z):
    """The square root, positive leading coefficient, of z in Z[x] when z is
    a perfect square in Q[x] (then it is one in Z[x], by Gauss); else None.
    The top half of z fixes the root, one coefficient at a time from the
    leading one down; the bottom half is checked by squaring."""
    if not z:
        return z
    n, odd = divmod(len(z) - 1, 2)
    lead = math.isqrt(max(z[-1], 0))
    if odd or lead * lead != z[-1]:
        return None
    root = [0] * n + [lead]
    for k in range(n - 1, -1, -1):
        # the x^(n + k) coefficient of root^2 is 2 * lead * root[k] + known terms
        q, r = divmod(z[n + k] - sum(root[i] * root[n + k - i] for i in range(k + 1, n)), 2 * lead)
        if r:
            return None
        root[k] = q
    return root if zp.zmul(root, root) == z else None


def _irreducible_lite(rows):
    """True when a cheap certificate proves the block whose integer y-rows
    are rows irreducible over Q; None when undecided (never claims
    reducibility).  Squares are taken in Z[x]: for an integer polynomial
    that is the same question as in Q[x]."""
    dy = len(rows) - 1
    if dy == 1:
        return True
    if dy == 2:
        c, b, a = rows
        disc = zp.zsub(zp.zmul(b, b), zp.zscale(zp.zmul(a, c), 4))
        return True if _zsqrt(disc) is None else None
    if dy == 4 and not rows[3] and not rows[1] and rows[4] == [1]:
        a, b = rows[2], rows[0]
        if _zsqrt(zp.zsub(zp.zmul(a, a), zp.zscale(b, 4))) is not None:
            return None  # splits through the quadratic in y^2
        s = _zsqrt(b)
        if s is None:
            return True
        s2 = zp.zscale(s, 2)
        if _zsqrt(zp.zsub(s2, a)) is None and _zsqrt(zp.zsub(zp.zneg(s2), a)) is None:
            return True
    return None


def _sample_xs(budget):
    """The realness samples: the first budget integers of 0, 1, -1, 2, -2, ..."""
    for k in range(budget):
        yield (k + 1) // 2 if k % 2 else -(k // 2)


class RealnessReport:
    """Per-discovered-factor certification outcome."""

    __slots__ = ("factors", "certified")

    def __init__(self, factors):
        self.factors = list(factors)  # (MPoly factor, status, note)
        self.certified = all(st == "certified" for _, st, _ in factors)

    def unverified_notes(self):
        """The notes of the factors left without a certificate, in order."""
        return [note for _, st, note in self.factors if st != "certified"]

    def __repr__(self):
        return f"RealnessReport(certified={self.certified})"


def certify_realness(curve: PlaneCurve, budget=64) -> RealnessReport:
    """Semi-decision: certify each discovered factor of F real by finding a
    nonsingular real point on every component the factor covers; absence of
    a certificate within budget means "unverified", never "not real".
    budget, the number of x-samples tried, must be a nonnegative int."""
    if type(budget) is not int or budget < 0:  # a bool is no count of samples
        raise PreconditionError(f"realness budget must be a nonnegative integer, got {budget!r}")
    factors = []
    rows = curve._zrows
    content = curve._ycontent
    if zp.zdeg(content) >= 1:
        # vertical-line components x = root
        roots, chunks = _split_candidates(content)
        for r in roots:
            factors.append((MPoly.var("x") - r, "certified", f"real vertical line x = {r}"))
        for ch in chunks:
            line = from_y_dense([ch]) * Fraction(1, ch[-1])
            if zp.sturm_count(zp.sturm_chain(ch)) == zp.zdeg(ch):
                factors.append((line, "certified", "all vertical lines real"))
            else:
                factors.append((line, "unverified", "vertical chunk with non-real roots"))
        rows = y_primitive(rows, content)
    if len(rows) >= 2:
        linear, rows = _linear_y_factors(rows)
        for lf in linear:
            factors.append((lf, "certified", "graph of a polynomial function"))
    # what is left is primitive: of y-degree 0 only when it is a constant
    if len(rows) >= 2:
        factors.append(_certify_block(rows, budget))
    return RealnessReport(factors)


def _certify_block(rows, budget):
    """Certify the block B, given by its integer y-rows, from the first
    sample x0 whose fiber B(x0, y) is squarefree of full degree and either
    has all its roots real, or has a real root while B is certified
    irreducible (that root is a nonsingular real point on the only
    component).  Returns (B, status, note).

    Without an irreducibility certificate only the first kind can certify,
    so each sample is tested by zall_real_simple, whose Sturm chain stops at
    the first member that rules it out; an irreducible block counts its
    roots on the full chain."""
    dy = len(rows) - 1
    irreducible = _irreducible_lite(rows)
    B = from_y_dense(rows)
    for x0 in _sample_xs(budget):
        z = rows_at(rows, x0)
        if zp.zdeg(z) != dy:
            continue
        if irreducible:
            # the chain is a remainder sequence of z and z', so its last
            # member is gcd(z, z') up to a constant
            chain = zp.sturm_chain(zp.zprimitive(z))
            if zp.zdeg(chain[-1]) != 0:
                continue  # non-squarefree sample: skip
            n_real = zp.sturm_count(chain)
            if 1 <= n_real < dy:
                return (B, "certified",
                        f"irreducible with a nonsingular real point over x = {x0}")
            real_simple = n_real == dy
        else:
            real_simple = zp.zall_real_simple(z)
        if real_simple:
            return (B, "certified", f"all {dy} branches real and simple over x = {x0}")
    return (B, "unverified", "no certificate within budget")


# ---------------------------------------------------------------------------
# presented morphisms (rational-curve parametrizations)
# ---------------------------------------------------------------------------

class PresentedMorphism:
    """A polynomial map t -> (u(t), v(t)) from the affine line onto a
    plane curve."""

    __slots__ = ("u", "v", "target")

    def __init__(self, u: UPoly, v: UPoly, target: PlaneCurve):
        self.u = u
        self.v = v
        self.target = target

    def __repr__(self):
        return f"PresentedMorphism(t -> ({self.u!r}, {self.v!r}))"


def make_parametrization(curve: PlaneCurve, u: UPoly, v: UPoly) -> PresentedMorphism:
    """Validate that the map lands in the curve: F(u(t), v(t)) == 0."""
    img = specialize_to_t(curve.F, u, v)[0]
    if img and not img.is_zero():
        raise PreconditionError("map does not land in the target curve")
    return PresentedMorphism(u, v, curve)


def _difference_quotient(u: UPoly) -> MPoly:
    """(u(t) - u(s)) / (t - s) as a polynomial in s, t (exact)."""
    t, s = MPoly.var("t"), MPoly.var("s")
    out = MPoly()
    for k, c in enumerate(u.coeffs):
        if not c or k == 0:
            continue
        for i in range(k):
            out = out + c * t**i * s ** (k - 1 - i)
    return out


def fiber_constancy_check(pi: PresentedMorphism, p: UPoly):
    """Is p(t) constant on every complex fiber over the real points of the
    target?  Returns (finite, constant_on_real_fibers, witnesses, locus).

    The non-isomorphism locus comes from eliminating the ideal of parameter
    pairs with equal image down to target coordinates; over each real locus
    point the fiber parameters are a tower gcd and constancy of p is an
    exact per-embedding test.
    """
    u, v = pi.u, pi.v
    if u.degree <= 0 and v.degree <= 0:
        raise PreconditionError("morphism is not finite (constant map)")
    graph = [MPoly.var("x") - from_upoly(u), MPoly.var("y") - from_upoly(v)]
    gb = buchberger(graph)
    wit = monic_in_t_witness(gb)
    if wit is None:
        raise PreconditionError("morphism is not finite")

    U, V = _difference_quotient(u), _difference_quotient(v)
    gb2 = buchberger([U, V, *graph])
    try:
        locus_gens = eliminate(gb2, {"x", "y"})
        locus = solve_xy_system([to_y_dense(g) for g in locus_gens])
    except (PreconditionError, DegenerateInputError) as exc:
        raise PreconditionError(
            f"morphism is not birational onto its image: {exc}"
        )

    witnesses = []
    for pt in locus:
        if not pt.is_real:
            continue
        for refined, result in run_with_splits(pt, lambda q: _fiber_constancy_at(q, u, v, p)):
            if not refined.is_real:
                continue
            ok, detail = result
            if not ok:
                witnesses.append((refined, detail))
    return {
        "finite": True,
        "integral_witness": wit,
        "constant_on_real_fibers": not witnesses,
        "witnesses": witnesses,
        "locus": locus,
    }


def _fiber_constancy_at(pt: BadPoint, u, v, p):
    fld = pt.field
    xhat, yhat = pt.xgen(), pt.ygen()
    pu = UPoly("t", [fld.from_fraction(c) for c in u.coeffs]) - UPoly("t", [xhat])
    pv = UPoly("t", [fld.from_fraction(c) for c in v.coeffs]) - UPoly("t", [yhat])
    g = upoly_gcd(pu, pv)
    if g.degree <= 0:
        return True, None
    m_sf = squarefree_part(g)
    pt_poly = UPoly("t", [fld.from_fraction(c) for c in p.coeffs])
    _, rem = pt_poly.divmod(m_sf)
    if rem.degree <= 0:
        return True, None
    # p is non-constant on the fiber at some embedding; pin down which
    bad_embeddings = []
    for k, emb in enumerate(pt.embeddings):
        if any(nf_sign(c, emb) != 0 for c in rem.coeffs[1:]):
            bad_embeddings.append(k)
    if not bad_embeddings:
        return True, None
    values = _fiber_values(pt, m_sf, pt_poly)
    return False, {"fiber_poly": m_sf, "values": values, "embeddings": bad_embeddings}


def _fiber_values(pt, m_sf, p_poly):
    """Exact parameter/value pairs when the fiber splits rationally."""
    if all(c.is_rational() for c in m_sf.coeffs):
        q = UPoly("t", [c.as_fraction() for c in m_sf.coeffs])
        roots = rational_roots(q)
        if len(roots) == m_sf.degree:
            vals = []
            for r in roots:
                val = p_poly.eval(pt.field.from_fraction(r))
                vals.append((r, val.as_fraction() if val.is_rational() else val))
            return vals
    return None
