"""Plane-curve domain model: validated curves, realness certification,
singular locus, bad locus, and finite-morphism fiber checks.

Zero-dimensional systems in (x, y) are decomposed into triangular classes
(m1(x), m2(x, y)): m1 comes from a resultant, split into pairwise coprime
chunks by squarefree multiplicity classes and rational-root extraction
(never by factorization); m2 is a gcd over the resulting tower, computed
with dynamic evaluation so reducible chunks split lazily when arithmetic
forces them to (_on_branches retries on each branch).  Each class carries
its certified real embeddings.
"""

import math
from fractions import Fraction

from . import _zpoly as zp
from .bipoly import (bivariate_gcd, from_y_dense, resultant_y, to_y_dense, y_content,
                     y_primitive, y_rows)
from .errors import (
    CurveError,
    DegenerateInputError,
    PreconditionError,
    ZeroDivisorDenominatorError,
)
from .mpoly import (
    LEX,
    MPoly,
    PolyIdeal,
    buchberger,
    eliminate,
    from_upoly,
    monic_in_t_witness,
    powers,
    specialize_to_t,
    to_upoly_in,
    var_index,
)
from .numfield import (
    NumberField,
    RealEmbedding,
    SplitEvent,
    extend_field,
    field_from_qpoly,
    isolate_tower_roots,
    nf_sign,
    rational_point_field,
    tower_chain_count,
    tower_sturm_chain,
)
from .unipoly import (
    UPoly,
    nonzero_gcd,
    rational_roots,
    squarefree_part,
    sturm_count,
    to_zpoly,
    upoly_gcd,
)

_XI = var_index("x")
_YI = var_index("y")


def specialize_x(p: MPoly, xval) -> UPoly:
    """Substitute x -> xval (Fraction or tower element); result is a
    polynomial in y over the value's ring."""
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
        m1c = tuple(Fraction(c) for c in self.field._mp[0])
        return (1, len(m1c), Fraction(0), (m1c, self.field._mp[1]))

    def split(self, level, factor_rep):
        """Dynamic-evaluation split: replace this class by its branches,
        reassigning each real embedding to the branch that owns its root."""
        branches = self.field.split_level(level, factor_rep)
        out = []
        for br in branches:
            owns = _owner_test(br, level) if self.embeddings else None
            embs = [emb.clone_for(br) for emb in self.embeddings if owns(emb)]
            out.append(BadPoint(br, embs))
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
        chain = zp.sturm_chain(zp.zsquarefree(branch_field.zminpoly0()))

        def owns(emb):
            iv = emb.interval(0)
            return zp.sturm_count(chain, iv.lo, iv.hi) == 1

        return owns
    chain = tower_sturm_chain(branch_field.minpoly(1))

    def owns(emb):
        iv = emb.interval(1)
        return tower_chain_count(chain, emb.clone_for(branch_field), iv.lo, iv.hi) == 1

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

def _split_candidates(m: UPoly):
    """Split a rational candidate polynomial into rational roots plus
    pairwise-coprime squarefree chunks, via Yun multiplicity classes and
    verified rational-root extraction (no factorization)."""
    z, _ = to_zpoly(m)
    roots = []
    chunks = []
    for _, factor in zp.zyun(z):
        fr = zp.zrational_roots(factor)
        roots.extend(fr)
        rest = factor
        for r in fr:  # exact in Z[x]: den*x - num is primitive (Gauss)
            rest = zp.zdivexact(rest, [-r.numerator, r.denominator])
        if zp.zdeg(rest) >= 1:
            chunks.append(UPoly.from_ints("x", rest).monic())
    return sorted(set(roots)), chunks


def solve_xy_system(polys):
    """All solutions of a finite system {p_i(x, y) = 0} as BadPoint classes,
    deterministically ordered.  Raises DegenerateInputError when the system
    is not zero-dimensional in an obvious way (shared component)."""
    live = []
    for p in polys:
        if p.is_zero():
            continue
        if p.is_constant():
            return []  # a nonzero constant: the system has no solutions
        live.append(p)
    if not live:
        raise DegenerateInputError("empty system is not zero-dimensional")
    withy = [p for p in live if p.degree_in("y") >= 1]
    xonly = [to_upoly_in(p, "x") for p in live if p.degree_in("y") == 0]

    if len(withy) >= 2:
        r = resultant_y(withy[0], withy[1])
        if r.is_zero():
            raise DegenerateInputError("polynomials share a component")
        xonly.insert(0, r)
    cand = nonzero_gcd(xonly)
    if cand is None:
        raise DegenerateInputError("system is not zero-dimensional in x")
    if cand.degree == 0:
        return []

    roots, chunks = _split_candidates(cand)
    out = []
    for r in roots:
        out.extend(_points_at_rational_x(r, withy))
    for chunk in chunks:
        out.extend(_points_at_chunk(chunk, withy))
    out.sort(key=BadPoint.sort_key)
    return out


def _points_at_rational_x(x0, withy):
    """Solutions over a rational x-coordinate: split the rational y-roots
    into their own degree-1 classes, keep the rest as one class."""
    # a zero specialization imposes no constraint at this x
    g = nonzero_gcd(specialize_x(p, Fraction(x0)) for p in withy)
    if g is None:
        raise DegenerateInputError(f"positive-dimensional fiber over x = {x0}")
    if g.degree == 0:
        return []
    out = []
    yroots, ychunks = _split_candidates(squarefree_part(g))
    for y0 in yroots:
        out.extend(_finish_point_classes(rational_point_field("x", "y", x0, y0)))
    base = field_from_qpoly("x", UPoly("x", [-Fraction(x0), Fraction(1)]))
    for ch in ychunks:
        fld = extend_field(base, "y", [base.from_fraction(c) for c in ch.coeffs])
        out.extend(_finish_point_classes(fld))
    return out


def _points_at_chunk(chunk: UPoly, withy):
    """Solutions over a coprime chunk of irrational x-coordinates; dynamic
    evaluation splits the chunk when the fiber structure varies."""

    def classes_over(fld):
        alpha = fld.gen(0)
        g = nonzero_gcd(specialize_x(p, alpha) for p in withy)
        if g is None or g.degree == 0:
            return []
        m2 = squarefree_part(g)
        return _finish_point_classes(extend_field(fld, "y", list(m2.coeffs)))

    return _on_branches(field_from_qpoly("x", chunk), classes_over)


def _finish_point_classes(fld2: NumberField):
    """Attach certified embeddings, branching on any split surfaced while
    isolating real roots."""
    return _on_branches(fld2, lambda f2: [BadPoint(f2, _embeddings_for(f2))])


def _on_branches(fld: NumberField, fn):
    """Concatenation of fn(branch) over the branches of fld: on SplitEvent
    the branch is split at the event's level and fn retried on each piece,
    last piece first.  fn returns a list."""
    work = [fld]
    out = []
    while work:
        branch = work.pop()
        try:
            out.extend(fn(branch))
        except SplitEvent as ev:
            work.extend(branch.split_level(ev.level, ev.factor_rep))
    return out


def _embeddings_for(field: NumberField):
    """Certified real embeddings of a depth-2 tower, sorted by position."""
    base = field.sub_field(1)
    m2 = field.minpoly(1)
    embs = []
    for lo, hi in zp.zisolate(field.zminpoly0()):
        base_emb = RealEmbedding(base, [(lo, hi)])
        for blo, bhi in isolate_tower_roots(m2, base_emb):
            embs.append(RealEmbedding(field, [(lo, hi), (blo, bhi)]))
    return embs


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class PlaneCurve:
    """A validated squarefree affine plane curve V(F)."""

    __slots__ = ("F", "_singular", "_realness")

    def __init__(self, F: MPoly):
        self.F = F
        self._singular = None
        self._realness = {}  # budget -> RealnessReport

    def singular_locus(self):
        if self._singular is None:
            self._singular = singular_locus(self)
        return self._singular

    def realness(self, budget=64):
        if budget not in self._realness:
            self._realness[budget] = certify_realness(self, budget)
        return self._realness[budget]

    def __repr__(self):
        return f"PlaneCurve({self.F!r})"


def make_curve(F: MPoly) -> PlaneCurve:
    """Validate the defining polynomial: in Q[x, y], nonconstant and
    squarefree; a repeated part is rejected with the witness factor."""
    if not F.uses_only({"x", "y"}):
        raise CurveError("curve polynomial must use only x and y")
    if F.is_zero() or F.is_constant():
        raise CurveError("curve polynomial must be nonconstant")
    g = bivariate_gcd(F, F.deriv("x"))
    g = bivariate_gcd(g, F.deriv("y")) if not g.is_constant() else g
    if not g.is_constant():
        raise CurveError(
            "curve polynomial has a repeated factor", witness=g
        )
    return PlaneCurve(F.primitive())


def singular_locus(curve: PlaneCurve):
    """Triangular decomposition of V(F, dF/dx, dF/dy) with realness tags."""
    F = curve.F
    return solve_xy_system([F, F.deriv("y"), F.deriv("x")])


def bad_locus(curve: PlaneCurve, q: MPoly):
    """The finite set V(F, q) where the denominator q vanishes on the curve.

    q must be a non-zero-divisor modulo F; a common component is an error
    naming the component.
    """
    if q.is_zero():
        raise ZeroDivisorDenominatorError("denominator is zero")
    if not q.uses_only({"x", "y"}):
        raise PreconditionError("denominator must use only x and y")
    if q.is_constant():
        return []
    g = bivariate_gcd(curve.F, q)
    if not g.is_constant():
        raise ZeroDivisorDenominatorError(
            "denominator vanishes on a curve component", component=g
        )
    return solve_xy_system([curve.F, q])


# ---------------------------------------------------------------------------
# realness certification (semi-decision)
# ---------------------------------------------------------------------------

def _divide_out_linear_y(F: MPoly, g: UPoly):
    """Exact quotient F / (y - g(x)) for g in Q[x]; None if not divisible."""
    # synthetic division in y on the y-rows of F
    rows = y_rows(F)
    dy = len(rows) - 1
    quot = [None] * dy
    carry = UPoly("x", ())
    for k in range(dy, 0, -1):
        quot[k - 1] = rows[k] + carry
        carry = quot[k - 1] * g
    if rows[0] + carry:
        return None
    return from_y_dense([r.coeffs for r in quot])


def _linear_y_factors(F: MPoly):
    """Split off factors y - g(x) found by a bounded rational-root style
    search (divisor shapes come from the partial split of F(x, 0));
    incomplete by design.

    A factor y - c * shape(x) has c * shape(3) among the rational roots of
    F(3, y), so those candidates are found first; without a nonzero one no
    division can be tried, and no shape is built.
    """
    out = []
    rest = F
    x1 = Fraction(3)
    while rest.degree_in("y") >= 1:
        f0 = y_rows(rest)[0]  # F(x, 0)
        if f0.is_zero():
            # y | F directly
            out.append(MPoly.var("y"))
            rest = _divide_out_linear_y(rest, UPoly("x", ()))
            continue
        u = specialize_x(rest, x1)
        cands = [r for r in rational_roots(u) if r] if u.degree >= 1 else []
        if not cands:
            break
        dx = rest.degree_in("x")
        roots, chunks = _split_candidates(f0)
        pieces = [UPoly("x", [-r, Fraction(1)]) for r in roots] + chunks
        one = UPoly("x", [Fraction(1)])
        shapes = [one]
        for piece in pieces[:4]:
            squares = [one, piece, piece * piece]
            shapes = [s * pk for s in shapes for pk in squares if s.degree + pk.degree <= dx]
        factor = _first_linear_factor(rest, shapes, cands, x1)
        if factor is None:
            break
        g_poly, rest = factor
        out.append(MPoly.var("y") - from_upoly(g_poly))
    return out, rest


def _first_linear_factor(F: MPoly, shapes, cands, x1):
    """The first (g, F / (y - g)) with g = (root / shape(x1)) * shape in
    Q[x], in shape-then-candidate order; None when no candidate divides."""
    for shape in shapes:
        mval = shape.eval(x1)
        if not mval:
            continue
        for root in cands:
            g_poly = shape.scale(root / mval)
            q = _divide_out_linear_y(F, g_poly)
            if q is not None:
                return g_poly, q
    return None


def qpoly_sqrt(p: UPoly):
    """Exact square root in Q[x] when p is a perfect square, else None."""
    if p.is_zero():
        return p
    if p.degree % 2:
        return None
    z, den = to_zpoly(p)
    z = zp.zmul(z, [den])  # sqrt(p) = sqrt(n*d) / d
    if z[-1] < 0:
        return None
    if zp.zdeg(z) == 0:
        num = _isqrt_exact(z[0])
        return None if num is None else UPoly(p.var, [Fraction(num, den)])
    classes = zp.zyun(z)
    if any(m % 2 for m, _ in classes):
        return None
    root = [1]
    prod = [1]
    for m, f in classes:
        for _ in range(m // 2):
            root = zp.zmul(root, f)
        for _ in range(m):
            prod = zp.zmul(prod, f)
    if zp.zdeg(prod) != zp.zdeg(z):
        return None
    c, rem = divmod(z[-1], prod[-1])
    if rem:
        return None
    s = _isqrt_exact(c)
    if s is None:
        return None
    cand = UPoly(p.var, [Fraction(v * s, den) for v in root])
    return cand if cand * cand == p else None


def _isqrt_exact(n):
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


def _irreducible_lite(B: MPoly):
    """True when a cheap certificate proves B irreducible over Q; None when
    undecided (never claims reducibility)."""
    rows = y_rows(B)
    dy = len(rows) - 1
    if dy == 1:
        return True
    if dy == 2:
        c, b, a = rows
        disc = b * b - a * c.scale(4)
        return True if qpoly_sqrt(disc) is None else None
    if dy == 4 and rows[3].is_zero() and rows[1].is_zero():
        lead = rows[4]
        if lead.degree == 0 and lead.coeffs and lead.coeffs[0] == 1:
            a, b = rows[2], rows[0]
            if qpoly_sqrt(a * a - b.scale(4)) is not None:
                return None  # splits through the quadratic in y^2
            s = qpoly_sqrt(b)
            if s is None:
                return True
            if qpoly_sqrt(s.scale(2) - a) is None and qpoly_sqrt((-s).scale(2) - a) is None:
                return True
            return None
    return None


_SAMPLE_SEQUENCE = [0]
for _k in range(1, 200):
    _SAMPLE_SEQUENCE.extend([_k, -_k])


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
    a certificate within budget means "unverified", never "not real"."""
    F = curve.F
    factors = []
    rows = to_y_dense(F)
    content = y_content(rows)
    if zp.zdeg(content) >= 1:
        # vertical-line components x = root
        roots, chunks = _split_candidates(UPoly.from_ints("x", content))
        for r in roots:
            factors.append((from_upoly(UPoly("x", [-r, Fraction(1)])), "certified",
                            f"real vertical line x = {r}"))
        for ch in chunks:
            if sturm_count(ch) == ch.degree:
                factors.append((from_upoly(ch), "certified", "all vertical lines real"))
            else:
                factors.append((from_upoly(ch), "unverified",
                                "vertical chunk with non-real roots"))
        F = from_y_dense(y_primitive(rows))
    if F.degree_in("y") >= 1:
        linear, rest = _linear_y_factors(F)
        for lf in linear:
            factors.append((lf, "certified", "graph of a polynomial function"))
    else:
        rest = MPoly() if F.is_constant() else F
    if rest and not rest.is_constant():
        factors.append(_certify_block(rest, budget))
    return RealnessReport(factors)


def _certify_block(B: MPoly, budget):
    """Certify B from the first sample x0 whose fiber B(x0, y) is squarefree
    of full degree and either has all its roots real, or has a real root
    while B is certified irreducible (that root is a nonsingular real point
    on the only component)."""
    dy = B.degree_in("y")
    irreducible = _irreducible_lite(B)
    rows = to_y_dense(B)  # a positive multiple of B, so each fiber keeps its roots
    for x0 in _SAMPLE_SEQUENCE[:budget]:
        z = zp.ztrim([zp.zeval_int(row, x0) for row in rows])
        if zp.zdeg(z) != dy or dy <= 0:
            continue
        z = zp.zprimitive(z)
        if zp.zdeg(zp.zgcd(z, zp.zderiv(z))) != 0:
            continue  # non-squarefree sample: skip
        n_real = zp.sturm_count(zp.sturm_chain(z))
        if n_real == dy:
            return (B, "certified", f"all {dy} branches real and simple over x = {x0}")
        if n_real >= 1 and irreducible:
            return (B, "certified",
                    f"irreducible with a nonsingular real point over x = {x0}")
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
    x, y, t = MPoly.var("x"), MPoly.var("y"), MPoly.var("t")
    map_ideal = PolyIdeal([x - from_upoly(u), y - from_upoly(v)])
    gb = buchberger(map_ideal, LEX)
    wit = monic_in_t_witness(gb)
    if wit is None:
        raise PreconditionError("morphism is not finite")

    U, V = _difference_quotient(u), _difference_quotient(v)
    downstairs = PolyIdeal([U, V, x - from_upoly(u), y - from_upoly(v)])
    gb2 = buchberger(downstairs, LEX)
    try:
        locus_gens = eliminate(gb2, {"x", "y"})
        locus = solve_xy_system(list(locus_gens))
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
