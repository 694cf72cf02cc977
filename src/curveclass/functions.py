"""Membership of rational functions on a real plane curve in the ring
hierarchy

    regular  <  continuous-closure  <  real-closure  <  integral,

decided through the saturated graph ideal and exact fiber counts over the
bad locus.  "Continuous closure" is the ring of restrictions of rational
functions continuous on the complex points; "real closure" the ring of
functions becoming polynomial after gluing every complex point over a real
one.  All four verdicts come with certificates: the monic integral
relation for t, a regular cofactor, and per-point fiber reports; every
failure carries a witness.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .bipoly import _y_grid, resultant_y, rows_at, squarefree_part_y, y_primitive
from .curves import BadPoint, PlaneCurve, bad_locus, run_with_splits, specialize_x
from .errors import (
    AssignmentError,
    InternalError,
    NotIntegralError,
    PreconditionError,
)
from .mpoly import (
    MPoly,
    PolyIdeal,
    buchberger,
    eliminate,
    leading_term,
    monic_in_t_witness,
    normal_form,
    saturate_gb,
)
from .numfield import (
    NFElement,
    _rep_intervals,
    _zhorner,
    is_zero_or_split,
    isolate_tower_roots,
    tower_chain_count,
    tower_sturm_chain,
)
from .unipoly import (
    IsolatingInterval,
    UPoly,
    nonzero_gcd,
    rational_roots,
    squarefree_part,
    upoly_gcd,  # not called here; bench/test_bench.py reads it from this module
)

from . import _zpoly as zp


class CurveFunction:
    """f = p/q on the curve, together with its assigned values at the real
    bad points (the computable fragment of an arbitrary extension of p/q
    to all of X(R))."""

    __slots__ = ("curve", "p", "q", "bad_points", "assigned", "_graph_gb", "_fibers",
                 "_integral")

    def __init__(self, curve, p, q, bad_points, assigned):
        self.curve = curve
        self.p = p
        self.q = q
        self.bad_points = bad_points
        self.assigned = assigned  # aligned with bad_points; None if non-real
        self._graph_gb = None
        self._fibers = None
        self._integral = None

    def graph_gb(self):
        if self._graph_gb is None:
            self._graph_gb = graph_ideal(self)
        return self._graph_gb

    def fibers(self):
        if self._fibers is None:
            self._fibers = fiber_table(self)
        return self._fibers

    def __repr__(self):
        return f"CurveFunction(({self.p!r})/({self.q!r}))"


def make_function(curve: PlaneCurve, p: MPoly, q: MPoly, assignments=()) -> CurveFunction:
    """Validate a rational function with assigned values.

    assignments: iterable of (locator, value); a locator is either an exact
    rational coordinate pair or an index into the deterministic bad-point
    enumeration; a value is a Fraction, an NFElement of the point's tower,
    or an MPoly in x, y evaluated at the point.  Exactly the real bad
    points must be covered.
    """
    if not p.uses_only({"x", "y"}) or not q.uses_only({"x", "y"}):
        raise PreconditionError("numerator and denominator must use x, y only")
    if q.is_zero():
        raise PreconditionError("denominator is zero")
    pts = bad_locus(curve, q)
    values = [None] * len(pts)
    seen = set()
    for locator, value in assignments:
        idx = _resolve_locator(pts, locator)
        if idx in seen:
            raise AssignmentError(f"duplicate assignment for bad point #{idx}")
        seen.add(idx)
        if not pts[idx].is_real:
            raise AssignmentError(
                f"bad point #{idx} is not real; values are assigned on real points only"
            )
        values[idx] = _coerce_value(pts[idx], value)
    for i, pt in enumerate(pts):
        if pt.is_real and values[i] is None:
            where = f"({pt.coords()[0]}, {pt.coords()[1]})" if pt.is_rational() else f"#{i}"
            raise AssignmentError(f"missing value at {where}")
    return CurveFunction(curve, p, q, pts, values)


def _resolve_locator(pts, locator):
    if isinstance(locator, int) and not isinstance(locator, bool):
        if not 0 <= locator < len(pts):
            raise AssignmentError(f"bad point index {locator} out of range")
        return locator
    if not isinstance(locator, (tuple, list)) or len(locator) != 2:
        raise AssignmentError(f"a locator is an index or an (x, y) pair, not {locator!r}")
    x0, y0 = (_exact_rational(c, "a locator coordinate") for c in locator)
    for i, pt in enumerate(pts):
        if pt.is_rational() and pt.coords() == (x0, y0):
            return i
    raise AssignmentError(f"({x0}, {y0}) is not a bad point of the function")


def _coerce_value(pt: BadPoint, value):
    if isinstance(value, NFElement):
        if value.field != pt.field:
            raise AssignmentError("assigned value lives in a different tower")
        return value
    if isinstance(value, MPoly):
        if not value.uses_only({"x", "y"}):
            raise AssignmentError("an assigned polynomial must use x, y only")
        return _value_at(value, pt.field)
    return pt.field.from_fraction(_exact_rational(value, "an assigned value"))


def _exact_rational(value, what):
    """value as a Fraction: an int, a Fraction or a rational string such as
    "1/3".  A float or a bool is refused, so no binary fraction reaches a
    verdict."""
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise AssignmentError(f"{what} must be an exact rational, not {value!r}")


def _value_at(p: MPoly, fld):
    """p(x, y) at the point whose tower is fld: eval_at(p, fld.gen(0),
    fld.gen(1)), computed as the reduction of p's rational y-grid modulo the
    level polynomials (NumberField.at_gens)."""
    return fld.at_gens(_y_grid(p))


# ---------------------------------------------------------------------------
# graph ideal
# ---------------------------------------------------------------------------

def graph_ideal(f: CurveFunction):
    """The reduced lex basis (t > x > y) of J = <F, q t - p> : q^infinity,
    which cuts out the Zariski closure of the graph of p/q in X x A^1;
    CurveFunction.graph_gb caches it."""
    t = MPoly.var("t")
    return saturate_gb(PolyIdeal([f.curve.F, f.q * t - f.p]), f.q)


# ---------------------------------------------------------------------------
# fiber reports
# ---------------------------------------------------------------------------

@dataclass
class FiberReport:
    point: BadPoint
    assigned: object  # NFElement | None
    fiber_sf: UPoly  # squarefree fiber polynomial in t over the tower
    distinct_complex: int
    real_root_counts: tuple  # one count per real embedding
    chain: object  # tower_sturm_chain(fiber_sf) | None (no root or no embedding)
    singleton: object  # NFElement | None
    matches_assigned: object  # bool | None
    assigned_is_root: object  # bool | None

    @property
    def distinct_real(self):
        return max(self.real_root_counts) if self.real_root_counts else None


def fiber_report(gb_lex, pt: BadPoint, assigned=None) -> FiberReport:
    """Exact fiber of the graph closure over one point class: the gcd of
    the basis elements at the point, up to scale (gb_lex.t_grids()).

    May raise SplitEvent; drive it through run_with_splits (classify does).
    """
    at_gens = pt.field.at_gens
    fiber = nonzero_gcd(UPoly("t", [at_gens(c) for c in g]) for g in gb_lex.t_grids())
    if fiber is None:
        raise PreconditionError("graph fiber is not finite over a bad point")
    if fiber.degree <= 0:
        sf = fiber.monic()
        distinct = 0
    else:
        sf = squarefree_part(fiber)
        distinct = sf.degree
    chain = tower_sturm_chain(sf) if distinct and pt.embeddings else None
    counts = tuple(tower_chain_count(chain, emb) if chain else 0 for emb in pt.embeddings)
    singleton = -sf.coeffs[0] if distinct == 1 else None
    matches = is_root = None
    if assigned is not None:
        is_root = bool(distinct) and is_zero_or_split(sf.eval(assigned))
        if distinct <= 1:  # sf = t - singleton: sf(assigned) is assigned - singleton
            matches = is_root
    return FiberReport(pt, assigned, sf, distinct, counts, chain, singleton, matches, is_root)


def fiber_table(f: CurveFunction):
    """Fiber reports over every bad point, with dynamic-evaluation splits
    already resolved (so the returned points refine f.bad_points);
    CurveFunction.fibers caches it."""
    gb = f.graph_gb()
    table = []
    for pt, val in zip(f.bad_points, f.assigned):
        def fn(refined, _orig_field=pt.field, _val=val):
            v = None if _val is None else _orig_field.transfer(_val, refined.field)
            return fiber_report(gb, refined, v)

        table.extend(rep for _, rep in run_with_splits(pt, fn))
    return table


# ---------------------------------------------------------------------------
# membership tests
# ---------------------------------------------------------------------------

def is_regular(f: CurveFunction):
    """f is in the coordinate ring iff p lies in <F, q> with a cofactor h
    (p = a F + h q) matching every assigned value.  Returns (verdict,
    witness): witness is h on success, a failure description otherwise.

    q is a non-zero-divisor modulo the squarefree F (bad_locus rejects the
    other case), so J = <F, q t - p> : q^infinity meets Q[x, y] in <F> and
    h is unique modulo F.  Hence p is in <F, q> iff t - h lies in J iff the
    reduced lex basis of J has an element with leading monomial t; that
    element is t - h with h reduced modulo F, read off f.graph_gb().  Only
    a non-member builds a basis of <F, q>, to print p's normal form.  For a
    member f.graph_gb() is F's monic multiple and t - h, so every fiber is
    the singleton h(pt) and a row's matches_assigned is h(pt) = value."""
    wit = monic_in_t_witness(f.graph_gb())
    if wit is None or wit.degree_in("t") != 1:
        gb = buchberger([f.curve.F, f.q])
        return False, {"reason": "not in <F, q>", "normal_form": normal_form(f.p, gb)}
    h = MPoly.var("t") - wit
    for rep in f.fibers():
        if rep.point.is_real and not rep.matches_assigned:
            return False, {
                "reason": "cofactor disagrees with the assigned value",
                "point": rep.point,
                "cofactor": h,
            }
    return True, {"witness": h}


def is_integral(f: CurveFunction):
    """Monic integral relation P(t) for f over the coordinate ring, decided
    on the lex basis of the graph ideal; (verdict, P or None).

    When the resultant of F and q t - p collapses to a monic relation of
    the same degree it is preferred as the emitted certificate (it keeps
    coefficients in Q[x], the shape the worked examples use); membership in
    the graph ideal is verified either way.  Computed once per function.
    """
    if f._integral is None:
        wit = monic_in_t_witness(f.graph_gb())
        pretty = None if wit is None else _resultant_certificate(f)
        if (
            pretty is not None
            and pretty.degree_in("t") == wit.degree_in("t")
            and not normal_form(pretty, f.graph_gb())
        ):
            wit = pretty
        f._integral = (wit is not None, wit)
    return f._integral


def graph_real_closed(f: CurveFunction):
    """Condition: over every real bad point the real fiber roots are exactly
    the assigned value.  Returns (verdict, witnesses)."""
    witnesses = []
    for rep in f.fibers():
        if not rep.point.is_real:
            continue
        ok = (
            all(c == 1 for c in rep.real_root_counts)
            and rep.assigned_is_root is True
        )
        if not ok:
            witnesses.append(
                {
                    "point": rep.point,
                    "real_roots": _describe_real_roots(rep),
                    "assigned_is_root": rep.assigned_is_root,
                }
            )
    return (not witnesses), witnesses


def _describe_real_roots(rep: FiberReport):
    """Exact description of the real fiber roots for witnesses."""
    sf = rep.fiber_sf
    if all(c.is_rational() for c in sf.coeffs):
        q = UPoly("t", [c.as_fraction() for c in sf.coeffs])
        roots = rational_roots(q)
        if rep.point.embeddings and rep.real_root_counts:
            if len(roots) >= max(rep.real_root_counts):
                return sorted(roots)[: max(rep.real_root_counts)] if len(roots) else []
    if rep.chain is None:  # no real embedding, or a fiber without roots
        return []
    return isolate_tower_roots(rep.chain, rep.point.embeddings[0])


def in_KRplus(f: CurveFunction):
    """Four-condition membership test for the real closure.

    (1) rationality holds by construction; (2) a monic integral relation;
    (3) the real graph is Zariski closed; (4) a single complex fiber point,
    equal to the assigned value, over every real bad point.
    """
    conditions = {1: True}
    witnesses = {}
    ok2, wit = is_integral(f)
    conditions[2] = ok2
    if not ok2:
        witnesses[2] = {"reason": "no monic relation for t in the graph ideal"}
    ok3, w3 = graph_real_closed(f)
    conditions[3] = ok3
    if not ok3:
        witnesses[3] = w3
    bad4 = [
        rep
        for rep in f.fibers()
        if rep.point.is_real and not (rep.distinct_complex == 1 and rep.matches_assigned)
    ]
    conditions[4] = not bad4
    if bad4:
        witnesses[4] = [
            {
                "point": rep.point,
                "distinct_complex": rep.distinct_complex,
                "distinct_real": rep.distinct_real,
            }
            for rep in bad4
        ]
    verdict = all(conditions.values())
    return verdict, {"conditions": conditions, "witnesses": witnesses, "integral_relation": wit}


def in_Kplus(f: CurveFunction):
    """Membership in the continuous closure: the real-closure conditions
    plus a single complex fiber point over every non-real bad point.
    Fibers over non-bad points are singletons by the saturation
    construction and are not enumerated."""
    kr, detail = in_KRplus(f)
    bad = [rep for rep in f.fibers() if not rep.point.is_real and rep.distinct_complex != 1]
    verdict = kr and not bad
    out = dict(detail)
    out["nonreal_witnesses"] = [
        {"point": rep.point, "distinct_complex": rep.distinct_complex} for rep in bad
    ]
    return verdict, out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    verdicts: dict  # {"regular" | "k_plus" | "k_r_plus" | "integral": "yes"/"no"}
    integral_relation: object  # MPoly | None
    regular_witness: object  # MPoly | None
    fibers: list
    failure_witnesses: dict
    caveats: list
    hierarchy_consistent: bool


def classify(f: CurveFunction, realness_budget=64) -> ClassificationReport:
    """Run all four membership tests, check the hierarchy chain (raising
    InternalError when it breaks), attach a caveat when the curve's realness
    hypothesis is unverified."""
    fibers = f.fibers()
    reg, reg_detail = is_regular(f)
    kp, kp_detail = in_Kplus(f)
    kr, kr_detail = in_KRplus(f)
    integ, wit = is_integral(f)
    chain = [("regular", reg), ("k_plus", kp), ("k_r_plus", kr), ("integral", integ)]
    consistent = all(not a or b for (_, a), (_, b) in zip(chain, chain[1:]))
    if not consistent:
        raise InternalError(f"hierarchy violated: {chain}")
    caveats = [
        f"realness unverified for a curve factor ({note});"
        " closed-graph reasoning assumes real components"
        for note in f.curve.realness(realness_budget).unverified_notes()
    ]
    failure = {}
    if not reg:
        failure["regular"] = reg_detail
    if not kp:
        failure["k_plus"] = {
            k: v for k, v in kp_detail.items() if k in ("witnesses", "nonreal_witnesses")
        }
    if not kr:
        failure["k_r_plus"] = kr_detail["witnesses"]
    if not integ:
        failure["integral"] = {"reason": "no monic relation for t"}
    return ClassificationReport(
        verdicts={name: ("yes" if v else "no") for name, v in chain},
        integral_relation=wit,
        regular_witness=reg_detail.get("witness") if reg else None,
        fibers=fibers,
        failure_witnesses=failure,
        caveats=caveats,
        hierarchy_consistent=consistent,
    )


@dataclass
class Presentation:
    generators: tuple
    relations: tuple  # Groebner basis of the graph ideal
    integral_relation: object
    birational: bool
    fibers: list


def present_extension(f: CurveFunction) -> Presentation:
    """The glued intermediate variety as Q[x, y, t] / J with certificates:
    the monic relation (finiteness) and elimination recovering the curve
    ideal (birationality)."""
    ok, wit = is_integral(f)
    if not ok:
        raise NotIntegralError("function is not integral; no finite presentation")
    gb = f.graph_gb()
    # the x, y part of a reduced lex basis is the reduced basis of the
    # elimination ideal, and reduced bases are unique: that ideal is <F>
    # exactly when its basis is F made monic
    F = f.curve.F
    birational = eliminate(gb, {"x", "y"}).generators == (F * (1 / leading_term(F)[1]),)
    return Presentation(
        generators=("x", "y", "t"),
        relations=gb.basis,
        integral_relation=wit,
        birational=birational,
        fibers=f.fibers(),
    )


def verify_r_subintegral(f: CurveFunction, table=None):
    """Fiber-cardinality route to the same facts as the membership tests:
    r_subintegral  <=>  each real bad-point fiber is a complex singleton
    carrying the assigned value; subintegral additionally needs singleton
    fibers over the non-real bad points."""
    ok, _ = is_integral(f)
    if not ok:
        raise NotIntegralError("function is not integral")
    table = fiber_table(f) if table is None else table
    witnesses = []
    r_sub = True
    sub = True
    for rep in table:
        if rep.point.is_real:
            if not (rep.distinct_complex == 1 and rep.matches_assigned):
                r_sub = False
                witnesses.append({"point": rep.point, "fiber": _describe_real_roots(rep),
                                  "distinct_complex": rep.distinct_complex})
        else:
            if rep.distinct_complex != 1:
                sub = False
                witnesses.append({"point": rep.point,
                                  "distinct_complex": rep.distinct_complex})
    sub = sub and r_sub
    return {"r_subintegral": r_sub, "subintegral": sub, "witnesses": witnesses}


# ---------------------------------------------------------------------------
# continuity probe (numeric falsifier, never a proof)
# ---------------------------------------------------------------------------

_PROBE_RADIUS = Fraction(1, 4)  # first sample offset from the point
_PROBE_SHRINK = Fraction(1, 4)  # offset ratio between successive steps
_PROBE_STEPS = 6


def continuity_probe(f: CurveFunction, pt: BadPoint, assigned):
    """Sample real curve points approaching the bad point and compare
    interval enclosures of p/q against the assigned value.

    Flags a branch only when its final enclosure separates from the value
    by more than the enclosure width *and* the gap has not been shrinking;
    interval slack can therefore never produce a false violation.
    """
    outcomes = []
    for emb in pt.embeddings:
        outcomes.append(_probe_at_embedding(f, pt, assigned, emb))
    if not outcomes:
        return {"outcome": "inconclusive", "detail": "point has no real embedding"}
    if any(o["outcome"] == "violated" for o in outcomes):
        merged = "violated"
    elif any(o["outcome"] == "consistent" for o in outcomes):
        merged = "consistent"
    else:
        merged = "inconclusive"
    return {"outcome": merged, "per_embedding": outcomes}


def _probe_at_embedding(f, pt, assigned, emb):
    delta_final = _PROBE_RADIUS * _PROBE_SHRINK ** (_PROBE_STEPS - 1)
    tiny = delta_final * delta_final
    # rational center approximations and an enclosure of the target value
    while emb.interval(0).width() > tiny or emb.interval(1).width() > tiny:
        emb.refine(0)
        emb.refine(1)
    x0 = emb.interval(0).mid()
    y0 = emb.interval(1).mid()
    v_lo, v_hi = _rep_intervals(assigned, emb)
    branches = {}
    for k in range(_PROBE_STEPS):
        delta = _PROBE_RADIUS * _PROBE_SHRINK ** k
        window_sq = 4 * delta
        for side in (-1, 1):
            xs = x0 + side * delta
            u = rows_at(f.curve._zrows, xs)
            if zp.zdeg(u) < 1:
                continue
            zu = zp.zsquarefree(u)  # taken once per u
            kept = []
            for lo, hi in zp.zisolate_squarefree(zu):
                lo, hi = zp.zrefine(zu, lo, hi, delta * delta)
                mid = (lo + hi) / 2
                if (mid - y0) * (mid - y0) <= window_sq:
                    kept.append((lo, hi))
            if kept:  # p and q at x = xs, once for every kept root
                pc, qc = ([(c.numerator, c.numerator, c.denominator)
                           for c in specialize_x(r, Fraction(xs)).coeffs] for r in (f.p, f.q))
            for rank, (lo, hi) in enumerate(kept):
                enc = _enclose_ratio(pc, qc, lo, hi, zu)
                if enc is None:
                    continue
                e_lo, e_hi = enc
                gap = max(e_lo - v_hi, v_lo - e_hi, Fraction(0))
                width = e_hi - e_lo + v_hi - v_lo
                branches.setdefault((side, rank), []).append((k, gap, width))
    if not branches:
        return {"outcome": "inconclusive", "detail": "no real branch found"}
    last = _PROBE_STEPS - 1
    violated = []
    approaching = False
    for key, hist in branches.items():
        k_first, gap_first, _ = hist[0]
        k_last, gap_last, width_last = hist[-1]
        if k_last != last:
            continue
        if gap_last <= max(width_last, gap_first / 4):
            approaching = True
        elif gap_last > width_last and 2 * gap_last > gap_first:
            violated.append({"branch": key, "gap": gap_last, "width": width_last})
    if violated:
        return {"outcome": "violated", "branches": violated}
    if approaching:
        return {"outcome": "consistent"}
    return {"outcome": "inconclusive", "detail": "no branch resolved at final step"}


def _enclose_ratio(pc, qc, ylo, yhi, zu):
    """Enclosure (lo, hi) of p/q at x = xs over the isolating interval
    (ylo, yhi) of a root of zu, an integer squarefree polynomial in y, from
    the y-coefficients of p(xs, y) and q(xs, y) as point enclosures
    (num, num, den) for _zhorner; the interval shrinks to a quarter of its
    width until q's enclosure excludes 0, and None if 12 rounds do not get
    there."""
    ybox = IsolatingInterval(ylo, yhi)
    for _ in range(12):
        qlo, qhi, qden = _zhorner(qc, ybox)
        if qlo > 0 or qhi < 0:
            plo, phi, pden = _zhorner(pc, ybox)
            ratios = [Fraction(a * qden, b * pden) for a in (plo, phi) for b in (qlo, qhi)]
            return min(ratios), max(ratios)
        ybox = IsolatingInterval(*zp.zrefine(zu, ybox.low, ybox.high, ybox.width() / 4))
    return None


def probe_function(f: CurveFunction):
    """Probe every real bad point; per-point outcomes plus the merged one."""
    results = []
    for pt, val in zip(f.bad_points, f.assigned):
        if not pt.is_real:
            continue
        results.append((pt, continuity_probe(f, pt, val)))
    if not results:
        return {"outcome": "consistent", "points": []}
    if any(r["outcome"] == "violated" for _, r in results):
        outcome = "violated"
    elif all(r["outcome"] == "consistent" for _, r in results):
        outcome = "consistent"
    else:
        outcome = "inconclusive"
    return {"outcome": outcome, "points": results}


def _resultant_certificate(f: CurveFunction):
    """The monic integral relation in resultant shape: Res_y(F, q t - p),
    content-stripped and made squarefree, when that output is monic in t.
    Its coefficients stay in Q[x], which reads better than a tail-reduced
    basis element.  It runs on integer y-rows, t packed into x as x^K by a
    Kronecker substitution so that the Z[x] resultant kernel applies."""
    F, p, q = f.curve._zrows, f.p, f.q
    dyF, dyB = len(F) - 1, max(p.degree_in("y"), q.degree_in("y"))
    if dyF <= 0 or dyB < 0:
        return None
    dxB = max(p.degree_in("x"), q.degree_in("x"))
    K = (max(map(len, F)) - 1) * max(dyB, 1) + (dxB + 1) * dyF + 2
    # exponents are (s, t, x, y); p and q over one denominator
    den = math.lcm(*(c.denominator for r in (p, q) for c in r.terms.values()))
    B = [[0] * (K + dxB + 1) for _ in range(dyB + 1)]
    for r, shift, scale in ((p, 0, -den), (q, K, den)):
        for e, c in r.terms.items():
            B[e[3]][e[2] + shift] = (c * scale).numerator
    R = resultant_y(F, [zp.ztrim(row) for row in B])
    if not R:
        return None
    # unpack x^(a + K b) -> t^b x^a as rows over t, carried in y for the
    # bivariate kernels; strip the Z[x] content and any repeated factor
    sf = squarefree_part_y(y_primitive([zp.ztrim(R[b:b + K]) for b in range(0, len(R), K)]))
    if len(sf[-1]) != 1:
        return None  # leading t-coefficient is not constant: not monic
    lc = sf[-1][0]
    return MPoly({(0, j, i, 0): Fraction(c, lc)
                  for j, row in enumerate(sf) for i, c in enumerate(row)})
