from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curveclass.curves import bad_locus, make_curve, specialize_x
from curveclass.errors import AssignmentError, CurveClassError, NotIntegralError
from curveclass import functions
from curveclass.functions import (
    classify,
    continuity_probe,
    fiber_table,
    graph_ideal,
    graph_real_closed,
    in_Kplus,
    in_KRplus,
    is_integral,
    is_regular,
    make_function,
    present_extension,
    probe_function,
    verify_r_subintegral,
)
from curveclass.jobs import JobSpec, run_classify
from curveclass.mpoly import (
    LEX,
    GroebnerBasis,
    MPoly,
    PolyIdeal,
    buchberger,
    ideals_equal,
    normal_form,
)
from curveclass.parsing import format_poly, parse_poly
from curveclass.report import fiber_rows
from curveclass.unipoly import IsolatingInterval, isolate_real_roots, refine_interval, to_zpoly
from curveclass._zpoly import zsquarefree

X, Y, T = MPoly.var("x"), MPoly.var("y"), MPoly.var("t")


def cusp_f(value=0):
    curve = make_curve(Y**2 - X**3)
    return make_function(curve, Y, X, [((0, 0), value)])


def example2_f():
    curve = make_curve(Y**2 - X**3 * (X**2 + 1) ** 2)
    return make_function(curve, Y, X * (X**2 + 1), [((0, 0), 0)])


def example3_f(value=0):
    curve = make_curve(Y**4 - X * (X**2 + Y**2))
    return make_function(curve, Y**2, X, [((0, 0), value)])


def cubic_f():
    curve = make_curve(Y**3 - X**2 * Y**2 + Y * X**2 * (X + 1) - X**4 * (X + 1))
    return make_function(curve, Y, X, [((0, 0), 0)])


def node_f(value):
    curve = make_curve(Y**2 - X**2 * (X + 1))
    return make_function(curve, Y, X, [((0, 0), value)])


def test_make_function_validates_assignments():
    cusp_f(0)
    with pytest.raises(AssignmentError, match="missing value at \\(0, 0\\)"):
        curve = make_curve(Y**2 - X**3)
        make_function(curve, Y, X, [])
    with pytest.raises(AssignmentError):
        curve = make_curve(Y**2 - X**3)
        make_function(curve, Y, X, [((0, 0), 0), ((1, 1), 0)])


@pytest.mark.parametrize(
    "locator, value, outcome",
    [
        # floats and bools are refused, malformed inputs are AssignmentErrors
        ((0, 0), 0.1, "an assigned value must be an exact rational, not 0.1"),
        ((0, 0), True, "an assigned value must be an exact rational, not True"),
        ((0, 0), "abc", "an assigned value must be an exact rational, not 'abc'"),
        ((0, 0), None, "an assigned value must be an exact rational, not None"),
        ((0, 0), "1/0", "an assigned value must be an exact rational, not '1/0'"),
        ((0, 0), T, "an assigned polynomial must use x, y only"),
        (True, 0, "a locator is an index or an \\(x, y\\) pair, not True"),
        ((1, 2, 3), 0, "a locator is an index or an \\(x, y\\) pair, not \\(1, 2, 3\\)"),
        ("ab", 0, "a locator is an index or an \\(x, y\\) pair, not 'ab'"),
        (2.5, 0, "a locator is an index or an \\(x, y\\) pair, not 2.5"),
        (None, 0, "a locator is an index or an \\(x, y\\) pair, not None"),
        ((0.0, 0), 0, "a locator coordinate must be an exact rational, not 0.0"),
        # ints, Fractions, rational strings, tower elements and polynomials
        (0, Fraction(1, 3), Fraction(1, 3)),
        (0, 2, 2),
        (("0", Fraction(0)), "1/3", Fraction(1, 3)),
        ([0, 0], "-2", -2),
        ((0, 0), lambda fld: fld.from_fraction(Fraction(1, 3)), Fraction(1, 3)),
        ((0, 0), X + Y + Fraction(1, 3), Fraction(1, 3)),
    ],
)
def test_make_function_takes_exact_values_only(locator, value, outcome):
    curve = make_curve(Y**2 - X**3)
    if callable(value):  # a tower element, built on the point's field
        value = value(bad_locus(curve, X)[0].field)
    if isinstance(outcome, str):
        with pytest.raises(AssignmentError, match=f"^{outcome}$"):
            make_function(curve, Y, X, [(locator, value)])
    else:
        assert make_function(curve, Y, X, [(locator, value)]).assigned == [outcome]


def test_graph_ideal_cusp_contains_expected_relations():
    f = cusp_f()
    gid = graph_ideal(f)
    for rel in (Y**2 - X**3, X * T - Y, T**2 - X, T * Y - X**2):
        assert not normal_form(rel, gid)


def test_graph_ideal_example3_contains_relation():
    f = example3_f()
    gid = graph_ideal(f)
    assert not normal_form(T**2 - T - X, gid)


def test_is_regular_cancellation():
    curve = make_curve(Y**2 - X**3)
    f = make_function(curve, X * Y, X, [((0, 0), 0)])
    ok, detail = is_regular(f)
    assert ok
    # the cofactor agrees with y on the curve
    gb = graph_ideal(f)
    assert not normal_form(detail["witness"] - Y, gb)


def test_is_regular_rejects_y_over_x_on_cusp():
    ok, detail = is_regular(cusp_f())
    assert not ok
    assert detail["normal_form"] == Y


def test_is_regular_value_mismatch():
    curve = make_curve(Y**2 - X**3)
    f = make_function(curve, X * Y, X, [((0, 0), 5)])
    ok, detail = is_regular(f)
    assert not ok
    assert "assigned" in detail["reason"]


# regular witness and regular failure witness as the machine document
# printed them when h came from a cofactor-tracking Buchberger run
_REGULAR_PINS = [
    ("y^2 - x^3", "y", "x", "0", None, {"reason": "not in <F, q>", "normal_form": "y"}),
    ("y^2 - x^3", "y^2", "x", "0", "x^2", None),
    ("y^2 - x^3", "y^2", "x", "1", None,
     {"reason": "cofactor disagrees with the assigned value", "point": "(0, 0)",
      "cofactor": "x^2"}),
    ("y^2 - x^3*(x^2+1)^2", "y", "x*(x^2+1)", "0", None,
     {"reason": "not in <F, q>", "normal_form": "y"}),
    ("y^2 - x^3*(x^2+1)^2", "y^2", "x*(x^2+1)", "0", "x^4 + x^2", None),
    ("y^4 - x*(x^2+y^2)", "y^2", "x", "0", None,
     {"reason": "not in <F, q>", "normal_form": "y^2"}),
    ("y^4 - x*(x^2+y^2)", "y^4", "x", "0", "x^2 + y^2", None),
    ("y^3 - x^2*y^2 + y*x^2*(x+1) - x^4*(x+1)", "y", "x", "0", None,
     {"reason": "not in <F, q>", "normal_form": "y"}),
    ("y^3 - x^2*y^2 + y*x^2*(x+1) - x^4*(x+1)", "y^3", "x", "0",
     "x^4 + x^3 - x^2*y + x*y^2 - x*y", None),
    ("y^2 - x^2*(x+1)", "y", "x", "1", None, {"reason": "not in <F, q>", "normal_form": "y"}),
    ("y^2 - x^2*(x+1)", "y^2", "x", "0", "x^2 + x", None),
]


@pytest.mark.parametrize("curve, num, den, value, witness, failure", _REGULAR_PINS)
def test_regular_certificates_on_worked_curves_are_pinned(curve, num, den, value, witness,
                                                          failure):
    doc = run_classify(JobSpec(curve, num, den, [{"point": ["0", "0"], "value": value}]))
    cert = doc.data["certificates"]
    assert doc.data["verdicts"]["regular"] == ("yes" if witness else "no")
    assert cert["regular_witness"] == witness
    assert cert["failure_witnesses"].get("regular") == failure


def test_is_regular_runs_no_buchberger_for_a_member(monkeypatch):
    def refuse(*args):
        raise AssertionError("a member of <F, q> needs no basis of <F, q>")

    monkeypatch.setattr(functions, "buchberger", refuse)
    ok, detail = is_regular(make_function(make_curve(Y**2 - X**3), Y**2, X, [((0, 0), 0)]))
    assert ok and detail["witness"] == X**2


def test_is_integral_certificates():
    ok, wit = is_integral(cusp_f())
    assert ok and wit == T**2 - X
    ok, wit = is_integral(example3_f())
    assert ok and wit == T**2 - T - X


def test_fiber_reports_cusp_origin():
    f = cusp_f()
    (rep,) = fiber_table(f)
    assert rep.point.coords() == (0, 0)
    assert rep.distinct_complex == 1
    assert rep.real_root_counts == (1,)
    assert rep.singleton == 0
    assert rep.matches_assigned


def test_fiber_reports_example2_nonreal_class():
    f = example2_f()
    table = fiber_table(f)
    nonreal = [rep for rep in table if not rep.point.is_real]
    assert len(nonreal) == 1
    assert nonreal[0].distinct_complex == 2
    real = [rep for rep in table if rep.point.is_real]
    assert len(real) == 1 and real[0].distinct_complex == 1


def test_fiber_reports_cubic_origin():
    f = cubic_f()
    (rep,) = fiber_table(f)
    assert rep.distinct_complex == 3
    assert rep.real_root_counts == (1,)
    assert not rep.matches_assigned or rep.distinct_complex == 1


def test_graph_real_closed():
    ok, _ = graph_real_closed(cusp_f())
    assert ok
    ok, _ = graph_real_closed(cubic_f())
    assert ok  # unique real root 0 of t^3 + t
    ok, wit = graph_real_closed(example3_f())
    assert not ok
    roots = wit[0]["real_roots"]
    assert roots == [Fraction(0), Fraction(1)]


def test_in_KRplus_examples():
    ok, _ = in_KRplus(example2_f())
    assert ok
    ok, detail = in_KRplus(cubic_f())
    assert not ok
    assert detail["conditions"][1] and detail["conditions"][2] and detail["conditions"][3]
    assert not detail["conditions"][4]
    (w,) = detail["witnesses"][4]
    assert w["distinct_complex"] == 3 and w["distinct_real"] == 1
    ok, detail = in_KRplus(example3_f())
    assert not ok
    assert not detail["conditions"][3]


def test_in_Kplus_examples():
    ok, _ = in_Kplus(cusp_f())
    assert ok
    ok, detail = in_Kplus(example2_f())
    assert not ok
    (w,) = detail["nonreal_witnesses"]
    assert w["distinct_complex"] == 2 and w["point"].class_size == 2
    # polynomial function: no bad points at all
    curve = make_curve(Y**2 - X**3)
    g = make_function(curve, X + Y, MPoly.const(1), [])
    ok, _ = in_Kplus(g)
    assert ok


def test_classify_matrix():
    assert classify(cusp_f()).verdicts == {
        "regular": "no",
        "k_plus": "yes",
        "k_r_plus": "yes",
        "integral": "yes",
    }
    assert classify(example2_f()).verdicts == {
        "regular": "no",
        "k_plus": "no",
        "k_r_plus": "yes",
        "integral": "yes",
    }
    assert classify(example3_f()).verdicts == {
        "regular": "no",
        "k_plus": "no",
        "k_r_plus": "no",
        "integral": "yes",
    }
    rep = classify(cubic_f())
    assert rep.verdicts["k_r_plus"] == "no" and rep.verdicts["integral"] == "yes"
    assert rep.hierarchy_consistent


def test_present_extension_cusp():
    pres = present_extension(cusp_f())
    assert pres.birational
    assert pres.integral_relation == T**2 - X
    for rel in (Y**2 - X**3, X * T - Y, T**2 - X, T * Y - X**2):
        assert not normal_form(rel, graph_ideal(cusp_f()))
    gb_relations = PolyIdeal(list(pres.relations))
    assert ideals_equal(
        gb_relations, PolyIdeal([Y**2 - X**3, X * T - Y, T**2 - X, T * Y - X**2])
    )


def test_present_extension_requires_integrality():
    curve = make_curve(Y - X**2 + 1)  # smooth conic-like parabola
    # f = 1/x on it: bad point where x = 0 -> (0, -1)
    f = make_function(curve, MPoly.const(1), X, [((0, -1), 5)])
    ok, wit = is_integral(f)
    assert not ok and wit is None
    with pytest.raises(NotIntegralError):
        present_extension(f)


def test_verify_r_subintegral_routes_agree():
    for fb in (cusp_f, example2_f, example3_f, cubic_f):
        f = fb()
        ok_int, _ = is_integral(f)
        if not ok_int:
            continue
        res = verify_r_subintegral(f)
        kr, _ = in_KRplus(f)
        assert res["r_subintegral"] == kr
        kp, _ = in_Kplus(f)
        assert res["subintegral"] == kp


def test_verify_r_subintegral_node():
    f = node_f(1)
    res = verify_r_subintegral(f)
    assert not res["r_subintegral"]
    w = res["witnesses"][0]
    assert w["fiber"] == [Fraction(-1), Fraction(1)]


def test_subintegral_example_flags():
    res = verify_r_subintegral(cusp_f())
    assert res == {"r_subintegral": True, "subintegral": True, "witnesses": []}
    res = verify_r_subintegral(example2_f())
    assert res["r_subintegral"] and not res["subintegral"]


def test_probe_cusp_consistent():
    f = cusp_f()
    pt = f.bad_points[0]
    out = continuity_probe(f, pt, f.assigned[0])
    assert out["outcome"] == "consistent"


def test_probe_node_value_one_violated():
    f = node_f(1)
    out = probe_function(f)
    assert out["outcome"] == "violated"


def test_probe_example3_violated():
    f = example3_f()
    out = probe_function(f)
    assert out["outcome"] == "violated"


def test_probe_never_violates_kr_members():
    for fb in (cusp_f, example2_f, cubic_f):
        f = fb()
        out = probe_function(f)
        assert out["outcome"] != "violated" or classify(f).verdicts["k_r_plus"] == "no"


def test_pole_on_a_line_is_not_integral():
    # the x-axis with f = 1/x: the saturated ideal <y, x t - 1> : x^oo has
    # no monic relation for t (empty fiber over x = 0)
    curve = make_curve(Y)
    f = make_function(curve, MPoly.const(1), X, [((0, 0), 3)])
    ok, wit = is_integral(f)
    assert not ok and wit is None
    rep = classify(f)
    assert rep.verdicts == {
        "regular": "no", "k_plus": "no", "k_r_plus": "no", "integral": "no"
    }
    (fiber,) = fiber_table(f)
    assert fiber.distinct_complex == 0


def test_presentation_echo_reproduces_singleton_pattern():
    # re-parse the emitted relations and recompute the fibers: the pattern
    # of singleton fibers must reproduce
    from curveclass.mpoly import GroebnerBasis, LEX
    from curveclass.parsing import format_poly, parse_poly
    from curveclass.functions import fiber_report
    from curveclass.curves import run_with_splits

    for build in (cusp_f, example2_f):
        f = build()
        pres = present_extension(f)
        reparsed = [parse_poly(format_poly(g), ("x", "y", "t")) for g in pres.relations]
        gb = GroebnerBasis(LEX, reparsed)
        for pt, val in zip(f.bad_points, f.assigned):
            def fn(refined, _of=pt.field, _v=val):
                v = None if _v is None else _of.transfer(_v, refined.field)
                return fiber_report(gb, refined, v)

            redone = [rep for _, rep in run_with_splits(pt, fn)]
            originals = [r for r in fiber_table(f)
                         if r.point.field._mp[0] == pt.field._mp[0]]
            assert sorted(r.distinct_complex for r in redone) == sorted(
                r.distinct_complex for r in originals
            )


def test_irrational_real_bad_points_with_index_locator():
    # q = x^2 - 2 on the cusp: one conjugacy class of size 4 containing the
    # two real points (sqrt2, +-2^(3/4)); the value is one tower element
    curve = make_curve(Y**2 - X**3)
    q = X**2 - 2
    from curveclass.curves import bad_locus

    pts = bad_locus(curve, q)
    assert len(pts) == 1
    (pt,) = pts
    assert pt.class_size == 4
    assert len(pt.embeddings) == 2
    assert (pt.class_size - len(pt.embeddings)) % 2 == 0
    f = make_function(curve, Y, q, [(0, 0)])
    ok, wit = is_integral(f)
    assert not ok  # y/(x^2-2) blows up along the curve at the bad class
    (rep,) = fiber_table(f)
    assert rep.distinct_complex == 0
    assert classify(f).verdicts["integral"] == "no"


def test_fiber_real_counts_over_irrational_points():
    # (y^2 - 2)/(x^3 - 2) is identically 1 on the cusp; over the bad class
    # (the six points with x^3 = 2, two of them real) the fiber is the
    # singleton {1}, so every verdict is yes when the assigned value is 1
    curve = make_curve(Y**2 - X**3)
    p, q = Y**2 - 2, X**3 - 2
    from curveclass.curves import bad_locus

    pts = bad_locus(curve, q)
    assert sum(pt.class_size for pt in pts) == 6
    (cls,) = pts
    assert len(cls.embeddings) == 2  # (2^(1/3), +-sqrt(2))
    f = make_function(curve, p, q, [(0, 1)])
    table = fiber_table(f)
    for r in table:
        assert r.distinct_complex == 1
        assert all(c == 1 for c in r.real_root_counts)
        assert r.matches_assigned
        for c in r.real_root_counts:
            assert (r.distinct_complex - c) % 2 == 0
    assert classify(f).verdicts == {
        "regular": "yes", "k_plus": "yes", "k_r_plus": "yes", "integral": "yes"
    }
    # a wrong value at the same class flips regularity and the closures
    g = make_function(curve, p, q, [(0, 0)])
    v = classify(g).verdicts
    assert v["regular"] == "no" and v["k_r_plus"] == "no" and v["integral"] == "yes"


# criterion-6 jobs: the five worked curves, p and q of up to three terms of
# degree <= 3 with coefficients in [-3, 3]; multi-term degree-3 denominators
# are left out, as in the benchmark, because one can take seconds
_WORKED_CURVES = [
    "y^2 - x^3",
    "y^2 - x^3*(x^2+1)^2",
    "y^4 - x*(x^2+y^2)",
    "y^3 - x^2*y^2 + y*x^2*(x+1) - x^4*(x+1)",
    "y^2 - x^2*(x+1)",
]
_c6_term = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)).filter(
    lambda t: t[0] + t[1] <= 3
)
_c6_poly = st.lists(_c6_term, min_size=1, max_size=3).map(
    lambda ts: sum((c * X**i * Y**j for i, j, c in ts), MPoly())
).filter(bool)
_c6_den = _c6_poly.filter(lambda q: len(q.terms) == 1 or max(map(sum, q.terms)) <= 2)
_units = st.sampled_from([Fraction(a, b) for a in (-3, -1, 2, 5) for b in (1, 2, 7)])


def _zero_valued(curve_text, p, q):
    """p/q on the curve with the value 0 at every real bad point."""
    curve = make_curve(parse_poly(curve_text))
    pts = bad_locus(curve, q)
    return make_function(curve, p, q, [(i, 0) for i, pt in enumerate(pts) if pt.is_real])


def _classified_facts(curve_text, p, q):
    """Verdicts, integral relation, regular witness and fiber rows of p/q
    with the value 0 at every real bad point; the error class if rejected."""
    try:
        rep = classify(_zero_valued(curve_text, p, q))
    except CurveClassError as exc:
        return type(exc)
    show = lambda w: None if w is None else format_poly(w)  # noqa: E731
    return (rep.verdicts, show(rep.integral_relation), show(rep.regular_witness),
            fiber_rows(rep.fibers))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_WORKED_CURVES), _c6_poly, _c6_den, _units)
def test_scaling_p_and_q_by_a_unit_changes_no_certified_fact(curve_text, p, q, c):
    assert _classified_facts(curve_text, p * c, q * c) == _classified_facts(curve_text, p, q)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(_WORKED_CURVES), _c6_poly, _c6_den)
def test_regular_witness_agrees_with_membership_in_F_q(curve_text, p, q):
    # p is in <F, q> iff its normal form modulo a basis of <F, q> is zero;
    # then h with p = h*q mod F is unique modulo F, so checking p - h*q and
    # that h is reduced modulo F pins h completely
    try:
        f = _zero_valued(curve_text, p, q)
    except CurveClassError:
        assume(False)
    ok, detail = is_regular(f)
    nf = normal_form(p, buchberger(PolyIdeal([f.curve.F, q]), LEX))
    if nf:
        assert not ok and detail == {"reason": "not in <F, q>", "normal_form": nf}
        return
    h = detail["witness"] if ok else detail["cofactor"]
    by_F = GroebnerBasis(LEX, [f.curve.F])
    assert not normal_form(p - h * q, by_F)
    assert normal_form(h, by_F) == h


# -- the probe's enclosure of p/q, against a Fraction interval Horner -------

def _fraction_horner(coeffs, box):
    """Reference: Horner over closed Fraction intervals on box = (lo, hi),
    point coefficients lowest degree first."""
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        products = (lo * box[0], lo * box[1], hi * box[0], hi * box[1])
        lo, hi = min(products) + c, max(products) + c
    return lo, hi


def _reference_ratio(p, q, xs, lo, hi, u):
    """(enclosure of p/q or None, refinements made): the box shrinks to a
    quarter of its width until q's enclosure leaves 0, at most 12 times;
    the quotient multiplies p's enclosure by [1/q_hi, 1/q_lo]."""
    pc, qc = specialize_x(p, xs).coeffs, specialize_x(q, xs).coeffs
    box = IsolatingInterval(lo, hi)
    for step in range(12):
        q_lo, q_hi = _fraction_horner(qc, box)
        if q_lo > 0 or q_hi < 0:
            p_lo, p_hi = _fraction_horner(pc, box)
            products = [a * b for a in (p_lo, p_hi) for b in (1 / q_hi, 1 / q_lo)]
            return (min(products), max(products)), step
        box = refine_interval(u, box, box.width() / 4)
    return None, 12


_ENCLOSE_CURVES = ("y^2 - x", "y^2 - x^3 - x^2", "y^3 - x*y + 1", "y^2 + x^2 - 4")
_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _xy_poly(draw):
    terms = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), _small), max_size=5))
    out = MPoly.const(draw(_small))
    for i, j, c in terms:
        out = out + c * X ** i * Y ** j
    return out


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_enclose_ratio_equals_the_fraction_interval_horner_quotient(data):
    F = parse_poly(data.draw(st.sampled_from(_ENCLOSE_CURVES)))
    xs = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
    u = specialize_x(F, xs)
    assume(u.degree >= 1)
    roots = isolate_real_roots(u)
    assume(roots)
    ival = data.draw(st.sampled_from(roots))
    if data.draw(st.booleans()):
        ival = refine_interval(u, ival, Fraction(1, data.draw(st.integers(1, 64))))
    p = _xy_poly(data.draw)
    if data.draw(st.booleans()):
        # vanishes at the interval's midpoint, so q's first enclosure
        # straddles 0 and the refinement loop runs
        q = data.draw(_small.filter(bool)) * (Y - ival.mid()) + (X - xs) * _xy_poly(data.draw)
    else:
        q = _xy_poly(data.draw)
    want, _ = _reference_ratio(p, q, xs, ival.low, ival.high, u)
    zu = zsquarefree(to_zpoly(u)[0])
    assert functions._enclose_ratio(p, q, xs, ival.low, ival.high, zu) == want


def test_enclose_ratio_refines_until_q_leaves_zero():
    curve = parse_poly("y^2 - x")
    xs = Fraction(2)
    u = specialize_x(curve, xs)
    ival = isolate_real_roots(u)[-1]  # sqrt(2)
    p = X + Y
    # y - mid straddles 0 on the first box; y^2 - x vanishes at the root
    q = Y - ival.mid()
    want, steps = _reference_ratio(p, q, xs, ival.low, ival.high, u)
    assert want is not None and steps > 0
    zu = zsquarefree(to_zpoly(u)[0])
    assert functions._enclose_ratio(p, q, xs, ival.low, ival.high, zu) == want
    assert _reference_ratio(p, curve, xs, ival.low, ival.high, u) == (None, 12)
    assert functions._enclose_ratio(p, curve, xs, ival.low, ival.high, zu) is None


def test_probe_never_flags_a_real_closure_member():
    # the probe is a falsifier: a "violated" outcome on a k_r_plus member
    # would be a false alarm (acceptance criterion 9 checks four cases);
    # the members here all come from fuzz-shared
    from test_curves import _bench_functions

    members = 0
    for workload in ("tower-split", "fuzz-shared"):
        for f in _bench_functions(workload, 150):
            if classify(f).verdicts["k_r_plus"] == "yes":
                members += 1
                assert probe_function(f)["outcome"] != "violated", f
    assert members >= 30
