from fractions import Fraction

import pytest

from curveclass.curves import (
    _divide_out_linear_y,
    bad_locus,
    certify_realness,
    fiber_constancy_check,
    make_curve,
    make_parametrization,
    qpoly_sqrt,
    singular_locus,
    solve_xy_system,
)
from curveclass.errors import CurveError, PreconditionError, ZeroDivisorDenominatorError
from curveclass.mpoly import MPoly, eval_at, from_upoly
from curveclass.parsing import format_poly, format_upoly, parse_poly, parse_upoly
from curveclass.unipoly import UPoly

X, Y = MPoly.var("x"), MPoly.var("y")
T = lambda *cs: UPoly.from_ints("t", cs)  # noqa: E731


def cusp():
    return make_curve(Y**2 - X**3)


def example2_curve():
    return make_curve(Y**2 - X**3 * (X**2 + 1) ** 2)


def example3_curve():
    return make_curve(Y**4 - X * (X**2 + Y**2))


def node():
    return make_curve(Y**2 - X**2 * (X + 1))


def cubic_curve():
    F = Y**3 - X**2 * Y**2 + Y * X**2 * (X + 1) - X**4 * (X + 1)
    return make_curve(F)


def test_make_curve_accepts_the_demo_curves():
    for c in (cusp, example2_curve, example3_curve, node, cubic_curve):
        c()


def test_make_curve_rejects_squares_with_witness():
    with pytest.raises(CurveError) as exc:
        make_curve((Y - X) ** 2)
    w = exc.value.witness
    assert w in (Y - X, X - Y)


def test_make_curve_rejects_constants():
    with pytest.raises(CurveError):
        make_curve(MPoly.const(5))


def test_certify_realness_cusp():
    rep = certify_realness(cusp(), budget=10)
    assert rep.certified


def test_realness_cache_is_keyed_on_budget():
    curve = cusp()
    assert not curve.realness(0).certified
    assert curve.realness(64).certified
    assert not curve.realness(0).certified


def test_certify_realness_empty_real_locus_unverified():
    rep = certify_realness(make_curve(Y**2 + X**2 + 1), budget=40)
    assert not rep.certified


def test_certify_realness_node():
    rep = certify_realness(node(), budget=10)
    assert rep.certified


def test_certify_realness_example3_biquadratic():
    rep = certify_realness(example3_curve(), budget=16)
    assert rep.certified


def test_certify_realness_cubic_splits_components():
    rep = certify_realness(cubic_curve(), budget=16)
    assert rep.certified
    assert len(rep.factors) == 2  # parabola y - x^2 and the conic-like part
    assert rep.factors[0][0] == Y - X**2


def test_certify_realness_biquadratic_certified_by_first_real_sample():
    # x = 0 gives y^4 (not squarefree); x = 1 gives a real root of the
    # irreducible block, which certifies it whatever the larger budget
    for budget in (2, 64):
        rep = certify_realness(example3_curve(), budget=budget)
        assert rep.factors[0][2] == "irreducible with a nonsingular real point over x = 1"


# certified flags at budgets 0, 1, 2, 16 and 64
_REALNESS_FLAGS = [
    (cusp, (False, False, True, True, True)),
    (example2_curve, (False, False, True, True, True)),
    (example3_curve, (False, False, True, True, True)),
    (cubic_curve, (False, False, False, True, True)),
    (node, (False, False, True, True, True)),
    # the two shapes of the singular-stress benchmark workload
    (lambda: make_curve(Y**2 - (X - 1) * (X**2 + 1) ** 2 * (X**2 - 2)),
     (False, True, True, True, True)),
    (lambda: make_curve((Y**4 + X**3) * (Y**2 - (X - 2) * (X**2 + X + 1))),
     (False, False, False, False, False)),
]


@pytest.mark.parametrize("make, flags", _REALNESS_FLAGS)
def test_certify_realness_flags_by_budget(make, flags):
    curve = make()
    got = tuple(certify_realness(curve, budget=b).certified for b in (0, 1, 2, 16, 64))
    assert got == flags


def test_singular_locus_cusp():
    pts = singular_locus(cusp())
    assert len(pts) == 1
    assert pts[0].is_rational() and pts[0].coords() == (0, 0)
    assert pts[0].is_real


def test_singular_locus_example2():
    pts = singular_locus(example2_curve())
    reals = [p for p in pts if p.is_real]
    others = [p for p in pts if not p.is_real]
    assert len(reals) == 1 and reals[0].coords() == (0, 0)
    assert len(others) == 1
    cls = others[0]
    assert cls.class_size == 2
    # the class is cut out by x^2 + 1 with y = 0
    m1 = cls.m1()
    assert [c for c in m1.coeffs] == [1, 0, 1]


def test_singular_locus_node_origin_only():
    pts = singular_locus(node())
    assert len(pts) == 1 and pts[0].coords() == (0, 0)


def test_rational_points_with_denominators_beyond_two_to_the_24():
    a, b = 33554433, 33554435  # 2**25 + 1 and 2**25 + 3
    pts = solve_xy_system([Y - X, (a * X - 1) * (b * X - 1)])
    assert [p.coords() for p in pts if p.is_rational()] == [
        (Fraction(1, b), Fraction(1, b)),
        (Fraction(1, a), Fraction(1, a)),
    ]
    assert len(pts) == 2


def test_points_satisfy_the_system_exactly():
    for curve, q in ((example2_curve(), X * (X**2 + 1)), (cusp(), X)):
        for pt in bad_locus(curve, q):
            assert eval_at(curve.F, pt.xgen(), pt.ygen()).is_zero()
            assert eval_at(q, pt.xgen(), pt.ygen()).is_zero()


def test_bad_locus_cusp():
    pts = bad_locus(cusp(), X)
    assert len(pts) == 1 and pts[0].coords() == (0, 0) and pts[0].is_real


def test_bad_locus_example2():
    pts = bad_locus(example2_curve(), X * (X**2 + 1))
    reals = [p for p in pts if p.is_real]
    others = [p for p in pts if not p.is_real]
    assert len(reals) == 1 and reals[0].coords() == (0, 0)
    assert len(others) == 1 and others[0].class_size == 2
    assert [c for c in others[0].m1().coeffs] == [1, 0, 1]


def test_bad_locus_example3_quadruple_contact():
    pts = bad_locus(example3_curve(), X)
    assert len(pts) == 1 and pts[0].coords() == (0, 0) and pts[0].is_real


def test_bad_locus_zero_divisor_error_names_component():
    with pytest.raises(ZeroDivisorDenominatorError) as exc:
        bad_locus(node(), Y**2 - X**2 * (X + 1))
    assert exc.value.component is not None
    with pytest.raises(ZeroDivisorDenominatorError):
        bad_locus(make_curve(X * (Y - 1)), X)


def test_bad_locus_constant_denominator_is_empty():
    assert bad_locus(cusp(), MPoly.const(7)) == []


def _intervals(pts):
    return [[[(iv.lo, iv.hi) for iv in emb.intervals] for emb in pt.embeddings] for pt in pts]


def _split_prone_point(m1_ints, m2_coeffs):
    """A bad point over the tower Q[x]/(m1), y-level m2 (coefficients as
    functions of the x generator), with its certified embeddings."""
    from curveclass.curves import BadPoint, _embeddings_for
    from curveclass.numfield import extend_field, field_from_qpoly

    base = field_from_qpoly("x", UPoly.from_ints("x", m1_ints))
    fld = extend_field(base, "y", [c(base.gen(0)) for c in m2_coeffs])
    return BadPoint(fld, _embeddings_for(fld))


def _reference_owners(pt, level):
    """Per-embedding owner assignment, one Sturm count per (branch,
    embedding) as the split used to compute it."""
    from curveclass.numfield import tower_sturm_count
    from curveclass.unipoly import sturm_count

    def owns(br, emb):
        iv = emb.interval(level)
        if level == 0:
            return sturm_count(br.minpoly(0), iv.lo, iv.hi) == 1
        return tower_sturm_count(br.minpoly(1), emb.clone_for(br), iv.lo, iv.hi) == 1

    return lambda br: [
        [(iv.lo, iv.hi) for iv in emb.intervals] for emb in pt.embeddings if owns(br, emb)
    ]


def test_split_assigns_embeddings_like_per_embedding_sturm_counts(monkeypatch):
    from curveclass import curves
    from curveclass.curves import BadPoint

    # level 1: m2 = (y^2 - x)(y - 1) over Q(sqrt 2), split off y - 1
    pt = _split_prone_point([-2, 0, 1], [lambda a: a, lambda a: -a, lambda a: -1, lambda a: 1])
    assert len(pt.embeddings) == 4
    sub = pt.field.sub_field(1)
    factor = (sub.from_fraction(-1).rep, sub.one().rep)
    chains = []
    build = curves.tower_sturm_chain
    monkeypatch.setattr(curves, "tower_sturm_chain", lambda p: chains.append(p) or build(p))
    branches = pt.split(1, factor)
    assert len(chains) == len(branches) == 2  # one chain per branch, not per embedding
    ref = _reference_owners(pt, 1)
    assert [_intervals([b])[0] for b in branches] == [ref(b.field) for b in branches]
    assert [len(b.embeddings) for b in branches] == [2, 2]

    # level 0: m1 = (x^2 - 2)(x - 3), m2 = y^2 - x, split off x - 3
    pt0 = _split_prone_point([6, -2, -3, 1], [lambda a: -a, lambda a: 0, lambda a: 1])
    assert len(pt0.embeddings) == 4
    branches0 = pt0.split(0, (Fraction(-3), Fraction(1)))
    ref0 = _reference_owners(pt0, 0)
    assert [_intervals([b])[0] for b in branches0] == [ref0(b.field) for b in branches0]
    assert [len(b.embeddings) for b in branches0] == [2, 2]

    # a class with no real embeddings builds no chain
    chains.clear()
    assert [b.embeddings for b in BadPoint(pt.field, []).split(1, factor)] == [[], []]
    assert chains == []


def test_conjugation_symmetry_of_classes():
    pts = singular_locus(example2_curve()) + bad_locus(example2_curve(), X * (X**2 + 1))
    total = sum(p.class_size - len(p.embeddings) for p in pts)
    assert total % 2 == 0


def test_locus_independent_of_coordinate_roles():
    # same point set when x and y swap roles (cross-membership check)
    def swap(p):
        return MPoly({(e[0], e[1], e[3], e[2]): c for e, c in p.terms.items()})

    curve = example2_curve()
    q = X * (X**2 + 1)
    direct = bad_locus(curve, q)
    swapped = solve_xy_system([swap(curve.F), swap(q)])
    assert sum(p.class_size for p in direct) == sum(p.class_size for p in swapped)
    assert sum(len(p.embeddings) for p in direct) == sum(len(p.embeddings) for p in swapped)
    for pt in swapped:
        # a swapped point (b, a) must satisfy the original system as (a, b)
        assert eval_at(curve.F, pt.ygen(), pt.xgen()).is_zero()
        assert eval_at(q, pt.ygen(), pt.xgen()).is_zero()


def test_fiber_constancy_cusp_parametrization():
    pi = make_parametrization(cusp(), T(0, 0, 1), T(0, 0, 0, 1))
    rep = fiber_constancy_check(pi, T(0, 1))
    assert rep["finite"] and rep["constant_on_real_fibers"]


def test_fiber_constancy_example2_constant_on_real_fibers():
    # t -> (t^2, t^3 (t^4 + 1)); the doubled fibers sit over (+-i, 0)
    pi = make_parametrization(example2_curve(), T(0, 0, 1), T(0, 0, 0, 1, 0, 0, 0, 1))
    rep = fiber_constancy_check(pi, T(0, 1))
    assert rep["constant_on_real_fibers"]
    non_real = [p for p in rep["locus"] if not p.is_real]
    assert any(p.class_size >= 2 for p in non_real)


def test_fiber_constancy_node_fails_with_witness():
    pi = make_parametrization(node(), T(-1, 0, 1), T(0, -1, 0, 1))
    rep = fiber_constancy_check(pi, T(0, 1))
    assert not rep["constant_on_real_fibers"]
    (pt, detail), = rep["witnesses"]
    assert pt.coords() == (0, 0)
    values = {v for _, v in detail["values"]}
    assert values == {Fraction(1), Fraction(-1)}


def test_parametrization_must_land_on_curve():
    with pytest.raises(PreconditionError):
        make_parametrization(cusp(), T(0, 1), T(0, 1))


def test_certify_realness_never_certifies_empty_real_locus():
    # soundness fuzz: curves with empty or tiny real locus stay unverified
    for F in (Y**2 + X**2 + 1, Y**2 + X**4 + 2, Y**4 + X**6 + X**2 + 1):
        rep = certify_realness(make_curve(F), budget=48)
        assert not rep.certified


def test_divide_out_linear_y_is_exact_or_none():
    F = parse_poly("x*y^2 - 1/2*y + x^3 - 7")
    for g in ("0", "x^2 - 1/3", "5"):
        gx = parse_upoly(g, "x")
        assert _divide_out_linear_y(F * (Y - from_upoly(gx)), gx) == F
    # y - x does not divide F * (y - x^2)
    assert _divide_out_linear_y(F * (Y - X**2), parse_upoly("x", "x")) is None


@pytest.mark.parametrize(
    "square, root",
    [
        ("(x^2 + 1/2)^2", "x^2 + 1/2"),
        ("4*(x-1)^2", "2*x - 2"),
        ("9/4", "3/2"),
        ("(x^2+1)^2*(x-3)^4", "x^4 - 6*x^3 + 10*x^2 - 6*x + 9"),
        ("2*(x-1)^2", None),
        ("(x-1)^3", None),
        ("-(x-1)^2", None),
    ],
)
def test_qpoly_sqrt_past_the_sign_test(square, root):
    got = qpoly_sqrt(parse_upoly(square, "x"))
    assert (None if got is None else format_upoly(got)) == root


def test_certify_realness_vertical_line_components():
    rep = certify_realness(make_curve(parse_poly("(x-1)*(x^2+1)*(x^2-2)*(y^2-x)")))
    assert [(format_poly(f), status, note) for f, status, note in rep.factors] == [
        ("x - 1", "certified", "real vertical line x = 1"),
        ("x^4 - x^2 - 2", "unverified", "vertical chunk with non-real roots"),
        ("y^2 - x", "certified", "all 2 branches real and simple over x = 1"),
    ]
    assert rep.certified is False


def _certify_block_by_specialize_x(B, budget):
    """Reference: realness samples B(x0, y) through specialize_x on the
    Fraction terms of B, then cleared of denominators."""
    from curveclass import _zpoly as zp
    from curveclass import curves
    from curveclass.unipoly import to_zpoly

    dy = B.degree_in("y")
    irreducible = curves._irreducible_lite(B)
    for x0 in curves._SAMPLE_SEQUENCE[:budget]:
        u = curves.specialize_x(B, Fraction(x0))
        if u.degree != dy or u.degree <= 0:
            continue
        z = zp.zprimitive(to_zpoly(u)[0])
        if zp.zdeg(zp.zgcd(z, zp.zderiv(z))) != 0:
            continue
        n_real = zp.sturm_count(zp.sturm_chain(z))
        if n_real == dy:
            return (B, "certified", f"all {dy} branches real and simple over x = {x0}")
        if n_real >= 1 and irreducible:
            return (B, "certified", f"irreducible with a nonsingular real point over x = {x0}")
    return (B, "unverified", "no certificate within budget")


@pytest.mark.parametrize("budget", [0, 1, 2, 64])
@pytest.mark.parametrize(
    "F",
    [
        # the two shapes of the singular-stress benchmark workload, and one
        # with rational coefficients
        Y**2 - (X - 1) * (X**2 + 1) ** 2 * (X**2 - 2),
        (Y**4 + X**3) * (Y**2 - (X - 2) * (X**2 + X + 1)),
        (Y**4 + X**5) * (Y**2 * Fraction(1, 6) - (X**2 - 3) * (X - 1) ** 3 * Fraction(3, 4)),
        X * Y**2 + Y - 1,  # the fiber over x = 0 drops in degree
    ],
    ids=["y2-a", "y4xk-y2-a", "rational", "lc-vanishes"],
)
def test_integer_realness_samples_match_specialize_x(monkeypatch, F, budget):
    from curveclass import curves

    blocks = []
    integer_samples = curves._certify_block

    def compared(B, b):
        got = integer_samples(B, b)
        assert got == _certify_block_by_specialize_x(B, b)
        blocks.append(got)
        return got

    monkeypatch.setattr(curves, "_certify_block", compared)
    certify_realness(make_curve(F), budget=budget)
    assert blocks
