import math
from fractions import Fraction

import pytest

from curveclass.curves import (
    bad_locus,
    certify_realness,
    fiber_constancy_check,
    make_curve,
    make_parametrization,
    singular_locus,
    solve_xy_system,
)
from curveclass.bipoly import bivariate_divexact_y, from_y_dense, to_y_dense
from curveclass.errors import CurveError, PreconditionError, ZeroDivisorDenominatorError
from curveclass.mpoly import MPoly, eval_at, from_upoly
from curveclass.parsing import format_poly, format_upoly, parse_poly, parse_upoly
from curveclass.unipoly import UPoly
from test_bipoly import y_rows  # first imported within a @given test, its @given would nest


def _from_ints(var, ints):
    """The UPoly with Fraction coefficients ints (low degree first)."""
    return UPoly(var, [Fraction(c) for c in ints])


def _to_zpoly(p):
    """p's rational coefficients cleared of denominators: (integers, lcm of
    the denominators)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


X, Y = MPoly.var("x"), MPoly.var("y")
T = lambda *cs: _from_ints("t", cs)  # noqa: E731


def cusp():
    return make_curve(Y**2 - X**3)


def example2_curve():
    return make_curve(Y**2 - X**3 * (X**2 + 1) ** 2)


def example3_curve():
    return make_curve(Y**4 - X * (X**2 + Y**2))


def node():
    return make_curve(Y**2 - X**2 * (X + 1))


def _solve(polys):
    """solve_xy_system on the integer y-rows of MPolys."""
    return solve_xy_system([to_y_dense(p) for p in polys])


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
    pts = _solve([Y - X, (a * X - 1) * (b * X - 1)])
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


@pytest.mark.parametrize("F, q, component", [
    # a shared factor of positive y-degree: the locus resultant vanishes
    ("y^2 - x^2*(x + 1)", "(y^2 - x^2*(x + 1))*(x + 3)", "-x^3 - x^2 + y^2"),
    ("(y - x)*(y + x^2 + 1)", "2*(y - x)*(x^2 + 5)", "-x + y"),
    # a rational vertical line: every polynomial vanishes over x0
    ("x*(y - 1)", "x", "x"),
    ("(x - 1)*(y^2 + x)", "3*(x - 1)*y", "x - 1"),
    # an irrational vertical line: every polynomial vanishes over a chunk
    ("(x^2 - 2)*(y^2 - x)", "x^2 - 2", "x^2 - 2"),
    ("(x^2 - 2)*(y^2 - x)", "(x^2 - 2)*y", "x^2 - 2"),
])
def test_bad_locus_names_every_kind_of_shared_component(F, q, component):
    with pytest.raises(ZeroDivisorDenominatorError) as exc:
        bad_locus(make_curve(parse_poly(F)), parse_poly(q))
    assert exc.value.code == 4
    assert str(exc.value) == "denominator vanishes on a curve component"
    assert format_poly(exc.value.component) == component
    # no chained DegenerateInputError in the traceback
    assert exc.value.__cause__ is None
    assert exc.value.__context__ is None or exc.value.__suppress_context__


def test_coprime_bad_locus_runs_one_remainder_sequence(monkeypatch):
    from curveclass import curves

    built = []
    sres = curves.YSubresultants

    def counted(p, q):
        built.append((p, q))
        return sres(p, q)

    def forbidden(p, q):
        raise AssertionError("bivariate_gcd on a coprime pair")

    curve = cusp()
    monkeypatch.setattr(curves, "YSubresultants", counted)
    monkeypatch.setattr(curves, "bivariate_gcd", forbidden)
    pts = bad_locus(curve, Y - X)
    assert sorted(p.coords() for p in pts) == [(0, 0), (1, 1)]
    assert built == [(curve._zrows, to_y_dense(Y - X))]


@pytest.mark.parametrize("system, where", [
    (["(x - 2)*y", "(x - 2)*(y + 1)"], "x = 2"),
    (["(x^2 - 2)*y", "(x^2 - 2)*(y + 1)"], "the roots of x^2 - 2"),
    (["x^2 - 2", "(x^2 - 2)*y"], "the roots of x^2 - 2"),
    (["x^2 - 2", "(x^2 - 2)*(x^2 - 3)"], "the roots of x^2 - 2"),
])
def test_solve_xy_system_rejects_a_shared_vertical_line(system, where):
    from curveclass.errors import DegenerateInputError

    with pytest.raises(DegenerateInputError) as exc:
        _solve([parse_poly(p) for p in system])
    assert str(exc.value) == f"positive-dimensional fiber over {where}"


def test_solve_xy_system_rejects_a_shared_line_on_a_split_off_branch(monkeypatch):
    # Res_y = -(x^2 - 2)^2 (x^2 - 3)^2: one chunk x^4 - 5x^2 + 6, which the
    # tower Euclid splits at lc_y = x^2 - 2; the x^2 - 3 branch has a point,
    # the x^2 - 2 branch is a shared component
    from curveclass.errors import DegenerateInputError
    from curveclass.numfield import NumberField

    splits = []
    split_level = NumberField.split_level

    def counted(fld, level, factor):
        splits.append(fld.minpoly(0))
        return split_level(fld, level, factor)

    monkeypatch.setattr(NumberField, "split_level", counted)
    with pytest.raises(DegenerateInputError) as exc:
        _solve([parse_poly("(x^2 - 2)*y"), parse_poly("(x^2 - 2)*(y - (x^2 - 3)^2)")])
    assert str(exc.value) == "positive-dimensional fiber over the roots of x^2 - 2"
    assert [format_upoly(m) for m in splits] == ["x^4 - 5*x^2 + 6"]


def _on_branches(fld, fn):
    """Reference: the split-and-retry worklist the locus solve used before it
    split through run_with_splits, kept as it was: a worklist over fields,
    on SplitEvent the branch split at the event's level and fn retried on
    each piece, last piece first."""
    from curveclass.numfield import SplitEvent

    work = [fld]
    out = []
    while work:
        branch = work.pop()
        try:
            out.extend(fn(branch))
        except SplitEvent as ev:
            work.extend(branch.split_level(ev.level, ev.factor_rep))
    return out


# bad loci whose solve splits a chunk of irrational x-coordinates
_SPLITTING_LOCI = [
    ("(y-1)*(y^2-x) - (x^2-3)*(x^2+1)", "(x-1)*(y-1) + (x^2+1)*(y^2-2)"),
    ("(y-x^2+1)*y - (x^2-5)*(x^2-5)", "(x^2+1)*y + (x^2-5)*(y^2-x)"),
    ("(y-1)*(y-1) - (x-1)*(x^2-5)", "(x^2-3)*(y-1) + (x^2-5)*(y^2-x)"),
    ("(y-x^2+1)*(y-x) - (x^2-2)*(x^2-2)", "(x^2-3)*(y-x^2+1) + (x^2-2)*(y-x^2+1)"),
    ("(y+x)*y - (x^2-5)*(x^2+1)", "(x-1)*(y+x) + (x^2-5)*(y^2-2)"),
]


@pytest.mark.parametrize("F, q", _SPLITTING_LOCI)
def test_locus_splits_through_run_with_splits_as_through_the_worklist(monkeypatch, F, q):
    # the locus solve hands run_with_splits a point without embeddings and
    # reads only its field; the worklist route runs fn on the same fields,
    # in another order that the solve's sort undoes
    from curveclass import curves
    from curveclass.numfield import NumberField
    from curveclass.parsing import format_point

    def located():
        points = bad_locus(make_curve(parse_poly(F)), parse_poly(q))
        return [(format_point(pt), [[(e.interval(i).low, e.interval(i).high) for i in (0, 1)]
                                    for e in pt.embeddings]) for pt in points]

    splits = []
    split_level = NumberField.split_level

    def counted(fld, level, factor):
        splits.append(level)
        return split_level(fld, level, factor)

    monkeypatch.setattr(NumberField, "split_level", counted)
    got = located()
    assert splits

    def worklist(point, fn):
        def on_branch(fld):
            branch = curves.BadPoint(fld, [])
            return [(branch, fn(branch))]

        return _on_branches(point.field, on_branch)

    monkeypatch.setattr(curves, "run_with_splits", worklist)
    del splits[:]
    assert located() == got
    assert splits


def test_bad_locus_constant_denominator_is_empty():
    assert bad_locus(cusp(), MPoly.const(7)) == []


def _counted_solves(monkeypatch):
    """The argument lists of every solve_xy_system call bad_locus makes."""
    from curveclass import curves

    calls = []
    solve = curves.solve_xy_system
    monkeypatch.setattr(curves, "solve_xy_system", lambda *a: calls.append(a) or solve(*a))
    return calls


def test_second_bad_locus_hands_out_fresh_points_without_a_solve(monkeypatch):
    # real points over x = sqrt 2 with irrational x or y, so refining moves them
    curve = make_curve(parse_poly("(y^2 - x)*(y - x^2 - 1)"))
    calls = _counted_solves(monkeypatch)
    first = bad_locus(curve, parse_poly("x^2 - 2"))
    want = _intervals(first)
    assert sum(len(pt.embeddings) for pt in first) >= 3
    second = bad_locus(curve, parse_poly("x^2 - 2"))  # an equal, distinct q
    assert len(calls) == 1
    assert _intervals(second) == want
    assert [pt.field for pt in second] == [pt.field for pt in first]
    assert not {id(pt) for pt in first} & {id(pt) for pt in second}
    embs = [e for pt in first + second for e in pt.embeddings]
    assert len({id(e) for e in embs}) == len(embs)
    # the returned points belong to the caller: refining them all changes
    # neither the kept points nor the next call's
    for emb in embs:
        for _ in range(6):
            for k in range(emb.field.depth):
                emb.refine(k)
    assert _intervals(first) != want
    assert _intervals(bad_locus(curve, parse_poly("x^2 - 2"))) == want
    assert len(calls) == 1


def test_bad_locus_keeps_one_entry_and_no_error(monkeypatch):
    curve = make_curve(parse_poly("(x^2 - 2)*(y^2 - x)"))
    q1, q2 = parse_poly("y - 1"), parse_poly("y + x")
    calls = _counted_solves(monkeypatch)
    points = [_intervals(bad_locus(curve, q)) for q in (q1, q2, q1)]
    assert len(calls) == 3 and points[0] == points[2]
    # a shared component raises the same error on every call
    errors = []
    for _ in range(2):
        with pytest.raises(ZeroDivisorDenominatorError) as exc:
            bad_locus(curve, parse_poly("(x^2 - 2)*y"))
        errors.append((exc.value.code, str(exc.value), format_poly(exc.value.component)))
    assert len(calls) == 5
    assert errors == [(4, "denominator vanishes on a curve component", "x^2 - 2")] * 2
    assert bad_locus(curve, MPoly.const(3)) == [] and len(calls) == 5


def _intervals(pts):
    return [[[(iv.low, iv.high) for iv in emb.intervals] for emb in pt.embeddings] for pt in pts]


def _refine(emb, rounds=6):
    before = [tuple(iv) for iv in emb.intervals]
    for _ in range(rounds):
        for k in range(emb.field.depth):
            emb.refine(k)
    assert [tuple(iv) for iv in emb.intervals] != before


def test_refining_one_copy_of_an_embedding_moves_no_other():
    # clone_for shares the validated intervals but not their list, so one
    # refined copy leaves the curve's kept points, a later bad_locus call
    # and every sibling copy as they were
    curve = make_curve(parse_poly("(y^2 - x)*(y - x^2 - 1)"))
    q = parse_poly("x^2 - 2")
    first, second = bad_locus(curve, q), bad_locus(curve, q)
    want = state = _intervals(first)
    refined = 0
    for p, pt in enumerate(first):
        for e, emb in enumerate(pt.embeddings):
            if emb.field.degree() > 1:
                _refine(emb)
                got = _intervals(first)
                assert [(i, j) for i, row in enumerate(got) for j, ivs in enumerate(row)
                        if ivs != state[i][j]] == [(p, e)]
                assert _intervals(curve._bad[1]) == _intervals(second) == want
                assert _intervals(bad_locus(curve, q)) == want
                state, refined = got, refined + 1
    assert refined >= 3

    # the branches of a split, and the point they came from
    pt = _split_prone_point([-2, 0, 1], [lambda a: a, lambda a: -a, lambda a: -1, lambda a: 1])
    branches = pt.split(1, ((-1,), (1,)))
    parent, kids = _intervals([pt]), _intervals(branches)
    assert [len(b.embeddings) for b in branches] == [2, 2]
    _refine(branches[0].embeddings[0])
    assert _intervals([pt]) == parent and _intervals(branches)[1] == kids[1]
    assert _intervals(branches)[0][1] == kids[0][1]
    _refine(pt.embeddings[-1])
    assert _intervals(branches)[1] == kids[1] and _intervals(branches)[0][1] == kids[0][1]


def _split_prone_point(m1_ints, m2_coeffs):
    """A bad point over the tower Q[x]/(m1), y-level m2 (coefficients as
    functions of the x generator), with its certified embeddings."""
    from curveclass.curves import BadPoint, _embeddings_for
    from curveclass.numfield import extend_field, field_from_qpoly

    base = field_from_qpoly("x", _from_ints("x", m1_ints))
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
            return sturm_count(br.minpoly(0), iv.low, iv.high) == 1
        return tower_sturm_count(br.minpoly(1), emb.clone_for(br), iv.low, iv.high) == 1

    return lambda br: [
        [(iv.low, iv.high) for iv in emb.intervals] for emb in pt.embeddings if owns(br, emb)
    ]


def test_split_assigns_embeddings_like_per_embedding_sturm_counts(monkeypatch):
    from curveclass import curves
    from curveclass.curves import BadPoint

    # level 1: m2 = (y^2 - x)(y - 1) over Q(sqrt 2), split off y - 1
    pt = _split_prone_point([-2, 0, 1], [lambda a: a, lambda a: -a, lambda a: -1, lambda a: 1])
    assert len(pt.embeddings) == 4
    factor = ((-1,), (1,))  # the integer form of y - 1
    chains = []
    build = curves.tower_sturm_chain
    monkeypatch.setattr(curves, "tower_sturm_chain", lambda p: chains.append(p) or build(p))
    branches = pt.split(1, factor)
    # one chain per split: the last branch owns what the first does not
    assert len(branches) == 2 and len(chains) == 1
    ref = _reference_owners(pt, 1)
    assert [_intervals([b])[0] for b in branches] == [ref(b.field) for b in branches]
    assert [len(b.embeddings) for b in branches] == [2, 2]

    # level 0: m1 = (x^2 - 2)(x - 3), m2 = y^2 - x, split off x - 3
    pt0 = _split_prone_point([6, -2, -3, 1], [lambda a: -a, lambda a: 0, lambda a: 1])
    assert len(pt0.embeddings) == 4
    branches0 = pt0.split(0, (-3, 1))
    ref0 = _reference_owners(pt0, 0)
    assert [_intervals([b])[0] for b in branches0] == [ref0(b.field) for b in branches0]
    assert [len(b.embeddings) for b in branches0] == [2, 2]

    # a class with no real embeddings builds no chain
    chains.clear()
    assert [b.embeddings for b in BadPoint(pt.field, []).split(1, factor)] == [[], []]
    assert chains == []


def test_split_owners_match_sturm_counts_on_tower_split_jobs(monkeypatch):
    # every split of the first 40 tower-split jobs (seed 2024), checked when
    # it happens: each branch's embeddings are the per-branch Sturm-count
    # reference, and each parent embedding lands in exactly one branch
    from curveclass.curves import BadPoint
    from curveclass.functions import classify, make_function

    split = BadPoint.split
    checked = []

    def split_and_check(pt, level, factor_rep):
        branches = split(pt, level, factor_rep)
        owned = [_reference_owners(pt, level)(b.field) for b in branches]
        assert [_intervals([b])[0] for b in branches] == owned
        assert sorted(sum(owned, [])) == sorted(_intervals([pt])[0])
        checked.append(len(pt.embeddings))
        return branches

    monkeypatch.setattr(BadPoint, "split", split_and_check)
    for job in _bench_workloads().generate("tower-split", 2024, 40):
        curve = make_curve(parse_poly(job["curve"]))
        q = parse_poly(job["denominator"])
        real = [(i, 0) for i, pt in enumerate(bad_locus(curve, q)) if pt.is_real]
        classify(make_function(curve, parse_poly(job["numerator"]), q, real))
    assert len(checked) >= 10 and sum(checked) >= 20, checked


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
    swapped = _solve([swap(curve.F), swap(q)])
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


def _linear_rows(g):
    """The integer y-rows of d*y - G, for g = G/d in Q[x] (d > 0 the least
    common denominator): the primitive divisor the linear-factor search
    divides by."""
    from curveclass import _zpoly as zp

    G, d = _to_zpoly(g)
    return [zp.zneg(G), [d]]


def test_division_by_a_linear_factor_is_exact_or_none():
    F = parse_poly("x*y^2 - 1/2*y + x^3 - 7")
    for g in ("0", "x^2 - 1/3", "5", "1/2*x"):  # the last is the non-monic 2y - x
        linear = _linear_rows(parse_upoly(g, "x"))
        rows = to_y_dense(F * from_y_dense(linear))
        assert from_y_dense(bivariate_divexact_y(rows, linear)) == from_y_dense(to_y_dense(F))
    # y - x does not divide F * (y - x^2)
    y_minus_x = _linear_rows(parse_upoly("x", "x"))
    assert bivariate_divexact_y(to_y_dense(F * (Y - X**2)), y_minus_x) is None
    # nor does 2y - 1 divide y: a quotient 1/2 rounded to an integer would leave remainder 0
    assert bivariate_divexact_y(to_y_dense(Y), _linear_rows(parse_upoly("1/2", "x"))) is None


def test_a_non_monic_linear_factor_leaves_a_primitive_block():
    # F / (y - x/2) is 2 * (y^4 - x*y^2 - 1) over Z; dividing by 2y - x
    # leaves the primitive block, which the biquadratic test certifies
    from curveclass import jobs

    rep = certify_realness(make_curve(parse_poly("(2*y - x)*(y^4 - x*y^2 - 1)")))
    assert [(format_poly(f), status, note) for f, status, note in rep.factors] == [
        ("-1/2*x + y", "certified", "graph of a polynomial function"),
        ("y^4 - x*y^2 - 1", "certified", "irreducible with a nonsingular real point over x = 0"),
    ]
    assert rep.certified
    assert jobs.run_singular("(2*y - x)*(y^4 - x*y^2 - 1)", 64).data["caveats"] == []


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
    # p = n/d is a square in Q[x] iff n*d is one in Z[x], and sqrt(p) = sqrt(n*d)/d
    from curveclass import _zpoly as zp
    from curveclass.curves import _zsqrt

    z, den = _to_zpoly(parse_upoly(square, "x"))
    got = _zsqrt(zp.zscale(z, den))
    if got is not None:
        got = format_upoly(_from_ints("x", got) * Fraction(1, den))
    assert got == root


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

    dy = B.degree_in("y")
    irreducible = curves._irreducible_lite(to_y_dense(B))
    for x0 in curves._sample_xs(budget):
        u = curves.specialize_x(B, Fraction(x0))
        if u.degree != dy or u.degree <= 0:
            continue
        z = zp.zprimitive(_to_zpoly(u)[0])
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
        # reducible, no irreducibility certificate: all four branches first
        # real at x = 6, the twelfth sample
        (Y**2 - X + 3) * (Y**2 - X + 5),
    ],
    ids=["y2-a", "y4xk-y2-a", "rational", "lc-vanishes", "reducible-late"],
)
def test_integer_realness_samples_match_specialize_x(monkeypatch, F, budget):
    from curveclass import curves

    blocks = []
    integer_samples = curves._certify_block

    def compared(rows, b):
        got = integer_samples(rows, b)
        assert got == _certify_block_by_specialize_x(from_y_dense(rows), b)
        blocks.append(got)
        return got

    monkeypatch.setattr(curves, "_certify_block", compared)
    certify_realness(make_curve(F), budget=budget)
    assert blocks


def test_reducible_block_certifies_first_at_a_late_sample():
    from curveclass import curves

    rows = to_y_dense((Y**2 - X + 3) * (Y**2 - X + 5))
    assert curves._irreducible_lite(rows) is None
    assert curves._certify_block(rows, 2)[1:] == ("unverified", "no certificate within budget")
    assert curves._certify_block(rows, 16)[1:] == (
        "certified", "all 4 branches real and simple over x = 6")


# True and False are ints to isinstance; [1] is an unhashable cache key
@pytest.mark.parametrize("budget", [-1, -64, 1.5, "8", None, True, False, [1]])
def test_realness_budget_must_be_a_nonnegative_int(budget):
    curve = make_curve(parse_poly("y^2 + x^2 + 1 - x^3*y"))
    with pytest.raises(PreconditionError) as exc:
        certify_realness(curve, budget=budget)
    assert exc.value.code == 8
    with pytest.raises(PreconditionError):
        curve.realness(budget)
    assert curve._realness == {}  # nothing cached for the rejected budget
    assert not curve.realness(0).certified


def test_realness_samples_run_to_the_budget():
    from curveclass import curves, jobs

    # budgets up to 399 try the same samples as the fixed table of 0, +-1,
    # ..., +-199 that capped every budget at 399
    table = [0] + [s * k for k in range(1, 200) for s in (1, -1)]
    assert list(curves._sample_xs(399)) == table
    assert list(curves._sample_xs(0)) == []
    # y^2 = x - 250 has a simple real fiber first over x = 251, sample 501
    curve = make_curve(parse_poly("y^2 - x + 250"))
    assert certify_realness(curve, 501).factors == [
        (curve.F, "unverified", "no certificate within budget")]
    assert certify_realness(curve, 502).factors == [
        (curve.F, "certified", "all 2 branches real and simple over x = 251")]
    assert jobs.run_singular("y^2 - x + 250", 1000).data["caveats"] == []


# -- linear factors: integer probes before division, against division alone -
from contextlib import contextmanager  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _first_linear_factor_by_division(rows, shapes, cands, x1, fiber):
    """Reference: the search over Q[x] without probes, dividing every
    (shape, candidate) pair in shape-then-candidate order, shapes UPolys;
    returns (g, quotient rows) or None; fiber is not read."""
    from curveclass import curves

    for shape in shapes:
        mval = shape.eval(x1)
        if not mval:
            continue
        for root in cands:
            g_poly = shape * (root / mval)
            q = curves.bivariate_divexact_y(rows, _linear_rows(g_poly))
            if q is not None:
                return g_poly, q
    return None


def _upoly_shapes(shapes):
    return [_from_ints("x", s) for s in shapes]


def _over_q(found):
    """curves._first_linear_factor's (G, d, rows) as the reference's
    (G/d in Q[x], rows); None stays None."""
    if found is None:
        return None
    G, d, rows = found
    return _from_ints("x", G) * Fraction(1, d), rows


@contextmanager
def _counting_divisions():
    """The divisors of every division the linear-factor search makes."""
    from curveclass import curves

    calls = []
    divide = curves.bivariate_divexact_y
    curves.bivariate_divexact_y = lambda rows, b: calls.append(b) or divide(rows, b)
    try:
        yield calls
    finally:
        curves.bivariate_divexact_y = divide


def test_a_candidate_passing_x_3_is_rejected_at_a_probe():
    from curveclass import curves

    F = (Y - X**2) * (Y**2 + 1)  # F(3, y) has the one rational root 9
    shapes, cands = [[1], [0, 1], [0, 0, 1]], [Fraction(9)]
    # g = 9 and g = 3x pass x = 3 (F(3, 9) = 0) and fail at x = 4; g = x^2 divides
    with _counting_divisions() as probed:
        fiber = curves.rows_at(to_y_dense(F), 4)
        got = curves._first_linear_factor(to_y_dense(F), shapes, cands, 3, fiber)
    with _counting_divisions() as divided:
        want = _first_linear_factor_by_division(to_y_dense(F), _upoly_shapes(shapes), cands, 3,
                                                fiber)
    x2 = _from_ints("x", [0, 0, 1])
    assert _over_q(got) == want == (x2, to_y_dense(Y**2 + 1))
    assert probed == [_linear_rows(x2)] and len(divided) == 3


_A_FACTORS = ("x-1", "x-2", "x^2+1", "x^2-2", "x^2+4", "x^2+x+1", "x^2-3", "2*x-1/3")


def _divide_by_upoly(F, g):
    """Reference: F / (y - g(x)) by synthetic division over Q, on the
    rational y-rows of F (UPolys in x); None if not divisible."""
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


def _small_poly(draw, dy, dx):
    """A nonzero polynomial of y-degree <= dy, x-degree <= dx, with small
    integer coefficients."""
    terms = {(0, 0, i, j): draw(st.integers(-3, 3)) for j in range(dy + 1) for i in range(dx + 1)}
    P = MPoly(terms)
    return P if not P.is_zero() else MPoly.const(1)


@st.composite
def _division_case(draw):
    """(integer y-rows, g): rows of F * (y - h) or of F alone, g in Q[x]
    with denominators 1-6 (y - x/2 is the non-monic 2y - x), and g = h
    about half the time; F is sometimes a multiple of y, whose zero
    constant row a wrong carry can cancel."""
    F = _small_poly(draw, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        F = F * Y
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    g = UPoly("x", draw(st.lists(coeff, max_size=3)))
    if draw(st.booleans()):
        h = g if draw(st.booleans()) else UPoly("x", draw(st.lists(coeff, max_size=3)))
        F = F * (Y - from_upoly(h))
    return to_y_dense(F), g


@settings(deadline=None, max_examples=200)
@given(case=_division_case())
def test_integer_linear_division_matches_division_over_q(case):
    # dividing by the primitive d*y - G instead of y - G/d keeps F's
    # content: the quotient of a primitive F is primitive
    from curveclass import _zpoly as zp

    rows, g = case
    want = _divide_by_upoly(from_y_dense(rows), g)
    got = bivariate_divexact_y(rows, _linear_rows(g))
    if want is None:
        assert got is None
    else:
        assert from_y_dense(got) == want * Fraction(1, _linear_rows(g)[1][0])
        assert zp.zcontent(sum(got, [])) == zp.zcontent(sum(rows, []))


@st.composite
def _realness_curve(draw):
    """y^2 - a(x) or (y^4 + x^k)(y^2 - a(x)) as in the singular-stress
    workload, with a(x) sometimes a square times a constant (two linear
    factors y -/+ g) and sometimes times a linear factor y - h(x)."""
    a = parse_poly("1")
    for f in draw(st.lists(st.sampled_from(_A_FACTORS), min_size=1, max_size=4)):
        a = a * parse_poly(f) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        a = a * a * draw(st.sampled_from([1, 4, Fraction(9, 4), 2]))
    F = Y**2 - a
    if draw(st.booleans()):
        F = (Y**4 + X ** draw(st.integers(2, 8))) * F
    if draw(st.booleans()):
        F = F * (Y - parse_poly(draw(st.sampled_from(["x^2", "3*x - 1", "1/2*x^3", "5"]))))
    return F


@settings(deadline=None, max_examples=60)
@given(F=_realness_curve())
def test_probed_linear_factor_search_matches_division_alone(F):
    # every search the integer route makes, on its own integer shapes,
    # against division over Q by the same shapes as UPolys
    from curveclass import curves

    calls = []
    probe = curves._first_linear_factor
    curves._first_linear_factor = lambda *a: calls.append(a) or probe(*a)
    try:
        curves._linear_y_factors(to_y_dense(F))
    finally:
        curves._first_linear_factor = probe
    for rows, shapes, cands, x1, fiber in calls:
        want = _first_linear_factor_by_division(rows, _upoly_shapes(shapes), cands, x1, fiber)
        assert _over_q(probe(rows, shapes, cands, x1, fiber)) == want


def _linear_y_factors_ungated(rows):
    """Reference: the linear-factor search over Q[x], with UPoly shapes,
    division alone and without the F(4, y) gate, which builds the shapes
    whenever F(3, y) has a nonzero rational root."""
    from curveclass import _zpoly as zp
    from curveclass import curves

    out = []
    x1 = 3
    while len(rows) >= 2:
        if not rows[0]:
            out.append(MPoly.var("y"))
            rows = rows[1:]
            continue
        u = curves.rows_at(rows, x1)
        cands = [r for r in zp.zrational_roots(u) if r] if zp.zdeg(u) >= 1 else []
        if not cands:
            break
        dx = max(map(len, rows)) - 1
        roots, chunks = curves._split_candidates(rows[0])
        pieces = [UPoly("x", [-r, Fraction(1)]) for r in roots]
        pieces += [_from_ints("x", ch) for ch in chunks]
        one = UPoly("x", [Fraction(1)])
        shapes = [one]
        for piece in pieces[:4]:
            squares = [one, piece, piece * piece]
            shapes = [s * pk for s in shapes for pk in squares if s.degree + pk.degree <= dx]
        factor = _first_linear_factor_by_division(rows, shapes, cands, x1, None)
        if factor is None:
            break
        g_poly, rows = factor
        out.append(MPoly.var("y") - from_upoly(g_poly))
    return out, rows


@settings(deadline=None, max_examples=60)
@given(F=_realness_curve())
def test_gated_linear_factor_search_matches_the_ungated_one(F):
    from curveclass import curves

    assert curves._linear_y_factors(to_y_dense(F)) == _linear_y_factors_ungated(to_y_dense(F))


@pytest.mark.parametrize(
    "F, factors, searched",
    [
        # F(3, y) has the roots -6 and 6, F(4, y) = y^2 - 80 none: the gate
        # stops the search before any shape is built
        (Y**2 - X**2 * (X + 1), [], False),
        ((Y - X**2) * (Y**2 + X**2 * (X + 1)), [Y - X**2], True),
        # g(4) = 0: the gate must count the root 0 of F(4, y), which is its
        # only rational root in the second curve
        ((Y - X + 4) * (Y**2 - X), [Y - X + 4], True),
        ((Y - X + 4) * (Y**2 - X + 1), [Y - X + 4], True),
    ],
    ids=["node", "parabola-times-positive", "g4-zero", "g4-zero-only-root"],
)
def test_gated_linear_factor_search_on_named_curves(monkeypatch, F, factors, searched):
    from curveclass import curves

    want = _linear_y_factors_ungated(to_y_dense(F))
    splits = []
    split = curves._split_candidates
    monkeypatch.setattr(curves, "_split_candidates", lambda z: splits.append(z) or split(z))
    got = curves._linear_y_factors(to_y_dense(F))
    assert got == want
    assert got[0] == factors
    assert bool(splits) == searched


@pytest.mark.parametrize(
    "F, searches",
    [(Y**2 - X**2 * (X + 1), 0), ((Y - X**2) * (Y**2 + X**2 * (X + 1)), 1),
     ((Y - X + 4) * (Y**2 - X), 1)],
    ids=["node", "parabola-times-positive", "g4-zero"],
)
def test_the_linear_factor_search_evaluates_F_at_4_once(monkeypatch, F, searches):
    # the gate's F(4, y) is the search's first probe fiber, not made again
    from curveclass import curves

    points, calls = [], []
    rows_at, search = curves.rows_at, curves._first_linear_factor
    monkeypatch.setattr(curves, "rows_at", lambda rows, x0: points.append(x0) or rows_at(rows, x0))
    monkeypatch.setattr(curves, "_first_linear_factor", lambda *a: calls.append(a) or search(*a))
    curves._linear_y_factors(to_y_dense(F))
    assert len(calls) == searches and points.count(4) == 1


@st.composite
def _sample_block(draw):
    """A block B(x, y) of y-degree 1-6 with small integer coefficients,
    times factors whose fibers collide at some samples (y - x)(y + x - 2)
    at x = 1, and sometimes a square, so that many fibers are not
    squarefree."""
    B = MPoly()
    dy = draw(st.integers(1, 4))
    for j in range(dy + 1):
        for i in range(draw(st.integers(0, 3))):
            B = B + draw(st.integers(-4, 4)) * X**i * Y**j
    B = B + Y ** (dy + 1)
    extra = draw(st.sampled_from(["1", "(y - x)*(y + x - 2)", "(y - x^2)^2", "(y^2 - x)*(y - 1)"]))
    return B * parse_poly(extra)


@settings(deadline=None, max_examples=80)
@given(B=_sample_block(), budget=st.sampled_from([0, 1, 3, 12, 64]))
def test_one_sturm_chain_per_sample_matches_the_gcd_then_chain_route(B, budget):
    # the parent's route tests each fiber squarefree by its own gcd and then
    # builds the chain; the chain's last member is that gcd up to a constant
    from curveclass import curves

    assert curves._certify_block(to_y_dense(B), budget) == _certify_block_by_specialize_x(B, budget)


def _embeddings_per_root(field):
    """Reference: m2's Sturm chain rebuilt for every real root of m1."""
    from curveclass import _zpoly as zp
    from curveclass.numfield import RealEmbedding, isolate_tower_roots, tower_sturm_chain

    base = field.sub_field(1)
    embs = []
    for lo, hi in zp.zisolate(field.zlevels()[0]):
        base_emb = RealEmbedding(base, [(lo, hi)])
        for blo, bhi in isolate_tower_roots(tower_sturm_chain(field.minpoly(1)), base_emb):
            embs.append(RealEmbedding(field, [(lo, hi), (blo, bhi)]))
    return embs


@pytest.mark.parametrize(
    "m1, m2",
    [
        ([-2, 0, 1], [lambda a: -a, lambda a: 0, lambda a: 1]),  # y^2 = x over x^2 = 2
        ([-3, 0, 0, 1], [lambda a: a * a - 5, lambda a: 0, lambda a: 1]),  # one real x
        ([6, -2, -3, 1], [lambda a: 1 - a, lambda a: a, lambda a: 1]),
        ([-5, 0, 1], [lambda a: 10 * a * a * a, lambda a: -5 * a * a, lambda a: -2 * a,
                      lambda a: 1]),
    ],
)
def test_one_tower_chain_per_field_gives_the_per_root_embeddings(monkeypatch, m1, m2):
    from curveclass import curves

    pt = _split_prone_point(m1, m2)
    assert _intervals([pt]) == [
        [[(iv.low, iv.high) for iv in e.intervals] for e in _embeddings_per_root(pt.field)]
    ]
    chains = []
    build = curves.tower_sturm_chain
    monkeypatch.setattr(curves, "tower_sturm_chain", lambda p: chains.append(p) or build(p))
    curves._embeddings_for(pt.field)
    assert len(chains) == 1


def test_a_field_without_real_base_roots_builds_no_tower_chain(monkeypatch):
    # x^2 + 1 has no real root: m2 is never isolated, and its chain (which
    # could split the tower) is never built
    from curveclass import curves
    from curveclass.numfield import SplitEvent

    chains = []
    build = curves.tower_sturm_chain
    monkeypatch.setattr(curves, "tower_sturm_chain", lambda p: chains.append(p) or build(p))
    assert _split_prone_point([1, 0, 1], [lambda a: -a, lambda a: 0, lambda a: 1]).embeddings == []
    assert chains == []
    # with a real base root the chain is built, and a split it meets surfaces:
    # m2 = y^2 + (x - 1)y over x^2 = 1 leaves the remainder (1 - x)/2, a zero
    # divisor that the next division inverts
    with pytest.raises(SplitEvent):
        _split_prone_point([-1, 0, 1], [lambda a: 0, lambda a: a - 1, lambda a: 1])
    assert len(chains) == 1


def _bench_workloads():
    """bench/workloads.py, the benchmark's job generator, as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_functions(workload, count):
    """The first count jobs of a classify workload at seed 2024 as
    functions, with 0 assigned at every real bad point by index as
    bench/pipeline.py does."""
    from curveclass.functions import make_function

    for job in _bench_workloads().generate(workload, 2024, count):
        curve = make_curve(parse_poly(job["curve"]))
        q = parse_poly(job["denominator"])
        real = [i for i, pt in enumerate(bad_locus(curve, q)) if pt.is_real]
        yield make_function(curve, parse_poly(job["numerator"]), q,
                            [(i, Fraction(0)) for i in real])


def _captured_fields(jobs_per_seed=60):
    """The depth-2 fields whose embeddings the locus solves of the three
    benchmark workloads (seeds 5 and 12) ask for, in call order."""
    from curveclass import curves

    workloads = _bench_workloads()
    fields = []
    embeddings_for = curves._embeddings_for

    def recorded(field, *memo):
        embs = embeddings_for(field, *memo)
        fields.append(field)
        return embs

    curves._embeddings_for = recorded
    try:
        for workload in workloads.GENERATORS:
            for seed in (5, 12):
                for job in workloads.generate(workload, seed, jobs_per_seed):
                    curve = make_curve(parse_poly(job["curve"]))
                    if "denominator" in job:
                        bad_locus(curve, parse_poly(job["denominator"]))
                    else:
                        curve.singular_locus()
    finally:
        curves._embeddings_for = embeddings_for
    return fields


def _emb_intervals(embs):
    return [[(iv.low, iv.high) for iv in e.intervals] for e in embs]


def _m2_is_rational(field):
    return all(len(row) <= 1 for row in field.zlevels()[1])


def test_rational_fibers_isolated_once_match_the_tower_route(monkeypatch):
    # every captured field, and hand-made Q[y] fibers over none, one, two
    # and three real base roots: the same intervals as the tower route, and
    # no tower chain for a fiber polynomial in Q[y]
    from curveclass import curves
    from curveclass.numfield import extend_field, field_from_qpoly

    made = []
    for m1, m2 in [
        ([1, 0, 1], [-2, 0, 1]),  # x^2 + 1: no real base root
        ([-3, 0, 0, 1], [-5, 0, 1]),  # one real x
        ([-2, 0, 1], [0, -1, 0, 1]),  # two real x; rational fiber roots -1, 0, 1
        ([1, -3, 0, 1], [-1, 1, 1]),  # three real x
        ([1, -3, 0, 1], [1, 0, 10, 0, 1]),  # three real x, no real fiber root
        ([-2, 0, 1], [Fraction(-1, 3), 0, Fraction(1, 2), 1]),
    ]:
        base = field_from_qpoly("x", _from_ints("x", m1))
        made.append(extend_field(base, "y", [Fraction(c) for c in m2]))
    fields = _captured_fields()
    rational = [f for f in fields if _m2_is_rational(f)]
    assert len(rational) < len(fields)  # the tower route is met too
    want = [_emb_intervals(_embeddings_per_root(f)) for f in made + fields]
    chains = []
    build = curves.tower_sturm_chain
    monkeypatch.setattr(curves, "tower_sturm_chain", lambda p: chains.append(p) or build(p))
    got = []
    for f in made + fields:
        before = len(chains)
        got.append(_emb_intervals(curves._embeddings_for(f)))
        if _m2_is_rational(f):
            assert len(chains) == before
    assert got == want
    assert [len(e) for e in got[:len(made)]] == [0, 2, 6, 6, 0, 2]


def test_rational_fiber_embeddings_are_distinct_objects():
    # one fiber isolation serves every base root, but each embedding is
    # refined in place: refining one must not move another
    from curveclass import curves
    from curveclass.numfield import extend_field, field_from_qpoly

    base = field_from_qpoly("x", _from_ints("x", [1, -3, 0, 1]))
    fld = extend_field(base, "y", [Fraction(-2), Fraction(0), Fraction(1)])
    embs = curves._embeddings_for(fld)
    assert len(embs) == 6
    before = _emb_intervals(embs)
    for i, emb in enumerate(embs):
        emb.refine(0)
        emb.refine(1)
        after = _emb_intervals(embs)
        assert after[i] != before[i]
        assert after[:i] == before[:i] and after[i + 1:] == before[i + 1:]
        before = after


def _classes(points):
    return [(pt.field.levels, _intervals([pt])[0]) for pt in points]


def test_chunk_gcds_from_subresultants_match_the_tower_route(monkeypatch):
    # random systems, some with lc_y vanishing on a chunk, some whose chunk
    # the tower Euclid splits: both routes give the same classes, in the
    # same order, with the same isolating intervals
    import random

    from curveclass import curves
    from curveclass.errors import DegenerateInputError
    from curveclass.numfield import NumberField

    seen = {"subresultant": 0, "tower": 0, "tower splits": 0}
    first_pair_gcd = curves._first_pair_gcd

    def counted(fld, sres):
        g = first_pair_gcd(fld, sres)
        seen["tower" if g is None else "subresultant"] += 1
        return g

    split_level = NumberField.split_level

    def counted_split(fld, level, factor):
        seen["tower splits"] += 1
        return split_level(fld, level, factor)

    monkeypatch.setattr(NumberField, "split_level", counted_split)
    rng = random.Random(3)

    def rpoly(dy, dx):
        return sum((rng.randint(-3, 3) * X**i * Y**j for j in range(dy + 1) for i in range(dx + 1)
                    if rng.random() < 0.5), MPoly())

    def xfactor():
        return rng.choice([X**2 - 2, X**2 - 3, X**3 - 2, X**2 + 1, X**2 - X - 1])

    systems = 0
    while systems < 120:
        p0, p1 = rpoly(rng.randint(1, 3), 2), rpoly(rng.randint(1, 3), 2)
        if rng.random() < 0.4:
            p1 = p1 * xfactor()  # p1(alpha, y) = 0 on a factor of the chunk
        if rng.random() < 0.3:
            p0 = p0 + xfactor() * Y ** (p0.degree_in("y") + 1)  # lc_y vanishes there
        if rng.random() < 0.3:
            p0, p1 = p0 * (Y - X) + xfactor(), p1 * (Y - X)
        polys = [p0, p1] + ([rpoly(1, 1)] if rng.random() < 0.2 else [])
        monkeypatch.setattr(curves, "_first_pair_gcd", lambda fld, sres: None)
        try:
            want = _solve(polys)
        except DegenerateInputError:
            continue
        monkeypatch.setattr(curves, "_first_pair_gcd", counted)
        assert _classes(_solve(polys)) == _classes(want), polys
        systems += 1
    assert seen["subresultant"] > 100 and seen["tower"] > 50 and seen["tower splits"] > 10


# -- squarefreeness off the (F, F_y) subresultants ----------------------------

import random  # noqa: E402

from curveclass.bipoly import bivariate_gcd  # noqa: E402


def _two_gcd_witness(F):
    """The repeated part gcd(F, F_x, F_y) of the two-gcd route, on the rows
    of F and of its two derivatives, None when it is constant."""
    g = bivariate_gcd(to_y_dense(F), to_y_dense(F.deriv("x")))
    g = bivariate_gcd(g, to_y_dense(F.deriv("y"))) if g != [[1]] else g
    return None if g == [[1]] else from_y_dense(g)


def _curves_of_kind(kind, rng):
    def rpoly(dy, dx):
        while True:
            p = sum((rng.randint(-3, 3) * X**i * Y**j for j in range(dy + 1)
                     for i in range(dx + 1) if rng.random() < 0.6), MPoly())
            if p.degree_in("y") == dy and p.degree_in("x") >= (dx > 0):
                return p

    def xpoly():
        return rpoly(0, rng.randint(1, 2))

    def rest():  # a random product of up to three mixed factors, maybe a vertical one
        out = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
        for _ in range(rng.randint(1, 3)):
            out = out * rpoly(rng.randint(1, 2), rng.randint(0, 2))
        return out * (xpoly() if rng.random() < 0.3 else 1)

    if kind == "F in Q[x]":
        return xpoly() * xpoly() ** rng.randint(1, 2)
    if kind == "y-degree 1":
        return xpoly() ** rng.randint(1, 2) * rpoly(1, rng.randint(0, 2))
    if kind == "squared rational content":
        return (X - 2) ** 2 * rest()
    if kind == "squared irrational content":
        return (X**2 - 2) ** 2 * rest()
    if kind == "squared y-factor":
        return rpoly(rng.randint(1, 2), 0) ** 2 * rest()
    if kind == "squared mixed factor":
        return rpoly(rng.randint(1, 2), rng.randint(1, 2)) ** 2 * rest()
    return rest()  # products that are squarefree unless two factors meet


@pytest.mark.parametrize("kind, repeated", [
    ("F in Q[x]", False), ("y-degree 1", False),
    ("squared rational content", True), ("squared irrational content", True),
    ("squared y-factor", True), ("squared mixed factor", True),
    ("squarefree products", False),
])
def test_squarefree_decision_matches_the_two_gcd_route(kind, repeated):
    rng = random.Random(f"squarefree {kind}")
    verdicts = set()
    for _ in range(40):
        F = _curves_of_kind(kind, rng)
        want = _two_gcd_witness(F)
        try:
            curve = make_curve(F)
        except CurveError as exc:
            assert exc.code == 3 and str(exc) == "curve polynomial has a repeated factor"
            assert exc.witness == want, F
            verdicts.add(True)
        else:
            assert want is None, F
            assert curve.F == F.primitive()
            assert (curve._fy_chain is None) == (F.degree_in("y") < 2)
            verdicts.add(False)
    assert verdicts == ({True} if repeated else {True, False})


@pytest.mark.parametrize("F, chain", [
    # y-degree >= 2: make_curve's (F, F_y) chain serves the locus
    (Y**3 - X**2 * Y**2 + Y * X**2 * (X + 1) - X**4 * (X + 1), "F_y"),
    ((Y**2 - X**3) * (Y - X - 1), "F_y"),
    # y-degree 1: no chain at make_curve, the locus builds (F, F_x)
    ((X**2 + 1) * Y - X**3, "F_x"),
])
def test_make_curve_and_singular_locus_build_one_chain(monkeypatch, F, chain):
    from curveclass import curves

    P = F.primitive()
    want = _classes(_solve([P, P.deriv("y"), P.deriv("x")]))
    built = []
    sres = curves.YSubresultants

    def counted(p, q):
        built.append((p, q))
        return sres(p, q)

    def forbidden(p, q):
        raise AssertionError("bivariate_gcd on a squarefree curve")

    monkeypatch.setattr(curves, "YSubresultants", counted)
    monkeypatch.setattr(curves, "bivariate_gcd", forbidden)
    curve = make_curve(F)
    assert _classes(singular_locus(curve)) == want
    assert built == [(curve._zrows, to_y_dense(curve.F.deriv(chain[-1])))]


# -- the integer y-rows are built once per singular-locus job -----------------

def _count_calls(monkeypatch, name, modules):
    """Count calls of bipoly's function name through the bindings that
    modules hold; returns the list the wrapper appends to."""
    from curveclass import bipoly

    orig = getattr(bipoly, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return orig(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_singular_job_builds_the_integer_rows_once(monkeypatch):
    from curveclass import bipoly, curves, jobs, unipoly

    dense = _count_calls(monkeypatch, "to_y_dense", (bipoly, curves))
    gcds = []
    sequence = unipoly.remainder_sequence
    monkeypatch.setattr(unipoly, "remainder_sequence",
                        lambda a, *args: gcds.append(a.var) or sequence(a, *args))
    # two linear factors, one non-monic, and a block; three rational
    # singular points
    doc = jobs.run_singular("(y - x^2)*(2*y - x)*(y^2 - x^3 - x)")
    assert len(dense) == 1
    assert doc.data["caveats"] == [] and len(doc.data["singular_points"]) == 3
    # the node's F_x is in Q[x]: its gcd with the resultant is taken over Z,
    # so no x-candidate reaches the gcd over Q (the fibers over irrational
    # x-coordinates still take tower gcds in y)
    doc = jobs.run_singular("y^2 - x^2*(x + 1)")
    assert len(dense) == 2 and len(doc.data["singular_points"]) == 1
    assert "y" in gcds and "x" not in gcds


# -- one singular-locus solve: each isolation and each unpack once ------------

# a (y^4 + x^k)(y^2 - a(x)) curve of the singular-stress tail
_TAIL_CURVE = "(y^4 + x^3)*(y^2 - (x-1)^2*(x^2+4)^3)"


def test_a_locus_solve_isolates_each_polynomial_once(monkeypatch):
    from curveclass import _zpoly, curves

    isolated, fields = [], []
    isolate = _zpoly.zisolate_squarefree
    monkeypatch.setattr(_zpoly, "zisolate_squarefree",
                        lambda sf: isolated.append(tuple(sf)) or isolate(sf))
    embeddings_for = curves._embeddings_for
    monkeypatch.setattr(curves, "_embeddings_for",
                        lambda f, memo: fields.append(f) or embeddings_for(f, memo))
    points = singular_locus(make_curve(parse_poly(_TAIL_CURVE)))
    assert len(points) == 4
    assert {tuple(f.zlevels()[0]) for f in fields} <= set(isolated)
    assert len(isolated) == len(set(isolated))
    # over x = 0 the fiber is y = 0: one integer polynomial, isolated once
    # for both levels
    origin = [f for f in fields if f.zlevels() == ((0, 1), ((), (1,)))]
    assert origin and isolated.count((0, 1)) == 1
    # the same intervals as a call that keeps nothing
    monkeypatch.undo()
    assert _intervals(points) == [_emb_intervals(curves._embeddings_for(pt.field))
                                  for pt in points]


def test_a_locus_solve_unpacks_each_subresultant_once(monkeypatch):
    from curveclass.bipoly import YSubresultants

    reads, unpacked = [], []
    for name in ("principal", "rows"):
        method = getattr(YSubresultants, name)
        monkeypatch.setattr(YSubresultants, name,
                            lambda self, i, m=method, n=name: reads.append((n, i)) or m(self, i))
    unpack = YSubresultants._unpack
    monkeypatch.setattr(YSubresultants, "_unpack",
                        lambda self, c: unpacked.append(c) or unpack(self, c))
    curve = make_curve(parse_poly(_TAIL_CURVE))
    singular_locus(curve)
    assert len(reads) > len(set(reads))  # every chunk reads the chain again
    # the resultant, each principal coefficient read and each coefficient
    # of each S_j read, once
    degrees = curve._fy_chain.degrees
    assert len(unpacked) == 1 + sum(1 if n == "principal" else degrees[i] + 1
                                    for n, i in set(reads))


def test_subresultant_rows_and_principals_are_fresh_lists():
    sres = make_curve(parse_poly(_TAIL_CURVE))._fy_chain
    for i in range(len(sres.degrees)):
        rows, s = sres.rows(i), sres.principal(i)
        want = ([list(r) for r in rows], list(s))
        rows[0].append(7)
        rows.append([1])
        s.append(7)
        assert (sres.rows(i), sres.principal(i)) == want


# -- the fiber gcd over a rational x and the all-real vertical chunks -------
def _points_by_fiber_loop(points_at):
    """Reference for _points_at_rational_x: the gcd of the fibers by the
    loop it ran before y_content took it (a zero fiber skipped, a constant
    gcd ending it), handed to points_at as the one fiber of a polynomial
    with constant y-rows."""
    from curveclass import _zpoly as zp
    from curveclass.bipoly import rows_at
    from curveclass.errors import DegenerateInputError

    def reference(x0, grids, isolated):
        g = None
        for rows in grids:
            fiber = rows_at(rows, x0)
            if not fiber:
                continue
            g = fiber if g is None else zp.zgcd(g, fiber)
            if zp.zdeg(g) == 0:
                break
        if g is None:
            raise DegenerateInputError(f"positive-dimensional fiber over x = {x0}")
        return points_at(x0, [[[c] for c in g]], isolated)

    return reference


@pytest.mark.parametrize("system", [
    # fibers over x = 1 with integer content: 2y^2 - 2 and 4y - 4
    ["x - 1", "2*y^2 - 2 + (x - 1)*y", "4*y - 4 + (x - 1)*y^2"],
    # a zero fiber over x = 1, then y^2 - 1
    ["(x - 1)*(2*x + 1)", "(x - 1)*(y^3 + 1)", "y^2 - 1 + (x - 1)*(3*y + 2*x + 1)"],
    # a constant fiber over x = 1: first, with content 2, or last
    ["x - 1", "2 + (x - 1)*y", "y^2 - 1 + (x - 1)*y^3", "y - 1 + (x - 1)*y^2"],
    ["x - 1", "y^2 - 1 + (x - 1)*y^3", "y - 1 + (x - 1)*y^2", "5 + (x - 1)*y"],
    # fibers y^2 - 2 and 3y^2 - 6 over x = 2: one irrational class
    ["x - 2", "y^2 - 2 + (x - 2)*y^3", "3*y^2 - 6"],
    # a resultant with rational roots and no x-only polynomial
    ["y^2 - x", "y - x + 2"],
    # all fibers zero over x = 1: a positive-dimensional fiber
    ["x - 1", "(x - 1)*y^2", "(x - 1)*(y + 1)"],
])
def test_the_fiber_gcd_over_a_rational_x_is_y_content(monkeypatch, system):
    from curveclass import curves
    from curveclass.errors import DegenerateInputError
    from curveclass.parsing import format_point

    def solved():
        try:
            points = _solve([parse_poly(p) for p in system])
        except DegenerateInputError as exc:
            return "degenerate", str(exc)
        return [(format_point(pt), len(pt.embeddings)) for pt in points]

    got = solved()
    monkeypatch.setattr(curves, "_points_at_rational_x",
                        _points_by_fiber_loop(curves._points_at_rational_x))
    assert solved() == got


@settings(deadline=None, max_examples=200)
@given(factors=st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                                  st.sampled_from([1, -1, 2, 3]), st.integers(1, 3)),
                        min_size=1, max_size=4))
def test_vertical_chunks_are_all_real_by_zall_real_simple_as_by_the_full_chain(factors):
    # certify_realness's vertical chunks: squarefree, primitive, coprime
    # pieces of the curve's Z[x] content
    from curveclass import _zpoly as zp
    from curveclass import curves

    z = [1]
    for low, lead, power in factors:
        for _ in range(power):
            z = zp.zmul(z, low + [lead])
    for ch in curves._split_candidates(z)[1]:
        assert zp.zall_real_simple(ch) == (zp.sturm_count(zp.sturm_chain(ch)) == zp.zdeg(ch))
