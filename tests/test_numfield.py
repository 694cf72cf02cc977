import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass._zpoly import zisolate, zmul, zsquarefree
from curveclass.errors import InternalError
from curveclass.intervals import Interval, eval_poly
from curveclass.numfield import (
    NFElement,
    RealEmbedding,
    SplitEvent,
    extend_field,
    field_from_qpoly,
    is_zero_or_split,
    isolate_tower_roots,
    level0_real_embeddings,
    nf_arith,
    nf_sign,
    rational_point_field,
    tower_sturm_count,
)
from curveclass.unipoly import UPoly, squarefree_part, upoly_gcd

X = lambda *cs: UPoly.from_ints("x", cs)  # noqa: E731


def gaussian():
    return field_from_qpoly("i", UPoly.from_ints("i", [1, 0, 1]))


def sqrt2_field():
    return field_from_qpoly("a", UPoly.from_ints("a", [-2, 0, 1]))


def test_invert_i_gives_minus_i():
    F = gaussian()
    i = F.gen(0)
    assert i.inverse() == -i


def test_sqrt2_norm_identity():
    F = sqrt2_field()
    a = F.gen(0)
    assert (1 + a) * (1 - a) == F.from_fraction(-1)


def test_zero_divisor_raises_split_with_factor():
    F = field_from_qpoly("a", UPoly.from_ints("a", [-1, 0, 1]))  # a^2 - 1, reducible
    a = F.gen(0)
    with pytest.raises(SplitEvent) as exc:
        (a - 1).inverse()
    factor = exc.value.factor_rep
    assert exc.value.level == 0
    assert list(factor) == [Fraction(-1), Fraction(1)]  # a - 1
    # nf_arith surface returns the event instead of raising
    ev = nf_arith("invert", a - 1)
    assert isinstance(ev, SplitEvent)


def test_split_level_produces_consistent_branches():
    F = field_from_qpoly("a", UPoly.from_ints("a", [-1, 0, 1]))
    a = F.gen(0)
    try:
        (a - 1).inverse()
    except SplitEvent as ev:
        branches = F.split_level(0, ev.factor_rep)
    assert len(branches) == 2
    vals = sorted(br.gen(0).as_fraction() for br in branches)
    assert vals == [Fraction(-1), Fraction(1)]


def test_field_axioms_on_random_elements():
    # b^2 - a over Q[a]/(a^2 - 2): depth-2 tower of degree 4 (b = 2^(1/4))
    base = field_from_qpoly("a", UPoly.from_ints("a", [-2, 0, 1]))
    a = base.gen(0)
    F = extend_field(base, "b", [-a, base.from_fraction(0), base.one()])
    rng = random.Random(5)

    def rand_elem():
        b = F.gen(1)
        al = F.gen(0)
        acc = F.zero()
        for i in range(2):
            for j in range(2):
                acc = acc + F.from_fraction(rng.randint(-3, 3)) * al ** i * b ** j
        return acc

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert x * x.inverse() == F.one()


def test_sign_at_embeddings():
    F = sqrt2_field()
    embs = level0_real_embeddings(F)
    assert len(embs) == 2
    neg, pos = embs
    a = F.gen(0)
    assert nf_sign(a, pos) == 1
    assert nf_sign(a, neg) == -1
    assert nf_sign(a * a - 2, pos) == 0
    # 1 - sqrt(2) < 0: derived oracle sqrt(2) in [1.4, 1.5]
    assert nf_sign(F.one() - a, pos) == -1
    assert nf_sign(F.one() - a, neg) == 1


def test_sign_zero_divisor_splits():
    F = field_from_qpoly("a", UPoly.from_ints("a", [-1, 0, 1]))
    embs = level0_real_embeddings(F)
    a = F.gen(0)
    # at the a=-1 embedding the value is -2: a definite sign, no split needed
    assert nf_sign(a - 1, embs[0]) == -1
    # at the a=1 embedding the element vanishes on one branch only
    with pytest.raises(SplitEvent):
        nf_sign(a - 1, embs[1])


def test_is_zero_or_split():
    F = sqrt2_field()
    a = F.gen(0)
    assert is_zero_or_split(a * a - 2)
    assert not is_zero_or_split(a - 1)
    assert nf_arith("is_zero", a * a - 2) is True


def test_rational_point_field_collapses():
    F = rational_point_field("x", "y", Fraction(1, 2), Fraction(-3))
    assert F.gen(0).as_fraction() == Fraction(1, 2)
    assert F.gen(1).as_fraction() == -3
    assert F.degree() == 1


def test_tower_sturm_and_isolation():
    # fiber t^2 - a over Q[a]/(a^2-2): at the positive embedding two real
    # roots, at the negative embedding none
    F = sqrt2_field()
    neg, pos = level0_real_embeddings(F)
    t2a = UPoly("t", [-F.gen(0), F.zero(), F.one()])
    assert tower_sturm_count(t2a, pos) == 2
    assert tower_sturm_count(t2a, neg) == 0
    roots = isolate_tower_roots(t2a, pos)
    assert len(roots) == 2
    assert roots[0][1] <= roots[1][0]
    # 2^(1/4) ~ 1.19 in the second interval
    assert roots[1][0] < Fraction(119, 100) < roots[1][1] or roots[1][0] < Fraction(12, 10)


def test_tower_squarefree_and_gcd_via_generic_ops():
    F = gaussian()
    i = F.gen(0)
    # t^2 - i is already squarefree (spec example)
    p = UPoly("t", [-i, F.zero(), F.one()])
    assert squarefree_part(p) == p.monic()
    # (t - i)^2 collapses
    sq = UPoly("t", [-F.one(), 2 * i, F.one()])  # (t+i)^2 = t^2+2it-1
    assert squarefree_part(sq).degree == 1
    g = upoly_gcd(p, UPoly("t", [-i, F.one()]) * UPoly("t", [F.one(), F.one()]))
    # gcd(t^2 - i, (t - i)(t + 1)): t = i is not a root of t^2 - i (i^2 = -1 != i)
    assert g.degree == 0


def test_eval_mixed_domains():
    F = sqrt2_field()
    a = F.gen(0)
    p = X(1, 2, 1)  # (x+1)^2
    val = p.eval(a)
    assert val == (a + 1) * (a + 1)


def test_count_distinct_complex_roots_over_towers():
    from curveclass.unipoly import count_distinct_complex_roots

    F = gaussian()
    i = F.gen(0)
    assert count_distinct_complex_roots(UPoly("t", [-i, F.zero(), F.one()])) == 2
    # t^2 at a rational fiber collapses to one point
    assert count_distinct_complex_roots(UPoly.from_ints("t", [0, 0, 1])) == 1
    assert count_distinct_complex_roots(UPoly.from_ints("t", [0, 1, 0, 1])) == 3


def test_isolated_tower_roots_each_hold_one_root_on_a_split_prone_tower():
    # m1 = (a^2 - 2)(a^2 - 3) is reducible, so a^2 - 2 is a zero divisor;
    # y^2 - 5 a^2 has the two roots +-a sqrt 5 at every real embedding,
    # y^2 - a two roots at the positive embeddings and none at the others
    F = field_from_qpoly("a", UPoly.from_ints("a", [6, 0, -5, 0, 1]))
    a = F.gen(0)
    embs = level0_real_embeddings(F)
    assert len(embs) == 4
    for p, counts in (
        (UPoly("y", [-5 * a * a, F.zero(), F.one()]), [2, 2, 2, 2]),
        (UPoly("y", [-a, F.zero(), F.one()]), [0, 0, 2, 2]),
        # (y - 2a)(y^2 - 5a^2): three roots, not symmetric about 0
        (UPoly("y", [10 * a * a * a, -5 * a * a, -2 * a, F.one()]), [3, 3, 3, 3]),
    ):
        for emb, want in zip(embs, counts):
            roots = isolate_tower_roots(p, emb)
            assert len(roots) == want == tower_sturm_count(p, emb)
            assert all(tower_sturm_count(p, emb, lo, hi) == 1 for lo, hi in roots)
            assert all(r[1] <= s[0] for r, s in zip(roots, roots[1:]))


def test_isolation_evaluates_each_chain_polynomial_once_per_point(monkeypatch):
    # (y - 2a)(y^2 - 5a^2) over Q(sqrt 2): three roots need bisections, and
    # each bisection's left endpoint was an earlier midpoint or the bound
    from curveclass import numfield

    F = sqrt2_field()
    a = F.gen(0)
    p = UPoly("y", [10 * a * a * a, -5 * a * a, -2 * a, F.one()])
    seen = []
    elem_const = numfield._elem_const

    def recording(q, c):
        seen.append((id(q), c))
        return elem_const(q, c)

    monkeypatch.setattr(numfield, "_elem_const", recording)
    for emb in level0_real_embeddings(F):
        seen.clear()
        roots = isolate_tower_roots(p, emb)
        assert len(roots) == 3
        assert seen and len(seen) == len(set(seen))
    chain = numfield.tower_sturm_chain(p)
    for emb in level0_real_embeddings(F):
        for lo, hi in roots:
            assert numfield.tower_chain_count(chain, emb, lo, hi) == tower_sturm_count(
                p, emb, lo, hi
            )


def _rational_point_copy(z):
    """z with coefficients in the degenerate tower of the point (1/2, -3),
    and that tower's one real embedding."""
    F = rational_point_field("x", "y", Fraction(1, 2), Fraction(-3))
    p = UPoly("t", [F.from_fraction(c) for c in z])
    return p, RealEmbedding(F, [(0, 1), (-4, -2)])


def _assert_same_isolation(z):
    p, emb = _rational_point_copy(z)
    assert isolate_tower_roots(p, emb) == zisolate(z)


def test_integer_and_tower_isolation_agree_where_a_midpoint_is_a_root():
    # x^3 - x: the first midpoint 0 is a root, nudged to 1/64 in both
    _assert_same_isolation([0, -1, 0, 1])
    assert zisolate([0, -1, 0, 1])[2] == (Fraction(1, 64), 3)
    _assert_same_isolation([0, 4, 0, -5, 0, 1])  # x^5 - 5x^3 + 4x, roots 0, +-1, +-2


_root = st.tuples(st.integers(-8, 8), st.integers(1, 4))  # (n, d): d*x - n


@settings(deadline=None, max_examples=60)
@given(st.lists(_root, min_size=1, max_size=5), st.integers(0, 3))
def test_integer_and_tower_isolation_agree(roots, pairs):
    z = [1]
    for n, d in roots:
        z = zmul(z, [-n, d])
    for c in range(1, pairs + 1):
        z = zmul(z, [c, 0, 1])  # no real roots
    _assert_same_isolation(zsquarefree(z))


def test_refine_keeps_its_intervals_at_levels_0_and_1():
    # intervals pinned from the implementation before the shared sign table:
    # level 0 bisects on m1, level 1 on the sign of m2(alpha, x), midpoint first
    base = sqrt2_field()
    a = base.gen(0)
    F = extend_field(base, "b", [-a, base.from_fraction(0), base.one()])  # b = 2^(1/4)
    emb = RealEmbedding(F, [(1, 2), (1, 2)])
    steps = [
        (1, (5, 4), (3, 2), (1, 1), (3, 2)),
        (1, (5, 4), (3, 2), (1, 1), (5, 4)),
        (0, (11, 8), (3, 2), (1, 1), (5, 4)),
        (1, (11, 8), (3, 2), (9, 8), (5, 4)),
        (0, (11, 8), (23, 16), (9, 8), (5, 4)),
        (0, (45, 32), (23, 16), (9, 8), (5, 4)),
        (1, (181, 128), (91, 64), (19, 16), (5, 4)),
        (1, (181, 128), (91, 64), (19, 16), (39, 32)),
    ]
    for k, *want in steps:
        emb.refine(k)
        got = [emb.interval(0).lo, emb.interval(0).hi, emb.interval(1).lo, emb.interval(1).hi]
        assert got == [Fraction(*w) for w in want]
    # at the rational point (1/2, -3) every midpoint is the root; a step
    # halves its level and keeps the point, and a level-1 step signs
    # m2(alpha, mid) without refining level 0, since at the root that
    # element's representation is zero
    point = (Fraction(1, 2), Fraction(-3))
    emb = RealEmbedding(rational_point_field("x", "y", *point), [(0, 1), (-4, -2)])
    for k in (0, 1, 0, 1, 1, 0):
        before = [emb.interval(0), emb.interval(1)]
        emb.refine(k)
        after = [emb.interval(0), emb.interval(1)]
        for old, new, v in zip(before, after, point):
            assert old.lo <= new.lo <= v <= new.hi <= old.hi
        assert after[k].width() <= before[k].width() / 2
        if k == 1:
            assert (after[0].lo, after[0].hi) == (before[0].lo, before[0].hi)


def _fraction_enclosure(rep, depth, emb):
    """Reference enclosure: Horner over Fraction intervals."""
    if depth == 0:
        return Interval(rep)
    if not rep:
        return Interval(0)
    coeffs = [_fraction_enclosure(c, depth - 1, emb) for c in rep]
    return eval_poly(coeffs, emb.interval(depth - 1))


def _trimmed(seq):
    seq = list(seq)
    while seq and not seq[-1]:
        seq.pop()
    return tuple(seq)


_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=50)
_rep1 = st.lists(_coeff, max_size=4).map(_trimmed)
_magnitude = st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000)


@st.composite
def _level_interval(draw):
    """An interval below, above or straddling 0."""
    u, v = sorted((draw(_magnitude), draw(_magnitude)))
    return draw(st.sampled_from([(-v, -u), (u, v), (-u, v)]))


_reps = {1: _rep1, 2: st.lists(_rep1, max_size=4).map(_trimmed)}


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_integer_enclosure_equals_the_fraction_interval_horner(depth, data):
    # the arithmetic does not need the intervals to isolate roots of the
    # level polynomials, so any interval at any level will do
    from curveclass.numfield import _rep_intervals

    base = sqrt2_field()
    a = base.gen(0)
    F = extend_field(base, "b", [-a, base.from_fraction(0), base.one()])
    F = F.sub_field(depth)
    rep = data.draw(_reps[depth])
    emb = RealEmbedding(F, [data.draw(_level_interval()) for _ in range(depth)])
    got = _rep_intervals(NFElement(F, rep), emb)
    want = _fraction_enclosure(rep, depth, emb)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_sign_of_a_zero_element_refines_no_embedding():
    base = sqrt2_field()
    a = base.gen(0)
    F = extend_field(base, "b", [-a, base.from_fraction(0), base.one()])  # b = 2^(1/4)
    b = F.gen(1)
    for zero, emb in (
        (a * a - 2, RealEmbedding(base, [(1, 2)])),
        (b * b - F.gen(0), RealEmbedding(F, [(1, 2), (1, 2)])),
        (F.zero(), RealEmbedding(F, [(1, 2), (1, 2)])),
    ):
        before = [(iv.lo, iv.hi) for iv in emb.intervals]
        assert nf_sign(zero, emb) == 0
        assert [(iv.lo, iv.hi) for iv in emb.intervals] == before


def test_level0_refinement_builds_the_integer_m1_once_per_field(monkeypatch):
    from curveclass import numfield

    calls = []
    to_zpoly = numfield.to_zpoly

    def counting(p):
        calls.append(p)
        return to_zpoly(p)

    monkeypatch.setattr(numfield, "to_zpoly", counting)
    F = sqrt2_field()
    emb = RealEmbedding(F, [(1, 2)])
    for _ in range(6):
        emb.refine(0)
    assert emb.interval(0).width() == Fraction(1, 64)
    assert len(calls) == 1
    # the cached polynomial is not part of the field's identity
    assert F == sqrt2_field() and hash(F) == hash(sqrt2_field())


def test_a_vanishing_leading_coefficient_is_an_internal_error(monkeypatch):
    from curveclass import numfield

    F = sqrt2_field()
    a = F.gen(0)
    p = UPoly("y", [F.one(), a - 1])  # the enclosure of a - 1 on (1, 2) holds 0
    monkeypatch.setattr(numfield, "nf_sign", lambda e, emb: 0)
    with pytest.raises(InternalError) as exc:
        numfield.tower_root_bound(p, RealEmbedding(F, [(1, 2)]))
    assert exc.value.code == 10
