import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass._zpoly import zisolate, zmul, zsquarefree
from curveclass.errors import InternalError
from curveclass.numfield import (
    NFElement,
    RealEmbedding,
    SplitEvent,
    extend_field,
    field_from_qpoly,
    is_zero_or_split,
    isolate_tower_roots,
    nf_sign,
    rational_point_field,
    tower_sturm_chain,
    tower_sturm_count,
)
from curveclass.unipoly import UPoly, squarefree_part, upoly_gcd

X = lambda *cs: UPoly.from_ints("x", cs)  # noqa: E731


def level0_real_embeddings(field):
    """Embeddings of a depth-1 tower, one per real root of its level-0
    polynomial, ascending."""
    return [RealEmbedding(field, [(lo, hi)]) for lo, hi in zisolate(field.zlevels()[0])]


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


def test_a_lead_of_one_is_neither_inverted_nor_multiplied(monkeypatch):
    from curveclass import numfield

    F = sqrt2_field()
    a = F.gen(0)
    inverses, scalings = [], []
    rinv, rscalar = numfield._rinv, numfield._rscalar
    monkeypatch.setattr(numfield, "_rinv", lambda *args: inverses.append(args) or rinv(*args))
    monkeypatch.setattr(numfield, "_rscalar",
                        lambda *args: scalings.append(args) or rscalar(*args))
    p = UPoly("t", [a, F.one()])
    assert p.monic() is p
    q, r = UPoly("t", [F.one(), a, F.one()]).divmod(p)
    assert q * p + r == UPoly("t", [F.one(), a, F.one()])
    assert inverses == [] and scalings == []
    # 1 / c is the inverse itself, with no product by 1
    assert Fraction(1) / (a + 1) == a - 1
    assert len(inverses) == 1 and scalings == []


def test_zero_divisor_raises_split_with_factor():
    F = field_from_qpoly("a", UPoly.from_ints("a", [-1, 0, 1]))  # a^2 - 1, reducible
    a = F.gen(0)
    with pytest.raises(SplitEvent) as exc:
        (a - 1).inverse()
    assert exc.value.level == 0
    assert exc.value.factor_rep == (-1, 1)  # the integer form of a - 1
    with pytest.raises(SplitEvent):
        (1 - a).inverse()


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
    assert (a * a - 2).is_zero() is True


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
    roots = isolate_tower_roots(tower_sturm_chain(t2a), pos)
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
            roots = isolate_tower_roots(tower_sturm_chain(p), emb)
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
    evaluate = UPoly.eval

    def recording(q, x):
        seen.append((id(q), x))
        return evaluate(q, x)

    monkeypatch.setattr(UPoly, "eval", recording)
    chain = tower_sturm_chain(p)
    for emb in level0_real_embeddings(F):
        seen.clear()
        roots = isolate_tower_roots(chain, emb)
        assert len(roots) == 3
        assert seen and len(seen) == len(set(seen))
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
    assert isolate_tower_roots(tower_sturm_chain(p), emb) == zisolate(z)


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
        got = [*emb.interval(0), *emb.interval(1)]
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
            assert old.low <= new.low <= v <= new.high <= old.high
        assert after[k].width() <= before[k].width() / 2
        if k == 1:
            assert (after[0].low, after[0].high) == (before[0].low, before[0].high)


def test_an_empty_level_interval_is_a_fault():
    # an explicit check, not an assert: it holds under python -O too
    with pytest.raises(InternalError):
        RealEmbedding(sqrt2_field(), [(1, 0)])
    emb = RealEmbedding(sqrt2_field(), [(1, 2)])
    assert emb.interval(0) == (Fraction(1), Fraction(2))
    assert all(type(v) is Fraction for v in emb.interval(0))
    assert emb.interval(0).width() / 2 == Fraction(1, 2)


def _fraction_interval_horner(coeffs, x):
    """Reference enclosure: Horner over closed Fraction intervals (lo, hi),
    coefficients lowest degree first, on the interval x."""
    lo = hi = Fraction(0)
    for clo, chi in reversed(coeffs):
        products = (lo * x[0], lo * x[1], hi * x[0], hi * x[1])
        lo, hi = min(products) + clo, max(products) + chi
    return lo, hi


def _fraction_enclosure(rep, depth, emb):
    """Reference enclosure of a tower rep: the Fraction interval Horner."""
    if depth == 0:
        return rep, rep
    coeffs = [_fraction_enclosure(c, depth - 1, emb) for c in rep]
    return _fraction_interval_horner(coeffs, emb.interval(depth - 1))


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
    got = _rep_intervals(NFElement(F, _rep(rep, depth)), emb)
    want = _fraction_enclosure(rep, depth, emb)
    assert got == want


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
        before = [(iv.low, iv.high) for iv in emb.intervals]
        assert nf_sign(zero, emb) == 0
        assert [(iv.low, iv.high) for iv in emb.intervals] == before


def test_level0_refinement_builds_the_integer_m1_once_per_field(monkeypatch):
    from curveclass import numfield

    calls = []
    zclear = numfield._zclear
    monkeypatch.setattr(numfield, "_zclear",
                        lambda grid, depth: calls.append(grid) or zclear(grid, depth))
    F = sqrt2_field()  # field_from_qpoly clears its rational input once
    emb = RealEmbedding(F, [(1, 2)])
    for _ in range(6):
        emb.refine(0)
    assert emb.interval(0).width() == Fraction(1, 64)
    # refinement reads the stored integer m1 and clears nothing
    assert len(calls) == 1 and F.zlevels()[0] is F.levels[0][1] == (-2, 0, 1)
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


# -- Fraction reps: the oracles' representation ------------------------------
# A Fraction rep is a Fraction at depth 0 and a trimmed tuple of
# depth-(k-1) Fraction reps at depth k, the representation that the integer
# reps (nums, den) replaced.  _rep and _frac convert between the two.
from curveclass.numfield import NumberField, _rmod, _rmul  # noqa: E402


def _rep(frac, depth):
    """The integer rep of a trimmed Fraction rep: its numerators over their
    least common denominator."""
    flat = frac if depth == 1 else [c for row in frac for c in row]
    den = math.lcm(*(Fraction(c).denominator for c in flat))
    if depth == 1:
        return tuple(int(c * den) for c in frac), den
    return tuple(tuple(int(c * den) for c in row) for row in frac), den


def _frac(rep, depth):
    """The Fraction rep of an integer rep; the inverse of _rep."""
    nums, den = rep
    if depth == 1:
        return tuple(Fraction(n, den) for n in nums)
    return tuple(tuple(Fraction(n, den) for n in row) for row in nums)


def _fraction_levels(F):
    """The monic level polynomials of F as Fraction reps."""
    m1, *m2 = F.zlevels()
    return [_frac((m1, m1[-1]), 1)] + [_frac((m, m[-1][0]), 2) for m in m2]


def _field(*levels):
    """The tower of the monic level polynomials given as (var, Fraction rep):
    the numerators of a monic polynomial's rep are its level form."""
    return NumberField([(v, _rep(m, k + 1)[0]) for k, (v, m) in enumerate(levels)])


def _fconst(k, depth):
    """The Fraction rep of the rational k."""
    k = Fraction(k)
    if not k:
        return ()
    return (k,) if depth == 1 else ((k,),)


def _is_canonical(rep, depth):
    """Trimmed tuples of ints over a positive int denominator, in lowest
    terms."""
    nums, den = rep
    rows = (nums,) if depth == 1 else nums
    return (type(nums) is tuple and (depth == 1 or nums[-1:] != ((),))
            and all(type(row) is tuple and row[-1:] != (0,) for row in rows)
            and all(type(n) is int for row in rows for n in row)
            and type(den) is int and den > 0
            and math.gcd(den, *(n for row in rows for n in row)) == 1)


def _fis_zero(a, depth):
    return a == 0 if depth == 0 else a == ()


def _ftrim(seq, depth):
    seq = list(seq)
    while seq and _fis_zero(seq[-1], depth - 1):
        seq.pop()
    return tuple(seq)


def _fadd(a, b, depth, sign=1):
    """a + sign * b."""
    if depth == 0:
        return a + sign * b
    zero = Fraction(0) if depth == 1 else ()
    n = max(len(a), len(b))
    a, b = list(a) + [zero] * (n - len(a)), list(b) + [zero] * (n - len(b))
    return _ftrim([_fadd(x, y, depth - 1, sign) for x, y in zip(a, b)], depth)


def _fraction_mul(mps, a, b, depth):
    """Reference product: the Fraction convolution and reduction that the
    integer kernel replaced (mps: the Fraction level polynomials)."""
    if depth == 0:
        return a * b
    if not a or not b:
        return ()
    out = [() if depth > 1 else Fraction(0)] * (len(a) + len(b) - 1)
    sub = mps[: depth - 1]
    for i, ca in enumerate(a):
        if _fis_zero(ca, depth - 1):
            continue
        for j, cb in enumerate(b):
            out[i + j] = _fadd(out[i + j], _fraction_mul(sub, ca, cb, depth - 1), depth - 1)
    return _fraction_mod(mps, out, depth)


def _fraction_mod(mps, a, depth):
    """Reference reduction of the top variable modulo the monic mps[depth - 1]."""
    a = list(_ftrim(a, depth))
    m = mps[depth - 1]
    dm = len(m) - 1
    sub = mps[: depth - 1]
    while len(a) - 1 >= dm:
        top = a[-1]
        k = len(a) - 1 - dm
        if not _fis_zero(top, depth - 1):
            for i in range(dm):
                a[k + i] = _fadd(a[k + i], _fraction_mul(sub, top, m[i], depth - 1), depth - 1, -1)
        a = list(_ftrim(a[:-1], depth))
    return tuple(a)


def _fraction_reduce(mps, a, depth):
    """Reference reduction modulo every level, whatever the degrees of a's
    coefficients."""
    if depth == 2:
        a = _ftrim([_fraction_mod(mps, c, 1) for c in a], 2)
    return _fraction_mod(mps, a, depth)


_kcoeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _reps_below(degree, coeff):
    """Trimmed reps of fewer than `degree` coefficients drawn from coeff."""
    return st.lists(coeff, max_size=degree).map(_trimmed)


@st.composite
def _level0(draw):
    """A monic level-0 polynomial: random rational or (a^2 - 2)(a^2 - 3)."""
    if draw(st.booleans()):
        return (Fraction(6), Fraction(0), Fraction(-5), Fraction(0), Fraction(1))
    return tuple(draw(st.lists(_kcoeff, min_size=1, max_size=4))) + (Fraction(1),)


@st.composite
def _tower(draw, depth):
    """A tower of the given depth with reducible levels allowed (products
    need no irreducibility), or the degenerate tower of a rational point."""
    if depth == 2 and draw(st.integers(0, 3)) == 0:
        return rational_point_field("x", "y", draw(_kcoeff), draw(_kcoeff))
    m1 = draw(_level0())
    levels = [("a", m1)]
    if depth == 2:
        low = draw(st.lists(_reps_below(len(m1) - 1, _kcoeff), min_size=1, max_size=3))
        levels.append(("b", tuple(low) + ((Fraction(1),),)))
    return _field(*levels)


def _element_reps(F, depth, top=None):
    """Reduced Fraction reps of F; `top` allows that many top-level
    coefficients (more than the level degree gives an unreduced rep)."""
    d1 = F.level_degree(0)
    inner = _reps_below(d1, _kcoeff)
    if depth == 1:
        return _reps_below(top or d1, _kcoeff)
    return _reps_below(top or F.level_degree(1), inner)


def _grids(F, depth):
    """Fraction grids whose every level may exceed its level degree."""
    inner = _reps_below(2 * F.level_degree(0) + 1, _kcoeff)
    if depth == 1:
        return inner
    return _reps_below(2 * F.level_degree(1) + 1, inner)


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_integer_kernel_matches_the_fraction_loops(depth, data):
    F = data.draw(_tower(depth))
    mps = _fraction_levels(F)
    top = F.level_degree(depth - 1)
    a, b = (data.draw(_element_reps(F, depth)) for _ in range(2))
    want = _rep(_fraction_mul(mps, a, b, depth), depth)
    assert _rmul(F, _rep(a, depth), _rep(b, depth), depth) == want
    assert (NFElement(F, _rep(a, depth)) * NFElement(F, _rep(b, depth))).rep == want
    long = data.draw(_element_reps(F, depth, top=2 * top + 1))
    assert _rmod(F, *_rep(long, depth), depth) == _rep(_fraction_mod(mps, long, depth), depth)
    k = data.draw(_kcoeff | st.integers(-5, 5))
    e = NFElement(F, _rep(a, depth))
    scaled = _rep(_fraction_mul(mps, a, _fconst(k, depth), depth), depth)
    assert (e * k).rep == (k * e).rep == scaled
    if not e:
        return
    try:
        inv = 1 / e
    except SplitEvent:
        with pytest.raises(SplitEvent):
            e.inverse()
        return
    assert inv == e.inverse()
    assert _fraction_mul(mps, a, _frac(inv.rep, depth), depth) == _fconst(1, depth)
    third = _fraction_mul(mps, _frac(inv.rep, depth), _fconst(Fraction(3, 7), depth), depth)
    assert (Fraction(3, 7) / e).rep == _rep(third, depth)


def test_scalar_products_build_no_tower_element(monkeypatch):
    from curveclass import numfield

    F = sqrt2_field()
    a = F.gen(0)
    monkeypatch.setattr(numfield.NumberField, "from_fraction", None)
    assert (a * 3).rep == (3 * a).rep == ((0, 3), 1)
    assert (Fraction(1, 2) * a).rep == ((0, 1), 2)
    assert (1 / a).rep == ((0, 1), 2)


def test_integer_level_forms_are_built_once_per_field(monkeypatch):
    from curveclass import numfield

    base = field_from_qpoly("a", UPoly("a", [Fraction(-2, 3), Fraction(0), Fraction(1)]))
    a = base.gen(0)
    F = extend_field(base, "b", [-a / 5, base.from_fraction(Fraction(1, 2)), base.one()])
    calls = []
    zclear = numfield._zclear
    monkeypatch.setattr(numfield, "_zclear",
                        lambda grid, depth: calls.append(grid) or zclear(grid, depth))
    b = F.gen(1)
    x = F.gen(0) + b
    for _ in range(4):
        x = x * x + b
    assert x.inverse() * x == F.one()
    # arithmetic clears nothing: the level forms are the field's storage
    assert calls == []
    forms = F.zlevels()
    # c_k * m_k: the leading entry is the least common denominator
    assert forms == ((-2, 0, 3), ((0, -2), (5,), (10,)))
    assert all(form is m for form, (_, m) in zip(forms, F.levels))
    twin = extend_field(base, "b", [-a / 5, base.from_fraction(Fraction(1, 2)), base.one()])
    assert F == twin and hash(F) == hash(twin)


def test_a_tower_has_one_or_two_levels_of_primitive_integer_forms():
    base = sqrt2_field()
    F2 = extend_field(base, "b", [-base.gen(0), base.zero(), base.one()])
    # three levels used to be accepted and to crash at the first product
    with pytest.raises(ValueError):
        NumberField(list(F2.levels) + [("c", ((), (), (1,)))])
    with pytest.raises(ValueError):
        extend_field(F2, "c", [F2.zero(), F2.one()])
    with pytest.raises(ValueError):
        NumberField([])
    for levels in (
        [("a", (5,))],  # constant
        [("a", (2, 0, -1))],  # negative lead
        [("a", (-4, 0, 2))],  # not primitive
        [("a", (Fraction(-2), 0, 1))],  # not integer
        [("a", (-2, 0, 1)), ("b", ((0, 1), (2, 1)))],  # lead not a constant
        [("a", (-2, 0, 1)), ("b", ((2,), (), (4,)))],  # not primitive
    ):
        with pytest.raises(ValueError):
            NumberField(levels)
    with pytest.raises(ValueError):  # not monic
        extend_field(base, "b", [base.one(), base.from_fraction(2)])


# -- tower inversion on integers, against the Fraction extended Euclid -----
from curveclass.numfield import _rinv  # noqa: E402


def _fscale(mps, a, k, depth):
    """A depth-`depth` Fraction rep times a depth-(depth-1) one."""
    return _ftrim([_fraction_mul(mps, c, k, depth - 1) for c in a], depth)


def _fdivmod(mps, a, b, depth):
    """Division of Fraction reps by the monic b over the coefficients."""
    a = list(_ftrim(a, depth))
    db = len(b) - 1
    q = [() if depth > 1 else Fraction(0)] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        top = a[-1]
        k = len(a) - 1 - db
        q[k] = top
        if not _fis_zero(top, depth - 1):
            for i in range(db):
                a[k + i] = _fadd(a[k + i], _fraction_mul(mps, top, b[i], depth - 1), depth - 1, -1)
        a = list(_ftrim(a[:-1], depth))
    return _ftrim(q, depth), tuple(a)


def _fraction_inv(mps, a, depth):
    """Reference inverse: the Fraction extended Euclid that the integer
    inverses replaced, at every depth."""
    if depth == 0:
        return 1 / a
    m = mps[depth - 1]
    r0, s0 = tuple(m), ()
    r1, s1 = _ftrim(a, depth), (Fraction(1) if depth == 1 else (Fraction(1),),)
    while True:
        if not r1:  # r0 is the monic gcd
            assert len(r0) > 1
            raise SplitEvent(depth - 1, r0)
        lc_inv = _fraction_inv(mps, r1[-1], depth - 1)
        if len(r1) == 1:
            return _fscale(mps, s1, lc_inv, depth)
        r1m = _fscale(mps, r1, lc_inv, depth)
        s1m = _fscale(mps, s1, lc_inv, depth)
        q, rem = _fdivmod(mps, r0, r1m, depth)
        s_next = _fadd(s0, _fraction_mul(mps, q, s1m, depth), depth, -1)
        r0, s0 = r1m, s1m
        r1, s1 = _ftrim(rem, depth), s_next


def _fr(*cs):
    return tuple(Fraction(c) for c in cs)


# reducible level-0 polynomials and their factors (depth-1 reps)
_SPLIT0 = {
    _fr(6, 0, -5, 0, 1): [_fr(-2, 0, 1), _fr(-3, 0, 1)],  # (a^2 - 2)(a^2 - 3)
    _fr(-1, 1, -1, 1): [_fr(-1, 1), _fr(1, 0, 1)],  # (a - 1)(a^2 + 1)
}
_fractional = _kcoeff.filter(lambda c: c.denominator > 1)


@st.composite
def _inv_tower(draw, depth):
    """A tower whose level 0 has a non-integer coefficient (c_1 > 1) or is
    one of the reducible _SPLIT0; at depth 2 the top level is random, the
    reducible (b - a)(b + 1), or the tower of a rational point."""
    if draw(st.integers(0, 4)) == 0:
        F = rational_point_field("x", "y", draw(_kcoeff), draw(_kcoeff))
        return F if depth == 2 else F.sub_field(1)
    if draw(st.booleans()):
        m1 = draw(st.sampled_from(sorted(_SPLIT0)))
    else:
        low = draw(st.lists(_kcoeff, min_size=0, max_size=3))
        m1 = (draw(_fractional),) + tuple(low) + (Fraction(1),)
    levels = [("a", m1)]
    if depth == 2:
        if len(m1) > 2 and draw(st.booleans()):  # (b - a)(b + 1) = b^2 + (1 - a) b - a
            levels.append(("b", (_fr(0, -1), _fr(1, -1), _fr(1))))
        else:
            low = draw(st.lists(_reps_below(len(m1) - 1, _kcoeff), min_size=1, max_size=3))
            levels.append(("b", tuple(low) + ((Fraction(1),),)))
    return _field(*levels)


def _zero_divisors(mps, depth):
    """Factors of the reducible levels mps as depth-`depth` Fraction reps."""
    out = list(_SPLIT0.get(mps[0], ()))
    if depth == 2:
        out = [(f,) for f in out]
        if mps[1] == (_fr(0, -1), _fr(1, -1), _fr(1)):
            out += [(_fr(0, -1), _fr(1)), (_fr(1), _fr(1))]  # b - a, b + 1
    return out


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_integer_inverse_matches_the_fraction_euclid(depth, data):
    F = data.draw(_inv_tower(depth))
    mps = _fraction_levels(F)
    a = data.draw(_element_reps(F, depth).filter(bool))
    factors = _zero_divisors(mps, depth)
    if factors and data.draw(st.booleans()):  # a multiple of a factor
        a = _fraction_mul(mps, a, data.draw(st.sampled_from(factors)), depth)
    if not a:  # a multiple of the cofactor too
        with pytest.raises(ZeroDivisionError):
            _rinv(F, _rep(a, depth), depth)
        return
    try:
        want = _fraction_inv(mps, a, depth)
    except SplitEvent as ev:
        with pytest.raises(SplitEvent) as got:
            _rinv(F, _rep(a, depth), depth)
        # the event carries the integer form of the same monic factor
        factor = _rep(ev.factor_rep, ev.level + 1)[0]
        assert (got.value.level, got.value.factor_rep) == (ev.level, factor)
        return
    assert _rinv(F, _rep(a, depth), depth) == _rep(want, depth)
    assert _rmul(F, _rep(a, depth), _rep(want, depth), depth) == _rep(_fconst(1, depth), depth)


def test_integer_inverse_splits_like_the_fraction_euclid():
    F = _field(("a", _fr(6, 0, -5, 0, 1)))  # (a^2 - 2)(a^2 - 3)
    for a, factor in [(_fr(-2, 0, 1), (-2, 0, 1)), (_fr(3, 0, -1), (-3, 0, 1)),
                      (_fr(-6, 0, 3), (-2, 0, 1)), (_fr(0, -2, 0, 1), (-2, 0, 1))]:
        with pytest.raises(SplitEvent) as ev:
            _rinv(F, _rep(a, 1), 1)
        assert (ev.value.level, ev.value.factor_rep) == (0, factor)


_OPS = st.sampled_from(["+", "-", "*", "/", "scale", "at_gens", "transfer"])


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_reps_stay_canonical_along_chains_of_operations(depth, data):
    # every result is the canonical rep of the Fraction oracle's value, so
    # == and hash agree with the oracle's equality
    F = data.draw(_inv_tower(depth))
    mps = _fraction_levels(F)
    x = data.draw(_element_reps(F, depth))
    e = NFElement(F, _rep(x, depth))
    for op in data.draw(st.lists(_OPS, min_size=1, max_size=6)):
        y = data.draw(_element_reps(F, depth))
        o = NFElement(F, _rep(y, depth))
        try:
            if op == "+":
                e, x = e + o, _fadd(x, y, depth)
            elif op == "-":
                e, x = e - o, _fadd(x, y, depth, -1)
            elif op == "*":
                e, x = e * o, _fraction_mul(mps, x, y, depth)
            elif op == "/" and y:
                x = _fraction_mul(mps, x, _fraction_inv(mps, y, depth), depth)
                e = e / o
            elif op == "scale":
                k = data.draw(_kcoeff)
                e, x = k * e, _fraction_mul(mps, x, _fconst(k, depth), depth)
            elif op == "at_gens":
                grid = data.draw(_grids(F, depth))
                e, x = F.at_gens(grid), _fraction_reduce(mps, grid, depth)
            elif op == "transfer" and mps[0] in _SPLIT0:
                factor = data.draw(st.sampled_from(_SPLIT0[mps[0]]))
                branch = data.draw(st.sampled_from(F.split_level(0, _rep(factor, 1)[0])))
                e, F = F.transfer(e, branch), branch
                new = _fraction_levels(F)
                if depth == 2:  # the branch re-reduced the top level's coefficients
                    assert new[1] == _ftrim([_fraction_mod(new, c, 1) for c in mps[1]], 2)
                mps = new
                x = _fraction_reduce(mps, x, depth)
                o = NFElement(F, _rep(_fraction_reduce(mps, y, depth), depth))
                y = _frac(o.rep, depth)
        except SplitEvent:
            continue
        assert _is_canonical(e.rep, depth) and e.field == F
        assert _frac(e.rep, depth) == x
        twin = NFElement(F, _rep(x, depth))
        assert e == twin and hash(e) == hash(twin)
        assert (e == o) == (x == y)


def test_sign_refinement_that_never_converges_is_an_internal_error(monkeypatch):
    from curveclass import numfield

    F = sqrt2_field()
    e = F.gen(0) - 1  # nonzero on the whole tower
    emb = RealEmbedding(F, [(1, 2)])
    rounds = []
    monkeypatch.setattr(numfield, "_zival_sign", lambda e, emb: 0)
    monkeypatch.setattr(RealEmbedding, "refine", lambda self, k: rounds.append(k))
    with pytest.raises(InternalError) as exc:
        nf_sign(e, emb)
    assert exc.value.code == 10
    assert len(rounds) == numfield._BISECT_CAP + 4096


# -- tower points by reduction, against Horner at the generators -----------
# specialize_x and specialize_to_t stay generic, so at a tower's generators
# they are still the Horner route that the reduction replaced
from curveclass.curves import specialize_x  # noqa: E402
from test_bipoly import y_rows  # noqa: E402
from curveclass.functions import _value_at  # noqa: E402
from curveclass.mpoly import MPoly, specialize_to_t, var_index  # noqa: E402


def _t_coefficients(p):
    """Reference: the coefficients in x, y of p(x, y, t), lowest power of t
    first, as MPolys."""
    ti = var_index("t")
    out = [{} for _ in range(max(p.degree_in("t"), 0) + 1)]
    for e, c in p.terms.items():
        out[e[ti]][e[:ti] + (0,) + e[ti + 1:]] = c
    return [MPoly(terms) for terms in out]


@st.composite
def _xyt_poly(draw, with_t):
    """A sparse polynomial in x, y (and t) with small rational coefficients,
    degrees above the level degrees so that the reduction has work to do."""
    exps = st.tuples(st.integers(0, 2 if with_t else 0), st.integers(0, 7), st.integers(0, 4))
    terms = {}
    for (k, i, j), c in draw(st.lists(st.tuples(exps, _kcoeff), max_size=12)):
        e = [0] * 4
        e[var_index("t")], e[var_index("x")], e[var_index("y")] = k, i, j
        terms[tuple(e)] = c
    return MPoly(terms)


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_tower_points_by_reduction_match_horner(depth, data):
    F = data.draw(_inv_tower(depth))
    if depth == 1:
        p = data.draw(_xyt_poly(False))
        want = specialize_x(p, F.gen(0))
        got = UPoly("y", [F.at_gens(row.coeffs) for row in y_rows(p)])
        assert [c.rep for c in got.coeffs] == [c.rep for c in want.coeffs]
        return
    p = data.draw(_xyt_poly(True))
    want = specialize_to_t(p, F.gen(0), F.gen(1))
    got = [_value_at(c, F) for c in _t_coefficients(p)]
    assert [c.rep for c in got] == [c.rep for c in want]
    assert all(c.field == F for c in got)


def test_tower_point_of_a_degree_one_level_is_an_evaluation():
    base = field_from_qpoly("x", UPoly("x", [Fraction(-3, 2), Fraction(1)]))  # x = 3/2
    F = extend_field(base, "y", [base.from_fraction(-2), base.zero(), base.one()])  # y^2 = 2
    p = MPoly({(0, 0, 2, 1): Fraction(1), (0, 0, 1, 0): Fraction(1, 3)})  # x^2 y + x/3
    assert _value_at(p, F).rep == (((2,), (9,)), 4)  # 1/2 + 9/4 y
    assert _value_at(p, F) == specialize_to_t(p, F.gen(0), F.gen(1))[0]
    R = rational_point_field("x", "y", Fraction(3, 2), Fraction(-5))
    assert _value_at(p, R).as_fraction() == Fraction(9, 4) * -5 + Fraction(1, 2)
    assert _value_at(p, R).rep == specialize_to_t(p, R.gen(0), R.gen(1))[0].rep


# -- the graph basis held as kernel rows, against the rational route -------
from test_curves import _bench_functions  # noqa: E402
from curveclass.functions import fiber_table, graph_ideal  # noqa: E402


def _rational_grids(g):
    """Reference for GroebnerBasis.t_grids: per t-coefficient of g, its
    rational rows over y of coefficients along x."""
    return [[list(row.coeffs) for row in y_rows(c)] for c in _t_coefficients(g)]


def _fibers(table):
    return [(rep.point.field, rep.fiber_sf, rep.real_root_counts) for rep in table]


@pytest.mark.parametrize("workload", ["fuzz-shared", "tower-split"])
def test_kernel_grids_scale_the_rational_grids_and_give_the_same_fibers(workload):
    for f, g in zip(_bench_functions(workload, 40), _bench_functions(workload, 40)):
        gb = f.graph_gb()
        assert len(gb.t_grids()) == len(gb.basis)
        for grids, lc, elem in zip(gb.t_grids(), gb.kernel.lcs, gb.basis):
            assert lc > 0 and all(type(c) is int for grid in grids for row in grid for c in row)
            assert grids == [[[lc * c for c in row] for row in grid]
                             for grid in _rational_grids(elem)]
        # the reference route: g's own basis read through the rational grids
        # of its monic elements
        rational = graph_ideal(g)
        rational._grids = [_rational_grids(elem) for elem in rational.basis]
        g._graph_gb = rational
        assert _fibers(fiber_table(f)) == _fibers(fiber_table(g))
