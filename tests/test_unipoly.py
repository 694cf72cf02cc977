import random
from fractions import Fraction

import pytest

from curveclass._zpoly import zrefine, zsign_at, zsquarefree
from curveclass.errors import DegenerateInputError, PreconditionError
from curveclass.unipoly import (
    IsolatingInterval,
    UPoly,
    count_distinct_complex_roots,
    isolate_real_roots,
    nonzero_gcd,
    rational_roots,
    remainder_sequence,
    squarefree_part,
    sturm_count,
    to_zpoly,
    upoly_gcd,
)

T = lambda *cs: UPoly.from_ints("t", cs)  # noqa: E731  (low degree first)
X = lambda *cs: UPoly.from_ints("x", cs)  # noqa: E731


def test_gcd_shared_linear_factor():
    assert upoly_gcd(T(-1, 0, 1), T(-1, 1)) == T(-1, 1)


def test_gcd_coprime():
    assert upoly_gcd(T(1, 0, 1), T(0, 1)) == T(1)


def test_gcd_derived_oracle_rational_root_factorizations():
    # t^3 - t = t(t-1)(t+1); t^2 - 2t + 1 = (t-1)^2; shared factor multiset: {t-1}
    a, b = T(0, -1, 0, 1), T(1, -2, 1)
    fa = {r for r in rational_roots(a)}
    fb = {r for r in rational_roots(b)}
    shared = fa & fb
    assert shared == {Fraction(1)}
    expected = T(-1, 1)  # product of (t - r) over the shared multiset
    assert upoly_gcd(a, b) == expected


def test_gcd_divides_both_inputs_exactly():
    rng = random.Random(1)
    for _ in range(50):
        a = T(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        b = T(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        if a.is_zero() and b.is_zero():
            continue
        g = upoly_gcd(a, b)
        for p in (a, b):
            if not p.is_zero():
                q, r = p.divmod(g)
                assert r.is_zero()
        # any common divisor divides g: check with the smaller of a, b when it
        # happens to divide both
        assert g.lc() == 1


def test_gcd_both_zero_rejected():
    with pytest.raises(DegenerateInputError):
        upoly_gcd(T(), T())


def test_squarefree_double_root():
    assert squarefree_part(T(0, 0, 1)) == T(0, 1)


def test_squarefree_derived_oracle():
    # (t-1)^2 (t+2) = t^3 - 3t + 2 -> t^2 + t - 2; oracle: gcd with derivative
    a = T(2, -3, 0, 1)
    d = a.derivative()
    g = upoly_gcd(a, d)
    q, r = a.divmod(g)
    assert r.is_zero()
    assert squarefree_part(a) == q.monic() == T(-2, 1, 1)


def test_squarefree_idempotent_fuzz():
    rng = random.Random(9)
    for _ in range(40):
        a = T(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 8))])
        if a.is_zero():
            continue
        s = squarefree_part(a)
        assert squarefree_part(s) == s


def test_count_distinct_complex_roots():
    assert count_distinct_complex_roots(T(0, 0, 1)) == 1  # t^2 at the cusp fiber
    assert count_distinct_complex_roots(T(0, 1, 0, 1)) == 3  # t^3 + t
    assert count_distinct_complex_roots(T(-2, 0, 1)) == 2


def test_sturm_counts_spec_examples():
    assert sturm_count(T(1, 0, 1)) == 0
    assert sturm_count(T(-2, 0, 1)) == 2
    assert sturm_count(T(0, -1, 1), Fraction(-1, 2), 2) == 2  # roots {0, 1}


def test_sturm_rejects_non_squarefree():
    with pytest.raises(PreconditionError):
        sturm_count(T(0, 0, 1))


def test_sturm_open_interval_excludes_root_endpoints():
    p = T(0, -1, 1)  # roots 0, 1
    assert sturm_count(p, 0, 1) == 0
    assert sturm_count(p, 0, 2) == 1
    assert sturm_count(p, -1, 1) == 1


def test_isolation_spec_examples():
    # x(x^2+1): one interval around 0
    ivals = isolate_real_roots(X(0, 1, 0, 1))
    assert len(ivals) == 1 and ivals[0].low < 0 < ivals[0].high
    assert isolate_real_roots(X(4, 0, 1)) == []
    ivals = isolate_real_roots(X(0, -1, 1))
    assert len(ivals) == 2
    assert ivals[0].low < 0 < ivals[0].high < 1
    assert ivals[0].high <= ivals[1].low < 1 < ivals[1].high


def test_isolation_interval_count_matches_sturm():
    rng = random.Random(31)
    for _ in range(30):
        a = X(*[rng.randint(-6, 6) for _ in range(rng.randint(2, 9))])
        if a.is_zero():
            continue
        sf = squarefree_part(a)
        if sf.degree == 0:
            continue
        ivals = isolate_real_roots(a)
        assert len(ivals) == sturm_count(sf)
        for iv in ivals:
            assert sturm_count(sf, iv.low, iv.high) == 1


def test_conjugation_parity_invariant():
    rng = random.Random(17)
    for _ in range(40):
        a = X(*[rng.randint(-6, 6) for _ in range(rng.randint(2, 9))])
        if a.is_zero():
            continue
        sf = squarefree_part(a)
        if sf.degree == 0:
            continue
        assert (count_distinct_complex_roots(a) - sturm_count(sf)) % 2 == 0


def test_refine_and_sign():
    p = X(-2, 0, 1)
    iv = [i for i in isolate_real_roots(p) if i.high > 0][-1]
    z = to_zpoly(p)[0]
    iv = IsolatingInterval(*zrefine(zsquarefree(z), iv.low, iv.high, Fraction(1, 10**9)))
    assert iv.width() <= Fraction(1, 10**9)
    assert Fraction(14, 10) < iv.mid() < Fraction(15, 10)
    assert zsign_at(z, iv.low) < 0 < zsign_at(z, iv.high)


def test_a_scalar_adds_and_subtracts_as_a_constant_polynomial():
    p = T(1, 2, 3)
    assert p + Fraction(1, 2) == UPoly("t", [Fraction(3, 2), 2, 3])
    assert p - 1 == T(0, 2, 3) and T(1) - 1 == T() and T() + 0 == T()


def test_nonzero_gcd_of_only_zeros_is_none():
    assert nonzero_gcd([T(), T()]) is None
    assert nonzero_gcd(iter(())) is None


def test_nonzero_gcd_returns_a_single_nonzero_input_as_is():
    p = T(2, 4)  # not monic: it must not be made monic
    assert nonzero_gcd([T(), p, T()]) is p


def test_nonzero_gcd_stops_consuming_at_the_first_constant_gcd():
    yielded = []

    def polys():
        for p in (T(), T(-1, 0, 1), T(1, 1), T(-1, 1), T(0, 1)):
            yielded.append(p)
            yield p

    g = nonzero_gcd(polys())
    assert g.degree == 0
    assert yielded == [T(), T(-1, 0, 1), T(1, 1), T(-1, 1)]  # t is never produced


def test_sturm_count_deflates_an_endpoint_root_with_a_denominator():
    # (2x - 1)(x^2 - 2): the endpoint 1/2 is a root and is divided out in Z[x]
    p = X(2, -4, -1, 2)
    half = Fraction(1, 2)
    assert sturm_count(p, half, 2) == 1
    assert sturm_count(p, Fraction(-3, 2), half) == 1
    assert sturm_count(p, None, half) == 1


def test_zero_polynomial_is_a_degenerate_input_for_every_root_query():
    for query in (rational_roots, isolate_real_roots, sturm_count, squarefree_part):
        with pytest.raises(DegenerateInputError):
            query(T())


# -- rational squarefree parts on the integer kernel, against the Euclid ----
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curveclass.numfield import extend_field, field_from_qpoly  # noqa: E402


def _monic_euclid_gcd(a, b):
    """The monic Euclid, the reference for the order in which a tower gcd
    meets zero divisors: every divisor is made monic before it divides, so
    each lead is inverted once, in order, and no division inverts anything."""
    while b:
        b = b.monic()
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _reference_squarefree_part(a):
    """The generic Euclid route, which squarefree_part keeps for tower
    polynomials: a / gcd(a, a'), the gcd by monic remainders over the
    coefficient field."""
    if a.degree == 0:
        return a.monic()
    g = _monic_euclid_gcd(a, a.derivative())
    if g.degree == 0:
        return a.monic()
    q, r = a.divmod(g)
    assert not r
    return q.monic()


def _tower(depth):
    """Q(a), a^3 = 3, and Q(a)(b), b^2 = a + 1."""
    base = field_from_qpoly("a", X(-3, 0, 0, 1))
    if depth == 1:
        return base
    return extend_field(base, "b", [-base.gen(0) - 1, base.zero(), base.one()])


@st.composite
def _rational_products(draw):
    """A nonzero rational constant times 0-4 random factors of degree 0-2,
    each to a power 1-3: repeated roots, zero coefficients and degree 0."""
    num = draw(st.integers(-5, 5).filter(bool))
    a = UPoly("t", [Fraction(num, draw(st.integers(1, 4)))])
    for _ in range(draw(st.integers(0, 4))):
        low = draw(st.lists(st.integers(-3, 3), max_size=2))
        lead = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        a = a * T(*low, lead) ** draw(st.integers(1, 3))
    return a


@settings(deadline=None, max_examples=150)
@given(a=_rational_products(), depth=st.sampled_from([0, 1, 2]))
def test_rational_squarefree_parts_match_the_euclid_route(a, depth):
    if depth:
        field = _tower(depth)
        a = UPoly("t", [field.from_fraction(c) for c in a.coeffs])
    got, want = squarefree_part(a), _reference_squarefree_part(a)
    assert got.var == want.var
    if depth:
        assert [c.rep for c in got.coeffs] == [c.rep for c in want.coeffs]
        assert all(c.field == field for c in got.coeffs)
    else:
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)


def test_squarefree_part_of_a_zero_tower_polynomial_is_rejected():
    field = _tower(2)
    with pytest.raises(DegenerateInputError):
        squarefree_part(UPoly("t", [field.zero(), field.zero()]))


def test_only_irrational_coefficients_take_the_tower_euclid(monkeypatch):
    from curveclass import unipoly

    field = _tower(1)
    a = field.gen(0)
    calls = []
    sequence = unipoly.remainder_sequence
    monkeypatch.setattr(unipoly, "remainder_sequence",
                        lambda p, *args: calls.append(p) or sequence(p, *args))
    one, two = field.one(), field.from_fraction(2)
    # (t + 1)^2 with tower coefficients: the integer kernel, no Euclid
    assert squarefree_part(UPoly("t", [one, two, one])) == UPoly("t", [one, one])
    assert calls == []
    # (t + a)^2: the Euclid over the tower
    assert squarefree_part(UPoly("t", [a * a, 2 * a, one])) == UPoly("t", [a, one])
    assert len(calls) == 1


@pytest.mark.parametrize("query", [
    sturm_count,
    isolate_real_roots,
    rational_roots,
], ids=["sturm_count", "isolate_real_roots", "rational_roots"])
def test_rational_root_functions_refuse_zero_and_tower_polynomials(query):
    # the library's errors, not AttributeError or ValueError from the kernel
    with pytest.raises(DegenerateInputError):
        query(UPoly("x", []))
    sqrt2 = field_from_qpoly("a", X(-2, 0, 1))
    with pytest.raises(PreconditionError):
        query(UPoly("y", [sqrt2.gen(0), sqrt2.one()]))


def test_monic_and_division_keep_int_coefficients_exact():
    # 1 / lc would make floats of these (0.5, 1.0)
    p = UPoly("x", [2, 4]).monic()
    assert p.coeffs == (Fraction(1, 2), 1) and all(type(c) is Fraction for c in p.coeffs)
    q, r = UPoly("x", [1, 2, 3]).divmod(UPoly("x", [1, 2]))
    assert q.coeffs == (Fraction(1, 4), Fraction(3, 2)) and r.coeffs == (Fraction(3, 4),)
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


# -- one remainder sequence over towers, against the monic Euclid ----------
from curveclass.numfield import NFElement, SplitEvent, _join, _split  # noqa: E402


def _monic_extended_inverse(e):
    """The reference for the depth-2 inverse: the extended Euclid against
    the level polynomial, every remainder made monic before it divides."""
    F = e.field
    base, var = F.sub_field(1), F.var(1)
    r0, s0 = F.minpoly(1), UPoly(var, [])
    r1, s1 = UPoly(var, [NFElement(base, c) for c in _split(*e.rep)]), UPoly(var, [base.one()])
    while True:
        if not r1:
            raise SplitEvent(1, _join([c.rep for c in r0.coeffs])[0])
        lc_inv = r1.lc().inverse()
        if r1.degree == 0:
            return NFElement(F, _join([c.rep for c in (s1 * lc_inv).coeffs]))
        r1, s1 = r1 * lc_inv, s1 * lc_inv
        q, rem = r0.divmod(r1)
        r0, s0, r1, s1 = r1, s1, rem, s0 - q * s1


def _monic_nonzero_gcd(polys):
    g = None
    for u in polys:
        if u:
            g = u if g is None else _monic_euclid_gcd(g, u)
            if g.degree == 0:
                break
    return g


def _outcome(fn, *args):
    """fn(*args) as data: ("split", level, factor_rep) when it raises
    SplitEvent, else the reps of the UPoly or tower element it returns."""
    try:
        got = fn(*args)
    except SplitEvent as ev:
        return "split", ev.level, ev.factor_rep
    if isinstance(got, UPoly):
        return got.var, [c.rep for c in got.coeffs]
    return got.rep


@st.composite
def _tower_element(draw, F):
    """A small element of F, often a multiple of a - r for a root r of a
    reducible level 0, so that it is a zero divisor."""
    d0 = F.level_degree(0)
    row = lambda: draw(st.lists(st.integers(-2, 2), max_size=d0))  # noqa: E731
    e = F.at_gens(row() if F.depth == 1 else [row() for _ in range(F.level_degree(1))])
    if draw(st.booleans()):
        e = e * (F.gen(0) - draw(st.integers(-3, 3)))
    return e


@st.composite
def _split_tower(draw, depth):
    """Q[a]/(m1) with m1 a product of 2-3 distinct linear factors; at depth 2
    extended by extend_field with m2 a product of 1-2 factors b - c - k over
    the base (k distinct integers, so m2 is squarefree) or a random monic
    quadratic."""
    m1 = X(1)
    for r in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=3, unique=True)):
        m1 = m1 * X(-r, 1)
    base = field_from_qpoly("a", m1)
    if depth == 1:
        return base
    if draw(st.booleans()):
        return extend_field(base, "b", [draw(_tower_element(base)), draw(_tower_element(base)),
                                        base.one()])
    c, m2 = draw(_tower_element(base)), UPoly("b", [base.one()])
    for k in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True)):
        m2 = m2 * UPoly("b", [-c - k, base.one()])
    return extend_field(base, "b", list(m2.coeffs))


@st.composite
def _tower_poly(draw, F, max_degree=2):
    return UPoly("t", draw(st.lists(_tower_element(F), max_size=max_degree + 1)))


@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_tower_remainder_sequences_split_like_the_monic_euclid(depth, data):
    # the same result, or a SplitEvent on the same factor of the same level:
    # every zero divisor is met in the order the monic Euclid meets it
    F = data.draw(_split_tower(depth))
    f, g, h = (data.draw(_tower_poly(F)) for _ in range(3))
    a, b = f * g, f * h
    if a or b:
        for p, q in ((a, b), (b, a)):
            assert _outcome(upoly_gcd, p, q) == _outcome(_monic_euclid_gcd, p, q)
    for p in (a, b * h):
        if p:
            assert _outcome(squarefree_part, p) == _outcome(_reference_squarefree_part, p)
    polys = [a, g * h, b]
    if any(polys):  # nonzero_gcd's gcd is one up to a unit
        assert (_outcome(lambda ps: nonzero_gcd(ps).monic(), polys)
                == _outcome(lambda ps: _monic_nonzero_gcd(ps).monic(), polys))
    if depth == 2:
        e = data.draw(_tower_element(F).filter(bool))
        assert _outcome(NFElement.inverse, e) == _outcome(_monic_extended_inverse, e)


def test_a_gcd_splits_on_the_lead_of_its_second_argument_first():
    # m1 = (x - 1)(x - 2)(x - 3), deg a < deg b: the monic Euclid inverts
    # lc(b) = alpha - 2 before lc(a) = alpha - 1, so the split is on x - 2
    F = field_from_qpoly("x", X(-6, 11, -6, 1))
    alpha, one = F.gen(0), F.one()
    a = UPoly("y", [one, alpha - 1])
    b = UPoly("y", [one, one, alpha - 2])
    for gcd in (upoly_gcd, _monic_euclid_gcd):
        assert _outcome(gcd, a, b) == ("split", 0, (-2, 1))


def test_a_depth_2_gcd_inverts_the_leads_the_monic_euclid_inverts():
    # m1 = a(a - 1), m2 = b^2 - 1, gcd(t + a, b t^2 + 1).  The monic Euclid
    # inverts b, 1, then a + b (t^2 + b mod t + a), whose inverse over the
    # base meets a - 1.  The sequence's own third member is -(a b + 1) =
    # -b (a + b), whose inverse meets a first: at depth 2 a unit multiple
    # can split elsewhere, so a gcd inverts the monic Euclid's leads and
    # only a Sturm chain inverts the members' own
    base = field_from_qpoly("a", X(0, -1, 1))
    F = extend_field(base, "b", [-base.one(), base.zero(), base.one()])
    p = UPoly("t", [F.gen(0), F.one()])
    q = UPoly("t", [F.one(), F.zero(), F.gen(1)])
    for gcd in (upoly_gcd, _monic_euclid_gcd):
        assert _outcome(gcd, p, q) == ("split", 0, (-1, 1))
    assert _outcome(remainder_sequence, p, q) == ("split", 0, (0, 1))
