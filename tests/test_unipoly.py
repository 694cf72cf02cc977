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


def _reference_squarefree_part(a):
    """The generic Euclid route, which squarefree_part keeps for tower
    polynomials: a / gcd(a, a'), the gcd by monic remainders over the
    coefficient field."""
    if a.degree == 0:
        return a.monic()
    g, b = a, a.derivative()
    while b:
        b = b.monic()
        g, b = b, g.divmod(b)[1]
    g = g.monic()
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
    gcd = unipoly.upoly_gcd
    monkeypatch.setattr(unipoly, "upoly_gcd", lambda p, q: calls.append(p) or gcd(p, q))
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
