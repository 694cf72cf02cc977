import random
from fractions import Fraction

import pytest

from curveclass.errors import DegenerateInputError, PreconditionError
from curveclass.unipoly import (
    UPoly,
    count_distinct_complex_roots,
    isolate_real_roots,
    nonzero_gcd,
    rational_roots,
    refine_interval,
    sign_at,
    squarefree_part,
    sturm_count,
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
    iv = refine_interval(p, iv, Fraction(1, 10**9))
    assert iv.width() <= Fraction(1, 10**9)
    assert Fraction(14, 10) < iv.mid() < Fraction(15, 10)
    assert sign_at(p, iv.low) < 0 < sign_at(p, iv.high)


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
