import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass._zpoly import (
    sturm_chain,
    sturm_count,
    sturm_members,
    zall_real_simple,
    zdeg,
    zdivexact,
    zgcd,
    zisolate,
    zmul,
    zprimitive,
    zrational_roots,
    zrefine,
    zsign_at,
    zsquarefree,
    zyun,
)


def poly_from_roots(roots):
    p = [1]
    for r in roots:
        p = zmul(p, [-r, 1])
    return p


def test_mul_matches_schoolbook_on_random_inputs():
    rng = random.Random(7)
    for _ in range(60):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 50))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 50))]
        ref = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                ref[i + j] += ca * cb
        while ref and ref[-1] == 0:
            ref.pop()
        assert zmul(a, b) == ref


def test_divexact_roundtrip_large_coefficients():
    rng = random.Random(11)
    for _ in range(30):
        b = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 40))]
        q = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))]
        if not b[-1]:
            b[-1] = 1
        if not q or not q[-1]:
            q = q + [3]
        a = zmul(b, q)
        assert zdivexact(a, b, quot_bits=64) == q
        assert zdivexact(a, b) == q


def test_gcd_divides_both_and_is_maximal():
    rng = random.Random(3)
    for _ in range(40):
        g = poly_from_roots([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        a = zmul(g, poly_from_roots([rng.randint(5, 9)]))
        b = zmul(g, [7, 0, 1])  # x^2 + 7, coprime to the cofactor of a
        got = zgcd(a, b)
        assert zdivexact(a, got) is not None
        assert zdivexact(b, got) is not None
        assert got == zprimitive(g) or len(got) >= len(g)


def test_gcd_large_degree_verified_path():
    rng = random.Random(5)
    g = [rng.randint(-50, 50) for _ in range(60)] + [1]
    u = [rng.randint(-50, 50) for _ in range(80)] + [1]
    v = [rng.randint(-50, 50) for _ in range(70)] + [1]
    a, b = zmul(g, u), zmul(g, v)
    got = zgcd(a, b)
    # u, v random of high degree: overwhelmingly coprime, so gcd == g
    assert zdivexact(zmul(g, [rng.randint(1, 5)]), got, quot_bits=16) is not None
    assert zdivexact(a, got) is not None and zdivexact(b, got) is not None
    assert len(got) == len(g)


def test_squarefree_collapses_multiplicities():
    # (x-1)^2 (x+2) -> (x-1)(x+2) = x^2 + x - 2
    a = zmul(zmul([-1, 1], [-1, 1]), [2, 1])
    assert zsquarefree(a) == [-2, 1, 1]
    # idempotent
    assert zsquarefree(zsquarefree(a)) == zsquarefree(a)


def test_yun_decomposition():
    # x^2 * (x-1)^3 * (x^2+1)
    a = zmul(zmul([0, 0, 1], poly_from_roots([1, 1, 1])), [1, 0, 1])
    got = dict(zyun(a))
    assert got[1] == [1, 0, 1]
    assert got[2] == [0, 1]
    assert got[3] == [-1, 1]
    # product of factor^mult rebuilds a up to sign/content
    rebuilt = [1]
    for m, f in got.items():
        for _ in range(m):
            rebuilt = zmul(rebuilt, f)
    assert zprimitive(rebuilt) == zprimitive(a)


def test_sturm_counts():
    chain = sturm_chain([1, 0, 1])  # y^2 + 1
    assert sturm_count(chain) == 0
    chain = sturm_chain([-2, 0, 1])  # x^2 - 2
    assert sturm_count(chain) == 2
    chain = sturm_chain([0, -1, 1])  # x^2 - x, roots {0, 1}
    assert sturm_count(chain, Fraction(-1, 2), Fraction(2)) == 2
    assert sturm_count(chain, Fraction(1, 2), Fraction(2)) == 1


@st.composite
def _real_simple_case(draw):
    """A nonzero integer polynomial of degree 1-8: either random
    coefficients, many of them zero, or a product of integer roots (some
    repeated) and a random factor; sometimes one of degree 1-4 taken at
    y^2, so that it is even; its lead is sometimes negative."""
    even = draw(st.booleans())
    top = 4 if even else 8
    if draw(st.booleans()):
        n = draw(st.integers(1, top))
        a = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]), min_size=n, max_size=n))
        a.append(draw(st.sampled_from([1, 2, 3])))
    else:
        roots = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=min(6, top)))
        rest = draw(st.lists(st.integers(-3, 3), max_size=top - len(roots)))
        a = zmul(poly_from_roots(roots), rest + [1])
    if even:
        a = [v for c in a for v in (c, 0)][:-1]
    return [-c for c in a] if draw(st.booleans()) else a


@settings(deadline=None, max_examples=300)
@given(_real_simple_case())
def test_early_exit_all_real_matches_the_full_chain(a):
    chain = sturm_chain(zprimitive(a))
    squarefree = zdeg(chain[-1]) == 0
    assert zall_real_simple(a) == (squarefree and sturm_count(chain) == zdeg(a))


def test_early_exit_all_real_on_named_cases():
    assert zall_real_simple([-6, 11, -6, 1])  # (y - 1)(y - 2)(y - 3)
    assert zall_real_simple([6, -11, 6, -1])  # the same, lead negative
    assert not zall_real_simple([1, 0, 1])  # y^2 + 1
    assert not zall_real_simple([0, 0, 1])  # y^2, a double root
    assert zall_real_simple([2, 0, -3, 0, 1])  # (y^2 - 1)(y^2 - 2), even
    assert not zall_real_simple([-3, 0, 0, 0, 1])  # y^4 - 3: two real roots of four
    assert zall_real_simple([7])  # degree 0: no roots, all of them real
    assert zall_real_simple([4, 0, -5, 0, 1])  # (y^2 - 1)(y^2 - 4)
    assert not zall_real_simple([-4, 0, -3, 0, 1])  # (y^2 + 1)(y^2 - 4)
    assert not zall_real_simple([0, 0, -1, 0, 1])  # y^2 (y^2 - 1): 0 is double


@settings(deadline=None, max_examples=100)
@given(_real_simple_case())
def test_sturm_chain_lists_its_members(a):
    a = zprimitive(zsquarefree(a))
    assert sturm_chain(a) == list(sturm_members(a))


def test_isolation_counts_and_certifies():
    rng = random.Random(23)
    for _ in range(40):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(0, 5)))
        extra_pairs = rng.randint(0, 2)
        p = poly_from_roots(roots)
        for _ in range(extra_pairs):
            u, v = rng.randint(-3, 3), rng.randint(1, 3)
            p = zmul(p, [u * u + v * v, -2 * u, 1])  # conjugate pair, no real root
        ivals = zisolate(p)
        assert len(ivals) == len(roots)
        for (lo, hi), r in zip(ivals, roots):
            assert lo < r < hi
            chain = sturm_chain(zsquarefree(p))
            assert sturm_count(chain, lo, hi) == 1
        # pairwise disjoint and ascending
        for (a1, b1), (a2, b2) in zip(ivals, ivals[1:]):
            assert b1 <= a2


def test_isolation_evaluates_each_chain_polynomial_once_per_point(monkeypatch):
    # roots -2, 0, 1, 3 need bisections, and the first midpoint 0 is a root;
    # each bisection's left endpoint was an earlier midpoint or the bound
    import curveclass._zpoly as zp

    seen = []
    sign_at = zp.zsign_at

    def recording(a, x):
        seen.append((tuple(a), x))
        return sign_at(a, x)

    monkeypatch.setattr(zp, "zsign_at", recording)
    assert len(zisolate(zmul(poly_from_roots([-2, 0, 1, 3]), [1, 0, 1]))) == 4
    assert seen and len(seen) == len(set(seen))


def test_refine_shrinks_and_keeps_root():
    p = [-2, 0, 1]  # sqrt(2)
    (lo, hi) = [iv for iv in zisolate(p) if iv[1] > 0][-1]
    lo, hi = zrefine(p, lo, hi, Fraction(1, 10**6))
    assert hi - lo <= Fraction(1, 10**6)
    assert zsign_at(p, lo) * zsign_at(p, hi) < 0


def test_rational_roots_found_and_verified():
    # roots 0, 3/2, -5 with noise factor x^2+7
    p = zmul(zmul(zmul([0, 1], [-3, 2]), [5, 1]), [7, 0, 1])
    assert zrational_roots(p) == [Fraction(-5), Fraction(0), Fraction(3, 2)]
    assert zrational_roots([1, 0, 1]) == []


_BIG = 2**40
_linear = st.tuples(st.integers(-_BIG, _BIG), st.integers(1, _BIG))  # (n, d): d*x - n
_irrational = st.one_of(st.integers(1, 50).map(lambda c: [c, 0, 1]), st.just([-2, 0, 1]))


@settings(deadline=None)
@given(st.lists(_linear, min_size=1, max_size=4), _irrational)
def test_rational_roots_are_complete_for_large_denominators(linears, quadratic):
    # Gauss's lemma: every rational root n/d has d | lc, whatever the size of d
    p = quadratic
    for n, d in linears:
        p = zmul(p, [-n, d])
    assert zrational_roots(p) == sorted({Fraction(n, d) for n, d in linears})



from curveclass._zpoly import zadd, zpdivmod, ztrim  # noqa: E402

_zp = st.lists(st.integers(-(2**30), 2**30), max_size=9).map(ztrim)


@settings(deadline=None, max_examples=200)
@given(_zp, _zp.filter(bool))
def test_pseudo_division_identity(a, b):
    # lc(b)**k * a = q * b + r with k = max(deg a - deg b + 1, 0), deg r < deg b
    q, r = zpdivmod(a, b)
    k = max(len(a) - len(b) + 1, 0)
    assert [c * b[-1] ** k for c in a] == zadd(zmul(q, b), r)
    assert len(r) < len(b) and r == ztrim(r)
    assert len(q) == k and (not q or q[-1])


# -- rational roots: p-adic lifting against Sturm isolation and bisection ---
from math import comb, floor, gcd as int_gcd  # noqa: E402

from curveclass._zpoly import _zsigns, zneg, zroot_bound, zsf_rational_roots  # noqa: E402


def _sturm_rational_roots(a):
    """Reference: isolate each real root of the squarefree part sf, refine
    below width 1/(2 lc(sf)) and test the one integer k in (lc lo, lc hi)
    as k / lc."""
    sf = zsquarefree(a)
    if len(sf) == 1:
        return []
    lc = sf[-1]
    signs = _zsigns(sturm_chain(sf))
    roots = []
    for lo, hi in signs.isolate(zroot_bound(sf)):
        lo, hi = signs.refine(lo, hi, Fraction(1, 2 * lc))
        k = floor(lo * lc) + 1
        if k < hi * lc and zsign_at(sf, Fraction(k, lc)) == 0:
            roots.append(Fraction(k, lc))
    return roots


_small_linear = st.tuples(st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 9, 35, 2**20]))
_cofactor = st.one_of(st.just([1]), st.just([-1]), _irrational, st.just([1, 1, 0, 1]))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(_small_linear, st.integers(1, 3)), max_size=5), _cofactor)
def test_padic_rational_roots_match_sturm_bisection(linears, cofactor):
    # repeated linear factors d*x - n times an irreducible cofactor
    p = cofactor
    for (n, d), mult in linears:
        for _ in range(mult):
            p = zmul(p, [-n, d])
    assert zrational_roots(p) == _sturm_rational_roots(p)
    assert zrational_roots(p) == sorted({Fraction(n, d) for (n, d), _ in linears})
    for _, factor in zyun(p):
        assert zsf_rational_roots(factor) == zrational_roots(factor)


def test_padic_rational_roots_when_every_small_prime_divides_lc():
    # lc = 3*5*7*11*13*17: the primes up to 17 are all skipped
    p = zmul(zmul([-2, 3 * 5 * 7], [4, 11 * 13 * 17]), [1, 0, 1])
    assert p[-1] == 3 * 5 * 7 * 11 * 13 * 17
    expected = [Fraction(-4, 2431), Fraction(2, 105)]
    assert zrational_roots(p) == _sturm_rational_roots(p) == expected
    assert zsf_rational_roots(p) == expected


def test_padic_rational_roots_when_small_primes_see_double_roots():
    # x(x - 1)...(x - 29): modulo every prime below 30 two roots collide
    p = poly_from_roots(range(30))
    assert zsf_rational_roots(p) == [Fraction(i) for i in range(30)]
    q = zmul(p, [3, 0, 1])
    assert zrational_roots(q) == _sturm_rational_roots(q) == [Fraction(i) for i in range(30)]


def test_padic_rational_roots_negative_lc_and_low_degrees():
    p = zmul([-1, 2], [-3, 0, -5])  # (2x - 1)(-5x^2 - 3)
    assert p[-1] < 0
    assert zrational_roots(p) == _sturm_rational_roots(p) == [Fraction(1, 2)]
    assert zrational_roots(zneg(zmul([3, -7], [3, -7]))) == [Fraction(3, 7)]
    assert zrational_roots([-4]) == zsf_rational_roots([1]) == []
    assert zrational_roots([6, -4]) == [Fraction(3, 2)]
    assert zsf_rational_roots([3, 2]) == [Fraction(-3, 2)]


# -- gcd cofactors: Yun and the squarefree part without repeated divisions --
from curveclass._zpoly import (  # noqa: E402
    _mignotte_bits,
    _zcofactors,
    _zgcd_parts,
    zderiv,
    zsub,
)


def _squarefree_by_division(a):
    """Reference: a / gcd(a, a') by its own exact division."""
    a = zprimitive(a)
    if len(a) == 1:
        return [1]
    g = zgcd(a, zderiv(a))
    if len(g) == 1:
        return a
    return zprimitive(zdivexact(a, g, quot_bits=_mignotte_bits(a)))


def _yun_by_division(a):
    """Reference: Yun's decomposition dividing a, a', w and z by each gcd
    after computing it."""
    a = zprimitive(a)
    if len(a) <= 1:
        return []
    d = zderiv(a)
    g = zgcd(a, d)
    if len(g) == 1:
        return [(1, a)]
    qb = _mignotte_bits(a)
    w = zdivexact(a, g, quot_bits=qb)
    z = zsub(zdivexact(d, g, quot_bits=qb), zderiv(w))
    out = []
    i = 1
    while len(w) > 1:
        h = zgcd(w, z)
        if len(h) > 1:
            out.append((i, h))
        w = zdivexact(w, h, quot_bits=qb)
        z = zsub(zdivexact(z, h, quot_bits=qb), zderiv(w))
        i += 1
    return out


_zfactor = st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(ztrim).filter(
    lambda f: len(f) >= 2
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(_zfactor, st.integers(1, 4)), max_size=4),
    st.integers(-12, 12).filter(bool),
)
def test_yun_and_squarefree_match_the_division_route(factors, unit):
    # products of powers, up to degree 64: both gcd paths, contents on a'
    a = [unit]
    for f, e in factors:
        for _ in range(e):
            a = zmul(a, f)
    if len(a) < 2:
        return
    assert zyun(a) == _yun_by_division(a)
    assert zsquarefree(a) == _squarefree_by_division(a)


@settings(deadline=None, max_examples=150)
@given(_zfactor, st.lists(_zfactor, max_size=4), st.lists(_zfactor, max_size=4), st.integers(1, 5))
def test_gcd_cofactors_multiply_back_on_both_paths(common, fa, fb, power):
    a, b = [1], [-3]
    for _ in range(power):
        a, b = zmul(a, common), zmul(b, common)
    for f in fa:
        a = zmul(a, f)
    for f in fb:
        b = zmul(b, f)
    pa = zprimitive(a)
    g, qa, qb = _zcofactors(pa, b, _mignotte_bits(max(pa, b, key=len)))
    assert g == zgcd(a, b)
    assert zmul(g, qa) == pa and zmul(g, qb) == b
    g2, qa2, qb2 = _zgcd_parts(pa, zprimitive(b))
    assert g2 == g
    if qa2 is not None:
        assert (qa2, zmul(qb2, [b[-1] // zprimitive(b)[-1]])) == (qa, qb)


def test_gcd_hands_back_cofactors_only_where_it_divided():
    # more than 12 coefficients: the verified path divides, and keeps both
    a = poly_from_roots(range(14))
    b = poly_from_roots(range(7, 20))
    g, qa, qb = _zgcd_parts(a, b)
    assert g == poly_from_roots(range(7, 14))
    assert zmul(g, qa) == a and zmul(g, qb) == b
    # at most 12: a remainder sequence, no quotients unless g = 1
    a, b = poly_from_roots([1, 2, 3]), poly_from_roots([2, 3, 4])
    assert _zgcd_parts(a, b) == (poly_from_roots([2, 3]), None, None)
    assert _zgcd_parts(a, [5, 1]) == ([1], a, [5, 1])
    assert _zgcd_parts(a, []) == (a, [1], [])


def _gcd_by_primitive_prs(a, b):
    """Reference: the primitive remainder sequence the fallback ran before
    it moved onto the subresultant sequence, for primitive a and b."""
    while b:
        a, b = b, zprimitive(zpdivmod(a, b)[1])
    return zprimitive(a)


@settings(deadline=None, max_examples=200)
@given(_zfactor, st.data())
def test_fallback_gcd_matches_the_primitive_prs(common, data):
    # at most 12 coefficients, the fallback's range, around a planted factor
    room = 13 - len(common)
    cofactor = st.lists(st.integers(-9, 9), min_size=1, max_size=room).map(ztrim).filter(bool)
    a = zprimitive(zmul(common, data.draw(cofactor)))
    b = zprimitive(zmul(common, data.draw(cofactor)))
    assert len(a) <= 12 and len(b) <= 12
    assert zgcd(a, b) == _gcd_by_primitive_prs(a, b)


# -- Yun past x^v, the heuristic-gcd point and the Newton filter --
from curveclass._zpoly import _pack, _unpack, zeval_int, zsubresultants  # noqa: E402


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(_zfactor.filter(lambda f: f[0] != 0), st.integers(1, 4)), max_size=3),
    st.integers(1, 9),
    st.integers(-12, 12).filter(bool),
)
def test_yun_splits_off_x_power_like_the_division_route(factors, v, unit):
    # x**v times factors prime to x: v merges into a class of the others
    # or stands alone, below, between or above them
    a = [0] * v + [unit]
    for f, e in factors:
        for _ in range(e):
            a = zmul(a, f)
    assert zyun(a) == _yun_by_division(a)


def test_yun_x_power_named_cases():
    x = [0, 1]
    p, q = [-2, 0, 1], [3, 1]  # x^2 - 2, x + 3
    for v, others, want in [
        (3, [], [(3, x)]),  # x^3 alone
        (2, [(p, 2)], [(2, zmul(x, p))]),  # v equals the other class: one merged class
        (2, [(p, 1), (q, 2)], [(1, p), (2, zmul(x, q))]),
        (12, [(p, 1), (q, 3)], [(1, p), (3, q), (12, x)]),  # v above every other
        (1, [(q, 4)], [(1, x), (4, q)]),  # v below every other
        (2, [(p, 1), (q, 3)], [(1, p), (2, x), (3, q)]),  # v between two classes
    ]:
        a = [0] * v + [-5]
        for f, e in others:
            for _ in range(e):
                a = zmul(a, f)
        assert zyun(a) == want == _yun_by_division(a)


def _gcd_by_subresultants(a, b):
    """Reference: the last nonzero member of the subresultant sequence."""
    chain = zsubresultants(a, b)
    return [1] if chain[-1][0] else zprimitive(chain[-2][0])


def _x_minus_1(n):
    return [-1] + [0] * (n - 1) + [1]


def _cyclotomic_105():
    """Phi_105 by Moebius: (x^105 - 1)(x^3 - 1)(x^5 - 1)(x^7 - 1) over
    (x^35 - 1)(x^21 - 1)(x^15 - 1)(x - 1); it has a coefficient -2."""
    num, den = [1], [1]
    for n in (105, 3, 5, 7):
        num = zmul(num, _x_minus_1(n))
    for n in (35, 21, 15, 1):
        den = zmul(den, _x_minus_1(n))
    return zdivexact(num, den)


def test_heuristic_gcd_point_falls_back_when_it_must():
    phi = _cyclotomic_105()
    assert min(phi) == -2
    a = _x_minus_1(105)
    # Phi_105 divides x^105 - 1, whose coefficients are all +-1: the small
    # point xi = 4 (2 * 1 + 2) reconstructs it at once
    g, qa, qb = _zgcd_parts(a, phi)
    assert g == phi == _gcd_by_subresultants(a, phi) and qb == [1] and zmul(g, qa) == a
    # times x + 3, whose value 7 at xi = 4 divides (x^105 - 1)(4) / Phi_105(4):
    # the integer gcd is 7 Phi_105(4), whose digits do not pack back to it,
    # so a larger point decides
    b = zmul(phi, [3, 1])
    assert zeval_int(a, 4) // zeval_int(phi, 4) % 7 == 0
    g_small = int_gcd(zeval_int(a, 4), zeval_int(b, 4))
    assert _pack(_unpack(g_small, 2, len(b)), 2) != g_small
    g, qa, qb = _zgcd_parts(a, b)
    assert g == phi == _gcd_by_subresultants(a, b)
    assert zmul(g, qa) == a and zmul(g, qb) == b


_big_factor = st.lists(st.integers(-40, 40), min_size=2, max_size=8).map(ztrim).filter(
    lambda f: len(f) >= 2
)


@settings(deadline=None, max_examples=150)
@given(_big_factor, st.lists(_big_factor, min_size=1, max_size=4),
       st.lists(_big_factor, min_size=1, max_size=4), st.integers(1, 3))
def test_gcd_parts_match_the_subresultant_gcd(common, fa, fb, power):
    # products past 12 coefficients, so the evaluation points run first
    a, b = [1], [1]
    for _ in range(power):
        a, b = zmul(a, common), zmul(b, common)
    for f in fa:
        a = zmul(a, f)
    for f in fb:
        b = zmul(b, f)
    a, b = zprimitive(a), zprimitive(b)
    g, qa, qb = _zgcd_parts(a, b)
    assert g == _gcd_by_subresultants(a, b)
    if qa is not None:
        assert zmul(g, qa) == a and zmul(g, qb) == b


def _newton_holds(a):
    n = zdeg(a)
    return all(a[k] ** 2 * comb(n, k - 1) * comb(n, k + 1) >= a[k - 1] * a[k + 1] * comb(n, k) ** 2
               for k in range(1, n))


@settings(deadline=None, max_examples=200)
@given(st.sets(st.fractions(-6, 6, max_denominator=5), min_size=1, max_size=9),
       st.integers(-4, 4).filter(bool))
def test_newton_never_rejects_distinct_real_roots(roots, unit):
    a = [unit]
    for r in roots:
        a = zmul(a, [-r.numerator, r.denominator])
    assert _newton_holds(a)
    assert zall_real_simple(a)


def test_newton_rejects_without_a_sturm_chain(monkeypatch):
    from curveclass import _zpoly

    built = []
    members = _zpoly.sturm_members
    monkeypatch.setattr(_zpoly, "sturm_members", lambda a: built.append(a) or members(a))
    # y^3 + y + 1: a_2 = 0, so at k = 2 the left side is 0 and the right
    # a_1 a_3 C(3,2)^2 = 9; Newton rules it out, and y^2 + 1 alike
    for a in ([1, 1, 0, 1], [1, 0, 1], [5, -1, 3, 0, 1]):
        assert not _newton_holds(a)
        assert not zall_real_simple(a)
    assert built == []
    # y^3 - 3y + 3 passes Newton but has one real root: the chain decides
    a = [3, -3, 0, 1]
    assert _newton_holds(a) and not zall_real_simple(a) and built


@settings(deadline=None, max_examples=300)
@given(_real_simple_case())
def test_newton_filter_agrees_with_the_full_chain(a):
    chain = sturm_chain(zprimitive(a))
    full = zdeg(chain[-1]) == 0 and sturm_count(chain) == zdeg(a)
    if full:
        assert _newton_holds(zprimitive(a))
    assert zall_real_simple(a) == full
