import itertools
import math
import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass import mpoly
from curveclass.errors import InternalError, PreconditionError
from curveclass.mpoly import (
    LEX,
    GroebnerBasis,
    MPoly,
    PolyIdeal,
    buchberger,
    eliminate,
    eval_at,
    leading_term,
    lift_membership,
    monic_in_t_witness,
    normal_form,
    saturate,
    saturate_gb,
    specialize_to_t,
    spoly,
    to_upoly_in,
    _EXP_LIMIT,
    _elcm,
    _field_divides,
    _field_lcm,
    _Kernel,
    _pack,
    _primitive,
    _reduced_basis,
    _to_kernel,
    _to_mpoly,
    _unpack,
)
from curveclass.unipoly import UPoly

S, T, X, Y = (MPoly.var(v) for v in ("s", "t", "x", "y"))


def ideals_equal(a: PolyIdeal, b: PolyIdeal) -> bool:
    """Oracle: mutual containment via lex normal forms."""
    gba = buchberger(a)
    gbb = buchberger(b)
    return all(not normal_form(g, gba) for g in b.generators) and all(
        not normal_form(g, gbb) for g in a.generators
    )


def cusp():
    return Y**2 - X**3


def cusp_graph_gb():
    return saturate_gb(PolyIdeal([cusp(), X * T - Y]), X)


def test_buchberger_already_a_basis():
    gb = buchberger(PolyIdeal([X, Y]))
    assert set(gb.basis) == {X, Y}


def test_buchberger_substitution():
    gb = buchberger(PolyIdeal([Y - X**2, T - Y]))
    assert T - X**2 in set(gb.basis) or not normal_form(T - X**2, gb)


def test_cusp_saturation_contains_certificate():
    gb = cusp_graph_gb()
    assert not normal_form(T**2 - X, gb)
    # DERIVED oracle: parametrization x=u^2, y=u^3, t=u kills every element
    for g in gb.basis:
        acc = Fraction(0)
        # evaluate at (x, y, t) = (u^2, u^3, u) for a few rational u
        for u in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)):
            val = Fraction(0)
            for e, c in g.terms.items():
                val += c * u ** (2 * e[2] + 3 * e[3] + e[1])
            acc += abs(val)
        assert acc == 0
    expected = {T**2 - X, T * Y - X**2, X * T - Y, Y**2 - X**3}
    for p in expected:
        assert not normal_form(p, gb)


def test_normal_form_examples():
    gb = buchberger(PolyIdeal([X]))
    assert not normal_form(X**2, gb)
    gb2 = buchberger(PolyIdeal([Y**2 - X**3, X]))
    # reduced basis is {x, y^2}
    assert normal_form(Y, gb2) == Y
    assert not normal_form(X * Y, gb2)


def test_eliminate_examples():
    gb = buchberger(PolyIdeal([T - X**2, T - Y]))
    elim = eliminate(gb, {"x", "y"})
    assert ideals_equal(elim, PolyIdeal([Y - X**2]))

    gb2 = cusp_graph_gb()
    elim2 = eliminate(gb2, {"x", "y"})
    assert ideals_equal(elim2, PolyIdeal([cusp()]))

    gb3 = buchberger(PolyIdeal([S * X - 1, Y]))
    elim3 = eliminate(gb3, {"x", "y"})
    assert ideals_equal(elim3, PolyIdeal([Y]))


def test_saturate_trivial_cases():
    assert ideals_equal(saturate(PolyIdeal([X * Y]), X), PolyIdeal([Y]))
    assert ideals_equal(saturate(PolyIdeal([Y]), X), PolyIdeal([Y]))


def test_saturate_idempotent():
    sat1 = saturate(PolyIdeal([cusp(), X * T - Y]), X)
    sat2 = saturate(sat1, X)
    assert ideals_equal(sat1, sat2)


def test_monic_witness_cusp():
    w = monic_in_t_witness(cusp_graph_gb())
    assert w == T**2 - X


def test_monic_witness_absent_for_pole():
    gb = saturate_gb(PolyIdeal([Y, X * T - 1]), X)
    assert monic_in_t_witness(gb) is None


def test_monic_witness_example_three():
    curve = Y**4 - X * (X**2 + Y**2)
    gb = saturate_gb(PolyIdeal([curve, X * T - Y**2]), X)
    w = monic_in_t_witness(gb)
    assert w == T**2 - T - X


def test_a_basis_made_from_polynomials_keeps_them():
    # bench/checks.py builds <F> this way: F alone is a Groebner basis
    F = 3 * Y**2 - Fraction(1, 2) * X**3 + X
    gb = GroebnerBasis(LEX, [F])
    assert gb.basis == (F,) and len(gb) == 1
    assert gb.kernel.terms(0) == _to_kernel(F)[0]
    by_buchberger = buchberger(PolyIdeal([F]))
    assert by_buchberger.basis == (F * -2,)  # lex leads with x^3
    for p in (X * Y**3, Y**2 + T, F * (X - T), X**4 * Y - Fraction(2, 7), MPoly()):
        assert normal_form(p, gb) == normal_form(p, by_buchberger)
    assert not normal_form(F * (X - T), gb)


def test_basis_is_its_monic_kernel_rows_built_once():
    gb = cusp_graph_gb()
    assert gb.basis is gb.basis and len(gb) == len(gb.basis)
    for i, g in enumerate(gb.basis):
        lc = gb.kernel.lcs[i]
        assert lc > 0 and leading_term(g)[1] == 1
        assert g * lc == _to_mpoly(gb.kernel.terms(i))
    assert gb.t_grids() is gb.t_grids()


def test_saturation_keeps_the_s_free_rows():
    full = buchberger(PolyIdeal([cusp(), X * T - Y, 1 - S * X]))
    kept = [g for g in full.basis if g.degree_in("s") == 0]
    assert len(kept) < len(full.basis)
    assert list(cusp_graph_gb().basis) == kept
    # saturating x by x leaves the unit ideal: no s-free row, the basis {1}
    assert saturate_gb(PolyIdeal([X]), X).basis == (MPoly.const(1),)


def test_witness_and_grids_refuse_a_basis_with_s():
    gb = GroebnerBasis(LEX, [T - X, S * X - 1])
    with pytest.raises(PreconditionError):
        monic_in_t_witness(gb)
    with pytest.raises(PreconditionError):
        gb.t_grids()


def test_groebner_basis_takes_lex_only():
    assert GroebnerBasis(LEX, [X]).basis == (X,)
    for order in ("grevlex", None, "LEX"):
        with pytest.raises(PreconditionError):
            GroebnerBasis(order, [X])


def test_buchberger_takes_any_iterable_of_polynomials():
    gens = [cusp(), X * T - Y, MPoly()]
    want = buchberger(PolyIdeal(gens)).basis
    assert buchberger(gens).basis == buchberger(iter(gens)).basis == want
    with pytest.raises(PreconditionError):
        buchberger([MPoly()])


def test_basis_independent_of_generator_permutation():
    rng = random.Random(42)
    vars_ = [T, X, Y]
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(2, 4)):
            p = MPoly()
            for _ in range(rng.randint(1, 3)):
                mono = MPoly.const(rng.randint(-3, 3))
                for v in vars_:
                    mono = mono * v ** rng.randint(0, 2)
                p = p + mono
            if p:
                gens.append(p)
        if not gens:
            continue
        gb1 = buchberger(PolyIdeal(gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb2 = buchberger(PolyIdeal(shuffled))
        assert gb1.basis == gb2.basis


def test_confluence_shuffled_divisor_choice():
    rng = random.Random(13)
    gb = cusp_graph_gb()

    def shuffled_normal_form(p, gb, rng):
        lead = [leading_term(g) for g in gb.basis]
        rem = MPoly()
        while p:
            e, c = leading_term(p)
            choices = [i for i, (le, _) in enumerate(lead) if all(a <= b for a, b in zip(le, e))]
            if choices:
                i = rng.choice(choices)
                le, lc = lead[i]
                factor = MPoly({tuple(a - b for a, b in zip(e, le)): c / lc})
                p = p - factor * gb.basis[i]
            else:
                mono = MPoly({e: c})
                rem = rem + mono
                p = p - mono
        return rem

    for _ in range(20):
        p = MPoly()
        for _ in range(rng.randint(1, 4)):
            mono = MPoly.const(rng.randint(-4, 4))
            for v in (T, X, Y):
                mono = mono * v ** rng.randint(0, 3)
            p = p + mono
        nf1 = normal_form(p, gb)
        nf2 = shuffled_normal_form(p, gb, rng)
        assert nf1 == nf2


def test_redundant_generators_do_not_change_elimination():
    base = PolyIdeal([cusp(), X * T - Y])
    redundant = PolyIdeal([cusp(), X * T - Y, (X * T - Y) * X, cusp() * Y])
    gb1 = saturate_gb(base, X)
    gb2 = saturate_gb(redundant, X)
    assert gb1.basis == gb2.basis


def test_lift_membership_gives_cofactors():
    gb = buchberger(PolyIdeal([cusp(), X]))
    cof = lift_membership(X * Y, gb)
    assert cof is not None and len(cof) == len(gb.basis)
    rebuilt = sum((c * g for c, g in zip(cof, gb.basis)), MPoly())
    assert rebuilt == X * Y
    assert lift_membership(Y, gb) is None


def test_specialize_and_eval():
    p = T**2 - X + Y * T
    coeffs = specialize_to_t(p, Fraction(3), Fraction(2))
    assert coeffs == [Fraction(-3), Fraction(2), Fraction(1)]
    assert eval_at(X**2 + Y, Fraction(2), Fraction(5)) == 9
    up = to_upoly_in(X**3 - X, "x")
    assert up.degree == 3


# -- property tests of the kernel --------------------------------------------

# random small ideals in s, t, x, y: up to three generators of up to three
# terms of degree <= 2 (higher degrees make some lex bases take minutes)
_monos = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 2]
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_polys = st.dictionaries(st.sampled_from(_monos), _coeffs, min_size=1, max_size=3).map(MPoly)
_ideals = st.lists(_polys, min_size=1, max_size=3)


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


@settings(deadline=None)
@given(_ideals)
def test_kernel_basis_is_reduced_and_complete(gens):
    gb = buchberger(PolyIdeal(gens))
    leads = [leading_term(g) for g in gb.basis]
    assert all(c == 1 for _, c in leads)
    for i, (ei, _) in enumerate(leads):
        for j, (ej, _) in enumerate(leads):
            assert i == j or not _divides(ej, ei)
    for g, (e, _) in zip(gb.basis, leads):
        for t in g.terms:
            assert t == e or not any(_divides(le, t) for le, _ in leads)
    for g in gens:
        assert not normal_form(g, gb)
    for i, f in enumerate(gb.basis):
        for g in gb.basis[i + 1:]:
            assert not normal_form(spoly(f, g), gb)


@settings(deadline=None)
@given(_ideals, st.lists(_polys, min_size=3, max_size=3), _polys)
def test_lift_membership_quotients_are_exact(gens, cofactors, p):
    gb = buchberger(PolyIdeal(gens))
    member = sum((r * g for r, g in zip(cofactors, gens)), MPoly())
    quots = lift_membership(member, gb)
    assert quots is not None and len(quots) == len(gb.basis)
    assert sum((q * g for q, g in zip(quots, gb.basis)), MPoly()) == member
    quots = lift_membership(p, gb)
    assert (quots is None) == bool(normal_form(p, gb))
    if quots is not None:
        assert sum((q * g for q, g in zip(quots, gb.basis)), MPoly()) == p


def _power_from_one(p, n):
    """Reference: binary powering from const(1), squaring past the top bit."""
    acc = MPoly.const(1)
    while n:
        if n & 1:
            acc = acc * p
        p = p * p
        n >>= 1
    return acc


@pytest.mark.parametrize(
    "p", [MPoly(), MPoly.const(3), X - 1, X * Y - Fraction(1, 2) * S**2 + T, (X + Y) ** 2 - 7]
)
def test_power_equals_repeated_products(p):
    acc = MPoly.const(1)
    for n in range(10):
        got = p**n
        assert got == acc
        # the same terms in the same order as the loop that started at 1
        assert list(got.terms.items()) == list(_power_from_one(p, n).terms.items())
        acc = acc * p


def test_power_forms_no_product_past_the_top_bit(monkeypatch):
    products = []
    mul = mpoly._mul
    monkeypatch.setattr(mpoly, "_mul", lambda a, b: products.append(1) or mul(a, b))
    for n, want in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        products.clear()
        (X - 1) ** n
        assert len(products) == want, n


def test_negative_powers_are_refused():
    # n >> 1 stays -1 for n = -1, so powering never ended: it squared the
    # base on every round
    with pytest.raises(PreconditionError):
        X ** -1
    with pytest.raises(PreconditionError):
        UPoly("x", [1, 1]) ** -1


# -- Gebauer-Moeller updates against the criterion-at-pop algorithm ----------

def _reference_buchberger(ideal):
    """Reference: every pair queued, the product and chain criteria checked
    when a pair is popped, the same kernel and the same reduced basis."""
    kb = _Kernel()
    exps = []  # leading exponent tuple per element

    def push(terms):
        kb.add(terms)
        exps.append(_unpack(kb.leads[-1]))

    for g in ideal:
        push(_to_kernel(g)[0])
    heap = []

    def add_pair(i, j):
        heappush(heap, (_pack(_elcm(exps[i], exps[j])), i, j))

    for i in range(len(kb)):
        for j in range(i + 1, len(kb)):
            add_pair(i, j)
    done = set()
    while heap:
        l, i, j = heappop(heap)
        done.add((i, j))
        if all(not (a and b) for a, b in zip(exps[i], exps[j])):
            continue
        if any(
            k != i and k != j and _field_divides(lk, l)
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k, lk in enumerate(kb.leads)
        ):
            continue
        lci, lcj = kb.lcs[i], kb.lcs[j]
        d = math.gcd(lci, lcj)
        si, sj = l - kb.leads[i], l - kb.leads[j]
        cur = {t + si: lcj // d * c for t, c in kb.tails[i]}
        for t, c in kb.tails[j]:
            m = t + sj
            v = cur.get(m, 0) - lci // d * c
            if v:
                cur[m] = v
            else:
                cur.pop(m, None)
        _, rem = kb.reduce(cur)
        if rem:
            n = len(kb)
            push(_primitive(rem)[0])
            for k in range(n):
                add_pair(k, n)
    return _reduced_basis(kb, range(len(kb)))


def _basis_terms(gb):
    return [list(g.terms.items()) for g in gb.basis]


@settings(deadline=None)
@given(_ideals)
def test_pair_updates_give_the_reference_basis(gens):
    got = buchberger(PolyIdeal(gens))
    assert _basis_terms(got) == _basis_terms(_reference_buchberger(PolyIdeal(gens)))


def test_pair_updates_give_the_reference_basis_on_the_cusp_saturation():
    helper = MPoly.const(1) - S * X
    ideal = PolyIdeal([cusp(), X * T - Y, helper])
    assert _basis_terms(buchberger(ideal)) == _basis_terms(_reference_buchberger(ideal))


def test_field_lcm_is_the_packed_exponent_max():
    # a packed lex monomial is its own exponent fields: int comparison is
    # tuple order, and the fieldwise max is the packed lcm
    rng = random.Random(20)
    edges = [0, 1, _EXP_LIMIT - 1]
    for _ in range(500):
        a = tuple(rng.choice(edges) if rng.random() < 0.2 else rng.randrange(_EXP_LIMIT)
                  for _ in range(4))
        b = tuple(rng.choice(edges) if rng.random() < 0.2 else rng.randrange(_EXP_LIMIT)
                  for _ in range(4))
        pa, pb = _pack(a), _pack(b)
        assert _unpack(pa) == a and (pa < pb) == (a < b) and (pa == pb) == (a == b)
        assert _field_lcm(pa, pb) == _pack(_elcm(a, b))
        assert _field_divides(pa, pb) == all(x <= y for x, y in zip(a, b))


def test_first_divisor_memo_sees_elements_appended_later():
    # y^2 + 3y first meets only x, which divides neither term; y - 1,
    # appended after, divides both, so the memoised "no divisor among the
    # first one" must be rescanned from there
    kb = _Kernel()
    kb.add(_to_kernel(X)[0])
    cur = _to_kernel(Y**2 + 3 * Y)[0]
    assert kb.reduce(dict(cur)) == (1, cur)
    y2 = _pack((0, 0, 0, 2))
    assert kb.first[y2] == ~1
    kb.add(_to_kernel(Y - 1)[0])
    fresh = _Kernel()
    for g in (X, Y - 1):
        fresh.add(_to_kernel(g)[0])
    got = kb.reduce(dict(cur))
    assert got == fresh.reduce(dict(cur))
    assert got == (1, {_pack((0, 0, 0, 0)): 4})
    assert kb.first[y2] == 1


def test_kernel_replacement_must_keep_the_leading_monomial():
    kb = _Kernel()
    kb.add(_to_kernel(X + Y)[0])
    kb.add(_to_kernel(X + 2)[0], 0)  # same leading monomial: accepted
    assert kb.terms(0) == _to_kernel(X + 2)[0]
    with pytest.raises(InternalError):
        kb.add(_to_kernel(Y + 1)[0], 0)


# ---------------------------------------------------------------------------
# sugar selection on the graph ideals of the benchmark jobs
# ---------------------------------------------------------------------------

def _graph_ideals(jobs):
    """(<F, q t - p>, q) of each classification job text."""
    from curveclass.parsing import parse_poly

    for job in jobs:
        F, p, q = (parse_poly(job[k]) for k in ("curve", "numerator", "denominator"))
        yield PolyIdeal([F, q * T - p]), q


def _heavy_draws(count):
    """The first count criterion-6 draws (seed 5) whose denominator has
    several terms and degree 3, over the five worked curves in turn: the
    draws the fuzz-shared stream redraws, as machine_digests.py makes them."""
    from test_curves import _bench_workloads

    workloads = _bench_workloads()
    rng = random.Random(5)
    jobs = []
    while len(jobs) < count:
        p, q = workloads._rand_terms(rng), workloads._rand_terms(rng)
        if p and len(q) > 1 and max(i + j for i, j in q) == 3:
            jobs.append({
                "curve": workloads.FUZZ_CURVES[len(jobs) % len(workloads.FUZZ_CURVES)],
                "numerator": workloads.poly_text(p),
                "denominator": workloads.poly_text(q),
            })
    return jobs


def test_sugar_selection_gives_the_reference_saturations_on_benchmark_jobs():
    from test_curves import _bench_workloads

    workloads = _bench_workloads()
    jobs = (workloads.generate("fuzz-shared", 2024, 40)
            + workloads.generate("tower-split", 2024, 40) + _heavy_draws(20))
    for ideal, q in _graph_ideals(jobs):
        ref = _reference_buchberger(PolyIdeal([*ideal, 1 - S * q]))
        s_free = tuple(g for g in ref.basis if g.degree_in("s") <= 0)
        assert saturate_gb(ideal, q).basis == (s_free or (MPoly.const(1),))


def test_sugar_selection_runs_fewer_kernel_reductions(monkeypatch):
    # the saturations of the first 300 fuzz-shared jobs (seed 2024) ran
    # 7,374 reductions under normal selection (smallest lcm first) and run
    # 5,648 under sugar selection; their whole pipeline went 8,769 -> 7,043
    from test_curves import _bench_workloads

    calls = [0]
    reduce = _Kernel.reduce

    def counted(self, cur):
        calls[0] += 1
        return reduce(self, cur)

    monkeypatch.setattr(_Kernel, "reduce", counted)
    for ideal, q in _graph_ideals(_bench_workloads().generate("fuzz-shared", 2024, 300)):
        saturate_gb(ideal, q)
    assert calls[0] < 7374
