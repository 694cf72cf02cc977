import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveclass.errors import PreconditionError
from curveclass.mpoly import (
    GREVLEX,
    LEX,
    MPoly,
    PolyIdeal,
    buchberger,
    eliminate,
    eval_at,
    ideals_equal,
    leading_term,
    lift_membership,
    monic_in_t_witness,
    normal_form,
    saturate,
    saturate_gb,
    specialize_to_t,
    spoly,
    to_upoly_in,
)

S, T, X, Y = (MPoly.var(v) for v in ("s", "t", "x", "y"))


def cusp():
    return Y**2 - X**3


def cusp_graph_gb():
    return saturate_gb(PolyIdeal([cusp(), X * T - Y]), X)


def test_buchberger_already_a_basis():
    gb = buchberger(PolyIdeal([X, Y]), LEX)
    assert set(gb.basis) == {X, Y}


def test_buchberger_substitution():
    gb = buchberger(PolyIdeal([Y - X**2, T - Y]), LEX)
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
    gb = buchberger(PolyIdeal([X]), LEX)
    assert not normal_form(X**2, gb)
    gb2 = buchberger(PolyIdeal([Y**2 - X**3, X]), LEX)
    # reduced basis is {x, y^2}
    assert normal_form(Y, gb2) == Y
    assert not normal_form(X * Y, gb2)


def test_eliminate_examples():
    gb = buchberger(PolyIdeal([T - X**2, T - Y]), LEX)
    elim = eliminate(gb, {"x", "y"})
    assert ideals_equal(elim, PolyIdeal([Y - X**2]))

    gb2 = cusp_graph_gb()
    elim2 = eliminate(gb2, {"x", "y"})
    assert ideals_equal(elim2, PolyIdeal([cusp()]))

    gb3 = buchberger(PolyIdeal([S * X - 1, Y]), LEX)
    elim3 = eliminate(gb3, {"x", "y"})
    assert ideals_equal(elim3, PolyIdeal([Y]))


def test_eliminate_order_precondition():
    gb = buchberger(PolyIdeal([T - X**2]), GREVLEX)
    with pytest.raises(PreconditionError):
        eliminate(gb, {"x", "y"})


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


def test_basis_independent_of_generator_permutation():
    rng = random.Random(42)
    vars_ = [T, X, Y]
    for trial in range(20):
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
        order = LEX if trial % 2 else GREVLEX
        gb1 = buchberger(PolyIdeal(gens), order)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb2 = buchberger(PolyIdeal(shuffled), order)
        assert gb1.basis == gb2.basis


def test_confluence_shuffled_divisor_choice():
    rng = random.Random(13)
    gb = cusp_graph_gb()

    def shuffled_normal_form(p, gb, rng):
        lead = [leading_term(g, gb.order) for g in gb.basis]
        rem = MPoly()
        while p:
            e, c = leading_term(p, gb.order)
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
    gb = buchberger(PolyIdeal([cusp(), X]), LEX)
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
_orders = st.sampled_from([LEX, GREVLEX])


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


@settings(deadline=None)
@given(_ideals, _orders)
def test_kernel_basis_is_reduced_and_complete(gens, order):
    gb = buchberger(PolyIdeal(gens), order)
    leads = [leading_term(g, order) for g in gb.basis]
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
            assert not normal_form(spoly(f, g, order), gb)


@settings(deadline=None)
@given(_ideals, _orders, _polys)
def test_kernel_normal_form_quotients_are_exact(gens, order, p):
    gb = buchberger(PolyIdeal(gens), order)
    rem, quots = normal_form(p, gb, with_quotients=True)
    assert rem == normal_form(p, gb)
    assert sum((q * g for q, g in zip(quots, gb.basis)), rem) == p
