"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances and runtime budgets are pinned here; nothing is deferred
to later calibration.  Criteria 6 and 8 share fiber reports through a
module-level ledger (8 checks conjugation parity on everything 1-6
generated)."""

import math
import random
import time
from fractions import Fraction

from curveclass.curves import bad_locus, make_curve
from curveclass.errors import CurveClassError
from curveclass.functions import (
    classify,
    fiber_table,
    in_KRplus,
    is_integral,
    make_function,
    probe_function,
    verify_r_subintegral,
)
from curveclass.jobs import JobSpec, run_classify, run_singular
from curveclass.mpoly import MPoly, PolyIdeal, buchberger, saturate
from curveclass.unipoly import UPoly, sturm_count, squarefree_part
from test_mpoly import ideals_equal


def _to_zpoly(p):
    """p's rational coefficients cleared of denominators: (integers, lcm of
    the denominators)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


X, Y, T = MPoly.var("x"), MPoly.var("y"), MPoly.var("t")

_FIBER_LEDGER = []  # (distinct_complex, real_root_counts) rows from suites 1-6


def _announce(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _record_fibers(table):
    for rep in table:
        _FIBER_LEDGER.append((rep.distinct_complex, rep.real_root_counts))


def _classified(curve_poly, p, q, value):
    curve = make_curve(curve_poly)
    pts = bad_locus(curve, q)
    f = make_function(curve, p, q, [(i, value) for i, pt in enumerate(pts) if pt.is_real])
    return f


def test_criterion_1_cusp():
    t0 = time.monotonic()
    doc = run_classify(JobSpec("y^2 - x^3", "y", "x",
                               [{"point": ["0", "0"], "value": "0"}]))
    elapsed = time.monotonic() - t0
    ok = (
        doc.data["verdicts"]
        == {"regular": "no", "k_plus": "yes", "k_r_plus": "yes", "integral": "yes"}
        and doc.data["certificates"]["integral_relation"] == "t^2 - x"
        and elapsed < 1.0
    )
    f = _classified(Y**2 - X**3, Y, X, 0)
    _record_fibers(fiber_table(f))
    _announce(1, ok, f"cusp verdicts + certificate t^2 - x in {elapsed:.2f}s (< 1 s)")


def test_criterion_2_glued_cusp_pair():
    t0 = time.monotonic()
    f = _classified(Y**2 - X**3 * (X**2 + 1) ** 2, Y, X * (X**2 + 1), 0)
    rep = classify(f)
    elapsed = time.monotonic() - t0
    _record_fibers(rep.fibers)
    nonreal = [r for r in rep.fibers if not r.point.is_real]
    witness_ok = (
        len(nonreal) == 1
        and nonreal[0].distinct_complex == 2
        and list(nonreal[0].point.m1().coeffs) == [1, 0, 1]  # class over x^2 + 1
    )
    # the fiber polynomial is t^2 - x specialized at the class
    sf = nonreal[0].fiber_sf
    alpha = nonreal[0].point.xgen()
    fiber_is_t2_minus_x = (
        sf.degree == 2 and sf.coeffs[2] == 1 and not sf.coeffs[1] and sf.coeffs[0] == -alpha
    )
    ok = (
        rep.verdicts["k_plus"] == "no"
        and rep.verdicts["k_r_plus"] == "yes"
        and witness_ok
        and fiber_is_t2_minus_x
        and elapsed < 2.0
    )
    _announce(2, ok, f"k_plus no / k_r_plus yes with x^2+1 witness in {elapsed:.2f}s (< 2 s)")


def test_criterion_3_quadruple_contact():
    t0 = time.monotonic()
    f = _classified(Y**4 - X * (X**2 + Y**2), Y**2, X, 0)
    rep = classify(f)
    ok_int, wit = is_integral(f)
    elapsed = time.monotonic() - t0
    _record_fibers(rep.fibers)
    origin = rep.fibers[0]
    roots_ok = origin.distinct_real == 2
    kr, detail = in_KRplus(f)
    witness3 = detail["witnesses"].get(3)
    witness_roots = witness3[0]["real_roots"] if witness3 else None
    ok = (
        rep.verdicts["k_r_plus"] == "no"
        and rep.verdicts["integral"] == "yes"
        and wit == T**2 - T - X
        and roots_ok
        and witness_roots == [Fraction(0), Fraction(1)]
        and elapsed < 2.0
    )
    _announce(3, ok, f"k_r_plus no, certificate t^2 - t - x, real roots {{0, 1}} "
                     f"in {elapsed:.2f}s (< 2 s)")


def test_criterion_4_cubic_fourth_condition():
    t0 = time.monotonic()
    F = Y**3 - X**2 * Y**2 + Y * X**2 * (X + 1) - X**4 * (X + 1)
    f = _classified(F, Y, X, 0)
    kr, detail = in_KRplus(f)
    ok_int, wit = is_integral(f)
    elapsed = time.monotonic() - t0
    table = fiber_table(f)
    _record_fibers(table)
    origin = table[0]
    expected_cert = T**3 - X * T**2 + (X + 1) * T - X * (X + 1)
    ok = (
        not kr
        and detail["conditions"][1]
        and detail["conditions"][2]
        and detail["conditions"][3]
        and not detail["conditions"][4]
        and origin.distinct_complex == 3
        and origin.real_root_counts == (1,)
        and wit == expected_cert
        and elapsed < 3.0
    )
    _announce(4, ok, f"conditions 1-3 pass, 4 fails with 3 complex / 1 real fiber roots, "
                     f"certificate matches, in {elapsed:.2f}s (< 3 s)")


def test_criterion_5_seven_singularities():
    t0 = time.monotonic()
    doc = run_singular("(y^4 + x^6)*(y^2 - (x-1)^3*(x-2)^2*(x^2+1)^2*(x^2+4)^3)")
    elapsed = time.monotonic() - t0
    rows = doc.data["singular_points"]
    real_pts = sorted(r["point"] for r in rows if r["real"])
    reals_exact = real_pts == ["(0, 0)", "(1, 0)", "(2, 0)"]
    nonreal = [r for r in rows if not r["real"]]
    nonreal_tags_exact = all(r["real_embeddings"] == 0 for r in nonreal)
    points_by_m1 = {r["point"] for r in nonreal}
    has_classes = any("x^2 + 1" in p for p in points_by_m1) and any(
        "x^2 + 4" in p for p in points_by_m1
    )
    total = sum(r["class_size"] for r in rows)
    ok = (
        reals_exact
        and nonreal_tags_exact
        and has_classes
        and total >= 7
        and elapsed < 10.0
    )
    _announce(5, ok, f"real points (0,0),(1,0),(2,0); classes over x^2+1 and x^2+4; "
                     f"{total} closed points (>= 7) in {elapsed:.2f}s (< 10 s)")


def test_criterion_6_hierarchy_fuzz():
    curves = [
        Y**2 - X**3,
        Y**2 - X**3 * (X**2 + 1) ** 2,
        Y**4 - X * (X**2 + Y**2),
        Y**3 - X**2 * Y**2 + Y * X**2 * (X + 1) - X**4 * (X + 1),
        Y**2 - X**2 * (X + 1),
    ]
    rng = random.Random(2024)

    def rand_poly(maxdeg=3, terms=3):
        p = MPoly()
        for _ in range(rng.randint(1, terms)):
            i = rng.randint(0, maxdeg)
            j = rng.randint(0, maxdeg - i)
            c = rng.randint(-3, 3)
            if c:
                p = p + c * X**i * Y**j
        return p

    count = 0
    order = {"yes": 1, "no": 0}
    agreement = True
    while count < 200:
        curve_poly = curves[count % len(curves)]
        p, q = rand_poly(), rand_poly()
        if p.is_zero() or q.is_zero():
            continue
        try:
            f = _classified(curve_poly, p, q, 0)
            rep = classify(f)
        except CurveClassError:
            continue
        _record_fibers(rep.fibers)
        v = rep.verdicts
        chain_ok = (
            order[v["regular"]] <= order[v["k_plus"]] <= order[v["k_r_plus"]] <= order[v["integral"]]
        )
        assert chain_ok, f"hierarchy violated: {v}"
        if v["integral"] == "yes":
            res = verify_r_subintegral(f)
            if res["r_subintegral"] != (v["k_r_plus"] == "yes"):
                agreement = False
        count += 1
    _announce(6, agreement and count >= 200,
              f"{count} random functions: hierarchy chain never violated, "
              f"in_KRplus <=> r_subintegral agreement 100%")


def test_criterion_7_node_oracle_and_representative_independence():
    F = Y**2 - X**2 * (X + 1)
    f = _classified(F, Y, X, 1)
    (rep,) = fiber_table(f)
    # hand oracle: substitute y = x t into F and divide by x^2: t^2 - (x+1),
    # so the fiber over the origin is t^2 - 1 with roots +-1
    fld = rep.point.field
    expected = UPoly("t", [fld.from_fraction(-1), fld.zero(), fld.one()])
    fiber_matches = rep.fiber_sf == expected
    roots_match = rep.distinct_complex == 2 and rep.real_root_counts == (2,)

    base_verdicts = classify(f).verdicts
    rng = random.Random(7)
    stable = True
    for trial in range(50):
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        g = MPoly()
        for _ in range(rng.randint(0, 3)):
            g = g + rng.randint(-3, 3) * X ** rng.randint(0, 2) * Y ** rng.randint(0, 2)
        if trial % 2:
            p2, q2 = (Y + g * F), X  # representative independence mod F
        else:
            p2, q2 = Y * c, X * c  # scaling invariance
        f2 = _classified(F, p2, q2, 1)
        if classify(f2).verdicts != base_verdicts:
            stable = False
            break
    ok = fiber_matches and roots_match and stable
    _announce(7, ok, "Groebner fiber equals the y = x t hand oracle (roots +-1); "
                     "verdicts invariant under 50 (p + gF, q) and (cp, cq) perturbations")


def test_criterion_8_kernel_suites():
    rng = random.Random(99)
    # Sturm counts vs double-precision root finding on 500 planted polys
    import numpy as np

    agree = 0
    for _ in range(500):
        deg = rng.randint(1, 8)
        n_real = rng.randint(0, deg)
        if (deg - n_real) % 2:
            n_real += 1 if n_real < deg else -1
        reals = rng.sample([Fraction(k, 2) for k in range(-8, 9)], n_real)
        p = UPoly("x", [Fraction(1)])
        for r in reals:
            p = p * UPoly("x", [-r, Fraction(1)])
        pairs = (deg - n_real) // 2
        for _ in range(pairs):
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            p = p * UPoly("x", [Fraction(a * a + b * b), Fraction(-2 * a), Fraction(1)])
        if rng.random() < 0.3 and reals:
            p = p * UPoly("x", [-reals[0], Fraction(1)])  # a repeated root
        sf = squarefree_part(p)
        got = sturm_count(sf)
        # numeric oracle on the squarefree part: distinct roots are simple
        # and well separated (>= 1/2), so double precision resolves them
        z, _ = _to_zpoly(sf)
        np_roots = np.roots(np.array(z[::-1], dtype=float))
        numeric = len({round(float(r.real), 3) for r in np_roots if abs(r.imag) < 1e-6})
        if got == len(set(reals)) == numeric:
            agree += 1
    sturm_ok = agree == 500

    # saturation idempotence and permutation independence on random ideals
    sat_ok = True
    perm_ok = True
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = MPoly()
            for _ in range(rng.randint(1, 3)):
                g = g + rng.randint(-3, 3) * T ** rng.randint(0, 2) * X ** rng.randint(0, 2) * Y ** rng.randint(0, 1)
            if g:
                gens.append(g)
        if not gens:
            continue
        ideal = PolyIdeal(gens)
        gb1 = buchberger(ideal)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb2 = buchberger(PolyIdeal(shuffled))
        if gb1.basis != gb2.basis:
            perm_ok = False
        sat1 = saturate(ideal, X)
        sat2 = saturate(sat1, X)
        if not ideals_equal(sat1, sat2):
            sat_ok = False

    # conjugation parity on every fiber report generated by suites 1-6
    parity_ok = all(
        (dc - rc) % 2 == 0 for dc, counts in _FIBER_LEDGER for rc in counts
    )
    assert _FIBER_LEDGER, "suites 1-6 must run before criterion 8"
    ok = sturm_ok and sat_ok and perm_ok and parity_ok
    _announce(8, ok, f"sturm vs numeric (500/500: {sturm_ok}), saturation idempotence "
                     f"and permutation independence (20 ideals), fiber parity on "
                     f"{len(_FIBER_LEDGER)} reports")


def test_criterion_9_probe_soundness():
    consistent_ok = True
    for curve_poly, p, q in (
        (Y**2 - X**3, Y, X),
        (Y**2 - X**3 * (X**2 + 1) ** 2, Y, X * (X**2 + 1)),
    ):
        f = _classified(curve_poly, p, q, 0)
        assert classify(f).verdicts["k_r_plus"] == "yes"
        out = probe_function(f)
        if out["outcome"] != "consistent" or any(
            r["outcome"] != "consistent" for _, r in out["points"]
        ):
            consistent_ok = False
    violated_ok = True
    for curve_poly, p, q, v in (
        (Y**4 - X * (X**2 + Y**2), Y**2, X, 0),
        (Y**2 - X**2 * (X + 1), Y, X, 1),
    ):
        f = _classified(curve_poly, p, q, v)
        if probe_function(f)["outcome"] != "violated":
            violated_ok = False
    ok = consistent_ok and violated_ok
    _announce(9, ok, "probe consistent on every k_r_plus member, violated on the "
                     "quadruple-contact and wrong-valued node cases")
