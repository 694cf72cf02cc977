"""Output checks for benchmark jobs, run outside the timed region.

``check_classification`` and ``check_singular`` return a list of failure
messages (empty when the job's output is correct).  Expected outputs,
recorded by ``run.py --record`` on a workload's default seed, compare
verdicts and fiber rows, or singular-point rows; certificate strings are
never compared, since an equivalent certificate may print differently.
"""

from fractions import Fraction

from curveclass import functions, mpoly, parsing

ORDER = ("regular", "k_plus", "k_r_plus", "integral")
FIBER_KEYS = ("point", "real", "distinct_complex", "distinct_real", "matches")
SINGULAR_KEYS = ("point", "real", "real_embeddings", "class_size")


def summary(workload_kind, data):
    """The compared part of a machine document."""
    if workload_kind == "singular":
        return {"singular_points": [[r[k] for k in SINGULAR_KEYS] for r in data["singular_points"]]}
    return {
        "verdicts": [data["verdicts"][k] for k in ORDER],
        "fibers": [[r[k] for k in FIBER_KEYS] for r in data["fibers"]],
    }


def _in_curve_ideal(poly, F):
    """poly lies in <F>: F alone is a Groebner basis of the principal ideal."""
    gb = mpoly.GroebnerBasis(mpoly.LEX, [F])
    return not mpoly.normal_form(poly, gb)


def check_classification(data, f, rep):
    """Invariants of one classification document; f and rep are the
    CurveFunction and ClassificationReport that produced it."""
    errors = []
    v = data["verdicts"]
    if any(v[k] not in ("yes", "no") for k in ORDER):
        return [f"malformed verdicts {v}"]
    if any(v[a] == "yes" and v[b] == "no" for a, b in zip(ORDER, ORDER[1:])):
        errors.append(f"hierarchy chain violated: {v}")

    F, p, q = f.curve.F, f.p, f.q
    cert = data["certificates"]
    rel_text = cert["integral_relation"]
    if (v["integral"] == "yes") != (rel_text is not None):
        errors.append("integral verdict and emitted relation disagree")
    if rel_text is not None:
        P = parsing.parse_poly(rel_text, ("t", "x", "y"))
        deg = P.degree_in("t")
        lead = {e: c for e, c in P.terms.items() if e[1] == deg}
        if deg < 1 or lead != {(0, deg, 0, 0): Fraction(1)}:
            errors.append(f"integral relation not monic in t: {rel_text}")
        else:
            # q^deg * P(p/q) = sum_k c_k(x, y) p^k q^(deg - k)
            value = mpoly.MPoly()
            for e, c in P.terms.items():
                k = e[1]
                mono = mpoly.MPoly({(0, 0, e[2], e[3]): c})
                value = value + mono * p ** k * q ** (deg - k)
            if not _in_curve_ideal(value, F):
                errors.append(f"q^deg P(p/q) not in <F> for {rel_text}")

    wit_text = cert["regular_witness"]
    if (v["regular"] == "yes") != (wit_text is not None):
        errors.append("regular verdict and emitted witness disagree")
    if wit_text is not None:
        h = parsing.parse_poly(wit_text)
        if not _in_curve_ideal(p - h * q, F):
            errors.append(f"p - h q not in <F> for witness {wit_text}")

    if v["integral"] == "yes":
        r_sub = functions.verify_r_subintegral(f, rep.fibers)["r_subintegral"]
        if r_sub != (v["k_r_plus"] == "yes"):
            errors.append(f"in_KRplus ({v['k_r_plus']}) disagrees with r_subintegral ({r_sub})")
    return errors


def check_singular(data):
    """Every rational singular point satisfies F = F_x = F_y = 0."""
    errors = []
    F = parsing.parse_poly(data["curve"])
    Fx, Fy = F.deriv("x"), F.deriv("y")
    for row in data["singular_points"]:
        if row["class_size"] < 1 or row["real_embeddings"] > row["class_size"]:
            errors.append(f"malformed singular row {row}")
        text = row["point"]
        if not text.startswith("("):
            continue  # a triangular system, not a rational point
        x0, y0 = (Fraction(s.strip()) for s in text[1:-1].split(","))
        if any(mpoly.eval_at(g, x0, y0) for g in (F, Fx, Fy)):
            errors.append(f"{text} is not a singular point")
    return errors


def compare_expected(kind, index, data, expected):
    """Failures where job `index` differs from its recorded summary."""
    if expected is None or index >= len(expected):
        return []
    want = expected[index]
    got = summary(kind, data)
    return [] if got == want else [f"job {index}: expected {want}, got {got}"]
