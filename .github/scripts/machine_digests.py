"""Print the sha256 of the machine documents a checkout's program emits.

    python .github/scripts/machine_digests.py CHECKOUT > digests.txt

The program is imported from CHECKOUT/src.  The job texts and the pipeline
come from this script's own checkout (bench/workloads.py, bench/pipeline.py,
imported, never edited), so two runs on two checkouts differ only in the
program; diff their outputs to check that machine output is byte-identical.
One line per corpus: each benchmark workload at seeds 5, 12 and 2024 with
its trace-pass job count, each document of demo.run_demo(probe=True), and
the singular-locus documents of the REALNESS_CURVES at the budgets
REALNESS_BUDGETS, the present and check-morphism documents of
present_morphism_line, the continuity-probe results of probe_line, the
twice-classified curves of reuse_line, the classification outcomes of
heavy_draws_line, the member documents of regular_members_line, and three
error paths, which no workload reaches:
bad_locus on (curve, q) pairs
that share a component, each outcome hashed as its exception class, exit
code, message and component; make_curve on curves with a repeated factor,
each outcome hashed as its exception class, exit code, message and
witness; and parse_poly on the malformed texts of PARSE_ERRORS, each
outcome hashed as its exception class, exit code, message and position.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

SEEDS = (5, 12, 2024)
JOBS = {"fuzz-shared": 300, "tower-split": 200, "singular-stress": 132}

# (factor the curve is multiplied by, denominator) over every base curve C;
# "{C}" is C itself: shared y-factors, a rational and an irrational vertical
# line
SHARED = (
    ("1", "({C})*(x + 3)"),
    ("1", "({C})*y"),
    ("x - 2", "x - 2"),
    ("x - 2", "(x - 2)*(y + 1)"),
    ("x^2 - 2", "x^2 - 2"),
    ("x^2 - 2", "(x^2 - 2)*y"),
    ("x^2 - 2", "(x^2 - 2)*(y - x)"),
)

# squares every base curve is multiplied by: a y-factor, a rational and an
# irrational vertical line, a mixed factor
SQUARES = ("(y + 1)^2", "(x - 2)^2", "(x^2 - 2)^2", "(y - x)^2")

# curves whose realness takes every route of certify_realness: a non-monic
# linear factor, y | F, rational and irrational vertical lines (real and
# not), y-degree 2 blocks and biquadratic blocks, certified at some budget
# or at none, irreducible or split through y^2 or a product of quadratics;
# reducible blocks that certify at no sample or only at a late one, a
# curve whose linear-factor search stops at F(4, y), and factors y - g
# with g(4) = 0, the only rational root of F(4, y) in the second
REALNESS_CURVES = (
    "(2*y - x)*(y^4 - x*y^2 + 1)",
    "y*(y^2 - x)",
    "y*(3*y - x^2 + 1)*(y^2 + x^2 + 1)",
    "(x - 2)*(y^2 + x^2 + 1)",
    "(x^2 - 2)*(y^2 - x^3 + 7)",
    "(x^2 + 1)*(x - 1/2)*(y^2 - x)",
    "y^2 - x + 20",
    "y^2 - x + 250",
    "y^2 + x^2 - 1/100",
    "y^2 - (x - 1)*(x^2 + 1)^2*(x^2 - 2)",
    "y^4 - 2*x^2 - 3",
    "y^4 + x^2 + 1",
    "y^4 - x*y^2 + x^2 + 5",
    "y^4 - 5*y^2 + 4 + x^2",
    "y^4 + 2*x*y^2 - 7",
    "y^4 - (x^2 + 2)*y^2 + 1",
    "y^4 - (x^2 - 2)*y^2 + 1",
    "(y^2 - x)*(y^2 + x^2 + 1)",
    "(y^4 + x^3)*(y^2 - (x - 2)*(x^2 + x + 1))",
    "(y^4 + x^2)*(y^2 - (x - 1)*(x - 2))",
    "(y^2 - x + 3)*(y^2 - x + 5)",
    "y^2 - x^2*(x + 1)",
    "(y - x + 4)*(y^2 - x)",
    "(y - x + 4)*(y^2 - x + 1)",
)
REALNESS_BUDGETS = (0, 1, 2, 16, 64, 399)

# fuzz-shared jobs (seed 2024) whose extensions present_morphism_line
# presents, and its check-morphism jobs (curve, u, v, function): the node
# y^2 = x^2*(x + 1), the cusp y^2 = x^3 and y^3 = x^2 by their
# parametrizations, and the node y^2 = x^2*(x + 2), whose fiber over (0, 0)
# has the irrational roots t = +-sqrt(2), so its witness is a fiber polynomial
PRESENT_JOBS = 60
MORPHISMS = (
    ("y^2 - x^3 - x^2", "t^2 - 1", "t^3 - t", "t"),
    ("y^2 - x^3 - x^2", "t^2 - 1", "t^3 - t", "t^2"),
    ("y^2 - x^3", "t^2", "t^3", "t"),
    ("y^2 - x^3", "t^2", "t^3", "t^2"),
    ("y^3 - x^2", "t^3", "t^2", "t"),
    ("y^2 - x^2*(x + 2)", "t^2 - 2", "t^3 - 2*t", "t"),
)

# tower-split and fuzz-shared jobs (seed 2024, each) whose functions
# probe_line probes
PROBE_JOBS = 40

# tower-split and fuzz-shared jobs (seed 2024, each) that reuse_line
# classifies twice on one curve, and how often it refines every embedding
# it was handed at each level between the two rounds
REUSE_JOBS = 40
REUSE_REFINES = 6

# criterion-6 draws whose denominator has several terms and degree 3, over
# the five worked curves in turn, that heavy_draws_line classifies: the
# fuzz-shared stream redraws them, and they hold the largest saturations;
# the ninth draw's denominator is a zero divisor on the fourth curve
HEAVY_DRAWS = 60
HEAVY_SEED = 5

# tower-split and fuzz-shared jobs (seed 2024, each) whose denominators q
# regular_members_line multiplies by each cofactor h of MEMBER_COFACTORS
# ("{q}" is q itself), so that p = q*h is a member of <F, q>
MEMBER_JOBS = 120
MEMBER_COFACTORS = ("y", "x + 1", "y^2 - 3", "({q})*y")

# malformed texts, one or more per error of the grammar; none has a zero
# denominator or a minus after a binary operator (the parser read 1/0 as a
# bare ZeroDivisionError and 2*-x^2 as 2*x^2 before both were fixed)
PARSE_ERRORS = (
    "", " ", "x +", "+", "-", "x y", "2x", "2(x+1)", "x(y)", "x^", "x^-2", "x ^ - 2",
    "x^y", "x^(2)", "x^1/2", "x^3/2*y", "(x + y", "x + y)", "()", "((x)", "z + 1",
    "x + $", "x = y", "x.5", "1/", "1/ 2", "1//2", "x/2", "x^\u00b2", "\u0663*x",
    "1/\u0663", "x**2", "*x", "x + * y", "^2", "x^2^3", "y^2 - x^3 +", "(y^2 - x^3)(x)",
    "y^2 - x^3*(x^2+1)^2)", "t + x", "1/2/3", "x^2 y^3",
)


def main(checkout):
    src = Path(checkout).resolve() / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[2] / "bench")]
    import curveclass
    import pipeline
    import workloads
    from curveclass import demo, report

    if Path(curveclass.__file__).resolve().parent != src / "curveclass":
        raise SystemExit(f"curveclass resolved outside {src}")
    for workload, count in JOBS.items():
        for seed in SEEDS:
            h = hashlib.sha256()
            for job in workloads.generate(workload, seed, count):
                text, _, _ = pipeline.RUNNERS[workload](job)
                h.update(text.encode() + b"\0")
            print(f"{workload} seed={seed} jobs={count} sha256={h.hexdigest()}", flush=True)
    for entry, doc, _, _ in demo.run_demo(probe=True):
        digest = hashlib.sha256(report.emit(doc, "machine").encode()).hexdigest()
        print(f"demo {entry.name} sha256={digest}", flush=True)
    print(realness_line(curveclass), flush=True)
    print(present_morphism_line(curveclass, workloads), flush=True)
    print(probe_line(curveclass, workloads), flush=True)
    print(reuse_line(curveclass, workloads), flush=True)
    print(heavy_draws_line(curveclass, workloads, pipeline), flush=True)
    print(regular_members_line(workloads, pipeline), flush=True)
    print(error_path_line(curveclass, workloads), flush=True)
    print(make_curve_error_line(curveclass, workloads), flush=True)
    print(parse_error_line(curveclass), flush=True)


def _base_curves(workloads):
    """The five worked curves and four tower-split curves (seed 2024)."""
    bases = list(workloads.FUZZ_CURVES)
    return bases + [job["curve"] for job in workloads.generate("tower-split", 2024, 4)]


def _outcome_digest(outcomes):
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.encode() + b"\0")
    return h.hexdigest()


def _error_outcome(curveclass, exc, attribute):
    shown = getattr(exc, attribute, None)
    shown = "" if shown is None else curveclass.format_poly(shown)
    return f"{type(exc).__name__} {exc.code} {exc} {shown}"


def realness_line(curveclass):
    """One digest over the machine documents of jobs.run_singular on each
    of REALNESS_CURVES at each of REALNESS_BUDGETS."""
    from curveclass import jobs, report

    docs = [report.emit(jobs.run_singular(curve, budget), "machine")
            for curve in REALNESS_CURVES for budget in REALNESS_BUDGETS]
    return f"realness curves={len(REALNESS_CURVES)} sha256={_outcome_digest(docs)}"


def present_morphism_line(curveclass, workloads):
    """One digest over the machine documents of jobs.run_present on the
    first PRESENT_JOBS fuzz-shared jobs of seed 2024, with the value 0 at
    each real bad point by index as bench/pipeline.py assigns, and of
    jobs.run_check_morphism on MORPHISMS; an error is hashed as its class
    and message."""
    from curveclass import jobs, report

    runs = []
    for job in workloads.generate("fuzz-shared", 2024, PRESENT_JOBS):
        curve = curveclass.make_curve(curveclass.parse_poly(job["curve"]))
        points = curveclass.bad_locus(curve, curveclass.parse_poly(job["denominator"]))
        values = [{"index": i, "value": "0"} for i, pt in enumerate(points) if pt.is_real]
        spec = jobs.JobSpec(job["curve"], job["numerator"], job["denominator"], values)
        runs.append((jobs.run_present, spec))
    runs += [(jobs.run_check_morphism, jobs.MorphismJob(*m)) for m in MORPHISMS]
    outcomes = []
    for run, spec in runs:
        try:
            outcomes.append(report.emit(run(spec), "machine"))
        except curveclass.CurveClassError as exc:
            outcomes.append(f"{type(exc).__name__} {exc}")
    return f"present-morphism jobs={len(runs)} sha256={_outcome_digest(outcomes)}"


def probe_line(curveclass, workloads):
    """One digest over probe_function(f)["points"] on the first PROBE_JOBS
    tower-split and fuzz-shared jobs of seed 2024, with the value 0 at each
    real bad point by index as bench/pipeline.py assigns: the repr of each
    point's result, the point shown by format_point, so every outcome, gap
    and width is hashed."""
    from curveclass import functions, parsing

    outcomes = []
    for workload in ("tower-split", "fuzz-shared"):
        for job in workloads.generate(workload, 2024, PROBE_JOBS):
            curve = curveclass.make_curve(curveclass.parse_poly(job["curve"]))
            q = curveclass.parse_poly(job["denominator"])
            points = curveclass.bad_locus(curve, q)
            values = [(i, Fraction(0)) for i, pt in enumerate(points) if pt.is_real]
            f = functions.make_function(curve, curveclass.parse_poly(job["numerator"]), q, values)
            results = functions.probe_function(f)["points"]
            outcomes.append(repr([(parsing.format_point(pt), r) for pt, r in results]))
    return f"probe jobs={len(outcomes)} sha256={_outcome_digest(outcomes)}"


def reuse_line(curveclass, workloads):
    """One digest over the machine documents of the bench/pipeline.py
    sequence (bad_locus, make_function, classify, emit) run twice on one
    curve per job, for the first REUSE_JOBS tower-split and fuzz-shared jobs
    of seed 2024.  Between the rounds every embedding the first round was
    handed (the bad_locus points and the function's) is refined
    REUSE_REFINES times at each level, so the second document changes if
    what a later call returns shares intervals with what an earlier one
    handed out."""
    from curveclass import functions, report

    docs = []
    for workload in ("tower-split", "fuzz-shared"):
        for job in workloads.generate(workload, 2024, REUSE_JOBS):
            F, p, q = (curveclass.parse_poly(job[k])
                       for k in ("curve", "numerator", "denominator"))
            curve = curveclass.make_curve(F)
            echo = {
                "curve": curveclass.format_poly(F),
                "numerator": curveclass.format_poly(p),
                "denominator": curveclass.format_poly(q),
            }
            for _ in range(2):
                points = curveclass.bad_locus(curve, q)
                real = [i for i, pt in enumerate(points) if pt.is_real]
                f = functions.make_function(curve, p, q, [(i, Fraction(0)) for i in real])
                echo["assignments"] = [{"point": f"#{i}", "value": "0"} for i in real]
                doc = report.classification_document(echo, functions.classify(f))
                docs.append(report.emit(doc, "machine"))
                for pt in points + f.bad_points:
                    for emb in pt.embeddings:
                        for k in range(emb.field.depth):
                            for _ in range(REUSE_REFINES):
                                emb.refine(k)
    return f"reuse jobs={len(docs) // 2} sha256={_outcome_digest(docs)}"


def heavy_draws_line(curveclass, workloads, pipeline):
    """One digest over the bench/pipeline.py machine documents of
    HEAVY_DRAWS criterion-6 draws (workloads._rand_terms, seeded by
    HEAVY_SEED) whose denominator has several terms and degree 3.  The
    fourth curve rejects a zero-divisor denominator: such an outcome is
    hashed as its exception class, exit code, message and component."""
    import random

    rng = random.Random(HEAVY_SEED)
    curves = workloads.FUZZ_CURVES
    outcomes = []
    while len(outcomes) < HEAVY_DRAWS:
        p, q = workloads._rand_terms(rng), workloads._rand_terms(rng)
        if not p or len(q) < 2 or max(i + j for i, j in q) != 3:
            continue
        job = {
            "curve": curves[len(outcomes) % len(curves)],
            "numerator": workloads.poly_text(p),
            "denominator": workloads.poly_text(q),
        }
        try:
            outcomes.append(pipeline.classify_job(job)[0])
        except curveclass.CurveClassError as exc:
            outcomes.append(_error_outcome(curveclass, exc, "component"))
    return f"heavy-draws jobs={len(outcomes)} sha256={_outcome_digest(outcomes)}"


def regular_members_line(workloads, pipeline):
    """One digest over the bench/pipeline.py machine documents of the
    first MEMBER_JOBS tower-split and fuzz-shared jobs of seed 2024 with
    the numerator q*h for each h of MEMBER_COFACTORS.  Each is a member of
    <F, q>, so its regular verdict turns on h = 0 at every real bad point,
    irrational and split ones included; the workloads hold no member with
    such a point."""
    docs = []
    for workload in ("tower-split", "fuzz-shared"):
        for job in workloads.generate(workload, 2024, MEMBER_JOBS):
            q = job["denominator"]
            for h in MEMBER_COFACTORS:
                member = dict(job, numerator=f"({q})*({h.format(q=q)})")
                docs.append(pipeline.classify_job(member)[0])
    return f"regular-members jobs={len(docs)} sha256={_outcome_digest(docs)}"


def error_path_line(curveclass, workloads):
    """One digest over bad_locus outcomes on pairs sharing a component: the
    base curves under SHARED, and the fourth worked curve's own component
    y - x^2."""
    bases = _base_curves(workloads)
    pairs = [(f"({c})*({extra})", q.format(C=c)) for c in bases for extra, q in SHARED]
    pairs.append((workloads.FUZZ_CURVES[3], "(y - x^2)*(x + 1)"))
    outcomes = []
    for curve, q in pairs:
        try:
            points = curveclass.bad_locus(curveclass.make_curve(curveclass.parse_poly(curve)),
                                          curveclass.parse_poly(q))
            outcomes.append(f"no error, {len(points)} points")
        except curveclass.CurveClassError as exc:
            outcomes.append(_error_outcome(curveclass, exc, "component"))
    return f"error-path pairs={len(pairs)} sha256={_outcome_digest(outcomes)}"


def make_curve_error_line(curveclass, workloads):
    """One digest over make_curve outcomes on the base curves times each of
    SQUARES: every one has a repeated factor, which the witness names."""
    curves = [f"({c})*{sq}" for c in _base_curves(workloads) for sq in SQUARES]
    outcomes = []
    for curve in curves:
        try:
            curveclass.make_curve(curveclass.parse_poly(curve))
            outcomes.append("no error")
        except curveclass.CurveClassError as exc:
            outcomes.append(_error_outcome(curveclass, exc, "witness"))
    return f"make-curve-error curves={len(curves)} sha256={_outcome_digest(outcomes)}"


def parse_error_line(curveclass):
    """One digest over parse_poly outcomes on the texts of PARSE_ERRORS."""
    outcomes = []
    for text in PARSE_ERRORS:
        try:
            curveclass.parse_poly(text)
            outcomes.append("no error")
        except curveclass.CurveClassError as exc:
            outcomes.append(f"{type(exc).__name__} {exc.code} {exc} {exc.position}")
    return f"parse-error texts={len(PARSE_ERRORS)} sha256={_outcome_digest(outcomes)}"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
