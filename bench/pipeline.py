"""One benchmark job, from its input text to its emitted machine document.

Only public functions of ``curveclass`` modules are called, through their
modules, so the traced pass sees every call it wraps.
"""

from fractions import Fraction

from curveclass import curves, functions, jobs, parsing, report


def classify_job(job):
    """parse -> make_curve -> bad_locus -> make_function -> classify ->
    classification_document -> emit(machine), with the value 0 assigned at
    every real bad point by index.  Returns (machine text, function,
    classification report)."""
    F = parsing.parse_poly(job["curve"])
    p = parsing.parse_poly(job["numerator"])
    q = parsing.parse_poly(job["denominator"])
    curve = curves.make_curve(F)
    points = curves.bad_locus(curve, q)
    real = [i for i, pt in enumerate(points) if pt.is_real]
    f = functions.make_function(curve, p, q, [(i, Fraction(0)) for i in real])
    rep = functions.classify(f)
    echo = {
        "curve": parsing.format_poly(F),
        "numerator": parsing.format_poly(p),
        "denominator": parsing.format_poly(q),
        "assignments": [{"point": f"#{i}", "value": "0"} for i in real],
    }
    doc = report.classification_document(echo, rep)
    return report.emit(doc, "machine"), f, rep


def singular_job(job):
    """jobs.run_singular -> emit(machine).  Returns (machine text, None,
    None) to match classify_job."""
    doc = jobs.run_singular(job["curve"])
    return report.emit(doc, "machine"), None, None


RUNNERS = {
    "fuzz-shared": classify_job,
    "tower-split": classify_job,
    "singular-stress": singular_job,
}
