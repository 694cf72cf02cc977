"""Job specifications and the classification pipeline they drive."""

import time
from dataclasses import dataclass

from .curves import make_curve, make_parametrization, fiber_constancy_check
from .errors import JobError
from .functions import classify, make_function, present_extension, probe_function
from .parsing import format_point, format_poly, format_value, parse_poly, parse_upoly
from .report import (
    ReportDocument,
    classification_document,
    morphism_document,
    presentation_document,
    singular_locus_document,
)


@dataclass
class JobSpec:
    curve_expr: str
    num_expr: str
    den_expr: str
    assignments: list  # of {"point": [x, y], "value": expr} or {"index": i, ...}
    realness_budget: int = 64
    probe: bool = False

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise JobError("a job must be a JSON object")
        try:
            exprs = [d[k] for k in ("curve", "numerator", "denominator")]
        except KeyError as missing:
            raise JobError(f"job is missing the {missing} field")
        if not all(isinstance(e, str) for e in exprs):
            raise JobError("curve, numerator and denominator must be strings")
        assignments = d.get("assignments", [])
        if not isinstance(assignments, list):
            raise JobError("assignments must be a list")
        budget = _json_int(d.get("realness_budget", 64), "realness_budget")
        if budget < 0:
            raise JobError("realness_budget must be nonnegative")
        probe = d.get("probe", False)
        if not isinstance(probe, bool):
            raise JobError("probe must be true or false")
        return cls(*exprs, assignments, budget, probe)


def _json_int(raw, name):
    """raw read as an integer: an int, an integral float or a string of
    ASCII digits, signed or space-padded; JobError otherwise."""
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise JobError(f"{name} must be an integer")
    # int() would truncate 2.7 to 2, read true as 1, and read '٣' and '1_0'
    # as 3 and 10
    if isinstance(raw, bool) or (
        (not raw.isascii() or "_" in raw) if isinstance(raw, str) else value != raw
    ):
        raise JobError(f"{name} must be an integer")
    return value


def _json_pair(raw):
    """raw, a JSON array of two items; ValueError otherwise (a string or an
    object of two items would unpack too)."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ValueError("not a two-item array")
    return raw


def _parse_locator_value(entry):
    if not isinstance(entry, dict) or "value" not in entry:
        raise JobError("an assignment must be an object with a 'value'")
    if "index" in entry:
        locator = _json_int(entry["index"], "an assignment's index")
    elif "point" in entry:
        try:
            px, py = _json_pair(entry["point"])
            locator = tuple(parse_poly(_expr_text(c, "a point coordinate"), ()).constant_value()
                            for c in (px, py))
        except (TypeError, ValueError):
            raise JobError("an assignment's point must be [x, y]")
    else:
        raise JobError("assignment needs a 'point' or an 'index'")
    value = parse_poly(_expr_text(entry["value"], "an assignment's value"), ("x", "y"))
    return locator, value


def _expr_text(raw, what):
    """raw, a string or an int (not a bool), as parser text; JobError for
    the rest, which str() would spell True, None or 1000.0."""
    if isinstance(raw, str) or type(raw) is int:
        return str(raw)
    raise JobError(f"{what} must be a string or an integer, not {raw!r}")


def _echo(job: JobSpec):
    """The parsed curve, numerator, denominator and (locator, value)
    assignment pairs, with the canonicalized echo of the job (stable across
    reruns)."""
    curve = parse_poly(job.curve_expr)
    p = parse_poly(job.num_expr)
    q = parse_poly(job.den_expr)
    pairs = [_parse_locator_value(entry) for entry in job.assignments]
    assignments = []
    for locator, value in pairs:
        if isinstance(locator, int):
            point = f"#{locator}"
        else:
            point = f"({format_value(locator[0])}, {format_value(locator[1])})"
        assignments.append({"point": point, "value": format_poly(value)})
    return curve, p, q, pairs, {
        "curve": format_poly(curve),
        "numerator": format_poly(p),
        "denominator": format_poly(q),
        "assignments": assignments,
    }


def build_function(job: JobSpec):
    curve_poly, p, q, pairs, echo = _echo(job)
    curve = make_curve(curve_poly)
    f = make_function(curve, p, q, pairs)
    return f, echo


def run_classify(job: JobSpec) -> ReportDocument:
    """Full pipeline: curve validation, realness certification, function
    validation, classification, optional continuity probe."""
    t0 = time.monotonic()
    f, echo = build_function(job)
    rep = classify(f, realness_budget=job.realness_budget)
    probe = None
    if job.probe:
        raw = probe_function(f)
        probe = {
            "outcome": raw["outcome"],
            "points": [
                {"point": format_point(pt), "outcome": r["outcome"]}
                for pt, r in raw.get("points", [])
            ],
        }
    return classification_document(echo, rep, probe=probe, timing=time.monotonic() - t0)


def run_present(job: JobSpec) -> ReportDocument:
    t0 = time.monotonic()
    f, echo = build_function(job)
    pres = present_extension(f)
    return presentation_document(echo, pres, timing=time.monotonic() - t0)


def run_singular(curve_expr: str, realness_budget=64) -> ReportDocument:
    t0 = time.monotonic()
    curve_poly = parse_poly(curve_expr)
    curve = make_curve(curve_poly)
    pts = curve.singular_locus()
    caveats = [
        f"realness unverified for a curve factor ({note})"
        for note in curve.realness(realness_budget).unverified_notes()
    ]
    return singular_locus_document(
        format_poly(curve_poly), pts, caveats, timing=time.monotonic() - t0
    )


@dataclass
class MorphismJob:
    curve_expr: str
    u_expr: str
    v_expr: str
    p_expr: str = "t"

    @classmethod
    def from_dict(cls, d):
        try:
            u, v = _json_pair(d["map"])
            exprs = (d["curve"], u, v, d.get("function", "t"))
        except (KeyError, TypeError, ValueError):
            exprs = None
        if exprs is None or not all(isinstance(e, str) for e in exprs):
            raise JobError("morphism job needs 'curve' and 'map': [u, v], all strings")
        return cls(*exprs)


def run_check_morphism(job: MorphismJob) -> ReportDocument:
    t0 = time.monotonic()
    curve = make_curve(parse_poly(job.curve_expr))
    u = parse_upoly(job.u_expr, "t")
    v = parse_upoly(job.v_expr, "t")
    p = parse_upoly(job.p_expr, "t")
    pi = make_parametrization(curve, u, v)
    result = fiber_constancy_check(pi, p)
    echo = {
        "curve": format_poly(curve.F),
        "map": [job.u_expr, job.v_expr],
        "function": job.p_expr,
    }
    return morphism_document(echo, result, timing=time.monotonic() - t0)
