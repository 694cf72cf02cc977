"""Report documents: one canonical machine format (JSON, stable key order,
polynomials as canonical strings) and an aligned human rendering.

The machine document round-trips losslessly and is byte-identical across
runs for identical jobs; wall-clock timing therefore lives only on the
side of the human output.
"""

import json
from fractions import Fraction

from .curves import BadPoint
from .mpoly import MPoly
from .numfield import NFElement
from .parsing import _nf_to_mpoly, format_point, format_poly, format_value


class ReportDocument:
    """Ordered plain data plus out-of-band timing."""

    __slots__ = ("data", "timing")

    def __init__(self, data, timing=None):
        self.data = data
        self.timing = timing

    def __eq__(self, other):
        return isinstance(other, ReportDocument) and self.data == other.data


def fiber_rows(fibers):
    rows = []
    for rep in fibers:
        rows.append(
            {
                "point": format_point(rep.point),
                "real": rep.point.is_real,
                "distinct_complex": rep.distinct_complex,
                "distinct_real": rep.distinct_real,
                "singleton": None if rep.singleton is None else format_value(rep.singleton),
                "matches": rep.matches_assigned,
            }
        )
    return rows


def classification_document(job_echo, classification, probe=None,
                            timing=None) -> ReportDocument:
    cert = {
        "integral_relation": _maybe_poly(classification.integral_relation),
        "regular_witness": _maybe_poly(classification.regular_witness),
        "failure_witnesses": _witness_strings(classification.failure_witnesses),
    }
    data = {
        "curve": job_echo["curve"],
        "function": {
            "numerator": job_echo["numerator"],
            "denominator": job_echo["denominator"],
            "assignments": job_echo["assignments"],
        },
        "verdicts": {
            "regular": classification.verdicts["regular"],
            "k_plus": classification.verdicts["k_plus"],
            "k_r_plus": classification.verdicts["k_r_plus"],
            "integral": classification.verdicts["integral"],
        },
        "certificates": cert,
        "fibers": fiber_rows(classification.fibers),
        "caveats": list(classification.caveats),
    }
    if probe is not None:
        data["probe"] = probe
    return ReportDocument(data, timing)


def presentation_document(job_echo, pres, timing=None) -> ReportDocument:
    data = {
        "curve": job_echo["curve"],
        "function": {
            "numerator": job_echo["numerator"],
            "denominator": job_echo["denominator"],
            "assignments": job_echo["assignments"],
        },
        "presentation": presentation_payload(pres),
        "caveats": [],
    }
    return ReportDocument(data, timing)


def presentation_payload(pres):
    return {
        "generators": list(pres.generators),
        "relations": [format_poly(g) for g in pres.relations],
        "integral_relation": _maybe_poly(pres.integral_relation),
        "birational": pres.birational,
        "fibers": fiber_rows(pres.fibers),
    }


def singular_locus_document(curve_text, points, caveats=(), timing=None) -> ReportDocument:
    rows = []
    for pt in points:
        rows.append(
            {
                "point": format_point(pt),
                "real": pt.is_real,
                "real_embeddings": len(pt.embeddings),
                "class_size": pt.class_size,
            }
        )
    data = {
        "curve": curve_text,
        "singular_points": rows,
        "caveats": list(caveats),
    }
    return ReportDocument(data, timing)


def morphism_document(job_echo, result, timing=None) -> ReportDocument:
    witnesses = []
    for pt, detail in result["witnesses"]:
        row = {"point": format_point(pt)}
        if detail and detail.get("values"):
            row["fiber_values"] = [
                {"parameter": format_value(r), "value": format_value(v)}
                for r, v in detail["values"]
            ]
        elif detail:
            row["fiber_poly"] = _tower_poly_str(detail["fiber_poly"])
        witnesses.append(row)
    data = {
        "curve": job_echo["curve"],
        "map": job_echo["map"],
        "function": job_echo.get("function"),
        "finite": result["finite"],
        "constant_on_real_fibers": result["constant_on_real_fibers"],
        "non_isomorphism_locus": [
            {
                "point": format_point(pt),
                "real": pt.is_real,
                "class_size": pt.class_size,
            }
            for pt in result["locus"]
        ],
        "witnesses": witnesses,
        "caveats": [],
    }
    return ReportDocument(data, timing)


def _tower_poly_str(u):
    acc = MPoly()
    t = MPoly.var("t")
    for k, c in enumerate(u.coeffs):
        if isinstance(c, NFElement):
            acc = acc + _nf_to_mpoly(c) * t**k
        else:
            acc = acc + MPoly.const(Fraction(c)) * t**k
    return format_poly(acc)


def _maybe_poly(p):
    return None if p is None else format_poly(p)


def _witness_strings(failure):
    """Flatten failure witnesses into stable strings."""
    out = {}
    for verdict, detail in failure.items():
        out[verdict] = _stringify(detail)
    return out


def _stringify(obj):
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, BadPoint):
        return format_point(obj)
    if isinstance(obj, MPoly):
        return format_poly(obj)
    if isinstance(obj, Fraction):
        return format_value(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(doc: ReportDocument, format="human") -> str:
    if format == "machine":
        return json.dumps(doc.data, indent=2, ensure_ascii=False) + "\n"
    if format == "human":
        return _emit_human(doc)
    raise ValueError(f"unknown format {format!r}")


def parse_machine(text) -> ReportDocument:
    return ReportDocument(json.loads(text))


def _emit_human(doc: ReportDocument) -> str:
    d = doc.data
    lines = []
    lines.append(f"curve        {d['curve']}")
    if "function" in d and d.get("function"):
        fn = d["function"]
        if isinstance(fn, dict):
            lines.append(f"function     ({fn['numerator']}) / ({fn['denominator']})")
            for a in fn["assignments"]:
                lines.append(f"  value {a['value']} at {a['point']}")
        else:
            lines.append(f"function     {fn}")
    if "map" in d:
        lines.append(f"map          t -> ({d['map'][0]}, {d['map'][1]})")
    if "verdicts" in d:
        lines.append("verdicts")
        for name in ("regular", "k_plus", "k_r_plus", "integral"):
            lines.append(f"  {name:<10} {d['verdicts'][name]}")
        cert = d["certificates"]
        if cert["integral_relation"]:
            lines.append(f"certificate  P(t) = {cert['integral_relation']}")
        if cert["regular_witness"]:
            lines.append(f"cofactor     h = {cert['regular_witness']}")
    if d.get("fibers"):
        lines.append("fibers")
        header = f"  {'point':<28} {'real':<5} {'#C':<3} {'#R':<4} {'singleton':<12} matches"
        lines.append(header)
        for row in d["fibers"]:
            lines.append(
                "  {:<28} {:<5} {:<3} {:<4} {:<12} {}".format(
                    row["point"],
                    "yes" if row["real"] else "no",
                    row["distinct_complex"],
                    "-" if row["distinct_real"] is None else row["distinct_real"],
                    "-" if row["singleton"] is None else row["singleton"],
                    {True: "yes", False: "no", None: "-"}[row["matches"]],
                )
            )
    if d.get("singular_points"):
        lines.append("singular points")
        for row in d["singular_points"]:
            tag = "real" if row["real"] else "non-real"
            lines.append(
                f"  {row['point']:<40} {tag:<9} class size {row['class_size']}"
            )
    if "finite" in d:
        lines.append(f"finite       {'yes' if d['finite'] else 'no'}")
        lines.append(
            f"constant on real fibers  {'yes' if d['constant_on_real_fibers'] else 'no'}"
        )
        for row in d.get("witnesses", []):
            vals = row.get("fiber_values")
            if vals:
                pairs = ", ".join(f"t={v['parameter']} -> {v['value']}" for v in vals)
                lines.append(f"  witness at {row['point']}: {pairs}")
            else:
                lines.append(f"  witness at {row['point']}: fiber {row.get('fiber_poly')}")
    if "presentation" in d and d.get("presentation"):
        pres = d["presentation"]
        lines.append("presentation Q[x, y, t] modulo")
        for rel in pres["relations"]:
            lines.append(f"  {rel}")
        lines.append(f"  birational: {'yes' if pres['birational'] else 'no'}")
    if "probe" in d and d.get("probe"):
        lines.append(f"probe        {d['probe']['outcome']}")
        for row in d["probe"].get("points", []):
            lines.append(f"  {row['point']}: {row['outcome']}")
    for c in d.get("caveats", ()):
        lines.append(f"caveat       {c}")
    if doc.timing is not None:
        lines.append(f"time         {doc.timing:.3f} s")
    return "\n".join(lines) + "\n"
