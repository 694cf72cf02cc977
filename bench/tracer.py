"""Outside-in tracing of curveclass: spans around calls into each module's
public functions, recorded from the benchmark's own files.

``Tracer.install`` replaces every traced function, in every ``curveclass``
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent, job id).  Calls a module makes to its own functions go
through its namespace, so they are traced too.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

A layer's self time is the time its spans cover minus the part covered by
their child spans; a function's ``.ms`` is the inclusive time of its
outermost spans (a span nested inside a span of the same name is not
counted twice).
"""

import sys
import time
from collections import Counter, defaultdict

# layer (module) -> public functions wrapped in it: those the workloads call,
# so that their time is charged to their own layer
TRACED = {
    "parsing": ("parse_poly", "format_poly", "format_point", "format_value"),
    "mpoly": (
        "buchberger", "normal_form", "spoly", "saturate_gb", "monic_in_t_witness",
        "lift_membership", "specialize_to_t", "eval_at",
    ),
    "functions": (
        "make_function", "graph_ideal", "fiber_report", "fiber_table", "is_regular",
        "is_integral", "graph_real_closed", "in_KRplus", "in_Kplus", "classify",
    ),
    "curves": (
        "make_curve", "bad_locus", "singular_locus", "solve_xy_system",
        "certify_realness", "run_with_splits", "specialize_x",
    ),
    "numfield": (
        "tower_sturm_count", "isolate_tower_roots", "is_zero_or_split",
        "extend_field", "field_from_qpoly",
    ),
    "unipoly": (
        "upoly_gcd", "squarefree_part", "sturm_count", "isolate_real_roots", "rational_roots",
    ),
    "bipoly": ("bivariate_gcd", "resultant_y", "squarefree_part_y", "bivariate_divexact_y"),
    "report": ("classification_document", "singular_locus_document", "fiber_rows", "emit"),
    "jobs": ("run_singular",),
}

JOB = "job"  # name and layer of the root span the harness opens per job


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, job]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.splits = 0
        self.spair_reductions = 0
        self.spair_zero = 0
        self.bases = []  # (job, GroebnerBasis) returned by buchberger
        self._last_spoly = None
        self._patched = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, orig, after=None):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:  # outside a job, e.g. an output check
                return orig(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = orig
        return traced

    def _after_spoly(self, args, result):
        self._last_spoly = result

    def _after_normal_form(self, args, result):
        if args and args[0] is self._last_spoly:
            self._last_spoly = None
            self.spair_reductions += 1
            rem = result[0] if isinstance(result, tuple) else result
            if not rem:
                self.spair_zero += 1

    def _after_buchberger(self, args, result):
        self.bases.append((self.job, result))

    def _after_run_with_splits(self, args, result):
        # run_with_splits retries each piece through itself; count the
        # branches once, where the outermost call returns them
        if self.stack and self.spans[self.stack[-1]][0] == "curves.run_with_splits":
            return
        self.splits += len(result) - 1

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) under a root span for one job."""
        self.job = job_id
        span = [JOB, 0.0, 0.0, -1, job_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.job = None

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "mpoly.spoly": self._after_spoly,
            "mpoly.normal_form": self._after_normal_form,
            "mpoly.buchberger": self._after_buchberger,
            "curves.run_with_splits": self._after_run_with_splits,
        }
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "curveclass" or n.startswith("curveclass."))
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"curveclass.{layer}"]
            for fname in names:
                qual = f"{layer}.{fname}"
                orig = getattr(module, fname)
                wrapper = self._wrap(qual, orig, hooks.get(qual))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Spans as tab-separated lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost(spans):
    """Flags: True where no ancestor span has the same name."""
    flags = []
    for name, _, _, parent, _ in spans:
        ok = True
        while parent >= 0:
            if spans[parent][0] == name:
                ok = False
                break
            parent = spans[parent][3]
        flags.append(ok)
    return flags


def coeff_bits(basis):
    """Largest numerator or denominator bit length among the coefficients."""
    bits = 0
    for g in basis:
        for c in g.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def summarize(tracer, n_jobs):
    """Per-layer metrics as per-job means (spair_zero_frac is a ratio over
    the whole pass).  Returns {metric: (value, unit)}."""
    spans = tracer.spans
    selfs = self_times(spans)
    outer = outermost(spans)
    self_ms = Counter()
    calls = Counter()
    incl_ms = Counter()
    for span, st, top in zip(spans, selfs, outer):
        name = span[0]
        self_ms[layer_of(name)] += st * 1000.0
        calls[name] += 1
        if top:
            incl_ms[name] += (span[2] - span[1]) * 1000.0

    per_job_len = defaultdict(list)
    per_job_bits = defaultdict(int)
    for job, gb in tracer.bases:
        per_job_len[job].append(len(gb))
        per_job_bits[job] = max(per_job_bits[job], coeff_bits(gb.basis))
    lens = [n for v in per_job_len.values() for n in v]

    n = max(n_jobs, 1)
    m = {}
    for layer in TRACED:
        m[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms")
        for fname in TRACED[layer]:
            qual = f"{layer}.{fname}"
            m[f"{qual}.calls"] = (calls[qual] / n, "count")
            m[f"{qual}.ms"] = (incl_ms[qual] / n, "ms")
    m["harness.self_ms"] = (self_ms[JOB] / n, "ms")
    m["mpoly.spairs"] = (calls["mpoly.spoly"] / n, "count")
    m["mpoly.spair_zero_frac"] = (
        tracer.spair_zero / tracer.spair_reductions if tracer.spair_reductions else 0.0,
        "frac",
    )
    m["mpoly.basis_len"] = (sum(lens) / len(lens) if lens else 0.0, "count")
    m["mpoly.coeff_bits_max"] = (sum(per_job_bits.values()) / n, "bits")
    m["curves.splits"] = (tracer.splits / n, "count")
    return m
