"""curveclass benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload fuzz-shared --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  With ``--trace 0`` the jobs of the workload run closed-loop,
single-process and single-threaded, untraced, until ``--seconds`` of job
time (and at least MIN_JOBS jobs) have passed; the end-to-end metrics come
from that run.  With ``--trace 1`` a fixed list of TRACE_JOBS jobs runs
twice, each time in a fresh process: untraced, then traced.  The traced
pass gives the per-layer metrics, and the two together the tracing
overhead.

Every job's output is checked outside the timed region, and ``demo.run_demo``
must pass.  If any check fails the run prints the failures on stderr and
exits 1 without a result.  Otherwise the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Environment,
metrics and, for traced runs, spans are also written under ``bench_out/``.

See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"

DEFAULT_SEED = 2024  # the seed the expected outputs were recorded on
STREAM_JOBS = 5000  # jobs generated during set-up; a run stops when they run out
MIN_JOBS = 100  # p90 needs ten samples beyond it
TRACE_JOBS = {"fuzz-shared": 300, "tower-split": 200, "singular-stress": 132}
RECORD_JOBS = {"fuzz-shared": 2000, "tower-split": 1000, "singular-stress": 726}
SETUP_SAMPLES = 7
KIND = {"fuzz-shared": "classify", "tower-split": "classify", "singular-stress": "singular"}


def import_program():
    """Put this checkout's src/ first on sys.path and import curveclass
    from it; exit with a message when the checkout has no program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import curveclass
        import curveclass.jobs  # noqa: F401  (run_singular, used by the runners)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import curveclass from {src}: {exc}")
    if Path(curveclass.__file__).resolve().parent != src / "curveclass":
        raise SystemExit(f"bench: curveclass resolved outside {src}")


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def percentile_ms(times_s, pct):
    """pct-th percentile of job times in ms (exclusive method, as
    statistics.quantiles gives it).  Refused when fewer than ten samples
    lie beyond it."""
    n = len(times_s)
    if n * (100 - pct) < 10 * 100:
        raise ValueError(f"p{pct} of {n} samples has fewer than 10 beyond it")
    return statistics.quantiles([t * 1000.0 for t in times_s], n=100)[pct - 1]


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed):
    """Import the program and generate the workload's job texts."""
    import_program()
    import workloads

    return workloads.generate(workload, seed, STREAM_JOBS)


def _child(*args):
    """Run this script with args in a fresh interpreter and return the
    JSON object on the last line of its stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench child {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed):
    """Median of SETUP_SAMPLES set-ups, each in a fresh process, and the
    slowdown sampled between them."""
    import speed

    probe = speed.SpeedProbe()
    times = []
    for _ in range(SETUP_SAMPLES):
        probe.sample()
        times.append(_child("--setup-probe", "--workload", workload, "--seed", str(seed))["setup_s"])
    return statistics.median(times), probe.slowdown()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """A closed loop over a job list: each job is timed, then its output is
    checked and the machine's speed sampled, untimed.  With a tracer, each
    job runs under a root span."""

    def __init__(self, workload, expected=None, tracer=None):
        import checks
        import pipeline
        import speed

        self.checks = checks
        self.run = pipeline.RUNNERS[workload]
        self.kind = KIND[workload]
        self.expected = expected
        self.tracer = tracer
        self.times = []  # wall time of each completed job, s
        self.busy = 0.0  # their sum
        self.attempted = 0
        self.failed = 0  # jobs that raised
        self.failures = []  # failed checks and raised jobs: the run is wrong
        self.digest = hashlib.sha256()
        self.probe = speed.SpeedProbe()

    def job(self, index, job):
        """Run and check one job; returns its compared summary, or None
        when it raised.  No workload expects an error, so one fails the run."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                text, f, rep = self.run(job)
            else:
                text, f, rep = self.tracer.run_job(index, self.run, job)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"job {index} {json.dumps(job)}: raised "
                                 f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.busy += dt
        self.digest.update(text.encode())
        summary = self._check(index, job, text, f, rep)
        self.probe.after(dt)
        return summary

    def _check(self, index, job, text, f, rep):
        c = self.checks
        data = json.loads(text)
        if self.kind == "singular":
            errs = c.check_singular(data)
        else:
            errs = c.check_classification(data, f, rep)
        errs += c.compare_expected(self.kind, index, data, self.expected)
        self.failures.extend(f"job {index} {json.dumps(job)}: {e}" for e in errs)
        return c.summary(self.kind, data)

    def run_for(self, jobs, seconds, cycle):
        """Jobs in order until `seconds` of job time and MIN_JOBS jobs have
        passed, stopping at the end of a cycle of the stream, or at the
        first failure."""
        for index, job in enumerate(jobs):
            if self.failures:
                break
            if self.busy >= seconds and self.attempted >= MIN_JOBS and index % cycle == 0:
                break
            self.job(index, job)

    def outcome(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "jobs_per_s": len(self.times) / self.busy if self.busy else 0.0,
            "slowdown": self.probe.slowdown(),
            "digest": self.digest.hexdigest(),
        }


def fixed_pass(workload, seed, traced, count):
    """The first `count` jobs, checked, optionally traced.  Returns the
    pass outcome and, when traced, the per-layer metrics; the spans go to
    bench_out/."""
    jobs = setup(workload, seed)[:count]
    tr = None
    if traced:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    p = Pass(workload, load_expected(workload, seed), tr)
    try:
        for index, job in enumerate(jobs):
            p.job(index, job)
    finally:
        if tr is not None:
            tr.uninstall()
    out = p.outcome()
    if tr is not None:
        OUT.mkdir(exist_ok=True)
        tr.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv")
        out["layers"] = tracer.summarize(tr, len(jobs))
    return out


# ---------------------------------------------------------------------------
# gate and report
# ---------------------------------------------------------------------------

def demo_failures():
    from curveclass import demo

    return [
        f"demo {entry.name}: {'; '.join(fails)}"
        for entry, _, passed, fails in demo.run_demo()
        if not passed
    ]


def expected_path(workload):
    return BENCH / "expected" / f"{workload}.json"


def load_expected(workload, seed):
    """The workload's recorded summaries when seed is the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def fail(failures):
    for line in failures[:50]:
        print(f"bench: FAIL {line}", file=sys.stderr)
    if len(failures) > 50:
        print(f"bench: ... and {len(failures) - 50} more", file=sys.stderr)
    return 1


def declared(trace):
    """The metrics BENCHMARK.json lists for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(out, metrics, env, notes, args):
    """Print every metric BENCHMARK.json lists, by name with its unit, and
    error_frac; then the result object as the last line.  The result with
    every metric measured, the environment and the notes goes to
    bench_out/."""
    shown = {}
    for spec in declared(args.trace):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, declared {spec['unit']}")
        shown[spec["name"]] = {"value": value, "unit": unit}
    result = {"correct": True, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": shown}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, **result,
                   "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    for line in notes:
        print(f"# {line}")
    print(f"error_frac {out['failed'] / out['attempted']:.6g} frac")
    for key, m in shown.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def measure(args):
    """The end-to-end run (trace 0) or the traced comparison (trace 1).
    Returns (pass outcome, metrics {name: (value, unit)}, notes)."""
    if args.trace == 0:
        jobs = setup(args.workload, args.seed)
        setup_s, setup_slowdown = setup_seconds(args.workload, args.seed)
        import workloads

        p = Pass(args.workload, load_expected(args.workload, args.seed))
        p.run_for(jobs, args.seconds, workloads.CYCLE[args.workload])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = p.outcome()
        if len(p.times) < MIN_JOBS:
            out["failures"].append(f"only {len(p.times)} jobs completed; need {MIN_JOBS}")
            return out, {}, []
        k = out["slowdown"]
        raw = {
            "jobs_per_s": (out["jobs_per_s"], "1/s"),
            "job_ms_p50": (statistics.median(p.times) * 1000.0, "ms"),
            "job_ms_p90": (percentile_ms(p.times, 90), "ms"),
            "setup_s": (setup_s, "s"),
        }
        metrics = {
            "jobs_per_s": (raw["jobs_per_s"][0] * k, "1/s"),
            "job_ms_p50": (raw["job_ms_p50"][0] / k, "ms"),
            "job_ms_p90": (raw["job_ms_p90"][0] / k, "ms"),
            "setup_s": (setup_s / setup_slowdown, "s"),
            "peak_rss_mb": (rss, "MB"),
            "slowdown": (k, "x"),
            "setup_slowdown": (setup_slowdown, "x"),
        }
        metrics.update({f"{name}.raw": value for name, value in raw.items()})
        notes = [f"{len(p.times)} jobs timed over {p.busy:.3f} s of job time",
                 f"slowdown {k:.4f} during the jobs, {setup_slowdown:.4f} during set-up; "
                 f"uncorrected: " + ", ".join(f"{n} {v:.6g} {u}" for n, (v, u) in raw.items())]
        return out, metrics, notes

    import_program()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = _child("--fixed-pass", "0", *common)
    traced = _child("--fixed-pass", "1", *common)
    out = dict(plain)
    out["failures"] = plain["failures"] + traced["failures"]
    if plain["digest"] != traced["digest"]:
        out["failures"].append("traced outputs differ from untraced outputs")
    k = traced["slowdown"]
    metrics = {name: (v / k if u == "ms" else v, u) for name, (v, u) in traced["layers"].items()}
    metrics["trace_overhead_frac"] = (
        traced["jobs_per_s"] * k / (plain["jobs_per_s"] * plain["slowdown"]) - 1.0, "frac")
    notes = [f"{TRACE_JOBS[args.workload]} jobs: untraced {plain['jobs_per_s']:.4f} jobs/s "
             f"(slowdown {plain['slowdown']:.4f}), traced {traced['jobs_per_s']:.4f} jobs/s "
             f"(slowdown {k:.4f}); per-layer ms are corrected by the traced slowdown"]
    return out, metrics, notes


def record(workload):
    """Write bench/expected/<workload>.json from the default seed: each
    job's compared summary.  Refuses to record outputs that fail their
    checks."""
    jobs = setup(workload, DEFAULT_SEED)[: RECORD_JOBS[workload]]
    p = Pass(workload)
    summaries = [p.job(index, job) for index, job in enumerate(jobs)]
    if p.failures:
        return fail(p.failures)
    path = expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": DEFAULT_SEED, "jobs": summaries}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {len(summaries)} jobs to {path.relative_to(ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(KIND))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the expected outputs of the default seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--fixed-pass", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.fixed_pass is not None:
        out = fixed_pass(args.workload, args.seed, args.fixed_pass, TRACE_JOBS[args.workload])
        print(json.dumps(out))
        return 0
    if args.record:
        return record(args.workload)

    env = environment(args.seed)
    out, metrics, notes = measure(args)
    failures = out["failures"] + demo_failures()
    if failures:
        return fail(failures)
    notes.insert(0, f"jobs {out['attempted']} attempted, {out['failed']} failed")
    report(out, metrics, env, notes, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
