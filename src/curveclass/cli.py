"""Command-line interface.

Subcommands: classify, fibers, present, check-morphism, demo.  Jobs are
JSON files; results are emitted as an aligned human table or as the
canonical machine document (byte-stable across runs).  Verdict "no" is a
result, not an error: the exit code is nonzero only for input errors,
with stable codes per error class (see errors.py); _run_jobs sets the
policy for a failing job in a --batch run.
"""

import argparse
import json
import sys
from pathlib import Path

from .demo import run_demo
from .errors import CurveClassError, JobError
from .jobs import JobSpec, MorphismJob, run_classify, run_check_morphism, run_present
from .report import ReportDocument, emit


def _read_input(path):
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise JobError(f"cannot read input: {exc}")
    except UnicodeDecodeError as exc:
        raise JobError(f"input is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise JobError(f"input is not valid JSON: {exc}")


def _error_line(exc):
    return f"error[{exc.code}]: {exc}\n"


def _emit_documents(docs, fmt, batch):
    """Write documents; a CurveClassError among them (a failed batch job)
    is written as an error entry in its place."""
    if batch and fmt == "machine":
        payload = [
            {"error": {"code": d.code, "message": str(d)}}
            if isinstance(d, CurveClassError) else d.data
            for d in docs
        ]
        sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
        return
    sep = ""
    for d in docs:
        sys.stdout.write(sep)
        sys.stdout.write(_error_line(d) if isinstance(d, CurveClassError) else emit(d, fmt))
        sep = "-" * 64 + "\n" if fmt == "human" else ""


def _run_jobs(run, args):
    """Run run(item) on the input job, or on each job of a --batch array.
    A batch job that raises CurveClassError is reported on stderr and in
    its place in the output; the other jobs still run, and the process
    exits with the first failing job's code once the output is written."""
    raw = _read_input(args.input)
    jobs = raw if args.batch else [raw]
    if not isinstance(jobs, list):
        raise JobError("--batch expects a JSON array of jobs")
    docs = []
    for item in jobs:
        try:
            docs.append(run(item))
        except CurveClassError as exc:
            if not args.batch:
                raise
            sys.stderr.write(_error_line(exc))
            docs.append(exc)
    _emit_documents(docs, args.format, args.batch)
    failed = [d.code for d in docs if isinstance(d, CurveClassError)]
    if failed:
        sys.exit(failed[0])


def _job_runner(runner, args):
    """Run jobs from the input; --realness-budget, when given, overrides
    the job file's field."""
    def run(item):
        job = JobSpec.from_dict(item)
        if args.realness_budget is not None:
            job.realness_budget = args.realness_budget
        return runner(job)

    _run_jobs(run, args)


def cmd_classify(args):
    def runner(job):
        if args.probe is not None:  # --probe/--no-probe, when given
            job.probe = args.probe
        return run_classify(job)

    _job_runner(runner, args)


def cmd_fibers(args):
    def runner(job):
        job.probe = False  # the fibers document has no probe section
        doc = run_classify(job)
        slim = {
            "curve": doc.data["curve"],
            "function": doc.data["function"],
            "fibers": doc.data["fibers"],
            "caveats": doc.data["caveats"],
        }
        return ReportDocument(slim, doc.timing)

    _job_runner(runner, args)


def cmd_present(args):
    _run_jobs(lambda item: run_present(JobSpec.from_dict(item)), args)


def cmd_check_morphism(args):
    _run_jobs(lambda item: run_check_morphism(MorphismJob.from_dict(item)), args)


def cmd_demo(args):
    results = run_demo(probe=bool(args.probe))
    docs = []
    failures = 0
    for entry, doc, passed, problems in results:
        docs.append(doc)
        status = "PASS" if passed else "FAIL"
        if args.format == "human":
            sys.stdout.write(f"== {entry.name}: {status}\n")
            for p in problems:
                sys.stdout.write(f"   {p}\n")
        if not passed:
            failures += 1
    _emit_documents(docs, args.format, batch=(args.format == "machine"))
    if failures:
        sys.stderr.write(f"{failures} demo entries disagree with the expected table\n")
        sys.exit(1)


def _budget(text):
    """argparse type of --realness-budget: a nonnegative integer in ASCII
    digits (str.isdecimal alone accepts '٣' and '３')."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {text!r}")
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="curveclass",
        description="Classify rational functions on real plane curves into the "
        "regular / continuous-closure / real-closure / integral hierarchy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, jobs=True, budget=True, probe=True):
        """A subcommand with only the flags fn reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if jobs:
            p.add_argument("--input", required=True, help="job file (JSON), or - for stdin")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        if budget:
            # unset unless given: a job's own field (default 64) applies
            p.add_argument("--realness-budget", type=_budget, default=None)
        if probe:
            # unset unless given: a job's own field (default off) applies
            flag = p.add_mutually_exclusive_group()
            flag.add_argument("--probe", dest="probe", action="store_true")
            flag.add_argument("--no-probe", dest="probe", action="store_false")
            p.set_defaults(probe=None)
        if jobs:
            p.add_argument("--batch", action="store_true", help="input is a JSON array of jobs")

    add("classify", cmd_classify, "full verdict hierarchy with certificates")
    add("fibers", cmd_fibers, "fiber table over the bad locus", probe=False)
    add("present", cmd_present, "presentation of the glued variety R[X][f]",
        budget=False, probe=False)
    add("check-morphism", cmd_check_morphism, "fiber constancy over a parametrization",
        budget=False, probe=False)
    add("demo", cmd_demo, "replay the built-in corpus against its table",
        jobs=False, budget=False)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except CurveClassError as exc:
        sys.stderr.write(_error_line(exc))
        sys.exit(exc.code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
