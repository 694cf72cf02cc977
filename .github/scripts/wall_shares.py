"""Inclusive wall time and share of named functions on a benchmark workload.

    python .github/scripts/wall_shares.py WORKLOAD N SEED MODULE.FUNC ...

WORKLOAD is one of the names in bench/workloads.py (fuzz-shared,
tower-split, singular-stress); MODULE is a curveclass module (curves,
_zpoly, numfield, ...) and FUNC a function defined or bound in it, private
ones included.  The program is imported from this checkout's src/; the job
texts and the pipeline come from bench/workloads.py and bench/pipeline.py,
imported, never edited.

Each named function is replaced, in every curveclass module namespace that
binds it, by a timing wrapper; a wrapper guards against re-entry, so a call
nested inside a call of the same function is not counted twice.  The N jobs
run once to warm up, then once timed, and for each name the script prints
its outermost calls, its inclusive seconds and its share of the timed wall
time.  Shares of different names overlap when one calls the other.  A name
that does not resolve is an error: the script exits with status 1
before running any job.
"""

import importlib
import sys
import time
from pathlib import Path


def _wrap(orig, acc):
    perf = time.perf_counter
    depth = [0]

    def timed(*args, **kwargs):
        if depth[0]:
            return orig(*args, **kwargs)
        depth[0] = 1
        start = perf()
        try:
            return orig(*args, **kwargs)
        finally:
            acc[0] += perf() - start
            acc[1] += 1
            depth[0] = 0

    return timed


def install(names):
    """Wrap every name; returns {name: [seconds, calls]}."""
    import curveclass

    totals = {}
    for name in names:
        mod_name, _, func = name.rpartition(".")
        try:
            module = importlib.import_module(f"curveclass.{mod_name}") if mod_name else curveclass
            orig = getattr(module, func)
        except (ImportError, AttributeError):
            raise SystemExit(f"wall_shares: no function {name!r} in curveclass") from None
        if not callable(orig):
            raise SystemExit(f"wall_shares: {name!r} is not callable")
        totals[name] = acc = [0.0, 0]
        wrapped = _wrap(orig, acc)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "curveclass" or k.startswith("curveclass.")]
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)
    return totals


def main(workload, count, seed, names):
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import pipeline
    import workloads

    jobs = workloads.generate(workload, seed, count)
    run = pipeline.RUNNERS[workload]
    totals = install(names)
    for job in jobs:  # warm-up: caches and imports settle
        run(job)
    for acc in totals.values():
        acc[:] = [0.0, 0]
    start = time.perf_counter()
    for job in jobs:
        run(job)
    wall = time.perf_counter() - start
    print(f"{workload} seed={seed} jobs={count} wall_s={wall:.3f}")
    for name, (secs, calls) in totals.items():
        print(f"{name:40s} calls={calls:7d} s={secs:8.3f} share={secs / wall:6.1%}")


if __name__ == "__main__":
    if len(sys.argv) < 5:
        raise SystemExit(__doc__)
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:])
