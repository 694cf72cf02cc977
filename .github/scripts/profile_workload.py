"""Profile the first N jobs of a benchmark workload under cProfile.

    python .github/scripts/profile_workload.py WORKLOAD N SEED

WORKLOAD is one of the names in bench/workloads.py (fuzz-shared,
tower-split, singular-stress).  The program is imported from this
checkout's src/; the job texts and the pipeline come from bench/workloads.py
and bench/pipeline.py, imported, never edited.  Runs the N jobs once
without the profiler, then once under cProfile; prints the untraced wall
seconds beside cProfile's total, the total number of Python calls and the
top 25 functions by self time.  cProfile adds a cost to every Python call
and none to the big-integer arithmetic inside one, so it under-counts
big-integer work: it put bipoly.resultant_y (then a Bareiss determinant)
at 11.7% of singular-stress, where timed without it the function took
20%.  Its shares locate candidates; speed-ups are measured with
bench/run.py.
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

TOP = 25


def main(workload, count, seed):
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import pipeline
    import workloads

    jobs = workloads.generate(workload, seed, count)
    run = pipeline.RUNNERS[workload]
    start = time.perf_counter()
    for job in jobs:
        run(job)
    untraced = time.perf_counter() - start
    profile = cProfile.Profile()
    profile.enable()
    for job in jobs:
        run(job)
    profile.disable()
    stats = pstats.Stats(profile, stream=sys.stdout)
    print(f"{workload} seed={seed} jobs={count} calls={stats.total_calls} "
          f"untraced_s={untraced:.3f} cprofile_s={stats.total_tt:.3f}")
    stats.sort_stats("tottime").print_stats(TOP)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
