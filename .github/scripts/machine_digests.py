"""Print the sha256 of the machine documents a checkout's program emits.

    python .github/scripts/machine_digests.py CHECKOUT > digests.txt

The program is imported from CHECKOUT/src.  The job texts and the pipeline
come from this script's own checkout (bench/workloads.py, bench/pipeline.py,
imported, never edited), so two runs on two checkouts differ only in the
program; diff their outputs to check that machine output is byte-identical.
One line per corpus: each benchmark workload at seeds 5, 12 and 2024 with
its trace-pass job count, and each document of demo.run_demo(probe=True).
"""

import hashlib
import sys
from pathlib import Path

SEEDS = (5, 12, 2024)
JOBS = {"fuzz-shared": 300, "tower-split": 200, "singular-stress": 132}


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
