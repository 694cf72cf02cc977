"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They import the program from this checkout's src/ and write only under
bench_out/.
"""

import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_KEYS = ("mpoly.spairs", "mpoly.spair_zero_frac", "mpoly.basis_len",
              "mpoly.coeff_bits_max", "curves.splits")


def _run(*args, cwd=run.ROOT):
    script = Path(cwd) / "bench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _workdir(name):
    path = run.OUT / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- span arithmetic ----------------------------------------------------------

# job [0, 10] > functions.classify [1, 7] > mpoly.buchberger [2, 6]
#   > mpoly.normal_form [3, 4]; job > report.emit [8, 9]
SPANS = [
    ["job", 0.0, 10.0, -1, 0],
    ["functions.classify", 1.0, 7.0, 0, 0],
    ["mpoly.buchberger", 2.0, 6.0, 1, 0],
    ["mpoly.normal_form", 3.0, 4.0, 2, 0],
    ["report.emit", 8.0, 9.0, 0, 0],
]


def test_self_time_of_nested_spans():
    assert tracer.self_times(SPANS) == [3.0, 2.0, 3.0, 1.0, 1.0]


def test_layer_self_time_sums_and_outermost_inclusive_time():
    t = tracer.Tracer()
    t.spans.extend(SPANS)
    # a normal_form nested in another normal_form adds self time only
    t.spans.append(["mpoly.normal_form", 3.25, 3.75, 3, 0])
    m = tracer.summarize(t, 1)
    assert m["mpoly.self_ms"][0] == pytest.approx((3.0 + 0.5 + 0.5) * 1000)
    assert m["functions.self_ms"][0] == pytest.approx(2000)
    assert m["report.self_ms"][0] == pytest.approx(1000)
    assert m["harness.self_ms"][0] == pytest.approx(3000)
    assert m["mpoly.normal_form.calls"][0] == 2
    assert m["mpoly.normal_form.ms"][0] == pytest.approx(1000)  # outer span only
    total = sum(v for k, (v, _) in m.items() if k.endswith(".self_ms"))
    assert total == pytest.approx(10000)


def test_tracer_restores_every_namespace():
    import curveclass
    from curveclass import curves, functions, mpoly

    before = (mpoly.normal_form, functions.upoly_gcd, curves.bad_locus, curveclass.buchberger)
    t = tracer.Tracer()
    t.install()
    assert functions.bad_locus is curves.bad_locus is not before[2]
    assert curveclass.buchberger is mpoly.buchberger is not before[3]
    t.uninstall()
    assert (mpoly.normal_form, functions.upoly_gcd, curves.bad_locus,
            curveclass.buchberger) == before


class _Point:
    """Stands in for a BadPoint: splits two ways, to depth 2."""

    def __init__(self, depth=0):
        self.depth = depth

    def split(self, level, factor_rep):
        return [_Point(self.depth + 1), _Point(self.depth + 1)]


def _split_until_depth_2(point):
    from curveclass.numfield import SplitEvent

    if point.depth < 2:
        raise SplitEvent(0, [1])
    return point.depth


def test_splits_count_the_branches_of_the_outermost_call():
    from curveclass import curves

    t = tracer.Tracer()
    t.install()
    try:
        out = t.run_job(0, curves.run_with_splits, _Point(), _split_until_depth_2)
    finally:
        t.uninstall()
    assert [result for _, result in out] == [2, 2, 2, 2]
    assert [s[0] for s in t.spans].count("curves.run_with_splits") == 7
    assert t.splits == 3  # four branches where there was one point


# -- the percentile rule --------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    times = [k / 1000.0 for k in range(1, 101)]
    assert run.percentile_ms(times, 90) == pytest.approx(
        statistics.quantiles(range(1, 101), n=10)[8])
    with pytest.raises(ValueError):
        run.percentile_ms(times[:99], 90)
    run.percentile_ms(times[:99], 80)  # 19 beyond p80


# -- generators --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_repeat_per_seed(name):
    assert workloads.generate(name, 5, 200) == workloads.generate(name, 5, 200)
    assert workloads.generate(name, 5, 200) != workloads.generate(name, 6, 200)


def test_tower_and_singular_curves_are_distinct():
    tower = workloads.generate("tower-split", 3, run.STREAM_JOBS)
    assert len({j["curve"] for j in tower}) == len(tower)
    sing = workloads.generate("singular-stress", 3, run.STREAM_JOBS)
    assert len({j["curve"] for j in sing}) == len(sing) == 726
    from curveclass.parsing import parse_poly

    cycle = workloads.CYCLE["singular-stress"]
    strata = Counter((max(sum(e) for e in parse_poly(j["curve"]).terms), j["curve"][0])
                     for j in sing[:cycle])
    assert sum(strata.values()) == cycle
    assert strata == {(d, "y"): 3 for d in range(4, 21)} | {(d, "("): 1 for d in range(6, 21)}


# -- correctness gate ---------------------------------------------------------------

def _altered_expected(workload):
    """The workload's recording with the first job's integral verdict flipped."""
    data = json.loads(run.expected_path(workload).read_text())
    job0 = data["jobs"][0]
    job0["verdicts"][3] = "no" if job0["verdicts"][3] == "yes" else "yes"
    return data


def _checkout_copy(name):
    """A work dir holding BENCHMARK.json, bench/ and, optionally, src/."""
    work = _workdir(name)
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    ignore = shutil.ignore_patterns("__pycache__", "test_*")
    shutil.copytree(run.BENCH, work / "bench", ignore=ignore)
    return work, ignore


def test_expected_outputs_are_checked():
    jobs = workloads.generate("fuzz-shared", run.DEFAULT_SEED, 10)
    good = run.Pass("fuzz-shared", run.load_expected("fuzz-shared", run.DEFAULT_SEED))
    for i, job in enumerate(jobs):
        good.job(i, job)
    assert good.failures == []
    bad = run.Pass("fuzz-shared", _altered_expected("fuzz-shared")["jobs"])
    for i, job in enumerate(jobs):
        bad.job(i, job)
    assert len(bad.failures) == 1 and bad.failures[0].startswith("job 0 ")


def test_a_job_that_raises_fails_the_pass():
    p = run.Pass("fuzz-shared")
    p.run = lambda job: 1 / 0
    p.run_for(workloads.generate("fuzz-shared", 1, 10), 0.0, 1)
    assert p.attempted == p.failed == 1
    assert p.times == [] and "ZeroDivisionError" in p.failures[0]


def test_altered_expected_verdict_fails_the_run():
    work, ignore = _checkout_copy("altered")
    shutil.copytree(run.ROOT / "src", work / "src", ignore=ignore)
    (work / "bench" / "expected" / "fuzz-shared.json").write_text(
        json.dumps(_altered_expected("fuzz-shared")))
    proc = _run("--workload", "fuzz-shared", "--seed", str(run.DEFAULT_SEED),
                "--seconds", "0.1", cwd=work)
    assert proc.returncode == 1
    assert '"correct"' not in proc.stdout
    assert "FAIL job 0 " in proc.stderr


def test_invariant_checks_catch_a_wrong_certificate():
    job = {"curve": "y^2 - x^3", "numerator": "y", "denominator": "x"}
    import pipeline

    text, f, rep = pipeline.classify_job(job)
    data = json.loads(text)
    assert checks.check_classification(data, f, rep) == []
    data["certificates"]["integral_relation"] = "t^2 - x - 1"
    assert any("not in <F>" in e for e in checks.check_classification(data, f, rep))
    data["verdicts"]["k_plus"] = "no"  # regular "yes" above k_plus "no"
    data["verdicts"]["regular"] = "yes"
    assert any("hierarchy" in e for e in checks.check_classification(data, f, rep))


def test_run_without_program_exits_nonzero():
    bare, _ = _checkout_copy("bare")
    proc = _run("--workload", "fuzz-shared", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- traced counts ------------------------------------------------------------------

def _traced(workload, jobs):
    out = run.fixed_pass(workload, 11, True, jobs)
    assert out["failures"] == []
    return {k: v for k, (v, _) in out["layers"].items()}


@pytest.mark.parametrize("workload,jobs", [("fuzz-shared", 25), ("tower-split", 12),
                                           ("singular-stress", 17)])
def test_input_determined_counts_repeat(workload, jobs):
    a, b = _traced(workload, jobs), _traced(workload, jobs)
    keys = [k for k in a if k.endswith(".calls") or k in COUNT_KEYS]
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
    if workload == "fuzz-shared":
        assert a["functions.is_integral.calls"] == 3
        assert a["mpoly.saturate_gb.calls"] == 1
    if workload == "singular-stress":
        assert a["mpoly.saturate_gb.calls"] == a["mpoly.buchberger.calls"] == 0
