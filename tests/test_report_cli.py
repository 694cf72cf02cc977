import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curveclass.demo import run_demo
from curveclass.errors import JobError
from curveclass.jobs import JobSpec, MorphismJob, run_check_morphism, run_classify, run_present
from curveclass.report import emit, parse_machine


def cusp_job(**kw):
    return JobSpec("y^2 - x^3", "y", "x", [{"point": ["0", "0"], "value": "0"}], **kw)


def example3_job():
    return JobSpec("y^4 - x*(x^2+y^2)", "y^2", "x", [{"point": ["0", "0"], "value": "0"}])


def test_machine_contains_certificate():
    doc = run_classify(cusp_job())
    text = emit(doc, "machine")
    assert '"integral_relation": "t^2 - x"' in text


def test_example3_fiber_row():
    doc = run_classify(example3_job())
    assert doc.data["fibers"][0]["distinct_real"] == 2
    assert doc.data["fibers"][0]["distinct_complex"] == 2


def test_machine_round_trip_byte_identical():
    for job in (cusp_job(), example3_job()):
        doc = run_classify(job)
        text = emit(doc, "machine")
        again = emit(parse_machine(text), "machine")
        assert text == again


def test_identical_jobs_identical_output():
    a = emit(run_classify(cusp_job()), "machine")
    b = emit(run_classify(cusp_job()), "machine")
    assert a == b


def test_human_output_mentions_verdicts():
    text = emit(run_classify(cusp_job()), "human")
    assert "k_r_plus" in text and "yes" in text
    assert "P(t) = t^2 - x" in text


def test_present_document():
    doc = run_present(cusp_job())
    pres = doc.data["presentation"]
    assert pres["birational"] is True
    assert pres["integral_relation"] == "t^2 - x"
    assert "t^2 - x" in pres["relations"]


def test_morphism_document():
    doc = run_check_morphism(
        MorphismJob.from_dict(
            {"curve": "y^2 - x^2*(x+1)", "map": ["t^2 - 1", "t^3 - t"], "function": "t"}
        )
    )
    assert doc.data["finite"] is True
    assert doc.data["constant_on_real_fibers"] is False
    (w,) = doc.data["witnesses"]
    assert w["point"] == "(0, 0)"
    vals = {entry["value"] for entry in w["fiber_values"]}
    assert vals == {"1", "-1"}


ROOT = Path(__file__).parents[1]


def _run_python(argv, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        input=stdin,
        cwd=ROOT,
        env=env,
    )


def _run_cli(args, stdin=None):
    return _run_python(["-m", "curveclass.cli", *args], stdin)


def test_cli_classify_machine_deterministic(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "curve": "y^2 - x^3",
                "numerator": "y",
                "denominator": "x",
                "assignments": [{"point": ["0", "0"], "value": "0"}],
            }
        )
    )
    r1 = _run_cli(["classify", "--input", str(job), "--format", "machine"])
    r2 = _run_cli(["classify", "--input", str(job), "--format", "machine"])
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    data = json.loads(r1.stdout)
    assert data["verdicts"] == {
        "regular": "no", "k_plus": "yes", "k_r_plus": "yes", "integral": "yes"
    }


def test_cli_verdict_no_is_exit_zero(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "curve": "y^4 - x*(x^2+y^2)",
                "numerator": "y^2",
                "denominator": "x",
                "assignments": [{"point": ["0", "0"], "value": "0"}],
            }
        )
    )
    r = _run_cli(["classify", "--input", str(job)])
    assert r.returncode == 0
    assert "no" in r.stdout


def test_cli_nonsquarefree_curve_error_code(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "curve": "(y - x)^2",
                "numerator": "y",
                "denominator": "x",
                "assignments": [],
            }
        )
    )
    r = _run_cli(["classify", "--input", str(job)])
    assert r.returncode == 3
    assert "repeated factor" in r.stderr


def test_cli_missing_assignment_error_code(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {"curve": "y^2 - x^3", "numerator": "y", "denominator": "x", "assignments": []}
        )
    )
    r = _run_cli(["classify", "--input", str(job)])
    assert r.returncode == 5
    assert "missing value at (0, 0)" in r.stderr


def test_cli_parse_error_code(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {"curve": "2x + y", "numerator": "y", "denominator": "x", "assignments": []}
        )
    )
    r = _run_cli(["classify", "--input", str(job)])
    assert r.returncode == 2


def test_cli_non_ascii_digit_is_a_parse_error(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {"curve": "y^2 - x^3", "numerator": "y", "denominator": "x^\u00b2", "assignments": []}
        )
    )
    r = _run_cli(["classify", "--input", str(job)])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_cli_batch_mode(tmp_path):
    jobs = [
        {
            "curve": "y^2 - x^3",
            "numerator": "y",
            "denominator": "x",
            "assignments": [{"point": ["0", "0"], "value": "0"}],
        },
        {
            "curve": "y^2 - x^2*(x+1)",
            "numerator": "y",
            "denominator": "x",
            "assignments": [{"point": ["0", "0"], "value": "1"}],
        },
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(jobs))
    r = _run_cli(["classify", "--input", str(path), "--batch", "--format", "machine"])
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert len(docs) == 2
    assert docs[0]["verdicts"]["k_r_plus"] == "yes"
    assert docs[1]["verdicts"]["k_r_plus"] == "no"


def test_cli_fibers_subcommand(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "curve": "y^2 - x^3*(x^2+1)^2",
                "numerator": "y",
                "denominator": "x*(x^2+1)",
                "assignments": [{"point": ["0", "0"], "value": "0"}],
            }
        )
    )
    r = _run_cli(["fibers", "--input", str(job), "--format", "machine"])
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert "verdicts" not in data
    assert len(data["fibers"]) == 2


def test_cli_demo_passes():
    r = _run_cli(["demo"])
    assert r.returncode == 0
    assert r.stdout.count("PASS") == 6


def test_demo_library_assertions():
    results = run_demo()
    assert all(passed for _, _, passed, _ in results)


def test_cli_check_morphism_human(tmp_path):
    job = tmp_path / "m.json"
    job.write_text(
        json.dumps(
            {"curve": "y^2 - x^2*(x+1)", "map": ["t^2 - 1", "t^3 - t"], "function": "t"}
        )
    )
    r = _run_cli(["check-morphism", "--input", str(job)])
    assert r.returncode == 0
    assert "constant on real fibers  no" in r.stdout
    assert "witness at (0, 0)" in r.stdout


def test_cli_broken_hierarchy_is_internal_error_under_optimize(tmp_path):
    # y/x on the node is not regular; forcing is_regular to say yes breaks
    # the chain regular => k_plus, which must still be caught under -O
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "curve": "y^2 - x^2*(x+1)",
                "numerator": "y",
                "denominator": "x",
                "assignments": [{"point": ["0", "0"], "value": "0"}],
            }
        )
    )
    script = (
        "import sys\n"
        "from curveclass import cli, functions\n"
        "functions.is_regular = lambda f: (True, {'witness': None})\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    r = _run_python(["-O", "-c", script, "classify", "--input", str(job)])
    assert r.returncode == 10
    assert "error[10]: hierarchy violated" in r.stderr


def test_inexact_deflation_raises_internal_error_under_optimize():
    # a failed invariant must not vanish with the asserts under python -O
    script = (
        "from fractions import Fraction\n"
        "from curveclass import unipoly\n"
        "from curveclass.errors import InternalError\n"
        "try:\n"
        "    unipoly._deflate_rational_root([1, 0, 1], Fraction(1))\n"
        "except InternalError:\n"
        "    print('InternalError')\n"
    )
    r = _run_python(["-O", "-c", script])
    assert r.returncode == 0, r.stderr
    assert r.stdout == "InternalError\n"


def test_cli_batch_keeps_the_good_jobs_around_a_bad_one(tmp_path):
    good = [
        {
            "curve": "y^2 - x^3",
            "numerator": "y",
            "denominator": "x",
            "assignments": [{"point": ["0", "0"], "value": "0"}],
        },
        {
            "curve": "y^2 - x^2*(x+1)",
            "numerator": "y",
            "denominator": "x",
            "assignments": [{"point": ["0", "0"], "value": "1"}],
        },
    ]
    bad = {"curve": "y^2 - x^3 +", "numerator": "y", "denominator": "x"}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([good[0], bad, good[1]]))
    r = _run_cli(["classify", "--input", str(path), "--batch", "--format", "machine"])
    assert r.returncode == 2
    docs = json.loads(r.stdout)
    assert len(docs) == 3
    assert docs[1]["error"]["code"] == 2
    assert f"error[2]: {docs[1]['error']['message']}\n" in r.stderr
    for doc, job in zip((docs[0], docs[2]), good):
        single = tmp_path / "single.json"
        single.write_text(json.dumps(job))
        alone = _run_cli(["classify", "--input", str(single), "--format", "machine"])
        assert alone.returncode == 0
        assert json.loads(alone.stdout) == doc

    human = _run_cli(["classify", "--input", str(path), "--batch"])
    assert human.returncode == 2
    assert f"error[2]: {docs[1]['error']['message']}\n" in human.stdout
    assert human.stdout.count("-" * 64 + "\n") == 2  # three blocks


_GOOD_JOB = {
    "curve": "y^2 - x^3",
    "numerator": "y",
    "denominator": "x",
    "assignments": [{"point": ["0", "0"], "value": "0"}],
}


@pytest.mark.parametrize(
    "job",
    [
        "oops",
        {**_GOOD_JOB, "curve": 5},
        {**_GOOD_JOB, "assignments": 5},
        {**_GOOD_JOB, "assignments": ["point"]},
        {**_GOOD_JOB, "assignments": [{"point": 5, "value": "0"}]},
        {**_GOOD_JOB, "realness_budget": "abc"},
        {**_GOOD_JOB, "realness_budget": 2.7},
        {**_GOOD_JOB, "realness_budget": True},
        {**_GOOD_JOB, "probe": "false"},
        {**_GOOD_JOB, "assignments": [{"index": 1.5, "value": "0"}]},
        {**_GOOD_JOB, "assignments": [{"point": "00", "value": "0"}]},
        {**_GOOD_JOB, "assignments": [{"point": {"0": 0, "1": 0}, "value": "0"}]},
        # int() reads '\u0663' (Arabic-Indic three) as 3 and '1_0' as 10
        {**_GOOD_JOB, "realness_budget": "\u0663"},
        {**_GOOD_JOB, "assignments": [{"index": "1_0", "value": "0"}]},
        # str() would spell these True, None, 1000.0, 0.1 and [1] for the parser
        {**_GOOD_JOB, "assignments": [{"point": ["0", "0"], "value": True}]},
        {**_GOOD_JOB, "assignments": [{"point": ["0", "0"], "value": None}]},
        {**_GOOD_JOB, "assignments": [{"point": ["0", "0"], "value": 1e3}]},
        {**_GOOD_JOB, "assignments": [{"point": ["0", "0"], "value": [1]}]},
        {**_GOOD_JOB, "assignments": [{"point": [False, "0"], "value": "0"}]},
        {**_GOOD_JOB, "assignments": [{"point": ["0", 0.1], "value": "0"}]},
    ],
    ids=["non-object", "curve-number", "assignments-number", "assignment-string",
         "point-number", "budget-text", "budget-fraction", "budget-bool", "probe-text",
         "index-fraction", "point-string", "point-object", "budget-non-ascii-digit",
         "index-underscore", "value-bool", "value-null", "value-float", "value-array",
         "point-bool", "point-float"],
)
def test_cli_malformed_job_field_is_a_job_error(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    r = _run_cli(["classify", "--input", str(path), "--format", "machine"])
    assert r.returncode == 9
    assert r.stderr.count("error[9]: ") == 1 and r.stderr.startswith("error[9]: ")
    assert "Traceback" not in r.stderr


def test_cli_job_values_and_coordinates_may_be_json_integers(tmp_path):
    path = tmp_path / "job.json"
    job = {**_GOOD_JOB, "assignments": [{"point": [0, 0], "value": 3}]}
    path.write_text(json.dumps(job))
    r = _run_cli(["classify", "--input", str(path), "--format", "machine"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["function"]["assignments"] == [{"point": "(0, 0)", "value": "3"}]


def test_cli_check_morphism_string_map_is_a_job_error(tmp_path):
    # "tt" unpacks into two items but is not the array [u, v]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"curve": "y^2 - x^2*(x+1)", "map": "tt"}))
    r = _run_cli(["check-morphism", "--input", str(path)])
    assert r.returncode == 9
    assert r.stderr.startswith("error[9]: ")
    assert "Traceback" not in r.stderr


def test_cli_batch_reports_a_non_object_item_in_place(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([_GOOD_JOB, "oops", _GOOD_JOB]))
    r = _run_cli(["classify", "--input", str(path), "--batch", "--format", "machine"])
    assert r.returncode == 9
    assert "Traceback" not in r.stderr
    docs = json.loads(r.stdout)
    assert len(docs) == 3
    assert docs[1]["error"]["code"] == 9
    single = tmp_path / "single.json"
    single.write_text(json.dumps(_GOOD_JOB))
    alone = _run_cli(["classify", "--input", str(single), "--format", "machine"])
    assert alone.returncode == 0
    assert docs[0] == docs[2] == json.loads(alone.stdout)


def test_cli_batch_reports_a_zero_denominator_literal_in_place(tmp_path):
    # 1/0 was a bare ZeroDivisionError: exit 1 with a traceback, and the
    # good job of the batch was never emitted
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{**_GOOD_JOB, "numerator": "x + 3/0*y"}, _GOOD_JOB]))
    r = _run_cli(["classify", "--input", str(path), "--batch", "--format", "machine"])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    docs = json.loads(r.stdout)
    assert len(docs) == 2
    assert docs[0]["error"] == {
        "code": 2, "message": "zero denominator in rational literal (at position 4)"}
    assert r.stderr == f"error[2]: {docs[0]['error']['message']}\n"
    single = tmp_path / "single.json"
    single.write_text(json.dumps(_GOOD_JOB))
    alone = _run_cli(["classify", "--input", str(single), "--format", "machine"])
    assert alone.returncode == 0
    assert docs[1] == json.loads(alone.stdout)


# no real point: realness is certified only by running out of budget, so
# the caveat shows which budget a job ran with
_NO_REAL_POINT_JOB = {"curve": "y^2 + x^2 + 1 - x^3*y", "numerator": "y", "denominator": "1"}


def _caveats(tmp_path, job, *flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    r = _run_cli(["classify", "--input", str(path), "--format", "machine", *flags])
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)["caveats"]


def test_cli_job_file_budget_and_probe_apply_unless_flags_are_given(tmp_path):
    assert _caveats(tmp_path, _NO_REAL_POINT_JOB) == []
    zero = {**_NO_REAL_POINT_JOB, "realness_budget": 0}
    assert any("realness unverified" in c for c in _caveats(tmp_path, zero))
    assert _caveats(tmp_path, zero, "--realness-budget", "64") == []
    assert _caveats(tmp_path, zero, "--realness-budget", "0") == _caveats(tmp_path, zero)

    path = tmp_path / "probe.json"
    path.write_text(json.dumps({**_GOOD_JOB, "probe": True}))
    runs = {flag: _run_cli(["classify", "--input", str(path), "--format", "machine", *flag])
            for flag in ((), ("--no-probe",))}
    assert "probe" in json.loads(runs[()].stdout)
    assert "probe" not in json.loads(runs[("--no-probe",)].stdout)


def test_cli_negative_realness_budget_is_rejected(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_NO_REAL_POINT_JOB))
    r = _run_cli(["classify", "--input", str(path), "--realness-budget", "-1"])
    assert r.returncode == 2 and "--realness-budget" in r.stderr
    path.write_text(json.dumps({**_NO_REAL_POINT_JOB, "realness_budget": -1}))
    r = _run_cli(["classify", "--input", str(path), "--format", "machine"])
    assert r.returncode == 9
    assert r.stderr.startswith("error[9]: ") and "Traceback" not in r.stderr


def test_cli_realness_budget_takes_ascii_digits_only(tmp_path):
    # str.isdecimal accepts '\uff13' (fullwidth three) and '\u0663'
    # (Arabic-Indic three); the tokenizer takes ASCII 0-9 only
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_NO_REAL_POINT_JOB))
    for digit in ("\uff13", "\u0663"):
        r = _run_cli(["classify", "--input", str(path), "--realness-budget", digit])
        assert r.returncode == 2 and "--realness-budget" in r.stderr


@pytest.mark.parametrize("budget", [-0.5, False, float("inf"), float("nan"), "2.7", None])
def test_job_budget_that_is_not_an_integer_is_a_job_error(budget):
    with pytest.raises(JobError) as exc:
        JobSpec.from_dict({**_GOOD_JOB, "realness_budget": budget})
    assert exc.value.code == 9


@pytest.mark.parametrize("budget", [64, 64.0, "64", 0, 0.0, "7", " 7 "])
def test_job_budget_integral_forms_are_accepted(budget):
    assert JobSpec.from_dict({**_GOOD_JOB, "realness_budget": budget}).realness_budget == int(budget)


@pytest.mark.parametrize("probe", ["false", "true", 0, 1, None])
def test_job_probe_that_is_not_a_boolean_is_a_job_error(probe):
    with pytest.raises(JobError) as exc:
        JobSpec.from_dict({**_GOOD_JOB, "probe": probe})
    assert exc.value.code == 9


def test_job_probe_booleans_are_accepted():
    assert JobSpec.from_dict({**_GOOD_JOB, "probe": True}).probe is True
    assert JobSpec.from_dict({**_GOOD_JOB, "probe": False}).probe is False
    assert JobSpec.from_dict(_GOOD_JOB).probe is False


def _index_job(index):
    return {**_GOOD_JOB, "assignments": [{"index": index, "value": "0"}]}


@pytest.mark.parametrize("index", [1.5, True, False, "1.5", None, [1]],
                         ids=["fraction", "true", "false", "fraction-text", "null", "list"])
def test_job_index_that_is_not_an_integer_is_a_job_error(index):
    with pytest.raises(JobError) as exc:
        run_classify(JobSpec.from_dict(_index_job(index)))
    assert exc.value.code == 9


@pytest.mark.parametrize("index", [0, 0.0, "0"])
def test_job_index_integral_forms_address_the_same_point(index):
    doc = run_classify(JobSpec.from_dict(_index_job(index)))
    assert emit(doc, "machine") == emit(run_classify(JobSpec.from_dict(_index_job(0))), "machine")


# -- machine output does not depend on the order of a job's keys -----------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curveclass.demo import CORPUS  # noqa: E402

_DEMO_JOBS = {
    e.name: {"curve": e.job.curve_expr, "numerator": e.job.num_expr,
             "denominator": e.job.den_expr, "assignments": e.job.assignments,
             "realness_budget": 64, "probe": True}
    for e in CORPUS if isinstance(e.job, JobSpec)
}
_DEMO_MACHINE = {}


def _machine_text(job_dict):
    return emit(run_classify(JobSpec.from_dict(job_dict)), "machine")


@st.composite
def _reordered_demo_job(draw):
    name = draw(st.sampled_from(sorted(_DEMO_JOBS)))
    job = _DEMO_JOBS[name]
    out = {}
    for key in draw(st.permutations(list(job))):
        value = job[key]
        if key == "assignments":
            value = [{k: a[k] for k in draw(st.permutations(list(a)))} for a in value]
        out[key] = value
    return name, out


@settings(deadline=None, max_examples=30)
@given(case=_reordered_demo_job())
def test_machine_output_is_byte_stable_under_job_key_reordering(case):
    name, job = case
    if name not in _DEMO_MACHINE:
        _DEMO_MACHINE[name] = _machine_text(_DEMO_JOBS[name])
    assert _machine_text(job) == _DEMO_MACHINE[name]
