"""Tests of the benchmark itself: a tampered report must count as a failed job.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from casmat import cli  # noqa: E402


def _casmat(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), ""


@pytest.fixture(scope="module")
def algebra(tmp_path_factory):
    """Real reports for the cyclic48 jobs of the algebra workload."""
    work = tmp_path_factory.mktemp("algebra")
    workload = workloads.build("algebra", 7)
    previous = os.getcwd()
    os.chdir(work)
    try:
        run.set_up(workload, str(work), _casmat)
        jobs = {job.name: job for job in workload.jobs
                if "cyclic48" in job.name}
        outcomes = {name: _casmat(job.argv) for name, job in jobs.items()}
    finally:
        os.chdir(previous)
    return jobs, outcomes


def _tamper(stdout, edit):
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


def _set(report, name, key, value):
    for check in report["checks"]:
        if check["name"] == name:
            check[key] = value


def test_untampered_reports_pass(algebra):
    jobs, outcomes = algebra
    assert len(jobs) == 6
    for name, job in jobs.items():
        assert checks.check_job(job, *outcomes[name]) == [], name


def test_changed_status_fails(algebra):
    jobs, outcomes = algebra
    job = jobs["verify cyclic48"]
    code, stdout, stderr = outcomes[job.name]
    tampered = _tamper(stdout, lambda r: _set(
        r, "cas3_transpose", "status", "fail"))
    assert checks.check_job(job, code, tampered, stderr)


def test_nonzero_exact_residual_fails(algebra):
    jobs, outcomes = algebra
    job = jobs["verify cyclic48"]
    code, stdout, stderr = outcomes[job.name]
    tampered = _tamper(stdout, lambda r: _set(
        r, "cas2_intersection_constancy", "residual", 1e-17))
    problems = checks.check_job(job, code, tampered, stderr)
    assert any("cas2_intersection_constancy residual" in p for p in problems)


def test_wrong_exit_code_fails(algebra):
    jobs, outcomes = algebra
    for name in ("verify cyclic48", "verify cyclic48_corrupt"):
        code, stdout, stderr = outcomes[name]
        for wrong in {0, 1, 2, None} - {code}:
            assert checks.check_job(jobs[name], wrong, stdout, stderr)


def test_corrupt_input_needs_witness_and_no_traceback(algebra):
    jobs, outcomes = algebra
    job = jobs["hypergroup cyclic48_corrupt"]
    code, stdout, stderr = outcomes[job.name]
    assert code == 1
    no_witness = _tamper(stdout, lambda r: _set(
        r, "markov_kernel", "witnesses", []))
    assert checks.check_job(job, code, no_witness, stderr)
    assert checks.check_job(job, code, stdout, "Traceback (most recent ...")


def test_report_must_repeat_except_wall_time(algebra):
    _, outcomes = algebra
    _, stdout, _ = outcomes["correspond cyclic48"]
    slower = _tamper(stdout, lambda r: r.update(wall_time_s=99.0))
    assert checks.check_same(stdout, slower) == []
    other = _tamper(stdout, lambda r: r.update(input_digest="sha256:0"))
    assert checks.check_same(stdout, other)


def test_tampered_report_counts_as_failed_job(algebra):
    jobs, outcomes = algebra
    job = jobs["verify cyclic48"]
    code, stdout, stderr = outcomes[job.name]
    tally = run.Tally()
    tally.record(job, checks.check_job(job, code, stdout, stderr))
    tampered = _tamper(stdout, lambda r: _set(
        r, "row_valency_constancy", "status", "fail"))
    tally.record(job, checks.check_job(job, code, tampered, stderr))
    assert (tally.attempted, len(tally.failures)) == (2, 1)


def test_corruption_is_seeded_and_breaks_cas3():
    text = "\n".join(["relation"] + [
        " ".join(str((y - x) % 6) for y in range(6)) for x in range(6)]) + "\n"
    first = workloads.corrupt_relation(text, 3)
    assert first == workloads.corrupt_relation(text, 3)
    new_text, (a, b), old, new = first
    changed = [(i, j) for i, (u, v) in enumerate(
        zip(text.split("\n"), new_text.split("\n"))) for j, (p, q) in
        enumerate(zip(u.split(), v.split())) if p != q]
    assert changed == [(a + 1, b)] and a != b
    assert new not in (0, old, (6 - old) % 6)


def test_tracer_wraps_reimported_names_and_restores():
    from casmat import hypergroup, scheme
    original = scheme.fiber
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert hypergroup.fiber is scheme.fiber is not original
        assert cli.verify_cas is scheme.verify_cas
    finally:
        tracer.remove()
    assert hypergroup.fiber is original and scheme.fiber is original


def test_host_speed_kernel_answers_and_stops():
    host = run.HostSpeed()
    try:
        host.sample()
    finally:
        host.close()
    assert len(host.samples) == run.KERNEL_RUNS_PER_SAMPLE
    assert host.slowdown() > 0
    assert host._proc.returncode == 0


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
