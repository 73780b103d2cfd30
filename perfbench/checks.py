"""Verdict, exactness and determinism checks on casmat reports.

A job fails when its process crashed or exited with the wrong code, when a
check status differs from the expected verdict, when an exactness invariant
breaks, or when its report differs (other than ``wall_time_s``) from another
run of the same seed. Each check returns a list of problems; an empty list
means the job passed.
"""

import json

from workloads import ALL_GATED

REPORT_SCHEMA = "casmat-report v1"
GATED = ("pass", "fail")


def parse_report(stdout: str):
    """The JSON report a job printed, or None when there is none."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def check_job(job, exit_code, stdout: str, stderr: str) -> list:
    """Problems with one job's outcome against its expected verdict."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.exit_code}")
    report = parse_report(stdout)
    if report is None:
        return problems + ["no JSON report on stdout"]
    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("command") != job.command:
        problems.append(f"command {report.get('command')!r}")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    statuses = {name: c.get("status") for name, c in checks.items()}
    if statuses != job.statuses:
        diff = sorted(k for k in set(statuses) | set(job.statuses)
                      if statuses.get(k) != job.statuses.get(k))
        problems.append("statuses differ at " + ", ".join(
            f"{k}: {statuses.get(k)} (expected {job.statuses.get(k)})"
            for k in diff))
    exact = set(job.exact_zero) - {ALL_GATED}
    if ALL_GATED in job.exact_zero:
        exact |= {k for k, s in statuses.items() if s in GATED}
    for name in sorted(exact):
        residual = checks.get(name, {}).get("residual")
        if residual != 0.0 or isinstance(residual, bool):
            problems.append(
                f"{name} residual {residual!r}, expected exactly 0.0")
    for name in job.nonzero:
        residual = checks.get(name, {}).get("residual")
        if not isinstance(residual, (int, float)) or not residual > 0:
            problems.append(f"{name} residual {residual!r}, expected > 0")
    for name, c in checks.items():
        if c.get("status") == "fail" and not c.get("witnesses"):
            problems.append(f"{name} fails without a witness")
    for name in job.witnessed:
        c = checks.get(name, {})
        if c.get("status") != "fail" or not c.get("witnesses"):
            problems.append(f"{name} carries no failure witness")
    return problems


def without_wall_time(report):
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def check_same(first: str, again: str) -> list:
    """Problems when two runs of the same job disagree beyond wall_time_s."""
    a, b = parse_report(first), parse_report(again)
    if a is None or b is None:
        return []  # already reported by check_job
    if without_wall_time(a) != without_wall_time(b):
        return ["report differs from another run of the same seed"]
    return []
