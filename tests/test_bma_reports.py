"""The benchmark's Bose-Mesner reports are pinned byte for byte.

The `algebra` workload verifies four catalog schemes and a corrupted
cyclic48 with the Bose-Mesner checks on. Rebuilding how those checks are
computed must not change one byte of a report. The digests below are the
sha256 of each `verify --tol 1e-12 --seed 101` report, printed as the CLI
prints it but without `wall_time_s`, taken before the BMA4 commutators
came from the structure-constant pass and BMA3 from one joint count.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from casmat.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PINNED = {
    "verify circle120_unsigned":
        "5578c25a15966558dd806305605be7c43449507786a0e4260ff108d5dc2f0d0f",
    "verify cyclic48":
        "d7bf3d0a0c90940d28690b2ca2c336ffc821a1c8f334f12d38476342fb3b5193",
    "verify cyclic48_corrupt":
        "5f49412905878140ab0f9f6d47333f3a1fec1e53f75499bb9244634e4a3bd25f",
    "verify hamming6_2":
        "d12b4fde3b7c16084588859ab88e91c330d745538496c9cca2f321381478be6f",
    "verify s4_regular":
        "55bd1851b7aac238a2a29026bfa2d73ce8f7c16e26021200a25f4ed106d9cd81",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def algebra_reports(tmp_path_factory):
    """{job name: report text without wall_time_s} for the verify jobs of
    the algebra workload at seed 101, run in a directory of its inputs."""
    workloads = _workloads()
    work = tmp_path_factory.mktemp("algebra")
    mp = pytest.MonkeyPatch()
    mp.chdir(work)
    try:
        workload = workloads.build("algebra", 101)
        for argv in workload.setup:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        source, target = workload.corruption
        text, *_ = workloads.corrupt_relation(Path(source).read_text(),
                                              workload.seed)
        Path(target).write_text(text)
        reports = {}
        for job in workload.jobs:
            if job.command != "verify":
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(job.argv)
            assert code == job.exit_code, job.name
            report = json.loads(out.getvalue())
            report.pop("wall_time_s")
            reports[job.name] = json.dumps(report, indent=2, sort_keys=True)
        return reports
    finally:
        mp.undo()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_algebra_verify_reports_keep_their_bytes(algebra_reports, name):
    digest = hashlib.sha256(algebra_reports[name].encode()).hexdigest()
    assert digest == PINNED[name]
