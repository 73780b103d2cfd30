"""Digest of every benchmark input and report, for byte-identity checks.

Run from the root of a casmat checkout:

    python3 tools/report_digest.py <seed>

For each workload of perfbench/workloads.py it builds the set-up files in a
temporary directory (catalog commands, then the corruption), runs every job
once as a ``python3 -m casmat`` child of this checkout's src/, and prints one
JSON line: the sha256 of each set-up file and, for each job, its exit code,
the sha256 of its report without the wall_time_s line, and its stderr.
Two checkouts whose lines are equal write the same files and reports.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# the benchmark runs casmat with one BLAS thread
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
       **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}}
ENV.pop("CASMAT_SEED", None)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def casmat(argv, work):
    return subprocess.run([sys.executable, "-m", "casmat", *argv], cwd=work,
                          env=ENV, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)


def digest_workload(workload) -> dict:
    with tempfile.TemporaryDirectory() as work:
        for argv in workload.setup:
            proc = casmat(argv, work)
            if proc.returncode != 0:
                raise SystemExit(f"casmat {' '.join(argv)} exited "
                                 f"{proc.returncode}: {proc.stderr}")
        if workload.corruption is not None:
            source, target = workload.corruption
            with open(os.path.join(work, source)) as fh:
                text, *_ = workloads.corrupt_relation(fh.read(),
                                                      workload.seed)
            with open(os.path.join(work, target), "w") as fh:
                fh.write(text)
        files = {}
        for name in sorted(os.listdir(work)):
            with open(os.path.join(work, name), "rb") as fh:
                files[name] = sha256(fh.read())
        jobs = {}
        for job in workload.jobs:
            proc = casmat(job.argv, work)
            report = "".join(
                line for line in proc.stdout.splitlines(keepends=True)
                if not line.lstrip().startswith('"wall_time_s":'))
            jobs[job.name] = {"exit": proc.returncode,
                              "report": sha256(report.encode()),
                              "stderr": proc.stderr}
    return {"files": files, "jobs": jobs}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: python3 tools/report_digest.py <seed>", file=sys.stderr)
        return 2
    seed = int(args[0])
    out = {"seed": seed}
    for name in workloads.WORKLOADS:
        out[name] = digest_workload(workloads.build(name, seed))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
