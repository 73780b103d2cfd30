"""casmat benchmark driver.

Run from the root of a casmat checkout:

    python3 perfbench/run.py --workload continuum --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the benchmark times the ``casmat`` CLI end to end: each
job is a ``python3 -m casmat`` subprocess, run one at a time in a closed
loop over the workload's job list for ``--seconds``. It prints setup_s
(median of three set-ups), run_s (wall time of one pass over the jobs, each
job counted at the median of its runs) and peak_rss_mb (largest peak RSS of
any job process).

With ``--trace 1`` it sets up once, then makes one untraced and one traced
pass that call ``casmat.cli.main(argv)`` in this process, the traced one
with every layer function wrapped (see tracing.py). It prints the per-layer
metrics and writes the spans to ``.perfbench_work/trace-<workload>.json``.

Every job's report is checked against the verdict its input was built to
give (workloads.py, checks.py); the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import checks
import tracing
import workloads

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# every run must end well inside the 180 s a run may take
RUN_BUDGET_S = 160.0
WORK_DIR = ".perfbench_work"
HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS thread (<= nproc): with two, OpenBLAS spin-waits for the second
# core, and any concurrent load on a 2-core box stalls every small matmul.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
COMMANDS = ("verify", "correspond", "hypergroup")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Median time of each part of the host-speed kernel on the baseline machine
# (2-vCPU Xeon VM, README.md), over 196 samples spread across 11 minutes.
KERNEL_REFERENCE_S = {"interpreter": 3.72e-3, "sort": 9.87e-3,
                      "memory": 35.47e-3}
KERNEL_RUNS_PER_SAMPLE = 3


class SetupError(RuntimeError):
    """A catalog command failed, so the workload has no inputs."""


class HostSpeed:
    """Follows the shared host's speed with a fixed kernel timed between jobs.

    The host's other guests slow every job down by 15-40 % for minutes at a
    time, far longer than a run. The kernel (kernel.py) does the three kinds
    of work casmat's time is made of: an interpreted loop, an in-cache numpy
    sort and a pass over 64 MB. A sample is the mean of its parts' times,
    each over its time on the baseline machine, so 1.0 is that machine's
    usual speed and 1.3 a host 30 % slower. slowdown() is the run's median
    sample. The kernel lives in a process of its own that waits on a pipe
    while casmat runs.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []

    def sample(self):
        # one kernel run swings by +-20 % with the host's sub-second noise,
        # so every call takes several
        for _ in range(KERNEL_RUNS_PER_SAMPLE):
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            parts = [float(t) for t in self._proc.stdout.readline().split()]
            if len(parts) != len(KERNEL_REFERENCE_S):
                raise RuntimeError("the host-speed kernel process failed")
            self.samples.append(statistics.mean(
                t / ref for t, ref in zip(parts,
                                          KERNEL_REFERENCE_S.values())))

    def slowdown(self):
        return statistics.median(self.samples)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Runner:
    """Runs casmat as a child process, one at a time, in a working dir.

    With a HostSpeed, it samples the host's speed before every child.
    """

    def __init__(self, root, work, deadline, host=None):
        self.work = work
        self.deadline = deadline
        self.host = host
        self.env = dict(os.environ)
        for var in ("CASMAT_SEED", "CASMAT_THREADS"):
            self.env.pop(var, None)
        self.env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run(self, argv):
        """Returns (seconds, exit code, stdout, stderr, peak RSS in MB)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        if self.host is not None:
            self.host.sample()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "casmat"] + list(argv), cwd=self.work,
                env=self.env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own rusage, not the cumulative
                # RUSAGE_CHILDREN of every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def set_up(workload, work, run_catalog):
    """Writes the workload's input files; returns their digests.

    run_catalog(argv) -> (exit code, stdout, stderr).
    """
    for argv in workload.setup:
        code, stdout, stderr = run_catalog(argv)
        report = checks.parse_report(stdout)
        if (code != 0 or report is None
                or [c.get("status") for c in report.get("checks", [])]
                != ["pass"]):
            raise SetupError(f"casmat {' '.join(argv)} exited {code}: "
                             f"{stderr.strip()[-500:]}")
    if workload.corruption is not None:
        source, target = workload.corruption
        with open(os.path.join(work, source)) as fh:
            text, *_ = workloads.corrupt_relation(fh.read(), workload.seed)
        with open(os.path.join(work, target), "w") as fh:
            fh.write(text)
    return {name: _digest(os.path.join(work, name))
            for name in sorted(os.listdir(work)) if name.endswith(".scheme")}


class Tally:
    """Attempted and failed jobs, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failures.append((job.name, problems))


def run_job(job, runner, tally, reference):
    """Runs one job as a child process and checks its report.

    reference maps job name -> stdout of an earlier run of the same seed;
    the job's first run fills it. Returns (seconds, peak RSS in MB).
    """
    seconds, code, stdout, stderr, rss = runner.run(job.argv)
    problems = checks.check_job(job, code, stdout, stderr)
    if job.name in reference:
        problems += checks.check_same(reference[job.name], stdout)
    else:
        reference[job.name] = stdout
    tally.record(job, problems)
    return seconds, rss


def measure_jobs(workload, runner, tally, seconds):
    """Cycles through the jobs for up to ``seconds``; job -> list of times.

    The first pass always runs whole. After it, the loop stops before a job
    that would end past the window if it took as long as its slowest run so
    far, so the measuring time stays close to ``seconds``.
    """
    times = {job.name: [] for job in workload.jobs}
    reference = {}
    peak = 0.0
    stop = min(time.monotonic() + seconds, runner.deadline)
    for job in itertools.cycle(workload.jobs):
        if times[job.name] and time.monotonic() + max(times[job.name]) > stop:
            break
        job_s, rss = run_job(job, runner, tally, reference)
        times[job.name].append(job_s)
        peak = max(peak, rss)
    return times, peak


def run_untraced(workload, runner, work, seconds, tally):
    runner.run(["--version"])  # compiles the package's bytecode once
    setups = []
    digests = None
    for _ in range(SETUP_REPEATS):
        # set-up time is the catalog children's wall time; the kernel
        # samples taken between them are not part of it
        catalog_s = []

        def catalog(argv):
            seconds, code, stdout, stderr, _ = runner.run(argv)
            catalog_s.append(seconds)
            return code, stdout, stderr

        got = set_up(workload, work, catalog)
        setups.append(sum(catalog_s))
        if digests is not None and got != digests:
            raise SetupError("catalog output differs between set-ups")
        digests = got
    times, peak = measure_jobs(workload, runner, tally, seconds)
    slowdown = runner.host.slowdown()
    print(f"host slowdown {slowdown:.4f} (median of "
          f"{len(runner.host.samples)} kernel samples); wall seconds below",
          file=sys.stderr)
    print("set-up: " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
    for name, job_times in times.items():
        print(f"{name}: " + " ".join(f"{t:.3f}" for t in job_times),
              file=sys.stderr)
    # One pass made of each job's median time, and both times divided by
    # the host's slowdown during this run: seconds at the baseline speed.
    values = {"setup_s": statistics.median(setups) / slowdown,
              "run_s": sum(statistics.median(t) for t in times.values())
              / slowdown,
              "peak_rss_mb": peak}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # a crash is a failed job, not a stop
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def in_process_pass(workload, cli, tracer=None):
    """One pass through cli.main in this process; (seconds, results)."""
    results = []
    started = time.perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        job_start = time.perf_counter()
        outcome = _in_process(cli.main, job.argv)
        results.append((job, time.perf_counter() - job_start, outcome))
    return time.perf_counter() - started, results


def run_traced(workload, runner, work, root, seed, tally):
    runner.run(["--version"])  # compiles the package's bytecode once
    imports = [runner.run(["--version"])[0] for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, os.path.join(root, "src"))
    from casmat import cli

    tracer = tracing.Tracer()
    previous = os.getcwd()
    os.chdir(work)
    try:
        tracer.install()
        tracer.job = "setup"
        try:
            set_up(workload, work, lambda argv: _in_process(cli.main, argv))
        finally:
            tracer.remove()
        # tracing overhead compares like with like: both passes in-process
        untraced_s, plain = in_process_pass(workload, cli)
        tracer.install()
        try:
            traced_s, traced = in_process_pass(workload, cli, tracer)
        finally:
            tracer.remove()
    finally:
        os.chdir(previous)
    for (job, _, first), (_, _, again) in zip(plain, traced):
        tally.record(job, checks.check_job(job, *first))
        tally.record(job, checks.check_job(job, *again)
                     + checks.check_same(first[1], again[1]))
    if tracer.missing:
        print("warning: no such casmat function to trace: "
              + ", ".join(tracer.missing), file=sys.stderr)

    values = tracing.layer_metrics(tracer.spans)
    for command in COMMANDS:
        values[f"cli.{command}_s"] = sum(
            seconds for job, seconds, _ in plain if job.command == command)
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    tracer.dump(os.path.join(root, WORK_DIR,
                             f"trace-{workload.name}.json"),
                {"workload": workload.name, "seed": seed,
                 "untraced_run_s": untraced_s, "traced_run_s": traced_s,
                 "top_self_s": tracing.top_self_times(tracer.spans),
                 "metrics": values})
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "casmat", "cli.py")):
        print(f"error: {root} holds no casmat source tree (src/casmat); "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    # BLAS threads for this process too, before the traced run loads numpy
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    os.environ.pop("CASMAT_SEED", None)
    workload = workloads.build(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(root, WORK_DIR))
    tally = Tally()
    host = None
    try:
        host = None if args.trace else HostSpeed()
        runner = Runner(root, work, deadline, host)
        if args.trace:
            metrics = run_traced(workload, runner, work, root, args.seed,
                                 tally)
        else:
            metrics = run_untraced(workload, runner, work, args.seconds,
                                   tally)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if host is not None:
            host.close()
        shutil.rmtree(work, ignore_errors=True)
    for name, problems in tally.failures:
        print(f"FAILED {name}: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({"correct": not tally.failures,
                      "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
