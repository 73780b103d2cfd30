"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload algebra --seeds 101-110

It runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, and
prints one JSON object: per metric the values, median, first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, plus attempted and failed jobs over all runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="first-last, e.g. 101-110")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]
    here = os.path.dirname(os.path.abspath(__file__))
    values, attempted, failed = {}, 0, 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()),
            file=sys.stderr, flush=True)
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1,
                         "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals),
                         "values": vals}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "run_seconds": seconds, "jobs_attempted": attempted,
                      "jobs_failed": failed, "end_to_end": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
