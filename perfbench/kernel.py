"""The host-speed kernel, kept in its own process (see HostSpeed in run.py).

Each line read from stdin runs the kernel once and prints the seconds of its
three parts: a 60 000-step interpreted loop, a sort of 10**6 doubles and a
pass over 64 MB. It exits at the end of stdin. In its own process, its
memory stays out of the peak RSS of the casmat children the benchmark
starts.
"""

import sys
import time

import numpy as np


def main():
    rng = np.random.default_rng(0)
    to_sort = rng.random(1_000_000)
    memory = rng.random(8_000_000)
    for _ in sys.stdin:
        parts = []
        started = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        parts.append(time.perf_counter() - started)
        started = time.perf_counter()
        np.sort(to_sort)
        parts.append(time.perf_counter() - started)
        started = time.perf_counter()
        memory.sum() + (memory * 2.0).sum()
        parts.append(time.perf_counter() - started)
        print(*parts, flush=True)


if __name__ == "__main__":
    main()
