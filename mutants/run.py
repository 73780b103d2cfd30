"""Mutation checks: every mutant in mutants/entries.py must be killed.

Run from the root of a casmat checkout:

    python3 mutants/run.py [name ...]

The runner copies src/, tests/, perfbench/ and pyproject.toml to a
temporary directory and first runs the tests that the chosen entries name
on that unmutated copy; they must pass. Then, one entry at a time, it
replaces the entry's snippet in its file (the snippet must occur exactly
once), runs only the entry's tests with pytest, and restores the file. A
mutant is killed when those tests fail. An entry with an "equivalent"
reason is known to change no behaviour the tests can see, and must
survive. The runner prints one line per entry and exits 1 when a mutant
survives, an equivalent one is killed, a snippet does not match, or
pytest cannot run the named tests (a collection error or an unknown id);
so a refactor that moves a snippet must update the list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from entries import MUTANTS  # noqa: E402

COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
# a mutant that hangs counts as killed once this many seconds pass
TIMEOUT_S = 600


def pytest(work, tests):
    """pytest's exit code for the tests in the copy at work; None when
    they ran past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": os.path.join(work, "src"),
           # a mutated file can keep its size and mtime, so no bytecode
           # may be cached
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run_entry(work, entry):
    """(ok, outcome) for one mutant applied to the copy at work."""
    path = os.path.join(work, entry["file"])
    with open(path) as fh:
        source = fh.read()
    found = source.count(entry["snippet"])
    if found != 1:
        return False, f"snippet found {found} times in {entry['file']}"
    with open(path, "w") as fh:
        fh.write(source.replace(entry["snippet"], entry["replacement"]))
    try:
        code = pytest(work, entry["tests"])
    finally:
        with open(path, "w") as fh:
            fh.write(source)
    killed = code in (1, None)
    if code not in (0, 1, None):
        return False, f"pytest exited {code}: the tests did not run"
    if "equivalent" in entry:
        return not killed, ("killed, but marked equivalent" if killed
                            else "survived (equivalent: "
                                 f"{entry['equivalent']})")
    return killed, ("killed" + (" by timeout" if code is None else "")
                    if killed else "SURVIVED")


def main(argv):
    chosen = [e for e in MUTANTS if not argv or e["name"] in argv]
    unknown = set(argv) - {e["name"] for e in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as work:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in COPIED:
            source = os.path.join(ROOT, name)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(work, name),
                                ignore=ignore)
            else:
                shutil.copy(source, work)
        tests = sorted({t for e in chosen for t in e["tests"]})
        code = pytest(work, tests)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exited "
                  f"{code})")
            return 1
        for entry in chosen:
            began = time.perf_counter()
            ok, outcome = run_entry(work, entry)
            failures += not ok
            print(f"{entry['name']}: {outcome} "
                  f"({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} as expected in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
