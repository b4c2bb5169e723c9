#!/usr/bin/env python3
"""Exercise check_baselines.py against a throwaway git repository.

Each case commits a change on top of a base commit and runs the check
with that base, asserting its exit code:

  - an oracle-only change without BENCH_kernels.json fails;
  - an oracle-only change with BENCH_kernels.json passes;
  - a walker change without perf baselines fails, even with
    BENCH_kernels.json re-recorded.

Usage: python3 scripts/test_check_baselines.py
"""

import os
import subprocess
import sys
import tempfile

CHECK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "check_baselines.py"
)

FILES = [
    "lib/runtime/seq_exec.ml",
    "lib/runtime/walker.ml",
    "BENCH_kernels.json",
    "perf/baselines/sor-nonrect-sim.json",
]


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=check", "-c", "user.email=check@localhost",
         *args],
        cwd=repo,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def touch(repo, path, text):
    full = os.path.join(repo, path)
    os.makedirs(os.path.dirname(full) or repo, exist_ok=True)
    with open(full, "a") as f:
        f.write(text + "\n")


def exit_code(changed):
    """Commit [changed] on top of a fresh base; return the check's exit code."""
    with tempfile.TemporaryDirectory() as repo:
        git(repo, "init", "-q")
        for path in FILES:
            touch(repo, path, "base")
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "base")
        git(repo, "tag", "base")
        for path in changed:
            touch(repo, path, "change")
        git(repo, "commit", "-q", "-am", "change")
        return subprocess.run(
            [sys.executable, CHECK, "base"],
            cwd=repo,
            stdout=subprocess.DEVNULL,
        ).returncode


CASES = [
    ("oracle change without BENCH_kernels.json",
     ["lib/runtime/seq_exec.ml"], 1),
    ("oracle change with BENCH_kernels.json",
     ["lib/runtime/seq_exec.ml", "BENCH_kernels.json"], 0),
    ("walker change without perf baselines",
     ["lib/runtime/walker.ml", "BENCH_kernels.json"], 1),
]


def main():
    failed = 0
    for name, changed, expected in CASES:
        got = exit_code(changed)
        status = "ok" if got == expected else "FAIL"
        print(f"{status}: {name}: exit {got} (expected {expected})")
        failed += got != expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
