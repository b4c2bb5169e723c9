#!/usr/bin/env python3
"""Exercise check_baselines.py against a throwaway git repository.

Each case commits a change on top of a base commit and runs the check
with that base, asserting its exit code:

  - an oracle-only change without BENCH_kernels.json fails;
  - an oracle-only change with BENCH_kernels.json passes;
  - a walker change without perf baselines fails, even with
    BENCH_kernels.json re-recorded;
  - a kernel-definition change (the source of the generated row
    bodies) fails without both artifacts and passes with them;
  - a row-table change (the LDS cells and rows the walkers replay)
    fails with BENCH_kernels.json alone and passes with both artifacts;
  - an emit_common change (its tables are printed into every native
    row kernel) fails with BENCH_kernels.json alone;
  - a grid change (write-back target and oracle halo layout) fails
    with BENCH_kernels.json alone and passes with both artifacts;
  - an LDS-pool change (walker throughput) fails with perf baselines
    alone and passes with both artifacts;
  - a count-table change (every message and its cell count) fails with
    BENCH_kernels.json alone and passes with both artifacts;
  - a Stats change (it folds the baselines' timed fields) fails without
    perf baselines and passes with them;
  - a fiber-scheduler change (it fixes contended virtual time and shm
    wall clock) fails without perf baselines and passes with both
    artifacts.

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
    "lib/runtime/grid.ml",
    "lib/core/row_table.ml",
    "lib/core/count_table.ml",
    "lib/runtime/lds_pool.ml",
    "lib/codegen/emit_common.ml",
    "lib/apps/kernels/defs.ml",
    "lib/obs/stats.ml",
    "lib/mpisim/sched.ml",
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
    ("kernel definition change without artifacts",
     ["lib/apps/kernels/defs.ml"], 1),
    ("kernel definition change with both artifacts",
     ["lib/apps/kernels/defs.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
    ("row-table change with BENCH_kernels.json only",
     ["lib/core/row_table.ml", "BENCH_kernels.json"], 1),
    ("row-table change with both artifacts",
     ["lib/core/row_table.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
    ("emit_common change with BENCH_kernels.json only",
     ["lib/codegen/emit_common.ml", "BENCH_kernels.json"], 1),
    ("grid change with BENCH_kernels.json only",
     ["lib/runtime/grid.ml", "BENCH_kernels.json"], 1),
    ("grid change with both artifacts",
     ["lib/runtime/grid.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
    ("lds-pool change with perf baselines only",
     ["lib/runtime/lds_pool.ml", "perf/baselines/sor-nonrect-sim.json"], 1),
    ("lds-pool change with both artifacts",
     ["lib/runtime/lds_pool.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
    ("count-table change with BENCH_kernels.json only",
     ["lib/core/count_table.ml", "BENCH_kernels.json"], 1),
    ("count-table change with both artifacts",
     ["lib/core/count_table.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
    ("stats change without perf baselines",
     ["lib/obs/stats.ml"], 1),
    ("stats change with perf baselines",
     ["lib/obs/stats.ml", "perf/baselines/sor-nonrect-sim.json"], 0),
    ("scheduler change without perf baselines",
     ["lib/mpisim/sched.ml", "BENCH_kernels.json"], 1),
    ("scheduler change with both artifacts",
     ["lib/mpisim/sched.ml", "BENCH_kernels.json",
      "perf/baselines/sor-nonrect-sim.json"], 0),
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
