#!/usr/bin/env python3
"""Fail when walker/LDS addressing changed without re-recorded artifacts.

The perf gate compares runs against committed baselines, and the bench
report in BENCH_kernels.json is the committed record of walker
throughput. Both describe a specific memory layout and row-execution
scheme: if a change touches how LDS cells are addressed or how rows are
walked, the committed numbers describe a binary that no longer exists,
and the gate would silently compare against a different layout. This
check forces the two to move together in the same change.

The sequential oracle is held to its own artifact only: its throughput
is recorded in BENCH_kernels.json (the "seq" rows), while no perf
baseline field depends on it (sim baselines are virtual time, and shm
checks its grid by digest after its ranks finish, so the oracle, which
runs at most once per problem, is never inside wall_seconds).

Usage: check_baselines.py [BASE]

BASE is the commit to diff HEAD against (a PR base SHA or push-before
SHA). When absent, unresolvable, or all-zero (first push), the check
falls back to the merge base with origin/main, then to HEAD^.
"""

import subprocess
import sys

# Files that define LDS cell addressing or row execution — the walker,
# the per-plan row table it replays (row_table.ml), the generated native
# row kernels (rowgen.ml, native_kernel.ml, and emit_common.ml, whose
# tables rowgen prints into every one of them), the
# rank programs and executor entry points that drive them, the pool the
# ranks borrow their LDS buffers from (lds_pool.ml, which moves walker
# throughput), the count table that fixes every message and its cell
# count (count_table.ml, the sim baselines' messages and bytes), the
# fiber scheduler that runs shm's ranks (its wall clock), the grid
# (the walkers' write-back target and the oracle's halo layout), and the
# kernel IR that the walkers' row bodies are printed from at build time
# (the printer, the generator and the kernel definitions). A change to
# any of these invalidates the committed perf artifacts.
WATCHED = {
    "lib/runtime/walker.ml",
    "lib/runtime/grid.ml",
    "lib/runtime/kernel.ml",
    "lib/runtime/native_kernel.ml",
    "lib/runtime/native_stubs.c",
    "lib/runtime/protocol.ml",
    "lib/runtime/executor.ml",
    "lib/runtime/shm_executor.ml",
    "lib/runtime/lds_pool.ml",
    "lib/mpisim/sched.ml",
    "lib/codegen/rowgen.ml",
    "lib/codegen/emit_common.ml",
    "lib/core/lds.ml",
    "lib/core/row_table.ml",
    "lib/core/count_table.ml",
    "lib/util/fbuf.ml",
    "lib/kir/kir.ml",
    "lib/apps/kernels/gen_bodies.ml",
    "lib/apps/kernels/defs.ml",
}

# The sequential oracle: a change moves BENCH_kernels.json's "seq" rows,
# which must be re-recorded alongside; perf baselines are not required.
ORACLE_WATCHED = {
    "lib/runtime/seq_exec.ml",
}

# Files that produce the perf baselines' timed fields: the simulator's
# network timing model (which moves every simulated completion time),
# the fiber scheduler (its run order fixes the order of contended lane
# reservations, and so contended virtual time) and the observability
# layer that records spans and folds them into
# the baselines' Stats fields (the recorder, Stats and the critical
# path walk). A change here must re-record the committed perf baselines
# in the same change; BENCH_kernels.json measures wall-clock walker
# throughput and is unaffected.
TIMED_WATCHED = {
    "lib/mpisim/netmodel.ml",
    "lib/mpisim/sim.ml",
    "lib/mpisim/sched.ml",
    "lib/obs/recorder.ml",
    "lib/obs/stats.ml",
    "lib/obs/critpath.ml",
}


def rev_ok(rev):
    return (
        subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", rev + "^{commit}"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode
        == 0
    )


def resolve_base(arg):
    if arg and not set(arg) <= {"0"} and rev_ok(arg):
        return arg
    mb = subprocess.run(
        ["git", "merge-base", "origin/main", "HEAD"],
        capture_output=True,
        text=True,
    )
    if mb.returncode == 0:
        base = mb.stdout.strip()
        head = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], text=True
        ).strip()
        if base != head:
            return base
    return "HEAD^" if rev_ok("HEAD^") else None


def main():
    arg = sys.argv[1] if len(sys.argv) > 1 else None
    base = resolve_base(arg)
    if base is None:
        print("baseline check: no base commit to diff against; skipping")
        return 0
    files = [
        f
        for f in subprocess.check_output(
            ["git", "diff", "--name-only", f"{base}...HEAD"], text=True
        ).splitlines()
        if f
    ]
    baselines_touched = any(f.startswith("perf/baselines/") for f in files)
    rc = 0

    hot = sorted(set(files) & WATCHED)
    if not hot:
        print("baseline check: no walker-addressing files changed")
    else:
        missing = []
        if not baselines_touched:
            missing.append("perf/baselines/*.json (tilec perf ... --record)")
        if "BENCH_kernels.json" not in files:
            missing.append("BENCH_kernels.json (bench --json kernels)")
        if missing:
            print(f"walker-addressing files changed vs {base}:")
            for f in hot:
                print(f"  {f}")
            print("but these committed artifacts were not re-recorded:")
            for m in missing:
                print(f"  {m}")
            rc = 1
        else:
            print(
                f"baseline check: {len(hot)} addressing file(s) changed, "
                "perf baselines and BENCH_kernels.json re-recorded alongside"
            )

    oracle_hot = sorted(set(files) & ORACLE_WATCHED)
    if not oracle_hot:
        print("baseline check: no oracle files changed")
    elif "BENCH_kernels.json" not in files:
        print(f"sequential-oracle files changed vs {base}:")
        for f in oracle_hot:
            print(f"  {f}")
        print("but BENCH_kernels.json was not re-recorded alongside")
        print("(its seq rows record the oracle; run bench --json kernels)")
        rc = 1
    else:
        print(
            f"baseline check: {len(oracle_hot)} oracle file(s) changed, "
            "BENCH_kernels.json re-recorded alongside"
        )

    timed_hot = sorted(set(files) & TIMED_WATCHED)
    if not timed_hot:
        print("baseline check: no timing-model or stats files changed")
    elif not baselines_touched:
        print(f"timing-model or stats files changed vs {base}:")
        for f in timed_hot:
            print(f"  {f}")
        print("but no perf/baselines/*.json was re-recorded alongside")
        print("(the baselines' timed fields may have moved; "
              "run tilec perf ... --record)")
        rc = 1
    else:
        print(
            f"baseline check: {len(timed_hot)} timing-model or stats "
            "file(s) changed, perf baselines re-recorded alongside"
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
