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
times the oracle outside wall_seconds).

Usage: check_baselines.py [BASE]

BASE is the commit to diff HEAD against (a PR base SHA or push-before
SHA). When absent, unresolvable, or all-zero (first push), the check
falls back to the merge base with origin/main, then to HEAD^.
"""

import subprocess
import sys

# Files that define LDS cell addressing or row execution — the walker,
# the generated native row kernels (rowgen.ml, native_kernel.ml) and the
# rank programs and executor entry points that drive them. A change to
# any of these invalidates the committed perf artifacts.
WATCHED = {
    "lib/runtime/walker.ml",
    "lib/runtime/kernel.ml",
    "lib/runtime/native_kernel.ml",
    "lib/runtime/native_stubs.c",
    "lib/runtime/protocol.ml",
    "lib/runtime/executor.ml",
    "lib/runtime/shm_executor.ml",
    "lib/codegen/rowgen.ml",
    "lib/core/lds.ml",
    "lib/util/fbuf.ml",
}

# The sequential oracle: a change moves BENCH_kernels.json's "seq" rows,
# which must be re-recorded alongside; perf baselines are not required.
ORACLE_WATCHED = {
    "lib/runtime/seq_exec.ml",
}

# Files that define the simulator's network timing model. A change here
# moves every simulated completion time, so the committed perf baselines
# (recorded under a specific model) must be re-recorded in the same
# change; BENCH_kernels.json measures wall-clock walker throughput and
# is unaffected.
NET_WATCHED = {
    "lib/mpisim/netmodel.ml",
    "lib/mpisim/sim.ml",
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

    net_hot = sorted(set(files) & NET_WATCHED)
    if not net_hot:
        print("baseline check: no network-model files changed")
    elif not baselines_touched:
        print(f"network-model files changed vs {base}:")
        for f in net_hot:
            print(f"  {f}")
        print("but no perf/baselines/*.json was re-recorded alongside")
        print("(simulated completions moved; run tilec perf ... --record)")
        rc = 1
    else:
        print(
            f"baseline check: {len(net_hot)} network-model file(s) changed, "
            "perf baselines re-recorded alongside"
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
