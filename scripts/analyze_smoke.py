# CI smoke test for `tilec analyze`: runs the causal critical-path
# analysis on all three apps (sim backend, virtual time, deterministic)
# and asserts the core invariants the paper-facing numbers rest on:
#
#   (a) the extracted path is causal and complete -- its segments sum to
#       the completion time within 1e-9 (coverage >= 95% is the CI gate;
#       the sim backend achieves 100%),
#   (b) path length >= max rank busy time (the causal path dominates the
#       per-rank busy proxy),
#   (c) the Chrome artifact round-trips: --from on the emitted trace
#       reproduces the same path length, and the trace carries a
#       flow-event pair (ph "s"/"f") for every crossed message edge,
#   (d) the SVG timeline highlights the path.
#
# The SOR config also runs on the shm backend, blocking and overlapped:
# its wall-clock path must cover >= 95% and its segments sum to the
# completion within 1e-9. So must a 138-rank Jacobi shm run (more ranks
# than the runtime has domains; ranks are fibers sharing the host's
# cores), whose answer must also equal the sequential oracle's exactly.
#
# Then a bounded-memory scale check: a >=1024-rank Jacobi sim traced
# with the streaming recorder (span totals only) must fit under a hard
# RSS ceiling, and must peak at most STREAM_EXTRA_MB above the same
# config run untraced (`tilec simulate`), each measured in its own
# child process -- O(ranks) trace memory, independent of the span count.
#
# Usage: python3 scripts/analyze_smoke.py [path/to/tilec.exe]
# Writes analyze-artifacts/{<app>.json,<app>-trace.json,<app>.svg,
# stream-1219.json,stream-1219-contended.json}.
import json, os, subprocess, sys, tempfile

tilec = sys.argv[1] if len(sys.argv) > 1 else "./_build/default/bin/tilec.exe"
os.makedirs("analyze-artifacts", exist_ok=True)

RSS_CEILING_MB = 512
STREAM_EXTRA_MB = 10
MIN_COVERAGE = 0.95

def run(args):
    r = subprocess.run([tilec] + args, capture_output=True, text=True)
    assert r.returncode == 0, (args, r.stdout, r.stderr)
    return r.stdout

# Peak RSS of one tilec run. A process's ru_maxrss also counts the memory
# of the process it was spawned from, up to its exec, so tilec runs as the
# grandchild of a bare interpreter (python3 -S, about 9 MB) instead of as
# a child of this script, whose own peak would floor every reading.
MEASURE = """
import os, sys
out = os.open(sys.argv[1], os.O_WRONLY)
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

def run_rss(args):
    """Run tilec on its own; return its stdout and its peak RSS in MB."""
    with tempfile.NamedTemporaryFile(mode="r") as out:
        r = subprocess.run([sys.executable, "-S", "-c", MEASURE, out.name,
                            tilec] + args, capture_output=True, text=True)
        code, kib = map(int, r.stdout.split())
        assert code == 0, (args, r.stderr)
        # ru_maxrss is in KiB on Linux
        return out.read(), kib / 1024.0

APPS = {
    "sor": ["-M", "12", "-N", "16", "-x", "3", "-y", "4"],
    "jacobi": ["-t", "12", "-n", "16", "-x", "3", "-y", "4", "-z", "4"],
    # ADI's non-rectangular tilings are named nr1..nr3, not "nonrect"
    "adi": ["--variant", "nr1", "-t", "12", "-n", "16",
            "-x", "3", "-y", "4", "-z", "4"],
}

for app, size in APPS.items():
    trace = f"analyze-artifacts/{app}-trace.json"
    svg = f"analyze-artifacts/{app}.svg"
    base = ["analyze", "--app", app, "--backend", "sim"] + size
    rep = json.loads(run(base + ["--json", "--out", trace, "--svg", svg]))
    with open(f"analyze-artifacts/{app}.json", "w") as f:
        json.dump(rep, f, indent=2)

    assert rep["coverage"] >= MIN_COVERAGE, (app, rep["coverage"])
    gap = abs(rep["path_length_s"] - rep["completion_s"])
    assert gap <= 1e-9, (app, gap)
    assert rep["path_length_s"] >= rep["max_rank_busy_s"] - 1e-12, app
    ks = rep["kind_seconds"]
    assert abs(sum(ks.values()) - rep["path_length_s"]) <= 1e-9, (app, ks)

    # the Chrome artifact: flow events for the crossed edges, and
    # reading it back reproduces the identical path
    d = json.load(open(trace))
    flows = [e for e in d["traceEvents"] if e.get("ph") in ("s", "f")]
    sends = [e for e in flows if e["ph"] == "s"]
    assert sends and len(flows) == 2 * len(sends), (app, len(flows))
    assert all(e["cat"] == "tiles-flow" for e in flows), app
    assert len(sends) >= rep["edges_crossed"], (app, len(sends))
    rep2 = json.loads(run(["analyze", "--from", trace, "--json"]))
    assert abs(rep2["path_length_s"] - rep["path_length_s"]) <= 1e-12, app
    assert rep2["edges_crossed"] == rep["edges_crossed"], app

    assert "critical path" in open(svg).read(), svg
    print(f"{app}: path {rep['path_length_s']:.6f}s "
          f"coverage {rep['coverage']:.3f} edges {rep['edges_crossed']}")

# the shm backend on wall-clock traces, both schedules: its spans and
# edges still partition the run, so the walk covers the whole completion
for flags in ([], ["--overlap"]):
    rep = json.loads(run(["analyze", "--app", "sor", "--backend", "shm"]
                         + APPS["sor"] + flags + ["--json"]))
    name = "shm" + "".join(f" {f}" for f in flags)
    assert rep["coverage"] >= MIN_COVERAGE, (name, rep["coverage"])
    ks = rep["kind_seconds"]
    gap = abs(sum(ks.values()) - rep["completion_s"])
    assert gap <= 1e-9, (name, gap)
    print(f"sor {name}: completion {rep['completion_s']:.6f}s "
          f"coverage {rep['coverage']:.3f}")

SHM_WIDE = ["--app", "jacobi", "-t", "24", "-n", "66", "-x", "3", "-y", "8",
            "-z", "8", "--backend", "shm", "--json"]
r = subprocess.run([tilec, "analyze"] + SHM_WIDE, capture_output=True,
                   text=True)
assert r.returncode == 0, (SHM_WIDE, r.stdout, r.stderr)
assert "max |parallel - sequential| = 0\n" in r.stderr, r.stderr
rep = json.loads(r.stdout)
assert rep["nprocs"] == 138, rep["nprocs"]
assert rep["coverage"] >= MIN_COVERAGE, ("shm 138", rep["coverage"])
gap = abs(sum(rep["kind_seconds"].values()) - rep["completion_s"])
assert gap <= 1e-9, ("shm 138", gap)
print(f"jacobi shm 138 ranks: completion {rep['completion_s']:.6f}s "
      f"coverage {rep['coverage']:.3f}")

# scale: >=1024 sim ranks under the streaming recorder, against the
# same config untraced
SCALE = ["--app", "jacobi", "-t", "24", "-n", "256", "-x", "3", "-y", "8",
         "-z", "8"]
out, stream_mb = run_rss(["analyze", "--backend", "sim"] + SCALE
                         + ["--stream", "--json"])
stream = json.loads(out)
_, untraced_mb = run_rss(["simulate"] + SCALE)
with open("analyze-artifacts/stream-1219.json", "w") as f:
    json.dump(stream, f, indent=2)
stats = stream["stats"]
assert stats["nprocs"] >= 1024, stats["nprocs"]
assert stats["completion_s"] > 0
assert stream["longest_waits"], "streaming recorder kept no waits"
# same scale under the contended NIC model: single send/recv lanes per
# rank must produce attributed queueing (nic_queue_s is only emitted
# when nonzero), and the streaming recorder must stay under the same
# RSS ceiling -- contention adds per-rank lane state, not per-span state
out, cont_mb = run_rss(["analyze", "--backend", "sim"] + SCALE
                       + ["--stream", "--net", "contended", "--json"])
cont = json.loads(out)
with open("analyze-artifacts/stream-1219-contended.json", "w") as f:
    json.dump(cont, f, indent=2)
cstats = cont["stats"]
assert cstats["nprocs"] == stats["nprocs"], cstats["nprocs"]
assert cstats.get("nic_queue_s", 0.0) > 0.0, "contended sim saw no queueing"
# serializing NICs can only delay completion relative to alpha-beta
assert cstats["completion_s"] >= stats["completion_s"] - 1e-12

for name, mb in (("stream", stream_mb), ("contended", cont_mb)):
    assert mb < RSS_CEILING_MB, f"{name}: peak RSS {mb:.0f} MB"
# what tracing costs over the untraced run: per-rank totals and the wait
# reservoir, nothing per span
extra_mb = stream_mb - untraced_mb
assert extra_mb <= STREAM_EXTRA_MB, (
    f"streaming trace adds {extra_mb:.1f} MB over untraced "
    f"({stream_mb:.1f} vs {untraced_mb:.1f} MB)")
print(f"stream: {stats['nprocs']} ranks, {stats['messages']} messages, "
      f"peak RSS {stream_mb:.1f} MB (untraced {untraced_mb:.1f} MB, "
      f"+{extra_mb:.1f} MB)")
print(f"contended: completion {cstats['completion_s']:.6f}s "
      f"(alpha-beta {stats['completion_s']:.6f}s), "
      f"nic queueing {cstats['nic_queue_s']:.3f}s across ranks")
print("analyze smoke OK")
