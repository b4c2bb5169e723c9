# CI smoke test for `tilec serve`: drives the daemon over a pipe with a
# mixed batch containing duplicates, then asserts that (a) the duplicate
# burst was coalesced onto a single compile with bit-identical payloads,
# (b) a repeat request after the burst hits the plan cache, (c) sim
# execute jobs, repeated and not, all match the sequential oracle
# exactly, (d) one shm execute job sent twice matches it exactly both
# times with a finite positive speedup, and (e) the metrics snapshot
# reports (a) and (b) along with per-class latency percentiles.
#
# Determinism: the daemon runs with a single worker and the batch leads
# with a tune job (ADI 24/32 on 16 processes, the default factor sweep)
# that occupies that worker for some 50 ms on a 2-core Xeon VM, over
# 100 times the 0.2-0.4 ms the daemon takes to read the burst, so the
# identical plan requests queued behind it are all read -- and
# coalesced -- before any of them can execute. The tune reply must name a best candidate with a positive
# simulated completion.
#
# Usage: python3 scripts/serve_smoke.py [path/to/tilec.exe]
# Writes serve-artifacts/{final-metrics,latency}.json.
import json, math, os, subprocess, sys

os.makedirs("serve-artifacts", exist_ok=True)
cmd = sys.argv[1:] or ["./_build/default/bin/tilec.exe"]
p = subprocess.Popen(
    cmd + ["serve", "--workers", "1", "--capacity", "32",
           "--metrics-out", "serve-artifacts/final-metrics.json"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def send(obj):
    p.stdin.write(json.dumps(obj) + "\n")
    p.stdin.flush()

def read_until(ids):
    got = {}
    while ids - got.keys():
        line = p.stdout.readline()
        assert line, "daemon closed stdout early"
        r = json.loads(line)
        got[r.get("id", "")] = r
    return got

plan = {"op": "plan", "app": "sor", "size1": 24, "size2": 32,
        "tile": [6, 8, 8]}
# phase 1: the tune job occupies the single worker for some 50 ms, so
# the identical plan burst behind it is read and coalesced before any
# of it can execute
send({"id": "warm", "op": "tune", "app": "adi", "variant": "nr1",
      "size1": 24, "size2": 32, "procs": 16})
burst = [f"b{i}" for i in range(5)]
for i in burst:
    send(dict(plan, id=i))
r1 = read_until(set(burst) | {"warm"})
for i in burst + ["warm"]:
    assert r1[i]["status"] == "ok", r1[i]
assert r1["warm"]["best"]["completion_s"] > 0, r1["warm"]
labels = [r1[i]["cache"] for i in burst]
assert labels.count("miss") == 1, labels
assert labels.count("coalesced") == len(burst) - 1, labels
payloads = set()
for i in burst:
    r = dict(r1[i])
    for k in ("id", "cache", "queued_s", "service_s"):
        r.pop(k, None)
    payloads.add(json.dumps(r, sort_keys=True))
assert len(payloads) == 1, "coalesced payloads differ"

# phase 2: the same configuration again, after phase 1 fully completed
# -> a guaranteed plan-cache hit, no coalescing involved
send(dict(plan, id="again"))
r2 = read_until({"again"})
assert r2["again"]["status"] == "ok"
assert r2["again"]["cache"] == "hit", r2["again"]

# phase 3: sim execute jobs, one at a time so none coalesces. The
# second is the first again, so its check is a digest match against the
# oracle digest the first one remembered; the third is another size.
# Every one must report an exact match.
execute = dict(plan, op="execute", backend="sim")
for i, job in [("x1", execute), ("x2", execute),
               ("x3", dict(execute, size1=16, size2=24))]:
    send(dict(job, id=i))
    r = read_until({i})[i]
    assert r["status"] == "ok", r
    assert r["max_abs_err"] == 0, r

# phase 4: one shm execute job, twice. The first runs the oracle; the
# second is checked by digest against the oracle digest the first
# remembered, and its speedup divides by the oracle time remembered
# with it. Non-finite floats are written as null, which fails here.
shm = dict(execute, backend="shm")
for i in ("s1", "s2"):
    send(dict(shm, id=i))
    r = read_until({i})[i]
    assert r["status"] == "ok", r
    assert r["max_abs_err"] == 0, r
    s = r["speedup"]
    assert isinstance(s, (int, float)) and math.isfinite(s) and s > 0, r

send({"id": "m", "op": "metrics"})
m = read_until({"m"})["m"]["metrics"]
assert m["coalesce"]["batched"] == len(burst) - 1, m["coalesce"]
assert m["plan_cache"]["hits"] >= 1, m["plan_cache"]
assert m["queue"]["rejected_full"] == 0, m["queue"]
cls = m["jobs"]["classes"]
assert "plan" in cls and "tune" in cls, cls.keys()
for c in cls.values():
    assert c["total_s"]["p50"] >= 0 and c["total_s"]["p99"] >= 0

send({"op": "shutdown"})
out, _ = p.communicate(timeout=120)
assert p.returncode == 0, p.returncode
final = [json.loads(l) for l in out.splitlines() if l.strip()]
assert any(r.get("op") == "shutdown" for r in final), "no shutdown ack"

with open("serve-artifacts/latency.json", "w") as f:
    json.dump(m, f, indent=2)
print("serve smoke OK: coalesced", m["coalesce"]["batched"],
      "cache hits", m["plan_cache"]["hits"])
