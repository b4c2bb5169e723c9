# CI smoke test for `tilec serve`: drives the daemon over a pipe with a
# mixed batch containing duplicates, then asserts that (a) the duplicate
# burst was coalesced onto a single compile with bit-identical payloads,
# (b) a repeat request after the burst hits the plan cache, and (c) the
# metrics snapshot reports both along with per-class latency percentiles.
#
# Determinism: the daemon runs with a single worker and the batch leads
# with a tune job that occupies that worker for hundreds of
# milliseconds, so the identical plan requests queued behind it are all
# read -- and coalesced -- before any of them can execute.
#
# Usage: python3 scripts/serve_smoke.py [path/to/tilec.exe]
# Writes serve-artifacts/{final-metrics,latency}.json.
import json, os, subprocess, sys

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
# phase 1: the tune job occupies the single worker for hundreds of ms,
# so the identical plan burst behind it is read and coalesced before
# any of it can execute
send({"id": "warm", "op": "tune", "app": "adi", "variant": "nr1",
      "size1": 10, "size2": 12, "procs": 4, "factors": [2, 3]})
burst = [f"b{i}" for i in range(5)]
for i in burst:
    send(dict(plan, id=i))
r1 = read_until(set(burst) | {"warm"})
for i in burst + ["warm"]:
    assert r1[i]["status"] == "ok", r1[i]
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
