#!/usr/bin/env bash
# End-to-end smoke of the `dcb serve` daemon: start it, hit it with
# concurrent clients, require every served response byte-identical to the
# one-shot CLI output and the second round to be all cache hits, soak it
# with 256 parked idle connections while a ping still round-trips, then
# shut down cleanly via SIGTERM and validate the exported dcb-stats-v1
# file. A second daemon run exercises --persist: populate, SIGTERM,
# restart on the same segment, and require the first request after the
# restart to be a warm cache hit with byte-identical output. Two hostile
# requests on the way (a control-character op name and a warp-0 races
# analysis) must get error answers without killing the daemon or the
# request log's JSON.
#
# usage: scripts/serve_smoke.sh <dcb-binary> [workdir]
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: scripts/serve_smoke.sh <dcb-binary> [workdir]" >&2
  exit 2
fi
DCB="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
WORK="${2:-serve-smoke}"
NUM_CLIENTS=4

# Waits for $2 to write the port file $1, failing if the daemon dies or
# stalls. The daemon truncates a stale port file at startup, so callers
# just need a fresh name per run.
wait_port() {
  local FILE="$1" PID="$2"
  for _ in $(seq 100); do
    [ -s "$FILE" ] && return 0
    kill -0 "$PID" 2>/dev/null || {
      echo "serve_smoke: daemon died during startup" >&2
      exit 1
    }
    sleep 0.1
  done
  echo "serve_smoke: daemon never wrote the port file" >&2
  exit 1
}

# SIGTERMs $1 and waits for it to exit on its own (no KILL).
term_and_wait() {
  local PID="$1"
  kill -TERM "$PID"
  for _ in $(seq 100); do
    kill -0 "$PID" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "serve_smoke: daemon ignored SIGTERM" >&2
  exit 1
}

mkdir -p "$WORK"
cd "$WORK"
rm -f port.txt metrics-port.txt serve-stats.json serve.log reqlog.jsonl \
    metrics.prom flight-trace.json top.txt

"$DCB" make-suite sm_35 -o suite.cubin > /dev/null
"$DCB" disasm suite.cubin > oneshot.sass

"$DCB" serve --port-file port.txt --stats=serve-stats.json \
    --metrics-port 0 --metrics-port-file metrics-port.txt \
    --request-log reqlog.jsonl \
    2> serve.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

wait_port port.txt "$SERVE_PID"

# Two rounds of concurrent clients. Round 1 populates the cache; round 2
# must be served from it. Every response must match the one-shot bytes.
for ROUND in 1 2; do
  PIDS=()
  for I in $(seq "$NUM_CLIENTS"); do
    "$DCB" client --port-file port.txt disasm suite.cubin \
        > "served.$ROUND.$I.sass" &
    PIDS+=("$!")
  done
  for P in "${PIDS[@]}"; do wait "$P"; done
  for I in $(seq "$NUM_CLIENTS"); do
    cmp oneshot.sass "served.$ROUND.$I.sass" || {
      echo "serve_smoke: served bytes diverged (round $ROUND, client $I)" >&2
      exit 1
    }
  done
done

# The live stats op must report at least a full second round of hits and
# exactly one distinct decode per cache key (one key in play here).
"$DCB" client --port-file port.txt stats > stats-line.json
python3 - stats-line.json "$NUM_CLIENTS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
clients = int(sys.argv[2])
cache = doc["cache"]
assert doc["status"] == "ok", doc
# Identical request lines are answered by the render memo once the first
# content-cache hit populated it, so warm traffic splits across the two
# layers; together they must cover everything past the initial misses.
warm = cache["hits"] + doc["render"]["hits"]
assert warm >= clients, (cache, doc["render"])
assert 1 <= cache["misses"] <= clients, cache
assert doc["sessions"]["requests"] >= 2 * clients, doc["sessions"]
PY

# --- Introspection plane -----------------------------------------------------
# Scrape the Prometheus endpoint *while* clients are hammering the
# daemon: the exposition is rendered inline on the reactor, so load must
# not stall or corrupt it. The scrape uses plain HTTP/1.0 over urllib —
# no new dependencies.
PIDS=()
for I in $(seq "$NUM_CLIENTS"); do
  "$DCB" client --port-file port.txt disasm suite.cubin > /dev/null &
  PIDS+=("$!")
done
python3 - > metrics.prom <<'PY'
import urllib.request
port = int(open("metrics-port.txt").read().strip())
with urllib.request.urlopen("http://127.0.0.1:%d/metrics" % port) as r:
    body = r.read().decode()
    assert r.headers["Content-Type"].startswith("text/plain"), r.headers
    print(body, end="")
PY
for P in "${PIDS[@]}"; do wait "$P"; done

# promtool-style validation without promtool: every line must follow the
# text-exposition grammar, every histogram's cumulative buckets must be
# monotone and end at +Inf == _count, and the build-info gauge must be
# stamped.
python3 - metrics.prom <<'PY'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty exposition"
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
    r'(?:[0-9.eE+-]+|NaN)( [0-9]+)?$')
meta = re.compile(r'^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$')
hist = {}   # name -> list of (le, cumulative count)
counts = {} # name -> _count value
for ln in lines:
    if not ln:
        continue
    assert meta.match(ln) or sample.match(ln), "bad exposition line: " + ln
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{le="([^"]+)"\} (\d+)$',
                 ln)
    if m:
        le = float("inf") if m.group(2) == "+Inf" else float(m.group(2))
        hist.setdefault(m.group(1), []).append((le, int(m.group(3))))
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_count (\d+)$', ln)
    if m:
        counts[m.group(1)] = int(m.group(2))
for name, buckets in hist.items():
    les = [le for le, _ in buckets]
    cums = [c for _, c in buckets]
    assert les == sorted(les), "bucket les not sorted: " + name
    assert cums == sorted(cums), "buckets not cumulative: " + name
    assert les[-1] == float("inf"), "+Inf bucket missing: " + name
    assert cums[-1] == counts.get(name), "+Inf != _count: " + name
assert any(ln.startswith("dcb_build_info{") for ln in lines), \
    "dcb_build_info missing"
PY

# The flight recorder is always on in the daemon: `dcb client trace`
# must pull a Chrome-trace-loadable document from the live process.
"$DCB" client --port-file port.txt trace > flight-trace.json
python3 - flight-trace.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert isinstance(doc["traceEvents"], list), doc.keys()
assert "flightDropped" in doc, doc.keys()
PY

# `dcb top` under a trickle of background traffic: two 300ms samples,
# and the sampled interval must show a non-zero request rate (req/s
# comes from the server's exact session totals).
( for _ in $(seq 20); do
    "$DCB" client --port-file port.txt ping > /dev/null || exit 0
    sleep 0.05
  done ) &
LOAD_PID=$!
"$DCB" top --port-file port.txt --interval-ms 300 --count 2 > top.txt
wait "$LOAD_PID" || true
python3 - top.txt <<'PY'
import sys
lines = [ln for ln in open(sys.argv[1]).read().splitlines() if ln.strip()]
assert lines and lines[0].split()[0] == "req/s", lines
samples = lines[1:]
assert len(samples) == 2, lines
assert any(float(s.split()[0]) > 0 for s in samples), samples
PY

# Idle-connection soak: 256 parked connections are buffers, not threads —
# the daemon must keep serving while they sit there, and a ping must
# still round-trip in-band.
python3 - "$DCB" <<'PY'
import json, socket, subprocess, sys
dcb = sys.argv[1]
port = int(open("port.txt").read().strip())
socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(256)]
out = subprocess.run(
    [dcb, "client", "--port", str(port), "ping"],
    capture_output=True, text=True, check=True).stdout
doc = json.loads(out) if out.lstrip().startswith("{") else {"raw": out}
assert doc.get("status", "ok") == "ok", doc
for s in socks:
    s.close()
PY

# Hostile requests: an op name holding control characters, which the
# request log checked below must still write as valid JSON, and a races
# analysis over warp 0. Both get error answers and the daemon stays up.
python3 - <<'PY'
import json, socket
port = int(open("port.txt").read().strip())
with socket.create_connection(("127.0.0.1", port)) as s:
    s.sendall(b'{"op":"x\\u0001y\\rz","id":"ctl"}\n'
              b'{"op":"analyze","path":"suite.cubin","mode":"races",'
              b'"warp":0,"id":"warp"}\n')
    answers = s.makefile("rb")
    for want in ("ctl", "warp"):
        doc = json.loads(answers.readline())
        assert doc["status"] == "error" and doc["id"] == want, doc
PY
kill -0 "$SERVE_PID" || {
  echo "serve_smoke: daemon died on a hostile request" >&2
  exit 1
}

# Clean SIGTERM shutdown: the daemon must exit by itself (no KILL) and
# flush its telemetry to the --stats file on the way out.
term_and_wait "$SERVE_PID"
trap - EXIT

[ -s serve-stats.json ] || {
  echo "serve_smoke: daemon exited without writing serve-stats.json" >&2
  exit 1
}
python3 - serve-stats.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dcb-stats-v1", doc.get("schema")
assert doc["provenance"]["telemetry"], doc.get("provenance")
counters = doc["counters"]
assert counters["serve.requests"] >= 9, counters.get("serve.requests")
warm = counters.get("serve.cache_hits", 0) + \
    counters.get("serve.cache.render_hits", 0)
assert warm >= 4, counters
assert counters["serve.cache_misses"] >= 1, counters.get("serve.cache_misses")
PY

# The saved snapshot re-renders as a Prometheus exposition offline, and
# the request log is one valid dcb-reqlog-v1 record per request with
# outcomes from the documented vocabulary.
"$DCB" stats --format=prom serve-stats.json > stats-final.prom
grep -q '^dcb_build_info{' stats-final.prom

[ -s reqlog.jsonl ] || {
  echo "serve_smoke: daemon wrote no request log" >&2
  exit 1
}
python3 - reqlog.jsonl <<'PY'
import json, sys
outcomes = {"hit", "miss", "render-memo", "busy", "error", "control"}
ids = []
for ln in open(sys.argv[1]):
    rec = json.loads(ln)
    assert rec["schema"] == "dcb-reqlog-v1", rec
    assert rec["outcome"] in outcomes, rec
    assert rec["status"] in {"ok", "busy", "error"}, rec
    ids.append(rec["req"])
# Worker-side records land in completion order, not dispatch order, so
# ids are unique and positive but not necessarily sorted.
assert len(ids) == len(set(ids)) and len(ids) >= 9, ids
assert all(r > 0 for r in ids), ids
PY

# --persist round trip: populate a segment, kill the daemon, restart on
# the same segment, and require the very first request of the new process
# to be a warm cache hit (loaded from disk, zero misses) with output
# byte-identical to the one-shot run.
rm -f persist-port.txt cache.seg persist1.log persist2.log
"$DCB" serve --port-file persist-port.txt --persist cache.seg \
    2> persist1.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
wait_port persist-port.txt "$SERVE_PID"
"$DCB" client --port-file persist-port.txt disasm suite.cubin \
    > persist.1.sass
cmp oneshot.sass persist.1.sass
term_and_wait "$SERVE_PID"

[ -s cache.seg ] || {
  echo "serve_smoke: daemon exited without writing the persist segment" >&2
  exit 1
}
rm -f persist-port.txt
"$DCB" serve --port-file persist-port.txt --persist cache.seg \
    2> persist2.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
wait_port persist-port.txt "$SERVE_PID"
"$DCB" client --port-file persist-port.txt disasm suite.cubin \
    > persist.2.sass
cmp oneshot.sass persist.2.sass || {
  echo "serve_smoke: restarted daemon served different bytes" >&2
  exit 1
}
"$DCB" client --port-file persist-port.txt stats > persist-stats-line.json
python3 - persist-stats-line.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["status"] == "ok", doc
assert doc["persist"]["enabled"] is True, doc["persist"]
assert doc["persist"]["loaded"] >= 1, doc["persist"]
assert doc["cache"]["hits"] >= 1, doc["cache"]
assert doc["cache"]["misses"] == 0, doc["cache"]
PY
term_and_wait "$SERVE_PID"
trap - EXIT

echo "serve_smoke: ok (bytes identical, cache hit, metrics scrape" \
     "under load, flight trace, top, request log, idle soak," \
     "persist warm restart, clean shutdown)"
