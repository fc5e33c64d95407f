#!/usr/bin/env bash
# End-to-end smoke test for the distributed deployment: generate a
# corpus, split it into 2 shards x 2 replicas with `tixdb shard`, boot
# four backend tixd processes plus a tixq coordinator on ephemeral
# loopback ports, and check that every access family answers through
# the coordinator byte-identically (modulo timings/cache/step
# accounting) to a single-node tixd over the whole corpus — then kill
# one replica mid-workload and check the answers stay exact and
# non-degraded, kill the other and check the degraded flag. Exits
# non-zero on the first failed check.
set -euo pipefail

TIXDB=${TIXDB:-_build/default/bin/tixdb.exe}
TIXD=${TIXD:-_build/default/bin/tixd.exe}
TIXQ=${TIXQ:-_build/default/bin/tixq.exe}

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for log in "$WORK"/*.log; do
    echo "---- $log" >&2
    sed 's/^/  /' "$log" >&2 || true
  done
  exit 1
}

# scrape "on 127.0.0.1:PORT" from a startup log, waiting for the
# process to come up
wait_port() { # logfile pid
  local port=
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1" | head -1)
    [ -n "$port" ] && break
    kill -0 "$2" 2>/dev/null || fail "$(basename "$1" .log) exited during startup"
    sleep 0.1
  done
  [ -n "$port" ] || fail "$(basename "$1" .log) never reported its port"
  echo "$port"
}

echo "== corpus + shard images (2 shards x 2 replicas)"
"$TIXDB" gen -n 30 -o "$WORK/corpus" >/dev/null
# a document whose name reads like a plan line: its "document glob:
# limit: 2" plan line must not be taken for the plan's row limit
LIMIT_DOC="$WORK/corpus/limit: 2"
cp "$WORK/corpus/article-0.xml" "$LIMIT_DOC"
"$TIXDB" shard "$WORK"/corpus/*.xml "$LIMIT_DOC" --shards 2 --replicas 2 \
  -o "$WORK/shards" >/dev/null
[ -f "$WORK/shards/manifest.json" ] || fail "no manifest written"
[ -f "$WORK/shards/shard-0.tix" ] || fail "no shard image written"
TERM_PROBE=$(grep -oE '<p>[a-z]+[0-9]+' "$WORK/corpus/article-0.xml" | head -1 | cut -c4-)
[ -n "$TERM_PROBE" ] || fail "no vocabulary term found in generated corpus"
echo "   probe term: $TERM_PROBE"

echo "== boot backends on ephemeral ports"
declare -A BACKEND_PID
for shard in 0 1; do
  for replica in 0 1; do
    log="$WORK/tixd-$shard-$replica.log"
    "$TIXD" "$WORK/shards/shard-$shard.tix" --port 0 --workers 1 \
      >"$log" 2>&1 &
    BACKEND_PID[$shard-$replica]=$!
    PIDS+=("${BACKEND_PID[$shard-$replica]}")
  done
done
declare -A BACKEND_PORT
for shard in 0 1; do
  for replica in 0 1; do
    BACKEND_PORT[$shard-$replica]=$(wait_port "$WORK/tixd-$shard-$replica.log" \
      "${BACKEND_PID[$shard-$replica]}")
  done
done
echo "   shard 0: ${BACKEND_PORT[0-0]} ${BACKEND_PORT[0-1]}" \
     " shard 1: ${BACKEND_PORT[1-0]} ${BACKEND_PORT[1-1]}"

# the manifest was written with a static port plan; point it at the
# ports the kernel actually assigned
python3 - "$WORK/shards/manifest.json" \
  "${BACKEND_PORT[0-0]}" "${BACKEND_PORT[0-1]}" \
  "${BACKEND_PORT[1-0]}" "${BACKEND_PORT[1-1]}" <<'PY'
import json, sys
path = sys.argv[1]
ports = [int(p) for p in sys.argv[2:]]
with open(path) as f:
    manifest = json.load(f)
it = iter(ports)
for shard in manifest["shards"]:
    for replica in shard["replicas"]:
        replica["port"] = next(it)
with open(path, "w") as f:
    json.dump(manifest, f)
PY

echo "== boot coordinator + single-node oracle"
"$TIXQ" "$WORK/shards/manifest.json" --port 0 >"$WORK/tixq.log" 2>&1 &
COORD_PID=$!
PIDS+=("$COORD_PID")
COORD_PORT=$(wait_port "$WORK/tixq.log" "$COORD_PID")
"$TIXD" "$WORK"/corpus/*.xml "$LIMIT_DOC" --port 0 --workers 1 \
  >"$WORK/oracle.log" 2>&1 &
ORACLE_PID=$!
PIDS+=("$ORACLE_PID")
ORACLE_PORT=$(wait_port "$WORK/oracle.log" "$ORACLE_PID")
echo "   coordinator $COORD_PORT, oracle $ORACLE_PORT"

coord() { "$TIXDB" client --port "$COORD_PORT" "$@"; }
oracle() { "$TIXDB" client --port "$ORACLE_PORT" "$@"; }

echo "== coordinator health (shard fleet visible)"
HEALTH=$(coord --health)
echo "$HEALTH" | grep -q '"ok":true' || fail "health: $HEALTH"
echo "$HEALTH" | grep -q '"shards"' || fail "health has no shards block"
echo "$HEALTH" | grep -q '"unreachable":0' || fail "backends unreachable at start"

QUERY='for $a in document("*")//article/descendant-or-self::*
score $a using ScoreFoo($a, {"'"$TERM_PROBE"'"}, {})
return <r>{$a}</r>
sortby(score)
threshold $a/@score > 0 stop after 5'

LIMIT_QUERY='for $a in document("limit: 2")//article/descendant-or-self::*
score $a using ScoreFoo($a, {"'"$TERM_PROBE"'"}, {})
return <r>{$a}</r>
sortby(score)
threshold $a/@score > 0 stop after 5'

query_request() { # query k
  python3 -c 'import json,sys; print(json.dumps({"op":"query","q":sys.argv[1],"k":int(sys.argv[2])}))' "$1" "$2"
}

REQUESTS=(
  '{"op":"ranked","terms":["'"$TERM_PROBE"'"],"k":5}'
  '{"op":"ranked","terms":["'"$TERM_PROBE"'"],"k":0}'
  '{"op":"search","terms":["'"$TERM_PROBE"'"],"k":8}'
  '{"op":"phrase","phrase":"'"$TERM_PROBE $TERM_PROBE"'"}'
)

# compare coordinator vs oracle: strip wall-clock timings, the cache
# flag, per-process step accounting, and the planner's plan line
# (cost estimates come from per-shard statistics, so a shard's plan
# can never be byte-identical to the full-corpus oracle's);
# everything else must match, and the coordinator answer must not
# carry the degraded flag
compare_families() { # label
  local label=$1 i=0
  : > "$WORK/compare_coord.ndjson"
  : > "$WORK/compare_oracle.ndjson"
  for req in "${REQUESTS[@]}"; do
    coord --raw "$req" >> "$WORK/compare_coord.ndjson" || fail "$label: coordinator request $i"
    oracle --raw "$req" >> "$WORK/compare_oracle.ndjson" || fail "$label: oracle request $i"
    i=$((i + 1))
  done
  # query requests are built with python (JSON quoting)
  coord --raw "$(query_request "$QUERY" 5)" \
    >> "$WORK/compare_coord.ndjson" || fail "$label: coordinator query"
  oracle --raw "$(query_request "$QUERY" 5)" \
    >> "$WORK/compare_oracle.ndjson" || fail "$label: oracle query"
  coord --raw "$(query_request "$LIMIT_QUERY" 10)" \
    >> "$WORK/compare_coord.ndjson" || fail "$label: coordinator limit query"
  oracle --raw "$(query_request "$LIMIT_QUERY" 10)" \
    >> "$WORK/compare_oracle.ndjson" || fail "$label: oracle limit query"
  python3 - "$WORK" "$label" <<'PY' || fail "$label: coordinator diverged from single node"
import json, sys, os
work, label = sys.argv[1], sys.argv[2]
STRIP = ("timings", "cached", "steps_used", "plan")
def clean(line):
    resp = json.loads(line)
    for key in STRIP:
        resp.pop(key, None)
    return resp
with open(os.path.join(work, "compare_coord.ndjson")) as f:
    coord = [clean(l) for l in f if l.strip()]
with open(os.path.join(work, "compare_oracle.ndjson")) as f:
    oracle = [clean(l) for l in f if l.strip()]
assert len(coord) == len(oracle) and coord, "request count mismatch"
for i, (c, o) in enumerate(zip(coord, oracle)):
    assert o.get("ok") is True, "%s: oracle refused request %d: %r" % (label, i, o)
    assert "degraded" not in c, "%s: request %d flagged degraded" % (label, i)
    assert c == o, "%s: request %d diverged:\n  coord:  %r\n  oracle: %r" % (label, i, c, o)
# the last request is the "limit: 2" document's stop-after-5 query
assert oracle[-1].get("limit") == 5 and oracle[-1]["total"] == 5, \
    "%s: limit query answered %r" % (label, oracle[-1])
print("   %s: %d requests byte-identical" % (label, len(coord)))
PY
}

echo "== scatter-gather equality (all families, both replicas up)"
compare_families "full fleet"

echo "== kill shard 0 primary mid-workload (failover must keep answers exact)"
kill "${BACKEND_PID[0-0]}"
wait "${BACKEND_PID[0-0]}" 2>/dev/null || true
compare_families "after failover"
coord --health | grep -q '"ok":true' || fail "health after failover"

echo "== kill shard 0 entirely (degraded flag, well-formed answers)"
kill "${BACKEND_PID[0-1]}"
wait "${BACKEND_PID[0-1]}" 2>/dev/null || true
DEGRADED=$(coord --raw '{"op":"search","terms":["'"$TERM_PROBE"'"],"k":8}')
echo "$DEGRADED" | grep -q '"ok":true' || fail "degraded answer not ok: $DEGRADED"
echo "$DEGRADED" | grep -q '"degraded":true' || fail "missing degraded flag: $DEGRADED"
echo "$DEGRADED" | grep -q '"shards_unavailable":\[0\]' \
  || fail "wrong shards_unavailable: $DEGRADED"

echo "== mutations refused at the coordinator"
coord --raw '{"op":"insert","name":"x.xml","xml":"<a/>"}' \
  | grep -q '"ok":false' || fail "coordinator accepted a mutation"

echo "== graceful shutdown"
kill -TERM "$COORD_PID"
for _ in $(seq 1 100); do
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$COORD_PID" 2>/dev/null; then fail "tixq ignored SIGTERM"; fi
wait "$COORD_PID" 2>/dev/null || true
grep -q "shutting down" "$WORK/tixq.log" || fail "no shutdown message"

echo "OK: dist smoke test passed"
