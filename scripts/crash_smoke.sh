#!/usr/bin/env bash
# Crash-recovery smoke test for live updates: start an updatable tixd
# (--wal-dir), ingest documents over the wire, kill -9 the server mid
# ingest, restart it on the same WAL directory and check that
#   - every acknowledged document survived the crash (durability),
#   - the recovered set is a contiguous prefix of the send order
#     (atomicity: a torn trailing append recovers to pre-op),
#   - query answers over base + recovered delta are byte-identical to
#     a from-scratch rebuild of the same corpus, for a compiled query
#     and for an interpreted tfidf query (collection statistics),
#   - a checkpoint folds the delta into an image, bumps the snapshot
#     generation, and a third restart boots from that image alone,
#   - documents acked while an async (wait:false) checkpoint is in
#     flight survive a kill -9 landing mid-checkpoint: the fourth
#     boot merges the rotated frozen log back and loses nothing,
#   - with 4 writers ingesting at once (a fresh server on a WAL
#     directory of its own), a search run right after each ack finds
#     the acknowledged document.
# Every server runs with --wal-batch 8, so recovery is exercised
# against group-committed (batched) WAL frames throughout.
# Exits non-zero on the first failed check.
set -euo pipefail

TIXDB=${TIXDB:-_build/default/bin/tixdb.exe}
TIXD=${TIXD:-_build/default/bin/tixd.exe}

WORK=$(mktemp -d)
WAL="$WORK/wal"
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; sed 's/^/  tixd: /' "$WORK/tixd.log" >&2 || true; exit 1; }

start_server() { # args: extra tixd arguments...
  : > "$WORK/tixd.log"
  "$TIXD" --port 0 --wal-dir "$WAL" --wal-batch 8 "$@" >"$WORK/tixd.log" 2>&1 &
  SERVER_PID=$!
  PORT=
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$WORK/tixd.log" | head -1)
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "tixd exited during startup"
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "tixd never reported its port"
}

client() { "$TIXDB" client --port "$PORT" "$@"; }

echo "== corpus + documents to ingest"
"$TIXDB" gen -n 20 -o "$WORK/corpus" >/dev/null
BASE_FILES=$(ls "$WORK/corpus"/*.xml | sort)
mkdir -p "$WORK/docs"
TOTAL=16
for i in $(seq 0 $((TOTAL - 1))); do
  printf '<article><title>crash doc %d</title><sec><p>uniqprobe%d shared smoke term</p></sec></article>' \
    "$i" "$i" > "$WORK/docs/doc-$i.xml"
done

echo "== start updatable tixd (ephemeral port, fresh WAL dir)"
# shellcheck disable=SC2086
start_server $BASE_FILES
echo "   port $PORT"
client --health | grep -q '"updatable":true' || fail "server is not updatable"
client --health | grep -q '"generation":0' || fail "fresh server not at generation 0"

echo "== ingest the first 5 documents (acked = durable)"
for i in 0 1 2 3 4; do
  "$TIXDB" ingest --port "$PORT" "$WORK/docs/doc-$i.xml" \
    | grep -q '"ok":true' || fail "ingest doc-$i"
done
ACKED=5
client --health | grep -q '"generation":5' || fail "5 mutations should be at generation 5"

echo "== kill -9 mid-ingest"
( for i in $(seq "$ACKED" $((TOTAL - 1))); do
    "$TIXDB" ingest --port "$PORT" "$WORK/docs/doc-$i.xml" >> "$WORK/acks.log" 2>/dev/null || break
  done ) &
INGEST_PID=$!
sleep 0.05
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
wait "$INGEST_PID" 2>/dev/null || true
LATE_ACKS=$(grep -c '"ok":true' "$WORK/acks.log" 2>/dev/null || true)
LATE_ACKS=${LATE_ACKS:-0}
echo "   $LATE_ACKS more documents acked before the crash"

echo "== restart on the same WAL dir (recovery)"
# shellcheck disable=SC2086
start_server $BASE_FILES
echo "   port $PORT"
grep -q "recovered" "$WORK/tixd.log" || fail "restart did not report recovery"

# membership probes: each ingested doc carries a unique planted term,
# so a non-zero ranked total for uniqprobeN means doc-N was recovered.
# The pattern is anchored on the response's leading fields: the
# "timings" object has a "total" key too, and a request under 0.1 ms
# prints it as e.g. 9.5e-05, which an unanchored match would take for
# a non-zero result count.
has_rows() { grep -q '^{"ok":true,"total":[1-9]'; }
present() { client --ranked "uniqprobe$1" -k 3 | has_rows; }

echo "== durability: every acked document survived"
RECOVERED=0
CONTIGUOUS=1
for i in $(seq 0 $((TOTAL - 1))); do
  if present "$i"; then
    [ "$CONTIGUOUS" = 1 ] || fail "recovered set has a hole before doc-$i"
    RECOVERED=$((RECOVERED + 1))
  else
    CONTIGUOUS=0
  fi
done
MIN=$((ACKED + LATE_ACKS))
echo "   recovered $RECOVERED/$TOTAL sent documents ($MIN were acked)"
[ "$RECOVERED" -ge "$MIN" ] || fail "an acked document was lost ($RECOVERED < $MIN)"
[ "$RECOVERED" -le "$TOTAL" ] || fail "recovered more than was sent"

echo "== query equality: base + delta == from-scratch rebuild"
QUERY='for $a in document("*")//article/descendant-or-self::*
score $a using ScoreFoo($a, {"shared"}, {"smoke"})
return <r>{$a}</r>
sortby(score)
threshold $a/@score > 0 stop after 10'
# tfidf is not compilable: -q runs it on the interpreter, whose
# document counts and frequencies must be the whole collection's
TFIDF_QUERY='for $a in document("*")//article/descendant-or-self::*
score $a using tfidf($a, {"shared", "smoke"})
return <r><score>{$a/@score}</score>{$a}</r>
sortby(score)
threshold $a/@score > 0 stop after 10'
REBUILD_FILES=$BASE_FILES
for i in $(seq 0 $((RECOVERED - 1))); do
  REBUILD_FILES="$REBUILD_FILES $WORK/docs/doc-$i.xml"
done
client -q "$QUERY" -k 10 > "$WORK/server.json" || fail "server query"
client -q "$TFIDF_QUERY" -k 10 > "$WORK/server_tfidf.json" \
  || fail "server tfidf query"
# shellcheck disable=SC2086
"$TIXDB" query $REBUILD_FILES -q "$QUERY" --format json > "$WORK/rebuild.json" \
  || fail "rebuild query"
# shellcheck disable=SC2086
"$TIXDB" query $REBUILD_FILES -q "$TFIDF_QUERY" --format json \
  > "$WORK/rebuild_tfidf.json" || fail "rebuild tfidf query"
python3 - "$WORK" <<'PY' || fail "recovered answers diverge from rebuild"
import json, sys, os
work = sys.argv[1]
def load(name):
    with open(os.path.join(work, name)) as f:
        return json.load(f)
server, rebuild = load("server.json"), load("rebuild.json")
assert server["ok"] and rebuild["ok"], (server, rebuild)
assert server["results"] == rebuild["results"], "rows differ"
assert server["total"] == rebuild["total"], "totals differ"
print("   %d rows identical to rebuild" % server["total"])
server, rebuild = load("server_tfidf.json"), load("rebuild_tfidf.json")
assert server["ok"] and rebuild["ok"], (server, rebuild)
assert server["trees"] == rebuild["trees"], "tfidf trees differ"
assert server["total"] == rebuild["total"], "tfidf totals differ"
print("   %d tfidf trees identical to rebuild" % len(server["trees"]))
PY

echo "== checkpoint bumps the generation and resets the WAL"
GEN=$(client --health | sed -n 's/.*"generation":\([0-9][0-9]*\).*/\1/p')
client --checkpoint | grep -q '"ok":true' || fail "checkpoint"
NEWGEN=$(client --health | sed -n 's/.*"generation":\([0-9][0-9]*\).*/\1/p')
[ "$NEWGEN" -eq $((GEN + 1)) ] || fail "generation did not bump ($GEN -> $NEWGEN)"
client --stats | grep -q '"wal_records":0' || fail "WAL not reset by checkpoint"
client -q "$QUERY" -k 10 > "$WORK/after_ckpt.json" || fail "post-checkpoint query"
client -q "$TFIDF_QUERY" -k 10 > "$WORK/after_ckpt_tfidf.json" \
  || fail "post-checkpoint tfidf query"
python3 - "$WORK" <<'PY' || fail "checkpoint changed the answers"
import json, sys, os
work = sys.argv[1]
def load(name):
    with open(os.path.join(work, name)) as f:
        return json.load(f)
before, after = load("server.json"), load("after_ckpt.json")
assert before["results"] == after["results"], "rows differ across checkpoint"
before, after = load("server_tfidf.json"), load("after_ckpt_tfidf.json")
assert before["trees"] == after["trees"], "tfidf trees differ across checkpoint"
print("   answers unchanged across checkpoint")
PY

echo "== third boot: the checkpoint image alone restores the corpus"
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
MAGIC=$(head -c 8 "$WORK/wal/checkpoint.tix")
[ "$MAGIC" = "TIXDB004" ] || fail "checkpoint image magic is '$MAGIC', expected TIXDB004"
export TIX_LOG=info          # surface the store's open-path log line
start_server   # no corpus files: --wal-dir must find checkpoint.tix
unset TIX_LOG
echo "   port $PORT"
grep -q "checkpoint.tix" "$WORK/tixd.log" || fail "restart did not use the checkpoint"
grep -q "mapped TIXDB004 image" "$WORK/tixd.log" \
  || fail "third boot did not take the zero-copy mmap path"
client -q "$QUERY" -k 10 > "$WORK/from_ckpt.json" || fail "from-checkpoint query"
python3 - "$WORK" <<'PY' || fail "checkpoint image lost data"
import json, sys, os
work = sys.argv[1]
with open(os.path.join(work, "server.json")) as f:
    before = json.load(f)
with open(os.path.join(work, "from_ckpt.json")) as f:
    after = json.load(f)
assert before["results"] == after["results"], "rows differ after image-only boot"
print("   answers unchanged after image-only boot")
PY

echo "== ingest during an async checkpoint, kill -9 mid-checkpoint"
for i in $(seq 0 5); do
  printf '<article><title>ckpt doc %d</title><sec><p>ckprobe%d checkpoint window term</p></sec></article>' \
    "$i" "$i" > "$WORK/docs/ck-$i.xml"
done
for i in 0 1 2; do
  "$TIXDB" ingest --port "$PORT" "$WORK/docs/ck-$i.xml" \
    | grep -q '"ok":true' || fail "ingest ck-$i"
done
client --checkpoint --no-wait | grep -q '"started":true' \
  || fail "async checkpoint did not report started"
for i in 3 4 5; do
  "$TIXDB" ingest --port "$PORT" "$WORK/docs/ck-$i.xml" \
    | grep -q '"ok":true' || fail "ingest ck-$i during checkpoint"
done
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "== fourth boot: acked-during-checkpoint documents recovered"
start_server   # image + whatever WAL state the crash left behind
echo "   port $PORT"
ck_present() { client --ranked "ckprobe$1" -k 3 | has_rows; }
for i in 0 1 2 3 4 5; do
  ck_present "$i" || fail "ck-$i acked but missing after mid-checkpoint crash"
done
echo "   all 6 documents acked around the async checkpoint survived"
for i in $(seq 0 $((RECOVERED - 1))); do
  present "$i" || fail "doc-$i lost after the mid-checkpoint crash"
done
echo "   all $RECOVERED pre-existing documents still present"

kill -TERM "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "== concurrent ingest: each ack is served by the next search"
WAL="$WORK/wal-concurrent"
# shellcheck disable=SC2086
start_server $BASE_FILES
echo "   port $PORT"
WRITERS=4
PER=30
# 800 words a document: each publish indexes every pending document,
# which leaves time for another writer's commit to land meanwhile
FILLER=$(seq 1 800 | sed 's/^/filler/' | tr '\n' ' ')
# the response's own result count, read from its leading fields (the
# "timings" object has a "total" key too)
search_total() {
  client --search "$1" | sed -n 's/^{"ok":true,"total":\([0-9][0-9]*\)[,}].*/\1/p'
}
ingest_loop() { # args: writer
  local w=$1 j doc n
  for j in $(seq 0 $((PER - 1))); do
    doc="$WORK/docs/cc-$w-$j.xml"
    printf '<article><title>concurrent doc %d %d</title><sec><p>ccprobe%dx%d concurrent term</p><p>%s</p></sec></article>' \
      "$w" "$j" "$w" "$j" "$FILLER" > "$doc"
    "$TIXDB" ingest --port "$PORT" "$doc" | grep -q '"ok":true' \
      || { echo "ingest cc-$w-$j failed"; return 1; }
    n=$(search_total "ccprobe${w}x${j}")
    [ "${n:-0}" -ge 1 ] \
      || { echo "cc-$w-$j acked but not served (total ${n:-missing})"; return 1; }
  done
}
PIDS=
for w in $(seq 0 $((WRITERS - 1))); do
  ingest_loop "$w" > "$WORK/cc-$w.log" 2>&1 &
  PIDS="$PIDS $!"
done
FAILED=0
for pid in $PIDS; do
  wait "$pid" || FAILED=1
done
if [ "$FAILED" != 0 ]; then
  cat "$WORK"/cc-*.log >&2
  fail "a concurrently ingested document was not served after its ack"
fi
echo "   all $((WRITERS * PER)) concurrently acked documents were served"

kill -TERM "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "OK: crash-recovery smoke test passed"
