#!/bin/sh
# Golden run of the tixdb command line: a generated 6-article corpus
# (seed 42), then every search, phrase and query mode, stdout and
# stderr interleaved, each command followed by its exit status.
# Wall-clock figures are masked as <T>: "N ms" in text output, the
# "(N s)" of a governor violation, and the JSON "timings" object and
# "elapsed_ns" fields. The runtest rule in this directory diffs the
# output against cli.expected.
#
#   sh test/cli.sh _build/default/bin/tixdb.exe
set -u
case $1 in
  /*) T=$1 ;;
  *) T=$(pwd)/$1 ;;
esac
W=$(mktemp -d)
trap 'rm -rf "$W"' EXIT
cd "$W" || exit 1

mask() {
  sed -E \
    -e 's/[0-9]+(\.[0-9]+)?(e-?[0-9]+)? ms/<T> ms/g' \
    -e 's/\([0-9.]+ s\)/(<T> s)/g' \
    -e 's/"timings":\{[^}]*\}/"timings":"<T>"/g' \
    -e 's/"elapsed_ns":[0-9]+/"elapsed_ns":"<T>"/g'
}

run() {
  printf '$ tixdb'
  printf ' %s' "$@"
  printf '\n'
  "$T" "$@" >out 2>&1
  status=$?
  mask <out
  printf '[exit %d]\n' "$status"
}

"$T" gen -n 6 -o corpus >/dev/null
"$T" build corpus/*.xml -o db.tix >/dev/null

run search db.tix -t guba0,kiba0 -k 4
run search db.tix -t guba0,kiba0 -m auto -k 3
run search db.tix -t guba0,kiba0 -m genmeet --complex --parallel 2 -k 4
run search db.tix -t guba0,kiba0 -m comp2 -k 4
run search db.tix -t guba0,kiba0 --max-steps 3
run search db.tix -t veba0 -k 2 --trace
run search db.tix -t guba0,kiba0 -m auto -k 2 --trace
run search db.tix -t guba0,kiba0 -m auto --max-steps 3

run phrase db.tix -p 'guba0 ceba0'
run phrase db.tix -p 'guba0 ceba0' --parallel 2
run phrase db.tix -p 'guba0 ceba0' --comp3

SCORED='for $a in document("*")//article/descendant-or-self::* score $a using ScoreFoo($a, {"guba0"}, {"kiba0"}) return <r>{$a}</r> sortby(score) threshold $a/@score > 0 stop after 5'
TITLES='for $t in document("article-2.xml")//section-title return <r>{$t}</r>'

run query corpus/article-0.xml corpus/article-1.xml corpus/article-2.xml -q "$TITLES"
run query db.tix -q "$SCORED" --engine
run query db.tix -q "$SCORED" --explain
run query db.tix -q "$SCORED" --engine --trace
run query db.tix -q "$SCORED" --format json
run query db.tix -q "$TITLES" --engine
run query db.tix -q "$TITLES" --explain
run query db.tix -q 'for $a in'
run query db.tix -q 'for $a in' --engine
run query db.tix -q "$SCORED" --engine --max-steps 3
