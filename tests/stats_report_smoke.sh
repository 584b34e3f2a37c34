#!/bin/sh
# End-to-end smoke test for tools/stats_report: render and self-diff a
# quickstart stats dump, then require a changed counter to fail the
# diff naming its key, and a truncated dump to fail with the byte
# offset of the parse error.
#
#   stats_report_smoke.sh QUICKSTART_BIN STATS_REPORT_BIN WORK_DIR
set -eu

quickstart=$1
stats_report=$2
workdir=$3

mkdir -p "$workdir"
stats="$workdir/stats.json"
changed="$workdir/stats_changed.json"
cut="$workdir/stats_cut.json"
rm -f "$stats" "$changed" "$cut"

"$quickstart" fft 4 --stats-json="$stats" > "$workdir/stdout.txt"
test -s "$stats" || { echo "no stats emitted"; exit 1; }

"$stats_report" "$stats" > "$workdir/report.txt"
grep -q "scalar values" "$workdir/report.txt" || {
    echo "summary missing its scalar count"; exit 1;
}
"$stats_report" --diff "$stats" "$stats" > /dev/null

# One counter changed: the diff must fail and name that key.
sed 's/"confirmations":/"confirmations":9/' "$stats" > "$changed"
if "$stats_report" --diff "$stats" "$changed" > "$workdir/diff.txt"; then
    echo "diff of a changed counter exited 0"; exit 1
fi
grep -q "differs: fsoi.activity.confirmations " "$workdir/diff.txt" || {
    echo "diff does not name the changed key:"; cat "$workdir/diff.txt"
    exit 1
}

# A dump cut short must fail with the byte offset of the parse error.
head -c 4000 "$stats" > "$cut"
if "$stats_report" "$cut" > /dev/null 2> "$workdir/cut.txt"; then
    echo "truncated dump exited 0"; exit 1
fi
grep -q "^parse error at byte [0-9][0-9]*: " "$workdir/cut.txt" || {
    echo "truncated dump not diagnosed:"; cat "$workdir/cut.txt"; exit 1
}
echo "stats_report smoke OK"
