#!/bin/sh
# End-to-end smoke test for tools/stats_report: render and self-diff a
# quickstart stats dump, then require a changed counter to fail the
# diff naming its key, a malformed --tolerance to exit 2 naming the
# flag, and a truncated dump to fail with the byte offset of the parse
# error.
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

# --tolerance is a finite decimal >= 0 read whole: anything else exits
# 2 naming the flag ("5%" must not read as 500% and match the changed
# counter above), while plain decimals still compare.
for bad in 5% inf nan abc -1 ""; do
    status=0
    "$stats_report" --diff "$stats" "$changed" --tolerance="$bad" \
        > /dev/null 2> "$workdir/tolerance.txt" || status=$?
    test "$status" = 2 || {
        echo "--tolerance='$bad' exited $status, not 2"; exit 1;
    }
    grep -q -- "--tolerance wants" "$workdir/tolerance.txt" || {
        echo "--tolerance='$bad' not named:"; cat "$workdir/tolerance.txt"
        exit 1
    }
done
for good in 0 0.05 1e-9; do
    "$stats_report" --diff "$stats" "$stats" --tolerance="$good" \
        > /dev/null || { echo "--tolerance=$good rejected"; exit 1; }
done

# A dump cut short must fail with the byte offset of the parse error.
head -c 4000 "$stats" > "$cut"
if "$stats_report" "$cut" > /dev/null 2> "$workdir/cut.txt"; then
    echo "truncated dump exited 0"; exit 1
fi
grep -q "^parse error at byte [0-9][0-9]*: " "$workdir/cut.txt" || {
    echo "truncated dump not diagnosed:"; cat "$workdir/cut.txt"; exit 1
}
echo "stats_report smoke OK"
