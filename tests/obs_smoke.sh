#!/bin/sh
# End-to-end smoke test for the observability layer: run the
# quickstart example with interval stats sampling and full tracing on,
# then validate that every emitted JSON artifact is well-formed and
# that the CSV dump and series agree on their stat names.
#
#   obs_smoke.sh QUICKSTART_BIN CHECK_JSON_BIN WORK_DIR
set -eu

quickstart=$1
check_json=$2
workdir=$3

mkdir -p "$workdir"
stats="$workdir/obs_smoke_stats.jsonl"
trace="$workdir/obs_smoke_trace.json"
series="$workdir/obs_smoke_series.csv"
dump="$workdir/obs_smoke_dump.csv"
rm -f "$stats" "$trace" "$series" "$dump"

# With both formats asked for, JSON carries the series and the CSV
# gets the end-of-run dump; alone, the CSV carries the series.
FSOI_TRACE=all:1 FSOI_TRACE_FILE="$trace" \
    "$quickstart" fft 4 --stats-json="$stats" --stats-interval=10000 \
    --stats-csv="$dump" > "$workdir/obs_smoke_stdout.txt"
"$quickstart" fft 4 --stats-csv="$series" --stats-interval=10000 \
    > /dev/null

test -s "$stats" || { echo "no stats emitted"; exit 1; }
test -s "$trace" || { echo "no trace emitted"; exit 1; }

"$check_json" --lines "$stats"
"$check_json" "$trace"

grep -q '"traceEvents"' "$trace" || {
    echo "trace missing traceEvents array"; exit 1;
}

# CSV: the end-of-run dump is a name,value header and one two-field
# row per stat; the series' header is cycle plus the same names in the
# same order, and every epoch row is as wide as its header.
test "$(head -n 1 "$dump")" = "name,value" || {
    echo "CSV dump header is not name,value"; exit 1;
}
awk -F, 'NR > 1 && NF != 2 { bad = 1 } END { exit bad || NR < 2 }' \
    "$dump" || { echo "CSV dump row without exactly two fields"; exit 1; }
names=$(tail -n +2 "$dump" | cut -d, -f1 | paste -sd, -)
test "$(head -n 1 "$series")" = "cycle,$names" || {
    echo "CSV series header is not cycle plus the dump's names"; exit 1;
}
awk -F, 'NR == 1 { w = NF } NF != w { bad = 1 } END { exit bad || NR < 2 }' \
    "$series" || { echo "CSV series row wider or narrower than its header"; exit 1; }

# A malformed positional number stops the run with a fatal naming it.
if "$quickstart" fft x > /dev/null 2> "$workdir/obs_smoke_bad.txt"; then
    echo "quickstart accepted cores 'x'"; exit 1
fi
grep -q "fatal: cores wants" "$workdir/obs_smoke_bad.txt" || {
    echo "quickstart fft x did not name the cores argument"; exit 1;
}
# A core count the model cannot build (not a perfect square from 4 to
# 64) stops at once with a fatal naming it, instead of an assertion
# deep in the mesh layout or a livelock past 64 sharer bits.
for cores in 5 81; do
    if timeout 60 "$quickstart" fft "$cores" > /dev/null \
        2> "$workdir/obs_smoke_cores.txt"; then
        echo "quickstart accepted $cores cores"; exit 1
    fi
    grep -q "fatal: cores wants a perfect square" \
        "$workdir/obs_smoke_cores.txt" || {
        echo "quickstart fft $cores did not name the cores argument"
        exit 1
    }
done
echo "obs smoke OK"
